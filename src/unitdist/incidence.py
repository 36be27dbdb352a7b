"""Annulus-overlap geometry and discrete incidence counts.

The continuous objects here are the two-annulus intersection (how much can
two unit annuli with delta-fattened boundaries overlap, as a function of
the center separation) and the section measure
lambda(k) = |{y : 1 - 2 delta <= |y| <= 1 + 2 delta, k + y in K_delta}|.
The discrete objects are delta-separated nets of the rasterized set, the
dyadic ladder of section sizes, and the census of well-separated tuples
sitting on a common unit annulus -- the counting skeleton behind the
pair-measure lower bounds. The nets take their close pairs from the
package's one near-pair search, `geom._near_pairs`, and the census its
squared distances from the one kernel `geom._sq_dist`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import _near_pairs, _sq_dist, _squared_limits
from .grids import GridIndicator, _certified_counts, _within_budget, fft_length

__all__ = [
    "AnnulusOverlap",
    "annulus_intersection_area",
    "separated_subset",
    "SectionHistogram",
    "section_histogram",
    "section_measures",
    "IncidenceCensus",
    "incidence_census",
]

_TRIPLE_BLOCK = 1 << 22  # (pair, k) candidates tested at once


# ---------------------------------------------------------------------------
# exact two-annulus overlap
# ---------------------------------------------------------------------------

def _lens_area(r1: float, r2: float, s: float) -> float:
    """Area of the intersection of discs of radii r1, r2 at center distance s."""
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a1 = math.acos(max(-1.0, min(1.0, (s * s + r1 * r1 - r2 * r2) / (2 * s * r1))))
    a2 = math.acos(max(-1.0, min(1.0, (s * s + r2 * r2 - r1 * r1) / (2 * s * r2))))
    sq = (-s + r1 + r2) * (s + r1 - r2) * (s - r1 + r2) * (s + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(0.0, sq))


@dataclass(frozen=True)
class AnnulusOverlap:
    area: float
    separation: float
    scaled_constant: float  # area * (delta + separation) / delta^2


def annulus_intersection_area(
    separation: float, delta: float, width_multiplier: float = 2.0
) -> AnnulusOverlap:
    """Exact area of the overlap of two fattened unit circles.

    Each annulus is {x : 1 - w delta <= |x - c_i| <= 1 + w delta}; inclusion-
    exclusion over the four disc pairs gives the overlap in closed form. The
    scaled constant area * (delta + s) / delta^2 is the quantity that stays
    bounded uniformly in s and delta.
    """
    if delta <= 0 or width_multiplier * delta >= 1:
        raise ValueError("need 0 < width_multiplier * delta < 1")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    w = width_multiplier * delta
    hi, lo = 1.0 + w, 1.0 - w
    s = separation
    if s == 0.0:
        area = math.pi * (hi * hi - lo * lo)
    else:
        area = (
            _lens_area(hi, hi, s)
            - _lens_area(hi, lo, s)
            - _lens_area(lo, hi, s)
            + _lens_area(lo, lo, s)
        )
        area = max(area, 0.0)
    return AnnulusOverlap(
        area=area,
        separation=s,
        scaled_constant=area * (delta + s) / (delta * delta),
    )


# ---------------------------------------------------------------------------
# separated nets
# ---------------------------------------------------------------------------

def separated_subset(points: np.ndarray, r: float) -> np.ndarray:
    """Indices of a maximal r-separated subset, greedy in row order.

    Every selected pair is at distance >= r and every rejected point is
    within r of some selected one (so the selection is also an r-net).

    The selection is a sweep over a neighbor graph: its edges are the pairs
    whose squared distance is below r * r, found by `geom._near_pairs` on
    cubes of side r, where only one cube or two that touch can hold them.
    One pass in row order over each point's later neighbors then keeps
    every point that no earlier kept point has blocked.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    if not (r > 0):
        raise ValueError("r must be positive")
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # a closed band just short of r * r: a pair is an edge exactly when its
    # squared distance is below r * r
    pairs = list(_near_pairs(pts, r, 0.0, math.nextafter(r * r, 0.0)))
    p, q = (np.concatenate(c) for c in zip(*pairs))
    first = np.minimum(p, q)
    by_first = np.argsort(first)
    starts = np.searchsorted(first[by_first], np.arange(n + 1)).tolist()
    later = np.maximum(p, q)[by_first].tolist()

    blocked = bytearray(n)
    kept: list[int] = []
    for i in range(n):
        if not blocked[i]:
            kept.append(i)
            for j in later[starts[i] : starts[i + 1]]:
                blocked[j] = 1
    return np.array(kept, dtype=np.int64)


# ---------------------------------------------------------------------------
# section measures and their dyadic histogram
# ---------------------------------------------------------------------------

def _fft_convolve_same(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve with a centered kernel, same output shape as mask."""
    pads = [(k - 1) // 2 for k in kernel.shape]
    shape = [fft_length(n + k - 1) for n, k in zip(mask.shape, kernel.shape)]
    axes = tuple(range(mask.ndim))
    fa = np.fft.rfftn(mask, shape, axes=axes)
    fk = np.fft.rfftn(kernel, shape, axes=axes)
    conv = np.fft.irfftn(fa * fk, shape, axes=axes)
    sl = tuple(slice(p, p + n) for p, n in zip(pads, mask.shape))
    return conv[sl]


def section_measures(G: GridIndicator) -> np.ndarray:
    """lambda at every cell: occupied-cell count of the annular shell
    1 +- 2 delta around each center, times cell^d (zero off the support).
    The FFT counts are certified-rounded to integers."""
    if G.d not in (2, 3):
        raise ValueError("section measures need a 2-D or 3-D grid")
    cell = float(G.cell)
    delta = float(G.delta)
    R = int(math.ceil((1.0 + 2 * delta) / cell)) + 1
    # 8 bytes a cell for the mask, 16 a shell offset for the kernel and its
    # distances, and at most 42 per padded transform entry measured at the FFTs
    cells, shell = math.prod(G.dims), (2 * R + 1) ** G.d
    padded = math.prod(fft_length(n + 2 * R) for n in G.dims)
    _within_budget("section measures", 8 * cells + 16 * shell + 56 * padded)
    mask = G.dense_mask().astype(np.float64)
    offsets = np.arange(-R, R + 1) * cell
    dist = np.sqrt(sum(a**2 for a in np.ix_(*[offsets] * G.d)))
    kernel = ((dist >= 1.0 - 2 * delta) & (dist <= 1.0 + 2 * delta)).astype(np.float64)
    counts = _certified_counts(_fft_convolve_same(mask, kernel))
    counts[mask == 0] = 0
    return counts * cell**G.d


@dataclass(frozen=True)
class SectionHistogram:
    edges: np.ndarray  # dyadic ladder e_0 < ... < e_M, e_0 = delta^d
    counts: np.ndarray  # occupied cells with lambda in [e_m, e_{m+1})
    centers: np.ndarray  # occupied cell centers in row-major order, (n, d)
    values: np.ndarray  # lambda at each of those cells
    delta: float
    cell: float
    d: int
    alpha: float  # the grid's dimension, nan if it carries none

    def top_threshold(self) -> float:
        """Lower edge of the highest populated bin (the lambda ladder rung)."""
        nz = np.flatnonzero(self.counts)
        if nz.size == 0:
            raise ValueError("histogram has no populated bins")
        return float(self.edges[nz[-1]])


def section_histogram(G: GridIndicator) -> SectionHistogram:
    """Dyadic histogram of the section measures over occupied cells.

    Bins double from the floor delta^d upward; cells below the floor land in
    no bin. The bin count is at most 4 log2(1/delta). The histogram keeps
    the occupied centers and their section measures, so the census reuses
    this one `section_measures` convolution.
    """
    lam_map = section_measures(G)
    mask = G.dense_mask()
    vals = lam_map[mask]
    delta = float(G.delta)
    floor = delta**G.d
    top = float(vals.max()) if vals.size else 0.0
    if top <= floor:
        M = 1
    else:
        M = int(math.ceil(math.log2(top / floor) + 1e-12))
        M = max(M, 1)
    cap = 4 * math.log2(1.0 / delta)
    if M > cap:
        raise AssertionError(f"bin count {M} exceeds the 4*log2(1/delta) cap {cap:.1f}")
    edges = floor * np.exp2(np.arange(M + 1))
    above = vals >= floor
    idx = np.floor(np.log2(np.where(above, vals, floor) / floor)).astype(np.int64)
    idx = np.minimum(idx, M - 1)
    counts = np.bincount(idx[above], minlength=M)

    occupied = np.argwhere(mask)  # row-major (C) order
    centers = np.stack([G.axis_centers(a)[occupied[:, a]] for a in range(G.d)], axis=1)
    for arr in (counts, edges, centers, vals):
        arr.setflags(write=False)
    return SectionHistogram(
        edges=edges,
        counts=counts,
        centers=centers,
        values=vals,
        delta=delta,
        cell=float(G.cell),
        d=G.d,
        alpha=G.alpha,
    )


# ---------------------------------------------------------------------------
# incidence census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceCensus:
    j_points: np.ndarray  # delta-separated net of the occupied centers
    centers: np.ndarray  # 2 delta-separated heavy cells (lambda >= lam)
    section_sizes: np.ndarray  # |S_c| per center
    tuple_count: int  # ordered well-separated tuples on some S_c
    separation_threshold: float
    max_projection_fiber: int
    lam: float
    c: float
    delta: float


def incidence_census(hist: SectionHistogram, lam: float, c: float = 0.1) -> IncidenceCensus:
    """Count well-separated pairs (d=2) or triples (d=3) of net points on a
    common annular section.

    `hist` is the grid's `section_histogram`: the census reads its occupied
    centers and section measures, so a run convolves once. J is a maximal
    delta-separated subset of the occupied cell centers. Centers are heavy
    cells (section measure >= lam) thinned to mutual distance 2 delta. Both
    nets come from `separated_subset`. For each center c, S_c = J intersected with the
    shell 1 +- 3 delta around c, and the census counts ordered tuples from
    S_c with all pairwise distances >= c * (lam / delta^(d - alpha))^(1/alpha).
    The projection fiber of a tuple is the number of centers it serves.

    Each section is picked by `_sq_dist` against the squared shell limits
    of `geom._squared_limits`. Its far pairs come from one `_sq_dist`
    matrix, and its triples from extending the far pairs (i, j) by every
    k > j far from both, in blocks. Every unordered tuple is keyed as one
    int64 over the net's indices, and max_projection_fiber is the largest
    count of one np.unique over all sections' keys.
    """
    d, alpha, delta = hist.d, hist.alpha, hist.delta
    if not math.isfinite(alpha):
        raise ValueError("grid carries no alpha (needed for the threshold)")
    if lam <= 0 or c <= 0:
        raise ValueError("lam and c must be positive")

    centers_all = hist.centers
    j_points = centers_all[separated_subset(centers_all, delta)]
    heavy = centers_all[hist.values >= lam]
    centers = heavy[separated_subset(heavy, 2 * delta)]

    threshold = c * (lam / delta ** (d - alpha)) ** (1.0 / alpha)

    # 1 - 3 delta <= |y - ctr| <= 1 + 3 delta, decided on squared distances
    lo2, hi2 = _squared_limits(1.0 - 3 * delta, 1.0 + 3 * delta)
    j_axes = j_points.T
    sizes = np.zeros(centers.shape[0], dtype=np.int64)
    sections: list[np.ndarray] = []
    for i, ctr in enumerate(centers):
        sq = _sq_dist(j_axes, ctr)
        sel = np.flatnonzero((sq >= lo2) & (sq <= hi2))
        sizes[i] = sel.size
        sections.append(sel)

    arity = 2 if d == 2 else 3
    # a key is 8 bytes, held in the keys list, their concatenation and
    # np.unique's sorted copy and index arrays; a section's far matrix and
    # its distances take 32 bytes per entry
    keys_max = sum(math.comb(m, arity) for m in sizes.tolist())
    _within_budget("tuple keys", 48 * keys_max + 32 * int(sizes.max(initial=0)) ** 2)

    n_j = j_points.shape[0]
    if n_j**arity > np.iinfo(np.int64).max:
        raise RuntimeError(
            f"a net of {n_j} points overflows the int64 {arity}-tuple keys; "
            "coarsen the grid"
        )
    total = 0
    keys: list[np.ndarray] = []
    thr2 = threshold * threshold
    for sel in sections:
        if sel.size < arity:
            continue
        cols = j_points[sel].T
        far = _sq_dist(cols[:, :, None], cols[:, None, :]) >= thr2
        np.fill_diagonal(far, False)
        ii, jj = np.nonzero(np.triu(far, 1))
        if arity == 2:
            total += int(far.sum())
            keys.append(sel[ii] * n_j + sel[jj])
            continue
        # triples i < j < k: extend each far pair (i, j) by every k > j far
        # from both, a block of pairs at a time
        step = max(1, _TRIPLE_BLOCK // sel.size)
        later = np.arange(sel.size)
        for at in range(0, ii.size, step):
            i, j = ii[at : at + step], jj[at : at + step]
            p, k = np.nonzero(far[i] & far[j] & (later > j[:, None]))
            total += 6 * k.size
            keys.append((sel[i[p]] * n_j + sel[j[p]]) * n_j + sel[k])

    # the projection fiber of a tuple: how many sections hold it
    max_fiber = 0
    if keys:
        _, fiber = np.unique(np.concatenate(keys), return_counts=True)
        max_fiber = int(fiber.max(initial=0))
    for arr in (j_points, centers, sizes):
        arr.setflags(write=False)
    return IncidenceCensus(
        j_points=j_points,
        centers=centers,
        section_sizes=sizes,
        tuple_count=total,
        separation_threshold=threshold,
        max_projection_fiber=max_fiber,
        lam=lam,
        c=c,
        delta=delta,
    )
