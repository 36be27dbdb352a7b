"""Band-restricted pair measures for neighborhoods of 1-D sets and their
products: autocorrelations, exact interval-pair band masses, and the two
routes to |D^delta| = |{(k1, k2) in K_delta^2 : |k1 - k2| in 1 +- w delta}|.

Three independent computations of the same quantity live here on purpose:

* `pair_band_measure_grid` counts rasterized cell pairs and returns a
  certified [inner, outer] bracket (slack +-sqrt(d)*cell on the band);
* `pair_band_measure_product` ("dense") integrates the exact formula
  |D^delta| = 2 * int_{s>=0} corrF(s) m(s) ds on a correlogram lattice.
  The lattice correlograms are exact: FFT overlap counts after certified
  rounding to integers;
* the "atoms" path evaluates the same double integral from deduplicated
  block-pair center differences -- the only route that reaches
  delta = 2^-26. Both autocorrelations are exact piecewise-linear functions
  with integer breakpoints on the quarter-unit lattice (slope jumps summed
  in int64); the vertical band mass W(s) = 2 (G(u+) - G(u-)) comes from the
  exactly piecewise-quadratic G = int_0 corrB, one sorted lookup and a
  local quadratic per node. corrF and W are even in s, so composite Simpson
  runs over s >= 0 only, on ascending nodes with each shared node evaluated
  once.

They cross-check each other in the test-suite; none is derived from another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import IntervalUnion, float_quotients
from .grids import GridIndicator, fft_length

__all__ = [
    "Correlogram",
    "autocorrelation",
    "pair_band_mass",
    "PairBandBracket",
    "pair_band_measure_grid",
    "ProductBandMeasure",
    "pair_band_measure_product",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# exact interval-pair band masses
# ---------------------------------------------------------------------------

def _blocks(U: IntervalUnion) -> tuple[np.ndarray, np.ndarray]:
    """Float centers and lengths of the intervals (exact for dyadics)."""
    if U.is_empty:
        return np.empty(0), np.empty(0)
    arr = U.as_float_array()
    return (arr[:, 0] + arr[:, 1]) / 2.0, arr[:, 1] - arr[:, 0]


def _dq(a: np.ndarray, b: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int_a^b |y| dy computed cancellation-free; width = b - a exactly."""
    same_sign = (a >= 0) == (b >= 0)
    return np.where(
        same_sign,
        width * (np.abs(a) + np.abs(b)) / 2.0,
        (b * np.abs(b) - a * np.abs(a)) / 2.0,
    )


def _trap_band(x1, x2, h, pl) -> np.ndarray:
    """int_{x1}^{x2} trap(t) dt for the trapezoid of half-support h and
    plateau half-width pl (the density of the difference of two uniform
    blocks, un-normalized: peak value = min of the two lengths)."""
    width = x2 - x1
    return 0.5 * (
        _dq(x1 + h, x2 + h, width)
        + _dq(x1 - h, x2 - h, width)
        - _dq(x1 + pl, x2 + pl, width)
        - _dq(x1 - pl, x2 - pl, width)
    )


_PAIR_CHUNK = 512


def pair_band_mass(U1: IntervalUnion, U2: IntervalUnion, lo: float, hi: float) -> float:
    """Exact measure of {(x1, x2) in U1 x U2 : lo <= |x1 - x2| <= hi}.

    Evaluated pair-of-blocks by pair-of-blocks through the trapezoid
    antiderivative, after shifting each pair to its own small coordinate
    (arguments stay O(band width), so no catastrophic cancellation).
    """
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    c1, l1 = _blocks(U1)
    c2, l2 = _blocks(U2)
    if c1.size == 0 or c2.size == 0:
        return 0.0
    total = 0.0
    for i0 in range(0, c1.size, _PAIR_CHUNK):
        cc = c1[i0 : i0 + _PAIR_CHUNK, None]
        ll = l1[i0 : i0 + _PAIR_CHUNK, None]
        D = cc - c2[None, :]
        h = (ll + l2[None, :]) / 2.0
        pl = np.abs(ll - l2[None, :]) / 2.0
        for sign in (1.0, -1.0):
            x1 = sign * lo - D
            x2 = sign * hi - D
            x1, x2 = np.minimum(x1, x2), np.maximum(x1, x2)
            sel = (x2 > -h) & (x1 < h)
            if sel.any():
                total += float(_trap_band(x1[sel], x2[sel], h[sel], pl[sel]).sum())
    return total


# ---------------------------------------------------------------------------
# correlograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correlogram:
    """corr(u) = |A ∩ (A - u)| sampled at u = k * sample_spacing, k >= 0."""

    sample_spacing: float
    values: np.ndarray
    total_mass: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.size == 0 or self.sample_spacing <= 0:
            raise ValueError("empty correlogram")
        if abs(v[0] - self.total_mass) > 1e-9 * max(1.0, abs(self.total_mass)):
            raise ValueError(
                f"corr(0)={v[0]!r} does not match the set measure {self.total_mass!r}"
            )
        if v.min() < -1e-12:
            raise ValueError("correlogram has significantly negative values")
        if v.max() > v[0] * (1 + 1e-9) + 1e-12:
            raise ValueError("corr(u) exceeds corr(0)")

    def integral(self) -> float:
        """int corr(u) du over all u (two-sided), = |A|^2 by Fubini."""
        h = self.sample_spacing
        return 2.0 * h * (self.values.sum() - 0.5 * self.values[0])


_EXACT_BLOCK_CAP = 64


def autocorrelation(A: IntervalUnion, spacing, method: str = "auto") -> Correlogram:
    """Correlogram of an interval union.

    The fast path samples per-cell coverage exactly and squares its FFT.
    When every endpoint lies on the spacing lattice (our constructions and
    every CLI path), each cell is empty or full and the FFT returns whole-cell
    overlap counts plus float noise. These are rounded to integers, certified
    (each within 0.25 of its integer, else FloatingPointError) and scaled by
    the spacing, so the lattice correlogram is exact and does not depend on
    the transform length. Other coverage keeps the unrounded FFT, within
    2*spacing*|A| of corr. The reference path evaluates the block-pair
    trapezoids directly and is capped at 64 blocks.
    """
    spacing_q = _frac(spacing)
    if spacing_q <= 0:
        raise ValueError("spacing must be positive")
    if A.is_empty:
        raise ValueError("empty union has no correlogram")
    lengths = A.hi - A.lo
    lengths = lengths[lengths > 0]
    if lengths.size and spacing_q > Fraction(int(lengths.min()), 2 * A.den):
        raise ValueError("spacing too coarse for the finest block")
    if method == "auto":
        method = "exact" if A.n_intervals <= _EXACT_BLOCK_CAP else "fft"

    mass = float(A.total_length)
    h = float(spacing_q)
    if method == "exact":
        if A.n_intervals > _EXACT_BLOCK_CAP:
            raise ValueError("exact path capped at 64 blocks; use the fft path")
        span_lo, span_hi = A.span
        width = float(span_hi - span_lo)
        K = int(math.floor(width / h)) + 1
        lags = np.arange(K) * h
        c, l = _blocks(A)
        vals = np.zeros(K)
        for i in range(c.size):
            D = c[i] - c
            hh = (l[i] + l) / 2.0
            pl = np.abs(l[i] - l) / 2.0
            # trap value at each lattice lag, accumulated per block pair
            x = lags[:, None] - D[None, :]
            vals += 0.5 * (
                np.abs(x + hh) + np.abs(x - hh) - np.abs(x + pl) - np.abs(x - pl)
            ).sum(axis=1)
        return Correlogram(sample_spacing=h, values=vals, total_mass=mass)

    if method != "fft":
        raise ValueError(f"unknown method {method!r}")
    covered, step = _coverage(A, spacing_q)
    full = covered == step
    if np.all(full | (covered == 0)):
        # lattice-aligned: the raw correlation counts whole overlapping cells
        corr = _certified_counts(_fft_autocorrelation(full.astype(np.float64))) * h
    else:
        corr = _fft_autocorrelation(float_quotients(covered, step)) * h
        corr = np.maximum(corr, 0.0)
        corr[0] = mass
    return Correlogram(sample_spacing=h, values=corr, total_mass=mass)


def _fft_autocorrelation(x: np.ndarray) -> np.ndarray:
    """raw[k] = sum_i x[i] x[i + k] for 0 <= k < x.size, from one real FFT
    pair long enough that no lag wraps around."""
    n = x.size
    size = fft_length(2 * n - 1)
    spec = np.fft.rfft(x, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n]


def _certified_counts(raw: np.ndarray) -> np.ndarray:
    """FFT pair counts rounded to int64. Raises if any value lies 0.25 or
    more from its integer, so rounding never hides a wrong count."""
    counts = np.rint(raw)
    if np.any(np.abs(raw - counts) >= 0.25):
        raise FloatingPointError("FFT pair counts are not within 0.25 of integers")
    return counts.astype(np.int64)


def _coverage(A: IntervalUnion, spacing: Fraction) -> tuple[np.ndarray, int]:
    """Per-cell covered lengths of A on the spacing lattice, as exact
    integers in 1/den units, and the spacing in the same units.

    Cells run from the lattice point at or below A's start. A cell strictly
    inside one interval is covered whole; the covered parts of the cells
    holding an endpoint are summed as exact integers.
    """
    den = math.lcm(A.den, spacing.denominator)
    lo, hi = A.numerators(den)
    step = spacing.numerator * (den // spacing.denominator)  # in 1/den units
    origin = int(lo[0]) // step * step
    lo, hi = lo - origin, hi - origin
    n = max(-(-int(hi[-1]) // step), 1)
    first, stop = lo // step, -(-hi // step)  # cells [first, stop) meet [lo, hi]
    one = stop - first == 1
    many = stop - first > 1
    inside = np.cumsum(
        np.bincount(first[many] + 1, minlength=n + 1)
        - np.bincount(stop[many] - 1, minlength=n + 1)
    )[:n]
    covered = inside * step
    np.add.at(covered, first[one], hi[one] - lo[one])
    np.add.at(covered, first[many], (first[many] + 1) * step - lo[many])
    np.add.at(covered, stop[many] - 1, hi[many] - (stop[many] - 1) * step)
    return covered, step


# ---------------------------------------------------------------------------
# grid route: certified cell-pair bracket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairBandBracket:
    outer: float
    inner: float
    outer_pairs: int
    inner_pairs: int


_RING_BLOCK = 1 << 15  # (kx, ky) offsets per last-axis ring evaluation


def _axis_pair_counts(mask: np.ndarray) -> np.ndarray:
    """counts[k] = number of index pairs (i, i+k) both occupied, k >= 0."""
    if mask.size == 0:
        return np.zeros(1, dtype=np.int64)
    return _certified_counts(_fft_autocorrelation(mask.astype(np.float64)))


def _ring_limits(
    t_lo: float, t_hi: float, k_sq: np.ndarray, round_out: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Integer ranges [lo_k, hi_k] with t_lo <= k_sq + y^2 <= t_hi.

    round_out widens the range by the float guard (outer bracket); otherwise
    the guard narrows it (inner bracket stays certified).
    """
    eps = 1e-9
    g = eps if round_out else -eps
    lo = np.ceil(np.sqrt(np.maximum(0.0, t_lo - k_sq)) - g).astype(np.int64)
    hi_arg = t_hi - k_sq
    hi = np.floor(np.sqrt(np.maximum(0.0, hi_arg)) + g).astype(np.int64)
    hi[hi_arg < 0] = -1
    return lo, hi


def _band_cell_pairs(
    masks: tuple[np.ndarray, ...], cell: float, lo: float, hi: float, round_out: bool
) -> int:
    """Ordered occupied-cell pairs with center distance in [lo, hi].

    The pair count factors over the axes' offset correlograms counts[k]:
    each signed offset vector (kx[, ky], z) in the ring contributes the
    product of its axes' counts. The last axis is summed with one prefix sum
    over |z| ranges. For d = 3 the x offsets with nonzero counts are
    evaluated against the ky^2 within the outer radius, in blocks of at
    most _RING_BLOCK (kx, ky) cells, and each row's weighted sum is added
    to the total as a Python int, so the result is exact.
    """
    if lo > hi:
        return 0
    counts = [_axis_pair_counts(m) for m in masks]
    if any(int(m.sum()) == 0 for m in masks):
        return 0
    d = len(masks)
    t_lo, t_hi = (lo / cell) ** 2, (hi / cell) ** 2
    cz = counts[-1]
    P = np.concatenate([[0], np.cumsum(cz)])

    def last_axis_sum(prefix_sq: np.ndarray) -> np.ndarray:
        """sum over signed offsets z of counts_last[|z|] with
        prefix_sq + z^2 in the ring, vectorized over prefix_sq."""
        y_lo, y_hi = _ring_limits(t_lo, t_hi, prefix_sq, round_out)
        y_hi = np.minimum(y_hi, cz.size - 1)
        valid = y_hi >= y_lo
        lo_c = np.clip(y_lo, 0, cz.size)
        hi_c = np.clip(y_hi + 1, 0, cz.size)
        sums = np.where(valid, P[hi_c] - P[lo_c], 0).astype(np.int64)
        doubled = 2 * sums - np.where(valid & (y_lo == 0), cz[0], 0)
        return doubled

    if d == 1:
        return int(last_axis_sum(np.array([0.0]))[0])
    kx = np.arange(counts[0].size, dtype=np.float64)
    if d == 2:
        per_kx = last_axis_sum(kx * kx)
        return int((2 * counts[0][1:] * per_kx[1:]).sum() + counts[0][0] * per_kx[0])
    ky = np.arange(counts[1].size, dtype=np.float64)
    ky_sq = ky * ky
    wy = 2 * counts[1]
    wy[0] = counts[1][0]
    rows = np.flatnonzero(counts[0])
    wx = 2 * counts[0][rows]
    wx[rows == 0] = counts[0][0]
    total = 0
    at = 0
    while at < rows.size:
        # Rows ascend, so no row of this block reaches a ky beyond its first
        # row's outer radius (ky^2 > t_hi - kx^2 + 1): those columns count 0.
        reach = int(np.searchsorted(ky_sq, t_hi - float(rows[at]) ** 2, "right"))
        width = min(ky_sq.size, reach + 1)
        stop = at + max(1, _RING_BLOCK // width)
        i = rows[at:stop]
        per = last_axis_sum((i * i)[:, None] + ky_sq[:width])
        row_sums = (wy[:width] * per).sum(axis=1)
        total += sum(w * s for w, s in zip(wx[at:stop].tolist(), row_sums.tolist()))
        at = stop
    return total


def pair_band_measure_grid(
    G: GridIndicator, width_multiplier: float = 2.0
) -> PairBandBracket:
    """Certified bracket for |D^delta| from the rasterized occupancy.

    outer counts ordered occupied-cell pairs whose center distance lies in
    [1 - w delta - sqrt(d) cell, 1 + w delta + sqrt(d) cell] (times
    cell^{2d}); inner uses the fully-inside masks and the band shrunk by
    sqrt(d) cell. The true measure lies in [inner, outer].
    """
    cell = float(G.cell)
    delta = float(G.delta)
    d = G.d
    w = width_multiplier * delta
    slack = math.sqrt(d) * cell
    outer_pairs = _band_cell_pairs(
        G.axis_masks, cell, max(0.0, 1.0 - w - slack), 1.0 + w + slack, round_out=True
    )
    inner_lo, inner_hi = 1.0 - w + slack, 1.0 + w - slack
    if inner_lo > inner_hi:
        inner_pairs = 0
    else:
        inner_pairs = _band_cell_pairs(
            G.axis_masks_inner, cell, inner_lo, inner_hi, round_out=False
        )
    scale = cell ** (2 * d)
    return PairBandBracket(
        outer=outer_pairs * scale,
        inner=inner_pairs * scale,
        outer_pairs=outer_pairs,
        inner_pairs=inner_pairs,
    )


# ---------------------------------------------------------------------------
# product route: dense correlogram quadrature and the sparse atoms path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBandMeasure:
    value: float
    quadrature_error: float
    method: str


def _common_denominator(sets: list[IntervalUnion], cap: int, message: str) -> int:
    """Least common denominator of every endpoint; ValueError(message) above cap."""
    den = math.lcm(*(U.den for U in sets))
    if den > cap:
        raise ValueError(message)
    return den


def _aligned_spacing(sets: list[IntervalUnion], target: Fraction) -> Fraction:
    """Largest spacing <= target such that every endpoint is on the lattice."""
    den = _common_denominator(
        sets, 1 << 50, "endpoint lattice too fine for an aligned spacing"
    )
    spacing = Fraction(1, den)
    while spacing > target:
        spacing /= 2
    return spacing


def _dense_band_integral(
    corr_f: np.ndarray, corr_b: np.ndarray, h: float, lo: float, hi: float
) -> float:
    """2 * int_{s>=0} corrF(s) * m(s) ds with m from the corrB running
    integral; trapezoid rule on the shared lattice."""
    cum = np.concatenate([[0.0], np.cumsum((corr_b[1:] + corr_b[:-1]) * 0.5 * h)])
    top = (corr_b.size - 1) * h

    def cum_at(u: np.ndarray) -> np.ndarray:
        u = np.minimum(u, top)
        k = np.minimum(np.floor(u / h).astype(np.int64), corr_b.size - 2)
        frac = u - k * h
        cb = corr_b[k] + (corr_b[k + 1] - corr_b[k]) * (frac / h)
        return cum[k] + (corr_b[k] + cb) * 0.5 * frac

    K = min(corr_f.size, int(math.floor(hi / h)) + 2)
    s = np.arange(K) * h
    u_hi = np.sqrt(np.maximum(0.0, hi * hi - s * s))
    u_lo = np.sqrt(np.maximum(0.0, lo * lo - s * s))
    m = 2.0 * (cum_at(u_hi) - cum_at(u_lo))
    integrand = corr_f[:K] * m
    one_sided = h * (integrand.sum() - 0.5 * integrand[0] - 0.5 * integrand[-1])
    return 2.0 * one_sided


# ---- atoms path -----------------------------------------------------------

def _lattice_blocks(U: IntervalUnion, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Block centers and lengths as exact integers in units of 1/(2*den)."""
    a, b = U.numerators(den)  # endpoints in 1/den units
    return a + b, 2 * (b - a)


def _merge_counts(
    vals: np.ndarray, cnts: np.ndarray, new_vals: np.ndarray, new_cnts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    allv = np.concatenate([vals, new_vals])
    allc = np.concatenate([cnts, new_cnts])
    u, inv = np.unique(allv, return_inverse=True)
    out = np.zeros(u.size, dtype=np.int64)
    np.add.at(out, inv, allc)
    return u, out


def _difference_atoms(
    centers: np.ndarray, lengths: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Deduplicated signed center differences per ordered length-class pair.

    Returns (values, multiplicities, len_a, len_b) tuples; values are exact
    integers on the shared lattice.
    """
    out = []
    classes = np.unique(lengths)
    for la in classes:
        ca = centers[lengths == la]
        for lb in classes:
            cb = centers[lengths == lb]
            vals = np.empty(0, dtype=np.int64)
            cnts = np.empty(0, dtype=np.int64)
            rows = max(1, (1 << 22) // max(cb.size, 1))
            for i0 in range(0, ca.size, rows):
                diff = (ca[i0 : i0 + rows, None] - cb[None, :]).ravel()
                v, c = np.unique(diff, return_counts=True)
                vals, cnts = _merge_counts(vals, cnts, v, c)
            out.append((vals, cnts, int(la), int(lb)))
    return out


def _trapezoid_breaklist(
    atoms: list[tuple[np.ndarray, np.ndarray, int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An autocorrelation as an exact piecewise-linear function of x >= 0.

    Every atom contributes a trapezoid bump M * trap(x - D) with slope +-M
    and breakpoints D +- pl, D +- h -- all integers on the quarter-unit
    lattice. Aggregating the slope jumps and prefix-summing twice in int64
    yields the exact value at every breakpoint (sparse: gaps between bump
    clusters never materialize). The value is at most the measure of the
    set, so in quarter-units it stays below span * 4 * den, far inside
    int64 for every lattice the atoms path admits. The function is even, so
    only x >= 0 is kept, starting at a breakpoint at 0.
    Returns int64 (positions, slope on [pos[k], pos[k+1]], value at pos[k]),
    positions and values in quarter-units.
    """
    pos_parts, jump_parts = [], []
    for vals, cnts, la, lb in atoms:
        d4 = 2 * vals  # centers arrive in half-units
        h4 = la + lb  # lengths arrive in half-units; h = (la+lb)/4 units
        pl4 = abs(la - lb)
        pos_parts.extend([d4 - h4, d4 - pl4, d4 + pl4, d4 + h4])
        jump_parts.extend([cnts, -cnts, -cnts, cnts])
    pos = np.concatenate(pos_parts)
    order = np.argsort(pos)
    pos = pos[order]
    first = np.flatnonzero(np.concatenate([[True], pos[1:] != pos[:-1]]))
    pos = pos[first]
    slope = np.cumsum(np.add.reduceat(np.concatenate(jump_parts)[order], first))
    value = np.concatenate([[0], np.cumsum(slope[:-1] * np.diff(pos))])
    k = np.searchsorted(pos, 0, side="right") - 1  # the segment holding 0
    at0 = value[k] - slope[k] * pos[k]
    return (
        np.concatenate([[0], pos[k + 1 :]]),
        slope[k:],
        np.concatenate([[at0], value[k + 1 :]]),
    )


@dataclass(frozen=True)
class _PairCum:
    """G(u) = mass of {(t1, t2) in B x B : 0 <= t1 - t2 <= u} for
    0 <= u <= top, so that W = 2 (G(u+) - G(u-)) is a band mass.

    G integrates the exactly piecewise-linear corrB from 0, so it is exactly
    piecewise quadratic. Each segment keeps G, corrB and corrB' at its left
    end, and a query is evaluated in its segment's local coordinate: a
    polynomial in u itself would cancel catastrophically at band masses of
    ~1e-19.
    """

    x: np.ndarray
    cum: np.ndarray
    corr: np.ndarray
    slope: np.ndarray

    @classmethod
    def from_atoms(cls, atoms, quarter: float, top: float) -> "_PairCum":
        pos, slope, value = _trapezoid_breaklist(atoms)
        n = int(np.searchsorted(pos, top / quarter, side="right"))
        pos, slope, value = pos[:n], slope[:n], value[:n]
        # exact trapezoid areas of the linear pieces, in quarter-units squared
        area = (value[:-1] + value[1:]).astype(np.float64) * np.diff(pos)
        cum = np.concatenate([[0.0], np.cumsum(area)]) * (quarter * quarter / 2.0)
        return cls(pos * quarter, cum, value * quarter, slope.astype(np.float64))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if u.size == 0:
            return np.empty(0)
        # search only the breakpoints the queries span: a shorter, cached range
        k0 = max(0, int(np.searchsorted(self.x, u.min(), side="right")) - 1)
        k1 = int(np.searchsorted(self.x, u.max(), side="right"))
        k = k0 - 1 + np.searchsorted(self.x[k0:k1], u, side="right")
        t = u - self.x[k]
        return self.cum[k] + t * (self.corr[k] + 0.5 * self.slope[k] * t)


def _band_w(cum_b: _PairCum, lo: float, hi: float, s: np.ndarray) -> np.ndarray:
    """W(s) = 2 (G(u+) - G(u-)), u+-(s) = sqrt(hi^2 - s^2), sqrt(lo^2 - s^2)
    clipped at 0. u+- fall as s rises, so ascending s reaches the lookups as
    ascending queries; G(0) = 0 spares the second lookup for s >= lo."""
    u_hi = np.sqrt(np.maximum(0.0, hi * hi - s * s))[::-1]
    u_lo = np.sqrt(np.maximum(0.0, lo * lo - s * s))[::-1]
    w = cum_b(u_hi)
    inner = u_lo > 0.0
    w[inner] -= cum_b(u_lo[inner])
    return 2.0 * w[::-1]


_W9 = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0])
_W5 = np.array([1.0, 4.0, 2.0, 4.0, 1.0])
_SINGULAR_ROWS = 1 << 16
_PLAIN_NODES = 1 << 19


def _atoms_band_integral(
    F: IntervalUnion, B: IntervalUnion, lo: float, hi: float
) -> tuple[float, float]:
    """(value, quadrature error) of int corrF(s) W(s) ds over the s-line."""
    den = _common_denominator(
        [F, B], 1 << 40, "endpoint lattice too fine for the atoms path"
    )
    quarter = 1.0 / (4 * den)
    b_atoms = _difference_atoms(*_lattice_blocks(B, den))
    cum_b = _PairCum.from_atoms(b_atoms, quarter, hi)
    pos, _, value = _trapezoid_breaklist(_difference_atoms(*_lattice_blocks(F, den)))

    # value = int corrF(s) W(s) ds over the whole s-line, where corrF is
    # exactly linear on each segment and W is the band mass of the vertical
    # factor. Both are even in s, so integrate s >= 0 and double; W vanishes
    # for s > hi by construction of u+-.
    s_pts = pos * quarter
    corr = value * quarter
    # splice in the band-circle abscissas so no segment straddles a W kink
    for knot in (lo, hi):
        k = np.searchsorted(s_pts, knot)
        if k == 0 or k == s_pts.size or s_pts[k] == knot:
            continue
        c_interp = corr[k - 1] + (corr[k] - corr[k - 1]) * (
            (knot - s_pts[k - 1]) / (s_pts[k] - s_pts[k - 1])
        )
        s_pts = np.insert(s_pts, k, knot)
        corr = np.insert(corr, k, c_interp)

    live = np.flatnonzero(
        ((corr[:-1] != 0.0) | (corr[1:] != 0.0)) & (s_pts[:-1] < hi)
    )
    a, b = s_pts[live], s_pts[live + 1]
    ca = corr[live]
    slope = (corr[live + 1] - ca) / (b - a)

    # W(s) has vertical tangents (square-root behaviour) where a band circle
    # radius vanishes: at s = hi, and at s = lo approached from below.
    # Fixed-order rules across those points are one-sidedly biased, so a
    # segment whose right end sits within `zone` below such a knot (the
    # knot-touching segment always qualifies) is integrated in the
    # substituted variable tau = sqrt(knot - s), which makes the integrand
    # smooth.
    zone = 0.49 * min(hi - lo, lo) if lo > 0.0 else 0.49 * hi
    total, err = 0.0, 0.0
    singular = np.zeros(a.size, dtype=bool)
    for knot in (hi, lo) if lo > 0.0 else (hi,):
        sel = np.flatnonzero(~singular & (b <= knot) & (b >= knot - zone))
        singular[sel] = True
        for i0 in range(0, sel.size, _SINGULAR_ROWS):
            idx = sel[i0 : i0 + _SINGULAR_ROWS]
            t_near = np.sqrt(knot - b[idx])
            step = (np.sqrt(knot - a[idx]) - t_near) / 8.0
            # nodes run from a to b, so W sees ascending s
            tau = t_near[:, None] + step[:, None] * np.arange(8.0, -1.0, -1.0)
            s_nodes = knot - tau * tau
            f = (
                (ca[idx][:, None] + slope[idx][:, None] * (s_nodes - a[idx][:, None]))
                * _band_w(cum_b, lo, hi, s_nodes.ravel()).reshape(s_nodes.shape)
                * 2.0
                * tau
            )
            s_fine = step / 3.0 * (f @ _W9)
            s_half = 2.0 * step / 3.0 * (f[:, ::2] @ _W5)
            total += float(s_fine.sum())
            err += float(np.abs(s_fine - s_half).sum())

    plain = np.flatnonzero(~singular)
    a, b, ca, slope = a[plain], b[plain], ca[plain], slope[plain]
    # W carries structure at the quarter-unit scale, so split long segments
    # (isolated correlogram bumps) down to that pitch
    pieces = np.minimum(64, np.maximum(1, np.ceil((b - a) / quarter).astype(np.int64)))
    frac = (b - a) / pieces
    # every piece has nodes at both ends and at its midpoint, laid out in
    # ascending s; a node shared by adjacent pieces or segments is evaluated
    # once
    nodes = 2 * pieces + 1
    node_end = np.cumsum(nodes)
    i0 = 0
    while i0 < a.size:
        budget = node_end[i0] - nodes[i0] + _PLAIN_NODES
        i1 = max(i0 + 1, int(np.searchsorted(node_end, budget)))
        n = nodes[i0:i1]
        first = np.cumsum(n) - n
        rows = np.repeat(np.arange(n.size), n)
        r = np.arange(rows.size) - first[rows]
        sa = a[i0:i1][rows]
        s = sa + (0.5 * frac[i0:i1])[rows] * r
        last = first + n - 1
        s[last] = b[i0:i1]
        c = ca[i0:i1][rows] + slope[i0:i1][rows] * (s - sa)
        new = np.concatenate([[True], s[1:] != s[:-1]])
        f = c * _band_w(cum_b, lo, hi, s[new])[np.cumsum(new) - 1]
        is_left = r % 2 == 0
        is_left[last] = False
        left = np.flatnonzero(is_left)
        fa, fm, fb = f[left], f[left + 1], f[left + 2]
        width = frac[i0:i1][rows[left]]
        s5 = width / 6.0 * (fa + 4.0 * fm + fb)
        trapez = width / 2.0 * (fa + fb)
        total += float(s5.sum())
        err += float(np.abs(s5 - trapez).sum())
        i0 = i1
    # the doubled half-line: value 2 * total, and the error (half the summed
    # rule differences over the whole line) equals the half-line sum
    return 2.0 * total, err


_DENSE_LATTICE_CAP = 1 << 21


def pair_band_measure_product(
    F: IntervalUnion,
    B: IntervalUnion,
    delta,
    spacing=None,
    width_multiplier: float = 2.0,
    method: str = "auto",
) -> ProductBandMeasure:
    """|D^delta| for K_delta = F x B, where F and B are already the fattened
    1-D unions, via 2 * int corrF(s) m(s) ds with
    m(s) = 2 * int_{u-(s)}^{u+(s)} corrB, u±(s) = sqrt((1 ± w delta)^2 - s^2).

    The dense method samples both correlograms on an aligned lattice
    (spacing <= delta/4) and reports the |I_h - I_2h| quadrature error.
    The atoms method evaluates the same integral from deduplicated block
    differences and scales to delta = 2^-26: m(s) is exact (a piecewise
    quadratic in u, evaluated locally per segment), and the s-integral runs
    over s >= 0 by composite Simpson on corrF's exact breakpoints, split to
    the quarter-unit pitch and substituted tau = sqrt(knot - s) next to the
    square-root knots s = lo, hi. Its quadrature_error is half the summed
    |Simpson - trapezoid| (|S_h - S_2h| on substituted segments) over the
    whole s-line.
    """
    if F.is_empty or B.is_empty:
        return ProductBandMeasure(0.0, 0.0, "empty")
    delta_q = _frac(delta)
    if delta_q <= 0:
        raise ValueError("delta must be positive")
    w = width_multiplier * float(delta_q)
    lo, hi = 1.0 - w, 1.0 + w

    if method in ("auto", "dense"):
        spacing_q = (
            _aligned_spacing([F, B], delta_q / 4)
            if spacing is None
            else _frac(spacing)
        )
        if spacing_q > delta_q / 4:
            raise ValueError("spacing must be at most delta/4")
        width_f = float(F.span[1] - F.span[0])
        width_b = float(B.span[1] - B.span[0])
        lattice = (width_f + width_b) / float(spacing_q)
        if lattice <= _DENSE_LATTICE_CAP:
            corr_f = autocorrelation(F, spacing_q, method="fft")
            corr_b = autocorrelation(B, spacing_q, method="fft")
            h = float(spacing_q)
            value = _dense_band_integral(corr_f.values, corr_b.values, h, lo, hi)
            coarse = _dense_band_integral(
                corr_f.values[::2], corr_b.values[::2], 2 * h, lo, hi
            )
            return ProductBandMeasure(value, abs(value - coarse), "dense")
        if method == "dense":
            raise ValueError("dense lattice too large; use the atoms method")

    value, err = _atoms_band_integral(F, B, lo, hi)
    return ProductBandMeasure(value, err, "atoms")
