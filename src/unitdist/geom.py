"""Core geometry: general-position checks, unit-step frames, and the
triple-annulus diameter experiment.

Vectors are plain float64 numpy arrays of dimension 1..8. Tolerance policy:
geometric identities are checked to absolute 1e-9; rank decisions use a
caller-supplied singular-value threshold (default 1e-9); the tangency case
r0 == 1 is classified with 1e-12 so it only fires on constructed inputs.

`_min_singular_batch` (an SVD) is the only code that can call an index tuple
affinely dependent. `_first_bad` puts a certified screen in front of it:
modified Gram-Schmidt heights give a lower bound on each tuple's smallest
singular value, and a tuple whose bound clears the threshold by a rounding
margin is independent without an SVD; every other tuple goes to the SVD, so
every decision equals the SVD-only one. A stack of frames of d-1 steps in R^d
is factored by one batched full SVD, which gives each frame's rank test,
circumcenter and unit normal; d = 1 is the frame with no rows.

The squared distances between point arrays in `discrete`, `geom` and
`incidence` are all summed one axis at a time by the one kernel `_sq_dist`.
`_near_pairs` is the package's one near-pair search: the unordered pairs of a
point array whose squared distance lies in a closed band narrower than one
cell side, found through sorted linear cell keys and one fixed stencil of
neighbouring cells, {-1, 0, 1}^d up to sign. The grid unit-pair counter, the
unit-step census and the separated nets all run on it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "general_position_check",
    "GeneralPositionReport",
    "FrameBatch",
    "unit_frame_batch",
    "unit_frame_solutions",
    "TripleAnnulusReport",
    "triple_annulus_diameter",
]

MAX_DIM = 8
TANGENT_TOL = 1e-12       # r0 == 1 classification
_CHUNK = 256              # cell offsets per query block of the near-pair search


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the pairs (s, l)."""
    shift = start - length.cumsum() + length
    return np.arange(int(length.sum())) + shift.repeat(length)


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not 1 <= v.size <= MAX_DIM:
        raise ValueError(f"dimension {v.size} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def _coords(P) -> np.ndarray:
    """Accept a PointSet or a raw (n, d) array."""
    pts = getattr(P, "points", P)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got {pts.shape}")
    return pts


def _sq_dist(x, y) -> np.ndarray:
    """sum_k (x[k] - y[k])^2 over per-axis arrays x[k], y[k] that broadcast.

    One 2-D pass per axis, so no (..., d) temporary is built. The terms are
    added in the order NumPy's `((x - y)**2).sum(-1)` adds them on stacked
    coordinates: left to right for up to 7 axes, and for 8 axes as the
    balanced tree ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) of its
    pairwise summation. Every caller's distances are therefore bit-identical
    to that expression.
    """
    if len(x) == 8:
        lo, hi = _sq_dist(x[:2], y[:2]), _sq_dist(x[2:4], y[2:4])
        lo += hi
        hi = _sq_dist(x[4:6], y[4:6])
        hi += _sq_dist(x[6:], y[6:])
        lo += hi
        return lo
    acc = np.subtract(x[0], y[0])
    acc *= acc
    buf = np.empty_like(acc)
    for xk, yk in zip(x[1:], y[1:]):
        np.subtract(xk, yk, out=buf)
        buf *= buf
        acc += buf
    return acc


@functools.cache
def _neighbour_stencil(d: int) -> np.ndarray:
    """The cell offsets that can hold a pair closer than one cell side, each
    unordered cell pair once: the zero row, then the lexicographically
    positive half of {-1, 0, 1}^d in lexicographic order, which are the
    cube's middle row and the rows after it. Memoized per d, read-only.
    """
    cube = np.indices((3,) * d).reshape(d, -1).T - 1
    out = np.ascontiguousarray(cube[(3**d - 1) // 2 :])
    out.setflags(write=False)
    return out


def _linear_keys(
    cells: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """uint64 keys of cells and of offsets with key(k + D) = key(k) + key(D).

    Mixed-radix over the occupied box padded by the stencil's one cell, so a
    neighbor cell never wraps into another row. The keys are exact (one key
    per cell) when the padded box has at most 2^64 cells; otherwise they
    wrap modulo 2^64, the additive identity still holds, and the returned
    flag tells the caller to check candidate pairs' cells.
    """
    base = cells.min(axis=0) - 1
    spans = [s + 2 for s in (cells.max(axis=0) - base).tolist()]
    strides = [math.prod(spans[:i]) for i in range(len(spans))]
    exact = math.prod(spans) <= 2**64
    radix = np.array([s % 2**64 for s in strides], dtype=np.uint64)
    # uint64 products and sums wrap modulo 2^64
    keys = (cells - base).astype(np.uint64) @ radix
    okeys = offsets.astype(np.uint64) @ radix
    return keys, okeys, exact


def _near_pairs(
    pts: np.ndarray, side: float, lo2: float, hi2: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (i, j) of the unordered pairs of rows of `pts`, i != j, whose
    `_sq_dist` lies in the closed band [lo2, hi2]; each pair appears once.

    The band must lie inside one cell side (hi2 < side^2), so a pair in it
    lies in one cell or in two cells that touch; a wider band raises
    ValueError rather than losing pairs. Rows go to cells of side `side`
    (floor(p / side)) and are sorted by linear cell key. Every occupied
    cell looks up its neighbors at the offsets of `_neighbour_stencil` with
    `searchsorted` on the sorted keys; when the keys wrap, a candidate pair
    is kept only if its cells differ by its offset. Inside one cell (the
    zero offset) each pair is taken once, with i < j; a nonzero offset is
    one of a +-pair, so its pairs are unordered already. Queries go in
    blocks of `_CHUNK` offsets (at most `_CHUNK * n` keys) and candidate
    pairs in blocks of `_CHUNK * n // 4`, which keeps working memory
    O(`_CHUNK` n).
    """
    n, d = pts.shape
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension {d} outside 1..{MAX_DIM}")
    if not hi2 < side * side:
        raise ValueError(f"band [{lo2}, {hi2}] does not fit inside cell side {side}")
    if n == 0:
        return
    offsets = _neighbour_stencil(d)
    cells = np.floor(pts / side).astype(np.int64)
    keys, okeys, exact = _linear_keys(cells, offsets)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    cols = np.ascontiguousarray(pts[order].T)
    # cell boundaries in the sorted keys, with n closing the last cell
    cut = np.ones(n + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=cut[1:n])
    bounds = cut.nonzero()[0]
    first, size = bounds[:-1], bounds[1:] - bounds[:-1]
    ukeys = keys[first]
    pair_block = _CHUNK * n // 4  # >= n, so a segment always fits

    for o0 in range(0, okeys.size, _CHUNK):
        # offset-major layout: each offset's queries arrive sorted
        tgt = (okeys[o0 : o0 + _CHUNK, None] + ukeys[None, :]).ravel()
        pos = np.minimum(ukeys.searchsorted(tgt), ukeys.size - 1)
        hit = (ukeys[pos] == tgt).nonzero()[0]
        a, b = hit % ukeys.size, pos[hit]
        # one segment per point of cell a: that point against the
        # contiguous run of cell b's points
        sa = size[a]
        seg = np.arange(hit.size).repeat(sa)
        row = _ranges(first[a], sa)
        run, length = first[b][seg], size[b][seg]
        if o0 == 0:
            # the zero offset's segments come first, one per point in
            # sorted order (row[:n] = 0..n-1): inside its cell, a point
            # meets only the points after it
            length[:n] += run[:n]
            run[:n] = row[:n] + 1
            length[:n] -= run[:n]
        end = length.cumsum()
        s0 = 0
        while s0 < seg.size:
            s1 = int(end.searchsorted(end[s0] - length[s0] + pair_block, "right"))
            L = length[s0:s1]
            i = row[s0:s1].repeat(L)
            j = _ranges(run[s0:s1], L)
            d2 = _sq_dist(cols.take(i, axis=1), cols.take(j, axis=1))
            near = (d2 >= lo2) & (d2 <= hi2)
            if not exact:
                o = (o0 + hit[seg[s0:s1]] // ukeys.size).repeat(L)
                near &= (cells[order[j]] - cells[order[i]] == offsets[o]).all(axis=1)
            yield order[i[near]], order[j[near]]
            s0 = s1


@dataclass(frozen=True)
class GeneralPositionReport:
    ok: bool
    witness: tuple[int, ...] | None
    mode: str
    subsets_tested: int


def _min_singular_batch(pts: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Smallest singular value of the difference matrix of each index combo.

    For d = 1 the matrix is empty: a single point is vacuously independent,
    so its smallest singular value is taken as +inf.
    """
    sub = pts[combos]                       # (m, d, d)
    diffs = sub[:, 1:, :] - sub[:, :1, :]   # (m, d-1, d)
    return np.linalg.svd(diffs, compute_uv=False).min(axis=1, initial=np.inf)


def general_position_check(
    P,
    tol: float = 1e-9,
    mode: str = "exhaustive",
    sample_count: int = 10_000,
    seed: int = 0,
) -> GeneralPositionReport:
    """Check that every d-subset of P is affinely independent.

    `mode="exhaustive"` enumerates all C(n, d) subsets; `mode="sampled"`
    draws `sample_count` seeded random subsets, each a uniform d-subset of
    range(n) drawn independently of the other rows by Floyd's algorithm
    (Bentley & Floyd, CACM 1987), so a subset may be drawn more than once.
    The witness of a failure is the offending index tuple, in ascending
    order.
    """
    pts = _coords(P)
    n, d = pts.shape
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < d:
        return GeneralPositionReport(True, None, mode, 0)

    if mode == "exhaustive":
        subsets = itertools.combinations(range(n), d)
        tested = 0
        while chunk := list(itertools.islice(subsets, 65536)):
            tested += len(chunk)
            bad = _first_bad(pts, chunk, tol)
            if bad is not None:
                return GeneralPositionReport(False, bad, mode, tested)
        return GeneralPositionReport(True, None, mode, tested)

    # Floyd's algorithm, one column for all rows at a time: column k draws
    # t uniform on [0, j], j = n - d + k, and takes j instead if the row
    # already holds t. The columns are rows of a (d, m) array, and an
    # odd-even transposition network of d rounds sorts each tuple.
    rng = np.random.default_rng(seed)
    cols = np.empty((d, sample_count), dtype=np.intp)
    for k, j in enumerate(range(n - d, n)):
        t = rng.integers(0, j + 1, size=sample_count)
        taken = np.zeros(sample_count, dtype=bool)
        for earlier in cols[:k]:
            taken |= earlier == t
        cols[k] = np.where(taken, j, t)
    for r in range(d):
        for a in range(r % 2, d - 1, 2):
            low = np.minimum(cols[a], cols[a + 1])
            np.maximum(cols[a], cols[a + 1], out=cols[a + 1])
            cols[a] = low
    bad = _first_bad(pts, cols.T, tol)
    return GeneralPositionReport(bad is None, bad, mode, sample_count)


_SCREEN_MARGIN = 2.0**-30  # relative rounding margin of `_independent_screen`
_SCREEN_FLOOR = 2.0**-400  # keeps the screen's squares and heights normal


def _independent_screen(pts: np.ndarray, combos: np.ndarray, tol: float) -> np.ndarray:
    """Mask of index tuples certified affinely independent without an SVD.

    D is the tuple's (d-1) x d difference matrix, formed with the same float
    subtractions as in `_min_singular_batch`. Modified Gram-Schmidt on its
    rows gives heights h_1..h_{d-1}, the distance of each row from the span
    of the earlier ones, and prod h_k = prod sigma_k. With F = |D|_F >=
    sigma_max, sigma_min >= prod h_k / F^(d-2), computed as
    B = F prod (h_k / F) so that no product overflows (for d = 2, B = h_1 =
    sigma_min). A tuple passes when

        B (1 - m) > max(tol, 2^-400) + m F,   m = 2^-30,

    and the SVD then finds sigma_min > tol too. Rounding, with u = 2^-53:

    - The computed R factor of MGS is backward stable (Bjorck & Paige,
      SIAM J. Matrix Anal. Appl. 13, 1992): D + E = Q R with Q exactly
      orthonormal and |E| <= c1 u |D|_F. So the computed h_k bound the
      singular values of D + E, which are within |E| of those of D.
    - F and B are evaluated with relative error below 8 d^2 u.
    - LAPACK's computed sigma_min is within c2 u sigma_max of the exact one.

    For d <= 8 the constants c1 and c2 are a few hundred at most, far below
    m / u = 2^23, so the relative part m B covers the first two items and
    m F covers |E| and the SVD's own error. The 2^-400 floor keeps F^2 and
    each h_k^2 in the normal range, where the analysis holds. Overflow
    (F = inf) and zero heights give NaN or 0, which never pass.
    """
    # one contiguous (axis, point, tuple) gather; the differences, then the
    # orthonormal rows, overwrite it in place
    cols = np.take(pts.T, combos.T, axis=1)
    cols[:, 1:] -= cols[:, :1]
    rows = np.moveaxis(cols[:, 1:], 1, 0)  # (row, axis, tuple)
    fro = np.sqrt(np.einsum("rkm,rkm->m", rows, rows))
    bound = fro.copy()
    basis = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for v in rows:
            for q in basis:
                v -= np.einsum("km,km->m", v, q) * q
            h = np.sqrt(np.einsum("km,km->m", v, v))
            v /= h
            basis.append(v)
            bound *= h / fro
        return bound * (1.0 - _SCREEN_MARGIN) > (
            max(tol, _SCREEN_FLOOR) + _SCREEN_MARGIN * fro
        )


def _first_bad(pts, combos, tol) -> tuple[int, ...] | None:
    """First index tuple in `combos` whose points are affinely dependent.

    Tuples the screen cannot certify go to `_min_singular_batch`, which alone
    decides dependence; the witness is the first such tuple it rejects.
    """
    combos = np.asarray(combos, dtype=np.intp)
    rest = np.flatnonzero(~_independent_screen(pts, combos, tol))
    bad = rest[_min_singular_batch(pts, combos[rest]) <= tol]
    if bad.size:
        return tuple(int(i) for i in combos[bad[0]])
    return None


def _frame(A: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank mask, circumcenters c0 and unit normals v of a stack of frames
    A (m, d-1, d), from one batched full SVD.

    A = U S Vt per frame. The rank test is min S > tol. c0 is the
    minimum-norm solution of 2 c . a_j = |a_j|^2, namely
    Vt[:-1]^T ((U^T rhs) / S) with rhs_j = |a_j|^2 / 2, so it lies in
    span(a). v = Vt[-1], not yet signed (`unit_frame_batch` signs it). With
    no rows (d = 1) S is empty, Vt = [[1]] and c0 = [0]. A frame that fails
    the rank test divides by S = inf instead, so its c0 is 0 rather than inf
    or NaN.
    """
    u, sv, vt = np.linalg.svd(A, full_matrices=True)
    ok = np.logical_and.reduce(sv > tol, axis=1)
    rhs = 0.5 * np.add.reduce(A * A, axis=2)
    sv = np.where(ok[:, None], sv, np.inf)
    c0 = (((rhs[:, None] @ u) / sv[:, None]) @ vt[:, :-1])[:, 0]
    return ok, c0, vt[:, -1]


class FrameBatch(NamedTuple):
    """Solutions of a stack of m frames in R^d. Entries past a frame's
    solution count are NaN."""

    count: np.ndarray        # (m,) 0, 1 or 2; -1 for a linearly dependent frame
    t: np.ndarray            # (m, 2) signed heights of b_1 over span(a), +t first
    b: np.ndarray            # (m, 2, d, d), row j-1 of b[i, k] is b_j


# A frame's case: 0 two solutions, 1 tangent, 2 none, 3 dependent. |r0 - 1|
# <= TANGENT_TOL exactly when r0 - 1 lies in [_TANGENT_EDGES[0],
# _TANGENT_EDGES[1]). Each case's solution count, and the factors of
# s = sqrt(1 - r0^2) that give its t (+t first, NaN past the count).
_TANGENT_EDGES = np.array([-TANGENT_TOL, np.nextafter(TANGENT_TOL, np.inf)])
_CASE_COUNT = np.array([2, 1, 0, -1])
_CASE_T = np.array([[1.0, -1.0], [0.0, np.nan], [np.nan, np.nan], [np.nan, np.nan]])


def unit_frame_batch(A, tol: float = 1e-9) -> FrameBatch:
    """All tuples (b_1, ..., b_d) of unit vectors with b_{j+1} = b_1 + a_j,
    for each frame a_1..a_{d-1} of a stack A of shape (m, d-1, d).

    Geometry: such b_1 lies on the unit sphere and on the sphere of radius
    r0 about -c0 ... equivalently b_1 = t v - c0 where (c0, r0) is the
    circumsphere through the origin and the a_j, v the unit normal to
    span(a), and t = ±sqrt(1 - r0^2). Hence 0, 1, or 2 solutions:
    none for r0 > 1, one at tangency (|r0 - 1| <= 1e-12), else two,
    with the +t branch first. v is signed so that its first coordinate
    above 1e-12 in magnitude is positive. d = 1 is the frame with no
    steps: b_1 = ±1.

    One batched SVD solves every frame. A dependent frame (smallest singular
    value <= tol) gets count -1.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3 or A.shape[1] != A.shape[2] - 1 or not 1 <= A.shape[2] <= MAX_DIM:
        raise ValueError(
            f"expected an (m, d-1, d) stack with d in 1..{MAX_DIM}, got {A.shape}"
        )
    if not np.isfinite(A).all():
        raise ValueError("frames have non-finite coordinates")
    ok, c0, v = _frame(A, tol)
    r0 = np.sqrt(np.add.reduce(c0 * c0, axis=1))
    case = np.where(ok, _TANGENT_EDGES.searchsorted(r0 - 1.0, side="right"), 3)
    lead = v[np.arange(v.shape[0]), (np.abs(v) > 1e-12).argmax(axis=1)]
    v = v * np.sign(lead)[:, None]
    # |1 - r0^2| keeps s finite for tangent frames, whose factor is 0
    t = np.sqrt(np.abs(1.0 - r0 * r0))[:, None] * _CASE_T[case]
    b = np.empty((A.shape[0], 2, A.shape[2], A.shape[2]))
    np.subtract(t[:, :, None] * v[:, None], c0[:, None], out=b[:, :, 0])
    np.add(b[:, :, :1], A[:, None], out=b[:, :, 1:])
    return FrameBatch(_CASE_COUNT[case], t, b)


def unit_frame_solutions(a: Sequence, tol: float = 1e-9) -> list[tuple[float, np.ndarray]]:
    """The solutions of one frame, a sequence of d-1 vectors in R^d ([] for
    d = 1), as `unit_frame_batch` finds them: (t, b) pairs, +t first. A
    dependent frame raises ValueError."""
    A = np.asarray(a, dtype=np.float64)
    batch = unit_frame_batch((A.reshape(0, 1) if A.shape == (0,) else A)[None], tol)
    count = int(batch.count[0])
    if count < 0:
        raise ValueError("input vectors are linearly dependent")
    return list(zip(batch.t[0, :count].tolist(), batch.b[0, :count]))


@dataclass(frozen=True)
class TripleAnnulusReport:
    diameter_estimate: float
    predicted_bound: float
    hit_count: int
    c_geo: float


def _sphere_directions(m: int) -> np.ndarray:
    # golden-spiral directions: deterministic, roughly uniform on S^2
    k = np.arange(m, dtype=np.float64)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / m
    theta = 2.0 * math.pi * k / golden
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def _cloud_diameter(hits: np.ndarray) -> float:
    if hits.shape[0] < 2:
        return 0.0
    if hits.shape[0] > 4096:
        # extreme points along fixed directions, then exact max among them
        proj = hits @ _sphere_directions(96).T
        hits = hits[np.unique(np.concatenate([proj.argmax(0), proj.argmin(0)]))]
    cols = hits.T
    return float(np.sqrt(_sq_dist(cols[:, :, None], cols[:, None, :]).max()))


def _squared_limits(lo: float, hi: float) -> tuple[float, float]:
    """The doubles lo2, hi2 with lo2 <= s <= hi2 exactly when
    lo <= sqrt(s) <= hi, for every double s >= 0.

    sqrt is correctly rounded, hence monotone, so both sets are intervals;
    the ends are found by stepping from the rounded squares. lo and hi must
    be finite.
    """
    lo2, hi2 = lo * lo, hi * hi
    while lo2 > 0.0 and math.sqrt(lo2) >= lo:
        lo2 = math.nextafter(lo2, 0.0)
    while math.sqrt(lo2) < lo:
        lo2 = math.nextafter(lo2, math.inf)
    while math.sqrt(hi2) <= hi:
        hi2 = math.nextafter(hi2, math.inf)
    while math.sqrt(hi2) > hi:
        hi2 = math.nextafter(hi2, 0.0)
    return lo2, hi2


def triple_annulus_diameter(
    a1,
    a2,
    a3,
    delta: float,
    samples: int = 1_000_000,
    seed: int = 0,
    c_geo: float = 10.0,
) -> TripleAnnulusReport:
    """Sampled diameter of A(a1,3d) ∩ A(a2,3d) ∩ A(a3,3d) in R^3 versus the
    predicted c_geo * sqrt(delta / (s_min sin(theta))).

    The intersection is mirror-symmetric across the plane of the three
    centers. When its two components are separated, the bound concerns one
    component, so sampling is restricted to the positive-side slab; when the
    z-window reaches the plane the components may merge and the full slab is
    sampled. Rejection sampling from an analytic bounding box around the
    three-sphere intersection point; the reported diameter is the max
    pairwise distance among accepted samples (0 if fewer than 2 hits).
    """
    p1, p2, p3 = _vec(a1), _vec(a2), _vec(a3)
    if not (p1.size == p2.size == p3.size == 3):
        raise ValueError("centers must lie in R^3")
    if not 0 < delta <= 1e-2:
        raise ValueError("delta must be in (0, 1e-2]")
    u, w = p2 - p1, p3 - p1
    s12, s13 = float(np.linalg.norm(u)), float(np.linalg.norm(w))
    s23 = float(np.linalg.norm(p3 - p2))
    for s in (s12, s13, s23):
        if not 0.1 <= s <= 1.9:
            raise ValueError(f"pairwise center distance {s:.4f} outside [0.1, 1.9]")
    cross = np.cross(u, w)
    sin_theta = float(np.linalg.norm(cross)) / (s12 * s13)
    if sin_theta <= 1e-9:
        raise ValueError("centers are collinear")

    e1 = u / s12
    n_hat = cross / np.linalg.norm(cross)
    e2 = np.cross(n_hat, e1)
    t1, t2 = float(w @ e1), float(w @ e2)

    # point equidistant (=1) from all three centers, in-plane coordinates
    xi1 = s12 / 2.0
    xi2 = (t1 * t1 + t2 * t2 - 2.0 * xi1 * t1) / (2.0 * t2)
    r0sq = xi1 * xi1 + xi2 * xi2
    z0sq = max(0.0, 1.0 - r0sq)

    # box half-extents from the pairwise band constraints (band 1 ± 6 delta)
    half_band = 6.0 * delta
    sq_gap = ((1 + half_band) ** 2 - (1 - half_band) ** 2) / 2.0  # = 12 delta
    e_xi1 = sq_gap / s12 + 2.0 * delta
    e_xi2 = sq_gap * (1.0 + abs(t1) / s12) / abs(t2) + 2.0 * delta

    def _sq_range(center: float, half: float) -> tuple[float, float]:
        lo, hi = center - half, center + half
        top = max(lo * lo, hi * hi)
        bot = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
        return bot, top

    p_lo1, p_hi1 = _sq_range(xi1, e_xi1)
    p_lo2, p_hi2 = _sq_range(xi2, e_xi2)
    z_sq_hi = max(0.0, (1 + half_band) ** 2 - (p_lo1 + p_lo2))
    z_sq_lo = max(0.0, (1 - half_band) ** 2 - (p_hi1 + p_hi2))
    if z_sq_hi <= 0.0 or z0sq + 1e-12 < z_sq_lo:
        hits = np.empty((0, 3))
    else:
        z_hi = math.sqrt(z_sq_hi)
        z_lo = math.sqrt(z_sq_lo)
        merged = z_sq_lo == 0.0
        rng = np.random.default_rng(seed)
        q1 = rng.uniform(xi1 - e_xi1, xi1 + e_xi1, samples)
        q2 = rng.uniform(xi2 - e_xi2, xi2 + e_xi2, samples)
        z = rng.uniform(-z_hi if merged else z_lo, z_hi, samples)
        xs = [p1[k] + q1 * e1[k] + q2 * e2[k] + z * n_hat[k] for k in range(3)]
        # |x - c| in [1 - 6 delta, 1 + 6 delta], decided on squared distances
        lo2, hi2 = _squared_limits(1.0 - half_band, 1.0 + half_band)
        mask = np.ones(samples, dtype=bool)
        for c in (p1, p2, p3):
            r2 = _sq_dist(xs, c)
            mask &= (r2 >= lo2) & (r2 <= hi2)
        hits = np.stack([x[mask] for x in xs], axis=1)

    s_min = min(s12, s13)
    bound = c_geo * math.sqrt(delta / (s_min * sin_theta))
    return TripleAnnulusReport(
        diameter_estimate=_cloud_diameter(hits),
        predicted_bound=bound,
        hit_count=int(hits.shape[0]),
        c_geo=c_geo,
    )
