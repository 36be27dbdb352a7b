"""Band-restricted pair measures for neighborhoods of 1-D sets and their
products: autocorrelations, exact interval-pair band masses, and the two
routes to |D^delta| = |{(k1, k2) in K_delta^2 : |k1 - k2| in 1 +- w delta}|.

Three independent computations of the same quantity live here on purpose:

* `pair_band_measure_grid` counts rasterized cell pairs and returns a
  certified [inner, outer] bracket (slack +-sqrt(d)*cell on the band);
* `pair_band_measure_product` ("dense") integrates the exact formula
  |D^delta| = 2 * int_{s>=0} corrF(s) m(s) ds on a correlogram lattice.
  Correlograms are taken only on a lattice that holds every endpoint, and
  are exact: FFT overlap counts on the coarsest such lattice,
  certified-rounded to integers and expanded to the sample spacing by
  exact integer interpolation, up to the lags the integral reads. One pass
  gives the trapezoid value and a certified [low, high] bracket, as corrF
  is linear on each lattice cell and the band kernel monotone in s;
* the "atoms" path evaluates the same double integral from deduplicated
  block-pair center differences -- the only route that reaches
  delta = 2^-26. Where a union's blocks are a Minkowski sum of two-point
  sets (a C(p, q) stage, its planted double and the fattenings a sweep
  builds of them, once each block of up to twice the shortest length is
  split into two shortest blocks minus their overlap), the differences are
  a convolution of the factors; other unions take all N^2 differences.
  Both autocorrelations are exact piecewise-linear functions with integer
  breakpoints on the quarter-unit lattice (slope jumps summed in int64);
  the vertical band mass W(s) = 2 (G(u+) - G(u-)) comes from the exactly
  piecewise-quadratic G = int_0 corrB. corrF and W are even in s,
  so only s >= 0 is integrated. The s-line is cut wherever corrF or G
  changes segment, which leaves pieces on which the integrand is analytic;
  each piece gets a 4-point Gauss-Legendre rule with an a priori truncation
  bound from its Bernstein ellipse, and a forward rounding bound, so its
  quadrature error is a certified bound. Pieces on which W vanishes identically (both
  radii in one gap of B's difference set) are not evaluated; their exact
  zeros stay in the sums, so the result is bit for bit the all-pieces one.

They cross-check each other in the test-suite; none is derived from another.
The 1-D band mass `pair_band_mass` is exact: one integer sum over block
pairs on a common lattice, returned as a `Fraction`. It shares no code with
the atoms path, whose test oracle it is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geom import _ranges
from .intervals import IntervalUnion
from .grids import DENSE_CAP, INT64_LIMIT, GridIndicator, _certified_counts, fft_length

__all__ = [
    "Correlogram",
    "autocorrelation",
    "pair_band_mass",
    "PairBandBracket",
    "pair_band_measure_grid",
    "ProductBandMeasure",
    "pair_band_measure_product",
]


# ---------------------------------------------------------------------------
# exact interval-pair band masses
# ---------------------------------------------------------------------------

def pair_band_mass(U1: IntervalUnion, U2: IntervalUnion, lo, hi) -> Fraction:
    """Exact measure of {(x1, x2) in U1 x U2 : lo <= |x1 - x2| <= hi}.

    For one block pair [a1, b1] x [a2, b2], twice the mass of x1 - x2 <= t
    is the signed sum of (t - e)_+^2 over the corners e = a1 - b2 (+),
    b1 - b2 (-), a1 - a2 (-), b1 - a2 (+), and the band mass is
    M(hi) - M(lo) + M(-lo) - M(-hi). On the lattice 1/L that holds every
    endpoint and both edges, each edge t is an integer sum: a pair whose
    largest corner is <= t adds 2 len1 len2, one whose smallest corner is
    >= t adds 0, and a pair that straddles t adds its terms z_+^2 with
    z <= len1 + len2. The straddlers of t are the blocks of U2 that meet
    the open window (a1 - t, b1 - t): fewer than n1 + n2 pairs, as both
    families are disjoint. In 1/L units every difference is below 3 reach
    (the largest |endpoint| or edge) and every square or partial sum below
    (T1 + T2)^2 (T: total lengths), so the sums run in int64 where these
    stay below 2^63 and in Python ints otherwise; one Fraction is formed.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    if U1.is_empty or U2.is_empty:
        return Fraction(0)
    L = math.lcm(U1.den, U2.den, lo.denominator, hi.denominator)
    reach = max(hi, *(abs(x) for U in (U1, U2) for x in U.span)) * L
    total = (U1.total_length + U2.total_length) * L
    dtype = np.int64 if max(3 * reach, total**2) < INT64_LIMIT else object
    (a1, b1), (a2, b2) = (
        (U.lo.astype(dtype) * (L // U.den), U.hi.astype(dtype) * (L // U.den)) for U in (U1, U2)
    )
    len1, len2 = b1 - a1, b2 - a2
    tail = np.append(np.cumsum(len2[::-1])[::-1], 0)  # tail[j] = len2[j:].sum()
    twice = 0
    for t, sign in ((hi * L, 1), (lo * L, -1), (-lo * L, 1), (-hi * L, -1)):
        t = int(t)
        full = np.searchsorted(a2, b1 - t)  # largest corner b1 - a2 <= t from here
        first = np.searchsorted(b2, a1 - t, "right")  # smallest corner a1 - b2 < t
        count = np.maximum(full - first, 0)
        i, j = np.repeat(np.arange(a1.size), count), _ranges(first, count)
        z = t - a1[i] + b2[j]  # t - (a1 - b2), in (0, len1 + len2]
        part = z * z - np.maximum(z - len1[i], 0) ** 2 - np.maximum(z - len2[j], 0) ** 2
        twice += sign * (2 * int((len1 * tail[full]).sum()) + int(part.sum()))
    return Fraction(twice, 2 * L * L)


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


def autocorrelation(A: IntervalUnion, spacing, lags: int | None = None) -> Correlogram:
    """Correlogram of an interval union, at its first `lags` lags if given
    (the values at those lags are the same either way). The lags run up to
    the union's cell span, where the correlogram closes at 0, so it is
    linear between samples on every cell it covers.

    Every endpoint of a positive-length interval must lie on the spacing
    lattice (our constructions and every CLI path); other spacings raise a
    ValueError. The counts are taken on the endpoint lattice and expanded
    exactly to the spacing: the FFT of the 0/1 cells of the coarsest
    lattice holding those endpoints gives whole-cell overlap counts plus
    float noise; these are rounded to integers and certified (each within
    0.25 of its integer, else FloatingPointError). The counts at the
    spacing are linear between them, are interpolated in int64 and scaled
    by the spacing once, so the correlogram is exact and does not depend on
    the transform length.
    """
    spacing_q = Fraction(spacing)
    if spacing_q <= 0:
        raise ValueError("spacing must be positive")
    if A.is_empty:
        raise ValueError("empty union has no correlogram")
    lengths = A.hi - A.lo
    lengths = lengths[lengths > 0]
    if lengths.size and spacing_q > Fraction(int(lengths.min()), 2 * A.den):
        raise ValueError("spacing too coarse for the finest block")
    lo, hi, step, n, _ = A._cells(spacing_q)
    counts = _lattice_counts(lo, hi, step, n, n + 1 if lags is None else lags)
    if counts is None:
        raise ValueError(
            f"spacing {spacing_q} does not hold every interval endpoint on its lattice"
        )
    h = float(spacing_q)
    return Correlogram(sample_spacing=h, values=counts * h, total_mass=float(A.total_length))


def _fft_autocorrelation(x: np.ndarray, lags: int | None = None) -> np.ndarray:
    """raw[k] = sum_i x[i] x[i + k] for 0 <= k < min(lags, x.size) (all
    lags by default), from one real FFT pair long enough that none of these
    lags wraps around."""
    n = x.size
    k = n if lags is None else min(lags, n)
    size = fft_length(n + k - 1)
    spec = np.fft.rfft(x, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:k]


def _lattice_counts(
    lo: np.ndarray, hi: np.ndarray, step: int, n: int, lags: int
) -> np.ndarray | None:
    """counts[k] = number of cell pairs (i, i + k), both inside A, at the
    first `lags` of lags 0 ... n over the n cells of `IntervalUnion._cells`,
    as int64 (lag n, where the correlogram closes, is 0); None if a
    positive-length interval has an endpoint off the cell lattice.

    The FFT runs on the coarsest lattice g = m * step that holds every
    positive-length endpoint, measured from the first. Points cover no
    cell, so they do not shrink g. Each coarse cell is m cells, so the
    counts are linear between multiples of m:
    counts[m j + r] = (m - r) c[j] + r c[j + 1], with c read as 0 past its
    end. Only the coarse lags those fine lags read are transformed, so a
    shorter `lags` asks for a shorter FFT.
    """
    solid = hi > lo
    ends = np.column_stack([lo[solid], hi[solid]]).ravel()
    counts = np.zeros(n + 1, dtype=np.int64)
    if ends.size == 0:
        return counts[:lags]
    runs = np.diff(ends)
    g = int(np.gcd.reduce(runs))
    if ends[0] % step or g % step:
        return None
    m = g // step
    # alternating runs of full and empty coarse cells
    cells = np.repeat(1.0 - np.arange(runs.size) % 2, runs // g)
    rows = min(cells.size, -(-lags // m))  # coarse lags j with m j < lags
    c = np.append(_certified_counts(_fft_autocorrelation(cells, rows + 1)), 0)
    r = np.arange(m)[:, None]
    fine = counts[: m * rows].reshape(rows, m)
    fine.T[:] = (m - r) * c[:rows] + r * c[1 : rows + 1]  # row r holds lags m j + r
    return counts[:lags]


# ---------------------------------------------------------------------------
# grid route: certified cell-pair bracket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairBandBracket:
    outer: float
    inner: float
    outer_pairs: int
    inner_pairs: int


_RING_BLOCK = 1 << 15  # (x, y) offsets per last-axis ring evaluation


def _axis_pair_counts(mask: np.ndarray, lags: int) -> np.ndarray:
    """counts[k] = number of index pairs (i, i+k) both occupied, for the
    first `lags` lags k >= 0."""
    return _certified_counts(_fft_autocorrelation(mask.astype(np.float64), lags))


def _ring_limits(
    t_lo: float, t_hi: float, k_sq: np.ndarray, round_out: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Integer ranges [lo_k, hi_k] with t_lo <= k_sq + y^2 <= t_hi.

    round_out widens the range by the float guard (outer bracket); otherwise
    the guard narrows it (inner bracket stays certified). Where k_sq alone
    exceeds t_lo by more than the guard, y = 0 is inside, so the narrowed
    range starts at 0 too.
    """
    eps = 1e-9
    g = eps if round_out else -eps
    lo = np.ceil(np.sqrt(np.maximum(0.0, t_lo - k_sq)) - g).astype(np.int64)
    if not round_out:
        lo[k_sq > t_lo + eps] = 0
    hi_arg = t_hi - k_sq
    hi = np.floor(np.sqrt(np.maximum(0.0, hi_arg)) + g).astype(np.int64)
    hi[hi_arg < 0] = -1
    return lo, hi


def _band_cell_pairs(
    masks: tuple[np.ndarray, ...], cell: float, lo: float, hi: float, round_out: bool
) -> int:
    """Ordered occupied-cell pairs with center distance in [lo, hi].

    The pair count factors over the axes' offset correlograms counts[k]:
    each signed offset vector (x, y, z) in the ring contributes the product
    of its axes' counts. Fewer than three axes are padded with one-cell
    axes, whose only offset, 0, counts 1. Only offsets k <= sqrt(t_hi) + 1
    (t = squared radius in cells) can reach the ring, so the correlograms
    stop there, and only those with a nonzero count add anything: these
    are an axis's live offsets. The axes are reordered, stably, by their
    live offsets: the most are summed last, with one prefix sum over |z|
    ranges; each live x offset is a row of the live y offsets within the
    outer radius, evaluated in blocks of at most _RING_BLOCK offsets. The
    count is a sum over all offset vectors, so the order of the axes does
    not change it.

    Every term counts ordered pairs, so no term or partial sum exceeds the
    whole it belongs to: (ny nz)^2 for a row and (nx ny nz)^2 for the total,
    with n the occupied cells of an axis in the order summed. Where such a
    bound reaches 2^63, that sum runs in Python ints, so the count is exact.
    (A last-axis sum stays below nz^2 + nz, far inside int64 for any mask
    that fits in memory.)
    """
    if lo > hi:
        return 0
    sizes = [int(m.sum()) for m in masks]
    if 0 in sizes:
        return 0
    t_lo, t_hi = (lo / cell) ** 2, (hi / cell) ** 2
    reach = int(math.sqrt(t_hi)) + 2  # offsets k >= reach have k^2 > t_hi + 1
    one = np.ones(1, dtype=np.int64)
    axes = [(1, one)] * (3 - len(masks))
    axes += [(n, _axis_pair_counts(m, reach)) for n, m in zip(sizes, masks)]
    axes.sort(key=lambda axis: np.count_nonzero(axis[1]))
    (n_x, cx), (n_y, cy), (n_z, cz) = axes
    P = np.concatenate([[0], np.cumsum(cz)])

    def last_axis_sum(prefix_sq: np.ndarray) -> np.ndarray:
        """sum over signed offsets z of counts_last[|z|] with
        prefix_sq + z^2 in the ring, vectorized over prefix_sq."""
        y_lo, y_hi = _ring_limits(t_lo, t_hi, prefix_sq, round_out)
        stop = np.minimum(y_hi + 1, cz.size)  # y_hi >= -1 and y_lo >= 0
        start = np.minimum(y_lo, stop)  # an empty range sums to 0
        return 2 * (P[stop] - P[start]) - np.where((start == 0) & (stop > 0), cz[0], 0)

    def live(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Live offsets of an axis and their weights: 2 counts[k] for the
        signed pair +-k, counts[0] for k = 0."""
        k = np.flatnonzero(counts)
        w = 2 * counts[k]
        w[k == 0] = counts[0]
        return k, w

    cols, wy = live(cy)
    ky_sq = cols.astype(np.float64) ** 2
    rows, wx = live(cx)
    if (n_y * n_z) ** 2 >= INT64_LIMIT:
        wy = wy.astype(object)
    if (n_x * n_y * n_z) ** 2 >= INT64_LIMIT:
        wx = wx.astype(object)
    total = 0
    at = 0
    while at < rows.size:
        # Rows ascend, so no row of this block reaches a y beyond its first
        # row's outer radius (y^2 > t_hi - x^2 + 1): those columns count 0.
        near = int(np.searchsorted(ky_sq, t_hi - float(rows[at]) ** 2, "right"))
        width = min(ky_sq.size, near + 1)
        stop = at + max(1, _RING_BLOCK // width)
        i = rows[at:stop]
        per = last_axis_sum((i * i)[:, None] + ky_sq[:width])
        total += int(wx[at:stop] @ (per @ wy[:width]))
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
    """|D^delta| and a certified bracket low <= |D^delta| <= high."""

    value: float
    low: float
    high: float
    method: str

    @property
    def quadrature_error(self) -> float:
        return max(self.high - self.value, self.value - self.low)


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
) -> tuple[float, float, float]:
    """(value, low, high) of 2 * int_{s>=0} corrF(s) W(s) ds, W = 2 (G(u+) - G(u-)),
    G = int_0 corrB, u+-(s) = sqrt(r^2 - s^2), r = hi, lo, read at the ends of
    the cells where corrF is not 0. On a cell [s0, s1] corrF is linear, its
    integral exact, and G(u+-) nonincreasing: 2 (G(u+(s1)) - G(u-(s0)))+ <= W
    <= 2 (G(u+(s0)) - G(u-(s1))). This bracket holds the trapezoid value cell by
    cell and is widened by twice a first-order forward rounding bound (Higham, 3.1)."""
    K = min(corr_f.size, int(math.floor(hi / h)) + 2)
    cum = np.concatenate([[0.0], np.cumsum((corr_b[1:] + corr_b[:-1]) * 0.5 * h)])
    top = (corr_b.size - 1) * h
    reach = min(top, hi)  # u <= reach, so k <= reach / h
    dq, slop = 11.0 * _UNIT * max(hi, (K - 1) * h) ** 2, _UNIT * (3.0 * reach + 9.0 * h)

    def g_at(s: np.ndarray, r: float, bound: np.ndarray) -> np.ndarray:
        """G(u(s)), adding its rounding bound to `bound`: (r - s)(r + s) is off by
        dq (s = k h by 2u s), u by 2 dq / (u + sqrt(dq)) if q > -dq, plus 3u reach
        + u h; G by corrB(0) times that, plus 8u h corrB(0) + 2u G + (k + 5) u cum[k]."""
        u = (r - s) * (r + s)
        near = u > -dq
        u = np.minimum(np.sqrt(np.maximum(u, 0.0, out=u), out=u), top, out=u)
        bound += corr_b[0] * (2.0 * dq / (u + math.sqrt(dq)) * near + slop)
        k = np.minimum(np.floor(u / h).astype(np.int64), corr_b.size - 2)
        frac = np.subtract(u, k * h, out=u)
        b0 = corr_b[k]
        cb = b0 + (corr_b[k + 1] - b0) * (frac / h)
        g = cum[k] + (b0 + cb) * 0.5 * frac
        bound += (reach / h + 8.0) * _UNIT * g
        return g

    # consecutive ends span a cell, or a gap with corrF = 0 at both (adds 0)
    live = corr_f[:K] != 0.0
    s = np.flatnonzero(live | np.append(live[1:], False) | np.append(False, live[:-1]))
    f, s = corr_f[s], s * h  # corrF and s at the ends of the cells where corrF is not 0
    e = np.zeros(f.size)
    gp, gm = g_at(s, hi, e), g_at(s, lo, e)
    fw = f * (2.0 * (gp - gm))
    value = h * np.sum(fw[:-1] + fw[1:])
    cell = 0.5 * h * (f[:-1] + f[1:])  # exact integrals of corrF over the cells
    # np.sum, not a BLAS dot: its order, and so its bits, are fixed
    low = np.sum(cell * np.maximum(gp[1:] - gm[:-1], 0.0))
    upper = gp[:-1] - gm[1:]
    high = np.sum(cell * upper)
    slack = 7.0 * _UNIT + _gamma(f.size)
    err = 2.0 * (np.sum(cell * (e[:-1] + e[1:])) + slack * (low + np.sum(cell * np.abs(upper))))
    return float(value), max(0.0, float(4.0 * (low - err))), float(4.0 * (high + err))


# ---- atoms path -----------------------------------------------------------

def _lattice_blocks(U: IntervalUnion, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Block centers and lengths as exact integers in units of 1/(2*den)."""
    a, b = U.numerators(den)  # endpoints in 1/den units
    return a + b, 2 * (b - a)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: what np.unique(x) returns, from
    one sort. (NumPy 2.4's np.unique(x) imports numpy.ma on first use.)"""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _sum_by_value(vals: np.ndarray, cnts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of vals, ascending, each with the sum of its
    cnts. vals is a few sorted runs laid end to end, which the stable sort
    merges in about one pass."""
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    first = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
    return vals[first], np.add.reduceat(cnts[order], first)


_DIFF_BLOCK = 1 << 22  # center differences formed at once


def _pair_differences(ca: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ca[i] - cb[j] over all (i, j), with counts.

    The differences are formed in blocks of whole rows, at most _DIFF_BLOCK
    where a row fits, and the blocks' (values, counts) are merged in a
    balanced pairwise tree: a stack holds the merges of 1, 2, 4, ... blocks,
    so each value is merged about log2(blocks) times.
    """
    stack: list[tuple[np.ndarray, np.ndarray, int]] = []
    rows = max(1, _DIFF_BLOCK // max(cb.size, 1))
    for i0 in range(0, ca.size, rows):
        diff = (ca[i0 : i0 + rows, None] - cb[None, :]).ravel()
        vals, cnts = np.unique(diff, return_counts=True)
        blocks = 1
        while stack and stack[-1][2] == blocks:
            v, c, b = stack.pop()
            vals, cnts = _sum_by_value(
                np.concatenate([v, vals]), np.concatenate([c, cnts])
            )
            blocks += b
        stack.append((vals, cnts, blocks))
    vals, cnts, _ = stack.pop()
    while stack:
        v, c, _ = stack.pop()
        vals, cnts = _sum_by_value(np.concatenate([v, vals]), np.concatenate([c, cnts]))
    return vals, cnts


def _difference_atoms(
    centers: np.ndarray, lengths: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Deduplicated signed center differences per ordered length-class pair.

    Returns (values, multiplicities, len_a, len_b) tuples; values are exact
    integers on the shared lattice. This is the generic path: it forms all
    N^2 differences, whatever the union.
    """
    by_class = [(centers[lengths == la], int(la)) for la in _distinct(lengths)]
    return [
        (*_pair_differences(ca, cb), la, lb) for ca, la in by_class for cb, lb in by_class
    ]


def _translates(c: np.ndarray) -> list[int] | None:
    """Translates t_k with c = c[0] + {0, t_1} + {0, t_2} + ... as multisets,
    for sorted centers c; None if c is not such a Minkowski sum.

    Repeated halving: if c[N/2:] - c[:N/2] is one constant t, c is its
    first half plus {0, t}, and the test goes on with that half, so the
    whole test costs O(N). Every C(p, q) stage passes (2^p evenly spaced
    children are p nested two-point sets), and so does its union with a
    translate that does not overlap it.
    """
    ts = []
    while c.size > 1:
        half = c.size // 2
        if c.size % 2:
            return None
        t = c[half:] - c[:half]
        if (t != t[0]).any():
            return None
        ts.append(int(t[0]))
        c = c[:half]
    return ts


def _convolved_differences(ts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Values and multiplicities of the differences of {0} + {0, t_1} + ...:
    the convolution of the factors {-t: 1, 0: 2, +t: 1}. The smallest t go
    first; a factor whose t exceeds the span so far leaves three disjoint
    sorted runs, and the others are merged by a stable sort of the runs.
    Arrays past the package's array cap are refused before they are built."""
    vals = np.zeros(1, dtype=np.int64)
    cnts = np.ones(1, dtype=np.int64)
    for t in sorted(ts):
        if 3 * vals.size > DENSE_CAP:
            raise ValueError(f"{3 * vals.size} difference atoms exceed cap {DENSE_CAP}")
        overlap = t <= 2 * int(vals[-1])  # vals is symmetric about 0
        vals = np.concatenate([vals - t, vals, vals + t])
        cnts = np.concatenate([cnts, 2 * cnts, cnts])
        if overlap:
            vals, cnts = _sum_by_value(vals, cnts)
    return vals, cnts


def _translate_atoms(
    centers: np.ndarray, lengths: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, int, int]] | None:
    """Difference atoms of the same autocorrelation as `_difference_atoms`'s
    (the two give one canonical breaklist), from the union's translate
    structure; None where the union has none.

    L is the shortest positive block length; points add nothing to an
    autocorrelation and are dropped. A block of length in (L, 2L] is, as an
    indicator function, two L-blocks flush with its ends minus their
    overlap, so it is split into two +1 L-blocks and a -1 overlap block
    (fattening merges two L-blocks this way at the planted seam). If the
    sorted L-block centers are a Minkowski sum of two-point sets
    (`_translates`), their differences are the convolution of the factors,
    with no N^2 step; the few other class pairs take the generic
    differences, with signed int64 multiplicities.
    """
    solid = lengths > 0
    centers, lengths = centers[solid], lengths[solid]
    if centers.size == 0:
        return None
    L = lengths.min()
    split = (lengths > L) & (lengths <= 2 * L)
    c, ell = centers[split], lengths[split]
    off = (ell - L) // 2  # lengths are even: they arrive in half-units
    unit = np.sort(np.concatenate([centers[lengths == L], c - off, c + off]))
    ts = _translates(unit)
    if ts is None:
        return None
    long = lengths > 2 * L
    overlap = 2 * L - ell
    cut = overlap > 0
    classes = [(unit, int(L), 1)]
    for cs, ls, sign in ((centers[long], lengths[long], 1), (c[cut], overlap[cut], -1)):
        classes += [(cs[ls == la], int(la), sign) for la in _distinct(ls)]
    out = [(*_convolved_differences(ts), int(L), int(L))]
    for ca, la, sa in classes:
        for cb, lb, sb in classes:
            if la == lb == L:
                continue
            vals, cnts = _pair_differences(ca, cb)
            out.append((vals, sa * sb * cnts, la, lb))
    return out


def _union_atoms(
    centers: np.ndarray, lengths: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Difference atoms from the translate structure where the union has
    one, else from all N^2 differences."""
    atoms = _translate_atoms(centers, lengths)
    return _difference_atoms(centers, lengths) if atoms is None else atoms


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
    only x >= 0 is kept, starting at a breakpoint at 0: each class pair's
    values are sorted, so the bumps that end at or left of 0 are cut off
    by one search, before any work.

    The list is canonical: past 0 it keeps only the positions where the
    slope changes, so a function has exactly one breaklist, whichever atoms
    describe it.
    Returns int64 (positions, slope on [pos[k], pos[k+1]], value at pos[k]),
    positions and values in quarter-units.
    """
    zero = np.zeros(1, dtype=np.int64)
    pos_parts, jump_parts = [zero], [zero]  # a breakpoint at 0 in any case
    for vals, cnts, la, lb in atoms:
        h4 = la + lb  # lengths arrive in half-units; h = (la+lb)/4 units
        live = np.searchsorted(vals, -h4 // 2, side="right")  # D + h > 0
        d4 = 2 * vals[live:]  # centers arrive in half-units
        cnts = cnts[live:]
        pl4 = abs(la - lb)
        if pl4:
            pos_parts.extend([d4 - h4, d4 - pl4, d4 + pl4, d4 + h4])
            jump_parts.extend([cnts, -cnts, -cnts, cnts])
        else:  # a triangle: both inner breakpoints sit at D
            pos_parts.extend([d4 - h4, d4, d4 + h4])
            jump_parts.extend([cnts, -2 * cnts, cnts])
    # the parts are sorted runs
    pos, jumps = _sum_by_value(np.concatenate(pos_parts), np.concatenate(jump_parts))
    slope = np.cumsum(jumps)
    value = np.concatenate([[0], np.cumsum(slope[:-1] * np.diff(pos))])
    k = np.searchsorted(pos, 0)
    pos, slope, value = pos[k:], slope[k:], value[k:]
    kink = np.concatenate([[True], slope[1:] != slope[:-1]])
    return pos[kink], slope[kink], value[kink]


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


# Gauss-Legendre rule with four nodes on [-1, 1]: the roots of P_4, with
# weights 2 / ((1 - x^2) P_4'(x)^2). It is exact up to degree 7.
_GL_NODES = np.array(
    [-0.861136311594052575224, -0.339981043584856264803,
     0.339981043584856264803, 0.861136311594052575224]
)
_GL_WEIGHTS = np.array(
    [0.347854845137453857373, 0.652145154862546142627,
     0.652145154862546142627, 0.347854845137453857373]
)
_UNIT = 2.0**-53  # unit roundoff of binary64
_PIECE_TOL = 1e-10  # a piece's truncation bound, relative to its sum
_MAX_SPLITS = 12  # bisections per piece; past them the bound stands as it is
_WINDOW = 1 << 14  # corrF breakpoints per window of the s-line


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * _UNIT / (1.0 - n * _UNIT)


@dataclass(frozen=True)
class _BandIntegrand:
    """f(s) = corrF(s) W(s) on s >= 0, W = 2 (G(u+) - G(u-)) with
    u+-(s) = sqrt(r^2 - s^2) for the band radii r = hi, lo.

    corrF is its exact breaklist in s units (breakpoints fx, values fv,
    slopes fs) and G is the B side's _PairCum. On a kink-free piece the F
    segment and, for each live radius, the G segment are fixed, so f is one
    closed form there. A piece has its own variable z: s itself (knot 0),
    or tau with s = knot - tau^2 next to a square-root knot.
    """

    fx: np.ndarray
    fv: np.ndarray
    fs: np.ndarray
    g: _PairCum
    lo: float
    hi: float


def _kink_free_pieces(fn: _BandIntegrand):
    """The live part of [0, hi] cut into pieces on which f is analytic.

    Cuts: corrF's breakpoints, lo and hi, and sqrt(r^2 - x^2) for every G
    breakpoint x < r, for r = hi, lo (where u+- crosses x). A piece within
    `zone` below a knot r in {lo, hi}, where u_r has a square-root branch
    point, is integrated in tau = sqrt(r - s), which makes it analytic; a
    cut at r - zone bounds that region. The s-line is cut window by window,
    _WINDOW corrF breakpoints at a time, so memory stays bounded. A rounded
    sqrt cut can leave a node within a few ulps on the far side of its G
    breakpoint; G is C^1 there, so its segment's quadratic is off by
    second order in u, inside the doubled first-order rounding bound.
    Yields (knot, radii, za, zb, kf, kg): pieces [za, zb] in one variable
    (knot 0.0 for s), the radii live on them, their F segments and, per
    radius, their G segments.
    """
    lo, hi, g = fn.lo, fn.hi, fn.g
    knots = (hi, lo) if lo > 0.0 else (hi,)
    # zone is the largest 4^-k <= 0.49 min(hi - lo, lo): r - zone is exact,
    # and so is sqrt(r - (r - zone)), so s and tau pieces meet without a gap
    reach = 0.49 * min(hi - lo, lo) if lo > 0.0 else 0.49 * hi
    zone = 4.0 ** ((math.frexp(reach)[1] - 1) // 2)
    end = min(hi, float(fn.fx[-1]))  # corrF vanishes past its last breakpoint
    x = g.x[g.x > 0.0]
    kinks = [np.sqrt((r - x[x < r]) * (r + x[x < r]))[::-1] for r in knots]
    fixed = np.array([*knots, *(r - zone for r in knots)])
    breaks = fn.fx[fn.fx < end]
    for i0 in range(0, breaks.size, _WINDOW):
        s0 = breaks[i0]
        s1 = breaks[i0 + _WINDOW] if i0 + _WINDOW < breaks.size else end
        parts = [breaks[i0 : i0 + _WINDOW], [s1], fixed[(fixed > s0) & (fixed < s1)]]
        for k in kinks:
            parts.append(k[np.searchsorted(k, s0, "right") : np.searchsorted(k, s1)])
        cuts = _distinct(np.concatenate(parts))
        a, b = cuts[:-1], cuts[1:]
        mid = 0.5 * (a + b)
        kf = np.searchsorted(fn.fx, mid, "right") - 1
        live = (fn.fv[kf] != 0.0) | (fn.fs[kf] != 0.0)
        a, b, mid, kf = a[live], b[live], mid[live], kf[live]
        knot = np.zeros(a.size)
        for r in knots:
            knot[(a >= r - zone) & (b <= r)] = r
        inner = b <= lo
        for r in (0.0, *knots):
            for radii in ((hi, lo), (hi,)):
                sel = (knot == r) & (inner if len(radii) == 2 else ~inner)
                if not sel.any():
                    continue
                m = mid[sel]
                kg = tuple(
                    np.searchsorted(g.x, np.sqrt((q - m) * (q + m)), "right") - 1
                    for q in radii
                )
                if r:
                    za, zb = np.sqrt(r - b[sel]), np.sqrt(r - a[sel])
                else:
                    za, zb = a[sel], b[sel]
                yield r, radii, za, zb, kf[sel], kg


def _evaluate(fn, knot, radii, kf, kg, z, dz):
    """f at points z of the piece variable, and a bound on its rounding
    error; kf and kg (one array per radius) are the segments of the pieces
    the points lie on, and dz bounds the error of each z.

    r^2 - s^2 is formed as (r - s)(r + s), and in tau as
    ((r - knot) + tau^2)((r + knot) - tau^2), so it never cancels. The
    error bound is first order in u (Higham, Accuracy and Stability, section
    3.1): each operation adds u times its result's magnitude, and the errors
    of s, r^2 - s^2, u and t propagate through the local derivatives.
    The stored breakpoints, values and slopes are exact integers times
    the quarter unit, so each is off by at most u. G(u+) - G(u-) cancels:
    the stored prefix sums G(x_k) come from one sequential cumsum of areas
    that are each rounded twice, then scaled, so the difference of two of
    them is off by at most 4u |k+ - k-| G(x_top), and by nothing when both
    lookups land in one segment.
    """
    u0 = _UNIT
    g = fn.g
    if knot:
        zz = z * z
        s = knot - zz
    else:
        s = z
    x0, v0, sl = fn.fx[kf], fn.fv[kf], fn.fs[kf]
    lin = sl * (s - x0)
    corr_f = v0 + lin
    ds = u0 * (s + 2.0 * zz) + 2.0 * z * dz if knot else dz
    d_corr = 4.0 * u0 * (np.abs(v0) + np.abs(lin)) + np.abs(sl) * (ds + u0 * x0)
    w = dw = 0.0
    for sign, r, k in zip((1.0, -1.0), radii, kg):
        if knot:
            d, p = (r - knot) + zz, (r + knot) - zz
        else:
            d, p = r - s, r + s
        q = d * p
        u = np.sqrt(q)
        t = u - g.x[k]
        cb, sb, cum = g.corr[k], g.slope[k], g.cum[k]
        st = sb * t
        y = t * (cb + 0.5 * st)
        gk = cum + y
        w = w + sign * gk
        # d + p = 2r; both are positive on a piece
        if knot:
            dq = u0 * (3.0 * q + zz * (2.0 * r) + p * (r - knot) + d * (r + knot))
            dq += 4.0 * r * z * dz
        else:
            dq = 3.0 * u0 * q + (2.0 * r) * ds
        dt = dq / u + u0 * (u + np.abs(t))
        # fl(cum + y) is off by at most min(u |cum + y|, |y|)
        dw = dw + (
            4.0 * u0 * np.abs(t) * (cb + 0.5 * np.abs(st))
            + np.abs(cb + st) * dt
            + np.minimum(u0 * np.abs(gk), np.abs(y))
        )
    w = 2.0 * w
    f = corr_f * w
    if knot:
        f = f * (2.0 * z)
    if len(kg) == 2:
        span, top = np.abs(kg[0] - kg[1]), np.maximum(kg[0], kg[1])
    else:
        span, top = kg[0], kg[0]
    dw = 2.0 * (dw + 4.0 * u0 * span * g.cum[top]) + 2.0 * u0 * np.abs(w)
    df = np.abs(w) * d_corr + np.abs(corr_f) * dw
    if knot:
        df = 2.0 * z * df + np.abs(corr_f * w) * (2.0 * dz)
    return f, df + 3.0 * u0 * np.abs(f)


def _branch_points(knot: float, radii: tuple) -> list[tuple[float, float]]:
    """Branch points (re, im) of the integrand in the piece variable, up to
    conjugates: s = +-r in s; in tau (s = knot - tau^2), tau^2 = knot + r
    and tau^2 = knot - r, which is 0 (removable) for r = knot and negative
    for the other radius, hi, on pieces below lo."""
    if not knot:
        return [(sign * r, 0.0) for r in radii for sign in (1.0, -1.0)]
    pts = []
    for r in radii:
        far = math.sqrt(knot + r)
        pts += [(far, 0.0), (-far, 0.0)]
        if r != knot:
            pts.append((0.0, math.sqrt(r - knot)))
    return pts


def _truncation_bound(fn, knot, radii, kf, kg, c, h):
    """Truncation bound of the n-point Gauss-Legendre rule (n = 4) on
    pieces [c - h, c + h] of the piece variable.

    f is analytic inside the Bernstein ellipse E_rho whose rho is set by
    the nearest branch point, so |GL_n - I| <= h (64/15) M rho^(2-2n) /
    (rho^2 - 1) with |f - p| <= M on E_rho for any polynomial p of degree
    < 2n (Trefethen, SIAM Review 50 (2008), Thm 4.5; ATAP Thm 19.3, whose
    I_n has n + 1 nodes): the Chebyshev coefficients of f - p obey
    |a_k| <= 2 M rho^-k, the rule is exact up to degree 2n - 1, and it
    misses an even T_k (k >= 4) by at most 2 + 2/(k^2 - 1) <= 32/15.

    With p = corrF(s(z)) J(z) W(c), M <= sup |corrF J| sup |W(z) - W(c)|
    over |z - c| <= R = h (rho + 1/rho) / 2, which covers E_rho. |corrF|
    and |J| grow at most by their slopes times sup |s(z) - s(c)|. Because
    Re sqrt >= 0, |u(z) - u(c)| <= |s(z)^2 - s(c)^2| / u(c); in tau with
    r = knot, u = z v(z), v = sqrt(2 knot - z^2), is bounded the same way
    through v. A quadratic G_k then moves by at most
    |dt| (|G_k'(t(c))| + |G_k''| |dt| / 2).
    """
    rho = np.full(c.shape, np.inf)
    for re, im in _branch_points(knot, radii):
        a = (np.hypot(re - c - h, im) + np.hypot(re - c + h, im)) / (2.0 * h)
        rho = np.minimum(rho, a + np.sqrt((a - 1.0) * (a + 1.0)))
    rho = np.maximum(rho * (1.0 - 2.0**-30), 1.0)  # stay inside the branch point
    R = 0.5 * h * (rho + 1.0 / rho)
    ac = np.abs(c)
    if knot:
        s_c = knot - c * c
        ds = R * (2.0 * ac + R)  # sup |s(z) - s(c)| = sup |z^2 - c^2|
        jac = 2.0 * (ac + R)
    else:
        s_c, ds, jac = c, R, 1.0
    g = fn.g
    sl = fn.fs[kf]
    corr_c = fn.fv[kf] + sl * (s_c - fn.fx[kf])
    var = np.zeros(c.shape)
    for r, k in zip(radii, kg):
        if r == knot:
            v_c = np.sqrt((r + knot) - c * c)
            dv = ds / v_c
            du = R * (v_c + dv) + ac * dv
            u_c = c * v_c
        else:
            if knot:
                u_c = np.sqrt(((r - knot) + c * c) * ((r + knot) - c * c))
            else:
                u_c = np.sqrt((r - c) * (r + c))
            du = ds * (2.0 * np.abs(s_c) + ds) / u_c
        cb, sb = g.corr[k], g.slope[k]
        var += du * (np.abs(cb + sb * (u_c - g.x[k])) + 0.5 * np.abs(sb) * du)
    m = (np.abs(corr_c) + np.abs(sl) * ds) * jac * 2.0 * var
    n = _GL_NODES.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        trunc = h * (64.0 / 15.0) * m * rho ** (2.0 - 2.0 * n) / (rho * rho - 1.0)
    return np.where(m == 0.0, 0.0, trunc)


def _gauss_sums(fn, knot, radii, kf, kg, c, h):
    """Per piece: the Gauss-Legendre sum over [c - h, c + h], a bound on its
    rounding error, and the sum of |terms|. c and h are the rounded center
    and half-width of a piece [a, b] with float ends, so the nodes are off
    those of the exact rule on [a, b] by at most 4u (|c| + h), and h by u.
    The first-order node bounds are doubled to cover second-order terms."""
    z = c[:, None] + h[:, None] * _GL_NODES
    dz = (4.0 * _UNIT) * (np.abs(c) + h)[:, None]
    f, df = _evaluate(fn, knot, radii, kf[:, None], tuple(k[:, None] for k in kg), z, dz)
    w = _GL_WEIGHTS
    return h * (f @ w), 2.0 * h * (df @ w), h * (np.abs(f) @ w)


def _w_vanishes(g: _PairCum, kg) -> np.ndarray:
    """Pieces on which W = 2 (G(u+) - G(u-)) is identically zero, from their
    G segments alone: both radii in one segment where corrB is zero (the
    band lies in a gap of B's difference set), or the one radius in a
    segment where G itself is zero. f, its rounding bound and its
    truncation bound are exact zeros there."""
    k = kg[0]
    flat = (g.corr[k] == 0.0) & (g.slope[k] == 0.0)
    if len(kg) == 2:
        return flat & (k == kg[1])
    return flat & (g.cum[k] == 0.0)


def _integrate_pieces(fn, knot, radii, za, zb, kf, kg):
    """Gauss-Legendre over pieces [za, zb] of one variable. A piece whose
    truncation bound exceeds both _PIECE_TOL of its sum and its rounding
    bound is bisected at its float midpoint, so the halves tile it exactly,
    at most _MAX_SPLITS times; a piece of zero width adds nothing. Returns
    (sum, truncation and rounding bound, sum of |terms|, terms).

    Pieces on which W vanishes (`_w_vanishes`) are not evaluated: their
    exact zeros are kept in the per-piece arrays, so every sum runs over
    the same terms in the same order and the result is bit for bit that of
    evaluating every piece, and they count their nodes in `terms`. A lone
    live piece among several is evaluated with one vanishing neighbour,
    because NumPy takes a one-row matrix product through a dot kernel that
    rounds differently from the batched one.
    """
    total = bound = size = 0.0
    terms = 0
    for split in range(_MAX_SPLITS + 1):
        wide = zb > za
        za, zb, kf, kg = za[wide], zb[wide], kf[wide], tuple(k[wide] for k in kg)
        c, h = 0.5 * (za + zb), 0.5 * (zb - za)
        live = ~_w_vanishes(fn.g, kg)
        if np.count_nonzero(live) == 1 < live.size:
            live[np.argmin(live)] = True
        i = np.flatnonzero(live)
        trunc, est, err, mag = np.zeros((4, c.size))
        args = (fn, knot, radii, kf[i], tuple(k[i] for k in kg), c[i], h[i])
        trunc[i] = _truncation_bound(*args)
        est[i], err[i], mag[i] = _gauss_sums(*args)
        over = trunc > np.maximum(_PIECE_TOL * np.abs(est), err)
        if split == _MAX_SPLITS:
            over[:] = False
        done = ~over
        total += float(est[done].sum())
        bound += float(trunc[done].sum() + err[done].sum())
        size += float(mag[done].sum())
        terms += int(done.sum()) * _GL_NODES.size
        if not over.any():
            break
        c = c[over]
        za = np.concatenate([za[over], c])
        zb = np.concatenate([c, zb[over]])
        kf = np.tile(kf[over], 2)
        kg = tuple(np.tile(k[over], 2) for k in kg)
    return total, bound, size, terms


def _band_integrand(
    F: IntervalUnion, B: IntervalUnion, lo: float, hi: float
) -> _BandIntegrand:
    """corrF's exact breaklist and B's pair-mass profile G up to hi."""
    den = _common_denominator(
        [F, B], 1 << 40, "endpoint lattice too fine for the atoms path"
    )
    quarter = 1.0 / (4 * den)
    cum_b = _PairCum.from_atoms(_union_atoms(*_lattice_blocks(B, den)), quarter, hi)
    pos, slope, value = _trapezoid_breaklist(_union_atoms(*_lattice_blocks(F, den)))
    return _BandIntegrand(
        pos * quarter, value * quarter, slope.astype(np.float64), cum_b, lo, hi
    )


def _atoms_band_integral(
    F: IntervalUnion, B: IntervalUnion, lo: float, hi: float
) -> tuple[float, float]:
    """(value, error bound) of int corrF(s) W(s) ds over the s-line.

    corrF and W are even in s, so the half-line s >= 0 is integrated and
    doubled; W vanishes for s > hi. The error bound is the sum of the
    pieces' truncation and rounding bounds plus gamma_N times the sum of
    the N terms' magnitudes (Higham, section 3.1), with 8 more roundings
    for each term's weight, h and product, doubled with the value.
    """
    fn = _band_integrand(F, B, lo, hi)
    total = bound = size = 0.0
    terms = 0
    for piece in _kink_free_pieces(fn):
        t, b, s, n = _integrate_pieces(fn, *piece)
        total, bound, size, terms = total + t, bound + b, size + s, terms + n
    bound += _gamma(terms + 8) * size
    return 2.0 * total, 2.0 * bound


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
    (spacing <= delta/4; a given spacing whose lattice does not hold the
    endpoints raises ValueError), up to the lags the integral reads, and
    returns the trapezoid value inside the certified lattice bracket of
    `_dense_band_integral`; its relative width falls linearly with the
    spacing (about 0.1 at delta/4 on the planted C(1,2) product).
    The atoms method evaluates the same integral from deduplicated block
    differences and scales to delta = 2^-26. It takes them from the union's
    translate structure where it has one (`_translate_atoms`: O(N) to
    recognize, a convolution of two-point factors to build), else from all
    N^2 differences; both give the same canonical breaklist. m(s) is exact
    (a piecewise quadratic in u, evaluated locally per segment). The s-integral over
    s >= 0 is cut at corrF's breakpoints, at lo and hi, and where u+-(s)
    crosses a breakpoint of corrB, so the integrand is analytic on every
    piece; next to the square-root knots s = lo, hi it runs in
    tau = sqrt(knot - s). Each piece gets a 4-point Gauss-Legendre rule and
    is bisected until its a priori truncation bound is small. Pieces on
    which W vanishes identically are skipped, with their exact zeros kept
    in the sums, so skipping changes no bit of the value or the error. Its
    bracket is value -+ (the pieces' truncation bounds plus a first-order
    forward bound on the rounding error), clipped at 0.
    """
    if F.is_empty or B.is_empty:
        return ProductBandMeasure(0.0, 0.0, 0.0, "empty")
    delta_q = Fraction(delta)
    if delta_q <= 0:
        raise ValueError("delta must be positive")
    w = width_multiplier * float(delta_q)
    lo, hi = max(0.0, 1.0 - w), 1.0 + w  # a band reaching below 0 starts at 0

    if method in ("auto", "dense"):
        spacing_q = (
            _aligned_spacing([F, B], delta_q / 4)
            if spacing is None
            else Fraction(spacing)
        )
        if spacing_q > delta_q / 4:
            raise ValueError("spacing must be at most delta/4")
        width_f = float(F.span[1] - F.span[0])
        width_b = float(B.span[1] - B.span[0])
        lattice = (width_f + width_b) / float(spacing_q)
        if lattice <= _DENSE_LATTICE_CAP:
            h = float(spacing_q)
            lags = int(math.floor(hi / h)) + 2  # the lags the integral reads
            corr_f = autocorrelation(F, spacing_q, lags=lags)
            corr_b = autocorrelation(B, spacing_q, lags=lags)
            value, low, high = _dense_band_integral(corr_f.values, corr_b.values, h, lo, hi)
            return ProductBandMeasure(value, low, high, "dense")
        if method == "dense":
            raise ValueError("dense lattice too large; use the atoms method")

    value, err = _atoms_band_integral(F, B, lo, hi)
    return ProductBandMeasure(value, max(0.0, value - err), value + err, "atoms")
