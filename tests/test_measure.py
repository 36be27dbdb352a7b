"""Band-measure engine: three independent routes that must agree.

The 1-D pair mass has closed forms for tiny unions; the 2-D product measure
is triangulated between the dense quadrature, the sparse atoms path, the
grid-count bracket, and a Monte-Carlo referee that shares no code with any
of them.
"""

import decimal
import itertools
import math
import os
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from unitdist.cantor import CantorSpec, cantor_stage, shift_union, stage_for_scale
from unitdist.intervals import IntervalUnion
import unitdist.measure
from unitdist.measure import (
    Correlogram,
    _GL_NODES,
    _MAX_SPLITS,
    _PIECE_TOL,
    _UNIT,
    _PairCum,
    _band_cell_pairs,
    _band_integrand,
    _common_denominator,
    _convolved_differences,
    _difference_atoms,
    _evaluate,
    _gamma,
    _gauss_sums,
    _integrate_pieces,
    _kink_free_pieces,
    _lattice_blocks,
    _trapezoid_breaklist,
    _translate_atoms,
    _truncation_bound,
    _union_atoms,
    _w_vanishes,
    autocorrelation,
    pair_band_mass,
    pair_band_measure_grid,
    pair_band_measure_product,
)
from unitdist.grids import _certified_counts, rasterize


# ---- 1-D pair band mass ----------------------------------------------------

def _endpoints(U):
    """(n, 2) float64 endpoints of U, each the quotient num / den."""
    return np.column_stack([U.lo / U.den, U.hi / U.den])


def _block_pair_band_mass(U1, U2, lo, hi):
    """|{(x, y) in U1 x U2 : lo <= |x - y| <= hi}| in Fractions, block pair
    by block pair: for [a, b] x [c, e], the mass of x - y <= t is the
    integral over x in [a, b] of |[c, e] n [x - t, oo)|, which is
    Q(e + t - a) - Q(e + t - b) - Q(c + t - a) + Q(c + t - b) with
    Q(z) = max(z, 0)^2 / 2."""

    def Q(z):
        return z * z / 2 if z > 0 else 0

    total = Fraction(0)
    for a, b in U1.intervals:
        for c, e in U2.intervals:
            for t, sign in ((hi, 1), (lo, -1), (-lo, 1), (-hi, -1)):
                total += sign * (Q(e + t - a) - Q(e + t - b) - Q(c + t - a) + Q(c + t - b))
    return total


@pytest.mark.parametrize("k", [4, 6, 8])
def test_two_point_neighborhoods_have_exact_band_mass(k):
    # A = [-d, d] u [1-d, 1+d]: pairs at distance ~1 fill two 2d x 2d squares,
    # and the band [1-2d, 1+2d] captures them entirely: mass 2 * (2d)^2 = 8 d^2
    delta = Fraction(1, 2**k)
    A = IntervalUnion.points([0, 1]).neighborhood(delta)
    got = pair_band_mass(A, A, 1 - 2 * delta, 1 + 2 * delta)
    assert isinstance(got, Fraction) and got == 8 * delta**2


@st.composite
def _band_mass_cases(draw):
    """(U1, U2, lo, hi): Cantor stages fattened by dyadic and non-dyadic
    radii, planted doubles, a second union or the first again, and band
    edges that are floats, hairlines of width below 1e-9, or lattice
    points."""

    def union():
        spec = draw(st.sampled_from([CantorSpec(1, 2), CantorSpec(2, 3), CantorSpec(1, 3)]))
        U = cantor_stage(spec, draw(st.integers(0, 3)))
        if draw(st.booleans()):
            U = shift_union(U, 1)
        return U.neighborhood(Fraction(1, draw(st.sampled_from([64, 96, 100, 640]))))

    U1 = union()
    U2 = U1 if draw(st.booleans()) else union()
    kind = draw(st.sampled_from(["float", "hairline", "lattice"]))
    if kind == "lattice":
        lo = Fraction(draw(st.integers(0, 48)), 16)
        return U1, U2, lo, lo + Fraction(draw(st.integers(0, 16)), draw(st.sampled_from([16, 96])))
    lo = draw(st.floats(0.0, 2.5))
    width = draw(st.floats(0.0, 1e-9 if kind == "hairline" else 1.0))
    return U1, U2, lo, lo + width


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_band_mass_cases())
def test_pair_band_mass_equals_block_pair_fraction_oracle(case):
    U1, U2, lo, hi = case
    got = pair_band_mass(U1, U2, lo, hi)
    assert isinstance(got, Fraction)
    assert got == _block_pair_band_mass(U1, U2, Fraction(lo), Fraction(hi))


def test_pair_band_mass_monte_carlo_referee():
    rng = np.random.default_rng(42)
    U1 = IntervalUnion.from_pairs([(0, Fraction(1, 4)), (Fraction(3, 8), Fraction(5, 8))])
    U2 = IntervalUnion.from_pairs([(Fraction(1, 8), Fraction(1, 2)), (Fraction(3, 4), 1)])
    lo, hi = 0.2, 0.45
    exact = float(pair_band_mass(U1, U2, lo, hi))

    def draw(U, n):
        arr = _endpoints(U)
        lens = arr[:, 1] - arr[:, 0]
        rows = rng.choice(len(lens), size=n, p=lens / lens.sum())
        return arr[rows, 0] + rng.random(n) * lens[rows], lens.sum()

    n = 2_000_000
    x, m1 = draw(U1, n)
    y, m2 = draw(U2, n)
    sep = np.abs(x - y)
    frac = ((sep >= lo) & (sep <= hi)).mean()
    est = frac * m1 * m2
    se = m1 * m2 * math.sqrt(frac * (1 - frac) / n)
    assert abs(exact - est) < 5 * se


def test_pair_band_mass_empty_and_degenerate():
    U = IntervalUnion.single(0, 1)
    assert pair_band_mass(IntervalUnion.from_pairs([]), U, 0.1, 0.2) == 0
    assert pair_band_mass(U, U, 5.0, 6.0) == 0  # band beyond the span
    with pytest.raises(ValueError):
        pair_band_mass(U, U, 0.5, 0.4)


def test_pair_band_mass_symmetry():
    U1 = IntervalUnion.from_pairs([(0, Fraction(1, 3))])
    U2 = IntervalUnion.from_pairs([(Fraction(1, 2), Fraction(7, 8))])
    assert pair_band_mass(U1, U2, 0.1, 0.6) == pair_band_mass(U2, U1, 0.1, 0.6)


# ---- correlograms ----------------------------------------------------------

def _block_pair_correlogram(A, h):
    """corr(k h) for k = 0 .. floor(|span| / h), summed over block pairs:
    the overlap of two blocks is a trapezoid in the lag, evaluated directly."""
    span_lo, span_hi = A.span
    at = np.arange(int(math.floor(float(span_hi - span_lo) / float(h))) + 1) * float(h)
    arr = _endpoints(A)
    c, l = (arr[:, 0] + arr[:, 1]) / 2.0, arr[:, 1] - arr[:, 0]
    D = c[:, None] - c[None, :]
    hh = (l[:, None] + l[None, :]) / 2.0
    pl = np.abs(l[:, None] - l[None, :]) / 2.0
    x = at[:, None, None] - D
    return 0.5 * (
        np.abs(x + hh) + np.abs(x - hh) - np.abs(x + pl) - np.abs(x - pl)
    ).sum(axis=(1, 2))


def test_autocorrelation_exact_vs_fft():
    A = cantor_stage(CantorSpec(1, 2), 3)
    h = Fraction(1, 512)
    exact = _block_pair_correlogram(A, h)
    fft = autocorrelation(A, h).values
    n = min(exact.size, fft.size)
    np.testing.assert_allclose(exact[:n], fft[:n], atol=1e-12)
    # lag-zero value is the measure of A
    assert exact[0] == pytest.approx(float(A.total_length), abs=1e-12)


def _correlogram_integral(c):
    """int corr(u) du over all u (two-sided) by the trapezoid rule on the
    correlogram's samples."""
    return 2.0 * c.sample_spacing * (c.values.sum() - 0.5 * c.values[0])


def test_autocorrelation_integral_identity():
    # integral of the correlogram over all lags equals |A|^2; the trapezoid
    # sum is exact because every block endpoint sits on the sample lattice
    A = IntervalUnion.from_pairs([(0, Fraction(1, 8)), (Fraction(1, 2), Fraction(3, 4))])
    c = autocorrelation(A, Fraction(1, 2048))
    assert _correlogram_integral(c) == pytest.approx(float(A.total_length) ** 2, rel=1e-12)


def test_correlogram_closes_with_its_zero_lag():
    # the last cell of [0, 1] is linear from 0.25 down to 0; without the
    # closing lag the trapezoid of 1 - |x| reads 0.46875, not 0.5
    A = IntervalUnion.single(0, 1)
    c = autocorrelation(A, Fraction(1, 4))
    np.testing.assert_array_equal(c.values, [1.0, 0.75, 0.5, 0.25, 0.0])
    assert c.sample_spacing * (c.values.sum() - 0.5 * c.values[0] - 0.5 * c.values[-1]) == 0.5
    # a band that holds every pair gives |A|^4 = 1 exactly
    value, low, high = unitdist.measure._dense_band_integral(c.values, c.values, 0.25, 0.0, 10.0)
    assert low <= value == 1.0 <= high


def test_autocorrelation_spacing_guard():
    A = IntervalUnion.from_pairs([(0, Fraction(1, 64))])
    with pytest.raises(ValueError):
        autocorrelation(A, Fraction(1, 64))  # spacing must resolve the blocks


_Q = Fraction


@st.composite
def _aligned_unions(draw):
    """A few disjoint intervals on a 1/L lattice, a few points on or off it,
    and a spacing 1/(L m) that resolves the intervals, so every sample cell
    is empty or full."""
    L = draw(st.sampled_from([1, 3, 4, 5, 6, 12, 24, 40, 96]))
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    ends = sorted(draw(st.lists(st.integers(-60, 60), min_size=2, max_size=14, unique=True)))
    if len(ends) % 2:
        ends = ends[:-1]
    assume(m > 1 or min(np.diff(ends)[::2]) >= 2)  # spacing <= half a block
    pairs = [(Fraction(a, L), Fraction(b, L)) for a, b in zip(ends[::2], ends[1::2])]
    points = draw(
        st.lists(st.fractions(-70, 70, max_denominator=3 * L * m), max_size=3)
    )
    A = IntervalUnion.from_pairs(pairs + [(x, x) for x in points])
    return A, Fraction(1, L * m)


def _lattice_overlaps(A, spacing):
    """int64 overlap counts of A's 0/1 cell coverage at lags 0, 1, ...,
    by direct correlation, closed by the zero lag at the cells' span. Cells
    run from the lattice point at or below A's first endpoint to the one at
    or above its last, points included."""
    cells = [(a / spacing, b / spacing) for a, b in A.intervals]
    origin = math.floor(cells[0][0])
    cov = np.zeros(math.ceil(cells[-1][1]) - origin, dtype=np.int64)
    for a, b in cells:
        cov[int(a) - origin : int(b) - origin] = 1
    return np.append(np.correlate(cov, cov, "full")[cov.size - 1 :], 0)


def _power_of_two_length(m):
    return 1 << m.bit_length()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_aligned_unions())
def test_lattice_correlogram_is_exact_for_any_transform_length(case):
    A, spacing = case
    got = autocorrelation(A, spacing).values
    want = _lattice_overlaps(A, spacing)
    assert got.size == want.size
    np.testing.assert_array_equal(got, float(spacing) * want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unitdist.measure, "fft_length", _power_of_two_length)
        again = autocorrelation(A, spacing).values
    assert again.size == got.size
    np.testing.assert_array_equal(again, got)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_aligned_unions(), st.integers(1, 300))
def test_lag_limited_correlogram_is_the_prefix(case, lags):
    A, spacing = case
    full = autocorrelation(A, spacing).values
    got = autocorrelation(A, spacing, lags=lags).values
    np.testing.assert_array_equal(got, full[:lags])


def test_off_lattice_spacing_is_refused():
    cases = [
        # endpoints at thirds and sevenths sit off the 1/256 sample lattice
        ([(0, _Q(1, 3)), (_Q(3, 7), _Q(2, 3)), (_Q(5, 7), 1)], _Q(1, 256)),
        # every endpoint is off the 1/8 lattice by 1/16, though their
        # differences are on it
        ([(_Q(1, 16), _Q(9, 16)), (_Q(11, 16), _Q(15, 16))], _Q(1, 8)),
    ]
    for pairs, h in cases:
        A = IntervalUnion.from_pairs(pairs)
        with pytest.raises(ValueError, match="lattice"):
            autocorrelation(A, h)
        with pytest.raises(ValueError, match="lattice"):
            autocorrelation(A, h, lags=4)
    # a given dense spacing is held to the same rule
    delta = Fraction(1, 64)
    F = IntervalUnion.points([0, 1]).neighborhood(delta)
    B = IntervalUnion.points([0]).neighborhood(delta)
    with pytest.raises(ValueError, match="lattice"):
        pair_band_measure_product(F, B, delta, spacing=Fraction(1, 300), method="dense")


@pytest.mark.parametrize("k", [6, 9, 12])
@pytest.mark.parametrize("w", [1.1, 1.5, 2.0, 2.5])
def test_dense_route_reads_only_a_prefix_of_the_correlograms(k, w):
    # the route's lag-limited correlograms give the bits of the full ones,
    # value and bracket alike; at w = 1.1, hi / h is not an integer
    delta = Fraction(1, 2**k)
    spec = CantorSpec(1, 2)
    stage = cantor_stage(spec, stage_for_scale(spec, delta))
    F, B = shift_union(stage, 1).neighborhood(delta), stage.neighborhood(delta)
    spacing = delta / 4
    got = pair_band_measure_product(
        F, B, delta, spacing=spacing, width_multiplier=w, method="dense"
    )
    corr_f = autocorrelation(F, spacing).values
    corr_b = autocorrelation(B, spacing).values
    h, d = float(spacing), w * float(delta)
    want = _full_lattice_band_integral(corr_f, corr_b, h, 1 - d, 1 + d)
    assert struct.pack("<3d", got.value, got.low, got.high) == struct.pack("<3d", *want)


def _fft_input_sizes(mp):
    """Patch `_fft_autocorrelation` to record the length of every input."""
    sizes = []
    inner = unitdist.measure._fft_autocorrelation

    def recording(x, lags=None):
        sizes.append(x.size)
        return inner(x, lags)

    mp.setattr(unitdist.measure, "_fft_autocorrelation", recording)
    return sizes


@pytest.mark.parametrize(
    "pairs, spacing, fft_size, counts",
    [
        # one interval: a single coarse cell, m = 4
        ([(0, 1)], _Q(1, 4), 1, [4, 3, 2, 1, 0]),
        # lengths 2 and 2 with a gap of 1 cell: g is the spacing, m = 1
        ([(0, _Q(2, 8)), (_Q(3, 8), _Q(5, 8))], _Q(1, 8), 5, [4, 2, 1, 2, 1, 0]),
        # negative endpoints: g = 1/4 from -1/2, m = 2
        ([(_Q(-1, 2), _Q(-1, 4)), (0, _Q(1, 4))], _Q(1, 8), 3,
         [4, 2, 0, 1, 2, 1, 0]),
        # points on the cell lattice, off the coarse one, first and inside
        ([(_Q(-3, 8), _Q(-3, 8)), (0, _Q(1, 2)), (_Q(3, 4), _Q(3, 4)), (1, _Q(3, 2))],
         _Q(1, 8), 3, None),
        # points off the cell lattice, first and last
        ([(_Q(-7, 5), _Q(-7, 5)), (0, _Q(1, 2)), (1, _Q(3, 2)), (_Q(9, 7), _Q(9, 7))],
         _Q(1, 8), 3, None),
        ([(_Q(1, 3), _Q(1, 3)), (0, _Q(1, 2)), (1, _Q(3, 2)), (_Q(15, 7), _Q(15, 7))],
         _Q(1, 8), 3, None),
        # points only: nothing to transform, every count is 0
        ([(_Q(-1, 3), _Q(-1, 3)), (_Q(5, 7), _Q(5, 7))], _Q(1, 8), None, None),
    ],
)
def test_coarse_lattice_edge_cases(pairs, spacing, fft_size, counts):
    A = IntervalUnion.from_pairs(pairs)
    with pytest.MonkeyPatch.context() as mp:
        sizes = _fft_input_sizes(mp)
        got = autocorrelation(A, spacing).values
    # points cover no cell and never shrink the coarse lattice
    assert sizes == ([] if fft_size is None else [fft_size])
    want = _lattice_overlaps(A, spacing)
    assert got.size == want.size
    np.testing.assert_array_equal(got, float(spacing) * want)
    if counts is not None:
        np.testing.assert_array_equal(want, counts)


def test_dense_correlogram_transforms_the_endpoint_lattice():
    # at the dense route's spacing delta/4 every endpoint of a C(1,2)
    # neighborhood is on the 1/den = delta lattice, and merged siblings put
    # them 6 delta apart: the FFT runs on cells of g >= 4 spacings, never
    # on the n fine cells
    delta = Fraction(1, 2**10)
    spec = CantorSpec(1, 2)
    A = cantor_stage(spec, stage_for_scale(spec, delta)).neighborhood(delta)
    ends = [x - A.span[0] for pair in A.intervals for x in pair]
    g = Fraction(math.gcd(*(int(x * A.den) for x in ends)), A.den)
    assert A.den == 1 / delta and g == 6 * delta
    with pytest.MonkeyPatch.context() as mp:
        sizes = _fft_input_sizes(mp)
        corr = autocorrelation(A, delta / 4)
    n = corr.values.size - 1  # cells; the last lag closes at 0
    assert n == (A.span[1] - A.span[0]) / (delta / 4)
    assert sizes == [n // 24]


def test_certified_counts_refuse_far_from_integer_values():
    np.testing.assert_array_equal(
        _certified_counts(np.array([3.0 - 1e-9, 0.24, -0.1])), [3, 0, 0]
    )
    with pytest.raises(FloatingPointError):
        _certified_counts(np.array([1.0, 2.25]))


def test_correlogram_rejects_negative_values():
    with pytest.raises(ValueError):
        Correlogram(0.5, np.array([1.0, -0.2]), 1.0)


# ---- 2-D product band measure ----------------------------------------------

def _mc_band_measure(F, B, lo, hi, n, seed):
    """Monte-Carlo referee for the planar band measure of (F x B)^2 pairs."""
    rng = np.random.default_rng(seed)

    def draw(U, k):
        arr = _endpoints(U)
        lens = arr[:, 1] - arr[:, 0]
        rows = rng.choice(len(lens), size=k, p=lens / lens.sum())
        return arr[rows, 0] + rng.random(k) * lens[rows], lens.sum()

    x1, mf = draw(F, n)
    x2, _ = draw(F, n)
    y1, mb = draw(B, n)
    y2, _ = draw(B, n)
    dist = np.hypot(x1 - x2, y1 - y2)
    frac = ((dist >= lo) & (dist <= hi)).mean()
    area = (mf * mb) ** 2
    return frac * area, area * math.sqrt(frac * (1 - frac) / n)


@pytest.mark.parametrize(
    "delta, w, atoms",
    [
        (Fraction(1, 2), 2.5, 32.48963033351296),
        (Fraction(1, 2), 3.0, 34.21380801678885),
        (Fraction(1, 4), 4.5, 13.539432753762409),
    ],
)
def test_band_reaching_below_0_starts_at_0(delta, w, atoms):
    # 1 - w delta < 0: the band is [0, 1 + w delta]; the dense route once
    # measured [|1 - w delta|, 1 + w delta], a bracket that missed the atoms
    # value, which never read the lower edge there and stays bit for bit
    spec = CantorSpec(1, 2)
    base = cantor_stage(spec, stage_for_scale(spec, delta))
    F, B = (U.neighborhood(delta) for U in (shift_union(base, 1), base))
    got = pair_band_measure_product(F, B, delta, width_multiplier=w, method="atoms")
    assert got.value == atoms
    dense = pair_band_measure_product(F, B, delta, width_multiplier=w, method="dense")
    assert dense.low <= atoms <= dense.high


def test_product_routes_agree_at_coarse_scale():
    delta = Fraction(1, 64)
    spec = CantorSpec(1, 2)
    A = cantor_stage(spec, stage_for_scale(spec, delta))
    F = shift_union(A, 1).neighborhood(delta)
    B = A.neighborhood(delta)

    dense = pair_band_measure_product(F, B, delta, method="dense")
    atoms = pair_band_measure_product(F, B, delta, method="atoms")
    assert dense.method == "dense"
    assert atoms.method == "atoms"
    # the two quadratures are independent; both brackets are certified
    assert dense.low <= atoms.value <= dense.high
    assert dense.low <= atoms.high and atoms.low <= dense.high

    mc, se = _mc_band_measure(
        F, B, 1 - 2 * float(delta), 1 + 2 * float(delta), 4_000_000, seed=9
    )
    assert dense.low - 5 * se < mc < dense.high + 5 * se


def test_product_value_bracketed_by_grid_route():
    delta = Fraction(1, 256)
    spec = CantorSpec(1, 2)
    A = cantor_stage(spec, stage_for_scale(spec, delta))
    F = shift_union(A, 1)
    G = rasterize([F, A], delta, delta / 4, alpha=1.0)
    bracket = pair_band_measure_grid(G)
    product = pair_band_measure_product(
        F.neighborhood(delta), A.neighborhood(delta), delta
    )
    assert bracket.inner <= product.value <= bracket.outer


def test_product_two_point_axes_analytic():
    # F = [-d,d] u [1-d,1+d], B = [-d,d]: distances pool near 0 and 1, and the
    # band [1-2d, 1+2d] collects mass 2 * (2d)^2 * (2d)^2 = 32 d^4 exactly
    # (up to O(d) corrections from the circular band edges)
    delta = Fraction(1, 1024)
    d = float(delta)
    F = IntervalUnion.points([0, 1]).neighborhood(delta)
    B = IntervalUnion.points([0]).neighborhood(delta)
    r = pair_band_measure_product(F, B, delta)
    assert r.value == pytest.approx(32 * d**4, rel=0.02)


def test_product_empty_factor():
    r = pair_band_measure_product(
        IntervalUnion.from_pairs([]), IntervalUnion.single(0, 1), Fraction(1, 64)
    )
    assert r.value == 0.0
    assert r.method == "empty"


def test_product_deep_scale_uses_atoms():
    delta = Fraction(1, 1 << 18)
    spec = CantorSpec(1, 2)
    A = cantor_stage(spec, stage_for_scale(spec, delta))
    F = shift_union(A, 1).neighborhood(delta)
    B = A.neighborhood(delta)
    r = pair_band_measure_product(F, B, delta)
    assert r.method == "atoms"
    assert r.value > 0
    assert r.quadrature_error < 0.05 * r.value


def _full_lattice_band_integral(corr_f, corr_b, h, lo, hi):
    """Reference for `_dense_band_integral`: the same formulas, with G and
    its rounding bound evaluated at every lattice lag below K; the ends of
    the cells where corrF is not 0 are then found by a scan, and the same
    sums taken over them."""
    K = min(corr_f.size, int(math.floor(hi / h)) + 2)
    cum = np.concatenate([[0.0], np.cumsum((corr_b[1:] + corr_b[:-1]) * 0.5 * h)])
    top = (corr_b.size - 1) * h
    reach = min(top, hi)  # u <= reach, so k <= reach / h
    dq = 11.0 * _UNIT * max(hi, (K - 1) * h) ** 2
    s = np.arange(K) * h

    def g_at(r, bound):
        u = (r - s) * (r + s)
        near = u > -dq
        u = np.minimum(np.sqrt(np.maximum(u, 0.0)), top)
        du = 2.0 * dq / (u + math.sqrt(dq)) * near + _UNIT * (3.0 * reach + 9.0 * h)
        bound += corr_b[0] * du
        k = np.minimum(np.floor(u / h).astype(np.int64), corr_b.size - 2)
        frac = u - k * h
        cb = corr_b[k] + (corr_b[k + 1] - corr_b[k]) * (frac / h)
        g = cum[k] + (corr_b[k] + cb) * 0.5 * frac
        bound += (reach / h + 8.0) * _UNIT * g
        return g

    e = np.zeros(K)
    gp, gm = g_at(hi, e), g_at(lo, e)
    at = [j for j in range(K) if corr_f[max(j - 1, 0) : min(j + 2, K)].any()]
    f, gp, gm, e = (x[at] for x in (corr_f, gp, gm, e))
    fw = f * (2.0 * (gp - gm))
    cell = 0.5 * h * (f[:-1] + f[1:])
    low = np.sum(cell * np.maximum(gp[1:] - gm[:-1], 0.0))
    upper = gp[:-1] - gm[1:]
    slack = 7.0 * _UNIT + _gamma(len(at))
    err = 2.0 * (np.sum(cell * (e[:-1] + e[1:])) + slack * (low + np.sum(cell * np.abs(upper))))
    value = h * np.sum(fw[:-1] + fw[1:])
    high = np.sum(cell * upper) + err
    return float(value), max(0.0, float(4.0 * (low - err))), float(4.0 * high)


def _lattice_with_zero_runs(rng, n, h):
    """Integer counts times h, with runs of zeros of random lengths."""
    counts = rng.integers(1, 1 << 20, size=n).astype(np.float64)
    at = 0
    while at < n:
        at += int(rng.integers(1, 40))
        run = int(rng.integers(1, 60))
        counts[at : at + run] = 0.0
        at += run
    return counts * h


def _dense_integral_cases():
    rng = np.random.default_rng(14)
    for k in range(4, 10):
        h = 2.0**-k  # delta = 4h, as the dense route samples
        for _ in range(6):
            w = float(rng.choice([1.5, 2.0, 2.5])) * 4 * h
            lo, hi = 1.0 - w, 1.0 + w
            n_b = int(rng.integers(4, 3 / h))
            corr_b = _lattice_with_zero_runs(rng, n_b, h)
            # the band inside corrF, from lag 0, and past corrF's end
            for n_f, band in [
                (int(2.5 / h), (lo, hi)),
                (int(2.5 / h), (0.0, hi)),
                (int(rng.integers(2, 1 / h)), (lo, hi)),
            ]:
                yield _lattice_with_zero_runs(rng, n_f, h), corr_b, h, *band
    # a points-only F: its correlogram is all zero
    delta = Fraction(1, 64)
    F = IntervalUnion.points([0, Fraction(13, 16), 1])
    spec = CantorSpec(1, 2)
    B = cantor_stage(spec, stage_for_scale(spec, delta)).neighborhood(delta)
    spacing = delta / 4
    corr_f = autocorrelation(F, spacing).values
    corr_b = autocorrelation(B, spacing).values
    assert not corr_f.any()
    h = float(spacing)
    for lo, hi in [(1 - 2 * float(delta), 1 + 2 * float(delta)), (0.0, 1.5)]:
        yield corr_f, corr_b, h, lo, hi


def test_dense_band_integral_is_bit_identical_to_the_full_lattice():
    cases = 0
    for corr_f, corr_b, h, lo, hi in _dense_integral_cases():
        got = unitdist.measure._dense_band_integral(corr_f, corr_b, h, lo, hi)
        want = _full_lattice_band_integral(corr_f, corr_b, h, lo, hi)
        # bits, not ==: the sign of a zero result must match too
        assert struct.pack("<3d", *got) == struct.pack("<3d", *want), (got, want)
        cases += 1
    assert cases == 6 * 6 * 3 + 2


_DENSE_BITS_PROBE = """
from fractions import Fraction
import struct
from unitdist.cantor import CantorSpec, cantor_stage, shift_union, stage_for_scale
from unitdist.measure import pair_band_measure_product
spec = CantorSpec(1, 2)
for k in (12, 16):
    delta = Fraction(1, 2**k)
    stage = cantor_stage(spec, stage_for_scale(spec, delta))
    F, B = shift_union(stage, 1).neighborhood(delta), stage.neighborhood(delta)
    r = pair_band_measure_product(F, B, delta, method="dense")
    print(struct.pack("<3d", r.value, r.low, r.high).hex())
"""


def test_dense_bracket_bits_do_not_depend_on_the_blas_thread_count():
    # the thread count is read when NumPy loads, so each runs in its own
    # process; a threaded BLAS dot splits long sums differently by count
    src = str(Path(unitdist.measure.__file__).parents[1])
    runs = [
        subprocess.run(
            [sys.executable, "-c", _DENSE_BITS_PROBE],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(runs[0].split()) == 2
    assert runs[0] == runs[1]


_MA_PROBE = """
import json, sys, tempfile
from pathlib import Path
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit()
from unitdist import cli
cantor = {"kind": "cantor", "p": 1, "q": 2}
configs = [
    {"axes": [dict(cantor, shift=1), cantor], "deltas": ["2^-18", "2^-19"]},
    {"axes": [{"kind": "points", "at": [0, "1/3", 1]}, cantor], "deltas": ["2^-18", "2^-19"]},
]
with tempfile.TemporaryDirectory() as tmp:
    for i, cfg in enumerate(configs):
        path = Path(tmp) / f"{i}.json"
        path.write_text(json.dumps({**cfg, "method": "product"}))
        # exit 2: a two-scale fit falls outside the bound table
        assert cli.run_config(path, kind="sweep", out_override=Path(tmp) / str(i)) in (0, 2)
        assert (Path(tmp) / str(i) / "scaling.csv").exists()
print("numpy.ma" in sys.modules)
"""


def test_atoms_sweeps_do_not_import_numpy_ma():
    # np.unique(x) imports numpy.ma on first use (NumPy 2.4), a cost every
    # product run would pay; the atoms route dedupes by one sort instead
    src = str(Path(unitdist.measure.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _MA_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    if out == ["preloaded"]:
        pytest.skip("this NumPy loads numpy.ma with numpy itself")
    assert out == ["False"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-5, 5) | st.floats(-3.0, 3.0, width=16), max_size=30))
def test_distinct_equals_unique(values):
    for dtype in (np.int64, np.float64):
        x = np.array(values).astype(dtype)
        want = np.unique(x)
        got = unitdist.measure._distinct(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_product_dense_spacing_override_converges():
    # the bracket narrows about linearly with the spacing, and both hold the
    # atoms value (the trapezoid value itself is 2^-19 at both spacings)
    delta = Fraction(1, 64)
    F = IntervalUnion.points([0, 1]).neighborhood(delta)
    B = IntervalUnion.points([0]).neighborhood(delta)
    coarse = pair_band_measure_product(F, B, delta, spacing=Fraction(1, 512))
    fine = pair_band_measure_product(F, B, delta, spacing=Fraction(1, 4096))
    assert fine.high - fine.low < (coarse.high - coarse.low) / 4
    atoms = pair_band_measure_product(F, B, delta, method="atoms")
    for r in (coarse, fine):
        assert r.low <= atoms.value <= r.high


# ---- atoms path: the B-side band-mass profile ------------------------------

def _pair_cum_at(g, u):
    """G(u) of a `_PairCum` at queries u, each in its segment's local
    coordinate, as `_evaluate` reads it."""
    k = np.searchsorted(g.x, u, side="right") - 1
    t = u - g.x[k]
    return g.cum[k] + t * (g.corr[k] + 0.5 * g.slope[k] * t)


@pytest.mark.parametrize(
    "p, q, stage, delta",
    [
        (1, 2, 4, Fraction(1, 256)),  # dyadic
        (1, 3, 3, Fraction(1, 640)),  # dyadic stage; delta brings a factor 5
        (2, 3, 2, Fraction(1, 96)),  # gaps of 1/6: a factor 3
    ],
)
def test_pair_cum_matches_band_mass_oracle(p, q, stage, delta):
    # 2 (G(u+) - G(u-)) is the mass of B-pairs with |t1 - t2| in [u-, u+];
    # pair_band_mass computes it block pair by block pair, sharing no code
    B = cantor_stage(CantorSpec(p, q), stage).neighborhood(delta)
    den = _common_denominator([B], 1 << 40, "lattice")
    top = float(B.span[1] - B.span[0]) + 0.1
    atoms = _difference_atoms(*_lattice_blocks(B, den))
    cum = _PairCum.from_atoms(atoms, 1 / (4 * den), top)
    rng = np.random.default_rng(p * 100 + q)
    ends = np.sort(rng.uniform(0.0, top, size=(60, 2)), axis=1)
    ends[:5, 0] = 0.0  # bands starting at 0
    ends[5:10, 1] = ends[5:10, 0] + 1e-9 * rng.random(5)  # hairline bands
    mass = float(B.total_length) ** 2
    for lo, hi in ends:
        got = 2.0 * (_pair_cum_at(cum, hi) - _pair_cum_at(cum, lo))
        want = float(pair_band_mass(B, B, lo, hi))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14 * mass)
    # the whole line holds every pair
    assert 2.0 * _pair_cum_at(cum, top) == pytest.approx(mass, rel=1e-12)


@pytest.mark.parametrize("block", [1, 100, 1 << 22])
def test_difference_atoms_merge_blocks_exactly(block):
    # Three length classes of 32, 8 and 16 intervals. A block of 1 sends one
    # row per block through the merge tree, 100 sends 3, 12 or 6 rows (11
    # blocks for the 32-row class), 2^22 sends each class pair at once.
    # Every count must match np.unique of all differences.
    B = cantor_stage(CantorSpec(1, 2), 5).union(
        cantor_stage(CantorSpec(2, 3), 2).shift(Fraction(5, 4))
    ).union(cantor_stage(CantorSpec(1, 3), 3).shift(Fraction(5, 2)))
    centers, lengths = _lattice_blocks(B, _common_denominator([B], 1 << 40, "lattice"))
    np.testing.assert_array_equal(np.unique(lengths, return_counts=True)[1], [32, 8, 16])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unitdist.measure, "_DIFF_BLOCK", block)
        atoms = _difference_atoms(centers, lengths)
    for vals, cnts, la, lb in atoms:
        diff = (centers[lengths == la][:, None] - centers[lengths == lb][None, :]).ravel()
        want_vals, want_cnts = np.unique(diff, return_counts=True)
        np.testing.assert_array_equal(vals, want_vals)
        np.testing.assert_array_equal(cnts, want_cnts)


# ---- atoms path: difference atoms from translate structure ----------------

_SPECS = [CantorSpec(1, 2), CantorSpec(2, 3), CantorSpec(1, 3)]


def _fattened(draw, U, wide):
    """U fattened by a fraction of its smallest gap: below half of it (no
    new merges) unless `wide`, which may merge siblings."""
    if U.n_intervals < 2:
        return U.neighborhood(Fraction(1, 64) * draw(st.integers(0, 1)))
    gap = Fraction(int((U.lo[1:] - U.hi[:-1]).min()), U.den)
    k = draw(st.integers(4, 16) if wide else st.integers(0, 3))
    return U.neighborhood(gap * Fraction(k, 8))


@st.composite
def _translate_unions(draw):
    """(U, structured): C(1,2), C(2,3) and C(1,3) stages, their doubles by a
    translate, merged at a touching seam or overlapping, and fattenings of
    these, each with True where the translate test must recognize it and
    None where it may or may not; or a union with no translate structure
    (an odd number of shortest blocks), with False."""
    kind = draw(st.sampled_from(["stage", "double", "overlap", "wide", "plain"]))
    if kind == "plain":
        # 1/64 units: an odd number of length-2 blocks, blocks of length
        # 3 or 4 (split into two length-2 blocks each), longer blocks and
        # points, in random order and spaced so that none touch
        lengths = [2] * draw(st.sampled_from([1, 3, 5, 7]))
        lengths += draw(st.lists(st.sampled_from([0, 3, 4, 5, 9]), max_size=6))
        lengths = draw(st.permutations(lengths))
        at, pairs = 0, []
        for n in lengths:
            at += draw(st.integers(1, 9))
            pairs.append((Fraction(at, 64), Fraction(at + n, 64)))
            at += n
        structured = None if lengths.count(2) == 1 else False
        return IntervalUnion.from_pairs(pairs), structured
    spec = draw(st.sampled_from(_SPECS))
    U = cantor_stage(spec, draw(st.integers(0, 4 if spec.p == 1 else 2)))
    if kind in ("double", "overlap"):
        # a touching seam at 1 merges two blocks into one of length 2L
        if kind == "double":
            shifts = [1, Fraction(5, 4), 2]
        else:
            shifts = [Fraction(1, 2), Fraction(3, 4)]
        U = shift_union(U, draw(st.sampled_from(shifts)))
    U = _fattened(draw, U, kind == "wide")
    return U, True if kind in ("stage", "double") else None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_translate_unions())
def test_translate_atoms_give_the_generic_breaklist(case):
    U, structured = case
    centers, lengths = _lattice_blocks(U, U.den)
    atoms = _translate_atoms(centers, lengths)
    if structured is not None:
        assert (atoms is not None) == structured
    generic = _trapezoid_breaklist(_difference_atoms(centers, lengths))
    for got in (_trapezoid_breaklist(_union_atoms(centers, lengths)),) + (
        () if atoms is None else (_trapezoid_breaklist(atoms),)
    ):
        for x, y in zip(got, generic):
            assert x.dtype == y.dtype == np.int64
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("k", [7, 8, 16, 19])
def test_planted_product_takes_the_translate_path(k):
    # F's seam block at 1 is split; B is a plain stage, merged at odd k
    delta = Fraction(1, 2**k)
    spec = CantorSpec(1, 2)
    stage = cantor_stage(spec, stage_for_scale(spec, delta))
    for U in (shift_union(stage, 1).neighborhood(delta), stage.neighborhood(delta)):
        centers, lengths = _lattice_blocks(U, U.den)
        atoms = _translate_atoms(centers, lengths)
        assert atoms is not None
        got = _trapezoid_breaklist(atoms)
        want = _trapezoid_breaklist(_difference_atoms(centers, lengths))
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.tuples(
        st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True),
        st.integers(-3, 3),
        st.sampled_from([0, 2, 4, 6]),
        st.sampled_from([0, 2, 4, 6]),
    ),
    min_size=1,
    max_size=4,
))
def test_breaklist_matches_the_bumps_pointwise(draws):
    # any atoms, even or not, cancelling or zero-length: the breaklist is
    # canonical (a breakpoint at 0, then only slope changes), and its value
    # at every integer x >= 0 is the sum of the bumps M * trap(x - D),
    # evaluated one by one
    atoms = [
        (np.array(sorted(v)), np.full(len(v), m), la, lb)
        for v, m, la, lb in draws
    ]
    pos, slope, value = _trapezoid_breaklist(atoms)
    assert pos[0] == 0 and (np.diff(pos) > 0).all() and (np.diff(slope) != 0).all()
    x = np.arange(0, 40)
    want = np.zeros(x.size, dtype=np.int64)
    for vals, cnts, la, lb in atoms:
        h4, pl4 = la + lb, abs(la - lb)
        for d, m in zip(2 * vals, cnts):
            want += m * np.clip(h4 - np.abs(x - d), 0, h4 - pl4)
    k = np.searchsorted(pos, x, side="right") - 1
    np.testing.assert_array_equal(value[k] + slope[k] * (x - pos[k]), want)


@pytest.mark.parametrize(
    "ts",
    [[], [5], [3, 1], [2, 1], [1, 2, 4], [2, 1, 3], [6, 6], [9, 3, 1, 27], [4, 2, 2, 1]],
)
def test_convolved_differences_are_all_pair_differences(ts):
    # the factors {-t: 1, 0: 2, t: 1}, touching (t = 2 max) or overlapping
    c = np.zeros(1, dtype=np.int64)
    for t in ts:
        c = np.concatenate([c, c + t])
    vals, cnts = _convolved_differences(ts)
    want_vals, want_cnts = np.unique(c[:, None] - c[None, :], return_counts=True)
    np.testing.assert_array_equal(vals, want_vals)
    np.testing.assert_array_equal(cnts, want_cnts)


def test_convolved_differences_refuse_arrays_past_the_cap(monkeypatch):
    # t = 1, 3, 9, 27 never overlap, so the arrays hold 3^k entries: 27 are
    # built under a cap of 27, and the next 81 are refused before they exist
    monkeypatch.setattr(unitdist.measure, "DENSE_CAP", 27)
    assert _convolved_differences([1, 3, 9])[0].size == 27
    with pytest.raises(ValueError, match="81 difference atoms exceed cap 27"):
        _convolved_differences([1, 3, 9, 27])


# ---- atoms path: Gauss-Legendre pieces and their error bounds -------------

def _gauss_legendre_ld(n):
    """n-point Gauss-Legendre nodes and weights in long double: Newton steps
    on P_n from the double-precision nodes."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(4):
        p0, p1 = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def _exact_pair_cum(F, B, fn):
    """G at the breakpoints of fn.g from B's integer breaklist, summed
    exactly in Python ints and scaled in long double."""
    den = _common_denominator([F, B], 1 << 40, "lattice")
    pos, _, value = _trapezoid_breaklist(_difference_atoms(*_lattice_blocks(B, den)))
    n = fn.g.x.size
    np.testing.assert_array_equal(pos[:n] * (1.0 / (4 * den)), fn.g.x)
    pos, value = pos[:n].tolist(), value[:n].tolist()
    cum = [0]
    for k in range(n - 1):
        cum.append(cum[-1] + (value[k] + value[k + 1]) * (pos[k + 1] - pos[k]))
    quarter = np.longdouble(1) / (4 * den)
    return np.array(cum, dtype=np.longdouble) * (quarter * quarter / 2)


def _reference_integrand(fn, cum, knot, z):
    """corrF(s) W(s) (times ds/dtau = 2 tau in the tau variable) in long
    double, every segment looked up per point rather than per piece."""
    L = np.longdouble
    fx, fv, fs = (a.astype(L) for a in (fn.fx, fn.fv, fn.fs))
    x, corr, slope = (a.astype(L) for a in (fn.g.x, fn.g.corr, fn.g.slope))
    s = L(knot) - z * z if knot else z
    k = np.searchsorted(fx, s, "right") - 1
    corr_f = fv[k] + fs[k] * (s - fx[k])
    w = 0
    for sign, r in ((1, L(fn.hi)), (-1, L(fn.lo))):
        d = (r - L(knot)) + z * z if knot else r - s  # r - s
        u = np.sqrt(np.maximum(d * (2 * r - d), 0))
        k = np.searchsorted(x, u, "right") - 1
        t = u - x[k]
        w = w + sign * (cum[k] + t * (corr[k] + slope[k] * t / 2))
    f = corr_f * 2 * w
    return f * 2 * z if knot else f


_FOUND_PRODUCTS = [
    # the two products whose earlier error estimates missed (see CHANGES.md)
    (
        IntervalUnion.points(
            [Fraction(5, 48), Fraction(13, 24), Fraction(3, 4), Fraction(43, 48), Fraction(9, 8)]
        ),
        IntervalUnion.points([Fraction(7, 12)]),
        Fraction(1, 64),
        1.0,
    ),
    (IntervalUnion.points([0, Fraction(13, 16)]), IntervalUnion.points([0]), Fraction(1, 16), 1.0),
]


_PIECE_PRODUCTS = _FOUND_PRODUCTS + [
    (
        shift_union(cantor_stage(CantorSpec(1, 2), 2), 1),
        cantor_stage(CantorSpec(1, 2), 2),
        Fraction(1, 64),
        2.5,
    ),
    (
        shift_union(cantor_stage(CantorSpec(2, 3), 1), Fraction(3, 4)),
        cantor_stage(CantorSpec(1, 3), 1),
        Fraction(1, 32),
        1.5,
    ),
]


def test_piece_bounds_cover_a_much_finer_rule():
    # Each kink-free piece's truncation plus rounding bound must cover the
    # distance from its Gauss-Legendre sum to GL_32 on 8 equal sub-pieces of
    # the integrand evaluated independently in long double.
    x32, w32 = _gauss_legendre_ld(32)
    sub = (2 * np.arange(8, dtype=np.longdouble) - 7) / 8
    seen = set()
    for F0, B0, delta, w in _PIECE_PRODUCTS:
        F, B = F0.neighborhood(delta), B0.neighborhood(delta)
        d = w * float(delta)
        fn = _band_integrand(F, B, 1 - d, 1 + d)
        cum = _exact_pair_cum(F, B, fn)
        for knot, radii, za, zb, kf, kg in _kink_free_pieces(fn):
            c, h = 0.5 * (za + zb), 0.5 * (zb - za)
            trunc = _truncation_bound(fn, knot, radii, kf, kg, c, h)
            est, err, mag = _gauss_sums(fn, knot, radii, kf, kg, c, h)
            bound = trunc + err + _gamma(_GL_NODES.size + 8) * mag
            a_ld, b_ld = za.astype(np.longdouble), zb.astype(np.longdouble)
            hl = ((b_ld - a_ld) / 2)[:, None, None]
            z = ((a_ld + b_ld) / 2)[:, None, None] + hl * (sub[:, None] + x32 / 8)
            f = _reference_integrand(fn, cum, knot, z)
            ref = (hl[:, 0, 0] / 8) * (f @ w32).sum(axis=1)
            miss = np.abs(est - ref).astype(np.float64)
            assert np.all(miss <= bound), (knot, radii, (miss / bound).max())
            seen.add(("tau" if knot else "s", len(radii)))
            if knot and (za == 0).any():
                seen.add(("touches", "hi" if knot == fn.hi else "lo"))
            if not knot and ((za == fn.lo) | (zb == fn.lo)).any():
                seen.add(("touches", "lo"))
    assert seen == {
        ("s", 2), ("s", 1), ("tau", 1), ("tau", 2), ("touches", "lo"), ("touches", "hi")
    }


# ---- atoms path: quadrature only where the band mass W is nonzero ---------

def _integrate_all_pieces(fn, knot, radii, za, zb, kf, kg):
    """Reference for `_integrate_pieces`: the same rule, bounds and
    bisections, with every piece evaluated, also where W vanishes."""
    total = bound = size = 0.0
    terms = 0
    for split in range(_MAX_SPLITS + 1):
        wide = zb > za
        za, zb, kf, kg = za[wide], zb[wide], kf[wide], tuple(k[wide] for k in kg)
        c, h = 0.5 * (za + zb), 0.5 * (zb - za)
        trunc = _truncation_bound(fn, knot, radii, kf, kg, c, h)
        est, err, mag = _gauss_sums(fn, knot, radii, kf, kg, c, h)
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


def _assert_support_quadrature_exact(F, B, lo, hi):
    """On every piece group of one atoms call: `_integrate_pieces` gives the
    all-pieces (total, bound, size, terms) as bits, and on every piece that
    `_w_vanishes` skips, f and its rounding bound vanish at the Gauss nodes
    and so does the truncation bound. Returns (pieces, skipped)."""
    fn = _band_integrand(F, B, lo, hi)
    pieces = skipped = 0
    for knot, radii, za, zb, kf, kg in _kink_free_pieces(fn):
        got = _integrate_pieces(fn, knot, radii, za, zb, kf, kg)
        want = _integrate_all_pieces(fn, knot, radii, za, zb, kf, kg)
        assert struct.pack("<3dq", *got) == struct.pack("<3dq", *want), (got, want)
        wide = zb > za
        zero = _w_vanishes(fn.g, kg) & wide
        pieces += int(wide.sum())
        skipped += int(zero.sum())
        if not zero.any():
            continue
        kf, kg = kf[zero], tuple(k[zero] for k in kg)
        c, h = 0.5 * (za[zero] + zb[zero]), 0.5 * (zb[zero] - za[zero])
        z = c[:, None] + h[:, None] * _GL_NODES
        dz = (4.0 * 2.0**-53) * (np.abs(c) + h)[:, None]
        f, df = _evaluate(fn, knot, radii, kf[:, None], tuple(k[:, None] for k in kg), z, dz)
        assert (f == 0.0).all() and (df == 0.0).all()
        assert (_truncation_bound(fn, knot, radii, kf, kg, c, h) == 0.0).all()
    return pieces, skipped


def _planted(k):
    """The planted product C(1,2)+1 x C(1,2) at delta = 2^-k."""
    delta = Fraction(1, 2**k)
    spec = CantorSpec(1, 2)
    stage = cantor_stage(spec, stage_for_scale(spec, delta))
    return shift_union(stage, 1).neighborhood(delta), stage.neighborhood(delta), delta


@pytest.mark.parametrize("k", range(16, 22))
def test_support_quadrature_is_bit_identical_on_the_planted_product(k):
    F, B, delta = _planted(k)
    for w in (1.5, 2.0, 2.5):
        d = w * float(delta)
        pieces, skipped = _assert_support_quadrature_exact(F, B, 1 - d, 1 + d)
        assert 0 < skipped < pieces


def test_half_the_planted_pieces_are_not_evaluated(monkeypatch):
    # at 2^-19 most band radii pairs sit in gaps of the Cantor difference
    # set; count the pieces the Gauss sums actually see
    F, B, delta = _planted(19)
    d = 2.0 * float(delta)
    fn = _band_integrand(F, B, 1 - d, 1 + d)
    pieces = sum(int((zb > za).sum()) for _, _, za, zb, _, _ in _kink_free_pieces(fn))
    evaluated = []
    gauss_sums = unitdist.measure._gauss_sums

    def counted(fn, knot, radii, kf, kg, c, h):
        evaluated.append(c.size)
        return gauss_sums(fn, knot, radii, kf, kg, c, h)

    monkeypatch.setattr(unitdist.measure, "_gauss_sums", counted)
    value, _ = unitdist.measure._atoms_band_integral(F, B, 1 - d, 1 + d)
    assert value > 0
    assert pieces > 60_000
    assert sum(evaluated) <= pieces // 2


def test_a_lone_live_piece_rounds_as_in_a_batch():
    # NumPy multiplies a one-row matrix through a dot kernel whose rounding
    # differs from the batched product's: a piece with W nonzero, grouped
    # with one where W vanishes, must still give the all-pieces bits
    F, B, delta = _planted(18)
    d = 2.0 * float(delta)
    fn = _band_integrand(F, B, 1 - d, 1 + d)
    checked = 0
    for knot, radii, za, zb, kf, kg in _kink_free_pieces(fn):
        zero = _w_vanishes(fn.g, kg) & (zb > za)
        if not zero.any():
            continue
        for j in np.flatnonzero(~zero & (zb > za))[:128]:
            pair = np.array([j, np.argmax(zero)])
            args = (fn, knot, radii, za[pair], zb[pair], kf[pair], tuple(k[pair] for k in kg))
            got, want = _integrate_pieces(*args), _integrate_all_pieces(*args)
            assert struct.pack("<3dq", *got) == struct.pack("<3dq", *want), (got, want)
            checked += 1
    assert checked >= 128


_POINT_SITES = [Fraction(k, 4) for k in range(5, 10)]


@st.composite
def _support_products(draw):
    """(F, B, delta, w, generic): delta-neighborhoods of C(1,2), C(1,3) and
    C(2,3) stages. F is a stage, its double by a translate, or its union
    with three points past it, 1/4 apart (generic: an odd number of
    shortest blocks has no translate structure, so F takes all N^2
    differences)."""
    delta = Fraction(1, draw(st.sampled_from([16, 32, 64, 128])))

    def stage():
        spec = draw(st.sampled_from([CantorSpec(1, 2), CantorSpec(1, 3), CantorSpec(2, 3)]))
        return cantor_stage(spec, draw(st.integers(0, stage_for_scale(spec, delta))))

    kind = draw(st.sampled_from(["stage", "double", "generic"]))
    F0 = stage()
    if kind == "double":
        F0 = shift_union(F0, draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), 1])))
    elif kind == "generic":
        sites = draw(st.lists(st.sampled_from(_POINT_SITES), min_size=3, max_size=3, unique=True))
        F0 = F0.union(IntervalUnion.points(sites))
    w = draw(st.sampled_from([1.5, 2.0, 2.5]))
    return F0.neighborhood(delta), stage().neighborhood(delta), delta, w, kind == "generic"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_support_products())
def test_support_quadrature_is_bit_identical_on_cantor_products(case):
    F, B, delta, w, generic = case
    if generic:
        assert _translate_atoms(*_lattice_blocks(F, F.den)) is None
    d = w * float(delta)
    _assert_support_quadrature_exact(F, B, 1 - d, 1 + d)


# ---- property tests: the routes on random small products ------------------

@st.composite
def _lattice_products(draw):
    """delta-neighborhoods F x B of a few random points on a 1/L lattice."""
    L = draw(st.sampled_from([16, 24, 32, 40, 48]))
    xs = st.integers(0, int(1.25 * L)).map(lambda i: Fraction(i, L))
    ys = st.integers(0, int(0.75 * L)).map(lambda i: Fraction(i, L))
    F0 = IntervalUnion.points(draw(st.lists(xs, min_size=1, max_size=6)))
    B0 = IntervalUnion.points(draw(st.lists(ys, min_size=1, max_size=6)))
    delta = Fraction(1, draw(st.sampled_from([16, 32, 64])))
    w = draw(st.sampled_from([1.0, 1.5, 2.0, 2.5]))
    return F0, B0, delta, w


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_lattice_products())
def test_grid_bracket_contains_atoms_value_and_error(case):
    F0, B0, delta, w = case
    atoms = pair_band_measure_product(
        F0.neighborhood(delta), B0.neighborhood(delta), delta,
        width_multiplier=w, method="atoms",
    )
    bracket = pair_band_measure_grid(rasterize([F0, B0], delta, delta / 4), w)
    assert bracket.inner <= atoms.low
    assert atoms.high <= bracket.outer


@st.composite
def _coarse_cantor_products(draw):
    """delta-neighborhoods F x B of small Cantor stages whose intervals are
    longer than delta; F is a stage together with a translate."""
    delta = Fraction(1, draw(st.sampled_from([16, 32, 64])))

    def stage():
        spec = draw(st.sampled_from([CantorSpec(1, 2), CantorSpec(1, 3), CantorSpec(2, 3)]))
        coarsest_fine = stage_for_scale(spec, delta)
        return cantor_stage(spec, draw(st.integers(0, max(0, coarsest_fine - 1))))

    F0 = shift_union(stage(), draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), 1])))
    B0 = stage()
    w = draw(st.sampled_from([1.0, 1.5, 2.0, 2.5]))
    return F0, B0, delta, w


def _any_spacing_correlogram(A, spacing, lags):
    """corr at lags k * spacing, k < lags, for any spacing, as the dense
    route once took it: exact lattice counts where every endpoint is on the
    spacing lattice, else the unrounded FFT of each cell's exact covered
    length, within 2 * spacing * |A| of corr."""
    lo, hi, step, n, _ = A._cells(Fraction(spacing))
    h = float(spacing)
    counts = unitdist.measure._lattice_counts(lo, hi, step, n, lags)
    if counts is not None:
        return counts * h
    first, stop = lo // step, -(-hi // step)  # cells [first, stop) meet [lo, hi]
    covered = np.zeros(n, dtype=np.int64)
    for a, b, i, j in zip(lo.tolist(), hi.tolist(), first.tolist(), stop.tolist()):
        if j - i == 1:
            covered[i] += b - a
        elif j - i > 1:
            covered[i] += (i + 1) * step - a
            covered[i + 1 : j - 1] = step
            covered[j - 1] += b - (j - 1) * step
    raw = np.append(unitdist.measure._fft_autocorrelation(covered / step), 0.0)
    corr = np.maximum(raw[:lags] * h, 0.0)
    corr[0] = float(A.total_length)
    return corr


def _dense_value_at_any_spacing(F, B, delta, spacing, w):
    """`pair_band_measure_product(..., spacing, method="dense").value`,
    with the correlograms of `_any_spacing_correlogram`."""
    h, d = float(spacing), w * float(delta)
    lags = int(math.floor((1 + d) / h)) + 2
    corr_f, corr_b = (_any_spacing_correlogram(U, spacing, lags) for U in (F, B))
    return unitdist.measure._dense_band_integral(corr_f, corr_b, h, 1 - d, 1 + d)[0]


def _assert_atoms_contain_dense_limit(F0, B0, delta, w):
    # The reference is the dense integral at spacing delta/2048, which
    # need not hold the endpoints (`_dense_value_at_any_spacing`). Its tolerance
    # is the larger of its last two steps (from delta/1024 and from
    # delta/512 to delta/1024): the dense values can converge with a
    # period-2 wobble, so that one step alone is smaller than what remains.
    # A floor of 2^-50 (|F| |B|)^2 covers the dense route's float noise,
    # about 1e-20 on products whose measure is exactly 0.
    F, B = F0.neighborhood(delta), B0.neighborhood(delta)
    atoms = pair_band_measure_product(F, B, delta, width_multiplier=w, method="atoms")
    fine, mid, coarse = (
        _dense_value_at_any_spacing(F, B, delta, delta / k, w) for k in (2048, 1024, 512)
    )
    tol = max(abs(fine - mid), abs(mid - coarse))
    tol += 2.0**-50 * float(F.total_length * B.total_length) ** 2
    assert atoms.low - tol <= fine <= atoms.high + tol


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_lattice_products())
@example(_FOUND_PRODUCTS[0])
@example(_FOUND_PRODUCTS[1])
def test_atoms_error_contains_the_dense_limit(case):
    _assert_atoms_contain_dense_limit(*case)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_coarse_cantor_products())
def test_atoms_error_contains_the_dense_limit_on_cantor_products(case):
    _assert_atoms_contain_dense_limit(*case)


# The products on which the dense route's earlier error estimate, the
# difference of its values at spacings h and 2h, missed the atoms value: a
# corner region thinner than the lattice, a product of measure 0, and the
# first derandomized counterexample among `_lattice_products`.
_DENSE_FOUND_PRODUCTS = [
    _FOUND_PRODUCTS[1],
    (
        IntervalUnion.points([0, Fraction(1, 24), Fraction(5, 4)]),
        IntervalUnion.points([0]),
        Fraction(1, 16),
        1.0,
    ),
    (IntervalUnion.points([0, Fraction(7, 8)]), IntervalUnion.points([0]), Fraction(1, 16), 1.0),
]


def _dense_and_atoms(F0, B0, delta, w):
    F, B = F0.neighborhood(delta), B0.neighborhood(delta)
    dense = pair_band_measure_product(F, B, delta, width_multiplier=w, method="dense")
    atoms = pair_band_measure_product(F, B, delta, width_multiplier=w, method="atoms")
    return dense, atoms


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(_lattice_products(), _coarse_cantor_products()))
@example(_DENSE_FOUND_PRODUCTS[0])
@example(_DENSE_FOUND_PRODUCTS[1])
@example(_DENSE_FOUND_PRODUCTS[2])
def test_atoms_value_lies_in_the_dense_bracket(case):
    dense, atoms = _dense_and_atoms(*case)
    assert dense.low <= atoms.value <= dense.high


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(_lattice_products(), _coarse_cantor_products()))
@example(_DENSE_FOUND_PRODUCTS[1])
def test_dense_value_lies_in_its_own_bracket(case):
    F0, B0, delta, w = case
    F, B = F0.neighborhood(delta), B0.neighborhood(delta)
    r = pair_band_measure_product(F, B, delta, width_multiplier=w, method="dense")
    assert 0.0 <= r.low <= r.value <= r.high


def _decimal_bracket(F, B, spacing, lo, hi):
    """The dense route's [low, high] in 50-digit decimal arithmetic, from
    the exact lattice counts, over every cell of corrF's lattice."""
    cf, cb = (_lattice_overlaps(U, spacing) for U in (F, B))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        h = Decimal(spacing.numerator) / spacing.denominator
        cum = [Decimal(0)]
        for i in range(cb.size - 1):
            cum.append(cum[-1] + int(cb[i] + cb[i + 1]) * h * h / 2)

        def g(r, s):  # G(sqrt(r^2 - s^2)), G = int_0 corrB
            u = max(Decimal(0), r * r - s * s).sqrt()
            j = min(int(u / h), cb.size - 1)
            t = min(u - j * h, h) if j < cb.size - 1 else Decimal(0)
            k = min(j + 1, cb.size - 1)
            return cum[j] + int(cb[j]) * h * t + int(cb[k] - cb[j]) * t * t / 2

        r_hi, r_lo = Decimal(hi), Decimal(lo)
        low = high = Decimal(0)
        for k in range(cf.size - 1):
            if cf[k] or cf[k + 1]:
                cell = int(cf[k] + cf[k + 1]) * h * h / 2
                s0, s1 = k * h, (k + 1) * h
                low += cell * max(Decimal(0), g(r_hi, s1) - g(r_lo, s0))
                high += cell * (g(r_hi, s0) - g(r_lo, s1))
        return 4 * low, 4 * high


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_lattice_products())
@example(_DENSE_FOUND_PRODUCTS[0])
@example(_DENSE_FOUND_PRODUCTS[1])
@example(_DENSE_FOUND_PRODUCTS[2])
def test_dense_bracket_holds_the_exact_lattice_bracket(case):
    # the float bracket, widened by its rounding bound, contains the same
    # bracket computed from the exact counts (for L = 24, 40 and 48 the
    # spacing is not dyadic, so the correlogram values are rounded)
    F0, B0, delta, w = case
    F, B = F0.neighborhood(delta), B0.neighborhood(delta)
    r = pair_band_measure_product(F, B, delta, width_multiplier=w, method="dense")
    spacing = unitdist.measure._aligned_spacing([F, B], delta / 4)
    d = w * float(delta)
    low, high = _decimal_bracket(F, B, spacing, 1.0 - d, 1.0 + d)
    assert Decimal(r.low) <= low <= high <= Decimal(r.high)


# ---- grid bracket: ring counts against brute-force pair enumeration -------

@st.composite
def _masks_and_rings(draw, min_d=1):
    """min_d to 3 small random axis masks and a ring whose squared radii, in
    cell units, are perfect squares (pairs on the boundary) or half-integers."""
    d = draw(st.integers(min_d, 3))
    n_max = (24, 14, 9)[d - 1]
    masks = tuple(
        np.array(draw(st.lists(st.booleans(), min_size=1, max_size=n_max)))
        for _ in range(d)
    )
    top = d * (n_max - 1) ** 2 + 2

    def radius_sq():
        m = draw(st.integers(0, math.isqrt(top)))
        if draw(st.booleans()):
            return m, m * m
        a = m * m + draw(st.integers(0, 2 * m))
        return math.sqrt(a + 0.5), a + 0.5

    (lo, t_lo), (hi, t_hi) = radius_sq(), radius_sq()
    cell = draw(st.sampled_from([1.0, 0.125, 1 / 64]))
    return masks, cell, lo * cell, hi * cell, t_lo, t_hi


def _ring_pairs_brute(masks, t_lo, t_hi):
    """Over all ordered pairs of occupied cells: the closed-ring and the
    open-ring counts."""
    idx = np.stack(
        np.meshgrid(*[np.flatnonzero(m) for m in masks], indexing="ij"), axis=-1
    ).reshape(-1, len(masks))
    diff = idx[:, None, :] - idx[None, :, :]
    k2 = (diff * diff).sum(axis=-1)
    closed = (k2 >= t_lo) & (k2 <= t_hi)
    open_ = (k2 > t_lo) & (k2 < t_hi)
    return int(closed.sum()), int(open_.sum())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_masks_and_rings())
def test_band_cell_pairs_match_brute_force(case):
    masks, cell, lo, hi, t_lo, t_hi = case
    closed, open_ = _ring_pairs_brute(masks, t_lo, t_hi)
    # the outer bracket counts the closed ring exactly
    assert _band_cell_pairs(masks, cell, lo, hi, round_out=True) == closed
    # the inner bracket counts the open ring exactly, including the pairs
    # that share their last-axis cell
    assert _band_cell_pairs(masks, cell, lo, hi, round_out=False) == open_


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_masks_and_rings(min_d=2))
def test_band_cell_pairs_do_not_depend_on_the_axis_order(case):
    # the axes are reordered by their live offsets inside; the count over
    # every order of the masks is the brute-force one
    masks, cell, lo, hi, t_lo, t_hi = case
    for round_out, want in zip((True, False), _ring_pairs_brute(masks, t_lo, t_hi)):
        for order in itertools.permutations(masks):
            assert _band_cell_pairs(order, cell, lo, hi, round_out) == want


@pytest.mark.parametrize(
    "sizes",
    [
        (1 << 17, 1 << 17),  # the total passes 2^63
        ((1 << 20) + 1, 1 << 21),  # so does the weighted term 2 (n_x - 1) n_y^2
        (2, 1 << 12, 1 << 20),  # and a row sum, (n_y n_z)^2
        (1 << 14, 1 << 4, 1 << 14),  # only the total
    ],
)
def test_band_cell_pairs_count_every_pair_exactly_past_int64(sizes):
    # all-true masks and a band that holds every pair: (prod n)^2 ordered
    # pairs, less the zero offsets (one per cell) in the open ring
    masks = tuple(np.ones(n, dtype=bool) for n in sizes)
    cells = math.prod(sizes)
    assert cells * cells >= 1 << 63
    hi = 2.0 * sum(sizes)
    assert _band_cell_pairs(masks, 1.0, 0.0, hi, round_out=True) == cells * cells
    assert _band_cell_pairs(masks, 1.0, 0.0, hi, round_out=False) == cells * cells - cells


def test_grid_bracket_past_int64_contains_the_atoms_value():
    # [0, 2]^2 at 2^-18 with cell delta/2: about 2^20 cells per axis, so the
    # cell-pair counts pass 2^63
    interval, delta = IntervalUnion.single(0, 2), Fraction(1, 2**18)
    bracket = pair_band_measure_grid(rasterize([interval] * 2, delta, delta / 2))
    assert bracket.outer_pairs >= 1 << 63
    fat = interval.neighborhood(delta)
    atoms = pair_band_measure_product(fat, fat, delta, method="atoms")
    assert bracket.inner <= atoms.low
    assert atoms.high <= bracket.outer
