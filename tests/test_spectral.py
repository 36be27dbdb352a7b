"""Mollified Fourier transforms, weighted energies, ball convolutions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitdist.cantor import CantorSpec, cantor_stage
from unitdist.grids import GridIndicator, rasterize
import unitdist.grids
import unitdist.spectral
from unitdist.intervals import IntervalUnion
from unitdist.spectral import (
    MollifierSpec,
    ball_convolution_l2,
    mollify_transform,
    weighted_energy,
)


def _line_grid(U, delta, alpha=1.0):
    return rasterize(U, delta, delta / 4, alpha=alpha)


def test_mollifier_mass_and_fourier_decay():
    m = MollifierSpec(0.01)
    # frequency response is a centered Gaussian: 1 at 0, decaying in |xi|
    assert m.fourier(np.array([0.0]))[0] == pytest.approx(1.0)
    vals = m.fourier(np.array([5.0, 20.0, 80.0]))
    assert np.all(np.diff(vals) < 0)
    assert m.fourier(np.array([1.0 / 0.01]))[0] < 1e-8


def test_unit_interval_spectrum_envelope():
    # indicator of [0,1]: |F|(0) = 1 and |F(xi)| <= 1/(pi |xi|), softened a
    # touch by the mollifier
    delta = Fraction(1, 256)
    S = mollify_transform(_line_grid(IntervalUnion.single(0, 1), delta))
    freqs = np.arange(S.values.size) * S.frequency_spacing
    mags = np.abs(S.values)
    # DC value is the measure of the fattened set
    assert mags[0] == pytest.approx(1 + 2 / 256, rel=1e-9)
    sel = (freqs > 0.5) & (freqs < 40.0)
    assert np.all(mags[sel] <= 1.0 / (math.pi * freqs[sel]) + 1e-9)


def test_two_point_spectrum_oscillates():
    # indicator of tiny blocks at 0 and 1: |F(xi)|^2 ~ cos^2(pi xi) pattern,
    # nearly zero at half-integers, full mass at integers
    delta = Fraction(1, 512)
    S = mollify_transform(_line_grid(IntervalUnion.points([0, 1]), delta))
    f = S.frequency_spacing
    mags = np.abs(S.values)

    def at(x):
        return mags[int(round(x / f))]

    assert at(1.0) > 50 * at(0.5)
    assert at(2.0) > 50 * at(1.5)


def test_parseval_identity_within_tolerance():
    delta = Fraction(1, 256)
    A = cantor_stage(CantorSpec(1, 2), 4)
    S = mollify_transform(_line_grid(A, delta, alpha=0.5))
    # stored time-domain norm equals the weighted spectral norm
    assert S.spectral_norm_sq() == pytest.approx(S.norm_sq, rel=1e-6)


def test_product_grid_is_refused():
    # spectra are one-dimensional: a product grid is refused, not split
    delta = Fraction(1, 128)
    A = cantor_stage(CantorSpec(1, 2), 3)
    G = rasterize([A, A], delta, delta / 4, alpha=1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        mollify_transform(G)
    with pytest.raises(ValueError, match="one-dimensional"):
        ball_convolution_l2(G, 0.25)


def test_cell_must_resolve_mollifier():
    A = cantor_stage(CantorSpec(1, 2), 3)
    G = rasterize(A, Fraction(1, 64), Fraction(1, 128))  # cell = delta/2 too coarse
    with pytest.raises(ValueError):
        mollify_transform(G)


def test_transform_past_the_memory_budget_is_refused(monkeypatch):
    # the budget is checked on the padded length, before the transform
    G = _line_grid(cantor_stage(CantorSpec(1, 2), 3), Fraction(1, 64), alpha=0.5)
    monkeypatch.setattr(unitdist.grids, "MEMORY_BUDGET", mollify_transform(G).length)
    with pytest.raises(ValueError, match="mollified transform: [0-9]+ bytes predicted"):
        mollify_transform(G)


# ---- weighted energy ---------------------------------------------------------

def test_weighted_energy_single_cell_closed_form():
    # a single fattened point is a centered block of length 2 delta, whose
    # transform has the closed form 2d sinc(2d xi) e^{-2 pi^2 d^2 xi^2};
    # rebuild the documented weighted sum from that closed form alone
    delta = Fraction(1, 64)
    d = float(delta)
    alpha = 0.5
    G = rasterize(IntervalUnion.points([0]), delta, delta / 4, alpha=alpha)
    S = mollify_transform(G)
    rep = weighted_energy(S)

    mass = 2 * d
    h = S.frequency_spacing
    xi = np.arange(S.values.size) * h
    F = mass * np.sinc(mass * xi) * np.exp(-2 * math.pi**2 * d**2 * xi**2)
    w = np.empty_like(xi)
    w[0] = (h / 2) ** (alpha - 1) / alpha  # cell average across the origin
    w[1:] = xi[1:] ** (alpha - 1)
    coeff = np.full(xi.size, 2.0)
    coeff[0] = coeff[-1] = 1.0  # one-sided DC and Nyquist bins
    oracle = float((coeff * w * F * F).sum() * h)
    # residual is the cell-sampling error of the transform, O((xi * cell)^2)
    assert rep.energy == pytest.approx(oracle, rel=3e-3)
    assert rep.reference > 0


def test_weighted_energy_ratio_is_scale_stable_for_matching_alpha():
    # the energy over log(1/delta) delta^{2(d-alpha)} stays bounded for the
    # half-dimensional set at alpha = 1/2
    spec = CantorSpec(1, 2)
    ratios = []
    for k in (8, 11, 14):
        delta = Fraction(1, 2**k)
        A = cantor_stage(spec, k // 2)
        G = rasterize(A, delta, delta / 4, alpha=0.5)
        rep = weighted_energy(mollify_transform(G))
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 4.0


def test_weighted_energy_validates_exponent():
    # alpha is read from the spectrum, which takes it from the grid
    delta = Fraction(1, 64)
    U = IntervalUnion.single(0, 1)
    for alpha in (1.0, -0.5, math.nan):  # needs 0 < alpha < 1
        S = mollify_transform(_line_grid(U, delta, alpha=alpha))
        with pytest.raises(ValueError, match="alpha"):
            weighted_energy(S)
    # and delta likewise: a scale of 1 is outside 0 < delta < 1
    S = mollify_transform(_line_grid(U, Fraction(1), alpha=0.5))
    with pytest.raises(ValueError, match="delta"):
        weighted_energy(S)


# ---- ball convolution ----------------------------------------------------------

def test_ball_convolution_interval_analytic():
    # conv of indicator([−d, 1+d]) with the r-ball indicator: plateau at 2r
    # with linear ramps of width 2r, so ||conv||_2 = 2r sqrt(L - 2r/3)
    delta = Fraction(1, 512)
    r = 0.125
    G = _line_grid(IntervalUnion.single(0, 1), delta)
    rep = ball_convolution_l2(G, r)
    expect = 2 * r * math.sqrt(1 + 2 * float(delta) - 2 * r / 3)
    assert rep.l2_norm == pytest.approx(expect, rel=1e-6)
    assert rep.r == r


def test_ball_convolution_requires_r_at_least_delta():
    G = _line_grid(IntervalUnion.single(0, 1), Fraction(1, 64))
    with pytest.raises(ValueError):
        ball_convolution_l2(G, 0.001)


def test_ball_convolution_ratio_bounded_across_dyadic_r():
    spec = CantorSpec(1, 2)
    delta = Fraction(1, 2**12)
    A = cantor_stage(spec, 6)
    G = rasterize(A, delta, delta / 2, alpha=0.5)
    ratios = [ball_convolution_l2(G, 2.0**-k).ratio for k in range(4, 11, 2)]
    assert max(ratios) / min(ratios) <= 4.0


def _exact_ball_norm_sq(mask, cell, r):
    """||1_mask * 1_[-r, r]||_2^2 on the grid, in Fractions from the
    definition: cell offset j weighs the overlap of [j cell, (j + 1) cell]
    with [-r, r], and the squared norm is cell times the sum of squares."""
    r = Fraction(r)
    K = int(r / cell) + 1
    ker = {}
    for j in range(-K - 1, K + 1):
        w = min((j + 1) * cell, r) - max(j * cell, -r)
        if w > 0:
            ker[j] = w
    conv = {}
    for i in np.flatnonzero(mask).tolist():
        for j, w in ker.items():
            conv[i + j] = conv.get(i + j, 0) + w
    return cell * sum(v * v for v in conv.values())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=40),
    R=st.integers(1, 12),
    edge=st.sampled_from([0, 1, 3, 7]),  # eighths of a cell past R cells
    cell=st.sampled_from([Fraction(1, 4), Fraction(1, 64), Fraction(1, 3), Fraction(5, 7)]),
)
def test_ball_convolution_is_the_rounded_root_of_the_exact_norm(mask, R, edge, cell):
    mask = np.array(mask)
    G = GridIndicator((mask,), (mask,), (Fraction(0),), cell, cell, alpha=0.5)
    r = float((R + Fraction(edge, 8)) * cell)
    exact = _exact_ball_norm_sq(mask, cell, r)
    got = ball_convolution_l2(G, r).l2_norm
    if Fraction(r) % cell == 0:
        # r / cell is an integer: l2_norm is the float nearest the exact
        # root, so the exact square lies between the squares of the
        # midpoints to its float neighbours
        y = Fraction(got)
        below = (y + Fraction(math.nextafter(got, 0.0))) / 2
        above = (y + Fraction(math.nextafter(got, math.inf))) / 2
        assert below * below <= exact <= above * above
    else:
        assert got == pytest.approx(math.sqrt(exact), rel=4 * 2.0**-52, abs=0.0)


def test_ball_convolution_sums_past_the_int64_bound_in_python_ints(monkeypatch):
    # with the bound at 0 every sum takes the Python-int path, which must
    # give the same bits, with and without edge cells
    delta = Fraction(1, 2**10)
    G = _line_grid(cantor_stage(CantorSpec(1, 2), 5), delta, alpha=0.5)
    radii = (2.0**-4, 0.1)
    want = [ball_convolution_l2(G, r) for r in radii]
    monkeypatch.setattr(unitdist.spectral, "INT64_LIMIT", 0)
    assert [ball_convolution_l2(G, r) for r in radii] == want
