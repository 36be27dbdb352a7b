"""Grid indicators: rasterized fattened sets with certified inner/outer masks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from unitdist.cantor import CantorSpec, cantor_stage
from unitdist.grids import (
    AlphaSetReport,
    _ball_cell_counts,
    alpha_set_verify,
    fft_length,
    rasterize,
)
from unitdist.intervals import IntervalUnion


def _occupied(G, which="outer"):
    """Occupied cells of a product grid: the product of its axis counts."""
    masks = G.axis_masks if which == "outer" else G.axis_masks_inner
    return math.prod(int(m.sum()) for m in masks)


def _occupied_measure(G, which="outer"):
    return _occupied(G, which) * G.cell**G.d


def test_rasterize_single_interval_hand_count():
    # [0, 1/4] fattened by 1/16 is [-1/16, 5/16]: 6/16 long, cell 1/32 -> 12 cells
    u = IntervalUnion.single(0, Fraction(1, 4))
    G = rasterize(u, Fraction(1, 16), Fraction(1, 32))
    assert G.d == 1
    assert _occupied(G, "outer") == 12
    assert _occupied(G, "inner") == 12  # endpoints on the cell lattice
    assert float(_occupied_measure(G, "outer")) == pytest.approx(12 / 32)


def test_rasterize_offgrid_endpoints_widen_outer_only():
    # [0, 1/3] fattened by 1/16: right endpoint falls strictly inside a cell,
    # so the outer raster keeps that cell and the inner raster drops it
    u = IntervalUnion.single(0, Fraction(1, 3))
    G = rasterize(u, Fraction(1, 16), Fraction(1, 32))
    assert _occupied(G, "outer") == _occupied(G, "inner") + 1
    assert float(_occupied_measure(G, "inner")) <= float(u.neighborhood(Fraction(1, 16)).total_length)
    assert float(_occupied_measure(G, "outer")) >= float(u.neighborhood(Fraction(1, 16)).total_length)


def test_rasterize_two_axes():
    u = IntervalUnion.single(0, Fraction(1, 4))
    G = rasterize([u, u], Fraction(1, 16), Fraction(1, 32), alpha=1.0)
    assert G.d == 2
    assert _occupied(G, "outer") == 12 * 12
    assert float(_occupied_measure(G, "outer")) == pytest.approx((12 / 32) ** 2)
    mask = G.dense_mask()
    assert mask.shape == (12, 12)
    assert mask.all()


def test_sandwich_between_exact_neighborhoods():
    # inner raster measure <= |K_delta| <= outer raster measure, for a set
    # with plenty of off-lattice structure
    A = cantor_stage(CantorSpec(2, 3), 2)
    delta = Fraction(1, 64)
    exact = float(A.neighborhood(delta).total_length)
    G = rasterize(A, delta, Fraction(1, 512))
    assert float(_occupied_measure(G, "inner")) <= exact <= float(_occupied_measure(G, "outer"))
    # the gap is at most one cell per block boundary
    gap = float(_occupied_measure(G, "outer")) - float(_occupied_measure(G, "inner"))
    assert gap <= 2 * float(Fraction(1, 512)) * A.neighborhood(delta).n_intervals


def test_cell_must_not_exceed_delta():
    u = IntervalUnion.single(0, 1)
    with pytest.raises(ValueError):
        rasterize(u, Fraction(1, 64), Fraction(1, 32))


def test_axis_centers_align_with_origin():
    u = IntervalUnion.single(Fraction(1, 8), Fraction(3, 8))
    G = rasterize(u, Fraction(1, 16), Fraction(1, 16))
    centers = G.axis_centers(0)
    # centers live at half-cell offsets of the origin lattice
    rel = (centers - float(G.origin[0])) / float(G.cell)
    np.testing.assert_allclose(rel - np.floor(rel), 0.5)


def test_alpha_set_verify_interval_is_exactly_one_dimensional():
    # |[x-r, x+r] cap K_delta| <= 2r for every ball, so at alpha = 1 the
    # normalized ratio sits near 2 (plus a little raster slop at r ~ delta)
    u = IntervalUnion.single(0, 1)
    G = rasterize(u, Fraction(1, 256), Fraction(1, 1024), alpha=1.0)
    rep = alpha_set_verify(G, 1.0, 1500, seed=0)
    assert rep.samples_tested == 1500
    assert 1.0 <= rep.sup_ratio <= 2.5


def test_alpha_set_verify_half_dimensional_cantor():
    spec = CantorSpec(1, 2)
    A = cantor_stage(spec, 5)
    delta = Fraction(1, 2**10)
    G = rasterize(A, delta, delta / 2, alpha=0.5)
    rep = alpha_set_verify(G, 0.5, 4000, seed=1)
    # (delta/r)-covering ratio r^{-1/2}|B(x,r) cap A_delta| stays O(1)
    assert rep.sup_ratio <= 8.0
    assert rep.sup_ratio >= 0.25
    assert rep.worst_r >= float(delta)


def test_alpha_set_verify_flags_wrong_exponent():
    # testing the interval against alpha = 1/2 must blow past any O(1) bound
    u = IntervalUnion.single(0, 1)
    G = rasterize(u, Fraction(1, 256), Fraction(1, 512), alpha=0.5)
    rep = alpha_set_verify(G, 0.5, 1500, seed=2)
    assert rep.sup_ratio > 8.0


# ---- batched ball counts against the per-sample reference ------------------


def _ball_cell_count_reference(G, x, r):
    """Per-sample ball count of the earlier release, kept as the oracle."""
    cell = float(G.cell)
    mask = G.axis_masks[0]
    prefix = np.concatenate([[0], np.cumsum(mask)])
    first = float(G.origin[0]) + 0.5 * cell
    lo = math.ceil((x - r - first) / cell)
    hi = math.floor((x + r - first) / cell)
    lo = min(max(lo, 0), len(mask))
    hi = min(max(hi + 1, 0), len(mask))
    return int(prefix[max(hi, lo)] - prefix[lo])


def _alpha_set_verify_reference(G, alpha, sample_count, seed=0):
    """The earlier release's per-sample loop over the same draws."""
    occupied = np.nonzero(G.axis_masks[0])[0]
    delta, cell = float(G.delta), float(G.cell)
    diameter = max(len(G.axis_masks[0]) * cell, 2 * delta)
    rng = np.random.default_rng(seed)
    sup_ratio, worst = -1.0, (0.0, delta)
    radii = np.exp(rng.uniform(math.log(delta), math.log(diameter), sample_count))
    center_idx = occupied[rng.integers(0, occupied.size, sample_count)]
    for s in range(sample_count):
        x = float(G.origin[0]) + (center_idx[s] + 0.5) * cell
        r = float(radii[s])
        measure = _ball_cell_count_reference(G, x, r) * cell
        ratio = measure / ((r / delta) ** alpha * delta)
        if ratio > sup_ratio:
            sup_ratio, worst = ratio, (x, r)
    return AlphaSetReport(
        sup_ratio=float(sup_ratio),
        samples_tested=sample_count,
        worst_x=(float(worst[0]),),
        worst_r=float(worst[1]),
    )


_ORACLE_GRIDS = [
    # (axes as (p, q, stage) or None for [0, 1], delta exponent, cell divisor)
    ([(1, 2, 5)], 10, 2),
    ([(2, 3, 3)], 9, 3),
    ([None], 8, 4),
    ([(1, 2, 3)], 7, 2),
    ([(2, 3, 2)], 6, 3),
    ([(1, 2, 2)], 5, 2),
    ([(1, 3, 2)], 4, 3),
]


def _oracle_grid(axes, k, div):
    sets = [
        IntervalUnion.single(0, 1) if ax is None else cantor_stage(CantorSpec(*ax[:2]), ax[2])
        for ax in axes
    ]
    delta = Fraction(1, 2**k)
    return rasterize(sets, delta, delta / div, alpha=1.0)


@pytest.mark.parametrize("axes,k,div", _ORACLE_GRIDS)
@pytest.mark.parametrize("seed", [0, 5])
def test_alpha_set_verify_matches_per_sample_reference(axes, k, div, seed):
    G = _oracle_grid(axes, k, div)
    for alpha in (0.5, 2 / 3, 1.7):
        got = alpha_set_verify(G, alpha, 400, seed=seed)
        assert got == _alpha_set_verify_reference(G, alpha, 400, seed=seed)


@pytest.mark.parametrize("axes,k,div", _ORACLE_GRIDS)
def test_ball_counts_match_reference_past_the_grid_edge(axes, k, div):
    # centers on and off the support, radii from below one cell to several
    # grid diameters, so that balls reach past every edge of the grid
    G = _oracle_grid(axes, k, div)
    rng = np.random.default_rng(k)
    lo = float(G.origin[0])
    span = G.dims[0] * float(G.cell)
    x = rng.uniform(lo - span, lo + 2 * span, size=300)
    x[:100] = G.axis_centers(0)[rng.integers(0, G.dims[0], 100)]
    r = np.exp(rng.uniform(math.log(float(G.cell) / 3), math.log(4 * span), 300))
    # radii of whole and half cells put cell centers exactly on the sphere
    r[::3] = rng.integers(1, 2 * G.dims[0], 100) * (float(G.cell) / 2)
    got = _ball_cell_counts(G, x, r)
    want = [_ball_cell_count_reference(G, float(x[s]), float(r[s])) for s in range(300)]
    assert got.tolist() == want


def test_alpha_set_verify_refuses_a_grid_of_more_than_one_axis():
    u = IntervalUnion.single(0, 1)
    for d in (2, 3):
        G = rasterize([u] * d, Fraction(1, 16), Fraction(1, 32))
        with pytest.raises(ValueError, match=f"d = {d}"):
            alpha_set_verify(G, 1.0, 10)


# ---- transform lengths -----------------------------------------------------

def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fft_length_is_the_least_5_smooth_bound():
    smooth = [n for n in range(1, 6001) if _is_5_smooth(n)]
    at = 0
    for m in range(1, 5001):
        while smooth[at] < m:
            at += 1
        assert fft_length(m) == smooth[at], m


def test_fft_length_just_past_a_power_of_two():
    assert fft_length((1 << 20) + 15) == 1_049_760 == 2**5 * 3**8 * 5
    assert fft_length((1 << 19) + 15) == 524_880
    assert fft_length(1 << 20) == 1 << 20
    with pytest.raises(ValueError):
        fft_length(0)
