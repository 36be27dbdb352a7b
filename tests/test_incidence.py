"""Annulus overlap areas, separated nets, and the cell-incidence census."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unitdist.cantor import CantorSpec, cantor_stage
from unitdist.grids import rasterize
from unitdist.incidence import (
    annulus_intersection_area,
    incidence_census,
    section_histogram,
    section_measures,
    separated_subset,
)
from unitdist.intervals import IntervalUnion


def test_concentric_overlap_is_the_full_annulus():
    delta = 1e-3
    got = annulus_intersection_area(0.0, delta)
    # width multiplier 2: band 1 +- 2delta, area pi((1+2d)^2 - (1-2d)^2) = 8 pi d
    assert got.area == pytest.approx(8 * math.pi * delta, rel=1e-12)
    assert got.separation == 0.0


def _mc_overlap_area(s, delta, w, n, seed):
    """Rejection-sample the intersection area of two annuli at separation s."""
    rng = np.random.default_rng(seed)
    lo, hi = 1 - w * delta, 1 + w * delta
    # bounding box of the first annulus
    pts = rng.uniform(-hi, hi, size=(n, 2))
    r1 = np.hypot(pts[:, 0], pts[:, 1])
    r2 = np.hypot(pts[:, 0] - s, pts[:, 1])
    inside = (r1 >= lo) & (r1 <= hi) & (r2 >= lo) & (r2 <= hi)
    frac = inside.mean()
    box = (2 * hi) ** 2
    return frac * box, box * math.sqrt(frac * (1 - frac) / n)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.8, 1.4])
def test_overlap_area_against_monte_carlo(s):
    delta = 2e-3
    got = annulus_intersection_area(s, delta)
    est, se = _mc_overlap_area(s, delta, 2.0, 2_000_000, seed=int(s * 100))
    assert abs(got.area - est) < 6 * se + 1e-12


def test_overlap_area_vanishes_beyond_reach():
    delta = 1e-3
    assert annulus_intersection_area(2.5, delta).area == 0.0


def test_scaled_constant_bound_at_unit_width():
    # (delta + s) |A_1(x) cap A_1(y)| / delta^2 stays below 30 across scales
    for s in (0.01, 0.1, 0.5, 1.0, 1.5):
        for delta in (1e-2, 1e-3, 1e-4):
            got = annulus_intersection_area(s, delta, width_multiplier=1.0)
            assert got.scaled_constant <= 30.0, (s, delta)


def test_raw_area_non_increasing_in_separation():
    # non-increasing on the probe chain; the trend genuinely reverses close
    # to tangency (s -> 2), which stays outside this range
    delta = 1e-3
    seps = [0.01, 0.1, 0.5, 1.0, 1.5]
    areas = [
        annulus_intersection_area(s, delta, width_multiplier=1.0).area for s in seps
    ]
    assert all(a >= b - 1e-15 for a, b in zip(areas, areas[1:]))


def test_overlap_rejects_bad_parameters():
    with pytest.raises(ValueError):
        annulus_intersection_area(-0.1, 1e-3)
    with pytest.raises(ValueError):
        annulus_intersection_area(0.5, 0.0)
    with pytest.raises(ValueError):
        annulus_intersection_area(0.5, 0.6)  # band floor would go negative


# ---- separated subsets -----------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_separated_subset_is_separated_and_maximal(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(500, 2))
    r = 0.07
    idx = separated_subset(pts, r)
    chosen = pts[idx]
    if chosen.shape[0] > 1:
        dd = np.linalg.norm(chosen[:, None, :] - chosen[None, :, :], axis=-1)
        np.fill_diagonal(dd, np.inf)
        assert dd.min() >= r
    # maximality: every input point is within r of some chosen point
    dist_to_net = np.min(
        np.linalg.norm(pts[:, None, :] - chosen[None, :, :], axis=-1), axis=1
    )
    assert dist_to_net.max() < r


def test_separated_subset_greedy_row_order():
    pts = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 0.0]])
    idx = separated_subset(pts, 0.1)
    assert list(idx) == [0, 2]  # first point always wins its neighborhood


def _greedy_net_oracle(pts, r):
    """Greedy r-separated subset in row order, each point tested against
    every kept one with the same squared-distance comparison; the squares
    are added as the package's distance kernel adds them."""
    kept = []
    for i in range(pts.shape[0]):
        if not (((pts[kept] - pts[i]) ** 2).sum(-1) < r * r).any():
            kept.append(i)
    return kept


@st.composite
def _net_cases(draw):
    """(points, r): random floats of either sign, or dyadic lattice points
    with a pair at exactly distance r, with duplicated rows mixed in."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        coord = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
        rows = [draw(st.tuples(*[coord] * d)) for _ in range(n)]
        r = draw(st.floats(0.05, 2.0))
    else:
        coord = st.integers(-16, 16).map(lambda k: k / 8)
        rows = [draw(st.tuples(*[coord] * d)) for _ in range(n)]
        r = draw(st.sampled_from([0.125, 0.25, 0.5, 0.625, 1.5]))
        if rows:
            # a partner at distance exactly r, which must not count as near
            base = draw(st.sampled_from(rows))
            if d >= 2 and r == 0.625 and draw(st.booleans()):
                step = (0.375, 0.5) + (0.0,) * (d - 2)  # 3-4-5 in eighths
            else:
                step = tuple(r * (a == 0) for a in range(d))
            rows.append(tuple(b + s for b, s in zip(base, step)))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
        rows = draw(st.permutations(rows))
    return np.array(rows, dtype=np.float64).reshape(len(rows), d), r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_net_cases())
@example((np.zeros((0, 2)), 0.5))
@example((np.zeros((0, 3)), 1.0))
@example((np.array([[0.0, -0.25], [0.25, -0.25], [0.125, 0.0]]), 0.25))
# r * r equals the squares added as (s0 + s2) + s1, but s0 + s1 + s2 is
# below it: the pair is closer than r, so only the first point is kept
@example(
    (
        np.array(
            [
                [-0.5289670853876571, -0.3604306913634274, 0.5997590521099068],
                [0.014136277846782619, 0.012770002843141892, -0.527611743208273],
            ]
        ),
        1.3058349556698083,
    )
)
def test_separated_subset_matches_greedy_oracle(case):
    pts, r = case
    got = separated_subset(pts, r)
    assert got.dtype == np.int64
    assert got.tolist() == _greedy_net_oracle(pts, r)


def test_separated_subset_when_cube_keys_wrap():
    # The far points put the cube box (cubes of side 0.5) about 2^32 cubes
    # wide on two axes, so its linear cube keys wrap modulo 2^64; the scan
    # passes the padding, so at one width a layer of the third axis holds
    # exactly 2^64 cubes and the whole axis collapses to one key.
    for k in range(1, 8):
        far = (2.0**32 - k + 0.5) * 0.5
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.25],
                [far, 0.0, 0.0],
                [0.0, far, 0.0],
                [far, 0.0, 0.25],
                [0.1, 0.1, 0.6],
                [0.0, 0.0, 3.0],
            ]
        )
        got = separated_subset(pts, 0.5)
        assert got.tolist() == _greedy_net_oracle(pts, 0.5)
        assert got.tolist() == [0, 2, 3, 5, 6]


# ---- section measures ------------------------------------------------------

def _cross_grid(delta, cell):
    A = cantor_stage(CantorSpec(1, 2), 3)
    return rasterize([A, A], delta, cell, alpha=1.0)


def test_section_measures_match_direct_count():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 128))
    lam = section_measures(G)
    mask = G.dense_mask()
    assert lam.shape == mask.shape
    # oracle: per occupied cell, count occupied cells in the distance band
    centers = [G.axis_centers(ax) for ax in range(2)]
    xs, ys = np.meshgrid(centers[0], centers[1], indexing="ij")
    occ = np.column_stack([xs[mask], ys[mask]])
    d = float(G.delta)
    cell_area = float(G.cell) ** 2
    probe = np.argwhere(mask)[::37]  # spot-check a stride of cells
    for i, j in probe:
        c = np.array([centers[0][i], centers[1][j]])
        dist = np.linalg.norm(occ - c[None, :], axis=1)
        expect = ((dist >= 1 - 2 * d) & (dist <= 1 + 2 * d)).sum() * cell_area
        assert lam[i, j] == pytest.approx(expect, abs=cell_area * 1.5), (i, j)


def test_section_measures_zero_off_support():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 128))
    lam = section_measures(G)
    assert (lam[~G.dense_mask()] == 0).all()


def test_section_measures_refuse_a_noisy_fft(monkeypatch):
    # a shell count 0.3 from its integer is a wrong count, not one to round
    import unitdist.incidence as incidence

    exact = incidence._fft_convolve_same
    monkeypatch.setattr(
        incidence, "_fft_convolve_same", lambda mask, kernel: exact(mask, kernel) + 0.3
    )
    with pytest.raises(FloatingPointError):
        section_measures(_cross_grid(Fraction(1, 64), Fraction(1, 128)))


def test_section_histogram_dyadic_ladder():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 128))
    hist = section_histogram(G)
    d = float(G.delta)
    # bins span [delta^d, max]: no more than 4 log2(1/delta) of them
    assert len(hist.edges) - 1 <= 4 * math.log2(1 / d)
    assert hist.edges[0] >= d**2 / 2
    # every occupied cell lands in exactly one bin or below the floor e_0
    lam = section_measures(G)
    vals = lam[G.dense_mask()]
    assert np.array_equal(hist.values, vals)
    assert hist.counts.sum() == (vals >= hist.edges[0]).sum()


def test_top_threshold_is_attained():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 128))
    hist = section_histogram(G)
    lam = section_measures(G)
    thr = hist.top_threshold()
    assert (lam >= thr).any()
    assert thr <= lam.max()


# ---- incidence census ------------------------------------------------------

def test_census_counts_and_separations():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 256))
    hist = section_histogram(G)
    census = incidence_census(hist, lam=hist.top_threshold())
    d = float(G.delta)

    # J is delta-separated
    J = census.j_points
    if J.shape[0] > 1:
        dd = np.linalg.norm(J[:, None, :] - J[None, :, :], axis=-1)
        np.fill_diagonal(dd, np.inf)
        assert dd.min() >= d
    # heavy centers are 2 delta-separated
    C = census.centers
    if C.shape[0] > 1:
        dd = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
        np.fill_diagonal(dd, np.inf)
        assert dd.min() >= 2 * d

    assert census.section_sizes.shape[0] == C.shape[0]
    assert census.lam == hist.top_threshold()
    assert census.delta == d

    # oracle for the section sizes: direct band count around each center
    for k in range(min(5, C.shape[0])):
        band = np.abs(np.linalg.norm(J - C[k][None, :], axis=1) - 1.0) <= 3 * d
        assert census.section_sizes[k] == band.sum()

    # ordered pair count can be reproduced from the fiber structure
    assert census.tuple_count >= 0
    assert census.max_projection_fiber >= 0
    if census.tuple_count > 0:
        assert census.max_projection_fiber >= 1


def test_census_threshold_scales_with_lam():
    G = _cross_grid(Fraction(1, 64), Fraction(1, 256))
    hist = section_histogram(G)
    a = incidence_census(hist, lam=1e-4)
    b = incidence_census(hist, lam=4e-4)
    # threshold ~ c (lam / delta^{d-alpha})^{1/alpha}: monotone in lam
    assert b.separation_threshold > a.separation_threshold


def test_census_requires_finite_alpha():
    A = cantor_stage(CantorSpec(1, 2), 3)
    G = rasterize([A, A], Fraction(1, 64), Fraction(1, 256))  # alpha defaults to nan
    with pytest.raises(ValueError):
        incidence_census(section_histogram(G), lam=1e-4)


def _census_dict_oracle(census, d):
    """Tuple count and largest projection fiber of the census, recounted
    with a dict of index tuples over the census's own net and centers."""
    J, delta = census.j_points, census.delta
    thr2 = census.separation_threshold**2
    total, fibers = 0, {}
    for ctr in census.centers:
        dist = np.linalg.norm(J - ctr, axis=1)
        sel = np.flatnonzero((dist >= 1.0 - 3 * delta) & (dist <= 1.0 + 3 * delta))
        diff = J[sel][:, None, :] - J[sel][None, :, :]
        far = (diff * diff).sum(axis=-1) >= thr2
        np.fill_diagonal(far, False)
        m = sel.size
        for i in range(m):
            for j in range(i + 1, m):
                if not far[i, j]:
                    continue
                if d == 2:
                    tuples = [(sel[i], sel[j])]
                else:
                    tuples = [
                        (sel[i], sel[j], sel[k])
                        for k in range(j + 1, m)
                        if far[i, k] and far[j, k]
                    ]
                for key in tuples:
                    fibers[key] = fibers.get(key, 0) + 1
                total += len(tuples) * (2 if d == 2 else 6)
    return total, max(fibers.values(), default=0)


@pytest.mark.parametrize(
    "axes,k,c",
    [
        ([(1, 2, 3), (1, 2, 3)], 5, 0.1),
        ([(2, 3, 3), (1, 3, 3)], 5, 0.05),
        ([(1, 3, 3), (1, 3, 3), (1, 3, 3)], 3, 0.08),
        ([(1, 3, 3), (1, 3, 2), (1, 3, 3)], 3, 0.09),
    ],
)
def test_census_tuples_and_fibers_match_dict_oracle(axes, k, c):
    delta = Fraction(1, 2**k)
    sets = [cantor_stage(CantorSpec(p, q), s) for p, q, s in axes]
    G = rasterize(sets, delta, delta / 2, alpha=sum(p / q for p, q, _ in axes))
    hist = section_histogram(G)
    census = incidence_census(hist, hist.top_threshold(), c=c)
    assert census.tuple_count > 0
    want = _census_dict_oracle(census, G.d)
    assert (census.tuple_count, census.max_projection_fiber) == want
