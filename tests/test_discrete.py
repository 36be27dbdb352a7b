"""Discrete unit-distance counting: two independent counters and the census."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitdist import discrete
from unitdist.discrete import (
    PointSet,
    _neighbour_grid,
    _unit_neighbor_lists,
    count_unit_pairs_bruteforce,
    count_unit_pairs_grid,
    normalized_pair_count_value,
    random_general_position,
    two_circles_r4,
    unit_step_census,
)
from unitdist.geom import _near_pairs, _neighbour_stencil, _sq_dist

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_triangle_has_six_ordered_unit_pairs():
    P = PointSet(TRIANGLE)
    assert count_unit_pairs_bruteforce(P) == 6
    assert count_unit_pairs_grid(P) == 6


def test_square_has_eight_ordered_unit_pairs():
    # the two diagonals have length sqrt(2) and do not count
    P = PointSet(SQUARE)
    assert count_unit_pairs_bruteforce(P) == 8
    assert count_unit_pairs_grid(P) == 8


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3,)))  # needs an (n, d) array
    for eps in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps"):
            PointSet(TRIANGLE, eps=eps)
    # the empty set is legal and counts zero
    assert count_unit_pairs_bruteforce(PointSet(np.zeros((0, 2)))) == 0


def test_grid_counter_rejects_wide_tolerance():
    with pytest.raises(ValueError):
        count_unit_pairs_grid(PointSet(TRIANGLE, eps=0.25))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_grid_counter_matches_bruteforce(d, eps):
    rng = np.random.default_rng(100 + d)
    for trial in range(12):
        n = int(rng.integers(2, 300))
        # cluster points at unit-ish mutual distances so matches actually occur
        pts = rng.uniform(0, 2.0, size=(n, d))
        P = PointSet(pts, eps=eps)
        assert count_unit_pairs_grid(P) == count_unit_pairs_bruteforce(P)


def test_grid_counter_matches_on_lattice_points():
    # integer lattice: horizontal/vertical neighbors at exactly distance 1
    xs, ys = np.meshgrid(np.arange(7.0), np.arange(5.0))
    P = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    brute = count_unit_pairs_bruteforce(P)
    assert brute == 2 * (6 * 5 + 7 * 4)  # ordered count of grid edges
    assert count_unit_pairs_grid(P) == brute


_EDGE_EPS = [0.0, 1e-9, 1e-3, 0.099]


def _lattice(d):
    """The integer points of {-2, -1, 0, 1}^d."""
    return np.array(list(itertools.product(range(-2, 2), repeat=d)), dtype=float)


def _grid_equals_brute(pts, eps):
    P = PointSet(pts, eps=eps)
    brute = count_unit_pairs_bruteforce(P)
    grid = count_unit_pairs_grid(P)
    assert type(grid) is int  # counts go into JSON and CSV artifacts
    assert grid == brute
    return brute


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("eps", _EDGE_EPS)
def test_grid_counter_on_cell_boundaries(d, eps):
    # every coordinate a multiple of the counter's cell side, so every point
    # sits on cell boundaries, together with its copy one unit down the
    # first axis
    side = _neighbour_grid(eps)
    pts = _lattice(d) * side
    count = _grid_equals_brute(np.vstack([pts, pts - np.eye(d)[0]]), eps)
    if eps > 0:
        assert count > 0
    # on multiples of 1/sqrt(d) the all-ones step has length ~1
    count = _grid_equals_brute(_lattice(d) * (1.0 / np.sqrt(d)), eps)
    if eps > 0:
        assert count > 0
    # a slab one cell thick along the first axis, on the boundary x = 0
    slab = _lattice(d) * side
    slab[:, 0] = 0.0
    _grid_equals_brute(slab, eps)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("eps", _EDGE_EPS)
def test_grid_counter_on_negative_duplicate_and_tiny_sets(d, eps):
    # the unit pairs of the lattice are its exactly-unit axis steps; for
    # d = 1 and d = 4 the cell side divides 1 and the points are also on
    # cell boundaries
    lat = _lattice(d)
    steps = _grid_equals_brute(lat, eps)
    assert steps == 2 * d * 3 * 4 ** (d - 1)
    # duplicates sit at distance 0 from each other and repeat their steps
    assert _grid_equals_brute(np.vstack([lat, lat[::3], lat[:1]]), eps) > steps
    rng = np.random.default_rng(d)
    _grid_equals_brute(rng.uniform(-3.0, 1.0, (150, d)), eps)
    assert _grid_equals_brute(np.zeros((0, d)), eps) == 0
    assert _grid_equals_brute(np.full((1, d), -0.5), eps) == 0


def test_grid_counter_when_cell_keys_wrap():
    # A cell box 2^32 cells wide on two axes has 2^64 cells per layer of the
    # third, so its linear cell keys, taken modulo 2^64, collapse that axis.
    # The width is scanned past any padding the counter adds to the box.
    side = _neighbour_grid(1e-3)
    for k in range(1, 24):
        far = (2.0**32 - k + 0.5) * side
        pts = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [far, 0.0, 0.0], [0.0, far, 0.0]]
        )
        assert _grid_equals_brute(pts, 1e-3) == 2


def test_two_circles_quadratic_configuration():
    N = 40
    P = two_circles_r4(N, seed=0)
    assert P.points.shape == (2 * N, 4)
    count = count_unit_pairs_bruteforce(P)
    # every cross pair is a unit pair by construction (ordered: 2 N^2)
    assert count >= 2 * N * N


def test_normalized_count_matches_direct_formula():
    assert count_unit_pairs_bruteforce(PointSet(TRIANGLE)) == 6
    assert normalized_pair_count_value(6, 3, 2) == pytest.approx(
        6 / 3 ** (1 + 1 / 2)
    )


def test_census_on_triangle():
    rep = unit_step_census(PointSet(TRIANGLE))
    assert rep.n_points == 3
    assert rep.d == 2
    assert rep.edge_count == 6  # ordered unit steps
    # per vertex: 2 neighbors -> 2^2 step pairs, 2*1 with distinct endpoints
    assert rep.tuple_count == 12
    assert rep.distinct_tuple_count == 6
    assert rep.max_endpoint_fiber == 1
    # all degrees equal, so the mean-power bound is tight here
    assert rep.holder_lhs == pytest.approx(rep.tuple_count)


def test_census_on_square():
    rep = unit_step_census(PointSet(SQUARE))
    assert rep.edge_count == 8
    assert rep.tuple_count == 16
    # opposite corners see the same unordered neighbor pair
    assert rep.max_endpoint_fiber == 2


@pytest.mark.parametrize("seed", range(5))
def test_census_inequalities_on_random_sets(seed):
    P = random_general_position(60, 3, seed=seed, tol=1e-6, sample_count=300)
    rep = unit_step_census(P)
    # endpoint map is at most two-to-one in general position
    assert rep.max_endpoint_fiber <= 2
    # |G|^d / n^{d-1} never exceeds the number of realized d-tuples
    assert rep.holder_lhs <= rep.tuple_count + 1e-9
    assert rep.distinct_tuple_count <= rep.tuple_count


def test_random_general_position_is_reproducible():
    A = random_general_position(25, 2, seed=7)
    B = random_general_position(25, 2, seed=7)
    np.testing.assert_array_equal(A.points, B.points)
    C = random_general_position(25, 2, seed=8)
    assert not np.array_equal(A.points, C.points)


def test_neighbour_stencil_is_cached_read_only():
    cached = _neighbour_stencil(3)
    assert _neighbour_stencil(3) is cached
    np.testing.assert_array_equal(cached, _neighbour_stencil.__wrapped__(3))
    with pytest.raises(ValueError):
        cached[0, 0] = 7
    # counting reuses the stencil and leaves it as built
    hits = _neighbour_stencil.cache_info().hits
    pts = random_general_position(40, 3, seed=2).points
    P = PointSet(pts, eps=1e-3)
    assert count_unit_pairs_grid(P) == count_unit_pairs_bruteforce(P)
    assert _neighbour_stencil.cache_info().hits > hits
    np.testing.assert_array_equal(cached, _neighbour_stencil.__wrapped__(3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    a=st.integers(1, 40),
    b=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_sq_dist_matches_the_stacked_expression(d, a, b, seed, spread):
    # the per-axis kernel adds its terms in NumPy's order for the stacked
    # (..., d) expression, so both give the same bits
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(a, d)) * spread, rng.normal(size=(b, d)) * spread
    want = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
    got = _sq_dist(x.T[:, :, None], y.T[:, None, :])
    assert got.tobytes() == want.tobytes()
    # gathered pairs, as in the grid counter
    i, j = rng.integers(0, a, 50), rng.integers(0, b, 50)
    want = ((x[i] - y[j]) ** 2).sum(-1)
    assert _sq_dist(x.T[:, i], y.T[:, j]).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([0.0, 1e-9, 1e-3, 0.05]),
)
def test_counters_agree_in_every_dimension(d, n, seed, eps):
    # half-lattice points realize distance 1 exactly (four half steps),
    # the rest are uniform at about unit spacing
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, np.sqrt(6.0 / d), (n, d))
    pts[: n // 2] = rng.integers(0, 3, (n // 2, d)) / 2.0
    _grid_equals_brute(pts, eps)


@pytest.mark.parametrize("N", [1, 7, 40])
@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_counters_agree_on_two_circles(N, eps):
    P = two_circles_r4(N, seed=N)
    assert _grid_equals_brute(P.points, eps) >= 2 * N * N


@pytest.mark.parametrize("d", range(1, 9))
def test_grid_offset_table_is_the_neighbour_set(d):
    # the zero offset, then the lexicographically positive half of
    # {-1, 0, 1}^d in lexicographic order
    want = [
        v for v in itertools.product((-1, 0, 1), repeat=d) if next((x for x in v if x), 1) > 0
    ]
    want.sort(key=lambda v: any(v))
    table = _neighbour_stencil(d)
    assert table.shape == (1 + (3**d - 1) // 2, d)
    assert table.dtype == np.int64
    assert [tuple(r) for r in table.tolist()] == want


@pytest.mark.parametrize("side", [1.0, 0.75, 1e-3])
@pytest.mark.parametrize("n", [0, 2])
def test_near_pairs_refuses_a_band_wider_than_one_cell(side, n):
    # the stencil reaches one cell, so a band reaching side^2 could lose
    # pairs; it is refused even for an empty point array
    pts = np.zeros((n, 2))
    inside = math.nextafter(side * side, 0.0)
    assert sum(i.size for i, _ in _near_pairs(pts, side, 0.0, inside)) == n // 2
    for hi2 in (side * side, 4.0 * side * side, math.inf, math.nan):
        with pytest.raises(ValueError, match="does not fit inside cell side"):
            list(_near_pairs(pts, side, 0.0, hi2))


@pytest.mark.parametrize("d", [0, 9])
def test_near_pairs_refuses_dimensions_outside_1_to_8(d):
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"dimension {d} outside 1..8"):
            list(_near_pairs(np.zeros((n, d)), 1.0, 0.0, 0.5))


def _lattice_unit_pairs(N, d, m):
    """Ordered unit pairs of {0, ..., N-1}^d / sqrt(m): the sum over the
    integer vectors v with |v|^2 = m of prod_i (N - |v_i|)_+."""
    r = math.isqrt(m)
    total = 0
    for v in itertools.product(range(-r, r + 1), repeat=d):
        if sum(x * x for x in v) == m:
            total += math.prod(max(N - abs(x), 0) for x in v)
    return total


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 4),
    N=st.integers(1, 9),
    m=st.integers(1, 30),
)
def test_counters_equal_the_lattice_closed_form(d, N, m):
    # the neighbouring squared distances (m +- 1) / m are far outside the band
    N = min(N, (40, 14, 7, 5)[d - 1] if d > 1 else N * 4)
    grid = np.array(list(itertools.product(range(N), repeat=d)), dtype=float)
    P = PointSet(grid / math.sqrt(m), eps=1e-9)
    want = _lattice_unit_pairs(N, d, m)
    assert count_unit_pairs_bruteforce(P) == want
    assert count_unit_pairs_grid(P) == want


def _full_matrix_neighbors(P):
    """The in-band lists from the whole (n, n) distance matrix, diagonal
    excluded: the construction the triangular pass replaced."""
    cols = P.points.T
    d2 = _sq_dist(cols[:, :, None], cols[:, None, :])
    lo, hi = max(0.0, 1.0 - P.eps), 1.0 + P.eps
    dist = np.sqrt(d2)
    inband = (dist >= lo) & (dist <= hi)
    np.fill_diagonal(inband, False)
    return [np.flatnonzero(row) for row in inband]


def _full_matrix_census(monkeypatch, P):
    """The census computed from the full-matrix neighbour lists."""
    with monkeypatch.context() as m:
        m.setattr(discrete, "_unit_neighbor_lists", _full_matrix_neighbors)
        return unit_step_census(P)


def _assert_matches_full_matrix(P):
    want = _full_matrix_neighbors(P)
    got = _unit_neighbor_lists(P)
    assert len(got) == len(want) == P.n
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()
    assert count_unit_pairs_bruteforce(P) == sum(w.size for w in want)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 40, 41])
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3, 0.5, 1.0, 1.5])
def test_unordered_pass_equals_the_full_matrix(n, eps):
    # eps >= 1 puts distance 0 in the band: duplicates count, the diagonal
    # does not
    rng = np.random.default_rng(n)
    pts = rng.integers(0, 3, (n, 2)) / 2.0
    pts[n // 2 :] = rng.uniform(0.0, 2.0, (n - n // 2, 2))
    _assert_matches_full_matrix(PointSet(pts, eps=eps))


@pytest.mark.parametrize("block", [1, 2, 3, 7, 19, 64])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 30])
def test_unordered_pass_across_block_boundaries(monkeypatch, block, n):
    monkeypatch.setattr(discrete, "_BLOCK_PAIRS", block)
    pts = np.random.default_rng(block * n).integers(0, 3, (n, 3)) / 2.0
    for eps in (1e-9, 1.0):
        P = PointSet(pts, eps=eps)
        _assert_matches_full_matrix(P)
        assert unit_step_census(P) == _full_matrix_census(monkeypatch, P)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("eps", [1e-9, 1.0, 2.0])
def test_census_of_tiny_sets_equals_the_full_matrix(monkeypatch, n, eps):
    P = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])[:n], eps=eps)
    assert unit_step_census(P) == _full_matrix_census(monkeypatch, P)


def _count_three_ways(P):
    """The brute force, the grid counter and the census's edge count."""
    return (
        count_unit_pairs_bruteforce(P),
        count_unit_pairs_grid(P),
        unit_step_census(P).edge_count,
    )


def test_a_unit_pair_whose_square_rounds_up_counts_at_eps_zero():
    # |(5/13, 12/13)|^2 rounds to 1 + 2^-52, whose square root rounds to 1
    P = PointSet(np.array([[0.0, 0.0], [5 / 13, 12 / 13]]), eps=0.0)
    cols = P.points.T
    assert _sq_dist(cols[:, 0], cols[:, 1]) == 1.0000000000000002
    assert _count_three_ways(P) == (2, 2, 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    eps=st.sampled_from([0.0, 1e-9, 1e-3, 0.05]),
    upper=st.booleans(),
    ulps=st.integers(-6, 6),
    split=st.floats(0.0, 1.0),
    base=st.sampled_from([0.0, 0.5, -3.25, 7.0]),
)
def test_two_point_sets_count_the_documented_band(eps, upper, ulps, split, base):
    # a squared distance a few ulps from the square of a band edge, split
    # between two axes, decided by its float square root against the edges
    lo, hi = max(0.0, 1.0 - eps), 1.0 + eps
    s = hi * hi if upper else lo * lo
    for _ in range(abs(ulps)):
        s = math.nextafter(s, math.copysign(math.inf, ulps))
    x = math.sqrt(split * s)
    y = math.sqrt(max(0.0, s - x * x))
    P = PointSet(np.array([[base, base], [base + x, base - y]]), eps=eps)
    cols = P.points.T
    d2 = float(_sq_dist(cols[:, 0], cols[:, 1]))
    want = 2 if lo <= math.sqrt(d2) <= hi else 0
    assert _count_three_ways(P) == (want,) * 3


def _ordered_tuple_fiber(neighbors, d):
    """The largest endpoint fiber over every ordered d-tuple of distinct
    neighbours, each order counted in its own dict entry."""
    fibers = {}
    for nb in neighbors:
        for combo in itertools.permutations(nb.tolist(), d):
            fibers[combo] = fibers.get(combo, 0) + 1
    return max(fibers.values(), default=0)


def _integer_lattice(N, d, m):
    """{0, ..., N-1}^d / sqrt(m)."""
    return np.array(list(itertools.product(range(N), repeat=d)), float) / math.sqrt(m)


@pytest.mark.parametrize(
    "P, fiber",
    [
        (PointSet(_integer_lattice(60, 2, 1)), 2),
        (PointSet(_integer_lattice(5, 3, 2)), 2),
        (PointSet(_integer_lattice(4, 3, 3)), 2),
        (two_circles_r4(6, seed=0), 6),
        (PointSet(SQUARE), 2),
    ],
)
def test_endpoint_fiber_equals_the_ordered_tuple_count(P, fiber):
    # the census counts each d-set of neighbours once; every order of a
    # set has the same fiber, so the maximum is the ordered tuples' maximum
    rep = unit_step_census(P)
    assert rep.max_endpoint_fiber == _ordered_tuple_fiber(_full_matrix_neighbors(P), P.d)
    assert rep.max_endpoint_fiber == fiber
