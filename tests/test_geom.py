"""Unit-frame solving, general-position checks and triple-annulus geometry.

The frame solver is checked two ways: against hand-derived closed forms for
the classic equilateral configurations, and against a brute mesh search over
the unit sphere that knows nothing about the solver's linear algebra.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitdist.geom import (
    TANGENT_TOL,
    _first_bad,
    _independent_screen,
    _squared_limits,
    general_position_check,
    triple_annulus_diameter,
    unit_frame_batch,
    unit_frame_solutions,
)

SQRT3_2 = np.sqrt(3.0) / 2.0
SQRT2_2 = np.sqrt(2.0) / 2.0


def test_equilateral_pair_in_plane():
    sols = unit_frame_solutions([np.array([1.0, 0.0])])
    assert len(sols) == 2
    got = np.sort(np.array([b[0] for _, b in sols]), axis=0)
    np.testing.assert_allclose(got, [[-0.5, -SQRT3_2], [-0.5, SQRT3_2]], atol=1e-12)
    for _, b in sols:
        # b1 and b2 = b1 + a1 must both be unit steps from the origin
        assert abs(np.linalg.norm(b[0]) - 1) < 1e-12
        assert abs(np.linalg.norm(b[0] + np.array([1.0, 0.0])) - 1) < 1e-12


def test_orthogonal_pair_in_space():
    a = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    sols = unit_frame_solutions(a)
    assert len(sols) == 2
    got = np.sort(np.array([b[0] for _, b in sols]), axis=0)
    np.testing.assert_allclose(
        got, [[-0.5, -0.5, -SQRT2_2], [-0.5, -0.5, SQRT2_2]], atol=1e-12
    )
    for _, b in sols:
        for aj in a:
            assert abs(np.linalg.norm(b[0] + aj) - 1) < 1e-12


def test_tangent_configuration_has_single_solution():
    sols = unit_frame_solutions([np.array([2.0, 0.0])])
    assert len(sols) == 1
    t, b = sols[0]
    np.testing.assert_allclose(b[0], [-1.0, 0.0], atol=1e-12)
    assert t == 0.0


def test_distant_configuration_has_no_solution():
    assert unit_frame_solutions([np.array([3.0, 0.0])]) == []


def _three_call_frame_solutions(a, tol=1e-9):
    """The earlier solver, kept as the oracle: an SVD rank test, an lstsq
    center and a full SVD for the normal. Returns (t, b, normal) triples."""
    A = np.array(a, dtype=np.float64).reshape(len(a), -1) if len(a) else np.zeros((0, 1))
    if A.shape[0]:
        if np.linalg.svd(A, compute_uv=False).min() <= tol:
            raise ValueError("input vectors are linearly dependent")
        rhs = 0.5 * np.einsum("ij,ij->i", A, A)
        c0 = np.linalg.lstsq(2.0 * A, 2.0 * rhs, rcond=None)[0]
        v = np.linalg.svd(A, full_matrices=True)[2][-1]
        v = -v if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] < 0 else v
    else:
        c0, v = np.zeros(1), np.ones(1)
    r0 = float(np.linalg.norm(c0))
    if abs(r0 - 1.0) <= TANGENT_TOL:
        ts = [0.0]
    elif r0 > 1.0:
        return []
    else:
        ts = [math.sqrt(1.0 - r0 * r0), -math.sqrt(1.0 - r0 * r0)]
    return [(t, np.vstack([t * v - c0, t * v - c0 + A]), v) for t in ts]


def _assert_matches_oracle(a):
    want = _three_call_frame_solutions(a)
    got = unit_frame_solutions(a)
    assert len(got) == len(want)
    # both branches b_1 = +-t v - c0 are compared, so where t != 0 their
    # difference 2 t v pins the signed normal v
    for (t, b), (t_want, b_want, _) in zip(got, want):
        assert np.sign(t) == np.sign(t_want)
        assert abs(t - t_want) <= 1e-12
        assert np.abs(b - b_want).max() <= 1e-12
    return got


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0))
def test_frame_solver_matches_three_call_oracle(seed, scale):
    rng = np.random.default_rng(seed)
    for d in range(1, 9):
        a = rng.normal(size=(d - 1, d)) * scale
        sv = np.linalg.svd(a, compute_uv=False)
        if sv.size == 0 or sv.min() >= 1e-3 * sv.max():
            _assert_matches_oracle(a)


@pytest.mark.parametrize(
    "a, n_solutions",
    [
        ([], 2),                                       # d = 1: b_1 = +-1
        ([[2.0, 0.0]], 1),                             # tangent in the plane
        ([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]], 1),       # tangent in space
        ([[0.6, 0.0, 0.0], [0.0, 0.8, 0.0]], 2),
        ([[3.0, 0.0, 0.0], [0.0, 0.1, 0.0]], 0),
    ],
)
def test_frame_solver_matches_oracle_on_explicit_frames(a, n_solutions):
    assert len(_assert_matches_oracle(a)) == n_solutions


def test_empty_frame_is_the_one_dimensional_case():
    sols = unit_frame_solutions([])
    assert [t for t, _ in sols] == [1.0, -1.0]
    assert [b.tolist() for _, b in sols] == [[[1.0]], [[-1.0]]]


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0]],
    ],
)
def test_dependent_frames_raise_the_oracle_message(a):
    with pytest.raises(ValueError) as want:
        _three_call_frame_solutions(np.array(a))
    with pytest.raises(ValueError) as got:
        unit_frame_solutions(np.array(a))
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    lam=st.floats(-2.0, 2.0),
)
def test_affinely_independent_equals_exhaustive_check(d, seed, degenerate, lam):
    pts = np.random.default_rng(seed).normal(size=(d, d))
    degenerate = degenerate and d >= 2
    if degenerate:
        # the last point joins the line through points 0 and d-2 (for d = 2
        # it repeats point 0)
        pts[-1] = pts[0] + lam * (pts[-2] - pts[0])
    rep = general_position_check(pts, mode="exhaustive")
    # the one d-tuple is independent iff its difference vectors have full
    # rank (a single point, d = 1, vacuously)
    diffs = pts[1:] - pts[0]
    full_rank = diffs.size == 0 or np.linalg.svd(diffs, compute_uv=False).min() > 1e-9
    assert rep.ok == full_rank
    assert rep.subsets_tested == 1
    if degenerate:
        assert not rep.ok and rep.witness == tuple(range(d))


def _mesh_oracle_hits(a_list, sol, mesh, tol):
    """Mesh points on the sphere that satisfy every unit-step constraint.

    Entirely independent of the solver: just measures distances on a grid.
    """
    ok = np.abs(np.linalg.norm(mesh, axis=1) - 1.0) < tol
    for aj in a_list:
        ok &= np.abs(np.linalg.norm(mesh + aj[None, :], axis=1) - 1.0) < tol
    return mesh[ok]


def _circle_mesh(n):
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(th), np.sin(th)])


@pytest.mark.parametrize("seed", range(6))
def test_mesh_oracle_localizes_every_solution(seed):
    rng = np.random.default_rng(seed)
    # draw a random chord direction with a circumradius well inside (0, 1)
    r0 = rng.uniform(0.3, 0.9)
    th = rng.uniform(0, 2 * np.pi)
    a1 = 2 * r0 * np.array([np.cos(th), np.sin(th)])
    sols = unit_frame_solutions([a1])
    assert len(sols) == 2

    mesh = _circle_mesh(200_000)
    step = 2 * np.pi / 200_000
    tol = 4 * step
    hits = _mesh_oracle_hits([a1], None, mesh, tol)
    assert hits.size > 0
    # every solver solution is confirmed by a nearby mesh hit, and every mesh
    # hit clusters around some solver solution
    bs = np.array([b[0] for _, b in sols])
    for b in bs:
        assert np.min(np.linalg.norm(hits - b[None, :], axis=1)) < 8 * step / r0
    for hit in hits[:: max(1, hits.shape[0] // 50)]:
        assert np.min(np.linalg.norm(bs - hit[None, :], axis=1)) < 8 * step / r0


def test_general_position_random_cloud():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((40, 3))
    rep = general_position_check(pts, mode="sampled", sample_count=2000, seed=0)
    assert rep.ok
    assert rep.witness is None


def test_general_position_finds_planted_violation():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((12, 2))
    pts[7] = pts[3]  # duplicate point is degenerate in any exhaustive sweep
    rep = general_position_check(pts, mode="exhaustive")
    assert not rep.ok
    assert rep.witness is not None
    assert 3 in rep.witness and 7 in rep.witness


def _planted_duplicate(n=12, d=3):
    pts = np.random.default_rng(5).standard_normal((n, d))
    pts[7] = pts[3]
    return pts


def test_sampled_check_finds_planted_violation():
    rep = general_position_check(
        _planted_duplicate(), mode="sampled", sample_count=2000, seed=1
    )
    assert not rep.ok
    assert rep.mode == "sampled"
    assert 3 in rep.witness and 7 in rep.witness
    assert list(rep.witness) == sorted(rep.witness)


def test_sampled_check_is_seeded():
    pts = _planted_duplicate()
    a = general_position_check(pts, mode="sampled", sample_count=500, seed=4)
    b = general_position_check(pts, mode="sampled", sample_count=500, seed=4)
    assert a == b
    assert a.witness is not None


@pytest.mark.parametrize("sample_count", [1, 37, 2000])
def test_sampled_check_tests_sample_count_subsets(sample_count):
    pts = np.random.default_rng(2).standard_normal((30, 4))
    rep = general_position_check(pts, mode="sampled", sample_count=sample_count)
    assert rep.ok
    assert rep.subsets_tested == sample_count
    bad = general_position_check(
        _planted_duplicate(), mode="sampled", sample_count=sample_count, seed=1
    )
    assert bad.subsets_tested == sample_count


def test_sampled_check_with_n_equal_d():
    # one subset to draw: every row is the whole set
    rep = general_position_check(np.eye(3), mode="sampled", sample_count=50)
    assert rep.ok and rep.subsets_tested == 50
    line = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    rep = general_position_check(line, mode="sampled", sample_count=50)
    assert not rep.ok
    assert rep.witness == (0, 1, 2)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_points_on_a_line_are_in_general_position(mode):
    # in R^1 every d-subset is a single point, vacuously independent; a
    # repeated point does not change that
    pts = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 2.0])[:, None]
    rep = general_position_check(pts, mode=mode, sample_count=40)
    assert rep.ok
    assert rep.witness is None
    assert rep.subsets_tested == (6 if mode == "exhaustive" else 40)


def test_triple_annulus_diameter_obeys_prediction():
    delta = 1e-3
    a1 = np.array([0.0, 0.0, 0.0])
    a2 = np.array([1.0, 0.0, 0.0])
    a3 = np.array([0.4, 0.8, 0.0])
    rep = triple_annulus_diameter(a1, a2, a3, delta, samples=200_000, seed=2)
    assert rep.hit_count > 0
    assert rep.diameter_estimate <= rep.predicted_bound
    # prediction scale: sqrt(delta / (min separation * sin angle))
    assert rep.predicted_bound < 1.0


def test_triple_annulus_degenerate_triples_rejected():
    delta = 1e-3
    a1 = np.array([0.0, 0.0, 0.0])
    a2 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        # collinear centers never localize the intersection
        triple_annulus_diameter(a1, a2, np.array([2.0, 0.0, 0.0]), delta)
    with pytest.raises(ValueError):
        triple_annulus_diameter(a1, a2, a2, delta)


def _svd_first_bad(pts, combos, tol=1e-9):
    """SVD-only oracle for `_first_bad`: the first tuple whose difference
    matrix has smallest singular value <= tol."""
    sub = pts[combos]
    sv = np.linalg.svd(sub[:, 1:] - sub[:, :1], compute_uv=False)
    bad = np.flatnonzero(sv.min(axis=1, initial=np.inf) <= tol)
    return tuple(int(i) for i in combos[bad[0]]) if bad.size else None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "collinear", "coplanar", "repeated"]),
    shift_exp=st.sampled_from([None, -12, -11, -10, -9, -8, -7, -6]),
)
def test_screened_check_finds_the_svd_witness(d, seed, kind, shift_exp):
    # three points on a line, or four on a plane, or a repeated point, then
    # everything moved by 10^shift_exp (or not at all)
    rng = np.random.default_rng(seed)
    n = d + 5
    pts = rng.uniform(0.0, 3.0, (n, d))
    i = rng.permutation(n)
    if kind == "collinear":
        pts[i[2]] = pts[i[0]] + rng.uniform(-2, 2) * (pts[i[1]] - pts[i[0]])
    elif kind == "coplanar":
        lam = rng.uniform(-2, 2, 2)
        pts[i[3]] = pts[i[0]] + lam @ (pts[i[1:3]] - pts[i[0]])
    elif kind == "repeated":
        pts[i[1]] = pts[i[0]]
    if shift_exp is not None:
        pts += rng.normal(size=pts.shape) * 10.0**shift_exp
    combos = np.array(list(itertools.combinations(range(n), d)))
    assert _first_bad(pts, combos, 1e-9) == _svd_first_bad(pts, combos)
    rng.shuffle(combos)
    assert _first_bad(pts, combos, 1e-9) == _svd_first_bad(pts, combos)


@pytest.mark.parametrize("d", range(2, 9))
def test_tuples_near_the_threshold_reach_the_svd(d):
    # the difference rows sigma e_1, e_2, ..., e_{d-1} have smallest singular
    # value sigma; for d <= 3 the screen's bound is sigma up to rounding
    tol = 1e-9
    pts = np.vstack([np.zeros(d), np.eye(d)[: d - 1]])
    combo = np.arange(d)[None]
    for sigma in (tol * (1 + 2.0**-31), tol * (1 - 2.0**-31), tol):
        pts[1, 0] = sigma
        # within the screen's margin of tol: the SVD decides
        assert not _independent_screen(pts, combo, tol)[0]
        want = None if sigma > tol else (tuple(range(d)))
        assert _first_bad(pts, combo, tol) == want == _svd_first_bad(pts, combo, tol)
    # past the margin m (tol + m |D|_F) the bound alone decides, for d <= 3
    pts[1, 0] = 2.0 * (tol + 2.0**-30)
    assert _independent_screen(pts, combo, tol)[0] == (d <= 3)
    pts[1, 0] = 0.5
    assert _independent_screen(pts, combo, tol)[0]


def _mixed_stack(d, rng):
    """Frames in R^d with two solutions, one (tangent), none, and a
    dependent one, then random frames."""
    frames = [np.eye(d)[: d - 1] * 0.6]
    # circumcenter e_1 at distance 1: the steps 2 e_1 and e_1 + e_k
    tangent = np.eye(d)[: d - 1].copy()
    tangent[:, 0] = 1.0
    tangent[0, 0] = 2.0
    frames.append(tangent)
    frames.append(np.eye(d)[: d - 1] * 3.0)
    dep = np.zeros((d - 1, d))
    dep[:, 0] = np.arange(1, d) * (d > 2)  # parallel steps, or a zero step
    frames.append(dep)
    frames += [rng.normal(size=(d - 1, d)) * s for s in (0.1, 0.6, 1.5, 2.5)]
    return np.stack(frames)


@pytest.mark.parametrize("d", range(1, 9))
def test_frame_batch_equals_frame_by_frame(d):
    # d = 1 has one frame, the empty one, given to the view as []
    A = _mixed_stack(d, np.random.default_rng(d)) if d > 1 else np.zeros((2, 0, 1))
    got = unit_frame_batch(A)
    for a, k, t, b in zip(A, *got):
        assert np.isnan(t[max(k, 0) :]).all() and np.isnan(b[max(k, 0) :]).all()
        if k < 0:
            with pytest.raises(ValueError, match="^input vectors are linearly dependent$"):
                unit_frame_solutions(a)
            continue
        sols = unit_frame_solutions(a if d > 1 else [])
        assert len(sols) == k
        # bit for bit: the view is the batch's row
        assert np.array([tk for tk, _ in sols]).tobytes() == t[:k].tobytes()
        assert np.array([bk for _, bk in sols]).reshape(k, d, d).tobytes() == b[:k].tobytes()
    # the stack has every case: dependent, none, tangent, two solutions
    assert set(got.count.tolist()) == ({-1, 0, 1, 2} if d > 1 else {2})


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 0.0, 0.0]],                      # one step in R^3, which needs two
        [[0.5, 0.0], [0.0, 0.5]],               # two steps in R^2, which needs one
        np.eye(9)[:8] * 0.5,                    # d = 9
        [[np.nan, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0]],          # ragged
        [0.5, 0.0],                             # a vector, not a list of vectors
    ],
)
def test_frame_view_refuses_malformed_frames(a):
    with pytest.raises(ValueError) as err:
        unit_frame_solutions(a)
    assert str(err.value) != "input vectors are linearly dependent"


def test_frame_batch_validates_its_stack():
    for bad in (np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((1, 8, 9))):
        with pytest.raises(ValueError):
            unit_frame_batch(bad)
    with pytest.raises(ValueError):
        unit_frame_batch(np.full((1, 1, 2), np.nan))
    assert unit_frame_batch(np.zeros((0, 2, 3))).b.shape == (0, 2, 3, 3)


@pytest.mark.parametrize(
    "lo, hi", [(1 - 6e-3, 1 + 6e-3), (0.3, 0.30000000000000004), (2.5, 7.0)]
)
def test_squared_limits_decide_like_the_square_root(lo, hi):
    lo2, hi2 = _squared_limits(lo, hi)
    for end in (lo * lo, hi * hi):
        s = end
        for _ in range(40):
            s = math.nextafter(s, 0.0)
        for _ in range(80):
            assert (lo2 <= s <= hi2) == (lo <= math.sqrt(s) <= hi)
            s = math.nextafter(s, math.inf)


def _floyd_rows(n, d, sample_count, seed):
    """The sampled mode's tuples as first built: Floyd's columns against an
    (m, k) comparison of the earlier ones, then a row sort."""
    rng = np.random.default_rng(seed)
    combos = np.empty((sample_count, d), dtype=np.intp)
    for k, j in enumerate(range(n - d, n)):
        t = rng.integers(0, j + 1, size=sample_count)
        taken = (combos[:, :k] == t[:, None]).any(axis=1)
        combos[:, k] = np.where(taken, j, t)
    combos.sort(axis=1)
    return combos


def _oracle_report(pts, tol, mode, sample_count, seed):
    """(ok, witness, subsets_tested) from the first-built tuples and the
    SVD alone, in blocks of 65536 exhaustive tuples."""
    n, d = pts.shape
    if n < d:
        return True, None, 0
    if mode == "sampled":
        bad = _svd_first_bad(pts, _floyd_rows(n, d, sample_count, seed), tol)
        return bad is None, bad, sample_count
    combos = np.array(list(itertools.combinations(range(n), d)), dtype=np.intp)
    for end in range(65536, combos.shape[0] + 65536, 65536):
        bad = _svd_first_bad(pts, combos[end - 65536 : end], tol)
        if bad is not None:
            return False, bad, min(end, combos.shape[0])
    return True, None, combos.shape[0]


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("sample_count", [1, 10_000])
def test_sampled_tuples_equal_the_first_built_draws(monkeypatch, d, sample_count):
    import unitdist.geom as geom

    drawn = []
    first_bad = geom._first_bad

    def record(pts, combos, tol):
        drawn.append(np.array(combos))
        return first_bad(pts, combos, tol)

    monkeypatch.setattr(geom, "_first_bad", record)
    for n in (d, d + 1, 3 * d, 200):
        pts = np.random.default_rng(n).normal(size=(n, d))
        general_position_check(pts, mode="sampled", sample_count=sample_count, seed=n + d)
        want = _floyd_rows(n, d, sample_count, n + d)
        assert drawn.pop().tolist() == want.tolist()


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("kind", ["random", "duplicate", "collinear", "flat", "grid"])
def test_reports_equal_the_svd_oracle_on_degenerate_sets(d, kind):
    rng = np.random.default_rng(d)
    n = 3 * d + 4
    pts = rng.uniform(0.0, 3.0, (n, d))
    if kind == "duplicate":
        pts[n - 2] = pts[1]
    elif kind == "collinear":
        pts[n // 2] = pts[0] + 0.3 * (pts[1] - pts[0])
    elif kind == "flat":
        pts[:, -1] = 0.0  # every point in one hyperplane
    elif kind == "grid":
        pts = rng.integers(0, 2, (n, d)).astype(float)
    for mode, sample_count, seed in (
        ("exhaustive", 0, 0),
        ("sampled", 1, 3),
        ("sampled", 400, 5),
        ("sampled", 10_000, 7),
    ):
        for tol in (1e-9, 1e-3):
            rep = general_position_check(pts, tol, mode, sample_count, seed)
            want = _oracle_report(pts, tol, mode, sample_count, seed)
            assert (rep.ok, rep.witness, rep.subsets_tested) == want
