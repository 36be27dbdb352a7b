"""Package-level acceptance gates.

One test per numbered criterion; each prints a single PASS line with the
measured quantities (visible under ``pytest -s`` / on failure) and asserts
both the stated tolerance and the wall-clock budget. These are end-to-end
checks: they call the public API only and carry their own oracles (closed
forms, mesh searches, monotonicity chains) rather than reusing anything the
implementation computed.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from unitdist.cantor import CantorSpec, cantor_stage, stage_for_scale
from unitdist.discrete import (
    PointSet,
    count_unit_pairs_bruteforce,
    count_unit_pairs_grid,
    random_general_position,
    two_circles_r4,
    unit_step_census,
)
from unitdist.geom import triple_annulus_diameter, unit_frame_batch
from unitdist.grids import alpha_set_verify, rasterize
from unitdist.incidence import annulus_intersection_area
from unitdist.scaling import (
    CantorAxis,
    IntervalAxis,
    compare_report,
    fit_exponent,
    neighborhood_measure_series,
    sweep,
    theory_bounds,
)
from unitdist.spectral import ball_convolution_l2, mollify_transform, weighted_energy

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _report(n: int, budget_s: float, elapsed: float, detail: str) -> None:
    print(f"criterion {n:2d} PASS  ({elapsed:6.2f}s / {budget_s:g}s)  {detail}")
    assert elapsed < budget_s, f"criterion {n} exceeded its {budget_s}s budget"


def test_criterion_01_exact_counts_on_closed_forms():
    tri, sq = PointSet(TRIANGLE), PointSet(SQUARE)
    # warm both code paths so the timed region measures counting, not imports
    count_unit_pairs_bruteforce(tri), count_unit_pairs_grid(tri)
    t0 = time.perf_counter()
    counts = (
        count_unit_pairs_bruteforce(tri),
        count_unit_pairs_grid(tri),
        count_unit_pairs_bruteforce(sq),
        count_unit_pairs_grid(sq),
    )
    dt = time.perf_counter() - t0
    assert counts == (6, 6, 8, 8)
    _report(1, 1e-3, dt, f"triangle 6/6, square 8/8 ordered unit pairs")


def test_criterion_02_grid_counter_equals_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    pairs_seen = 0
    for d in (2, 3, 4):
        sizes = [int(x) for x in rng.integers(50, 301, size=97)] + [2000, 1200, 600]
        for k, n in enumerate(sizes):
            P = random_general_position(n, d, seed=1000 * d + k)
            for eps in (1e-9, 1e-3):
                Q = PointSet(P.points, eps=eps, label=P.label)
                b = count_unit_pairs_bruteforce(Q)
                assert count_unit_pairs_grid(Q) == b, (d, k, eps)
                pairs_seen += b
    dt = time.perf_counter() - t0
    _report(2, 60.0, dt, f"300 sets x 2 eps agree exactly; {pairs_seen} unit pairs seen")


def test_criterion_03_two_circle_family_reaches_n_squared():
    t0 = time.perf_counter()
    P = two_circles_r4(100)
    brute = count_unit_pairs_bruteforce(P)
    grid = count_unit_pairs_grid(P)
    dt = time.perf_counter() - t0
    assert brute == grid
    assert brute >= 100 * 100
    _report(3, 1.0, dt, f"N=100 gives {brute} ordered unit pairs >= 10000")


# ---------------------------------------------------------------------------
# frame solving, criterion 4
# ---------------------------------------------------------------------------

_MESH_STEP = 1e-3
_MESH_TOL = 6 * _MESH_STEP


def _circle_hits(a_list):
    th = np.arange(0.0, 2 * np.pi, _MESH_STEP)
    mesh = np.column_stack([np.cos(th), np.sin(th)])
    ok = np.ones(mesh.shape[0], dtype=bool)
    for aj in a_list:
        ok &= np.abs(np.linalg.norm(mesh + aj[None, :], axis=1) - 1.0) < _MESH_TOL
    return mesh[ok]


def _sphere_hits_full(a_list):
    """theta/phi grid on the unit sphere at _MESH_STEP, chunked over theta."""
    th = np.arange(0.0, np.pi + _MESH_STEP, _MESH_STEP)
    ph = np.arange(0.0, 2 * np.pi, _MESH_STEP)
    cph, sph = np.cos(ph)[None, :], np.sin(ph)[None, :]
    found = []
    for i in range(0, th.size, 256):
        t = th[i : i + 256]
        st, ct = np.sin(t)[:, None], np.cos(t)[:, None]
        x, y = st * cph, st * sph
        z = np.broadcast_to(ct, x.shape)
        ok = np.ones(x.shape, dtype=bool)
        for aj in a_list:
            r2 = (x + aj[0]) ** 2 + (y + aj[1]) ** 2 + (z + aj[2]) ** 2
            ok &= np.abs(np.sqrt(r2) - 1.0) < _MESH_TOL
        ii, jj = np.nonzero(ok)
        if ii.size:
            found.append(np.column_stack([x[ii, jj], y[ii, jj], z[ii, jj]]))
    return np.concatenate(found) if found else np.empty((0, 3))


_ARC_PAD = 3  # mesh steps added on each side of a row's phi-arcs


def _sphere_hits(a_list):
    """`_sphere_hits_full`'s hits, in its order, from the mesh points near
    the phi-arcs of each theta row that the first constraint allows.

    On the unit sphere |x + a|^2 = 1 + 2 x.a + |a|^2, so the first test
    holds where x.a = s rho cos(phi - psi) + c a_z, with s, c = sin, cos of
    theta and rho, psi the polar form of (a_x, a_y), lies in (lo, hi): where
    |phi - psi| is in [arccos(u_hi), arccos(u_lo)], u = (lo, hi - c a_z) /
    (s rho). The unchanged float test runs on those two arcs widened by
    _ARC_PAD steps, which covers the rounding of u (below 1e-7 where
    s rho > 1e-9), and on the whole of the rows where s rho <= 1e-9.
    """
    th = np.arange(0.0, np.pi + _MESH_STEP, _MESH_STEP)
    ph = np.arange(0.0, 2 * np.pi, _MESH_STEP)
    st, ct, cph, sph = np.sin(th), np.cos(th), np.cos(ph), np.sin(ph)
    a = a_list[0]
    rho, psi = math.hypot(a[0], a[1]), math.atan2(a[1], a[0])
    lo, hi = (((1.0 + sign * _MESH_TOL) ** 2 - 1.0 - float(a @ a)) / 2 for sign in (-1, 1))
    arcs = st * rho > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        u_lo, u_hi = ((edge - a[2] * ct) / (st * rho) for edge in (lo, hi))
    near, far = np.arccos(np.clip(u_hi, -1.0, 1.0)), np.arccos(np.clip(u_lo, -1.0, 1.0))
    rows = np.flatnonzero(~arcs | ((u_lo < 1.0 + 1e-6) & (u_hi > -1.0 - 1e-6)))
    near, far, whole = near[rows], far[rows], ~arcs[rows]
    n = ph.size
    starts, stops = [], []
    for first, last in ((psi + near, psi + far), (psi - far, psi - near)):
        starts.append(np.where(whole, 0, np.floor(first / _MESH_STEP) - _ARC_PAD))
        stops.append(np.where(whole, n, np.ceil(last / _MESH_STEP) + _ARC_PAD + 1))
    # [start, stop) in mesh steps, moved into [0, 2n); a piece past n wraps
    start = np.concatenate(starts).astype(np.int64)
    stop = np.minimum(np.concatenate(stops).astype(np.int64), start + n)
    turn = start // n * n
    start, stop, row = start - turn, stop - turn, np.tile(rows, 2)
    wraps = stop > n
    row = np.concatenate([row, row[wraps]])
    start = np.concatenate([start, np.zeros(wraps.sum(), dtype=np.int64)])
    stop = np.concatenate([np.minimum(stop, n), stop[wraps] - n])
    # one sorted run of disjoint pieces per row, as the full mesh orders them
    order = np.lexsort((start, row))
    row = row[order]
    key_lo, key_hi = row * (n + 1) + start[order], row * (n + 1) + stop[order]
    reach = np.maximum.accumulate(key_hi)
    head = np.flatnonzero(np.concatenate([[True], key_lo[1:] > reach[:-1]]))
    tail = np.concatenate([head[1:], [key_lo.size]]) - 1
    row = row[head]
    start, count = key_lo[head] - row * (n + 1), reach[tail] - key_lo[head]
    found = []
    for k in np.array_split(np.arange(row.size), max(1, int(count.sum()) >> 20)):
        i = row[k].repeat(count[k])
        j = np.arange(count[k].sum()) + (start[k] - count[k].cumsum() + count[k]).repeat(count[k])
        x, y, z = st[i] * cph[j], st[i] * sph[j], ct[i]
        ok = np.ones(x.shape, dtype=bool)
        for aj in a_list:
            r2 = (x + aj[0]) ** 2 + (y + aj[1]) ** 2 + (z + aj[2]) ** 2
            ok &= np.abs(np.sqrt(r2) - 1.0) < _MESH_TOL
        found.append(np.column_stack([x[ok], y[ok], z[ok]]))
    return np.concatenate(found)


def test_sphere_windows_give_the_full_mesh_hits():
    # two generic frames and one whose first constraint has rho = 0, where
    # every row is evaluated whole; hits must match bit for bit
    frames = [
        [np.array([0.31, -0.22, 0.52]), np.array([-0.41, 0.13, 0.24])],
        [np.array([0.04, 0.03, -0.02]), np.array([0.05, -0.01, 0.02])],
        [np.array([0.0, 0.0, 0.7]), np.array([0.6, 0.1, -0.3])],
    ]
    for a in frames:
        want, got = _sphere_hits_full(a), _sphere_hits(a)
        assert want.shape[0] > 0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _constraint_conditioning(a, b):
    """Smallest singular value of the unit constraint normals at solution b."""
    rows = [b] + [b + aj for aj in a]
    return float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])


def test_criterion_04_frame_solver_vs_sphere_mesh():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_resid = 0.0
    max_solutions = 0
    frames_run = 0
    oracle_frames = {2: [], 3: []}
    for d in (2, 3):
        A = np.empty((50_000, d - 1, d))
        for a in A:
            scale = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            a[:] = rng.normal(size=(d - 1, d)) * scale
        count, t, b = unit_frame_batch(A)
        # a dependent frame (count -1) is skipped
        frames_run += int((count >= 0).sum())
        max_solutions = max(max_solutions, int(count.max()))
        # every row of a solution, b_1 and b_1 + a_j, is a unit step
        rows = b[np.arange(2) < count[:, None]]
        resid = np.abs(np.linalg.norm(rows, axis=-1) - 1.0)
        worst_resid = max(worst_resid, float(resid.max()))
        offset = np.abs(t[:, 0])
        for i in np.flatnonzero((count == 2) & (offset >= 0.05) & (offset <= 0.95)):
            if _constraint_conditioning(A[i], b[i, 0, 0]) >= 0.25:
                oracle_frames[d].append((A[i], b[i, :, 0]))
                if len(oracle_frames[d]) == 50:
                    break
    assert frames_run >= 99_000
    assert max_solutions <= 2
    assert worst_resid <= 1e-9
    assert len(oracle_frames[2]) == 50 and len(oracle_frames[3]) == 50

    # coarse mesh oracle: hits must localize around the returned solutions
    # (completeness) and nowhere else (no extra solution family)
    for d, search in ((2, _circle_hits), (3, _sphere_hits)):
        for a, bs in oracle_frames[d]:
            hits = search(list(a))
            assert hits.shape[0] > 0
            sigma = min(_constraint_conditioning(a, b) for b in bs)
            radius = 4 * (_MESH_TOL + _MESH_STEP) / sigma
            for b in bs:
                assert np.min(np.linalg.norm(hits - b[None, :], axis=1)) < radius
            stray = np.min(
                np.linalg.norm(hits[:, None, :] - bs[None, :, :], axis=2), axis=1
            )
            assert stray.max() < radius, f"mesh found an extra solution family (d={d})"
    dt = time.perf_counter() - t0
    _report(
        4,
        120.0,
        dt,
        f"{frames_run} frames, <=2 solutions, residual {worst_resid:.2e}; "
        "mesh localizes all hits on 100 frames",
    )


def test_criterion_05_holder_census_inequalities():
    t0 = time.perf_counter()
    edges_seen = 0
    for seed in range(50):
        P = random_general_position(200, 3, seed=seed, tol=1e-6, sample_count=300)
        rep = unit_step_census(PointSet(P.points, eps=1e-3, label=P.label))
        assert rep.holder_lhs <= rep.tuple_count + 1e-9
        assert rep.max_endpoint_fiber <= 2
        edges_seen += rep.edge_count
    dt = time.perf_counter() - t0
    _report(5, 60.0, dt, f"50 sets (d=3, n=200); {edges_seen} unit steps censused")


def test_criterion_06_covering_fit_recovers_dimension():
    t0 = time.perf_counter()
    deltas = [Fraction(1, 2**k) for k in range(4, 19)]
    dims = {}
    for p, q, expect in ((1, 2, 0.5), (1, 3, 1.0 / 3.0)):
        fit = fit_exponent(neighborhood_measure_series([CantorAxis(p, q)], deltas))
        dims[(p, q)] = 1.0 - fit.slope  # |K_delta| ~ delta^(1 - dim)
        assert dims[(p, q)] == pytest.approx(expect, abs=0.03)
    dt = time.perf_counter() - t0
    _report(
        6,
        10.0,
        dt,
        f"box dims {dims[(1, 2)]:.4f} (target 0.5) and {dims[(1, 3)]:.4f} (target 1/3)",
    )


def test_criterion_07_alpha_regularity_sup_ratio():
    t0 = time.perf_counter()
    spec = CantorSpec(1, 2)
    delta = Fraction(1, 2**12)
    U = cantor_stage(spec, stage_for_scale(spec, delta))
    G = rasterize([U], delta, delta / 2, alpha=0.5)
    rep = alpha_set_verify(G, 0.5, 10_000, seed=0)
    dt = time.perf_counter() - t0
    assert rep.sup_ratio <= 8.0
    _report(7, 30.0, dt, f"supRatio {rep.sup_ratio:.3f} <= 8 over 10^4 samples")


def test_criterion_08_planted_product_lower_bound():
    t0 = time.perf_counter()
    axes = [CantorAxis(1, 2, shift=1), CantorAxis(1, 2)]
    deltas = [Fraction(1, 2) ** (8 * n + 2) for n in (1, 2, 3)]
    series = sweep(axes, deltas, method="product")
    fit = fit_exponent(series)
    estimate = 4.0 - fit.slope
    dt = time.perf_counter() - t0
    assert 1.25 - 0.15 <= estimate <= 1.50 + 0.15
    _report(8, 120.0, dt, f"dimEstimate {estimate:.4f} in [1.10, 1.65]")


def test_criterion_09_product_with_interval_axis():
    t0 = time.perf_counter()
    axes = [CantorAxis(1, 2), IntervalAxis(0, 2)]
    deltas = [Fraction(1, 2**k) for k in range(6, 13)]
    fit = fit_exponent(sweep(axes, deltas, method="grid"))
    verdict = compare_report(fit, theory_bounds(2, 1.5))
    dt = time.perf_counter() - t0
    assert 2.0 - 0.2 <= verdict.dim_estimate <= 2.0 + 0.2
    assert verdict.within_bounds
    _report(9, 180.0, dt, f"dimEstimate {verdict.dim_estimate:.4f} in [1.8, 2.2]")


def test_criterion_10_annulus_overlap_stays_bounded():
    t0 = time.perf_counter()
    delta = 1e-3
    seps = [0.01, 0.1, 0.5, 1.0, 1.5]
    reports = [annulus_intersection_area(s, delta, width_multiplier=1.0) for s in seps]
    worst = max(r.scaled_constant for r in reports)
    areas = [r.area for r in reports]
    dt = time.perf_counter() - t0
    assert worst <= 30.0
    assert all(a >= b for a, b in zip(areas, areas[1:])), "area not non-increasing"
    _report(10, 30.0, dt, f"scaled constant <= {worst:.2f}, area non-increasing")


def test_criterion_11_ball_convolution_ratio_bounded():
    t0 = time.perf_counter()
    spec = CantorSpec(1, 2)
    delta = Fraction(1, 2**16)
    U = cantor_stage(spec, stage_for_scale(spec, delta))
    G = rasterize([U], delta, delta / 2, alpha=0.5)
    ratios = np.array(
        [ball_convolution_l2(G, 2.0**-k).ratio for k in range(1, 17)]
    )
    spread = float(ratios.max() / ratios.min())
    dt = time.perf_counter() - t0
    assert spread <= 4.0
    _report(11, 60.0, dt, f"dyadic-r ratio spread {spread:.3f} <= 4 over 16 radii")


def test_criterion_12_weighted_energy_ratio_is_flat():
    t0 = time.perf_counter()
    spec = CantorSpec(1, 2)
    rows = []
    for e in range(8, 19, 2):
        delta = Fraction(1, 2**e)
        U = cantor_stage(spec, stage_for_scale(spec, delta))
        G = rasterize([U], delta, delta / 4, alpha=0.5)
        rep = weighted_energy(mollify_transform(G))
        rows.append((float(delta), rep.ratio))
    slope = float(
        np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
    )
    dt = time.perf_counter() - t0
    assert abs(slope) <= 0.25
    _report(12, 120.0, dt, f"energy-ratio log-slope {slope:+.4f} within +-0.25")


def test_criterion_13_triple_annulus_diameter():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2013)
    done = 0
    worst = 0.0
    while done < 100:
        p1 = np.zeros(3)
        p2 = rng.uniform(-1.0, 1.0, 3)
        p3 = rng.uniform(-1.0, 1.0, 3)
        d12 = float(np.linalg.norm(p2))
        d13 = float(np.linalg.norm(p3))
        d23 = float(np.linalg.norm(p3 - p2))
        if not all(0.3 <= s <= 1.9 for s in (d12, d13, d23)):
            continue
        cross = np.cross(p2, p3)
        sin_theta = float(np.linalg.norm(cross)) / (d12 * d13)
        if sin_theta < 0.05:
            continue
        # circumradius of the three centers = in-plane offset of the
        # equidistant point; past 0.95 the intersection hugs the plane
        area2 = float(np.linalg.norm(cross))
        r0 = d12 * d13 * d23 / (2.0 * area2)
        if r0 > 0.95:
            continue
        rep = triple_annulus_diameter(p1, p2, p3, 1e-3, samples=200_000, seed=done)
        done += 1
        if rep.hit_count >= 2:
            worst = max(worst, rep.diameter_estimate / rep.predicted_bound)
    dt = time.perf_counter() - t0
    assert worst <= 1.0
    _report(
        13, 120.0, dt, f"100 admissible triples, worst diameter/bound {worst:.3f}"
    )


def test_criterion_14_dimension_bound_anchors():
    t0 = time.perf_counter()
    assert (theory_bounds(2, 1.5).lower, theory_bounds(2, 1.5).upper) == (2.0, 2.0)
    assert theory_bounds(3, 1.0).upper == 1.875
    assert (theory_bounds(5, 1.0).lower, theory_bounds(5, 1.0).upper) == (2.0, 2.0)
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        table = theory_bounds(1, alpha)
        assert table.lower == alpha and table.upper == alpha
    dt = time.perf_counter() - t0
    _report(14, 1e-3, dt, "four closed-form anchors reproduced exactly")
