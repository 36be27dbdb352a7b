"""Scale sweeps, exponent fits, and the dimension-bound tables."""

import math
from fractions import Fraction

import numpy as np
import pytest

import unitdist.measure
from unitdist.scaling import (
    Bound,
    BoundTable,
    CantorAxis,
    ExponentFit,
    IntervalAxis,
    PointsAxis,
    ScaleSample,
    ScalingSeries,
    compare_report,
    fit_exponent,
    neighborhood_measure_series,
    sweep,
    theory_bounds,
    verdict_table,
)


# ---- axes ------------------------------------------------------------------

def test_axis_dimensions():
    assert CantorAxis(1, 2).dimension == 0.5
    assert CantorAxis(1, 3).dimension == pytest.approx(1 / 3)
    assert IntervalAxis(0, 2).dimension == 1.0
    assert PointsAxis((0, 1)).dimension == 0.0


def test_cantor_axis_at_scale_matches_stage_construction():
    ax = CantorAxis(1, 2)
    at = ax.at_scale(Fraction(1, 64))
    assert at.n_intervals == 8  # stage 3
    assert at.intervals[0][0] == 0


def test_shifted_cantor_axis():
    ax = CantorAxis(1, 2, shift=1)
    at = ax.at_scale(Fraction(1, 16))
    # union of the set and its translate by 1
    assert at.span == (Fraction(0), Fraction(2))


# ---- series and fits ---------------------------------------------------------

def test_series_validation():
    good = ScalingSeries(
        samples=(
            ScaleSample(0.25, 1.0, 0.9, 1.1),
            ScaleSample(0.125, 0.5, 0.45, 0.55),
        )
    )
    assert len(good.samples) == 2
    with pytest.raises(ValueError):
        ScalingSeries(samples=(ScaleSample(0.25, 1.0, 1.05, 1.1),))  # value below low
    with pytest.raises(ValueError, match="outside its own bracket"):
        # deep samples are far below any absolute slack: the check is exact
        ScalingSeries(samples=(ScaleSample(0.25, 1e-19, 2e-19, 3e-19),))
    with pytest.raises(ValueError):
        ScalingSeries(
            samples=(
                ScaleSample(0.125, 1.0, 0.9, 1.1),
                ScaleSample(0.25, 1.0, 0.9, 1.1),  # deltas must decrease
            )
        )


def test_fit_exponent_recovers_planted_power_law():
    deltas = [2.0**-k for k in range(3, 12)]
    c, slope = 0.7, 1.75
    samples = tuple(
        ScaleSample(d, c * d**slope, c * d**slope, c * d**slope) for d in deltas
    )
    fit = fit_exponent(ScalingSeries(samples=samples))
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(c, rel=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_exponent_constant_series_is_flat():
    deltas = [2.0**-k for k in range(2, 8)]
    samples = tuple(ScaleSample(d, 3.25, 3.25, 3.25) for d in deltas)
    fit = fit_exponent(ScalingSeries(samples=samples))
    assert fit.slope == pytest.approx(0.0, abs=1e-13)


def test_fit_exponent_drops_coarse_transient():
    # the coarsest sample is off the power law; it is dropped from four
    # samples on, and kept (so the slope moves) below four
    deltas = [2.0**-k for k in range(2, 9)]
    vals = [d**2 for d in deltas]
    vals[0] *= 5.0
    samples = tuple(ScaleSample(d, v, v, v) for d, v in zip(deltas, vals))
    for n in range(4, len(samples) + 1):
        fit = fit_exponent(ScalingSeries(samples=samples[:n]))
        assert fit.n_points == n - 1
        assert abs(fit.slope - 2.0) < 1e-12
    for n in (2, 3):
        fit = fit_exponent(ScalingSeries(samples=samples[:n]))
        assert fit.n_points == n
        assert abs(fit.slope - 2.0) > 0.05


def test_fit_needs_two_points():
    # fewer than four samples are all kept, and a fit needs two
    with pytest.raises(ValueError, match="two samples"):
        fit_exponent(ScalingSeries(samples=(ScaleSample(0.5, 1.0, 1.0, 1.0),)))
    with pytest.raises(ValueError, match="two samples"):
        fit_exponent(ScalingSeries(samples=()))


# ---- neighborhood covering series --------------------------------------------

@pytest.mark.parametrize(
    "p,q,expect", [(1, 2, 0.5), (1, 3, 1 / 3), (2, 3, 2 / 3)]
)
def test_covering_series_recovers_box_dimension(p, q, expect):
    deltas = [Fraction(1, 2**k) for k in range(4, 19, 2)]
    series = neighborhood_measure_series([CantorAxis(p, q)], deltas)
    fit = fit_exponent(series)
    # |K_delta| ~ delta^{1-dim}: dimension = 1 - slope
    assert 1 - fit.slope == pytest.approx(expect, abs=0.03)


def test_covering_series_interval_axis_is_exact():
    deltas = [Fraction(1, 2**k) for k in range(3, 10)]
    series = neighborhood_measure_series([IntervalAxis(0, 1)], deltas)
    for s in series.samples:
        assert s.value == pytest.approx(1 + 2 * s.delta, rel=1e-12)


# ---- sweeps ------------------------------------------------------------------

def test_grid_sweep_bracket_contains_value():
    axes = [CantorAxis(1, 2), IntervalAxis(0, 1)]
    deltas = [Fraction(1, 2**k) for k in (6, 8, 10)]
    series = sweep(axes, deltas, method="grid")
    assert len(series.samples) == 3
    for s in series.samples:
        assert s.low <= s.value <= s.high
        assert s.low > 0


def test_dense_product_sweep_independent_of_transform_length(monkeypatch):
    # the dense route rounds its lattice correlograms to exact overlap
    # counts, so power-of-two and 5-smooth transforms give the same bits
    axes = [CantorAxis(1, 2, shift=1), CantorAxis(1, 2)]
    deltas = [Fraction(1, 2**k) for k in range(6, 17)]
    want = sweep(axes, deltas, method="product")
    monkeypatch.setattr(unitdist.measure, "fft_length", lambda m: 1 << m.bit_length())
    assert sweep(axes, deltas, method="product") == want


def test_product_sweep_matches_grid_window():
    axes = [CantorAxis(1, 2, shift=1), CantorAxis(1, 2)]
    deltas = [Fraction(1, 2**k) for k in (8, 10)]
    grid = sweep(axes, deltas, method="grid")
    prod = sweep(axes, deltas, method="product")
    for g, p in zip(grid.samples, prod.samples):
        assert g.low * 0.9 <= p.value <= g.high * 1.1


def _exact_band_mass(U, lo, hi):
    """|{(x, y) in U x U : lo <= |x - y| <= hi}|, summed block pair by block
    pair in integers over the lattice 1/L of the endpoints and edges. For
    blocks [a, b] x [c, e], twice the mass of x - y <= t is 0 if t <= a - e,
    2 (b - a)(e - c) if t >= b - c, and otherwise
    Q(e + t - a) - Q(e + t - b) - Q(c + t - a) + Q(c + t - b), Q(z) = max(z, 0)^2."""
    L = math.lcm(U.den, lo.denominator, hi.denominator)
    blocks = [(int(a * L), int(b * L)) for a, b in U.intervals]
    edges = [(int(t * L), sign) for t, sign in ((hi, 1), (lo, -1), (-lo, 1), (-hi, -1))]

    def Q(z):
        return z * z if z > 0 else 0

    twice = 0
    for a, b in blocks:
        for c, e in blocks:
            for t, sign in edges:
                if t >= b - c:
                    twice += sign * 2 * (b - a) * (e - c)
                elif t > a - e:
                    twice += sign * (Q(e + t - a) - Q(e + t - b) - Q(c + t - a) + Q(c + t - b))
    return Fraction(twice, 2 * L * L)


@pytest.mark.parametrize("k", [6, 7, 10, 13])
def test_one_axis_product_row_brackets_the_exact_band_mass(k):
    # C(2, 3) + 1 at delta = 2^-k fattens to 7 blocks at k = 6, 31 at k = 7;
    # at k = 7, 10 and 13 the float sum once used here missed the exact mass
    ax, delta = CantorAxis(2, 3, shift=1), Fraction(1, 2**k)
    (row,) = sweep([ax], [delta], method="product", width_multiplier=2.5).samples
    w = 2.5 * float(delta)
    U = ax.at_scale(delta).neighborhood(delta)
    exact = _exact_band_mass(U, Fraction(1.0 - w), Fraction(1.0 + w))
    assert row.value == float(exact)
    assert Fraction(row.low) <= exact <= Fraction(row.high)
    # equal floats, or adjacent ones
    assert row.high in (row.low, np.nextafter(row.low, np.inf))


def test_one_axis_product_row_takes_a_negative_lower_edge_as_0():
    # at delta = 1/2, w = 2.5 the band 1 +- 5/4 reaches below 0
    ax, delta = CantorAxis(1, 2, shift=1), Fraction(1, 2)
    (row,) = sweep([ax], [delta], method="product", width_multiplier=2.5).samples
    U = ax.at_scale(delta).neighborhood(delta)
    assert _exact_band_mass(U, Fraction(0), Fraction(9, 4)) == Fraction(135, 16)
    assert row.low == row.value == row.high == 135 / 16
    (grid,) = sweep([ax], [delta], method="grid", width_multiplier=2.5).samples
    assert (grid.low, grid.high) == (7.0, 8.875)
    assert grid.low <= row.value <= grid.high


def test_sweep_error_names_the_scale():
    axes = [CantorAxis(1, 2), CantorAxis(1, 2), CantorAxis(1, 2)]
    with pytest.raises(ValueError, match="at delta=6.10352e-05: "):
        # the product route measures one or two axes only
        sweep(axes, [Fraction(1, 1 << 14)], method="product")


# ---- bound tables --------------------------------------------------------------

def test_theory_bounds_known_anchors():
    assert theory_bounds(2, 1.5).upper == pytest.approx(2.0)
    assert theory_bounds(2, 1.5).lower == pytest.approx(2.0)
    assert theory_bounds(3, 1.0).upper == pytest.approx(1.875)
    assert theory_bounds(5, 1.0).upper == pytest.approx(2.0)
    assert theory_bounds(5, 1.0).lower == pytest.approx(2.0)
    for alpha in (0.2, 0.5, 0.9):
        t = theory_bounds(1, alpha)
        assert t.lower == t.upper == pytest.approx(alpha)


def test_theory_bounds_lower_never_exceeds_upper():
    for d in (1, 2, 3, 4, 5, 6):
        amax = d if d > 1 else 1
        for alpha in np.linspace(0.05, amax - 0.05, 40):
            t = theory_bounds(d, float(alpha))
            assert t.lower <= t.upper + 1e-12, (d, alpha)


def test_theory_bounds_planar_curve_continuity():
    # the planar upper envelope is continuous where its pieces change
    eps = 1e-6
    for a0 in (1.0, 1.5):
        lo = theory_bounds(2, a0 - eps).upper
        hi = theory_bounds(2, a0 + eps).upper
        assert abs(lo - hi) < 1e-4


def test_theory_bounds_open_interval_flag():
    t = theory_bounds(4, 1.3)  # between floor(d/2)-1=1 and (d-1)/2=1.5
    assert t.open_interval
    assert not theory_bounds(4, 0.9).open_interval
    assert not theory_bounds(2, 1.2).open_interval


def test_theory_bounds_validation():
    with pytest.raises(ValueError):
        theory_bounds(0, 0.5)
    with pytest.raises(ValueError):
        theory_bounds(2, 2.5)  # alpha capped by the ambient dimension
    with pytest.raises(ValueError):
        theory_bounds(2, -0.1)
    # the endpoints are inclusive
    assert theory_bounds(2, 0.0).upper == 0.0
    assert theory_bounds(2, 2.0).upper == pytest.approx(3.0)


# ---- verdicts -------------------------------------------------------------------

def _fit(slope):
    return ExponentFit(slope=slope, intercept=0.0, max_residual=0.0, n_points=4)


def test_compare_report_within_window():
    table = theory_bounds(2, 1.5)
    verdict = compare_report(_fit(slope=2 * 2 - 2.0), table, tol=0.2)
    assert verdict.dim_estimate == pytest.approx(2.0)
    assert verdict.within_bounds
    assert verdict.margins["pair_trivial:upper"] >= -0.2


def test_compare_report_flags_escape():
    table = theory_bounds(2, 1.5)
    verdict = compare_report(_fit(slope=2 * 2 - 3.1), table, tol=0.2)  # dim 3.1
    assert not verdict.within_bounds


def test_compare_report_json_round_trip():
    import json

    table = theory_bounds(3, 1.0)
    verdict = compare_report(_fit(slope=2 * 3 - 1.8), table, tol=0.2)
    payload = json.loads(json.dumps(verdict.to_json()))
    assert payload["dimEstimate"] == pytest.approx(1.8)
    assert payload["withinBounds"] == verdict.within_bounds
    assert "margins" in payload


def test_verdict_table_replaces_lower_bounds_for_a_planted_product():
    # C(1,2) doubled by a shift times C(1,2): beta + 3 gamma / 2 = 1.25
    generic = theory_bounds(2, 1.0)
    planted = verdict_table([CantorAxis(1, 2, shift=1), CantorAxis(1, 2)], 2, 1.0)
    uppers = [b for b in generic.bounds if b.kind == "upper"]
    assert planted.bounds == (*uppers, Bound("construction_product", "lower", 1.25))
    # only a shifted first axis plants the unit distances
    assert verdict_table([CantorAxis(1, 2), CantorAxis(1, 2, shift=1)], 2, 1.0) == generic


def test_verdict_json_records_the_table_it_judged_by():
    table = theory_bounds(2, 1.5)
    payload = compare_report(_fit(slope=2.1), table, tol=0.2).to_json()
    assert payload["bounds"] == {f"{b.name}:{b.kind}": b.value for b in table.bounds}
    assert payload["bounds"].keys() == payload["margins"].keys()
    assert payload["fit"] == {"slope": 2.1, "intercept": 0.0, "max_residual": 0.0, "n_points": 4}
    assert (payload["d"], payload["alpha"], payload["slope"]) == (2, 1.5, 2.1)
