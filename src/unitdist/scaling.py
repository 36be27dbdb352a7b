"""Scale sweeps, log-log exponent fits, and the closed-form exponent bounds.

A sweep evaluates the band-pair measure |D^delta| of a product set at a
decreasing ladder of scales and returns a bracketed series; `fit_exponent`
turns it into a log-log slope, `theory_bounds` tabulates every applicable
closed-form bound on the box dimension of the unit-distance set for ambient
dimension d and set dimension alpha (`verdict_table` adapts it to a planted
product), and `compare_report` converts the slope into a dimension estimate
(2d - slope) and checks it against the table.

Everything here is upper Minkowski (box-counting) scaling; the fits never
attempt to recover logarithmic corrections — tolerances absorb them.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .cantor import CantorSpec, cantor_stage, shift_union, stage_for_scale
from .grids import rasterize
from .intervals import IntervalUnion
from .measure import pair_band_mass, pair_band_measure_grid, pair_band_measure_product

__all__ = [
    "CantorAxis",
    "IntervalAxis",
    "PointsAxis",
    "ScaleSample",
    "ScalingSeries",
    "sweep",
    "neighborhood_measure_series",
    "ExponentFit",
    "fit_exponent",
    "Bound",
    "BoundTable",
    "theory_bounds",
    "verdict_table",
    "ComparisonVerdict",
    "compare_report",
]


# ---------------------------------------------------------------------------
# axis descriptors: one factor of the product set, realizable at any scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorAxis:
    """C(p, q) refined to the scale-appropriate stage, optionally doubled
    by a translate (shift=1 plants unit distances along this axis)."""

    p: int
    q: int
    shift: object = None  # dyadic shift, or None for the plain set

    def at_scale(self, delta: Fraction) -> IntervalUnion:
        spec = CantorSpec(self.p, self.q)
        base = cantor_stage(spec, stage_for_scale(spec, delta))
        if self.shift is None:
            return base
        return shift_union(base, Fraction(self.shift))

    @property
    def dimension(self) -> float:
        return self.p / self.q


@dataclass(frozen=True)
class IntervalAxis:
    lo: object
    hi: object

    def at_scale(self, delta: Fraction) -> IntervalUnion:
        return IntervalUnion.single(Fraction(self.lo), Fraction(self.hi))

    @property
    def dimension(self) -> float:
        return 1.0


@dataclass(frozen=True)
class PointsAxis:
    at: tuple

    def at_scale(self, delta: Fraction) -> IntervalUnion:
        return IntervalUnion.points([Fraction(x) for x in self.at])

    @property
    def dimension(self) -> float:
        return 0.0


Axis = Union[CantorAxis, IntervalAxis, PointsAxis]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleSample:
    delta: float
    value: float
    low: float
    high: float


@dataclass(frozen=True)
class ScalingSeries:
    samples: tuple[ScaleSample, ...]
    label: str = ""

    def __post_init__(self) -> None:
        deltas = [s.delta for s in self.samples]
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("deltas must be strictly decreasing")
        for s in self.samples:
            if not s.low <= s.value <= s.high:
                raise ValueError("sample value outside its own bracket")
            if s.value <= 0:
                raise ValueError("nonpositive value in series")


def _as_deltas(delta_list) -> list[Fraction]:
    out = [Fraction(d) for d in delta_list]
    if not out:
        raise ValueError("empty delta list")
    if any(d <= 0 for d in out):
        raise ValueError("deltas must be positive")
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError("deltas must be strictly decreasing")
    return out


def sweep(
    axes,
    delta_list,
    method: str = "grid",
    width_multiplier: float = 2.0,
    label: str = "",
) -> ScalingSeries:
    """Bracketed |D^delta| series for the product of the axis sets.

    method="grid" rasterizes the per-axis delta-neighborhoods on cells of
    side delta / 2 and brackets the measure by certified cell-pair counts;
    the sample value is the bracket midpoint. method="product"
    measures one axis exactly (`pair_band_mass`: the value is the correctly
    rounded mass, the bracket its adjacent floats, or the value itself where
    the mass is a float) and two axes by `pair_band_measure_product`'s
    certified bracket. A band edge 1 - w delta below 0 is taken as 0.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 3:
        raise ValueError("need 1 to 3 axes")
    deltas = _as_deltas(delta_list)

    samples = []
    for delta in deltas:
        sets = [ax.at_scale(delta) for ax in axes]
        try:
            if method == "grid":
                G = rasterize(sets, delta, delta / 2)
                br = pair_band_measure_grid(G, width_multiplier)
                val = 0.5 * (br.inner + br.outer)
                samples.append(ScaleSample(float(delta), val, br.inner, br.outer))
            elif method == "product":
                fat = [s.neighborhood(delta) for s in sets]
                if len(fat) == 1:
                    w = width_multiplier * float(delta)
                    mass = pair_band_mass(fat[0], fat[0], max(0.0, 1.0 - w), 1.0 + w)
                    val = float(mass)  # correctly rounded; the bracket is outward
                    low = val if val <= mass else float(np.nextafter(val, -np.inf))
                    high = val if val >= mass else float(np.nextafter(val, np.inf))
                    samples.append(ScaleSample(float(delta), val, low, high))
                elif len(fat) == 2:
                    r = pair_band_measure_product(
                        fat[0], fat[1], delta, width_multiplier=width_multiplier
                    )
                    samples.append(ScaleSample(float(delta), r.value, r.low, r.high))
                else:
                    raise ValueError("product method supports 1 or 2 axes")
            else:
                raise ValueError(f"unknown sweep method {method!r}")
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"sweep failed at delta={float(delta):g}: {exc}") from exc
    return ScalingSeries(tuple(samples), label=label)


def neighborhood_measure_series(axes, delta_list, label: str = "") -> ScalingSeries:
    """|K_delta| itself (exact product of per-axis fattened lengths); the
    covering-count series used for box-dimension fits of the set, not of
    its distance pairs."""
    axes = tuple(axes)
    deltas = _as_deltas(delta_list)
    samples = []
    for delta in deltas:
        sets = [ax.at_scale(delta) for ax in axes]
        total = Fraction(1)
        for s in sets:
            total *= s.neighborhood(delta).total_length
        val = float(total)
        samples.append(ScaleSample(float(delta), val, val, val))
    return ScalingSeries(tuple(samples), label=label)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    max_residual: float
    n_points: int


def fit_exponent(series: ScalingSeries) -> ExponentFit:
    """OLS of log(value) against log(delta).

    The largest delta is excluded when the series has at least four
    samples: fattened fractals only scale cleanly below their first
    construction scale.
    """
    samples = series.samples
    if len(samples) >= 4:
        samples = samples[1:]
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit")
    x = np.log(np.array([s.delta for s in samples]))
    y = np.log(np.array([s.value for s in samples]))  # every value is positive
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = np.abs(A @ np.array([slope, intercept]) - y)
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(resid.max()),
        n_points=len(samples),
    )


# ---------------------------------------------------------------------------
# closed-form bounds on the unit-distance dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    name: str
    kind: str  # "upper" | "lower"
    value: float


@dataclass(frozen=True)
class BoundTable:
    d: int
    alpha: float
    bounds: tuple[Bound, ...]
    open_interval: bool = False  # true where no nontrivial bound pair is known

    @property
    def upper(self) -> float:
        return min(b.value for b in self.bounds if b.kind == "upper")

    @property
    def lower(self) -> float:
        lows = [b.value for b in self.bounds if b.kind == "lower"]
        return max(lows) if lows else 0.0


def theory_bounds(d: int, alpha: float) -> BoundTable:
    """Every applicable closed-form bound on the box dimension of the
    unit-distance pair set of an alpha-dimensional subset of R^d.

    d=1 is exact (the bound equals alpha). In the plane the three regimes
    are alpha <= 1 (ratio bounds), 1 <= alpha <= 3/2 (exact alpha + 1/2),
    and 3/2 <= alpha <= 2 (exact 2 alpha - 1, shared with every d in the
    top range alpha >= (d+1)/2). For d >= 4 and alpha <= floor(d/2) - 1
    an orthogonal-spheres product attains the trivial 2 alpha; between that
    and (d-1)/2 the problem is open and flagged as such.
    """
    if not isinstance(d, int) or not 1 <= d <= 8:
        raise ValueError("d must be an integer in [1, 8]")
    if not 0 <= alpha <= d:
        raise ValueError(f"alpha must lie in [0, {d}]")

    if d == 1:
        bounds = (Bound("line_exact", "upper", alpha), Bound("line_exact", "lower", alpha))
        return BoundTable(d=1, alpha=alpha, bounds=bounds)

    out: list[Bound] = [
        Bound("pair_trivial", "upper", 2 * alpha),
        Bound("neighbor_trivial", "upper", alpha + d - 1),
    ]
    top = (d + 1) / 2
    if alpha >= top:
        out.append(Bound("energy_range", "upper", 2 * alpha - 1))
        out.append(Bound("energy_range", "lower", 2 * alpha - 1))
    else:
        out.append(Bound("energy_tail", "upper", alpha + (d - 1) / 2))
    if alpha >= 1:
        out.append(Bound("slab_product", "lower", 2 * alpha - 1))
    if d == 2:
        if alpha <= 1:
            out.append(Bound("planar_ratio_a", "upper", 5 * alpha / 3))
            out.append(Bound("planar_ratio_b", "upper", alpha * (2 + alpha) / (1 + alpha)))
            out.append(Bound("planar_half", "lower", 1.5 * alpha))
        if 1 <= alpha <= 1.5:
            out.append(Bound("planar_mid", "upper", alpha + 0.5))
            out.append(Bound("planar_mid", "lower", alpha + 0.5))
    if d == 3:
        out.append(Bound("spatial_upper", "upper", 15 * alpha / 8))
    open_interval = False
    if d >= 4:
        attained = d // 2 - 1
        if alpha <= attained:
            out.append(Bound("sphere_product", "lower", 2 * alpha))
        elif alpha < (d - 1) / 2:
            open_interval = True

    for b in out:
        if not 0 <= b.value <= 2 * d + 1e-12:
            raise AssertionError(f"bound {b.name} out of range: {b.value}")
    table = BoundTable(d=d, alpha=alpha, bounds=tuple(out), open_interval=open_interval)
    if table.lower > table.upper + 1e-12:
        raise AssertionError("lower bound exceeds upper bound")
    return table


def verdict_table(axes, d: int, alpha: float) -> BoundTable:
    """Bound table for a sweep verdict.

    For the planted-distance product (first axis doubled by a shift) the
    table's lower bounds -- which constrain the extremal set, not this
    particular one -- are replaced by the construction's own guaranteed
    exponent beta + 3 gamma / 2.
    """
    table = theory_bounds(d, alpha)
    shifted = [getattr(ax, "shift", None) is not None for ax in axes]
    if d == 2 and len(axes) == 2 and shifted[0] and not shifted[1]:
        beta = axes[0].dimension
        gamma = axes[1].dimension
        bounds = tuple(b for b in table.bounds if b.kind == "upper") + (
            Bound("construction_product", "lower", beta + 1.5 * gamma),
        )
        return BoundTable(d=d, alpha=alpha, bounds=bounds)
    return table


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonVerdict:
    """A fit judged against a bound table; d, alpha and the slope are read
    from the two."""

    fit: ExponentFit
    table: BoundTable
    tol: float
    dim_estimate: float
    margins: dict

    @property
    def within_bounds(self) -> bool:
        return all(v >= 0 for v in self.margins.values())

    def to_json(self) -> dict:
        """The verdict and the table it judged by, `bounds` keyed like `margins`."""
        return {
            "dimEstimate": self.dim_estimate,
            "withinBounds": self.within_bounds,
            "margins": dict(self.margins),
            "bounds": {f"{b.name}:{b.kind}": b.value for b in self.table.bounds},
            "tol": self.tol,
            "slope": self.fit.slope,
            "d": self.table.d,
            "alpha": self.table.alpha,
            "fit": asdict(self.fit),
        }


def compare_report(fit: ExponentFit, table: BoundTable, tol: float = 0.2) -> ComparisonVerdict:
    """Dimension estimate 2d - slope checked against the bound table.

    Margins are signed slack per named bound (nonnegative means satisfied
    within tol); the verdict is the conjunction.
    """
    if not math.isfinite(fit.slope):
        raise ValueError("fit slope is not finite")
    dim = 2 * table.d - fit.slope
    margins = {}
    for b in table.bounds:
        key = f"{b.name}:{b.kind}"
        margins[key] = b.value + tol - dim if b.kind == "upper" else dim - (b.value - tol)
    return ComparisonVerdict(fit, table, tol, dim, margins)
