"""Configuration-driven experiment runner.

Every experiment is a JSON config executed by a subcommand of the same
kind; runs are deterministic (seeds always explicit) and leave behind
CSV/JSON artifacts plus a manifest echoing the config and recording package
versions. Exit codes: 0 success, 1 usage, config or operational error, 2 "ran
fine, but a bound was violated" -- CI treats 2 as a red experiment rather
than a crash.

Config validation is strict: unknown fields are rejected by name, as are
missing required ones, before any computation starts.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .cantor import CantorSpec, cantor_stage, stage_for_scale
from .discrete import (
    PointSet,
    count_unit_pairs_bruteforce,
    count_unit_pairs_grid,
    normalized_pair_count_value,
    random_general_position,
    two_circles_r4,
    unit_step_census,
)
from .geom import MAX_DIM, unit_frame_batch
from .grids import alpha_set_verify, rasterize
from .incidence import incidence_census, section_histogram
from .scaling import (
    Bound,
    BoundTable,
    CantorAxis,
    IntervalAxis,
    PointsAxis,
    ScaleSample,
    ScalingSeries,
    compare_report,
    fit_exponent,
    log_log_fit,
    sweep,
    theory_bounds,
    verdict_table,
)
from .spectral import ball_convolution_l2, mollify_transform, weighted_energy

class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _take(
    cfg: dict,
    field: str,
    *,
    required: bool = False,
    default=None,
    where: str = "config",
    cast=None,
):
    """Pop `field` from cfg; an optional field set to null counts as absent.
    `cast` converts a given value (not the default); a value it rejects is
    a ConfigError naming the field."""
    if field not in cfg:
        if required:
            raise ConfigError(f"missing required field '{field}' in {where}")
        return default
    value = cfg.pop(field)
    if value is None and not required:
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"field '{field}' in {where}: {exc}") from exc


def _done(cfg: dict, where: str = "config") -> None:
    if cfg:
        raise ConfigError(f"unknown field '{next(iter(cfg))}' in {where}")


def _scale(x) -> Fraction:
    """Accept 0.015625, "1/64", or "2^-6" as exact scales, never a bool."""
    try:
        if isinstance(x, str):
            base, caret, exp = x.partition("^")
            if not caret:
                return Fraction(base)
            if base.strip() == "2":
                return Fraction(2) ** int(exp)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            return Fraction(x)
    except (ValueError, ArithmeticError):
        pass
    raise ValueError(f"bad scale {x!r}")


def _integer(x) -> int:
    """A JSON integer: an int or an integral float, never a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected an integer, got {x!r}")
    if x != math.floor(x):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _finite(x) -> float:
    """A finite JSON number; NaN, +-inf, strings and bools are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {x!r}")
    return v


def _string(x) -> str:
    """A JSON string, nothing else."""
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {x!r}")
    return x


def _boolean(x) -> bool:
    """A JSON boolean: true or false, nothing else."""
    if not isinstance(x, bool):
        raise TypeError(f"expected true or false, got {x!r}")
    return x


def _at_least(lo: int):
    """A cast to an integer no smaller than `lo`."""

    def cast(x) -> int:
        n = _integer(x)
        if n < lo:
            raise ValueError(f"expected an integer >= {lo}, got {x!r}")
        return n

    return cast


def _unit_open(x) -> float:
    """A JSON number strictly between 0 and 1."""
    v = _finite(x)
    if not 0 < v < 1:
        raise ValueError(f"expected a value in (0, 1), got {x!r}")
    return v


def _list(x) -> list:
    """A JSON list, nothing else: no string, number or null."""
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {x!r}")
    return x


def _each(convert):
    """A cast that converts every entry of a JSON list, into a tuple."""
    return lambda xs: tuple(convert(x) for x in _list(xs))


def _axis_from_config(spec, where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"axis entry must be an object in {where}")
    spec = dict(spec)
    kind = _take(spec, "kind", required=True, where=where, cast=_string)
    if kind == "cantor":
        p = _take(spec, "p", required=True, where=where, cast=_integer)
        q = _take(spec, "q", required=True, where=where, cast=_integer)
        shift = _take(spec, "shift", where=where, cast=_scale)
        _done(spec, where)
        return CantorAxis(p, q, shift)
    if kind == "interval":
        lo = _take(spec, "lo", required=True, where=where, cast=_scale)
        hi = _take(spec, "hi", required=True, where=where, cast=_scale)
        _done(spec, where)
        return IntervalAxis(lo, hi)
    if kind == "points":
        at = _take(spec, "at", required=True, where=where, cast=_each(_scale))
        if not at:
            raise ConfigError(f"field 'at' in {where}: expected at least one point")
        _done(spec, where)
        return PointsAxis(at)
    raise ConfigError(f"unknown axis kind '{kind}' in {where}")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit_csv(path: Path, schema: list[str], rows) -> None:
    """RFC-4180-style CSV (the stdlib `csv` dialect, LF endings), 17-significant-
    digit floats; byte-identical across runs with identical inputs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(
                f"row arity {len(row)} does not match schema arity {len(schema)}"
            )
        writer.writerow([_fmt(v) for v in row])
    Path(path).write_bytes(buf.getvalue().encode())


def _write_json(path: Path, obj) -> None:
    Path(path).write_bytes(
        (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    )


class _Run:
    """Artifact directory plus the manifest bookkeeping."""

    def __init__(self, kind: str, out: Path, config_echo: dict):
        self.kind = kind
        self.out = out
        self.config_echo = config_echo
        self.artifacts: list[str] = []
        self.started = time.perf_counter()
        out.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def finish(self, exit_code: int, error: str | None = None) -> None:
        """Write the manifest, on every exit path of a run, one that raises
        too: the artifacts written so far, the exit code and the error, if
        any."""
        manifest = {
            "kind": self.kind,
            "config": self.config_echo,
            "artifacts": sorted(self.artifacts),
            "exit_code": exit_code,
            "error": error,
            "versions": {
                "unitdist": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }
        _write_json(self.out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# experiment runners (each returns the exit code)
# ---------------------------------------------------------------------------

_BUILTIN_SETS = {
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)],
    "square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
}


def _run_count(cfg: dict, run: _Run) -> int:
    where = "count config"
    spec = _take(cfg, "set", required=True, where=where)
    eps = _take(cfg, "eps", default=1e-9, where=where, cast=_finite)
    census = _take(cfg, "census", default=False, where=where, cast=_boolean)
    _done(cfg, where)

    spec = dict(spec if isinstance(spec, dict) else {"kind": spec})
    kind = _take(spec, "kind", required=True, where="count.set", cast=_string)
    if kind in _BUILTIN_SETS:
        _done(spec, "count.set")
        P = PointSet(np.array(_BUILTIN_SETS[kind]), label=kind)
    elif kind == "two_circles":
        n = _take(spec, "n", required=True, where="count.set", cast=_integer)
        seed = _take(spec, "seed", default=0, where="count.set", cast=_integer)
        _done(spec, "count.set")
        P = two_circles_r4(n, seed=seed)
    elif kind == "random":
        n = _take(spec, "n", required=True, where="count.set", cast=_integer)
        d = _take(spec, "d", required=True, where="count.set", cast=_integer)
        seed = _take(spec, "seed", default=0, where="count.set", cast=_integer)
        _done(spec, "count.set")
        P = random_general_position(n, d, seed=seed)
    else:
        raise ConfigError(f"unknown set kind '{kind}' in count.set")
    P = PointSet(P.points, eps=eps, label=P.label)

    brute = count_unit_pairs_bruteforce(P)
    grid = count_unit_pairs_grid(P)
    emit_csv(
        run.path("counts.csv"),
        ["label", "d", "n", "eps", "brute_count", "grid_count", "normalized"],
        [[P.label, P.d, P.n, P.eps, brute, grid,
          normalized_pair_count_value(brute, P.n, P.d)]],
    )
    if census:
        rep = unit_step_census(P)
        _write_json(
            run.path("census.json"),
            {
                "edge_count": rep.edge_count,
                "tuple_count": rep.tuple_count,
                "distinct_tuple_count": rep.distinct_tuple_count,
                "holder_lhs": rep.holder_lhs,
                "max_endpoint_fiber": rep.max_endpoint_fiber,
            },
        )
    return 0 if brute == grid else 2


def _run_frames(cfg: dict, run: _Run) -> int:
    where = "frames config"
    d = _take(cfg, "d", required=True, where=where, cast=_integer)
    count = _take(cfg, "count", default=1000, where=where, cast=_at_least(0))
    seed = _take(cfg, "seed", default=0, where=where, cast=_integer)
    _done(cfg, where)
    if not 2 <= d <= MAX_DIM:
        raise ConfigError(f"'d' must be in [2, {MAX_DIM}] in frames config")

    rng = np.random.default_rng(seed)
    A = np.empty((count, d - 1, d))
    for a in A:
        scale = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        a[:] = rng.normal(size=(d - 1, d)) * scale
    n_sol, t, b = unit_frame_batch(A)
    # the rows of each solution's b are b_1 and b_1 + a_j, each a unit step;
    # a frame's residual is the worst over its solutions (0 with none)
    dev = np.abs(np.linalg.norm(b, axis=-1) - 1.0).max(axis=-1)
    resid = np.where(np.arange(2) < n_sol[:, None], dev, 0.0).max(axis=1)
    solved = n_sol >= 0
    resid[~solved] = math.nan
    # section_offset is |t| of the first solution; NaN without one
    offset = np.abs(t[:, 0]).tolist()
    rows = [
        [i, d, o, k, r]
        for i, (o, k, r) in enumerate(zip(offset, n_sol.tolist(), resid.tolist()))
    ]
    worst_resid = float(resid[solved].max(initial=0.0))
    max_solutions = int(n_sol.max(initial=0))
    emit_csv(
        run.path("frames.csv"),
        ["index", "d", "section_offset", "n_solutions", "max_residual"],
        rows,
    )
    _write_json(
        run.path("summary.json"),
        {
            "frames": count,
            "max_solutions": max_solutions,
            "worst_residual": worst_resid,
        },
    )
    return 0 if (max_solutions <= 2 and worst_resid <= 1e-9) else 2


def _run_cantor(cfg: dict, run: _Run) -> int:
    where = "cantor config"
    p = _take(cfg, "p", required=True, where=where, cast=_integer)
    q = _take(cfg, "q", required=True, where=where, cast=_integer)
    stage = _take(cfg, "stage", required=True, where=where, cast=_integer)
    delta = _take(cfg, "delta", where=where, cast=_scale)
    _done(cfg, where)

    spec = CantorSpec(p, q)
    U = cantor_stage(spec, stage)
    stats = {
        "p": p,
        "q": q,
        "stage": stage,
        "dimension": spec.dimension(),
        "intervals": U.n_intervals,
        "total_length": str(U.total_length),
    }
    run.path("intervals.txt").write_text(U.to_text())
    if delta is not None:
        fat = U.neighborhood(delta)
        run.path("fattened.txt").write_text(fat.to_text())
        stats["fattened_intervals"] = fat.n_intervals
        stats["fattened_length"] = str(fat.total_length)
    _write_json(run.path("stats.json"), stats)
    return 0


def _series_rows(series: ScalingSeries, d: int, alpha: float):
    for s in series.samples:
        yield [series.label, d, alpha, s.delta, s.value, s.low, s.high]


_SCALING_SCHEMA = ["label", "d", "alpha", "delta", "value", "value_low", "value_high"]


def _run_sweep(cfg: dict, run: _Run) -> int:
    where = "sweep config"
    axes_cfg = _take(cfg, "axes", required=True, where=where, cast=_list)
    deltas = _take(cfg, "deltas", required=True, where=where, cast=_each(_scale))
    method = _take(cfg, "method", default="grid", where=where)
    if method not in ("grid", "product"):
        raise ConfigError(f"field 'method' in {where}: unknown sweep method {method!r}")
    widthm = _take(cfg, "width_multiplier", default=2.0, where=where, cast=_finite)
    tol = _take(cfg, "tol", default=0.2, where=where, cast=_finite)
    label = _take(cfg, "label", default="sweep", where=where, cast=_string)
    alpha_cfg = _take(cfg, "alpha", where=where, cast=_finite)
    _done(cfg, where)

    axes = [
        _axis_from_config(a, f"sweep.axes[{i}]") for i, a in enumerate(axes_cfg)
    ]
    if len(deltas) < 2:  # refused before any scale is measured
        raise ConfigError(f"field 'deltas' in {where}: a fit needs at least two scales")
    d = len(axes)
    alpha = (
        alpha_cfg
        if alpha_cfg is not None
        else min(float(d), sum(ax.dimension for ax in axes))
    )
    try:
        series = sweep(
            axes, deltas, method=method, width_multiplier=widthm, label=label
        )
        fit = fit_exponent(series)
    except ValueError as exc:  # an error at one scale names the sweep already
        prefix = "" if str(exc).startswith("sweep failed at") else "sweep failed: "
        raise ConfigError(f"{prefix}{exc}") from exc
    emit_csv(run.path("scaling.csv"), _SCALING_SCHEMA, _series_rows(series, d, alpha))
    return _judge(fit, verdict_table(axes, d, alpha), tol, run)


def _judge(fit, table: BoundTable, tol: float, run: _Run) -> int:
    """Write the verdict of a fit by a bound table: exit 0 within it, else 2."""
    verdict = compare_report(fit, table, tol)
    _write_json(run.path("verdict.json"), verdict.to_json())
    return 0 if verdict.within_bounds else 2


def _run_alpha_verify(cfg: dict, run: _Run) -> int:
    where = "alpha-verify config"
    p = _take(cfg, "p", required=True, where=where, cast=_integer)
    q = _take(cfg, "q", required=True, where=where, cast=_integer)
    delta = _take(cfg, "delta", required=True, where=where, cast=_scale)
    alpha = _take(cfg, "alpha", default=p / q, where=where, cast=_finite)
    cell = _take(cfg, "cell", where=where, cast=_scale)
    samples = _take(cfg, "samples", default=10_000, where=where, cast=_at_least(1))
    seed = _take(cfg, "seed", default=0, where=where, cast=_integer)
    max_ratio = _take(cfg, "max_ratio", where=where, cast=_finite)
    _done(cfg, where)

    spec = CantorSpec(p, q)
    U = cantor_stage(spec, stage_for_scale(spec, delta))
    cell_q = delta / 2 if cell is None else cell
    G = rasterize([U], delta, cell_q, alpha=alpha)
    rep = alpha_set_verify(G, alpha, samples, seed=seed)
    _write_json(
        run.path("report.json"),
        {
            "sup_ratio": rep.sup_ratio,
            "samples_tested": rep.samples_tested,
            "worst_x": list(rep.worst_x),
            "worst_r": rep.worst_r,
            "alpha": alpha,
            "delta": float(delta),
        },
    )
    if max_ratio is not None and rep.sup_ratio > max_ratio:
        return 2
    return 0


def _run_spectral(cfg: dict, run: _Run) -> int:
    where = "spectral config"
    p = _take(cfg, "p", required=True, where=where, cast=_integer)
    q = _take(cfg, "q", required=True, where=where, cast=_integer)
    alpha = _take(cfg, "alpha", default=p / q, where=where, cast=_unit_open)
    delta_exps = _take(
        cfg, "delta_exps", required=True, where=where, cast=_each(_at_least(1))
    )
    r_exps = _take(cfg, "r_exps", default=(), where=where, cast=_each(_at_least(0)))
    max_abs_slope = _take(cfg, "max_abs_slope", where=where, cast=_finite)
    _done(cfg, where)

    spec = CantorSpec(p, q)
    energy_rows = []
    conv_rows = []
    for e in delta_exps:
        delta = Fraction(1, 1 << e)
        U = cantor_stage(spec, stage_for_scale(spec, delta))
        G = rasterize([U], delta, delta / 4, alpha=alpha)
        rep = weighted_energy(mollify_transform(G))
        energy_rows.append([float(delta), rep.energy, rep.reference, rep.ratio])
        for re_ in r_exps:
            r = 2.0 ** -re_
            if r < float(delta):
                continue
            conv = ball_convolution_l2(G, r)
            conv_rows.append([float(delta), conv.r, conv.l2_norm, conv.ratio])
    emit_csv(
        run.path("energy.csv"),
        ["delta", "energy", "reference", "ratio"],
        energy_rows,
    )
    if conv_rows:
        emit_csv(
            run.path("convolution.csv"),
            ["delta", "r", "l2_norm", "ratio"],
            conv_rows,
        )
    # a slope needs two scales; with fewer there is no fit, and a slope
    # gate cannot pass
    slope = None
    if len(energy_rows) >= 2:
        columns = list(zip(*energy_rows))  # delta, energy, reference, ratio
        slope = log_log_fit(columns[0], columns[3])[0]
    _write_json(
        run.path("summary.json"),
        {"alpha": alpha, "ratio_log_slope": slope, "scales": len(energy_rows)},
    )
    if max_abs_slope is not None and (slope is None or abs(slope) > max_abs_slope):
        return 2
    return 0


def _run_incidence(cfg: dict, run: _Run) -> int:
    where = "incidence config"
    axes_cfg = _take(cfg, "axes", required=True, where=where, cast=_list)
    delta = _take(cfg, "delta", required=True, where=where, cast=_scale)
    cell = _take(cfg, "cell", where=where, cast=_scale)
    lam = _take(cfg, "lam", where=where, cast=_finite)
    c = _take(cfg, "c", default=0.1, where=where, cast=_finite)
    alpha_cfg = _take(cfg, "alpha", where=where, cast=_finite)
    _done(cfg, where)

    axes = [
        _axis_from_config(a, f"incidence.axes[{i}]") for i, a in enumerate(axes_cfg)
    ]
    alpha = (
        alpha_cfg
        if alpha_cfg is not None
        else sum(ax.dimension for ax in axes)
    )
    sets = [ax.at_scale(delta) for ax in axes]
    cell_q = delta / 2 if cell is None else cell
    G = rasterize(sets, delta, cell_q, alpha=alpha)
    hist = section_histogram(G)
    emit_csv(
        run.path("sections.csv"),
        ["bin_lo", "bin_hi", "count"],
        [
            [float(hist.edges[m]), float(hist.edges[m + 1]), int(hist.counts[m])]
            for m in range(len(hist.counts))
        ],
    )
    lam_val = hist.top_threshold() if lam is None else lam
    census = incidence_census(hist, lam_val, c=c)
    _write_json(
        run.path("incidence.json"),
        {
            "j_size": int(census.j_points.shape[0]),
            "center_count": int(census.centers.shape[0]),
            "section_size_max": int(census.section_sizes.max(initial=0)),
            "tuple_count": census.tuple_count,
            "separation_threshold": census.separation_threshold,
            "max_projection_fiber": census.max_projection_fiber,
            "lam": lam_val,
            "c": c,
        },
    )
    return 0


def _recorded_table(path: Path, d: int, alpha: float) -> BoundTable:
    """The bound table a sweep judged its scaling.csv by, from the
    verdict.json it wrote beside it; the generic table where there is none."""
    if not path.exists():
        return theory_bounds(d, alpha)
    try:
        recorded = json.loads(path.read_text())
        judged = recorded["d"], recorded["alpha"]
        items = recorded["bounds"].items()
        bounds = tuple(Bound(*key.rsplit(":", 1), _finite(value)) for key, value in items)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"bound table '{path}': {type(exc).__name__}: {exc}") from exc
    if judged != (d, alpha):
        raise ConfigError(
            f"bound table '{path}': it is for d={judged[0]}, alpha={judged[1]}; "
            f"the series has d={d}, alpha={alpha}"
        )
    return BoundTable(d=d, alpha=alpha, bounds=bounds)


def _run_report(cfg: dict, run: _Run) -> int:
    where = "report config"
    series_csv = _take(cfg, "series_csv", required=True, where=where, cast=_string)
    tol = _take(cfg, "tol", default=0.2, where=where, cast=_finite)
    _done(cfg, where)

    try:
        with open(series_csv, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read series_csv: {exc}") from exc
    if not rows or rows[0] != _SCALING_SCHEMA:
        raise ConfigError(f"'{series_csv}' is not a scaling CSV")
    samples = []
    label = ""
    first = None  # the first row's d and alpha, which every row must repeat
    for line, parts in enumerate(rows[1:], start=2):
        if len(parts) != len(_SCALING_SCHEMA):
            raise ConfigError(
                f"'{series_csv}' line {line} has {len(parts)} fields, "
                f"expected {len(_SCALING_SCHEMA)}"
            )
        label = parts[0]
        values = []
        for column in range(1, 7):
            name = _SCALING_SCHEMA[column]
            try:
                values.append((int if name == "d" else float)(parts[column]))
            except ValueError:
                raise ConfigError(
                    f"field '{name}' in '{series_csv}' line {line}: "
                    f"{parts[column]!r} is not {'an integer' if name == 'd' else 'a number'}"
                ) from None
        first = first or values[:2]
        for column in (1, 2):
            if values[column - 1] != first[column - 1]:
                raise ConfigError(
                    f"field '{_SCALING_SCHEMA[column]}' in '{series_csv}' line {line}: "
                    f"{parts[column]!r} differs from line 2's {rows[1][column]!r}"
                )
        samples.append(ScaleSample(*values[2:]))
    fit = fit_exponent(ScalingSeries(tuple(samples), label=label))
    table = _recorded_table(Path(series_csv).with_name("verdict.json"), *first)
    return _judge(fit, table, tol, run)


_RUNNERS = {
    "count": _run_count,
    "frames": _run_frames,
    "cantor": _run_cantor,
    "sweep": _run_sweep,
    "alpha-verify": _run_alpha_verify,
    "spectral": _run_spectral,
    "incidence": _run_incidence,
    "report": _run_report,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_config(
    path,
    kind: str | None = None,
    out_override=None,
    seed_override: int | None = None,
) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1

    cfg = dict(raw)
    cfg_kind = cfg.pop("kind", None)
    if kind is None:
        kind = cfg_kind
    elif cfg_kind is not None and cfg_kind != kind:
        print(
            f"error: config kind '{cfg_kind}' does not match subcommand '{kind}'",
            file=sys.stderr,
        )
        return 1
    if kind not in _RUNNERS:
        print(f"error: unknown experiment kind '{kind}'", file=sys.stderr)
        return 1

    # the config's out is read (and checked) even when --out wins
    try:
        cfg_out = _take(
            cfg, "out", default=f"runs/{kind}", where=f"{kind} config", cast=_string
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if out_override:  # a directory for the manifest that names the field
            out = Path(out_override)
            _Run(kind, out, {"kind": kind, **cfg, "out": str(out)}).finish(1, str(exc))
        return 1
    out = Path(out_override or cfg_out)
    if seed_override is not None:
        if kind == "count" and "set" in cfg:
            s = cfg["set"]  # a builtin set then refuses the seed by name
            cfg["set"] = {**(s if isinstance(s, dict) else {"kind": s}), "seed": seed_override}
        else:
            cfg["seed"] = seed_override

    echo = {"kind": kind, **cfg, "out": str(out)}
    run = _Run(kind, out, echo)
    try:
        code = _RUNNERS[kind](cfg, run)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.finish(1, str(exc))
        return 1
    except Exception as exc:
        # any other error (a FloatingPointError from the certified FFT
        # counts, MemoryError, ...) propagates, named in the manifest
        run.finish(1, f"{type(exc).__name__}: {exc}")
        raise
    run.finish(code)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unitdist",
        description="experiment runner for discrete and continuous "
        "unit-distance measurements",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        sp = sub.add_parser(kind, help=f"run a '{kind}' experiment config")
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", default=None, help="output directory override")
        if kind in ("count", "frames", "alpha-verify"):  # the configs with a seed
            sp.add_argument("--seed", type=int, default=None, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is a config error: exit 1
        return 1 if exc.code else 0
    seed = getattr(args, "seed", None)
    return run_config(args.config, kind=args.kind, out_override=args.out, seed_override=seed)
