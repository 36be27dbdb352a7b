"""Cheap output oracles for benchmark tasks, plus artifact digests.

A check returns the relative widths of the certified brackets the task's
outputs report and raises `CheckFailed` when an output is wrong. None of
these repeats the acceptance tests' mesh searches: they read the artifacts
the CLI wrote and test what can be tested in microseconds.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """A task ran but one of its outputs is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["values"]


def reference_key(exp: int, width: float) -> str:
    return f"2^-{exp}|w={width}"


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _rel_width(low: float, high: float, value: float) -> float:
    return (high - low) / value if value else 0.0


def check_count(task, out: Path, result) -> list[float]:
    (row,) = _rows(out / "counts.csv")
    brute, grid = int(row["brute_count"]), int(row["grid_count"])
    _require(brute == grid, f"brute {brute} != grid {grid}")
    if "min_brute" in task.expect:
        _require(brute >= task.expect["min_brute"], f"count {brute} < 2N^2")
    return []


def check_frames(task, out: Path, result) -> list[float]:
    summary = json.loads((out / "summary.json").read_text())
    _require(summary["frames"] == task.expect["frames"], "frame count differs")
    _require(summary["max_solutions"] <= 2, f"{summary['max_solutions']} solutions")
    _require(summary["worst_residual"] <= 1e-9, f"residual {summary['worst_residual']}")
    return []


def check_sweep(task, out: Path, result) -> list[float]:
    rows = _rows(out / "scaling.csv")
    _require(len(rows) == len(task.config["deltas"]), "sample count differs")
    widths = []
    for row in rows:
        value, low, high = float(row["value"]), float(row["value_low"]), float(row["value_high"])
        _require(low <= value <= high, f"value {value} outside [{low}, {high}]")
        widths.append(_rel_width(low, high, value))
        if task.expect.get("reference"):
            exp = round(-math.log2(float(row["delta"])))
            ref_value, ref_err = load_reference()[reference_key(exp, task.config["width_multiplier"])]
            err = high - value
            _require(
                abs(value - ref_value) <= ref_err + err,
                f"2^-{exp}: {value} vs reference {ref_value} +- {ref_err}",
            )
    return widths


def check_alpha(task, out: Path, result) -> list[float]:
    report = json.loads((out / "report.json").read_text())
    _require(report["samples_tested"] == task.expect["samples"], "sample count differs")
    _require(report["sup_ratio"] <= task.config["max_ratio"], "sup ratio over bound")
    return []


def check_spectral(task, out: Path, result) -> list[float]:
    summary = json.loads((out / "summary.json").read_text())
    _require(summary["scales"] == task.expect["scales"], "scale count differs")
    _require((out / "energy.csv").exists(), "energy.csv missing")
    return []


def check_incidence(task, out: Path, result) -> list[float]:
    census = json.loads((out / "incidence.json").read_text())
    _require(census["j_size"] > 0, "empty net")
    _require(census["center_count"] > 0, "no heavy centers")
    _require(census["tuple_count"] >= 0, "negative tuple count")
    return []


def check_cantor(task, out: Path, result) -> list[float]:
    """`result` is the union read back from fattened.txt by from_text."""
    stats = json.loads((out / "stats.json").read_text())
    _require(stats["intervals"] == task.expect["intervals"], "stage interval count differs")
    text = (out / "fattened.txt").read_text()
    _require(result.to_text() == text, "from_text(to_text(U)) does not reproduce U")
    _require(result.n_intervals == stats["fattened_intervals"], "fattened count differs")
    _require(str(result.total_length) == stats["fattened_length"], "fattened length differs")
    return []


def check_covering(task, out, result) -> list[float]:
    series, fit = result
    dim = 1.0 - fit.slope
    target = task.config["p"] / task.config["q"]
    _require(abs(dim - target) <= 0.03, f"dimension {dim:.4f} vs {target:.4f}")
    return [_rel_width(s.low, s.high, s.value) for s in series.samples]


CHECKS = {
    "count": check_count,
    "frames": check_frames,
    "sweep": check_sweep,
    "alpha-verify": check_alpha,
    "spectral": check_spectral,
    "incidence": check_incidence,
    "cantor": check_cantor,
    "covering": check_covering,
}


def artifact_digest(out: Path) -> str:
    """sha256 over the artifacts, with the manifest's run-specific fields
    (wall time, output path) removed; equal digests mean equal outputs."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            manifest["config"].pop("out", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def covering_digest(result) -> str:
    series, fit = result
    rows = [(s.delta, s.value, s.low, s.high) for s in series.samples]
    return hashlib.sha256(repr((rows, fit.slope, fit.intercept)).encode()).hexdigest()
