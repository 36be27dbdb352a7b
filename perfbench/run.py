"""unitdist benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload discrete --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass is a fresh `one_pass.py` process: a cache that lives across calls
cannot win from repetition, and lazy first-call costs stay in the timings
because a CLI user pays them on every run. Passes repeat until `--seconds`
have elapsed (at least MIN_PASSES of them) and the medians are reported.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it carries the
per-layer metrics, including the tracing overhead. Lines before the last one
are a human-readable report. The exit code is 0 when a result is printed,
2 when the checkout does not hold the library.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402

MIN_PASSES = 5  # untraced passes per run; sets the tail percentile's sample floor
MIN_TRACED = 2  # traced and untraced passes each, in a --trace 1 run
HARD_LIMIT_S = 165.0  # a run must finish within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Times are reported in reference seconds: a task's wall time scaled by
# REF_CALIB_S over the time a fixed calibration mix took right around it
# (one_pass._calibrate). The machines this runs on change speed by 30% or
# more within tens of seconds as neighbours come and go; the calibration
# sees the same change, so the ratio keeps only the library's own cost.
# On a quiet 2-CPU Xeon (Python 3.11, NumPy 2.4) the mix takes about 10 ms.
REF_CALIB_S = 0.010

END_TO_END = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "discrete.self_s": "s",
    "discrete.calls": "count",
    "discrete.points": "count",
    "discrete.unit_pairs": "count",
    "discrete.brute_pairs": "count",
    "geom.self_s": "s",
    "geom.calls": "count",
    "geom.gp_checks": "count",
    "geom.gp_subsets_tested": "count",
    "geom.gp_checks_per_set": "ratio",
    "geom.frames": "count",
    "geom.frame_solutions": "count",
    "intervals.self_s": "s",
    "intervals.calls": "count",
    "intervals.intervals_out": "count",
    "intervals.us_per_interval": "us",
    "cantor.self_s": "s",
    "cantor.calls": "count",
    "cantor.intervals_built": "count",
    "cantor.max_depth_bits": "bits",
    "measure.self_s": "s",
    "measure.calls": "count",
    "measure.dense_calls": "count",
    "measure.atoms_calls": "count",
    "measure.blocks_in": "count",
    "measure.quad_rel_err": "ratio",
    "measure.grid_outer_pairs": "count",
    "grids.self_s": "s",
    "grids.calls": "count",
    "grids.cells": "count",
    "grids.occupied_cells": "count",
    "grids.alpha_samples": "count",
    "spectral.self_s": "s",
    "spectral.calls": "count",
    "spectral.fft_cells": "count",
    "incidence.self_s": "s",
    "incidence.calls": "count",
    "incidence.tuple_count": "count",
    "scaling.self_s": "s",
    "scaling.calls": "count",
    "scaling.samples": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.artifact_bytes": "bytes",
    "cli.defect_probe_failures": "count",
    "bracket_rel_width": "ratio",
    "trace.overhead_s": "s",
}

# Modules expected to hold most of each workload's traced self time.
DOMINANT = {
    "discrete": ("discrete", "geom"),
    "product_ladder": ("measure",),
    "grid_route": ("grids", "measure", "spectral", "incidence"),
    "deep_sets": ("intervals", "cantor"),
}


def _say(line: str) -> None:
    print(line, flush=True)


def _machine_facts() -> dict:
    facts = {"nproc": os.cpu_count()}
    for path, key, name in (
        ("/proc/cpuinfo", "model name", "cpu"),
        ("/proc/meminfo", "MemTotal", "mem_total"),
    ):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    facts[name] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            facts[name] = "unknown"
    return facts


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n_design: int) -> float:
    """Highest percentile with at least ten samples beyond it, for a run of
    the design size (tasks per pass x MIN_PASSES), so that every run of a
    workload reports the same percentile."""
    for p in TAIL_PERCENTILES:
        if n_design * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _normalize(res: dict, setup_s: float) -> None:
    """Put a pass's times on the reference speed (see REF_CALIB_S)."""
    for t in res["tasks"]:
        t["norm_s"] = t["latency_s"] * REF_CALIB_S / t["calib_s"]
    res["wall_s"] = sum(t["norm_s"] for t in res["tasks"])
    res["raw_wall_s"] = sum(t["latency_s"] for t in res["tasks"])
    # set-up and self times span the pass, so they take its median speed
    factor = REF_CALIB_S / statistics.median(t["calib_s"] for t in res["tasks"])
    res["setup_s"] = setup_s * factor
    res["raw_setup_s"] = setup_s
    if res["trace"]:
        for key, val in res["trace"]["metrics"].items():
            if key.endswith(".self_s") or key == "intervals.us_per_interval":
                res["trace"]["metrics"][key] = val * factor


class Run:
    """The passes of one workload run and their aggregation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, toy: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.toy = trace, toy
        self.n_tasks = len(workloads.tasks_for(workload, seed, toy))
        self.min_passes = 2 if toy else MIN_PASSES
        self.passes: list[dict] = []
        self.broken_passes: list[str] = []
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"

    def _one_pass(self, traced: bool, deadline: float) -> None:
        k = len(self.passes) + len(self.broken_passes)
        pass_dir = self.workdir / f"pass{k}"
        pass_dir.mkdir(parents=True)
        result_path = pass_dir / "result.json"
        cmd = [
            sys.executable,
            str(HERE / "one_pass.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", str(pass_dir),
            "--result", str(result_path),
        ]
        cmd += ["--trace"] if traced else []
        cmd += ["--toy"] if self.toy else []
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, deadline - spawned),
            )
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            returncode, stderr = None, "pass timed out"
        if returncode == 0 and result_path.exists():
            res = json.loads(result_path.read_text())
            _normalize(res, res["ready"] - spawned)
            res["traced"] = traced
            self.passes.append(res)
        else:
            self.broken_passes.append(f"exit {returncode}: {stderr.strip()[-2000:]}")
        shutil.rmtree(pass_dir, ignore_errors=True)

    def execute(self) -> None:
        start = time.perf_counter()
        deadline = start + HARD_LIMIT_S
        try:
            while True:
                untraced = [p for p in self.passes if not p["traced"]]
                traced = [p for p in self.passes if p["traced"]]
                if self.trace:
                    short = len(untraced) < MIN_TRACED or len(traced) < MIN_TRACED
                    want_trace = len(traced) < len(untraced)
                else:
                    short = len(untraced) < self.min_passes
                    want_trace = False
                elapsed = time.perf_counter() - start
                if not short and elapsed >= self.seconds:
                    break
                if time.perf_counter() >= deadline or len(self.broken_passes) >= 2:
                    break
                self._one_pass(want_trace, deadline)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- aggregation --------------------------------------------------------

    def report(self) -> dict:
        untraced = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        all_tasks = [t for p in self.passes for t in p["tasks"]]
        attempted = len(all_tasks) + self.n_tasks * len(self.broken_passes)
        failed = sum(not t["ok"] for t in all_tasks) + self.n_tasks * len(self.broken_passes)

        digests: dict[str, set] = {}
        for t in all_tasks:
            if t["ok"]:
                digests.setdefault(t["id"], set()).add(t["digest"])
        unstable = sorted(tid for tid, ds in digests.items() if len(ds) > 1)
        correct = failed == 0 and not unstable and bool(untraced)

        _say(f"# workload={self.workload} seed={self.seed} seconds={self.seconds} "
             f"trace={int(self.trace)} passes={len(untraced)} untraced + {len(traced)} traced"
             f" ({len(self.broken_passes)} broken)")
        facts = _machine_facts()
        if self.passes:
            facts.update(self.passes[0]["machine"])
            facts["threads_observed"] = sorted({p["threads"] for p in self.passes})
        _say("# machine " + json.dumps(facts, sort_keys=True))
        for msg in self.broken_passes:
            _say(f"# BROKEN PASS {msg}")
        for t in all_tasks:
            if not t["ok"]:
                _say(f"# FAILED task {t['id']}: {t.get('error')}")
        for tid in unstable:
            _say(f"# FAILED task {tid}: outputs differ between passes of one seed")

        metrics: dict[str, dict] = {}
        if untraced:
            metrics.update(self._end_to_end(untraced))
        brackets = [w for t in (self.passes[0]["tasks"] if self.passes else []) for w in t.get("brackets", [])]
        bracket_width = statistics.median(brackets) if brackets else 0.0
        fail_frac = failed / attempted if attempted else 1.0
        _say(f"# fail_frac = {fail_frac:.6g} ratio ({failed} of {attempted} tasks)")
        _say(f"# bracket_rel_width = {bracket_width:.6g} ratio "
             f"(median of {len(brackets)} brackets; 0 where results are exact)")
        probes = self.passes[0]["probes"] if self.passes else []
        for pr in probes:
            _say(f"# known defect probe {pr['id']}: {'ok' if pr['ok'] else pr.get('error')}")

        if self.trace:
            metrics = self._per_layer(untraced, traced, bracket_width, probes)
        return {
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": metrics,
        }

    def _end_to_end(self, untraced: list[dict]) -> dict:
        n = len(untraced)
        lat = sorted(t["norm_s"] for p in untraced for t in p["tasks"])
        p_tail = tail_percentile(self.n_tasks * self.min_passes)
        tail = _percentile(lat, p_tail)
        beyond = sum(x > tail for x in lat)
        values = {
            "wall_s": (statistics.median(p["wall_s"] for p in untraced), f"median of {n} passes"),
            "task_p50_s": (statistics.median(lat), f"median of {len(lat)} task latencies"),
            "task_tail_s": (tail, f"p{p_tail:g} of {len(lat)} task latencies, {beyond} beyond it"),
            "setup_s": (statistics.median(p["setup_s"] for p in untraced), f"median of {n} set-ups"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), f"median of {n} passes"),
        }
        out = {}
        for name, (value, note) in values.items():
            unit = END_TO_END[name]
            _say(f"# {name} = {value:.6g} {unit} ({note})")
            out[name] = {"value": value, "unit": unit}
        raw_wall = statistics.median(p["raw_wall_s"] for p in untraced)
        raw_setup = statistics.median(p["raw_setup_s"] for p in untraced)
        calib = statistics.median(t["calib_s"] for p in untraced for t in p["tasks"])
        _say(f"# unnormalized: wall {raw_wall:.6g} s, set-up {raw_setup:.6g} s; "
             f"calibration mix {calib * 1e3:.4g} ms (reference {REF_CALIB_S * 1e3:g} ms)")
        return out

    def _per_layer(self, untraced, traced, bracket_width, probes) -> dict:
        if not traced or not untraced:
            return {}
        first = traced[0]["trace"]["metrics"]
        for p in traced[1:]:
            for key, val in p["trace"]["metrics"].items():
                if not key.endswith("self_s") and key != "intervals.us_per_interval" and val != first.get(key):
                    _say(f"# WARNING counter {key} differs between traced passes: {val} vs {first.get(key)}")
        values = {}
        for name in PER_LAYER:
            if name.endswith(".self_s") or name == "intervals.us_per_interval":
                values[name] = statistics.median(p["trace"]["metrics"].get(name, 0.0) for p in traced)
            else:
                values[name] = first.get(name, 0)
        values["bracket_rel_width"] = bracket_width
        values["cli.defect_probe_failures"] = sum(not pr["ok"] for pr in probes)
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in untraced
        )
        total_self = sum(values[f"{m}.self_s"] for m in MODULES)
        dom = sum(values[f"{m}.self_s"] for m in DOMINANT[self.workload])
        share = dom / total_self if total_self else 0.0
        design = [
            (f"{'+'.join(DOMINANT[self.workload])} hold {share:.1%} of traced self time "
             f"({total_self:.4g} s)", share > 0.5),
        ]
        if self.workload == "grid_route":
            design.append(("measure.atoms_calls is 0", values["measure.atoms_calls"] == 0))
        if self.workload != "discrete":
            design.append(("discrete and geom are never called",
                           values["discrete.calls"] == values["geom.calls"] == 0))
        for what, ok in design:
            _say(f"# design {'ok' if ok else 'NOT MET'}: {what}")
        for fn, secs in traced[0]["trace"]["top_functions"]:
            _say(f"#   self {secs:9.4f} s (unnormalized)  {fn}")
        out = {}
        for name, unit in PER_LAYER.items():
            _say(f"# {name} = {values[name]:.6g} {unit}")
            out[name] = {"value": values[name], "unit": unit}
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "unitdist" / "cli.py").is_file():
        print(f"error: no unitdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.toy)
        run.execute()
        results[name] = run.report()
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
