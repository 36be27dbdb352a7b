"""One pass through a workload's task list, in a fresh process.

    python3 perfbench/one_pass.py --workload W --seed N --workdir DIR \
        --result FILE [--trace] [--toy]

Set-up is everything before the first task: interpreter start, importing
`unitdist.cli`, and generating and writing the task configs. The parent
process reads the `ready` clock (CLOCK_MONOTONIC, shared across processes)
to time it. Each task then runs the way a user runs it, and its outputs are
checked before the next task starts. A calibration mix is timed before the
first task and after every task, so the parent can put each task's time on
a reference machine speed. The pass writes one JSON result file.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def _machine(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _calibrate(np) -> float:
    """Median seconds of three runs of a fixed mix of interpreter, Fraction,
    small-array and cache-sized FFT work: a sample of the machine's speed."""
    small = np.linspace(0.0, 1.0, 200)
    big = np.linspace(0.0, 1.0, 1 << 15)
    third = Fraction(1, 3)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        for _ in range(10):
            acc += int((((small[:, None] - small[None, :]) ** 2) < 0.25).sum())
        q = Fraction(0)
        for i in range(1_000):
            q += third / (i + 1)
        for _ in range(2):
            acc += int(np.fft.irfft(np.fft.rfft(big) * 0.5).argmax())
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import checks
    import workloads
    from unitdist import cli, intervals, scaling

    workdir = Path(args.workdir)
    tasks = workloads.tasks_for(args.workload, args.seed, args.toy)
    probes = workloads.defect_probes(args.workload)
    for task in tasks + probes:
        if task.kind != "covering":
            path = workdir / "configs" / f"{task.id}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(task.config))
    ready = time.perf_counter()

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    def execute(task):
        """Run one task; returns (exit code, in-memory result)."""
        if task.kind == "covering":
            axis = scaling.CantorAxis(task.config["p"], task.config["q"])
            deltas = [Fraction(1, 1 << k) for k in task.config["delta_exps"]]
            series = scaling.neighborhood_measure_series([axis], deltas)
            return 0, (series, scaling.fit_exponent(series))
        out = workdir / "out" / task.id
        code = cli.run_config(
            workdir / "configs" / f"{task.id}.json", kind=task.kind, out_override=out
        )
        if code == 0 and task.kind == "cantor":
            text = (out / "fattened.txt").read_text()
            return code, intervals.IntervalUnion.from_text(text)
        return code, None

    def run_task(task, idx) -> dict:
        rec = {"id": task.id, "kind": task.kind, "ok": False}
        t0 = time.perf_counter()
        if tracer:
            tracer.task = idx
        try:
            code, result = execute(task)
        except Exception as exc:  # a crash is a failed task, never a stopped pass
            rec["latency_s"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            return rec
        finally:
            if tracer:
                tracer.task = None
        rec["latency_s"] = time.perf_counter() - t0
        rec["code"] = code
        if code != 0:
            rec["error"] = f"exit code {code}"
            return rec
        out = workdir / "out" / task.id
        try:
            rec["brackets"] = checks.CHECKS[task.kind](task, out, result)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            rec["error"] = f"check failed: {exc}"
            return rec
        rec["digest"] = (
            checks.covering_digest(result)
            if task.kind == "covering"
            else checks.artifact_digest(out)
        )
        rec["ok"] = True
        return rec

    # The machine's speed is sampled before the first task and after every
    # task; each task is paired with the mean of the samples around it.
    calib = [_calibrate(np)]
    records = []
    for i, task in enumerate(tasks):
        records.append(run_task(task, i))
        calib.append(_calibrate(np))
        records[-1]["calib_s"] = (calib[-2] + calib[-1]) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = _threads()
    trace = tracer.summary() if tracer else None
    probe_records = [run_task(task, len(tasks) + i) for i, task in enumerate(probes)]

    result = {
        "ready": ready,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "machine": _machine(np),
        "tasks": records,
        "probes": probe_records,
        "trace": trace,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
