"""Smoke test of the benchmark: every workload at toy size, on two seeds,
untraced and traced; each run must be correct and print every metric named
in BENCHMARK.json with its unit.

    python3 perfbench/smoke.py

Takes about a minute on a 2-CPU box. Exit code 0 when all runs pass.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _check_run(workload: str, seed: int, trace: int, units: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    found = []
    if not result["correct"] or result["failed"]:
        found.append(f"not correct\n{proc.stdout}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        wrong = sorted(k for k in set(got) | set(units) if got.get(k) != units.get(k))
        found.append(f"metrics missing, extra or with a wrong unit: {wrong}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                where = f"{workload} seed={seed} trace={trace}"
                found = _check_run(workload, seed, trace, expected[trace])
                print(("FAIL " if found else "ok ") + where, flush=True)
                problems += [f"{where}: {p}" for p in found]
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
