"""Outside-in span and counter recorder for the unitdist modules.

`install()` wraps every public function in each module's `__all__` (for
`cli`, its public entry points) and every public method and property of the
classes listed there. Each wrapper is rebound in every `unitdist` module
namespace that holds the original, so `cli.sweep`, `discrete.general_position_check`
and `scaling.rasterize` all go through it. The library itself is not edited.

Each call appends one span (module, function, start, end, parent, task id)
to an in-memory list; counters are read off the arguments and the result at
the same boundary. Counter hooks run after the call's end time is taken and
before the parent's clock resumes, so their cost is charged to no layer.
Self time of a span is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from pathlib import Path

MODULES = (
    "discrete",
    "geom",
    "intervals",
    "cantor",
    "measure",
    "grids",
    "scaling",
    "spectral",
    "incidence",
    "cli",
)

# cli has no __all__; these are its public callables.
_CLI_PUBLIC = ("run_config", "main", "emit_csv")


def _grid_cells(G) -> int:
    return math.prod(len(m) for m in G.axis_masks)


def _product_blocks(args, kwargs) -> int:
    F = args[0] if args else kwargs["F"]
    B = args[1] if len(args) > 1 else kwargs["B"]
    return F.n_intervals + B.n_intervals


def _artifact_bytes(args, kwargs) -> int:
    out = kwargs.get("out_override") or (args[2] if len(args) > 2 else None)
    if out is None:
        return 0
    # the manifest is left out: its wall-time field varies in length
    return sum(
        p.stat().st_size
        for p in Path(out).iterdir()
        if p.is_file() and p.name != "manifest.json"
    )


def _cantor_depth(args, kwargs) -> int:
    spec = args[0] if args else kwargs["spec"]
    stage = args[1] if len(args) > 1 else kwargs["stage"]
    return stage * spec.q


# (module, qualified name) -> hook(args, kwargs, result) -> {counter: increment}
# Counters named "max:<name>" keep a maximum, "list:<name>" collect samples
# whose median is reported; every other counter is summed.
_HOOKS = {
    ("discrete", "count_unit_pairs_bruteforce"): lambda a, k, r: {
        "points": a[0].n,
        "brute_pairs": a[0].n * a[0].n,
        "unit_pairs": r,
    },
    ("discrete", "count_unit_pairs_grid"): lambda a, k, r: {
        "points": a[0].n,
        "unit_pairs": r,
    },
    ("discrete", "unit_step_census"): lambda a, k, r: {"points": a[0].n},
    ("discrete", "random_general_position"): lambda a, k, r: {"sets": 1},
    ("geom", "general_position_check"): lambda a, k, r: {
        "gp_checks": 1,
        "gp_subsets_tested": r.subsets_tested,
    },
    ("geom", "unit_frame_solutions"): lambda a, k, r: {
        "frames": 1,
        "frame_solutions": len(r),
    },
    ("cantor", "cantor_stage"): lambda a, k, r: {
        "intervals_built": r.n_intervals,
        "max:max_depth_bits": _cantor_depth(a, k),
    },
    ("measure", "pair_band_measure_product"): lambda a, k, r: {
        "dense_calls": int(r.method == "dense"),
        "atoms_calls": int(r.method == "atoms"),
        "blocks_in": _product_blocks(a, k),
        "list:quad_rel_err": r.quadrature_error / r.value if r.value else 0.0,
    },
    ("measure", "pair_band_mass"): lambda a, k, r: {
        "blocks_in": a[0].n_intervals + a[1].n_intervals,
    },
    ("measure", "pair_band_measure_grid"): lambda a, k, r: {
        "grid_outer_pairs": r.outer_pairs,
    },
    ("grids", "rasterize"): lambda a, k, r: {
        "cells": _grid_cells(r),
        "occupied_cells": math.prod(int(m.sum()) for m in r.axis_masks),
    },
    ("grids", "alpha_set_verify"): lambda a, k, r: {"alpha_samples": r.samples_tested},
    ("spectral", "mollify_transform"): lambda a, k, r: {
        "fft_cells": sum(ax.length for ax in getattr(r, "axes", (r,))),
    },
    ("spectral", "ball_convolution_l2"): lambda a, k, r: {"fft_cells": _grid_cells(a[0])},
    ("incidence", "incidence_census"): lambda a, k, r: {"tuple_count": r.tuple_count},
    ("scaling", "sweep"): lambda a, k, r: {"samples": len(r.samples)},
    ("scaling", "neighborhood_measure_series"): lambda a, k, r: {"samples": len(r.samples)},
    ("cli", "run_config"): lambda a, k, r: {"artifact_bytes": _artifact_bytes(a, k)},
}


def _interval_hook(a, k, r) -> dict:
    # every IntervalUnion-returning operation counts the intervals it emits
    n = getattr(r, "intervals", None)
    return {"intervals_out": len(n)} if isinstance(n, tuple) else {}


# Modules whose counters are read only at their outermost span, so that an
# operation built on another one (neighborhood -> from_pairs) counts once.
_OUTERMOST_ONLY = {"intervals"}


class Tracer:
    """Span list plus the wrapping and the per-module summary."""

    def __init__(self) -> None:
        # span: [module, name, start, end_call, end_all, parent, task]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = None
        self.counters: dict[str, dict] = {m: {} for m in MODULES}

    # -- recording ----------------------------------------------------------

    def _wrap(self, module: str, name: str, fn):
        hook = _HOOKS.get((module, name))
        if hook is None and module == "intervals":
            hook = _interval_hook
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        outermost_only = module in _OUTERMOST_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:  # outside a task: benchmark set-up or checks
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [module, name, clock(), 0.0, 0.0, parent, self.task]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None and not (
                outermost_only and parent >= 0 and spans[parent][0] == module
            ):
                self._count(module, hook(args, kwargs, result))
            rec[4] = clock()
            return result

        return traced

    def _count(self, module: str, incs: dict) -> None:
        bucket = self.counters[module]
        for key, val in incs.items():
            if key.startswith("max:"):
                bucket[key] = max(bucket.get(key, val), val)
            elif key.startswith("list:"):
                bucket.setdefault(key, []).append(val)
            else:
                bucket[key] = bucket.get(key, 0) + val

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every module and rebind it everywhere."""
        pkg = importlib.import_module("unitdist")
        mods = {m: importlib.import_module(f"unitdist.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for mname, mod in mods.items():
            names = getattr(mod, "__all__", None) or _CLI_PUBLIC
            for name in names:
                obj = getattr(mod, name)
                if inspect.isclass(obj):
                    self._wrap_class(mname, obj)
                elif inspect.isfunction(obj) and id(obj) not in replaced:
                    replaced[id(obj)] = self._wrap(mname, name, obj)
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                new = replaced.get(id(val))
                if new is not None:
                    setattr(mod, attr, new)

    def _wrap_class(self, module: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(module, label, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(module, label, raw.__func__)))
            elif isinstance(raw, property) and raw.fget is not None:
                setattr(cls, attr, property(self._wrap(module, label, raw.fget)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(module, label, raw))

    # -- summary ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """(self seconds per module, calls per module, self seconds per function)."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[5] >= 0:
                covered[rec[5]] += rec[4] - rec[2]
        per_module = {m: 0.0 for m in MODULES}
        calls = {m: 0 for m in MODULES}
        per_fn: dict[str, float] = {}
        for rec, cov in zip(self.spans, covered):
            own = (rec[3] - rec[2]) - cov
            per_module[rec[0]] += own
            calls[rec[0]] += 1
            key = f"{rec[0]}.{rec[1]}"
            per_fn[key] = per_fn.get(key, 0.0) + own
        return per_module, calls, per_fn

    def summary(self) -> dict:
        """Per-layer metrics of this pass, keyed by their benchmark names."""
        per_module, calls, per_fn = self.self_times()
        out: dict[str, float] = {}
        for m in MODULES:
            out[f"{m}.self_s"] = per_module[m]
            out[f"{m}.calls"] = calls[m]
        c = self.counters
        for m in MODULES:
            for key, val in c[m].items():
                if key.startswith("list:"):
                    out[f"{m}.{key[5:]}"] = statistics.median(val)
                else:
                    out[f"{m}.{key.removeprefix('max:')}"] = val
        sets = c["discrete"].get("sets", 0)
        out["geom.gp_checks_per_set"] = (
            c["geom"].get("gp_checks", 0) / sets if sets else 0.0
        )
        n_out = c["intervals"].get("intervals_out", 0)
        out["intervals.us_per_interval"] = (
            per_module["intervals"] / n_out * 1e6 if n_out else 0.0
        )
        top = sorted(per_fn.items(), key=lambda kv: -kv[1])[:12]
        return {"metrics": out, "top_functions": top, "spans": len(self.spans)}
