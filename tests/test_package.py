"""Package layout: every name has one home module, and the package root
re-exports nothing."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import unitdist


def test_every_listed_name_resolves_and_the_root_loads_no_module():
    modules = [m.name for m in pkgutil.iter_modules(unitdist.__path__)]
    assert "cli" in modules
    for name in modules:
        if name == "__main__":
            continue
        mod = importlib.import_module(f"unitdist.{name}")
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"unitdist.{name}.__all__ lists {attr!r}"

    src = str(Path(unitdist.__file__).parents[1])
    probe = "import sys, unitdist; print([m for m in sys.modules if m.startswith('unitdist.')])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def _load_tracer():
    """perfbench/tracer.py as a module, read from the checkout."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_counter_hook_names_a_public_function():
    # a hook on a deleted or private name would leave its counter at 0
    tracer = _load_tracer()
    for module, name in tracer._HOOKS:
        mod = importlib.import_module(f"unitdist.{module}")
        public = getattr(mod, "__all__", None) or tracer._CLI_PUBLIC
        assert name.split(".")[0] in public, f"unitdist.{module} has no public {name!r}"
        obj = mod
        for part in name.split("."):
            obj = getattr(obj, part)
        assert callable(obj) or isinstance(obj, property)
    # the interval counter reads this view off every returned union
    from unitdist.intervals import IntervalUnion

    assert isinstance(IntervalUnion.intervals, property)
