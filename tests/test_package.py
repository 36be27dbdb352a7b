"""Package layout: every name has one home module, and the package root
re-exports nothing."""

import importlib
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
