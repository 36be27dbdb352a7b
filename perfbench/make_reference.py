"""Regenerate reference.json: product-ladder values and their quadrature
errors for every (scale, width multiplier) the generator can emit.

    python3 perfbench/make_reference.py

The values are the library's own output at the commit that recorded them;
later commits are checked against them through overlapping error brackets,
so rerun this only when a change of value is intended and explained.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from unitdist.scaling import CantorAxis, sweep  # noqa: E402


def main() -> int:
    axes = [CantorAxis(1, 2, shift=Fraction(1)), CantorAxis(1, 2)]
    values = {}
    for exp in workloads.LADDER_EXPONENTS:
        for w in workloads.LADDER_WIDTHS:
            (s,) = sweep(axes, [Fraction(1, 1 << exp)], method="product", width_multiplier=w).samples
            values[checks.reference_key(exp, w)] = [s.value, s.high - s.value]
            print(checks.reference_key(exp, w), s.value, s.high - s.value, flush=True)
    doc = {
        "about": "C(1,2)+1 x C(1,2) product band measure |D^delta|: [value, quadrature_error]",
        "values": values,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
