"""Print per-metric ratios between two benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW each hold the standard output of one `bench/run.py` run (its
last line is the result object), typically with --trace 1 on the same
workload and seed. Every metric is printed with its base value, its new
value and new/base; a ratio over a zero base is shown as n/a.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1])["metrics"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    print(f"{'metric':<44} {'base':>14} {'new':>14} {'unit':<6} {'new/base':>9}")
    for name in list(base) + [n for n in new if n not in base]:
        b = base.get(name, {}).get("value")
        n = new.get(name, {}).get("value")
        unit = (base.get(name) or new.get(name))["unit"]
        ratio = f"{n / b:9.3f}" if b and n is not None else f"{'n/a':>9}"
        shown = [f"{v:14.6g}" if v is not None else f"{'-':>14}" for v in (b, n)]
        print(f"{name:<44} {shown[0]} {shown[1]} {unit:<6} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
