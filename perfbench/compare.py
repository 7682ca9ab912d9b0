"""Compare the operation counts of two traced runs.

Counts (metrics with unit ``count``) are pure functions of the inputs
and the configuration on the single-process workloads, so two traced
runs of the same code must agree exactly; any difference is flagged.
Usage, on the saved stdout of two ``--trace 1`` runs (the last line of
each is the JSON result)::

    python3 perfbench/compare.py BASE.txt NEW.txt
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple


def counts(result: Dict) -> Dict[str, float]:
    """The count metrics of a result object (``{"metrics": {...}}``)."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def changed(base: Dict[str, float], new: Dict[str, float]
            ) -> List[Tuple[str, float, float]]:
    """``(name, base, new)`` for every count that differs, sorted by name."""
    return [(name, base.get(name, 0), new.get(name, 0))
            for name in sorted(set(base) | set(new))
            if base.get(name, 0) != new.get(name, 0)]


def _load(path: str) -> Dict:
    """The last JSON result line of a saved run output."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.startswith("{")]
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    diffs = changed(counts(_load(argv[0])), counts(_load(argv[1])))
    for name, old, new in diffs:
        ratio = f"{new / old:.3f}x" if old else "new"
        print(f"CHANGED {name}: {old:g} -> {new:g} ({ratio})")
    if not diffs:
        print("counts identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
