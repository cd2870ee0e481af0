"""Print every metric of every workload by name and unit, as one table.

    python3 perfbench/report.py --seed 0 --seconds 30 --trace both

``--trace 0`` gives the end-to-end metrics (untraced runs), ``--trace 1``
the per-layer metrics (one traced run per workload), ``both`` the two in
turn. Each table ends with ``wrong_rows`` and ``failed_frac``, and the
environment of every run is printed under it.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import measure, require_sources, unit
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args()
    require_sources()
    modes = (False, True) if args.trace == "both" else (args.trace == "1",)
    correct = True
    for trace in modes:
        results = [measure(name, args.seed, args.seconds, trace) for name in WORKLOADS]
        metrics = [*results[0]["metrics"], "wrong_rows", "failed_frac"]
        width = max(map(len, metrics))
        print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{n:>16}" for n in WORKLOADS))
        for metric in metrics:
            values = [r["metrics"].get(metric, r.get(metric)) for r in results]
            cells = "".join(f"{v:>16d}" if isinstance(v, int) else f"{v:>16.6g}" for v in values)
            print(f"{metric:<{width}}  {unit(metric):<6}{cells}")
        for r in results:
            print(f"env {r['workload']}: {json.dumps(r['env'])}")
            correct = correct and r["wrong_rows"] == 0 and r["failed"] == 0
        print()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
