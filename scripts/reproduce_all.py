#!/usr/bin/env python3
"""Run every built-in preset and collect the CSV outputs under out/.

Roughly: thresholds for both regular ensembles, the potential landscape,
one recorded wave trajectory, the speed-vs-window table, and the two
speed-vs-erasure staircases. The staircase sweep is the slow part
(about 1.3 s with 2 workers on a 2-vCPU host).

Usage: python scripts/reproduce_all.py [--out out] [--workers N]
"""

from __future__ import annotations

import argparse
import sys

from scwde.cli import default_workers
from scwde.cli import main as scwde_main


def run(argv: list[str]) -> None:
    print(f"$ scwde {' '.join(argv)}")
    code = scwde_main(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out")
    parser.add_argument("--workers", type=int, default=default_workers())
    parser.add_argument(
        "--skip-staircase",
        action="store_true",
        help="skip the slow speed-vs-erasure sweep",
    )
    args = parser.parse_args()

    run(["thresholds", "--preset", "fig4", "--out", f"{args.out}/thresholds"])
    run(["landscape", "--preset", "fig2", "--out", f"{args.out}/landscape"])
    run(["wave", "--preset", "fig3", "--out", f"{args.out}/wave"])
    run([
        "speed", "--preset", "table1", "--out", f"{args.out}/speed_table",
        "--workers", str(args.workers),
    ])
    if not args.skip_staircase:
        run([
            "speed", "--preset", "fig4", "--out", f"{args.out}/speed_staircase",
            "--workers", str(args.workers),
        ])


if __name__ == "__main__":
    main()
