#!/usr/bin/env python3
"""Regenerate the brute-force threshold fixture used by the acceptance suite.

Scans the erasure probability in steps of 1e-4 around each threshold and
records the last grid point on the convergent (resp. non-negative-potential)
side and the first on the other side. The scan runs DE from x = 1 at each
grid point, deliberately independent of the fixed-point curve the package
reads both thresholds from.

Usage: python scripts/gen_threshold_fixtures.py [--out tests/fixtures/thresholds.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from scwde.scalar import UncoupledEnsemble, de_step, potential

STEP = 1e-4
DE_TOL = 1e-12
DE_MAX_ITER = 100_000
# A DE limit below this is the zero fixed point; the nontrivial fixed points
# of the scanned ensembles sit many orders of magnitude higher (~1e-1).
ZERO_LIMIT = 1e-9


def de_limit(eps: float, ens: UncoupledEnsemble) -> float:
    """DE from x = 1 until a step is below DE_TOL, x reaches 0, or
    DE_MAX_ITER steps are taken."""
    x = 1.0
    for _ in range(DE_MAX_ITER):
        x_next = de_step(x, eps, ens)
        step, x = x - x_next, x_next
        if x == 0.0 or step < DE_TOL:
            break
    return x


def scan_bp(ens: UncoupledEnsemble, lo: float, hi: float) -> dict:
    last_pass = first_fail = None
    eps = lo
    while eps <= hi + 1e-12:
        ok = de_limit(eps, ens) < ZERO_LIMIT
        if ok:
            last_pass = eps
        elif first_fail is None:
            first_fail = eps
        eps = round(eps + STEP, 10)
    return {"last_converges": last_pass, "first_diverges": first_fail, "step": STEP}


def scan_map(ens: UncoupledEnsemble, lo: float, hi: float) -> dict:
    last_nonneg = first_neg = None
    eps = lo
    while eps <= hi + 1e-12:
        limit = de_limit(eps, ens)
        u = 0.0 if limit < ZERO_LIMIT else potential(limit, eps, ens)
        if u >= 0.0:
            last_nonneg = eps
        elif first_neg is None:
            first_neg = eps
        eps = round(eps + STEP, 10)
    return {"last_nonnegative": last_nonneg, "first_negative": first_neg, "step": STEP}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "tests/fixtures/thresholds.json",
    )
    args = parser.parse_args()
    fixture = {}
    for label, ens, bp_lo, bp_hi, map_lo, map_hi in (
        ("x3_x6", UncoupledEnsemble.regular(3, 6), 0.425, 0.434, 0.484, 0.493),
        ("x4_x8", UncoupledEnsemble.regular(4, 8), 0.379, 0.388, 0.493, 0.502),
    ):
        fixture[label] = {
            "bp": scan_bp(ens, bp_lo, bp_hi),
            "map": scan_map(ens, map_lo, map_hi),
        }
        print(label, fixture[label])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
