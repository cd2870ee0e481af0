"""Regenerate the seed-0 references in ``reference/`` from the current program.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its outputs,
and say so where the change is recorded. Speed workloads keep their
``speed.csv`` as is. ``wave-export`` keeps, instead of its 25 MB trajectory,
the values each window sweep writes (``updates``, shape c_max × T × W) and
the potential trace and the trajectory's SHA-256; ``check.py`` replays the
updates to rebuild every trajectory row. The script verifies that replay
before it saves.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from check import REFERENCE, sha256, wave_shape, replay
from run import WORK, WORKERS, cli_argv, launch
from workloads import WORKLOADS


def save_wave(name: str, cfg: dict, out: str) -> bool:
    c_max, T, W, chain = wave_shape(cfg)
    x = np.loadtxt(f"{out}/trajectory.csv", delimiter=",", skiprows=1)[:, 3]
    x = x.reshape(c_max, T + 1, chain)
    updates = np.stack([x[c, 1:, c : c + W] for c in range(c_max)])
    if not np.array_equal(replay(updates, chain), x):
        print("trajectory does not replay from its in-window updates", file=sys.stderr)
        return False
    potential = np.loadtxt(f"{out}/potential_trace.csv", delimiter=",", skiprows=1)[:, 2]
    np.savez_compressed(
        REFERENCE / f"{name}.npz",
        updates=updates,
        potential=potential,
        trajectory_sha256=sha256(Path(out) / "trajectory.csv"),
    )
    shutil.copy(f"{out}/steady_state.json", REFERENCE / f"{name}-steady.json")
    return True


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=WORK)
        try:
            cfg = workload.config(0)
            config, out = f"{work}/run.yaml", f"{work}/out"
            with open(config, "w") as fh:
                yaml.safe_dump(cfg, fh, sort_keys=False)
            if not launch(cli_argv(workload, config, out, WORKERS), WORK / "reference.log").ok:
                return 1
            if workload.command == "speed":
                shutil.copy(f"{out}/speed.csv", REFERENCE / f"{name}.csv")
            elif not save_wave(name, cfg, out):
                return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"reference written for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
