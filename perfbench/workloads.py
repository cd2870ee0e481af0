"""The benchmark's workloads and the seeded run configs they feed the CLI.

Seed 0 gives the canonical inputs. Any other seed shifts every erasure
probability of the workload by one offset drawn uniformly from
[-EPS_JITTER, EPS_JITTER] and rounded to six decimals. The offset is small
enough that T_min moves by at most one step near the MAP threshold, so the
work a run does stays within a few per cent of seed 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EPS_JITTER = 5e-5
ENSEMBLE = {"L": "x^3", "R": "x^6"}
SUCCESS = {"policy": "average", "threshold": 1.0e-6}
EPS_STEP = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # scwde subcommand
    epsilons: tuple[float, ...]  # seed-0 erasure probabilities, ascending
    base: dict  # every config key except epsilon

    def epsilon_offset(self, seed: int) -> float:
        if seed == 0:
            return 0.0
        return round(random.Random(seed).uniform(-EPS_JITTER, EPS_JITTER), 6)

    def config(self, seed: int) -> dict:
        """The YAML mapping the CLI receives for this seed."""
        d = self.epsilon_offset(seed)
        eps = [round(e + d, 6) for e in self.epsilons]
        cfg = {"ensemble": dict(ENSEMBLE), **self.base}
        if len(eps) == 1:
            cfg["epsilon"] = eps[0]
        else:
            cfg["epsilon"] = {"start": eps[0], "stop": eps[-1], "step": EPS_STEP}
        return cfg

    def expected_epsilons(self, seed: int) -> list[float]:
        """The erasure probabilities the CLI expands the config to."""
        eps = self.config(seed)["epsilon"]
        if isinstance(eps, float):
            return [eps]
        return [round(eps["start"] + i * EPS_STEP, 12) for i in range(len(self.epsilons))]


_SPEED = {
    "N": 100,
    "w": 4,
    "T": "auto",
    "T_max": 200,
    "alpha": 1.0,
    "schedule": "extended",
    "success": dict(SUCCESS),
}

WORKLOADS = {
    w.name: w
    for w in (
        # The table1 preset unchanged.
        Workload("speed-table", "speed", (0.465,), {**_SPEED, "W": [12, 14, 16, 18]}),
        # The near-threshold end of the fig4 (3,6) staircase.
        Workload("speed-near", "speed", (0.470, 0.475, 0.480), {**_SPEED, "W": 15}),
        # The fig3 wave run on a chain four times as long.
        Workload(
            "wave-export",
            "wave",
            (0.42,),
            {
                "N": 400,
                "w": 3,
                "W": 11,
                "T": 6,
                "schedule": "literal",
                "record": {"policy": "per-window"},
            },
        ),
    )
}
