"""Per-layer metrics derived from the spans of one traced CLI run.

The module a function lives in is its layer. Busy time is the span's
duration; self time subtracts the part of that interval its child spans
cover. Ratios whose base is zero (no ``measure_speed`` call on the
``wave-export`` workload) read as 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "speed.search_runs": ("count", "lower"),
    "speed.search_useful_ratio": ("ratio", "higher"),
    "speed.point_s_median": ("s", "lower"),
    "speed.point_s_max": ("s", "lower"),
    "speed.steady_s": ("s", "lower"),
    "speed.bounds_s": ("s", "lower"),
    "window.sweeps": ("count", "lower"),
    "window.position_updates": ("count", "lower"),
    "window.run_wd_calls": ("count", "lower"),
    "window.run_wd_s": ("s", "lower"),
    "window.sweeps_per_s": ("1/s", "higher"),
    "window.recorded_states": ("count", "lower"),
    "window.recorded_mib": ("MiB", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_rows": ("count", "higher"),
    "cli.output_bytes": ("B", "lower"),
    "cli.rows_per_s": ("1/s", "higher"),
    "cli.rows_byte_changed": ("count", "lower"),
    "coupled.potential_calls": ("count", "lower"),
    "coupled.potential_s": ("s", "lower"),
    "scalar.landscape_calls": ("count", "lower"),
    "scalar.landscape_s": ("s", "lower"),
    "scalar.map_threshold_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _self_time(spans: list, i: int, children: list[int]) -> float:
    start, end = spans[i][1], spans[i][2]
    covered, reached = 0.0, start
    for j in sorted(children, key=lambda j: spans[j][1]):
        lo, hi = max(spans[j][1], reached), min(spans[j][2], end)
        if hi > lo:
            covered += hi - lo
            reached = hi
    return end - start - covered


def layer_metrics(
    spans: list,
    output_rows: int,
    output_bytes: int,
    rows_byte_changed: int,
    overhead_s: float,
) -> dict[str, float]:
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            children[parent].append(i)

    def busy(*names: str) -> float:
        return sum(spans[i][2] - spans[i][1] for n in names for i in by_name[n])

    runs = [spans[i] for i in by_name["window.run_wd"]]
    search_runs = sum(
        1
        for span in runs
        if not span[4]["recording"]
        and span[3] is not None
        and spans[span[3]][0] == "speed.measure_speed"
    )
    points = [spans[i][2] - spans[i][1] for i in by_name["speed.measure_speed"]]
    sweeps = sum(span[4]["sweeps"] for span in runs)
    run_wd_s = busy("window.run_wd")
    states = sum(span[4]["states"] for span in runs)
    recorded_bytes = sum(span[4]["states"] * span[4]["chain"] * 8 for span in runs)
    cli_self = sum(
        _self_time(spans, i, children[i])
        for n in ("cli.cmd_speed", "cli.cmd_wave")
        for i in by_name[n]
    )
    return {
        "speed.search_runs": search_runs,
        "speed.search_useful_ratio": len(points) / search_runs if search_runs else 0.0,
        "speed.point_s_median": statistics.median(points) if points else 0.0,
        "speed.point_s_max": max(points, default=0.0),
        "speed.steady_s": busy("speed.detect_steady_state"),
        "speed.bounds_s": busy("speed.bound_a1", "speed.bound_th2"),
        "window.sweeps": sweeps,
        "window.position_updates": sum(span[4]["sweeps"] * span[4]["W"] for span in runs),
        "window.run_wd_calls": len(runs),
        "window.run_wd_s": run_wd_s,
        "window.sweeps_per_s": sweeps / run_wd_s if run_wd_s else 0.0,
        "window.recorded_states": states,
        "window.recorded_mib": recorded_bytes / 2**20,
        "cli.self_s": cli_self,
        "cli.output_rows": output_rows,
        "cli.output_bytes": output_bytes,
        "cli.rows_per_s": output_rows / cli_self if cli_self else 0.0,
        "cli.rows_byte_changed": rows_byte_changed,
        "coupled.potential_calls": len(by_name["coupled.coupled_potential"]),
        "coupled.potential_s": busy("coupled.coupled_potential"),
        "scalar.landscape_calls": len(by_name["scalar.landscape"]),
        "scalar.landscape_s": busy("scalar.landscape"),
        "scalar.map_threshold_s": busy("scalar.map_threshold"),
        "config.load_s": busy("config.load_config"),
        "trace.overhead_s": overhead_s,
    }
