"""Command-line interface: landscape, wave, speed, and thresholds commands."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from itertools import product
from pathlib import Path
from typing import Optional

from .config import ConfigError, RunConfig, load_config, load_preset
from .coupled import CoupledPotentialContext, coupled_potential
from .scalar import NonConvergence, bp_threshold, landscape, map_threshold
from .speed import SpeedReport, detect_steady_state, measure_speed
from .window import CoupledSpec, Trajectory, WindowSchedule, decode_success, run_wd

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

# Lines per formatting template of trajectory.csv. A chunk this short formats
# to a small string; one template per 400-position row would build a string
# of about 10 KB per row and grow the C heap.
_TRAJECTORY_CHUNK = 16


def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, empty for absent."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    """trajectory.csv, byte for byte what ``_write_csv`` writes for the
    (c, t, z, x) rows: ``'%.17g' % v`` equals ``format(v, ".17g")`` for every
    float, and rows end in csv's ``\\r\\n``. Each row is formatted a chunk of
    z at a time, from templates built once whose ``\\0`` stands for the
    row's ``c,t,`` prefix.
    """
    zs = range(1, traj.spec.chain_len + 1)
    chunks = [
        ("".join(f"\0{z},%.17g\r\n" for z in zs[lo : lo + _TRAJECTORY_CHUNK]),
         lo, lo + _TRAJECTORY_CHUNK)
        for lo in range(0, len(zs), _TRAJECTORY_CHUNK)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("c,t,z,x\r\n")
        for c in traj.windows():
            for t, vec in enumerate(traj.block(c).tolist()):
                prefix = f"{c},{t},"
                for template, lo, hi in chunks:
                    fh.write(template.replace("\0", prefix) % tuple(vec[lo:hi]))


def cmd_landscape(cfg: RunConfig, out: Path) -> int:
    if cfg.epsilon is None:
        raise ConfigError("the landscape command needs a single epsilon")
    ens = cfg.ensembles[0]
    land = landscape(cfg.epsilon, ens, grid_n=cfg.grid_n)
    _write_csv(
        out / "landscape.csv",
        ("x", "U", "U_prime", "U_double_prime"),
        zip(land.x, land.U, land.U1, land.U2),
    )
    _write_csv(
        out / "landscape_critical.csv",
        ("x_a", "x_b", "x_c0", "x_d", "x_e", "D"),
        [(land.x_a, land.x_b, land.x_c0, land.x_d, land.x_e, land.D)],
    )
    missing = land.missing()
    print(f"landscape: epsilon={cfg.epsilon} ensemble={ens.label()}")
    if missing:
        print("absent critical points: " + ", ".join(missing))
    return EXIT_OK


def cmd_wave(cfg: RunConfig, out: Path) -> int:
    if cfg.T is None:
        raise ConfigError("the wave command needs an explicit T")
    if cfg.epsilon is None:
        raise ConfigError("the wave command needs a single epsilon")
    if len(cfg.W) != 1:
        raise ConfigError("the wave command needs a single window size")
    ens = cfg.ensembles[0]
    spec = CoupledSpec(ens=ens, N=cfg.N, w=cfg.w, epsilon=cfg.epsilon)
    sched = WindowSchedule(
        W=cfg.W[0], T=cfg.T, variant=cfg.schedule, T_first=cfg.T_first
    )
    c_max, windows = sched.c_max(spec), cfg.record.windows
    if windows is not None and (not windows or not all(1 <= c <= c_max for c in windows)):
        raise ConfigError(f"record.windows must name windows in 1..{c_max}, this run's windows")
    final, traj = run_wd(spec, sched, record=True, record_windows=windows)
    _write_trajectory(out / "trajectory.csv", traj)

    def potential_rows():
        for c in traj.windows():
            ctx = CoupledPotentialContext(spec=spec, sched=sched, c=c, alpha=cfg.alpha)
            for t, x in enumerate(traj.block(c)):
                yield c, t, coupled_potential(x, ctx)

    _write_csv(out / "potential_trace.csv", ("c", "t", "U"), potential_rows())

    steady = detect_steady_state(traj, tol=cfg.steady_tol)
    success = decode_success(
        final, spec, threshold=cfg.success.threshold, policy=cfg.success.policy
    )
    report = {
        "c_prime": steady.c_prime,
        "shift_residual": steady.residual,
        "steady_tol": steady.tol,
        "decode_success": success.success,
        "avg": success.avg,
        "max": success.max,
    }
    (out / "steady_state.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wave: c_prime={steady.c_prime} residual={steady.residual}")
    return EXIT_OK


def _speed_task(cfg: RunConfig, ens, eps: float, W: int) -> SpeedReport:
    """One grid point: the T search over 1..T_max, or over [T, T] for a fixed T.

    Fixed-T runs keep the per-sweep checks; the search runs without them.
    """
    spec = CoupledSpec(ens=ens, N=cfg.N, w=cfg.w, epsilon=eps)
    land = landscape(eps, ens, grid_n=cfg.grid_n) if cfg.bounds else None
    fixed = cfg.T is not None
    return measure_speed(
        spec,
        W,
        T_lo=cfg.T if fixed else 1,
        T_max=cfg.T if fixed else cfg.T_max,
        T_first=cfg.T_first,
        alpha=cfg.alpha,
        success_policy=cfg.success.policy,
        success_threshold=cfg.success.threshold,
        schedule_variant=cfg.schedule,
        steady_tol=cfg.steady_tol,
        land=land,
        compute_bounds=cfg.bounds,
        validate=fixed,
    )


def cmd_speed(cfg: RunConfig, out: Path, workers: Optional[int]) -> int:
    if not cfg.W:
        raise ConfigError("the speed command needs W (a value, list, or grid)")
    multi = len(cfg.ensembles) > 1
    by_label: dict[str, list[SpeedReport]] = {}
    for ens in cfg.ensembles:
        points = list(product(cfg.epsilons(ens), sorted(cfg.W)))
        task = partial(_speed_task, cfg, ens)
        columns = ([eps for eps, _ in points], [W for _, W in points])
        if workers and workers > 1 and len(points) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
                reports = list(pool.map(task, *columns))
        else:
            reports = list(map(task, *columns))
        by_label.setdefault(ens.label(), []).extend(reports)

    for label, reports in by_label.items():
        reports.sort(key=lambda r: (r.epsilon, r.W))
        name = f"speed_{label}.csv" if multi else "speed.csv"
        _write_csv(
            out / name,
            SpeedReport.CSV_COLUMNS,
            (r.csv_values() for r in reports),
        )
        for r in reports:
            status = f"T_min={r.T_min}" if r.T_min is not None else (
                f"no success up to T_max={r.T_max} (best avg {r.best_avg:.3e})"
            )
            print(f"{label} epsilon={r.epsilon} W={r.W}: {status}")
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, out: Optional[Path]) -> int:
    rows = []
    for ens in cfg.ensembles:
        eps_bp = bp_threshold(ens)
        eps_map = map_threshold(ens)
        rows.append((ens.label(), eps_bp, eps_map))
        print(f"{ens.label()}: eps_bp={eps_bp:.6f} eps_map={eps_map:.6f}")
    if out is not None:
        _write_csv(out / "thresholds.csv", ("ensemble", "eps_bp", "eps_map"), rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scwde",
        description=(
            "Density evolution, potential landscapes, and wave-speed bounds "
            "for spatially coupled LDPC ensembles under windowed decoding."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("landscape", "sample the scalar potential and locate critical points"),
        ("wave", "run one windowed-decoding trajectory and export it"),
        ("speed", "measure propagation speeds and bounds over a grid"),
        ("thresholds", "print BP and MAP thresholds per ensemble"),
    ):
        p = sub.add_parser(name, help=desc)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="YAML run configuration")
        src.add_argument(
            "--preset",
            choices=("table1", "fig2", "fig3", "fig4"),
            help="named built-in configuration",
        )
        p.add_argument("--out", type=Path, default=Path("scwde_out"))
        if name == "speed":
            p.add_argument(
                "--workers",
                type=int,
                default=os.cpu_count(),
                help="parallel grid points (default: CPU count)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_preset(args.preset) if args.preset else load_config(args.config)
        out = args.out
        if args.command == "landscape":
            return cmd_landscape(cfg, out)
        if args.command == "wave":
            return cmd_wave(cfg, out)
        if args.command == "speed":
            return cmd_speed(cfg, out, args.workers)
        return cmd_thresholds(cfg, out)
    # A pool worker's exception arrives here with its own type and maps as in
    # a one-process run; a type not named below is a fault of the program.
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, ArithmeticError) as exc:  # ChainCheckError, ZeroDivisionError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenProcessPool as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
