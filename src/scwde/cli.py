"""Command-line interface: landscape, wave, speed, and thresholds commands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import PRESETS, ConfigError, RunConfig, load_config, load_preset
from .coupled import coupled_potential
from .scalar import NonConvergence, UncoupledEnsemble, bp_threshold, landscape, map_threshold
from .speed import SpeedReport, SteadyStateScan, decode_success, measure_speed
from .window import CoupledSpec, run_wd

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, empty for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _trajectory_writer(fh, chain_len: int):
    """Write the trajectory.csv header to ``fh`` and return ``write(c,
    block)``, which appends window c's rows: byte for byte what
    ``_write_csv`` writes for the (c, t, z, x) rows. A row is its ``c,t,``
    prefix before each position's ``z,x\\r\\n`` cell, and a cell is
    formatted again only where the float64 bit pattern differs from the last
    row written, in this block or an earlier one: a sweep changes W cells,
    and bits, unlike ``==``, tell 0.0 from -0.0 and match a NaN to itself.
    """
    cells, last = [""] * chain_len, None
    fh.write("c,t,z,x\r\n")

    def write(c: int, block: np.ndarray) -> None:
        nonlocal last
        for t, (row, bits) in enumerate(zip(block, block.view(np.int64))):
            changed = np.arange(len(row)) if last is None else np.flatnonzero(bits != last)
            for z, v in zip(changed.tolist(), row[changed].tolist()):
                cells[z] = f"{z + 1},{v:.17g}\r\n"
            last = bits
            prefix = f"{c},{t},"
            fh.write(prefix + prefix.join(cells))

    return write


def _one_point(cfg: RunConfig, command: str) -> tuple[UncoupledEnsemble, float]:
    """The one ensemble and the one ε the command runs; an ε grid of one point
    is that point."""
    if any(len(epsilons) != 1 for epsilons in cfg.epsilon):
        raise ConfigError(f"the {command} command needs a single epsilon")
    if len(cfg.ensembles) != 1:
        raise ConfigError(f"the {command} command needs a single ensemble")
    return cfg.ensembles[0], cfg.epsilon[0][0]


def cmd_landscape(cfg: RunConfig, out: Path) -> int:
    ens, eps = _one_point(cfg, "landscape")
    out.mkdir(parents=True, exist_ok=True)
    land = landscape(eps, ens, grid_n=cfg.grid_n)
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
    print(f"landscape: epsilon={eps} ensemble={ens.label()}")
    if missing:
        print("absent critical points: " + ", ".join(missing))
    return EXIT_OK


def cmd_wave(cfg: RunConfig, out: Path) -> int:
    if cfg.T is None:
        raise ConfigError("the wave command needs an explicit T")
    ens, eps = _one_point(cfg, "wave")
    if len(cfg.W) != 1:
        raise ConfigError("the wave command needs a single window size")
    spec = CoupledSpec(ens=ens, N=cfg.N, w=cfg.w, epsilon=eps)
    sched = cfg.window_schedule(cfg.W[0])
    c_max, windows = sched.c_max(spec), cfg.record_windows
    if windows is not None and (not windows or not all(1 <= c <= c_max for c in windows)):
        raise ConfigError(f"record.windows must name windows in 1..{c_max}, this run's windows")
    out.mkdir(parents=True, exist_ok=True)
    # The run hands over every window's block; each one that record.windows
    # names is written, traced and scanned, and every block is then dropped:
    # memory holds a window, not the run.
    paths = out / "trajectory.csv", out / "potential_trace.csv"
    scan = SteadyStateScan(spec, sched.W, cfg.steady_tol)
    try:
        with open(paths[0], "w", newline="") as fh, open(paths[1], "w", newline="") as trace_fh:
            write_states = _trajectory_writer(fh, spec.chain_len)
            potentials = csv.writer(trace_fh)
            potentials.writerow(("c", "t", "U"))

            def on_block(c: int, block: np.ndarray) -> None:
                if windows is not None and c not in windows:
                    return
                write_states(c, block)
                potentials.writerows((c, t, _fmt(u)) for t, u in
                                     enumerate(coupled_potential(block, spec, sched, c).tolist()))
                scan.add(c, block)

            final, _ = run_wd(spec, sched, validate=True, on_block=on_block)
    except BaseException:  # a run that fails partway leaves no partial CSV
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    success = decode_success(final, spec, cfg.success)
    report = {
        "c_prime": scan.c_prime,
        "shift_residual": scan.residual,
        "steady_tol": scan.tol,
        "decode_success": success.success,
        "avg": success.avg,
        "max": success.max,
    }
    (out / "steady_state.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wave: c_prime={scan.c_prime} residual={scan.residual}")
    return EXIT_OK


def cmd_speed(cfg: RunConfig, out: Path) -> int:
    if not cfg.W:
        raise ConfigError("the speed command needs W (a value, list, or grid)")
    out.mkdir(parents=True, exist_ok=True)
    # an ensemble's (epsilon, W) points are the columns of one T search ([T, T]
    # for a fixed T); all run before any file is written: a failure leaves --out empty
    done = [measure_speed([(CoupledSpec(ens=ens, N=cfg.N, w=cfg.w, epsilon=eps),
                            cfg.window_schedule(W)) for eps in epsilons for W in cfg.W],
                          T_max=cfg.T_max if cfg.T is None else cfg.T, alpha=cfg.alpha,
                          success=cfg.success, steady_tol=cfg.steady_tol, grid_n=cfg.grid_n,
                          compute_bounds=cfg.bounds)
            for ens, epsilons in zip(cfg.ensembles, cfg.epsilon)]
    multi = len(cfg.ensembles) > 1
    for ens, ens_reports in zip(cfg.ensembles, done):
        name = f"speed_{ens.label()}.csv" if multi else "speed.csv"
        _write_csv(
            out / name,
            SpeedReport.CSV_COLUMNS,
            (r.csv_values() for r in ens_reports),
        )
        for r in ens_reports:
            metric = "avg" if r.success_policy == "average" else "max"
            status = f"T_min={r.T_min}" if r.T_min is not None else (
                f"no success up to T_max={r.T_max} (best {metric} {r.best_avg:.3e})"
            )
            print(f"{ens.label()} epsilon={r.epsilon} W={r.W}: {status}")
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for ens in cfg.ensembles:
        eps_bp = bp_threshold(ens)
        eps_map = map_threshold(ens)
        rows.append((ens.label(), eps_bp, eps_map))
        print(f"{ens.label()}: eps_bp={eps_bp:.6f} eps_map={eps_map:.6f}")
    _write_csv(out / "thresholds.csv", ("ensemble", "eps_bp", "eps_map"), rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, so it exits 1 with one line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        src.add_argument("--preset", choices=PRESETS, help="named built-in configuration")
        p.add_argument("--out", type=Path, default=Path("scwde_out"))
        if name == "speed":
            # accepted and range-checked for the callers that pass it, and
            # ignored: the ensembles run one after another in this process
            p.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility and ignored (an int >= 1)")
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "speed" and args.workers < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
        cfg = load_preset(args.preset) if args.preset else load_config(args.config)
        out = args.out
        if args.command == "landscape":
            return cmd_landscape(cfg, out)
        if args.command == "wave":
            return cmd_wave(cfg, out)
        if args.command == "speed":
            return cmd_speed(cfg, out)
        return cmd_thresholds(cfg, out)
    # An exception type not named below is a fault of the program.
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # Python's own carries no message
        print("configuration error: the run does not fit in memory", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, ArithmeticError) as exc:  # ChainCheckError is an ArithmeticError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
