"""Correctness checks on the files one CLI launch wrote.

Speed rows are checked without trusting the program's T search: each
row's T_min is run again through ``run_wd`` and must decode, and T_min - 1
must not. Wave outputs are checked against invariants: the row layout
Σ_c (T+1) · chain, erasures within [0, 1], and erasures non-increasing in t
within each window. For seed 0 every output is also compared with the
committed references in ``reference/``: integers and strings exactly,
floats within ABS_TOL + REL_TOL · |reference|. A row that passes but
differs in its bytes from the reference counts as byte-changed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
MONOTONE_SLACK = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference"

SPEED_COLUMNS = (
    "epsilon", "W", "T_min", "v", "c_prime", "A1",
    "th2_finite", "th2_infinite", "alpha", "success_policy",
)
INT_COLUMNS = {"W", "T_min", "c_prime"}
STR_COLUMNS = {"success_policy"}
STEADY_KEYS = ("c_prime", "shift_residual", "steady_tol", "decode_success", "avg", "max")


@dataclass
class Verdict:
    wrong: int = 0  # rows missing, extra, or failing a check
    byte_changed: int = 0  # rows that pass but differ in bytes from the reference


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True) if path.is_file() else []


def _header_ok(lines: list[bytes], columns) -> bool:
    return bool(lines) and lines[0].rstrip(b"\r\n") == ",".join(columns).encode()


def check(workload, seed: int, out: Path) -> Verdict:
    if workload.command == "speed":
        return _check_speed(workload, seed, out)
    return _check_wave(workload, seed, out)


# -- speed ---------------------------------------------------------------


def _decodes(cfg: dict, eps: float, W: int, T: int) -> bool:
    from scwde import CoupledSpec, UncoupledEnsemble, WindowSchedule, run_wd

    ens = UncoupledEnsemble.from_specs(cfg["ensemble"]["L"], cfg["ensemble"]["R"])
    spec = CoupledSpec(ens=ens, N=cfg["N"], w=cfg["w"], epsilon=eps)
    final, _ = run_wd(spec, WindowSchedule(W=W, T=T, variant=cfg["schedule"]), validate=False)
    region = final.x[: spec.N]
    policy = cfg["success"]
    metric = np.mean(region) if policy["policy"] == "average" else np.max(region)
    return bool(metric < policy["threshold"])


def _speed_row_ok(cells: list[str], cfg: dict, eps: float, W: int, ref) -> bool:
    if len(cells) != len(SPEED_COLUMNS):
        return False
    row = dict(zip(SPEED_COLUMNS, cells))
    try:
        if not close(float(row["epsilon"]), eps) or int(row["W"]) != W:
            return False
        if not close(float(row["alpha"]), cfg["alpha"]):
            return False
        if row["success_policy"] != cfg["success"]["policy"]:
            return False
        if row["T_min"] == "":
            if row["v"] != "" or _decodes(cfg, eps, W, cfg["T_max"]):
                return False
        else:
            t_min = int(row["T_min"])
            if not 1 <= t_min <= cfg["T_max"] or not close(float(row["v"]), 1.0 / t_min):
                return False
            if not _decodes(cfg, eps, W, t_min):
                return False
            if t_min > 1 and _decodes(cfg, eps, W, t_min - 1):
                return False
        for col in ("A1", "th2_finite", "th2_infinite"):
            if row[col] != "" and not math.isfinite(float(row[col])):
                return False
    except ValueError:
        return False
    if ref is None:
        return True
    for col, value, expected in zip(SPEED_COLUMNS, cells, ref):
        if value == "" or expected == "" or col in STR_COLUMNS:
            ok = value == expected
        elif col in INT_COLUMNS:
            ok = int(value) == int(expected)
        else:
            ok = close(float(value), float(expected))
        if not ok:
            return False
    return True


def _check_speed(workload, seed: int, out: Path) -> Verdict:
    cfg = workload.config(seed)
    Ws = cfg["W"] if isinstance(cfg["W"], list) else [cfg["W"]]
    keys = [(eps, W) for eps in workload.expected_epsilons(seed) for W in sorted(Ws)]
    verdict = Verdict()
    lines = _lines(out / "speed.csv")
    ref_lines = _lines(REFERENCE / f"{workload.name}.csv") if seed == 0 else None
    if not _header_ok(lines, SPEED_COLUMNS):
        verdict.wrong = len(keys)
        return verdict
    rows = lines[1:]
    verdict.wrong += abs(len(rows) - len(keys))
    for i, (line, (eps, W)) in enumerate(zip(rows, keys)):
        cells = line.decode().rstrip("\r\n").split(",")
        ref = None
        if ref_lines is not None:
            ref = ref_lines[i + 1].decode().rstrip("\r\n").split(",")
        if not _speed_row_ok(cells, cfg, eps, W, ref):
            verdict.wrong += 1
        elif ref_lines is not None and line != ref_lines[i + 1]:
            verdict.byte_changed += 1
    return verdict


# -- wave ----------------------------------------------------------------


def wave_shape(cfg: dict) -> tuple[int, int, int, int]:
    """(window configurations, iterations per window, window size, chain length)."""
    N, w, W = cfg["N"], cfg["w"], cfg["W"]
    c_max = N - W + 1 if cfg["schedule"] == "literal" else N + w - W
    return c_max, cfg["T"], W, N + w - 1


def replay(updates: np.ndarray, chain: int) -> np.ndarray:
    """Rebuild every recorded state x^(c,t) from the in-window updates.

    Positions outside the window keep their value during a sweep, and a
    slide keeps the whole vector, so the values each sweep writes
    (``updates[c-1, t-1]``, W of them) determine the trajectory.
    """
    c_max, T, W = updates.shape
    states, x = np.empty((c_max, T + 1, chain)), np.ones(chain)
    for c in range(c_max):
        states[c, 0] = x
        for t in range(T):
            x[c : c + W] = updates[c, t]
            states[c, t + 1] = x
    return states


def _check_trajectory(path: Path, shape, ref, verdict: Verdict) -> None:
    """A file whose rows cannot all be parsed counts every row as wrong."""
    c_max, T, _, chain = shape
    n = c_max * (T + 1) * chain
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        table = None
    if table is None or table.shape != (n, 4) or not _header_ok([header], ("c", "t", "z", "x")):
        verdict.wrong += n
        return
    c, t, z = np.meshgrid(
        np.arange(1, c_max + 1), np.arange(T + 1), np.arange(1, chain + 1), indexing="ij"
    )
    x = table[:, 3].reshape(c.shape)
    ok = (table[:, :3] == np.stack([c.ravel(), t.ravel(), z.ravel()], axis=1)).all(axis=1)
    ok = ok.reshape(c.shape) & (x >= -MONOTONE_SLACK) & (x <= 1.0 + MONOTONE_SLACK)
    ok[:, 1:] &= x[:, 1:] <= x[:, :-1] + MONOTONE_SLACK  # non-increasing in t
    if ref is not None:
        expected = replay(ref["updates"], chain)
        ok &= np.abs(x - expected) <= ABS_TOL + REL_TOL * np.abs(expected)
    verdict.wrong += int(np.count_nonzero(~ok))
    if ref is None or sha256(path) == str(ref["trajectory_sha256"]):
        return
    lines = path.read_bytes().splitlines(keepends=True)[1:]
    for line, *key, e, good in zip(
        lines, c.ravel(), t.ravel(), z.ravel(), expected.ravel(), ok.ravel()
    ):
        if good and line != "{},{},{},{:.17g}\r\n".format(*key, e).encode():
            verdict.byte_changed += 1


def _check_potential(path: Path, shape, ref, verdict: Verdict) -> None:
    c_max, T = shape[0], shape[1]
    keys = [(c, t) for c in range(1, c_max + 1) for t in range(T + 1)]
    lines = _lines(path)
    if not _header_ok(lines, ("c", "t", "U")):
        verdict.wrong += len(keys)
        return
    verdict.wrong += abs(len(lines) - 1 - len(keys))
    for i, (line, (c, t)) in enumerate(zip(lines[1:], keys)):
        cells = line.split(b",")
        try:
            ok = len(cells) == 3 and (int(cells[0]), int(cells[1])) == (c, t)
            U = float(cells[2]) if ok else math.nan
        except ValueError:
            ok, U = False, math.nan
        ok = ok and math.isfinite(U)
        if ok and ref is not None:
            expected = float(ref[i])
            ok = close(U, expected)
            if ok and line != f"{c},{t},{expected:.17g}\r\n".encode():
                verdict.byte_changed += 1
        verdict.wrong += not ok


def _check_steady(path: Path, ref_path, verdict: Verdict) -> None:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        verdict.wrong += 1
        return
    ok = isinstance(report, dict) and set(report) == set(STEADY_KEYS)
    ok = ok and isinstance(report["decode_success"], bool)
    if ok and ref_path is not None:
        ref = json.loads(ref_path.read_text())
        for key in STEADY_KEYS:
            value, expected = report[key], ref[key]
            if isinstance(expected, float) and isinstance(value, float):
                ok = ok and close(value, expected)
            else:
                ok = ok and value == expected
        if ok and path.read_bytes() != ref_path.read_bytes():
            verdict.byte_changed += 1
    verdict.wrong += not ok


def _check_wave(workload, seed: int, out: Path) -> Verdict:
    shape = wave_shape(workload.config(seed))
    verdict = Verdict()
    ref = steady_ref = None
    if seed == 0:
        with np.load(REFERENCE / f"{workload.name}.npz") as npz:
            ref = dict(npz)
        steady_ref = REFERENCE / f"{workload.name}-steady.json"
    _check_trajectory(out / "trajectory.csv", shape, ref, verdict)
    _check_potential(
        out / "potential_trace.csv", shape, None if ref is None else ref["potential"], verdict
    )
    _check_steady(out / "steady_state.json", steady_ref, verdict)
    return verdict
