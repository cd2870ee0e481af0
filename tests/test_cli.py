import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import scwde.window
from scwde.cli import _write_trajectory, main
from scwde.config import (
    MAX_GRID_N,
    ConfigError,
    config_from_mapping,
    load_config,
    load_preset,
)
from scwde.scalar import NonConvergence, UncoupledEnsemble
from scwde.window import ChainCheckError, CoupledSpec, Trajectory, WindowSchedule, run_wd


def write_cfg(tmp_path: Path, payload: dict, name="run.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_presets_parse(self):
        for name in ("table1", "fig2", "fig3", "fig4"):
            cfg = load_preset(name)
            assert cfg.ensembles

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            load_preset("table9")

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                                    "epsilon": 0.4, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            load_config(path)

    def test_epsilon_grid_expansion(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "epsilon": {"start": 0.40, "stop": 0.42, "step": 0.005},
        })
        cfg = load_config(path)
        eps = cfg.epsilons(cfg.ensembles[0])
        assert eps == (0.40, 0.405, 0.41, 0.415, 0.42)

    def test_epsilon_grid_map_stop(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "epsilon": {"start": 0.47, "stop": "map_threshold", "step": 0.005},
        })
        cfg = load_config(path)
        eps = cfg.epsilons(cfg.ensembles[0])
        assert eps[-1] == 0.485  # largest grid point below the MAP threshold
        assert all(e < 0.4882 for e in eps)

    def test_window_grid_forms(self, tmp_path):
        for W, expect in ((12, (12,)), ([12, 14], (12, 14)),
                          ({"start": 10, "stop": 14, "step": 2}, (10, 12, 14))):
            path = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                                        "epsilon": 0.4, "W": W})
            assert load_config(path).W == expect


class TestLandscapeCommand:
    def test_outputs_and_headers(self, tmp_path):
        cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                                   "epsilon": 0.475, "grid_n": 2001})
        out = tmp_path / "out"
        assert main(["landscape", "--config", str(cfg), "--out", str(out)]) == 0
        grid = read_csv(out / "landscape.csv")
        assert grid[0] == ["x", "U", "U_prime", "U_double_prime"]
        assert len(grid) == 2002
        side = read_csv(out / "landscape_critical.csv")
        assert side[0] == ["x_a", "x_b", "x_c0", "x_d", "x_e", "D"]
        assert all(cell for cell in side[1])  # every point present at 0.475

    def test_absent_points_serialize_empty(self, tmp_path):
        cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                                   "epsilon": 0.3, "grid_n": 2001})
        out = tmp_path / "out"
        assert main(["landscape", "--config", str(cfg), "--out", str(out)]) == 0
        side = read_csv(out / "landscape_critical.csv")
        assert side[1][1] == "" and side[1][3] == ""  # x_b, x_d absent

    def test_malformed_polynomial_exits_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": [[2, 0.4], [3, 0.5]], "R": "x^6"},
            "epsilon": 0.475,
        })
        assert main(["landscape", "--config", str(cfg), "--out", str(tmp_path)]) == 1


class TestWaveCommand:
    def test_trajectory_and_steady_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 40, "w": 3, "epsilon": 0.42, "W": 11, "T": 6,
            "schedule": "literal",
        })
        out = tmp_path / "out"
        assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["c", "t", "z", "x"]
        report = json.loads((out / "steady_state.json").read_text())
        assert set(report) >= {"c_prime", "shift_residual", "decode_success"}
        trace = read_csv(out / "potential_trace.csv")
        assert trace[0] == ["c", "t", "U"]

    def test_window_exceeding_chain_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 8, "w": 3, "epsilon": 0.42, "W": 11, "T": 6,
        })
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_constant_check_distribution_runs(self, tmp_path):
        # R = x^1 gives rho = 1, a degree-0 polynomial evaluated on arrays
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^1"},
            "N": 24, "w": 2, "epsilon": 0.30, "W": 8, "T": 3,
        })
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_missing_T_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 40, "w": 3, "epsilon": 0.42, "W": 11,
        })
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def trajectory_oracle(traj) -> bytes:
    """trajectory.csv as csv.writer writes the (c, t, z, x) rows."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(("c", "t", "z", "x"))
    for c in traj.windows():
        for t, vec in enumerate(traj.block(c).tolist()):
            for z, v in enumerate(vec, start=1):
                writer.writerow((c, t, z, format(v, ".17g")))
    return text.getvalue().encode()


@pytest.mark.parametrize(
    "run",
    [
        # 25 positions: one whole 16-line chunk and a short one
        {"N": 24, "w": 2, "W": 8, "T": 3, "schedule": "literal"},
        # 10 positions, fewer than one chunk; the termination tail is swept
        {"N": 8, "w": 3, "W": 4, "T": 2, "schedule": "extended"},
        # 32 positions, exactly two chunks; a taller first block
        {"N": 31, "w": 2, "W": 6, "T": 2, "T_first": 5, "schedule": "extended"},
        # 42 positions; blocks of two heights and a subset of windows
        {"N": 40, "w": 3, "W": 10, "T": 3, "T_first": 7, "schedule": "literal",
         "record": {"windows": [1, 2, 17, 31]}},
        {"N": 40, "w": 3, "W": 10, "T": 1, "T_first": 4, "schedule": "extended",
         "record": {"windows": [33, 1]}},
    ],
    ids=["literal", "short-chain", "two-chunks", "windows-literal", "windows-extended"],
)
def test_trajectory_bytes_match_csv_writer(tmp_path, run):
    cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                               "epsilon": 0.42, **run})
    out = tmp_path / "out"
    assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 0
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(3, 6), N=run["N"], w=run["w"],
                       epsilon=0.42)
    sched = WindowSchedule(W=run["W"], T=run["T"], variant=run["schedule"],
                           T_first=run.get("T_first"))
    _, traj = run_wd(spec, sched, record=True,
                     record_windows=run.get("record", {}).get("windows"))
    assert (out / "trajectory.csv").read_bytes() == trajectory_oracle(traj)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from([-0.0, 1.0, 5e-324]),
                       min_size=2 * 21, max_size=2 * 21))
def test_trajectory_writer_formats_any_float(tmp_path_factory, values):
    # nan, inf, -0.0 and subnormals never come out of the recursion, but the
    # writer formats them as csv.writer with format(v, ".17g") does
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(3, 6), N=20, w=2, epsilon=0.42)
    traj = Trajectory(WindowSchedule(W=4, T=1), spec)
    traj._blocks[3] = np.array(values).reshape(2, 21)
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    _write_trajectory(path, traj)
    assert path.read_bytes() == trajectory_oracle(traj)


class TestSpeedCommand:
    def payload(self):
        return {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 24, "w": 2, "epsilon": 0.30, "W": 8,
            "T": "auto", "T_max": 25, "schedule": "extended",
            "bounds": False,
        }

    def test_single_point_single_row(self, tmp_path):
        cfg = write_cfg(tmp_path, self.payload())
        out = tmp_path / "out"
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        rows = read_csv(out / "speed.csv")
        assert rows[0] == ["epsilon", "W", "T_min", "v", "c_prime", "A1",
                           "th2_finite", "th2_infinite", "alpha",
                           "success_policy"]
        assert len(rows) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, self.payload())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["speed", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
        main(["speed", "--config", str(cfg), "--out", str(out2), "--workers", "2"])
        assert (out1 / "speed.csv").read_bytes() == (out2 / "speed.csv").read_bytes()

    def test_grid_rows_sorted(self, tmp_path):
        payload = self.payload()
        payload["W"] = [10, 8]
        payload["epsilon"] = {"start": 0.28, "stop": 0.30, "step": 0.02}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", "2"]) == 0
        rows = read_csv(out / "speed.csv")[1:]
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_multi_ensemble_writes_per_label(self, tmp_path):
        payload = self.payload()
        payload.pop("ensemble")
        payload["ensembles"] = [{"L": "x^3", "R": "x^6"}, {"L": "x^4", "R": "x^8"}]
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        assert (out / "speed_x3_x6.csv").exists()
        assert (out / "speed_x4_x8.csv").exists()

    def test_fixed_T_mode(self, tmp_path):
        payload = self.payload()
        payload["T"] = 20
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        rows = read_csv(out / "speed.csv")
        assert rows[1][2] == "20"  # T_min column echoes the fixed budget


    def run_speed(self, tmp_path, payload, name):
        cfg = write_cfg(tmp_path, payload, name=f"{name}.yaml")
        out = tmp_path / name
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        return read_csv(out / "speed.csv")

    def test_auto_T_without_first_window_budget(self, tmp_path):
        rows = self.run_speed(tmp_path, self.payload(), "plain")
        assert rows[1][2] == "7"

    def test_auto_T_applies_first_window_budget(self, tmp_path):
        payload = self.payload()
        payload["T_first"] = 50
        rows = self.run_speed(tmp_path, payload, "warm")
        assert rows[1][2] == "4"

    def test_fixed_T_row_carries_bounds(self, tmp_path):
        # a fixed T equal to the searched T_min reproduces the whole auto row
        payload = {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 40, "w": 3, "epsilon": 0.45, "W": 10,
            "T": "auto", "T_max": 60, "schedule": "extended", "grid_n": 2001,
        }
        auto = self.run_speed(tmp_path, payload, "auto")
        payload["T"] = int(auto[1][2])
        fixed = self.run_speed(tmp_path, payload, "fixed")
        assert fixed == auto
        assert all(auto[1][i] for i in (4, 5, 7))  # c_prime, A1, th2_infinite

    def test_flat_steady_profile_leaves_A1_empty(self, tmp_path):
        # rho = 1 clears each window in one sweep: the steady profile is
        # flat, so A1 is undefined for that row and the grid still completes
        payload = {**self.payload(), "ensemble": {"L": "x^3", "R": "x^1"},
                   "T": 3, "bounds": True}
        rows = self.run_speed(tmp_path, payload, "flat")
        assert rows[1][2] == "3" and rows[1][4] != ""  # T_min, c_prime
        assert rows[1][5] == ""  # A1


BASE_RUN = {
    "ensemble": {"L": "x^3", "R": "x^6"},
    "N": 24, "w": 2, "epsilon": 0.30, "W": 8, "T": 6,
    "schedule": "extended", "bounds": False,
}


MALFORMED = [
    {"success": 5},
    {"record": [1]},
    {"record": {"policy": "none"}},
    {"N": 0},
    {"w": 0},
    {"T": -3},
    {"T": "many"},
    {"T_first": 0},
    {"W": 0},
    {"W": 25},
    {"T": "auto", "T_max": 0},
    {"grid_n": 5},
    {"epsilon": {"start": 0.3, "stop": "foo", "step": 0.01}},
    {"W": {"start": 4}},
    {"bounds": "nope"},
    {"W": True},
    {"W": [8, 8.5]},
    {"W": {"start": 4, "stop": 8.5}},
    {"N": 24.7},
    {"w": True},
    {"T": 6.5},
    {"T": "auto", "T_max": 30.5},
    {"T_first": True},
    {"grid_n": 2001.5},
    {"record": {"windows": [1, 2.5]}},
    {"record": {"windows": [True]}},
    {"epsilon": {"start": 0.0, "stop": 1.0, "step": 1.0e-6}},
    {"epsilon": {"start": 0.0, "stop": 1.0, "step": 1.0e-300}},
    {"epsilon": {"start": 0.3, "stop": 0.31, "step": float("nan")}},
    {"W": {"start": 1, "stop": 2000000}},
    {"epsilon": True},
    {"epsilon": {"start": 0.3, "stop": True, "step": 0.01}},
    {"epsilon": {"start": 0.3, "stop": 0.31, "step": True}},
    {"alpha": True},
    {"alpha": "x"},
    {"steady_tol": -1.0},
    {"steady_tol": float("inf")},
    {"success": {"threshold": float("nan")}},
    {"success": {"threshold": True}},
    {"success": {"threshold": "1e-6x"}},
    {"success": {"threshold": -1e-6}},
    {"record": {"windows": 5}},
]
# record.windows selects windows of the wave command's one run
MALFORMED_WAVE = [
    {"record": {"windows": [0, 999]}},
    {"record": {"windows": []}},
]


@pytest.mark.parametrize(
    ("override", "command"),
    [*((o, c) for o in MALFORMED for c in ("wave", "speed")),
     *((o, "wave") for o in MALFORMED_WAVE)],
    ids=lambda v: repr(v) if isinstance(v, dict) else v,
)
def test_malformed_config_exits_with_one_line(tmp_path, capfd, command, override):
    cfg = write_cfg(tmp_path, {**BASE_RUN, **override})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *(["--workers", "1"] if command == "speed" else [])])
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_window_grid_beyond_chain_rejected_before_expansion():
    # the grid is checked against 1..N by its bounds: the message names the
    # range instead of listing two million window sizes
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({**BASE_RUN, "W": {"start": 1, "stop": 2000000}})
    assert str(exc.value) == "window grid 1..2000000 must lie in 1..N=24"


def test_record_windows_checked_against_the_run(tmp_path, capfd):
    # the extended schedule of BASE_RUN has windows 1..N+w-W = 1..18
    cfg = write_cfg(tmp_path, {**BASE_RUN, "record": {"windows": [18, 19]}})
    assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "must name windows in 1..18" in capfd.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float_keys_convert_like_float():
    # PyYAML reads 1e-6 (no dot) as a string; float() still takes it
    cfg = config_from_mapping({**BASE_RUN, "success": {"threshold": "1e-6"},
                               "alpha": 2, "steady_tol": 0})
    assert (cfg.success.threshold, cfg.alpha, cfg.steady_tol) == (1e-6, 2.0, 0.0)


def test_grid_n_capped():
    # checked on the config only: a landscape at the rejected size would
    # take about 75 GiB
    assert config_from_mapping({**BASE_RUN, "grid_n": MAX_GRID_N}).grid_n == MAX_GRID_N
    with pytest.raises(ConfigError, match="grid_n must be <= "):
        config_from_mapping({**BASE_RUN, "grid_n": 1_000_000_000})


def test_worker_pool_capped_at_grid_points(tmp_path, monkeypatch):
    # a process pool starts all of its workers at the first task, so the
    # pool must not ask for more than there are points; checked with a
    # stand-in pool that runs the tasks inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr("scwde.cli.ProcessPoolExecutor", InlinePool)
    cfg = write_cfg(tmp_path, {**BASE_RUN, "W": [8, 10]})
    assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "100000"]) == 0
    assert sizes == [2]
    assert len(read_csv(tmp_path / "out" / "speed.csv")) == 3


def one_line_exit(capfd, code, expected, prefix):
    err = capfd.readouterr().err
    assert code == expected
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_chain_check_failure_exits_2(tmp_path, capfd, monkeypatch):
    # a sweep that raises an erasure breaks the recursion's monotonicity
    monkeypatch.setattr("scwde.window._window_kernel",
                        lambda buf, eps, c, W, spec: np.full(W, 1.5))
    cfg = write_cfg(tmp_path, BASE_RUN)
    code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 2,
                  "numerical failure: erasure increased within window c=1, t=1")


@pytest.mark.parametrize(
    ("failure", "expected", "prefix"),
    [
        (ChainCheckError("erasure left [0, 1]"), 2, "numerical failure: erasure left [0, 1]"),
        (NonConvergence("no fixed point"), 2, "numerical failure: no fixed point"),
        (FloatingPointError("overflow"), 2, "numerical failure: overflow"),
        (ValueError("window size 9 exceeds coupling length 8"), 1,
         "configuration error: window size 9"),
        (ConfigError("bad key"), 1, "configuration error: bad key"),
        ("exit", 2, "worker failure: "),
    ],
    ids=["chain-check", "non-convergence", "floating-point", "value", "config", "dead-worker"],
)
def test_worker_failure_exits_with_one_line(tmp_path, capfd, monkeypatch, failure,
                                            expected, prefix):
    # the pool forks its two workers after the patch, so they run the stand-in
    def failing_point(*args, **kwargs):
        if failure == "exit":
            os._exit(3)
        raise failure

    monkeypatch.setattr("scwde.cli.measure_speed", failing_point)
    cfg = write_cfg(tmp_path, {**BASE_RUN, "W": [8, 10]})
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "2"])
    one_line_exit(capfd, code, expected, prefix)


def test_chain_check_in_worker_exits_2(tmp_path, capfd, monkeypatch):
    # a fixed T runs validated, inside the two forked workers
    kernel = scwde.window._window_kernel
    monkeypatch.setattr("scwde.window._window_kernel",
                        lambda buf, eps, c, W, spec: -kernel(buf, eps, c, W, spec) - 1e-6)
    cfg = write_cfg(tmp_path, {**BASE_RUN, "W": [8, 10]})
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "2"])
    one_line_exit(capfd, code, 2, "numerical failure: erasure left [0, 1]")


# Bounded values: every run they can configure stays small and fast.
FUZZ_BASE = {**BASE_RUN, "T_max": 16}
fuzz_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=16)
    | st.floats(min_value=-1.0, max_value=2.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(
    override=st.dictionaries(st.sampled_from(sorted(FUZZ_BASE)), fuzz_values,
                             min_size=1, max_size=2),
    command=st.sampled_from(["wave", "speed"]),
)
def test_fuzzed_config_exits_cleanly(tmp_path_factory, override, command):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(tmp, {**FUZZ_BASE, **override})
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(tmp / "out"),
                     *(["--workers", "1"] if command == "speed" else [])])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err


class TestThresholdsCommand:
    def test_prints_and_writes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                                   "epsilon": 0.4})
        out = tmp_path / "out"
        assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "eps_bp=0.429" in captured and "eps_map=0.488" in captured
        rows = read_csv(out / "thresholds.csv")
        assert rows[0] == ["ensemble", "eps_bp", "eps_map"]

    def test_numerical_failure_exit_code(self, tmp_path):
        # a negative-rate ensemble whose fixed-point potential never turns
        # negative: the potential-threshold bisection cannot bracket
        cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^6", "R": "x^3"},
                                   "epsilon": 0.4})
        assert main(["thresholds", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
