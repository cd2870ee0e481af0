import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scwde.cli
import scwde.window
from oracles import recorded_run, scan_of
from scwde.cli import _trajectory_writer, build_parser, main
from scwde.config import (
    _KEYS,
    MAX_GRID_N,
    ConfigError,
    RunConfig,
    config_from_mapping,
    load_config,
    load_preset,
)
from scwde.scalar import NonConvergence, UncoupledEnsemble, landscape
from scwde.window import ChainCheckError, CoupledSpec, WindowSchedule, run_columns


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
        assert cfg.epsilon == ((0.40, 0.405, 0.41, 0.415, 0.42),)

    def test_epsilon_grid_map_stop(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "epsilon": {"start": 0.47, "stop": "map_threshold", "step": 0.005},
        })
        cfg = load_config(path)
        [eps] = cfg.epsilon
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
            "schedule": "literal",
        })
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_missing_T_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "ensemble": {"L": "x^3", "R": "x^6"},
            "N": 40, "w": 3, "epsilon": 0.42, "W": 11,
        })
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_memory_holds_a_window_not_the_run(self, tmp_path):
        # the run's blocks come to over 4 MiB; each is written, traced and
        # scanned when its window ends, then dropped
        run = {"ensemble": {"L": "x^3", "R": "x^6"}, "N": 300, "w": 3, "epsilon": 0.42,
               "W": 6, "T": 5, "schedule": "literal"}
        windows, chain = run["N"] - run["W"] + 1, run["N"] + run["w"] - 1
        assert windows * (run["T"] + 1) * chain * 8 >= 4 * 2**20
        cfg = write_cfg(tmp_path, run)
        tracemalloc.start()
        try:
            assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        rows = windows * (run["T"] + 1)
        assert len(read_csv(tmp_path / "out" / "potential_trace.csv")) == rows + 1


def trajectory_oracle(blocks) -> bytes:
    """trajectory.csv as csv.writer writes the (c, t, z, x) rows of a run's
    blocks {c: block}."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(("c", "t", "z", "x"))
    for c in sorted(blocks):
        for t, vec in enumerate(blocks[c].tolist()):
            for z, v in enumerate(vec, start=1):
                writer.writerow((c, t, z, format(v, ".17g")))
    return text.getvalue().encode()


@pytest.mark.parametrize(
    "run",
    [
        {"N": 24, "w": 2, "W": 8, "T": 3, "schedule": "literal"},
        # the termination tail is swept
        {"N": 8, "w": 3, "W": 4, "T": 2, "schedule": "extended"},
        # a taller first block
        {"N": 31, "w": 2, "W": 6, "T": 2, "T_first": 5, "schedule": "extended"},
        # 42 positions; blocks of two heights and a subset of windows
        {"N": 40, "w": 3, "W": 10, "T": 3, "T_first": 7, "schedule": "literal",
         "record": {"windows": [1, 2, 17, 31]}},
        {"N": 40, "w": 3, "W": 10, "T": 1, "T_first": 4, "schedule": "extended",
         "record": {"windows": [33, 1]}},
    ],
    ids=["literal", "short-chain", "tall-first-block", "windows-literal", "windows-extended"],
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
    _, blocks = recorded_run(spec, sched, record_windows=run.get("record", {}).get("windows"))
    assert (out / "trajectory.csv").read_bytes() == trajectory_oracle(blocks)


def test_record_windows_filter_a_full_recording(tmp_path):
    # the run hands over every window, and the wave command writes and scans
    # those record.windows names, in any order and with gaps and repeats:
    # each file holds what a full recording gives when filtered to them
    run = {"ensemble": {"L": "x^3", "R": "x^6"}, "N": 40, "w": 3, "epsilon": 0.42, "W": 11,
           "T": 6, "schedule": "literal"}
    windows = [29, 3, 28, 4, 12, 29]
    full, some = tmp_path / "full", tmp_path / "some"
    for out, payload in ((full, run), (some, {**run, "record": {"windows": windows}})):
        cfg = write_cfg(tmp_path, payload)
        assert main(["wave", "--config", str(cfg), "--out", str(out)]) == 0

    def kept_rows(path):
        header, *rows = path.read_bytes().splitlines(keepends=True)
        return header + b"".join(row for row in rows if int(row.split(b",")[0]) in windows)

    for name in ("trajectory.csv", "potential_trace.csv"):
        assert (some / name).read_bytes() == kept_rows(full / name)
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(3, 6), N=40, w=3, epsilon=0.42)
    _, blocks = recorded_run(spec, WindowSchedule(W=11, T=6, variant="literal"))
    scan = scan_of({c: blocks[c] for c in windows}, spec, 11)
    expected = {**json.loads((full / "steady_state.json").read_text()),
                "c_prime": scan.c_prime, "shift_residual": scan.residual}
    assert json.loads((some / "steady_state.json").read_text()) == expected
    assert scan.c_prime == 28


# recorded windows with gaps between them, and their block heights
WRITER_BLOCKS = {2: 2, 5: 3, 9: 1}
WRITER_ROWS = sum(WRITER_BLOCKS.values())


def sign_and_nan_rows():
    """Rows of 21 ones, but for a zero whose sign flips within a window and
    across a gap, and a NaN at one position in every row."""
    rows = np.ones((WRITER_ROWS, 21))
    rows[:, 0] = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]
    rows[:, 1] = float("nan")
    return rows.ravel().tolist()


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0, 5e-324, float("nan")]),
                       min_size=WRITER_ROWS * 21, max_size=WRITER_ROWS * 21))
@example(values=sign_and_nan_rows())
def test_trajectory_writer_formats_any_float(tmp_path_factory, values):
    # nan, inf, -0.0 and subnormals never come out of the recursion, but the
    # writer formats them as csv.writer with format(v, ".17g") does. Each row
    # is diffed against the last one written, across gaps between windows:
    # 0.0 == -0.0 yet they print as 0 and -0, so the diff must compare bits.
    # The blocks go through the writer one window at a time, as in a run
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(3, 6), N=20, w=2, epsilon=0.42)
    rows, lo, blocks = np.array(values).reshape(WRITER_ROWS, 21), 0, {}
    for c, height in WRITER_BLOCKS.items():
        blocks[c], lo = rows[lo : lo + height], lo + height
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    with open(path, "w", newline="") as fh:
        write = _trajectory_writer(fh, spec.chain_len)
        for c in sorted(blocks):
            write(c, blocks[c])
    assert path.read_bytes() == trajectory_oracle(blocks)


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
    {"epsilon": {"start": 0.3, "stop": 0.3000000001, "step": 1.0e-13}},
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
    {"T": 0},
    {"T_first": -1},
    {"schedule": "looped"},
    {"alpha": 2.5},
    {"epsilon": 1.5},
    {"T_max": -4},
    {"W": {"start": 4, "stop": 8, "by": 2}},
    {"epsilon": {"start": 0.3, "stop": 0.31, "step": 0.005, "stride": 2}},
    {"ensemble": {"L": "x^3", "R": "x^6", "Q": 1}},
    {"success": {"policy": "average", "thresh": 1e-6}},
    {"record": {"window": [1]}},
    {"ensemble": {"L": [[2, 0.5], [3, 0.4]], "R": "x^6"}},
    {"ensemble": {"L": [[0, 1.0]], "R": "x^6"}},
]
# record.windows selects windows of the wave command's one run
MALFORMED_WAVE = [
    {"record": {"windows": [0, 999]}},
    {"record": {"windows": []}},
]


@pytest.mark.parametrize(
    ("override", "command"),
    [*((o, c) for o in MALFORMED for c in ("landscape", "wave", "speed", "thresholds")),
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
    assert not (tmp_path / "out").exists()


# Rules the config checks by building CoupledSpec and WindowSchedule, and
# alpha's range: the engine's message still names the key.
@pytest.mark.parametrize(
    ("override", "message"),
    [
        ({"epsilon": 1.5}, "epsilon must lie in [0, 1]"),
        ({"N": 0}, "coupling length N must be >= 1"),
        ({"w": 0}, "coupling width w must be >= 1"),
        ({"W": 0}, "window size W must be >= 1"),
        ({"W": 25}, "window size W=25 exceeds coupling length N=24"),
        ({"T": 0}, "iterations per window T must be >= 1"),
        ({"T_first": -1}, "T_first must be >= 1 when given"),
        ({"schedule": "looped"}, "unknown schedule variant 'looped'"),
        ({"alpha": 2.5}, "alpha must lie in [1, 2]"),
        ({"success": {"policy": "median"}}, "unknown success policy 'median'"),
        ({"success": {"threshold": 0}}, "success threshold must be positive"),
    ],
    ids=lambda v: repr(v) if isinstance(v, dict) else None,
)
def test_engine_rules_checked_at_load(override, message):
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({**BASE_RUN, **override})
    assert str(exc.value) == message


# One check for every nested YAML mapping (the root's unknown keys are
# TestConfig's): a mapping, no unknown key, no required key missing.
@pytest.mark.parametrize(
    ("override", "message"),
    [
        ({"W": {"start": 4, "stop": 8, "by": 2}}, "unknown window grid keys: ['by']"),
        ({"epsilon": {"start": 0.3, "stop": 0.31, "step": 0.005, "stride": 2}},
         "unknown epsilon grid keys: ['stride']"),
        ({"ensemble": {"L": "x^3", "R": "x^6", "Q": 1}}, "unknown ensemble keys: ['Q']"),
        ({"success": {"policy": "average", "thresh": 1e-6}}, "unknown success keys: ['thresh']"),
        ({"record": {"window": [1]}}, "unknown record keys: ['window']"),
        ({"W": {"start": 4}}, "window grid lacks ['stop']"),
        ({"epsilon": {"stop": 0.31}}, "epsilon grid lacks ['start', 'step']"),
        ({"ensemble": {"L": "x^3"}}, "ensemble lacks ['R']"),
        ({"ensemble": "x^3"}, "ensemble must be a mapping, got 'x^3'"),
        ({"success": 5}, "success must be a mapping, got 5"),
        ({"record": [1]}, "record must be a mapping, got [1]"),
        ({"T_max": -4}, "T_max must be >= 1"),
    ],
    ids=lambda v: repr(v) if isinstance(v, dict) else None,
)
def test_config_mapping_errors_named_in_one_line(override, message):
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({**BASE_RUN, **override})
    assert str(exc.value) == message


def test_ensembles_entry_checked_like_ensemble():
    payload = {**{k: v for k, v in BASE_RUN.items() if k != "ensemble"},
               "ensembles": [{"L": "x^3", "R": "x^6"}, {"L": "x^4", "R": "x^8", "Q": 1}]}
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(payload)
    assert str(exc.value) == "unknown ensemble keys: ['Q']"
    with pytest.raises(ConfigError, match="not both"):
        config_from_mapping({**payload, "ensemble": {"L": "x^3", "R": "x^6"}})
    with pytest.raises(ConfigError, match="at least one ensemble is required"):
        config_from_mapping({"epsilon": 0.4})


def test_parser_adds_no_defaults():
    # a key the YAML leaves out takes RunConfig's own default
    ens = UncoupledEnsemble.regular(3, 6)
    cfg = config_from_mapping({"ensemble": {"L": "x^3", "R": "x^6"}, "epsilon": 0.4})
    assert cfg == RunConfig(ensembles=(ens,), epsilon=((0.4,),))
    assert cfg.schedule == "extended"


def test_window_grid_bounded_by_default_N():
    # without N in the YAML, a window grid is checked against RunConfig.N
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"ensemble": {"L": "x^3", "R": "x^6"}, "epsilon": 0.4,
                             "W": {"start": 90, "stop": 101}})
    assert str(exc.value) == f"window grid 90..101 must lie in 1..N={RunConfig.N}"


def test_readme_lists_every_config_key():
    # the README's YAML block loads, and names each top-level key the parser
    # knows; ensembles is the documented alternative to ensemble
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Run configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    config_from_mapping(documented)
    assert set(documented) == set(_KEYS) - {"ensembles"}
    assert "or ensembles: [" in block


def test_speed_without_schedule_decodes(tmp_path, capfd):
    # the default schedule runs the windows over the termination tail, so
    # the final average can reach the success threshold
    cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                               "N": 100, "w": 4, "epsilon": 0.45, "W": 12})
    out = tmp_path / "out"
    assert main(["speed", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert read_csv(out / "speed.csv")[1][2] == "22"
    assert capfd.readouterr().out == "x3_x6 epsilon=0.45 W=12: T_min=22\n"


@pytest.mark.parametrize(("W", "rows"), [([8, 8], ["8"]), ([14, 12, 14], ["12", "14"])])
def test_repeated_window_size_runs_once(tmp_path, capfd, W, rows):
    cfg = write_cfg(tmp_path, {**BASE_RUN, "W": W})
    out = tmp_path / "out"
    assert main(["speed", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert [row[1] for row in read_csv(out / "speed.csv")[1:]] == rows
    stdout = capfd.readouterr().out.splitlines()
    assert [line.split()[2] for line in stdout] == [f"W={W}:" for W in rows]


@pytest.mark.parametrize(("policy", "best"), [("max", "best max 4.303e-01"),
                                              ("average", "best avg 3.870e-01")])
def test_exhausted_row_names_the_policy_metric(tmp_path, capfd, policy, best):
    cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^3", "R": "x^6"},
                               "N": 40, "w": 4, "epsilon": 0.487, "W": 12, "T_max": 3,
                               "success": {"policy": policy}, "bounds": False})
    out = tmp_path / "out"
    assert main(["speed", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert capfd.readouterr().out == (
        f"x3_x6 epsilon=0.487 W=12: no success up to T_max=3 ({best})\n")


def test_engine_rules_checked_for_an_epsilon_grid():
    # a grid has no single epsilon: the coupling and window rules still apply
    grid = {"start": 0.3, "stop": 0.31, "step": 0.005}
    with pytest.raises(ConfigError, match="T must be >= 1"):
        config_from_mapping({**BASE_RUN, "epsilon": grid, "T": 0})
    assert config_from_mapping({**BASE_RUN, "epsilon": grid, "T": "auto"}).T is None


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


TWO_ENSEMBLES = {
    **{k: v for k, v in BASE_RUN.items() if k != "ensemble"},
    "ensembles": [{"L": "x^4", "R": "x^8"}, {"L": "x^3", "R": "x^6"}],
}


def test_speed_runs_in_one_process(tmp_path):
    # --workers is accepted and ignored: a grid of two ensembles run with two
    # workers imports no multiprocessing and writes what one worker writes
    cfg = write_cfg(tmp_path, {**TWO_ENSEMBLES, "W": [8, 10]})
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        stdout = python_c(
            "import sys; from scwde.cli import main; "
            f"code = main(['speed', '--config', {str(cfg)!r}, '--out', {str(out)!r}, "
            f"'--workers', '{workers}']); "
            "print(code, sorted({'concurrent.futures.process', 'multiprocessing'} "
            "& set(sys.modules)))")
        runs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())}, stdout))
    assert runs[0] == runs[1]
    assert sorted(runs[1][0]) == ["speed_x3_x6.csv", "speed_x4_x8.csv"]
    assert runs[1][1].splitlines()[-1] == "0 []"
    assert len(runs[1][1].splitlines()) == 5  # a line per (ensemble, W), then the check


def test_one_group_runs_without_a_pool(tmp_path):
    # a grid of one ensemble, whatever its epsilons and W, is one windowed
    # run: more workers import no multiprocessing and write what one writes
    cfg = write_cfg(tmp_path, {**BASE_RUN, "epsilon": {"start": 0.28, "stop": 0.30, "step": 0.01},
                               "W": [8, 10]})
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        stdout = python_c(
            "import sys; from scwde.cli import main; "
            f"code = main(['speed', '--config', {str(cfg)!r}, '--out', {str(out)!r}, "
            f"'--workers', '{workers}']); "
            "print(code, sorted({'concurrent.futures.process', 'multiprocessing'} "
            "& set(sys.modules)))")
        runs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())}, stdout))
    assert runs[0] == runs[1]
    assert runs[1][1].splitlines()[-1] == "0 []"
    assert len(runs[1][1].splitlines()) == 7  # a line per (epsilon, W), then the check


def test_workers_beyond_the_grid_points_change_nothing(tmp_path, capfd):
    # 2 ensembles of 2 epsilons by 2 W are 8 points; asking for far more
    # workers than that writes what one worker writes
    cfg = write_cfg(tmp_path, {**TWO_ENSEMBLES, "W": [8, 10],
                               "epsilon": {"start": 0.28, "stop": 0.30, "step": 0.02}})
    outputs = []
    for workers in ("1", "100000"):
        out = tmp_path / f"out{workers}"
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())},
                        capfd.readouterr().out))
    assert outputs[0] == outputs[1]
    for name in ("speed_x3_x6.csv", "speed_x4_x8.csv"):
        assert len(read_csv(tmp_path / "out100000" / name)) == 5


# Groups of unequal cost: (4,8) has the larger MAP threshold, so its epsilon
# grid reaches 0.495 where that of (3,6) stops at 0.485.
STAIRS = {**TWO_ENSEMBLES, "ensembles": TWO_ENSEMBLES["ensembles"][::-1],
          "epsilon": {"start": 0.475, "stop": "map_threshold", "step": 0.01}, "W": [10, 8]}


def test_speed_dispatches_in_grid_order(tmp_path, capfd, monkeypatch):
    # a task is an ensemble, its (epsilon, W) points the columns of one run.
    # The ensembles run in the grid's order, which is the order of the rows
    # and stdout, whatever --workers says
    run, groups = scwde.cli.measure_speed, []

    def recording_group(points, **kwargs):
        groups.append((points[0][0].ens.label(),
                       tuple(dict.fromkeys(spec.epsilon for spec, _ in points))))
        return run(points, **kwargs)

    monkeypatch.setattr("scwde.cli.measure_speed", recording_group)
    cfg = write_cfg(tmp_path, STAIRS)
    outputs = []
    for workers, out in (("1", tmp_path / "one"), ("4", tmp_path / "four")):
        assert main(["speed", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((files, capfd.readouterr().out))
    assert groups == [("x3_x6", (0.475, 0.485)), ("x4_x8", (0.475, 0.485, 0.495))] * 2
    assert outputs[0] == outputs[1]
    assert [line.split(":")[0] for line in outputs[0][1].splitlines()] == [
        "x3_x6 epsilon=0.475 W=8", "x3_x6 epsilon=0.475 W=10",
        "x3_x6 epsilon=0.485 W=8", "x3_x6 epsilon=0.485 W=10",
        "x4_x8 epsilon=0.475 W=8", "x4_x8 epsilon=0.475 W=10",
        "x4_x8 epsilon=0.485 W=8", "x4_x8 epsilon=0.485 W=10",
        "x4_x8 epsilon=0.495 W=8", "x4_x8 epsilon=0.495 W=10",
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_first_failure_in_dispatch_order_surfaces(tmp_path, capfd, monkeypatch, workers):
    # every group fails; the first in grid order is the one reported
    def failing_group(points, **kwargs):
        raise ValueError(f"group {points[0][0].ens.label()}")

    monkeypatch.setattr("scwde.cli.measure_speed", failing_group)
    cfg = write_cfg(tmp_path, STAIRS)
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", workers])
    one_line_exit(capfd, code, 1, "configuration error: group x3_x6\n")


# twelve ensembles (3, 4) .. (3, 15), each three epsilons by two W
GRID_12X3X2 = {**TWO_ENSEMBLES, "ensembles": [{"L": "x^3", "R": f"x^{r}"} for r in range(4, 16)],
               "epsilon": {"start": 0.28, "stop": 0.30, "step": 0.01}, "W": [8, 10]}


def test_first_failure_stops_the_later_ensembles(tmp_path, capfd, monkeypatch):
    # every group (one per ensemble, its points three epsilons by two W)
    # leaves a marker; the first in grid order, (3, 4), fails, and no
    # ensemble after it starts
    markers = []

    def marking_group(points, **kwargs):
        assert [(spec.epsilon, sched.W) for spec, sched in points] == [
            (0.28, 8), (0.28, 10), (0.29, 8), (0.29, 10), (0.30, 8), (0.30, 10)]
        markers.append(points[0][0].ens.label())
        raise ValueError("first group fails")

    monkeypatch.setattr("scwde.cli.measure_speed", marking_group)
    cfg = write_cfg(tmp_path, GRID_12X3X2)
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 1, "configuration error: first group fails\n")
    assert markers == ["x3_x4"]
    assert list((tmp_path / "out").iterdir()) == []


def test_one_landscape_per_epsilon(tmp_path, monkeypatch):
    # table1 is one epsilon by four W: measure_speed makes one landscape for
    # all four points and lets it go before the runs, and the rows are the
    # benchmark's reference for that grid
    made, held = [], []

    def counting_landscape(eps, *args, **kwargs):
        land = landscape(eps, *args, **kwargs)
        made.append((eps, weakref.ref(land)))
        return land

    def checking_run_columns(columns):
        held.extend(eps for eps, ref in made if ref() is not None)
        return run_columns(columns)

    monkeypatch.setattr("scwde.speed.landscape", counting_landscape)
    monkeypatch.setattr("scwde.speed.run_columns", checking_run_columns)
    out = tmp_path / "out"
    assert main(["speed", "--preset", "table1", "--out", str(out), "--workers", "1"]) == 0
    assert [eps for eps, _ in made] == [0.465] and held == []
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "speed-table.csv"
    assert (out / "speed.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(("argv", "expected"), [
    (["speed", "--preset", "table1"], 3354),
    (["speed", "--preset", "fig4"], 42894),
    (["wave", "--preset", "fig3"], 540),
], ids=["table1", "fig4", "fig3"])
def test_preset_runs_its_pinned_kernel_calls(tmp_path, monkeypatch, argv, expected):
    # the work of a run is its kernel calls: one per sweep t of a window, up
    # to the largest T of the columns still live there, whatever their number
    kernel, calls = scwde.window._window_kernel, []

    def counting_kernel(*args):
        calls.append(None)
        kernel(*args)

    monkeypatch.setattr("scwde.window._window_kernel", counting_kernel)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == expected


def one_line_exit(capfd, code, expected, prefix) -> str:
    """Check the exit code and the one stderr line; return stdout."""
    out, err = capfd.readouterr()
    assert code == expected
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err
    return out


SAME_LABEL = {**TWO_ENSEMBLES, "ensembles": [{"L": [[2, 0.5], [3, 0.5]], "R": "x^6"},
                                             {"L": [[2, 0.3], [3, 0.7]], "R": "x^6"}]}
SAME_LABEL_ERROR = "ensembles must have distinct labels, got ['irr23_x6', 'irr23_x6']"
TWO_POINT_GRID = {**TWO_ENSEMBLES, "epsilon": {"start": 0.3, "stop": 0.31, "step": 0.01}}


@pytest.mark.parametrize(
    ("payload", "command", "message"),
    [
        # both are irr23_x6, and each label names a speed CSV
        (SAME_LABEL, "speed", SAME_LABEL_ERROR),
        (SAME_LABEL, "thresholds", SAME_LABEL_ERROR),
        (TWO_ENSEMBLES, "wave", "the wave command needs a single ensemble"),
        (TWO_ENSEMBLES, "landscape", "the landscape command needs a single ensemble"),
        # two grid points are no single epsilon, said before the two ensembles
        (TWO_POINT_GRID, "wave", "the wave command needs a single epsilon"),
        (TWO_POINT_GRID, "landscape", "the landscape command needs a single epsilon"),
    ],
    ids=["same-label-speed", "same-label-thresholds", "wave", "landscape", "wave-grid",
         "landscape-grid"],
)
def test_ensembles_rejected_before_out(tmp_path, capfd, payload, command, message):
    cfg = write_cfg(tmp_path, payload)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 1, f"configuration error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["wave", "landscape"])
def test_one_point_epsilon_grid_is_its_value(tmp_path, capfd, command):
    # a grid whose stop is its start runs that epsilon: the same files and
    # stdout, byte for byte
    outputs = []
    for i, epsilon in enumerate((0.3, {"start": 0.3, "stop": 0.3, "step": 0.01})):
        cfg = write_cfg(tmp_path, {**BASE_RUN, "epsilon": epsilon, "grid_n": 2001})
        out = tmp_path / f"out{i}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())},
                        capfd.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["speed", "--preset", "nope"], "argument --preset: invalid choice: 'nope' "
                                        "(choose from 'table1', 'fig2', 'fig3', 'fig4')"),
        (["speed"], "one of the arguments --config --preset is required"),
        (["speed", "--preset", "table1", "--workers", "x"],
         "argument --workers: invalid int value: 'x'"),
        (["speed", "--preset", "table1", "--workers", "0"],
         "argument --workers: must be at least 1, got 0"),
        (["speed", "--preset", "table1", "--workers", "-2"],
         "argument --workers: must be at least 1, got -2"),
        ([], "the following arguments are required: command"),
        (["speed", "--preset", "table1", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["unknown-preset", "no-config", "bad-workers", "zero-workers", "negative-workers",
         "no-command", "unknown-flag"],
)
def test_usage_error_exits_with_one_line(tmp_path, capfd, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # the default --out is relative
    code = main(argv)
    assert one_line_exit(capfd, code, 1, f"configuration error: {message}\n") == ""
    assert list(tmp_path.iterdir()) == []


def test_workers_default_to_1_whatever_the_cpus(monkeypatch):
    # the default no longer follows the CPUs this process may use
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert build_parser().parse_args(["speed", "--preset", "table1"]).workers == 1


def test_help_exits_0_and_lists_the_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["speed", "--help"])
    assert exc.value.code == 0
    assert "{table1,fig2,fig3,fig4}" in capsys.readouterr().out


def test_config_directory_exits_with_one_line(tmp_path, capfd):
    code = main(["wave", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 1, "configuration error: ")


@pytest.mark.parametrize(("command", "payload", "workers"), [
    ("wave", BASE_RUN, []),
    ("speed", BASE_RUN, ["--workers", "1"]),
    ("speed", {**TWO_ENSEMBLES, "epsilon": {"start": 0.28, "stop": 0.30, "step": 0.02},
               "W": [8, 10]}, ["--workers", "2"]),
], ids=["wave", "speed-1-worker", "speed-2-workers"])
def test_run_too_large_for_memory_exits_with_one_line(tmp_path, capfd, command, payload,
                                                      workers):
    # the first allocation, 8 bytes a position on a 1e17-position chain, is
    # larger than any address space and fails at once without touching memory
    cfg = write_cfg(tmp_path, {**payload, "N": 10**17})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *workers])
    one_line_exit(capfd, code, 1, "configuration error: the run does not fit in memory\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_out_path_on_a_file_exits_with_one_line(tmp_path, capfd):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["thresholds", "--preset", "fig4", "--out", str(taken)])
    assert one_line_exit(capfd, code, 1, "configuration error: ") == ""
    assert taken.read_text() == ""


@pytest.fixture
def speed_calls(monkeypatch) -> list:
    """Record every group of grid points that reaches ``measure_speed``, and
    fail it."""
    calls = []

    def count(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no grid point should run")

    monkeypatch.setattr("scwde.cli.measure_speed", count)
    return calls


def test_out_path_on_a_file_checked_before_any_point(tmp_path, capfd, speed_calls):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_cfg(tmp_path, {**BASE_RUN, "W": [8, 10]})
    code = main(["speed", "--config", str(cfg), "--out", str(taken), "--workers", "1"])
    assert one_line_exit(capfd, code, 1, "configuration error: ") == ""
    assert speed_calls == [] and taken.read_text() == ""


def test_every_epsilon_grid_expanded_before_any_point(tmp_path, capfd, speed_calls):
    # the grid ascends for (4,8) but not for (3,6), whose MAP threshold
    # 0.4882 lies below the grid's start
    cfg = write_cfg(tmp_path, {
        **TWO_ENSEMBLES,
        "epsilon": {"start": 0.49, "stop": "map_threshold", "step": 0.005},
    })
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "1"])
    one_line_exit(capfd, code, 1, "configuration error: epsilon grid must ascend")
    assert speed_calls == [] and not (tmp_path / "out").exists()


def test_chain_check_failure_exits_2(tmp_path, capfd, monkeypatch):
    # a sweep that raises an erasure breaks the recursion's monotonicity
    kernel = scwde.window._window_kernel

    def kernel_raising(*args):  # args: (workspace, reads, channel, out)
        kernel(*args)
        args[-1].fill(1.5)

    monkeypatch.setattr("scwde.window._window_kernel", kernel_raising)
    cfg = write_cfg(tmp_path, BASE_RUN)
    code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 2,
                  "numerical failure: erasure increased within window c=1, t=1")
    assert list((tmp_path / "out").iterdir()) == []


def test_chain_check_failure_partway_leaves_no_csv(tmp_path, capfd, monkeypatch):
    # the first windows are written before window 5 fails its checks; the
    # partial CSVs are removed, so --out is left created and empty
    kernel, calls = scwde.window._window_kernel, []

    def kernel_failing_late(*args):  # args: (workspace, reads, channel, out)
        calls.append(None)
        kernel(*args)
        args[-1][...] += 1.0 if len(calls) > 4 * BASE_RUN["T"] else 0.0

    monkeypatch.setattr("scwde.window._window_kernel", kernel_failing_late)
    cfg = write_cfg(tmp_path, BASE_RUN)
    code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 2,
                  "numerical failure: erasure increased within window c=5, t=1")
    assert list((tmp_path / "out").iterdir()) == []



@pytest.mark.parametrize("action", ["always", "error"])
def test_validated_fault_prints_one_line(tmp_path, capfd, monkeypatch, action):
    # fig3 runs T = 6 sweeps per window; every sweep of window 3 scales its
    # output by 1e100, so the sweeps after the first overflow before the
    # window's checks raise; they do so silently, also with warnings as errors
    kernel, calls = scwde.window._window_kernel, []

    def kernel_scaling(*args):  # args: (workspace, reads, channel, out)
        calls.append(None)
        kernel(*args)
        if 12 < len(calls) <= 18:
            args[-1][...] *= 1e100

    monkeypatch.setattr("scwde.window._window_kernel", kernel_scaling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        code = main(["wave", "--preset", "fig3", "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 2,
                  "numerical failure: erasure increased within window c=3, t=1")
    assert caught == [] and len(calls) == 18


@pytest.mark.parametrize(("failure", "expected"), [
    (ZeroDivisionError("division by zero"), 2),
    (OSError(28, "No space left on device"), 1),
    (KeyboardInterrupt(), None),
])
def test_any_failure_partway_leaves_no_csv(tmp_path, monkeypatch, failure, expected):
    # whatever stops the run in a later window's hook, the CSVs written so
    # far are removed before the failure goes on
    potential, calls = scwde.cli.coupled_potential, []

    def potential_failing_late(*args):
        calls.append(None)
        if len(calls) == 5:
            raise failure
        return potential(*args)

    monkeypatch.setattr("scwde.cli.coupled_potential", potential_failing_late)
    cfg = write_cfg(tmp_path, BASE_RUN)
    argv = ["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if expected is not None:
        assert main(argv) == expected
    else:
        with pytest.raises(type(failure)):
            main(argv)
    assert len(calls) == 5
    assert list((tmp_path / "out").iterdir()) == []

@pytest.mark.parametrize(
    ("failure", "expected", "prefix"),
    [
        (ChainCheckError("erasure left [0, 1]"), 2, "numerical failure: erasure left [0, 1]"),
        (NonConvergence("no fixed point"), 2, "numerical failure: no fixed point"),
        (FloatingPointError("overflow"), 2, "numerical failure: overflow"),
        (ValueError("window size 9 exceeds coupling length 8"), 1,
         "configuration error: window size 9"),
        (ConfigError("bad key"), 1, "configuration error: bad key"),
        (MemoryError(), 1, "configuration error: the run does not fit in memory"),
    ],
    ids=["chain-check", "non-convergence", "floating-point", "value", "config", "memory"],
)
def test_speed_failure_exits_with_one_line(tmp_path, capfd, monkeypatch, failure,
                                           expected, prefix):
    # an ensemble of a two-ensemble grid that raises exits by its type
    def failing_group(*args, **kwargs):
        raise failure

    monkeypatch.setattr("scwde.cli.measure_speed", failing_group)
    cfg = write_cfg(tmp_path, {**TWO_ENSEMBLES, "W": [8, 10]})
    code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, expected, prefix)


def python_c(code, **env_vars):
    """Stdout of ``python -c code`` in a fresh process that can import the
    package; an ``env_vars`` value of None removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(scwde.cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_multiprocessing_out():
    # no command starts a process, so importing the CLI does not pay for
    # multiprocessing
    code = ("import sys, scwde.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    assert python_c(code) == "[]\n"


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("2", "2")])
def test_cli_import_starts_no_blas_threads(user_value, expected):
    # the package makes no BLAS call, so it sets OPENBLAS_NUM_THREADS=1 before
    # numpy loads, and the import leaves one thread; a value the user set stays
    code = ("import os, scwde.cli; task = '/proc/self/task'; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir(task)) if os.path.isdir(task) else 'unknown')")
    value, threads = python_c(code, OPENBLAS_NUM_THREADS=user_value).split()
    assert value == expected
    if user_value is None and threads != "unknown":  # no /proc: no thread count
        assert threads == "1"


@pytest.mark.parametrize("T", [{"T": 6}, {"T": "auto", "T_max": 16}], ids=["fixed", "search"])
def test_chain_check_in_a_speed_grid_exits_2(tmp_path, capfd, monkeypatch, T):
    # every run is checked, a T search's too: the first ensemble of a
    # two-ensemble grid fails its sweep checks, silently, and writes nothing
    kernel = scwde.window._window_kernel

    def kernel_negating(*args):  # args: (workspace, reads, channel, out)
        kernel(*args)
        args[-1][...] = -args[-1] - 1e-6

    monkeypatch.setattr("scwde.window._window_kernel", kernel_negating)
    cfg = write_cfg(tmp_path, {**TWO_ENSEMBLES, "W": [8, 10], **T})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out")])
    one_line_exit(capfd, code, 2, "numerical failure: erasure left [0, 1]")
    assert caught == [] and list((tmp_path / "out").iterdir()) == []


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
        # a negative-rate ensemble whose potential at the stable fixed point
        # never turns negative: there is no MAP threshold to find
        cfg = write_cfg(tmp_path, {"ensemble": {"L": "x^6", "R": "x^3"},
                                   "epsilon": 0.4})
        assert main(["thresholds", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
