import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scwde.cli import main
from scwde.config import ConfigError, load_config, load_preset


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


@pytest.mark.parametrize("command", ["wave", "speed"])
@pytest.mark.parametrize("override", [
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
], ids=repr)
def test_malformed_config_exits_with_one_line(tmp_path, capfd, command, override):
    cfg = write_cfg(tmp_path, {**BASE_RUN, **override})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *(["--workers", "1"] if command == "speed" else [])])
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
