import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from scwde.cli import main

ROOT = Path(__file__).resolve().parents[1]

# Every file of `reproduce_all.py --skip-staircase` and its documented header.
OUTPUTS = {
    "thresholds/thresholds.csv": "ensemble,eps_bp,eps_map",
    "landscape/landscape.csv": "x,U,U_prime,U_double_prime",
    "landscape/landscape_critical.csv": "x_a,x_b,x_c0,x_d,x_e,D",
    "wave/trajectory.csv": "c,t,z,x",
    "wave/potential_trace.csv": "c,t,U",
    "speed_table/speed.csv": (
        "epsilon,W,T_min,v,c_prime,A1,th2_finite,th2_infinite,alpha,success_policy"
    ),
}


def run_script(name, *args, timeout):
    """Run scripts/<name> with the package's sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_reproduce_all_without_staircase(tmp_path):
    out = tmp_path / "out"
    done = run_script("reproduce_all.py", "--out", str(out), "--skip-staircase", timeout=120)
    assert done.returncode == 0, done.stderr
    for name, header in OUTPUTS.items():
        with open(out / name, newline="") as fh:
            assert fh.readline() == header + "\r\n", name
    report = json.loads((out / "wave" / "steady_state.json").read_text())
    assert set(report) == {"c_prime", "shift_residual", "steady_tol",
                           "decode_success", "avg", "max"}
    assert sorted(p.name for p in out.iterdir()) == [
        "landscape", "speed_table", "thresholds", "wave"]


def test_threshold_fixture_regenerates_byte_for_byte(tmp_path):
    out = tmp_path / "thresholds.json"
    done = run_script("gen_threshold_fixtures.py", "--out", str(out), timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (ROOT / "tests" / "fixtures" / "thresholds.json").read_bytes()


def load_perfbench(name):
    """A module of the benchmark in perfbench/, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["speed-table", "speed-near", "wave-export"])
def test_workload_passes_the_benchmark_check(tmp_path, name):
    # the benchmark's own correctness gate on a seed-0 run: every speed row
    # re-verified through run_wd, the wave outputs checked for their
    # invariants, and every row byte-equal to the reference
    workload = load_perfbench("workloads").WORKLOADS[name]
    check = load_perfbench("check").check
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(workload.config(0), sort_keys=False))
    out = tmp_path / "out"
    workers = ["--workers", "1"] if workload.command == "speed" else []
    assert main([workload.command, "--config", str(cfg), "--out", str(out), *workers]) == 0
    verdict = check(workload, 0, out)
    assert (verdict.wrong, verdict.byte_changed) == (0, 0)
