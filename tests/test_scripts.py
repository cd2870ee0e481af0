import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_reproduce_all_without_staircase(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"),
         "--out", str(out), "--skip-staircase", "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name, header in OUTPUTS.items():
        with open(out / name, newline="") as fh:
            assert fh.readline() == header + "\r\n", name
    report = json.loads((out / "wave" / "steady_state.json").read_text())
    assert set(report) == {"c_prime", "shift_residual", "steady_tol",
                           "decode_success", "avg", "max"}
    assert sorted(p.name for p in out.iterdir()) == [
        "landscape", "speed_table", "thresholds", "wave"]
