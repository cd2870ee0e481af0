"""Benchmark of the scwde CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload speed-near --seed 0 --seconds 30 --trace 0

The program receives only the YAML config this script generates from the
workload and the seed, and runs from the checkout's ``src/``. With
``--trace 0`` the CLI is launched as a user would (``--workers 2`` for
``speed``) again and again for about ``--seconds``, and the end-to-end
metrics are medians over the launches.
With ``--trace 1`` each round launches the one-process layout
(``--workers 1``) untraced and then under ``tracer.py``, and the per-layer
metrics are medians over the rounds. Every launch's outputs are checked
(``check.py``) outside the timed region. The environment is printed and
saved with the result under ``.perfbench_work/``. The last line of stdout is
the JSON result; the exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import yaml

from check import check
from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
WORKERS = 2  # the CLI default on the 2-core host the workloads were sized for
SETUP_REPEATS = 9
LAUNCH_TIMEOUT_S = 120.0
CLI = "import sys; from scwde.cli import main; sys.exit(main())"
SETUP = "import sys; import scwde.cli as cli; cli.load_config(sys.argv[1])"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Reported beside the metrics; both must read 0.
CORRECTNESS = {"wrong_rows": "count", "failed_frac": "ratio"}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float  # user + system time of the process and the children it waited for
    peak_rss_mib: float  # largest peak resident set of any process in the tree
    ok: bool  # exit code 0 within the timeout


def launch(argv: list[str], log: Path) -> Launch:
    """Run ``argv`` through launch.py, from the checkout, on its ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = log.with_suffix(".json")
    subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(result), str(LAUNCH_TIMEOUT_S), str(log), "--", *argv],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=LAUNCH_TIMEOUT_S + 30,
    )
    measured = json.loads(result.read_text())
    code = measured.pop("exit_code")
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-20:]
        print(f"perfbench: {log.stem} launch exited {code}", *tail, sep="\n", file=sys.stderr)
    return Launch(**measured, ok=code == 0)


def cli_argv(workload, config: Path, out: Path, workers: int, spans: Path | None = None):
    head = [sys.executable, "-c", CLI]
    if spans is not None:
        head = [sys.executable, str(HERE / "tracer.py"), str(spans)]
    argv = head + [workload.command, "--config", str(config), "--out", str(out)]
    if workload.command == "speed":
        argv += ["--workers", str(workers)]
    return argv


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def output_size(out: Path) -> tuple[int, int]:
    """(data rows, bytes) over every file the command wrote."""
    rows = size = 0
    for path in out.iterdir():
        data = path.read_bytes()
        size += len(data)
        rows += data.count(b"\n") - 1 if path.suffix == ".csv" else 1
    return rows, size


def environment(workers: int) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


class Tally:
    """The launches of one run, with the check of each one's outputs.

    Launches whose outputs have the same bytes share one verdict.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.launches: list[Launch] = []
        self.wrong = self.failed = 0
        self._verdicts: dict = {}

    def verdict(self, out: Path):
        key = digest(out)
        if key not in self._verdicts:
            self._verdicts[key] = check(self.workload, self.seed, out)
        return self._verdicts[key]

    def add(self, run: Launch, out: Path) -> None:
        self.launches.append(run)
        wrong = self.verdict(out).wrong if run.ok else 0
        self.wrong += wrong
        self.failed += not run.ok or wrong > 0


def _another(walls: list[float], seconds: float) -> bool:
    """Whether to start one more launch (or round).

    Yes while the expected end of the next one overshoots ``seconds`` by at
    most half a launch, so that a run measures ``seconds`` on average and a
    15 s speed-near launch is still made twice.
    """
    return not walls or sum(walls) + statistics.median(walls) / 2 <= seconds


def _untraced(tally: Tally, seconds: float, config: Path, work: Path) -> dict:
    setup = [
        launch([sys.executable, "-c", SETUP, str(config)], work / "setup.log").wall_s
        for _ in range(SETUP_REPEATS)
    ]
    out = work / "out"
    while _another([l.wall_s for l in tally.launches], seconds):
        shutil.rmtree(out, ignore_errors=True)
        tally.add(launch(cli_argv(tally.workload, config, out, WORKERS), work / "cli.log"), out)
    launches = tally.launches
    return {
        "wall_s": statistics.median(l.wall_s for l in launches),
        "cpu_s": statistics.median(l.cpu_s for l in launches),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(l.peak_rss_mib for l in launches),
    }


def _traced(tally: Tally, seconds: float, config: Path, work: Path) -> dict:
    workload = tally.workload
    plain_out, traced_out, spans = work / "plain", work / "traced", work / "spans.json"
    round_walls, measured = [], []
    while _another(round_walls, seconds):
        for path in (plain_out, traced_out):
            shutil.rmtree(path, ignore_errors=True)
        plain = launch(cli_argv(workload, config, plain_out, 1), work / "cli.log")
        traced = launch(cli_argv(workload, config, traced_out, 1, spans), work / "trace.log")
        tally.add(plain, plain_out)
        tally.add(traced, traced_out)
        round_walls.append(plain.wall_s + traced.wall_s)
        if plain.ok and traced.ok:
            measured.append(
                layer_metrics(
                    json.loads(spans.read_text())["spans"],
                    *output_size(traced_out),
                    tally.verdict(traced_out).byte_changed,
                    traced.wall_s - plain.wall_s,
                )
            )
            shutil.copy(spans, WORK / f"spans-{workload.name}-{tally.seed}.json")
    return {name: _median([m[name] for m in measured]) for name in PER_LAYER}


def _median(values: list):
    """Median over the rounds; a count stays a whole number."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result with its environment."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # check.py reruns run_wd
    tally = Tally(WORKLOADS[name], seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        config = work / "run.yaml"
        config.write_text(yaml.safe_dump(tally.workload.config(seed), sort_keys=False))
        # Untimed warm-up: compiles the bytecode and fills the file cache.
        launch([sys.executable, "-c", SETUP, str(config)], work / "setup.log")
        metrics = (_traced if trace else _untraced)(tally, seconds, config, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": environment(1 if trace else WORKERS),
        "metrics": metrics,
        "wrong_rows": tally.wrong,
        "failed": tally.failed,
        "attempted": len(tally.launches),
        "failed_frac": tally.failed / len(tally.launches),
        "launches": [vars(l) for l in tally.launches],
    }
    (WORK / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


def unit(metric: str) -> str:
    if metric in PER_LAYER:
        return PER_LAYER[metric][0]
    return {**END_TO_END, **CORRECTNESS}[metric]


def require_sources() -> None:
    if not (ROOT / "src" / "scwde" / "cli.py").is_file():
        sys.exit(f"perfbench: no scwde sources under {ROOT / 'src'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_sources()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"env {json.dumps(result['env'])}")
    for metric, value in result["metrics"].items():
        print(f"{metric} {value} {unit(metric)}")
    for metric in CORRECTNESS:
        print(f"{metric} {result[metric]} {unit(metric)}")
    correct = result["wrong_rows"] == 0 and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m: {"value": v, "unit": unit(m)} for m, v in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
