"""Run one scwde CLI command in this process with its layers traced from outside.

Each public function of the scwde modules is replaced, in every module
namespace that holds a binding of it, by a wrapper that records a span:
name, start, end, the index of the enclosing span, and for ``run_wd`` the
work its schedule implies. ``speed`` and ``cli`` hold their own bindings of
``run_wd`` and others (``from .window import ...``), so patching only the
defining module would miss their calls. Spans stay in memory and are written
as JSON when the command ends. Nothing under ``src/`` changes.

    PYTHONPATH=src python3 perfbench/tracer.py spans.json \\
        speed --config run.yaml --out out --workers 1

Run the command in one process (``--workers 1`` for ``speed``) so that every
span lands in this trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("scalar", "window", "coupled", "speed", "config", "cli")

# Called once per sweep, window slide or root-finder step: wrapping them
# would distort the run, so their time shows in the caller's span. For the
# same reason no function of ``poly`` is wrapped.
UNWRAPPED = frozenset(
    {
        "window_sweep",
        "window_update_values",
        "f_update",
        "slide",
        "init_state",
        "de_step",
        "potential",
        "potential_d1",
        "potential_d2",
    }
)


def _run_wd_attrs(signature: inspect.Signature):
    """Work of one run_wd call, read from its schedule and its result."""

    def attrs(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        spec, sched = bound["spec"], bound["sched"]
        _, traj = result
        states = 0
        if traj is not None:
            states = sum(traj.block(c).shape[0] for c in traj.windows())
        return {
            "sweeps": sum(sched.iterations_for(c) for c in range(1, sched.c_max(spec) + 1)),
            "W": sched.W,
            "chain": spec.chain_len,
            "recording": traj is not None,
            "states": states,
        }

    return attrs


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs = _run_wd_attrs(inspect.signature(fn)) if name == "window.run_wd" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"scwde.{layer}")
            for fname, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not fname.startswith("_")
                    and fname not in UNWRAPPED
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{fname}", obj)
        for mname, module in list(sys.modules.items()):
            if mname == "scwde" or mname.startswith("scwde."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["scwde.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
