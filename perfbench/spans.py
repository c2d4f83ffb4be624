"""Span tracing from outside the program.

The tracer replaces each layer's public callables, at the names their
callers look up, with wrappers that time the call.  Spans are aggregated
in memory per name as total time, self time (total minus the time of
nested spans) and call count.  Pool workers forked after installation
trace themselves and write their aggregate to ``worker_dir`` whenever
their outermost span closes; :meth:`Tracer.merged` folds those files in.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

#: (object path, attribute, span name).  The object is a module or a class.
TARGETS = [
    ("twistlab.runner", "constant_speed_characterization", "signals.characterize"),
    ("twistlab.runner", "bound_L", "signals.characterize"),
    ("twistlab.runner", "finite_time_gains", "tuning.resolve"),
    ("twistlab.runner", "tune_k2", "tuning.resolve"),
    ("twistlab.runner", "optimize_gains", "tuning.resolve"),
    ("twistlab.runner", "integrate", "integrator.integrate"),
    ("twistlab.integrator", "rk4_solve", "integrator.solve"),
    ("twistlab.plant", "rk4_solve", "integrator.solve"),
    ("twistlab.integrator:Trajectory", "to_csv", "integrator.to_csv"),
    ("twistlab.runner", "simulate_motor_loop", "plant.loop"),
    ("twistlab.runner", "build_report", "analysis.report"),
    ("twistlab.analysis", "stroboscopic_convergence", "analysis.strobe"),
    ("twistlab.analysis", "estimate_period", "analysis.period"),
    ("twistlab.analysis", "detect_crossings", "analysis.crossings"),
    ("twistlab.runner", "emit_outputs", "runner.emit"),
    ("twistlab.runner", "bound_comparison_table", "runner.table"),
    ("twistlab.analysis:BoundTable", "to_csv", "runner.table"),
    ("twistlab.analysis:BoundTable", "render", "runner.table"),
]

#: Span whose calls carry the RK4 step count as ``n_steps`` (5th positional).
STEP_SPAN = "integrator.solve"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Per-process span aggregate: name -> [total_s, self_s, calls], plus RK4 steps."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.totals: dict[str, list] = {}
        self.steps = 0
        self._stack: list[list[float]] = []
        self._flush_path: Path | None = None
        os.register_at_fork(after_in_child=self._enter_worker)

    def _enter_worker(self) -> None:
        self.totals, self.steps, self._stack = {}, 0, []
        self._flush_path = self.worker_dir / f"spans-{os.getpid()}.json"

    def _flush(self) -> None:
        tmp = self._flush_path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"totals": self.totals, "steps": self.steps}))
        os.replace(tmp, self._flush_path)

    def wrap(self, name: str, fn):
        counts_steps = name == STEP_SPAN
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_steps:
                self.steps += args[4] if len(args) > 4 else kwargs["n_steps"]
            nested = [0.0]
            self._stack.append(nested)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                entry = self.totals.setdefault(name, [0.0, 0.0, 0])
                entry[0] += elapsed
                entry[1] += elapsed - nested[0]
                entry[2] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                elif self._flush_path is not None:
                    self._flush()

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is reported and skipped."""
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"perfbench: {path}.{attr} not found; span {name} is not traced",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self.wrap(name, fn))

    def merged(self) -> tuple[dict, int]:
        """This process's spans plus every worker's, summed per name."""
        totals = {k: list(v) for k, v in self.totals.items()}
        steps = self.steps
        for path in sorted(self.worker_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            steps += data["steps"]
            for name, (total, own, calls) in data["totals"].items():
                entry = totals.setdefault(name, [0.0, 0.0, 0])
                entry[0] += total
                entry[1] += own
                entry[2] += calls
        return totals, steps
