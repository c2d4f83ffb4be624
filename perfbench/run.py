"""twistlab benchmark: time whole sweeps end to end, and each layer in a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload motor_sweep --seed 0 --seconds 40 --trace 0

Each repetition starts a fresh interpreter (``child.py``) that imports
``twistlab`` from ``src/`` and runs one generated sweep.  Repetitions
continue while the next one still fits in ``--seconds``; every metric is the
median over them.

- ``--trace 0`` reports the end-to-end metrics: set-up time (process start
  to the first case), wall time (first case to last output), RK4 steps per
  second of wall time and the parent's peak memory.
- ``--trace 1`` alternates untraced and traced repetitions and reports the
  per-layer spans, exact counts and the tracing overhead (traced minus
  untraced wall time, per pair).

Every repetition is checked: no case may raise or break its workload's
invariant; all repetitions of a seed must write identical outputs (so a
traced run writes the same bytes as an untraced one); on the default seed
the outputs must match ``golden.json``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` (cases) and
``metrics``.  ``--write-golden`` re-pins ``golden.json`` for a workload from
one run at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "integrator.solve_s": "s",
    "integrator.solve_calls": "count",
    "integrator.steps": "count",
    "integrator.us_per_step": "us",
    "integrator.channels_s": "s",
    "integrator.to_csv_s": "s",
    "dynamics.field_evals": "count",
    "plant.loop_s": "s",
    "plant.self_s": "s",
    "analysis.report_s": "s",
    "analysis.report_calls": "count",
    "analysis.strobe_s": "s",
    "analysis.period_s": "s",
    "analysis.crossings_s": "s",
    "analysis.converged_ratio": "ratio",
    "runner.emit_s": "s",
    "runner.table_s": "s",
    "runner.output_bytes": "bytes",
    "runner.result_pickle_mb": "MB",
    "signals.characterize_s": "s",
    "tuning.resolve_s": "s",
    "tuning.resolve_calls": "count",
    "trace.overhead_s": "s",
}

#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


@contextlib.contextmanager
def _work_dir(workload: str, config: dict):
    """Scratch directory in the checkout holding the config; removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_text(json.dumps(config, indent=1))
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run_rep(workload: str, config_path: Path, rep_dir: Path, trace: bool,
            deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns the child's result plus timings."""
    rep_dir.mkdir(parents=True)
    job = {"mode": workloads.MODES[workload], "workers": workloads.WORKERS[workload],
           "config": str(config_path), "out_dir": str(rep_dir / "out"),
           "work_dir": str(rep_dir), "trace": trace, "result": str(rep_dir / "result.json")}
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} repetition timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited with {proc.returncode}:\n"
                         f"{err.decode(errors='replace')}")
    sys.stderr.write(err.decode(errors="replace"))
    result = json.loads((rep_dir / "result.json").read_text())
    if result["first_case"] is None:
        raise BenchError(f"{workload} repetition never reached run_scenario")
    result["setup_s"] = result["first_case"] - start
    result["wall_s"] = result["end"] - result["first_case"]
    shutil.rmtree(rep_dir / "out", ignore_errors=True)
    return result


def failed_cases(workload: str, config: dict, rep: dict, reference: dict | None,
                 pinned: dict | None) -> int:
    """Cases of one repetition that raised, broke the invariant or changed output.

    ``reference`` holds the hashes of the run's first repetition and
    ``pinned`` the golden hashes (default seed only).
    """
    labels = [r["label"] for r in rep["records"]]
    bad = {r["label"] for r in rep["records"] if workloads.broken_invariant(workload, r)}
    # `sweep` exits 2 when some case is not ok, which the invariants judge;
    # any other failing exit status, of `sweep` or `table`, fails every case.
    sweep_codes, table_codes = rep["codes"][:1], rep["codes"][1:]
    if any(code not in (0, 2) for code in sweep_codes) or any(table_codes):
        bad = set(labels)
    for expected in (reference, pinned):
        if expected is not None:
            bad |= golden.failed_labels(rep["hashes"], expected, labels)
    missing = workloads.case_count(config) - len(labels)
    return len(bad) + max(missing, 0)


def layer_metrics(rep: dict) -> dict:
    """Per-layer values of one traced repetition."""
    spans, steps = rep["spans"], rep["steps"]

    def span(name: str) -> list:
        return spans.get(name, [0.0, 0.0, 0])

    records = rep["records"]
    return {
        "integrator.solve_s": span("integrator.solve")[0],
        "integrator.solve_calls": span("integrator.solve")[2],
        "integrator.steps": steps,
        "integrator.us_per_step": 1e6 * span("integrator.solve")[0] / steps if steps else 0.0,
        "integrator.channels_s": span("integrator.integrate")[1],
        "integrator.to_csv_s": span("integrator.to_csv")[0],
        "dynamics.field_evals": 4 * steps,
        "plant.loop_s": span("plant.loop")[0],
        "plant.self_s": span("plant.loop")[1],
        "analysis.report_s": span("analysis.report")[0],
        "analysis.report_calls": span("analysis.report")[2],
        "analysis.strobe_s": span("analysis.strobe")[0],
        "analysis.period_s": span("analysis.period")[0],
        "analysis.crossings_s": span("analysis.crossings")[0],
        "analysis.converged_ratio": sum(bool(r["converged"]) for r in records) / len(records),
        "runner.emit_s": span("runner.emit")[0],
        "runner.table_s": span("runner.table")[0],
        "runner.output_bytes": rep["output_bytes"],
        "runner.result_pickle_mb": rep["pickle_bytes"] / 1e6,
        "signals.characterize_s": span("signals.characterize")[0],
        "tuning.resolve_s": span("tuning.resolve")[0],
        "tuning.resolve_calls": span("tuning.resolve")[2],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for ``seconds``; returns the result object to print."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    config = workloads.GENERATORS[workload](seed)
    pinned = golden.load(workload) if seed == workloads.DEFAULT_SEED else None
    plain: list[dict] = []
    traced: list[dict] = []
    with _work_dir(workload, config) as work:
        while True:
            unit_start = time.monotonic()
            order = [False, True] if len(traced) % 2 == 0 else [True, False]
            for flag in (order if trace else [False]):
                rep_dir = work / f"rep{len(plain) + len(traced)}"
                (traced if flag else plain).append(
                    run_rep(workload, work / "config.json", rep_dir, flag, deadline))
            now = time.monotonic()
            if now + (now - unit_start) > started + seconds:
                break

    reps = plain + traced
    reference = reps[0]["hashes"]
    failed = sum(failed_cases(workload, config, rep, reference, pinned) for rep in reps)
    attempted = len(reps) * workloads.case_count(config)
    if trace:
        per_rep = [layer_metrics(rep) for rep in traced]
        metrics = {name: statistics.median(m[name] for m in per_rep)
                   for name in per_rep[0]}
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        units = PER_LAYER
    else:
        wall = statistics.median(r["wall_s"] for r in plain)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": wall,
            "steps_per_s": workloads.total_steps(config) / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) * 1024 / 1e6,
        }
        units = END_TO_END

    last = reps[-1]
    converged = sum(bool(r["converged"]) for r in last["records"])
    print(f"{workload} seed={seed} trace={int(trace)}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, workers={workloads.WORKERS[workload]}")
    print(f"  fail_ratio = {failed / attempted:.4g} ({failed}/{attempted} cases)")
    print(f"  converged_ratio = {converged / len(last['records']):.4g}")
    print(f"  output_mb = {last['output_bytes'] / 1e6:.6g} MB")
    print("  wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def write_golden(workload: str) -> None:
    """Pin the default seed's outputs after checking its invariants."""
    config = workloads.GENERATORS[workload](workloads.DEFAULT_SEED)
    with _work_dir(workload, config) as work:
        rep = run_rep(workload, work / "config.json", work / "rep", False,
                      time.monotonic() + RUN_LIMIT_S)
    if failed_cases(workload, config, rep, None, None):
        raise BenchError(f"{workload}: invariants fail at the default seed; not pinned")
    golden.store(workload, rep["hashes"])
    print(f"pinned {len(rep['hashes'])} output hashes for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json for the workload at the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twistlab" / "__init__.py").is_file():
        print(f"perfbench: no twistlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden(args.workload)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
