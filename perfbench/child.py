"""One run of a workload in a fresh interpreter, started the way a user starts twistlab.

Usage: ``python3 perfbench/child.py JOB.json``.  The job names the workload
mode, the generated config, the output directory and whether to trace.  The
process imports ``twistlab`` from ``src/`` of this checkout, drives it, and
writes its measurements to the job's ``result`` path:

- ``first_case``/``end``: ``time.monotonic()`` when ``run_scenario`` was
  entered and when the last output was written.  The clock is system-wide,
  so the parent subtracts its own start stamp to get the set-up time.
- ``peak_rss_kb``: this process's peak resident set (pool workers excluded).
- ``records`` and ``hashes``: per-case verdicts and output hashes, taken
  after the clock stops.
- with tracing, ``spans``, ``steps`` and ``pickle_bytes``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _case_record(result) -> dict:
    rep = result.report
    record = {"label": result.label, "error": result.error,
              "rate_bound": result.rate_bound, "period": result.period}
    if result.gains is not None:
        record["gains"] = [result.gains.k1, result.gains.k2, result.gains.delta]
    if rep is not None:
        record.update(converged=rep.converged, amplitude=rep.amplitude,
                      coarse_bound=rep.coarse_bound, tight_bound=rep.tight_bound,
                      measured_period=rep.measured_period,
                      cycle_start_time=rep.cycle_start_time,
                      crossings_per_period=rep.crossings_per_period)
    return record


def _case_hash(result, record: dict) -> str:
    """Hash of one in-memory case: its record plus every recorded channel."""
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    traj = result.trajectory
    if traj is not None:
        for channel in (traj.t, traj.x1, traj.x2, traj.u, traj.d, traj.q):
            digest.update(channel.tobytes())
    return digest.hexdigest()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import twistlab.runner as runner

    if not Path(runner.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: twistlab imported from {runner.__file__}, not from {SRC}",
              file=sys.stderr)
        return 1

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(Path(job["work_dir"]))
        tracer.install()

    first_case: list[float] = []
    pooled: list = []
    run_scenario = runner.run_scenario

    def timed_run_scenario(*args, **kwargs):
        first_case.append(time.monotonic())
        results = run_scenario(*args, **kwargs)
        if tracer is not None and job["workers"] > 1:
            pooled.extend(results)
        return results

    runner.run_scenario = timed_run_scenario

    out = Path(job["out_dir"])
    mode = job["mode"]
    codes: list[int] = []
    table = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        if mode == "scenario":
            cfg = runner.ScenarioConfig.from_file(job["config"])
            results = runner.run_scenario(cfg, workers=job["workers"])
        else:
            codes.append(runner.main(["sweep", "--config", job["config"], "--out", str(out),
                                      "--workers", str(job["workers"])]))
            if mode == "sweep+table":
                with contextlib.redirect_stdout(table):
                    codes.append(runner.main(["table", "--out", str(out)]))
    end = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import golden

    if mode == "scenario":
        records = [_case_record(r) for r in results]
        hashes = {f"{rec['label']}/run": _case_hash(r, rec) for r, rec in zip(results, records)}
        output_bytes = 0
    else:
        hashes = golden.hash_tree(out)
        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        reports = json.loads((out / "reports.json").read_text())
        records = reports["runs"]
        if mode == "sweep+table":
            hashes["table.txt"] = hashlib.sha256(table.getvalue().encode()).hexdigest()

    result = {
        "first_case": first_case[0] if first_case else None,
        "end": end,
        "peak_rss_kb": peak_rss_kb,
        "codes": codes,
        "records": [{k: rec.get(k) for k in ("label", "error", "converged", "amplitude",
                                            "coarse_bound")} for rec in records],
        "hashes": hashes,
        "output_bytes": output_bytes,
    }
    if tracer is not None:
        if job["workers"] > 1 and not any(Path(job["work_dir"]).glob("spans-*.json")):
            print("perfbench: no spans came back from pool workers", file=sys.stderr)
        spans, steps = tracer.merged()
        result.update(spans=spans, steps=steps,
                      pickle_bytes=sum(len(pickle.dumps(r)) for r in pooled))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
