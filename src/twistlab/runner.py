"""Scenario engine and command-line interface.

Executes parameter sweeps over three scenario kinds
(constant-speed motor, sinusoidal-velocity motor, synthetic sinusoidal
rate), measures each run's limit cycle, and writes CSV trajectories,
phase-plot data, bound tables and a text summary.  Physics is fully
deterministic; the seed only feeds optional measurement-noise injection.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import io
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (MIN_STROBE_PERIODS, LimitCycleReport, bound_comparison_table,
                       build_report, final_periods, scaling_fit)
from .dynamics import DEFAULT_DELTA, Gains, check_number, twisting_action
from .integrator import IntegrationConfig, Trajectory, integrate, write_csv
from .plant import MotorModel, simulate_motor_loop
from .signals import (FrictionCoggingModel, MotionProfile, SinusoidPerturbation,
                      TWO_PI, bound_L, constant_speed_characterization, eval_q)
from .tuning import (AccuracySpec, InfeasibleSpecError, check_averaged_conditions,
                     cycle_width_bound, finite_time_gains, optimize_gains, tight_width_bound)

__all__ = ["SCHEMA_VERSION", "ScenarioConfig", "RunResult", "run_scenario",
           "emit_outputs", "main"]

SCHEMA_VERSION = 1


def _is_schema(version) -> bool:
    """Whether a stored ``schema_version`` is ``SCHEMA_VERSION``, given as an integer."""
    return type(version) is int and version == SCHEMA_VERSION


SCENARIOS = ("constant_speed", "sinusoidal_velocity", "synthetic_q")

#: The files a sweep writes beside its run directories.
SWEEP_FILES = ("bounds.csv", "scaling.csv", "summary.txt", "reports.json")


def _number(what: str, ok=math.isfinite, integer: bool = False):
    """Check: :func:`~twistlab.dynamics.check_number`; ``_check`` names the key."""
    return lambda value: check_number(value, what, ok, integer)


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value
    return check


def _each(check):
    """Check: a non-empty list whose every entry passes ``check``."""
    def check_list(value):
        if not (isinstance(value, (list, tuple)) and value):
            raise ValueError(f"must be a non-empty list, got {value!r}")
        return [check(entry) for entry in value]
    return check_list


def _case(entry) -> tuple[float, float]:
    """A ``synthetic_q`` case ``[L, T]``, as (L, T)."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValueError(f"must be [L, T], got {entry!r}")
    return _nonnegative(entry[0]), _positive(entry[1])


_finite = _number("a finite number")
_nonnegative = _number("a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_positive = check_number  # by default, a finite number > 0
_count = _number("an integer >= 1", lambda v: v >= 1, integer=True)

# Rows that more than one section or gains source reads.
_DELTA = (DEFAULT_DELTA, _positive)
_ZERO = (0.0, _finite)
# the motor scenarios' rows: the models, which loading builds, check them
_MOTOR = {f.name: (f.default, lambda v: v) for f in fields(MotorModel)
          if f.name != "friction_cogging"}
_PERTURBATION = {f.name: (f.default, lambda v: v) for f in fields(FrictionCoggingModel)}

#: Every key the runner reads, per config section.  A row is ``(default, check)``,
#: or a bare check for a key that must be given; a default of None is resolved
#: where the key is read.  ``gains`` rows depend on ``gains.source``, and ``motor``,
#: ``perturbation``, ``parameters`` and ``initial`` rows on the scenario.  A key
#: with no row is rejected.
CONFIG_TABLE = {
    "integration": {"steps_per_period": (2000, _count),
                    "periods": (40, _number(f"an integer >= {MIN_STROBE_PERIODS}",
                                            lambda v: v >= MIN_STROBE_PERIODS, integer=True))},
    "analysis": {"n": (0.5, _number("a number in (0, 0.5]", lambda v: 0.0 < v <= 0.5)),
                 "tolerance": (None, lambda v: None if v is None else _positive(v))},
    "motor": {"constant_speed": _MOTOR, "sinusoidal_velocity": _MOTOR, "synthetic_q": {}},
    "perturbation": {"constant_speed": _PERTURBATION, "sinusoidal_velocity": _PERTURBATION,
                     "synthetic_q": {}},
    "gains": {
        "explicit": {"k1": _positive, "k2": _positive, "delta": _DELTA},
        "finite_time": {"margin": (1.1, _number("a finite number > 1",
                                                lambda v: 1.0 < v < math.inf)),
                        "delta": _DELTA},
        "optimize": {"k1_max": _positive, "eta": _positive},
    },
    "parameters": {
        "constant_speed": {"omega_r": _each(_number("a finite nonzero number",
                                                    lambda v: v != 0.0 and math.isfinite(v)))},
        "sinusoidal_velocity": {"frequency_hz": _each(_positive), "accel_peak": (100.0, _finite)},
        "synthetic_q": {"cases": _each(_case), "phase": _ZERO},
    },
    "initial": {"constant_speed": {"error": _ZERO, "integral": _ZERO},
                "sinusoidal_velocity": {"error": _ZERO, "integral": _ZERO},
                "synthetic_q": {"x1": _ZERO, "x2": _ZERO}},
}


def _check(name: str, section: dict, key: str, row):
    """One key's checked value, or its row's default when the section leaves it out."""
    if key in section:
        try:
            return (row[1] if isinstance(row, tuple) else row)(section[key])
        except ValueError as exc:
            raise ValueError(f"{name}.{key} {exc}") from None
    if not isinstance(row, tuple):
        raise ValueError(f"{name}.{key} is required")
    return row[0]


@dataclass
class ScenarioConfig:
    """One scenario plus everything needed to execute and analyze it.

    The sections keep the keys as written.  Loading checks them against
    ``CONFIG_TABLE`` into ``checked`` (section -> key -> value, defaults filled
    in) and builds the labelled ``cases``, for the motor scenarios
    ``motor_model`` (None for ``synthetic_q``), and ``forcing``: each case's
    rate bound and period ``(L, T)`` as floats, in case order.  A bad config,
    or an ``L = 0`` case whose gains are tuned to ``L``, thus fails before any
    case runs.
    """

    scenario: str
    parameters: dict
    gains: dict = field(default_factory=dict)
    perturbation: dict = field(default_factory=dict)
    motor: dict = field(default_factory=dict)
    integration: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        check_number(self.seed, "an integer >= 0", lambda v: v >= 0, integer=True, name="seed")
        for name in CONFIG_TABLE:
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"config section {name!r} must be an object")
        source_row = ("explicit", _one_of(*CONFIG_TABLE["gains"]))
        source = _check("gains", self.gains, "source", source_row)
        table = dict(CONFIG_TABLE, gains={"source": source_row, **CONFIG_TABLE["gains"][source]},
                     **{name: CONFIG_TABLE[name][self.scenario]
                        for name in ("motor", "perturbation", "parameters", "initial")})
        self.checked = {}
        for name, rows in table.items():
            section = getattr(self, name)
            extra = sorted(set(section) - set(rows))
            if extra:
                raise ValueError("unknown config keys: " + ", ".join(f"{name}.{k}" for k in extra))
            self.checked[name] = {k: _check(name, section, k, row) for k, row in rows.items()}

        self.motor_model = None
        if self.scenario != "synthetic_q":
            try:
                friction = FrictionCoggingModel(**self.checked["perturbation"])
            except ValueError as exc:  # its messages open with the field name
                raise ValueError(f"perturbation.{exc}") from exc
            try:
                self.motor_model = MotorModel(friction_cogging=friction, **self.checked["motor"])
            except ValueError as exc:  # MotorModel's messages open with the field name
                raise ValueError(f"motor.{exc}") from exc

        params = self.checked["parameters"]
        if self.scenario == "constant_speed":
            self.cases = [{"label": f"wr{v:g}", "omega_r": v} for v in params["omega_r"]]
        elif self.scenario == "sinusoidal_velocity":
            self.cases = [{"label": f"f{v:g}", "frequency_hz": v} for v in params["frequency_hz"]]
        else:
            self.cases = [{"label": f"L{L:g}_T{T:g}", "rate_bound": L, "period": T}
                          for L, T in params["cases"]]
        labels = [case["label"] for case in self.cases]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"config error: two cases share the label {label!r} (labels "
                                 "keep 6 significant digits); each needs its own run directory")
        self.forcing = [self._characterize(case) for case in self.cases]
        if source != "explicit":  # every other source tunes to L
            for label, (L, _) in zip(labels, self.forcing):
                if L == 0.0:
                    raise ValueError(f"case {label!r} has L = 0, which gains.source {source!r} "
                                     "cannot tune to: it needs a rate bound > 0")

    def _profile(self, case: dict) -> MotionProfile:
        """A motor case's reference motion."""
        if self.scenario == "constant_speed":
            return MotionProfile.constant_speed(case["omega_r"])
        return MotionProfile.sinusoidal_velocity(
            case["frequency_hz"], accel_peak=self.checked["parameters"]["accel_peak"])

    def _characterize(self, case: dict) -> tuple[float, float]:
        """The case's forcing (L, T): as given, in closed form, or bounded by sampling."""
        if self.scenario == "synthetic_q":
            return case["rate_bound"], case["period"]
        model = self.motor_model.friction_cogging
        if self.scenario == "constant_speed":
            return constant_speed_characterization(model, case["omega_r"])
        try:
            profile, T = self._profile(case), 1.0 / case["frequency_hz"]
            return bound_L(lambda t: eval_q(model, profile, t), T), T
        except ValueError as exc:  # an overflowing frequency, or non-finite rate samples
            raise ValueError(f"characterize case {case['label']!r}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("schema_version", None)
        if not _is_schema(version):
            raise ValueError(f"config schema_version {version!r} is not {SCHEMA_VERSION}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError("unknown config keys: " + ", ".join(sorted(unknown)))
        for name in ("scenario", "parameters"):
            if name not in data:
                raise ValueError(f"{name} is required")
        return cls(**data)

    @classmethod
    def from_file(cls, path, overrides=()) -> "ScenarioConfig":
        """Load a JSON config file, each ``KEY=VALUE`` override string applied to it first.

        The config is checked and its cases characterized once, with every
        override in place, so an override can repair a file that fails alone.
        """
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for override in overrides:
            data = _overridden(data, override)
        return cls.from_dict(data)


def _overridden(data, override: str) -> dict:
    """The config object ``data`` with the dotted-path key of ``KEY=VALUE`` set to its value.

    The value is parsed as JSON, or kept as the string when it is not JSON.  An override
    without ``=``, or whose key has an empty segment, fails here; an unknown section or key
    is named by the load, as in a file.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    dotted_key, sep, raw_value = override.partition("=")
    if not sep:
        raise ValueError(f"bad override {override!r}; expected KEY=VALUE")
    if "" in dotted_key.split("."):
        raise ValueError(f"bad override {override!r}; "
                         "each segment of a dotted key must be non-empty")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    head, _, rest = dotted_key.partition(".")
    if rest:  # every section is flat, so a deeper path names a key that no row has
        section = data.get(head, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {head!r} must be an object")
        value = {**section, rest: value}
    return {**data, head: value}


@dataclass
class RunResult:
    """Outcome of one parameter case: trajectory plus measurements or an error.

    ``trajectory`` is None once the run's files have been written where it ran.
    """

    label: str
    params: dict
    rate_bound: float | None = None
    period: float | None = None
    gains: Gains | None = None
    trajectory: Trajectory | None = None
    report: LimitCycleReport | None = None
    error: str | None = None

    @property
    def converged(self) -> bool:
        """Ran without an execution error and its limit cycle converged."""
        return self.error is None and self.report is not None and self.report.converged

    @property
    def ok(self) -> bool:
        """Ran without an execution error and its report is satisfied."""
        return self.error is None and self.report is not None and self.report.satisfied


def _resolve_gains(cfg: ScenarioConfig, rate_bound: float, period: float) -> Gains:
    """The run's gains: the config's explicit pair, or resolved against (L, T).

    ``optimize`` reads ``analysis.n``, the ``n`` the run's bounds are reported with.
    """
    g = cfg.checked["gains"]
    if g["source"] == "explicit":
        return Gains(g["k1"], g["k2"], g["delta"])
    if g["source"] == "finite_time":
        return finite_time_gains(rate_bound, margin=g["margin"], delta=g["delta"])
    accuracy = AccuracySpec(eta=g["eta"], rate_bound=rate_bound, period=period,
                            n=cfg.checked["analysis"]["n"])
    return optimize_gains(accuracy, k1_max=g["k1_max"])


def _sinusoid_rate(pert: SinusoidPerturbation):
    """The rate ``integrate`` reads on its stage grids: ``amp * np.sin(w * t + phase)``.

    It computes ``w = TWO_PI / period`` once, not :meth:`SinusoidPerturbation.q`'s
    ``TWO_PI * t / period``: the two round differently at about a third of the
    grid points, so switching would move every ``synthetic_q`` trajectory.
    """
    w = TWO_PI / pert.period
    amp, phase = pert.rate_amplitude, pert.phase
    return lambda t: amp * np.sin(w * t + phase)


def _execute_case(cfg: ScenarioConfig, index: int, out_dir=None) -> RunResult:
    """Run the config's case ``index`` end to end; exceptions become a recorded error.

    With ``out_dir``, this process also writes the run's directory and drops the
    trajectory from the result.  A write error is not a case error: it
    propagates to the caller.
    """
    case = cfg.cases[index]
    result = RunResult(label=case["label"], params=dict(case))
    initial = cfg.checked["initial"]
    L, T = cfg.forcing[index]
    try:
        gains = _resolve_gains(cfg, L, T)
        icfg = IntegrationConfig.for_period(T, **cfg.checked["integration"])
        if cfg.scenario == "synthetic_q":
            pert = SinusoidPerturbation(L, T, phase=cfg.checked["parameters"]["phase"])
            traj = integrate(gains, _sinusoid_rate(pert),
                             (initial["x1"], initial["x2"]), icfg)
            d = pert.d(traj.t)
            traj = replace(traj, u=twisting_action(traj.x1, traj.x2 - d, gains), d=d,
                           q=pert.q(traj.t))
        else:
            motor = cfg.motor_model
            rng = np.random.default_rng(cfg.seed + index) if motor.noise_std > 0.0 else None
            traj = simulate_motor_loop(
                motor, cfg._profile(case), gains, icfg, initial_error=initial["error"],
                initial_integral=initial["integral"], rng=rng,
            )

        analysis = cfg.checked["analysis"]
        report = build_report(traj, T, L, gains, n=analysis["n"], tol=analysis["tolerance"])
        result.rate_bound, result.period = L, T
        result.gains, result.trajectory, result.report = gains, traj, report
    except Exception as exc:  # per-run failures recorded, sweep continues
        result.error = f"{type(exc).__name__}: {exc}"
    if out_dir is not None:
        _emit_run(result, Path(out_dir))
        result.trajectory = None
    return result


def run_scenario(cfg: ScenarioConfig, workers: int = 1, out_dir=None) -> list[RunResult]:
    """Execute every parameter case on ``min(workers, len(cfg.cases))`` processes.

    Failures are recorded per run.  With ``out_dir``, this is the whole sweep
    into it: the previous sweep there is retired before the first case, each
    run's directory is written by the process that ran it (its result keeps no
    trajectory), and ``emit_outputs`` writes the sweep-level files last.
    """
    check_number(workers, "an integer >= 1", lambda v: v >= 1, integer=True, name="workers")
    if out_dir is not None:
        _retire_previous_sweep(Path(out_dir), {case["label"] for case in cfg.cases})
    workers = min(workers, len(cfg.cases))
    if workers == 1:
        results = [_execute_case(cfg, i, out_dir) for i in range(len(cfg.cases))]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_case, cfg, i, out_dir) for i in range(len(cfg.cases))]
            results = [f.result() for f in futures]
    if out_dir is not None:
        emit_outputs(results, out_dir)
    return results


def _atomic_write(path: Path, content) -> None:
    """Write text, or an object through its ``to_csv``, to a temp file renamed to ``path``.

    On failure the temp file is removed and the error re-raised.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(content, str):
            tmp.write_text(content, encoding="utf-8")
        else:
            content.to_csv(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _phase_csv(traj: Trajectory, period: float, gains: Gains) -> str:
    """w1/w2 over the final period's records, the amplitude's; w2 from the recorded channels."""
    final = final_periods(traj, period)
    x1 = traj.x1[final]
    table = io.BytesIO()
    write_csv(table, "w1,w2", (x1, twisting_action(x1, traj.x2[final], gains)))
    return table.getvalue().decode("ascii")


def _emit_run(result: RunResult, out: Path) -> None:
    """Write one run's directory: its trajectory and, once converged, its phase plot."""
    run_dir = out / result.label
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in ("trajectory.csv", "phase.csv"):  # a run that no longer writes one keeps none
        (run_dir / name).unlink(missing_ok=True)
    if result.trajectory is not None:
        _atomic_write(run_dir / "trajectory.csv", result.trajectory)
        if result.converged:
            _atomic_write(run_dir / "phase.csv",
                          _phase_csv(result.trajectory, result.period, result.gains))


def emit_outputs(results: list[RunResult], out_dir) -> None:
    """Write the sweep-level files (``SWEEP_FILES``) of ``results`` into ``out_dir``."""
    if not results:
        raise ValueError("no results to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    converged = [r for r in results if r.converged]
    table = bound_comparison_table([r.report for r in converged],
                                   [r.label for r in converged])
    _atomic_write(out / "bounds.csv", table)

    fit = None
    points = [(r.period, r.report.amplitude) for r in converged if r.report.amplitude > 0.0]
    lines = ["period,amplitude"]
    lines.extend(f"{T!r},{amp!r}" for T, amp in points)
    if len(points) >= 4 and len({T for T, _ in points}) >= 2:
        fit = scaling_fit(points)
        lines.append(f"# exponent={fit[0]!r} coefficient={fit[1]!r} r_squared={fit[2]!r}")
    _atomic_write(out / "scaling.csv", "\n".join(lines) + "\n")

    summary = _summary_text(results, fit)
    _atomic_write(out / "summary.txt", summary)

    _atomic_write(out / "reports.json", json.dumps(_reports_payload(results), indent=2) + "\n")


def _retire_previous_sweep(out: Path, labels: set[str]) -> None:
    """Remove the run directories that ``out``'s ``reports.json`` lists and ``labels``
    lacks, then the sweep-level files, so no verdict outlives the runs it describes."""
    try:
        payload = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        previous = {run["label"] for run in payload["runs"] if isinstance(run["label"], str)}
    except (OSError, ValueError, KeyError, TypeError):
        previous = set()
    for label in previous - labels:
        run_dir = out / label
        if label != ".." and run_dir.name == label and run_dir.is_dir():  # a child of out
            shutil.rmtree(run_dir)
    for name in SWEEP_FILES:
        (out / name).unlink(missing_ok=True)


def _reports_payload(results: list[RunResult]) -> dict:
    """The ``reports.json`` object: one entry per run, in run order.

    An entry is the run's label, params, error, rate bound and period, and,
    for a run with a report, its gains and then the report's fields in
    declaration order.  Schema 1 is those fields minus ``tolerance``.
    """
    runs = []
    for r in results:
        entry: dict = {"label": r.label, "params": r.params, "error": r.error,
                       "rate_bound": r.rate_bound, "period": r.period}
        if r.report is not None:  # set in the statement that sets the gains
            entry["gains"] = {f.name: getattr(r.gains, f.name) for f in fields(r.gains)}
            entry.update((f.name, getattr(r.report, f.name)) for f in fields(r.report)
                         if f.name != "tolerance")
        runs.append(entry)
    return {"schema_version": SCHEMA_VERSION, "runs": runs}


def _summary_text(results: list[RunResult], fit) -> str:
    lines = []
    for r in results:
        if r.error is not None:
            lines.append(f"{r.label}: FAILED ({r.error})")
            continue
        rep = r.report
        if not rep.converged:
            lines.append(f"{r.label}: NOT CONVERGED (tol={rep.tolerance:g})")
            continue
        averaged_ok = check_averaged_conditions(r.gains)
        checks = [f"averaged_conditions={'pass' if averaged_ok else 'informative-fail'}"]
        if r.rate_bound <= r.gains.k2:
            checks.append("regime=finite-time (k2 >= L)")
        else:
            checks.append(f"k1_premise={'fail' if rep.tight_bound is None else 'pass'}")
        period_str = ("-" if rep.measured_period is None
                      else f"{rep.measured_period:.6g}")
        tight = "-" if rep.tight_bound is None else f"{rep.tight_bound:.6g}"
        lines.append(
            f"{r.label}: converged start={rep.cycle_start_time:.6g}s "
            f"period={period_str} (forcing {r.period:.6g}) "
            f"amplitude={rep.amplitude:.6g} coarse_bound={rep.coarse_bound:.6g} "
            f"tight_bound={tight} satisfied={'yes' if rep.satisfied else 'NO'} "
            f"crossings/cycle={rep.crossings_per_period} [{'; '.join(checks)}]"
        )
        lines.append("  amplitude window: one steady-state period at the end of the run")
    if fit is not None:
        lines.append(
            f"scaling fit: amplitude ~ {fit[1]:.6g} * T^{fit[0]:.4g} (r^2={fit[2]:.4g})"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line interface

def _cmd_sweep(args) -> int:
    results = run_scenario(ScenarioConfig.from_file(args.config, args.override), workers=args.workers, out_dir=args.out or None)
    if args.out:
        converged = sum(r.converged for r in results)
        print(f"{converged}/{len(results)} runs converged; outputs in {args.out}")
    else:
        print(_summary_text(results, None), end="")
    return 0 if all(r.ok for r in results) else 2


def _cmd_tune(args) -> int:
    """Print, per case, its (L, T), the gains a sweep runs it with and their bounds."""
    cfg = ScenarioConfig.from_file(args.config, args.override)
    n = cfg.checked["analysis"]["n"]
    status = 0
    for case, (L, T) in zip(cfg.cases, cfg.forcing):
        line = f"{case['label']}: L={L:.6g} T={T:.6g}"
        try:
            g = _resolve_gains(cfg, L, T)
        except InfeasibleSpecError as exc:
            print(f"{line} infeasible ({exc})")
            status = 2
            continue
        tight = tight_width_bound(g.k1, g.k2, L, n, T)
        averaged = "pass" if check_averaged_conditions(g) else "informative-fail"
        ft = finite_time_gains(L) if L > 0.0 else None
        print(f"{line} k1={g.k1!r} k2={g.k2!r} delta={g.delta!r} "
              f"coarse_bound={cycle_width_bound(g.k2, L, n, T):.6g} "
              f"tight_bound={'-' if tight is None else f'{tight:.6g}'} "
              f"averaged_conditions={averaged} finite_time: "
              + ("-" if ft is None else f"k1={ft.k1:.6g} k2={ft.k2:.6g}"))
    return status


def _cmd_table(args) -> int:
    path = Path(args.out) / "reports.json"
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: must hold a JSON object, got {type(payload).__name__}")
    if not _is_schema(payload.get("schema_version")):
        raise ValueError(f"{path}: unsupported reports schema {payload.get('schema_version')!r}")
    runs = payload.get("runs")
    if not (isinstance(runs, list) and all(isinstance(run, dict) for run in runs)):
        raise ValueError(f"{path}: runs must be a list of objects")
    reports, labels = [], []
    for run in runs:
        if run.get("error") is not None or not run.get("converged"):
            continue
        measured = {}
        for key in ("amplitude", "coarse_bound", "tight_bound"):
            value = run.get(key)
            try:
                measured[key] = (None if key == "tight_bound" and value is None
                                 else _nonnegative(value))
            except ValueError as exc:
                raise ValueError(f"{path}: run {run.get('label')!r}: {key} {exc}") from None
        labels.append(run.get("label"))
        reports.append(LimitCycleReport(converged=True, **measured))
    print(bound_comparison_table(reports, labels).render())
    return 0


def _worker_count(text: str) -> int:
    try:
        return _count(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Under-tuned super-twisting loop simulation and tuning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    tune = sub.add_parser("tune", help="print the gains each case runs with, and their bounds")
    table = sub.add_parser("table", help="re-render the bounds table from stored results")
    for command in (sweep, tune):
        command.add_argument("--config", required=True, help="JSON scenario config")
        command.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                             help="dotted-path config override, e.g. integration.periods=60")
    sweep.add_argument("--out", default=None, help="output directory")
    sweep.add_argument("--workers", type=_worker_count, default=1,
                       help="parallel runs (an integer >= 1)")
    table.add_argument("--out", required=True, help="results directory of an earlier sweep")

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "tune":
            return _cmd_tune(args)
        return _cmd_table(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
