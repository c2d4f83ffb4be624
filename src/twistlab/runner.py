"""Scenario engine and command-line interface.

Executes single runs and parameter sweeps over three scenario kinds
(constant-speed motor, sinusoidal-velocity motor, synthetic sinusoidal
rate), measures each run's limit cycle, and writes CSV trajectories,
phase-plot data, bound tables and a text summary.  Physics is fully
deterministic; the seed only feeds optional measurement-noise injection.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (LimitCycleReport, bound_comparison_table, build_report,
                       scaling_fit)
from .dynamics import Gains, default_layer_width, regularized_field, twisting_action
from .integrator import INTEGRATION_DEFAULTS, IntegrationConfig, Trajectory, integrate
from .plant import MotorModel, simulate_motor_loop
from .signals import (FrictionCoggingModel, MotionProfile, SinusoidPerturbation,
                      TWO_PI, bound_L, constant_speed_characterization, eval_q)
from .tuning import (AccuracySpec, InfeasibleSpecError, RegimeError,
                     check_averaged_conditions, cycle_width_bound,
                     finite_time_gains, optimize_gains, tight_bound_feasible,
                     tight_width_bound, tune_k2)

__all__ = ["SCHEMA_VERSION", "ScenarioConfig", "RunResult", "run_scenario",
           "emit_outputs", "main"]

SCHEMA_VERSION = 1

SCENARIOS = ("constant_speed", "sinusoidal_velocity", "synthetic_q")

#: Keys the runner reads from each nested config section; any other key is
#: rejected up front, so a typo cannot silently fall back to a default.
SECTION_KEYS = {
    "gains": {"source", "k1", "k2", "delta", "rate_bound", "margin", "eta", "n",
              "k1_max", "objective"},
    "integration": {"steps_per_period", "periods"},
    "motor": {"inertia", "encoder_quantum", "velocity_window", "noise_std"},
    "analysis": {"n", "tolerance"},
    "initial": {"x1", "x2", "error", "integral"},
    "tuning": {"rate_bound", "period", "eta", "n", "margin", "k1", "k1_max", "objective"},
    "perturbation": {f.name for f in fields(FrictionCoggingModel)},
}

#: Values of ``gains.source``; all but ``explicit`` resolve per case from its (L, T).
GAIN_SOURCES = ("explicit", "finite_time", "tune_k2", "optimize")

#: Keys of the ``parameters`` section, per scenario.
PARAMETER_KEYS = {
    "constant_speed": {"omega_r"},
    "sinusoidal_velocity": {"frequency_hz", "accel_peak"},
    "synthetic_q": {"cases", "phase"},
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    """One scenario plus everything needed to execute and analyze it.

    Loading builds ``motor_model`` from the ``motor`` and ``perturbation``
    sections and ``explicit_gains`` from an ``explicit`` gains source (else
    None), so their out-of-range values fail before any case runs.
    """

    scenario: str
    parameters: dict
    gains: dict = field(default_factory=lambda: {"source": "explicit", "k1": 0.9, "k2": 11.65})
    perturbation: dict = field(default_factory=dict)
    motor: dict = field(default_factory=dict)
    integration: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    tuning: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        allowed = dict(SECTION_KEYS, parameters=PARAMETER_KEYS[self.scenario])
        for name, keys in allowed.items():
            section = getattr(self, name)
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            unknown = sorted(set(section) - keys)
            if unknown:
                raise ValueError("unknown config keys: "
                                 + ", ".join(f"{name}.{key}" for key in unknown))
        steps = {**INTEGRATION_DEFAULTS, **self.integration}
        for key, value in steps.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"integration.{key} must be a positive integer, got {value!r}")
        n = self.analysis.get("n", 0.5)
        if not (_is_real(n) and 0.0 < n <= 0.5):
            raise ValueError(f"analysis.n must lie in (0, 0.5], got {n!r}")
        tol = self.analysis.get("tolerance")
        if tol is not None and not (_is_real(tol) and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"analysis.tolerance must be finite and > 0, got {tol!r}")

        motor = {"inertia": 1.0, "encoder_quantum": 0.0, "noise_std": 0.0, **self.motor}
        for key in ("inertia", "encoder_quantum", "noise_std"):
            if not _is_real(motor[key]):
                raise ValueError(f"motor.{key} must be a number, got {motor[key]!r}")
        if not (math.isfinite(motor["noise_std"]) and motor["noise_std"] >= 0.0):
            raise ValueError(f"motor.noise_std must be finite and >= 0, got {motor['noise_std']!r}")
        window = motor.get("velocity_window", 1)
        if not isinstance(window, int) or isinstance(window, bool):
            raise ValueError(f"motor.velocity_window must be an integer, got {window!r}")
        try:
            friction = FrictionCoggingModel(**self.perturbation)
        except ValueError as exc:  # its messages open with the field name
            raise ValueError(f"perturbation.{exc}") from exc
        try:
            self.motor_model = MotorModel(inertia=float(motor["inertia"]),
                                          friction_cogging=friction,
                                          encoder_quantum=float(motor["encoder_quantum"]),
                                          velocity_window=window)
        except ValueError as exc:  # MotorModel's messages open with the field name
            raise ValueError(f"motor.{exc}") from exc

        source = self.gains.get("source", "explicit")
        if source not in GAIN_SOURCES:
            raise ValueError(f"gains.source must be one of {GAIN_SOURCES}, got {source!r}")
        self.explicit_gains = None
        if source == "explicit":
            spec = {"delta": default_layer_width(), **self.gains}
            for key in ("k1", "k2", "delta"):
                if not _is_real(spec.get(key)):
                    raise ValueError(f"gains.{key} must be a number, got {spec.get(key)!r}")
            try:
                self.explicit_gains = Gains(*(float(spec[key]) for key in ("k1", "k2", "delta")))
            except ValueError as exc:  # Gains' messages open with the field name
                raise ValueError(f"gains.{exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"config schema_version {version!r} is not {SCHEMA_VERSION}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_override(self, dotted_key: str, raw_value: str) -> "ScenarioConfig":
        """Return a copy with one dotted-path key replaced (JSON-parsed value)."""
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        head, _, rest = dotted_key.partition(".")
        if head not in self.__dataclass_fields__:
            raise ValueError(f"unknown config section {head!r}")
        if not rest:
            return replace(self, **{head: value})
        section = json.loads(json.dumps(getattr(self, head)))  # deep copy
        node = section
        parts = rest.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
        return replace(self, **{head: section})


@dataclass
class RunResult:
    """Outcome of one parameter case: trajectory plus measurements or an error."""

    label: str
    params: dict
    rate_bound: float | None = None
    period: float | None = None
    gains: Gains | None = None
    trajectory: Trajectory | None = None
    report: LimitCycleReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Converged, bound satisfied, and no execution error."""
        return (self.error is None and self.report is not None
                and self.report.converged
                and self.report.amplitude <= self.report.coarse_bound)


def _cases(cfg: ScenarioConfig) -> list[dict]:
    if cfg.scenario == "constant_speed":
        values = cfg.parameters.get("omega_r", [])
        cases = [{"label": f"wr{v:g}", "omega_r": float(v)} for v in values]
    elif cfg.scenario == "sinusoidal_velocity":
        values = cfg.parameters.get("frequency_hz", [])
        cases = [{"label": f"f{v:g}", "frequency_hz": float(v)} for v in values]
    else:
        raw = cfg.parameters.get("cases", [])
        cases = []
        for entry in raw:
            if isinstance(entry, dict):
                L, T = float(entry["rate_bound"]), float(entry["period"])
            else:
                L, T = float(entry[0]), float(entry[1])
            cases.append({"label": f"L{L:g}_T{T:g}", "rate_bound": L, "period": T})
    if not cases:
        raise ValueError(f"config error: empty parameter set for scenario {cfg.scenario!r}")
    seen: set[str] = set()
    for case in cases:
        if case["label"] in seen:
            raise ValueError(f"config error: two cases share the label {case['label']!r} "
                             "(labels keep 6 significant digits); each needs its own run directory")
        seen.add(case["label"])
    return cases


def _resolve_gains(cfg: ScenarioConfig, rate_bound: float, period: float) -> Gains:
    """The run's gains: the config's explicit pair, or resolved against (L, T)."""
    if cfg.explicit_gains is not None:
        return cfg.explicit_gains
    spec = cfg.gains
    source = spec["source"]
    if source == "finite_time":
        L = float(spec.get("rate_bound", rate_bound))
        return finite_time_gains(L, margin=float(spec.get("margin", 1.1)),
                                 delta=spec.get("delta"))
    eta = float(spec["eta"])
    n = float(spec.get("n", 0.5))
    accuracy = AccuracySpec(eta=eta, rate_bound=rate_bound, period=period, n=n)
    if source == "tune_k2":
        k1 = float(spec["k1"])
        k2 = tune_k2(k1, accuracy)
        return Gains(k1=k1, k2=k2,
                     delta=float(spec.get("delta", default_layer_width(eta))))
    return optimize_gains(accuracy, k1_max=float(spec["k1_max"]),
                          objective=spec.get("objective", "k2"))


def _integration(cfg: ScenarioConfig, period: float) -> IntegrationConfig:
    return IntegrationConfig.for_period(period, **{**INTEGRATION_DEFAULTS, **cfg.integration})


def _fast_sinusoid_rate(pert: SinusoidPerturbation):
    w = TWO_PI / pert.period
    amp, phase = pert.rate_amplitude, pert.phase
    return lambda t: amp * math.sin(w * t + phase)


def _execute_case(cfg: ScenarioConfig, case: dict, index: int) -> RunResult:
    """Run one parameter case end to end; exceptions become a recorded error."""
    result = RunResult(label=case["label"], params=dict(case))
    try:
        n = float(cfg.analysis.get("n", 0.5))

        if cfg.scenario == "synthetic_q":
            L, T = case["rate_bound"], case["period"]
            pert = SinusoidPerturbation(L, T, phase=float(cfg.parameters.get("phase", 0.0)))
            gains = _resolve_gains(cfg, L, T)
            icfg = _integration(cfg, T)
            x0 = (float(cfg.initial.get("x1", 0.0)), float(cfg.initial.get("x2", 0.0)))

            def channels(t: np.ndarray, states: np.ndarray) -> dict:
                d = np.asarray(pert.d(t))
                q = np.asarray(pert.q(t))
                u = twisting_action(states[:, 0], states[:, 1] - d, gains)
                return {"u": u, "d": d, "q": q}

            traj = integrate(regularized_field(gains, _fast_sinusoid_rate(pert)), x0, icfg,
                             channels=channels)
        else:
            motor = cfg.motor_model
            model = motor.friction_cogging
            if cfg.scenario == "constant_speed":
                omega_r = case["omega_r"]
                L, T = constant_speed_characterization(model, omega_r)
                profile = MotionProfile.constant_speed(omega_r)
            else:
                f = case["frequency_hz"]
                T = 1.0 / f
                profile = MotionProfile.sinusoidal_velocity(
                    f, accel_peak=float(cfg.parameters.get("accel_peak", 100.0)))
                L = bound_L(lambda t: eval_q(model, profile, t), T)
            gains = _resolve_gains(cfg, L, T)
            icfg = _integration(cfg, T)
            noise_std = float(cfg.motor.get("noise_std", 0.0))
            rng = np.random.default_rng(cfg.seed + index) if noise_std > 0.0 else None
            traj = simulate_motor_loop(
                motor, profile, gains, icfg,
                initial_error=float(cfg.initial.get("error", 0.0)),
                initial_integral=float(cfg.initial.get("integral", 0.0)),
                noise_std=noise_std, rng=rng,
            )

        tol = cfg.analysis.get("tolerance")
        report = build_report(traj, T, L, gains, n=n,
                              tol=None if tol is None else float(tol))
        result.rate_bound, result.period = L, T
        result.gains, result.trajectory, result.report = gains, traj, report
    except Exception as exc:  # per-run failures recorded, sweep continues
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list[RunResult]:
    """Execute every parameter case; failures are recorded per run."""
    cases = _cases(cfg)
    if workers <= 1 or len(cases) == 1:
        return [_execute_case(cfg, case, i) for i, case in enumerate(cases)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_case, cfg, case, i)
                   for i, case in enumerate(cases)]
        return [f.result() for f in futures]


def _atomic_write(path: Path, content) -> None:
    """Write text, or an object through its ``to_csv``, to a temp file renamed to ``path``."""
    tmp = path.with_name(f".{path.name}.tmp")
    if isinstance(content, str):
        tmp.write_text(content, encoding="utf-8")
    else:
        content.to_csv(tmp)
    os.replace(tmp, path)


def _phase_csv(traj: Trajectory, period: float, gains: Gains) -> str:
    """w1/w2 over the final recorded cycle; w2 from the recorded channels."""
    start = traj.t[-1] - period
    mask = traj.t >= start - 1e-12
    x1 = traj.x1[mask]
    w2 = twisting_action(x1, traj.x2[mask], gains)
    lines = ["w1,w2"]
    lines.extend(f"{float(a)!r},{float(b)!r}" for a, b in zip(x1, w2))
    return "\n".join(lines) + "\n"


def _scaling_points(results: list[RunResult]) -> list[tuple[float, float]]:
    return [(r.period, r.report.amplitude) for r in results
            if r.error is None and r.report is not None and r.report.converged
            and r.report.amplitude > 0.0]


def emit_outputs(results: list[RunResult], out_dir) -> dict:
    """Write per-run CSVs plus sweep-level tables; returns a small summary dict.

    Run directories that an earlier sweep's ``reports.json`` in ``out_dir``
    lists, and that this sweep does not contain, are removed; nothing else
    in ``out_dir`` is touched.
    """
    if not results:
        raise ValueError("no results to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    labels = {r.label for r in results}
    for label in _previous_labels(out) - labels:
        run_dir = out / label
        if label != ".." and run_dir.name == label and run_dir.is_dir():  # a child of out
            shutil.rmtree(run_dir)

    for r in results:
        run_dir = out / r.label
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in ("trajectory.csv", "phase.csv"):  # a run that no longer writes one keeps none
            (run_dir / name).unlink(missing_ok=True)
        if r.trajectory is not None:
            _atomic_write(run_dir / "trajectory.csv", r.trajectory)
            if r.report is not None and r.report.converged:
                _atomic_write(run_dir / "phase.csv", _phase_csv(r.trajectory, r.period, r.gains))

    converged = [r for r in results if r.error is None and r.report is not None
                 and r.report.converged]
    table = bound_comparison_table([r.report for r in converged],
                                   [r.label for r in converged])
    _atomic_write(out / "bounds.csv", table)

    fit = None
    points = _scaling_points(results)
    lines = ["period,amplitude"]
    lines.extend(f"{T!r},{amp!r}" for T, amp in points)
    if len(points) >= 4:
        fit = scaling_fit(points)
        lines.append(f"# exponent={fit[0]!r} coefficient={fit[1]!r} r_squared={fit[2]!r}")
    _atomic_write(out / "scaling.csv", "\n".join(lines) + "\n")

    summary = _summary_text(results, fit)
    _atomic_write(out / "summary.txt", summary)

    _atomic_write(out / "reports.json", json.dumps(_reports_payload(results), indent=2) + "\n")
    return {"converged": len(converged), "total": len(results), "fit": fit}


def _previous_labels(out: Path) -> set[str]:
    """Run labels listed in an earlier sweep's ``reports.json`` in ``out``, if any."""
    try:
        payload = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        return {run["label"] for run in payload["runs"] if isinstance(run["label"], str)}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


def _reports_payload(results: list[RunResult]) -> dict:
    runs = []
    for r in results:
        entry: dict = {"label": r.label, "params": r.params, "error": r.error,
                       "rate_bound": r.rate_bound, "period": r.period}
        if r.gains is not None:
            entry["gains"] = {"k1": r.gains.k1, "k2": r.gains.k2, "delta": r.gains.delta}
        if r.report is not None:
            entry.update({
                "converged": r.report.converged,
                "cycle_start_time": r.report.cycle_start_time,
                "measured_period": r.report.measured_period,
                "amplitude": r.report.amplitude,
                "coarse_bound": r.report.coarse_bound,
                "tight_bound": r.report.tight_bound,
                "crossings_per_period": r.report.crossings_per_period,
            })
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
        checks = []
        if r.gains is not None:
            # q is the derivative of a T-periodic d, so its period mean is 0
            averaged_ok = check_averaged_conditions(r.gains, 0.0)
            checks.append(f"averaged_conditions={'pass' if averaged_ok else 'informative-fail'}")
            if r.rate_bound > r.gains.k2:
                feasible = tight_bound_feasible(r.gains.k1, r.gains.k2, r.rate_bound)
                checks.append(f"k1_premise={'pass' if feasible else 'fail'}")
            else:
                checks.append("regime=finite-time (k2 >= L)")
        satisfied = rep.amplitude <= rep.coarse_bound
        period_str = ("-" if rep.measured_period is None
                      else f"{rep.measured_period:.6g}")
        tight = "-" if rep.tight_bound is None else f"{rep.tight_bound:.6g}"
        lines.append(
            f"{r.label}: converged start={rep.cycle_start_time:.6g}s "
            f"period={period_str} (forcing {r.period:.6g}) "
            f"amplitude={rep.amplitude:.6g} coarse_bound={rep.coarse_bound:.6g} "
            f"tight_bound={tight} satisfied={'yes' if satisfied else 'NO'} "
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

def _add_common(parser: argparse.ArgumentParser, need_config: bool = True) -> None:
    parser.add_argument("--config", required=need_config, help="JSON scenario config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="parallel runs for sweeps")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override, e.g. integration.periods=60")


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config)
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"bad override {item!r}; expected KEY=VALUE")
        cfg = cfg.with_override(key, value)
    return cfg


def _cmd_run(args, single: bool) -> int:
    cfg = _load_config(args)
    cases = _cases(cfg)
    if single and len(cases) != 1:
        print(f"simulate expects exactly one parameter case, found {len(cases)}; "
              "use `sweep` for parameter sets", file=sys.stderr)
        return 1
    results = run_scenario(cfg, workers=args.workers)
    if args.out:
        info = emit_outputs(results, args.out)
        print(f"{info['converged']}/{info['total']} runs converged; outputs in {args.out}")
    else:
        print(_summary_text(results, None), end="")
    return 0 if all(r.ok for r in results) else 2


def _cmd_tune(args) -> int:
    cfg = _load_config(args)
    t = cfg.tuning
    if not t:
        print("config has no `tuning` section", file=sys.stderr)
        return 1
    L = float(t["rate_bound"])
    T = float(t["period"])
    eta = float(t["eta"])
    n = float(t.get("n", 0.5))
    spec = AccuracySpec(eta=eta, rate_bound=L, period=T, n=n)

    ft = finite_time_gains(L, margin=float(t.get("margin", 1.1)))
    print(f"finite-time gains (margin {t.get('margin', 1.1)}): "
          f"k1={ft.k1:.6g} k2={ft.k2:.6g}")

    status = 0
    if "k1" in t:
        k1 = float(t["k1"])
        try:
            k2 = tune_k2(k1, spec)
            feasible = tight_bound_feasible(k1, k2, L)
            bound = tight_width_bound(k1, k2, L, n, T) if feasible else float("nan")
            print(f"fixed k1={k1:g}: k2={k2:.6g} "
                  f"(k1 premise {'holds' if feasible else 'FAILS'}, "
                  f"tight bound {bound:.6g} vs eta {eta:g})")
            print(f"coarse bound: {cycle_width_bound(k2, L, n, T):.6g}")
            # q is the derivative of a T-periodic d, so its period mean is 0
            print(f"averaged-loop conditions at mean rate 0: "
                  f"{check_averaged_conditions(Gains(k1, k2), 0.0)} (informative)")
        except (InfeasibleSpecError, RegimeError) as exc:
            print(f"fixed k1={k1:g}: infeasible ({exc})")
            status = 2
    if "k1_max" in t:
        try:
            g = optimize_gains(spec, k1_max=float(t["k1_max"]),
                               objective=t.get("objective", "k2"))
            print(f"optimized (objective {t.get('objective', 'k2')}): "
                  f"k1={g.k1:.6g} k2={g.k2:.6g} delta={g.delta:g}")
        except InfeasibleSpecError as exc:
            print(f"optimizer: infeasible ({exc})")
            status = 2
    return status


def _cmd_table(args) -> int:
    if not args.out:
        print("table requires --out pointing at a results directory", file=sys.stderr)
        return 1
    path = Path(args.out) / "reports.json"
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        print(f"unsupported reports schema in {path}", file=sys.stderr)
        return 1
    reports, labels = [], []
    for run in payload["runs"]:
        if run.get("error") is not None or not run.get("converged"):
            continue
        labels.append(run["label"])
        reports.append(LimitCycleReport(
            converged=True,
            amplitude=run["amplitude"],
            coarse_bound=run["coarse_bound"],
            tight_bound=run.get("tight_bound"),
        ))
    print(bound_comparison_table(reports, labels).render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Under-tuned super-twisting loop simulation and tuning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="run a single parameter case"))
    _add_common(sub.add_parser("sweep", help="run a parameter sweep"))
    _add_common(sub.add_parser("tune", help="print the gain calculus for a spec"))
    table_parser = sub.add_parser("table", help="re-render the bounds table from stored results")
    _add_common(table_parser, need_config=False)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_run(args, single=True)
        if args.command == "sweep":
            return _cmd_run(args, single=False)
        if args.command == "tune":
            return _cmd_tune(args)
        return _cmd_table(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
