"""Scenario engine and CLI tests."""

import concurrent.futures
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twistlab
from twistlab import runner
from twistlab.dynamics import Gains
from twistlab.integrator import detect_crossings
from twistlab.runner import (SCHEMA_VERSION, RunResult, ScenarioConfig,
                             emit_outputs, main, run_scenario)
from twistlab.tuning import cycle_width_bound, finite_time_gains

SYNTHETIC = {
    "schema_version": 1,
    "scenario": "synthetic_q",
    "parameters": {"cases": [[12.0, 0.1], [12.0, 0.2], [12.0, 0.4], [12.0, 0.8]]},
    "gains": {"source": "explicit", "k1": 3.6, "k2": 6.0, "delta": 1e-5},
    "integration": {"steps_per_period": 2000, "periods": 20},
}


def _constant_speed_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": "constant_speed",
        "parameters": {"omega_r": [18.0]},
        "gains": {"source": "explicit", "k1": 0.9, "k2": 11.65},
        "integration": {"steps_per_period": 2000, "periods": 20},
    }
    cfg.update(overrides)
    return cfg


#: Out-of-range values; each must fail at load, naming its dotted path.
OUT_OF_RANGE = [
    ("integration", "periods", -1), ("integration", "periods", 0),
    ("integration", "steps_per_period", 0), ("integration", "steps_per_period", 2.5),
    ("integration", "steps_per_period", "2000"), ("analysis", "n", 0.9),
    ("analysis", "n", 0), ("analysis", "n", "0.5"), ("analysis", "n", None),
    ("analysis", "tolerance", -1), ("analysis", "tolerance", 0),
    ("analysis", "tolerance", math.nan), ("analysis", "tolerance", "abc"),
    ("motor", "noise_std", -1e-3), ("motor", "noise_std", math.nan),
    ("motor", "noise_std", math.inf), ("motor", "noise_std", "1e-3"),
    ("motor", "encoder_quantum", -1e-5),
    ("motor", "encoder_quantum", math.nan), ("motor", "velocity_window", 0),
    ("motor", "velocity_window", 2.5), ("motor", "velocity_window", 4),
    ("perturbation", "viscous", math.nan), ("perturbation", "viscous", -0.01),
    ("perturbation", "coulomb", math.inf), ("perturbation", "coulomb", "0.4"),
    ("perturbation", "steepness", math.inf), ("perturbation", "steepness", 0),
    ("perturbation", "harmonics", [[math.nan, 0.0]]), ("perturbation", "harmonics", [[0.5]]),
    ("perturbation", "harmonics", [["0.5", "0"]]), ("perturbation", "harmonics", [[True, 0]]),
    ("gains", "source", "optimise"), ("gains", "source", None), ("gains", "k1", 0),
    ("gains", "k1", "3.6"), ("gains", "k2", math.nan), ("gains", "k2", None),
    ("gains", "delta", -1e-5), ("gains", "objective", "zzz"), ("initial", "error", 0.1),
    ("initial", "x1", "abc"), ("parameters", "cases", [[math.nan, 0.3]]),
    ("parameters", "cases", [[12, -0.3]]), ("parameters", "cases", [[-12, 0.2]]),
    ("integration", "periods", 5),
    ("parameters", "cases", [{"rate_bound": 12.0, "period": 0.2}]),
]

#: Sections that only the motor scenarios read; their OUT_OF_RANGE entries run
#: on a constant-speed config, so each fails on its range check, not as a key
#: ``synthetic_q`` does not read.
MOTOR_SECTIONS = ("motor", "perturbation")

#: Whole sections that must fail at load, naming the dotted key: keys that a
#: gains source does not read, missing or out-of-range keys it does, and the
#: former ``tuning`` section, whose spec the ``gains`` section now gives.
BAD_SECTIONS = [
    ("gains", {"source": "optimize", "k1_max": 0.9, "eta": 0.2, "delta": 1e-6}, "gains.delta"),
    ("gains", {"source": "tune_k2", "k1": 0.9, "eta": 0.2, "k2": 5.0}, "gains.k2"),
    ("gains", {"source": "tune_k2", "eta": 0.2}, "gains.k1"),
    ("gains", {"source": "optimize", "eta": 0.2}, "gains.k1_max"),
    ("gains", {"source": "finite_time", "margin": -1}, "gains.margin"),
    ("gains", {"source": "optimize", "k1_max": 0.9, "eta": 0.2, "objective": "k2"},
     "gains.objective"),
    ("gains", {"source": "tune_k2", "k1": 0.9, "eta": 0.2, "n": 0.25}, "gains.n"),
    ("gains", {"source": "optimize", "k1_max": 0.9, "eta": 0.2, "n": 0.25}, "gains.n"),
    ("tuning", {"rate_bound": 12.0, "period": 0.3125, "eta": 0.2, "k1": 0.9}, "tuning"),
]


def test_config_schema_validation():
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"scenario": "synthetic_q", "parameters": {}})
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({**SYNTHETIC, "schema_version": 2})
    for version in (True, 1.0, "1"):  # only the integer 1 is schema 1
        with pytest.raises(ValueError, match="schema_version"):
            ScenarioConfig.from_dict({**SYNTHETIC, "schema_version": version})
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({**SYNTHETIC, "bogus": 1})
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="warp_drive", parameters={})
    for seed in ("7", 1.5, True, -1):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ScenarioConfig.from_dict({**SYNTHETIC, "seed": seed})
    for section, key, value in OUT_OF_RANGE:
        base = _constant_speed_config() if section in MOTOR_SECTIONS else SYNTHETIC
        with pytest.raises(ValueError, match=rf"{section}\.{key}"):
            ScenarioConfig.from_dict({**base, section: {**base.get(section, {}), key: value}})
    for section, value, key in BAD_SECTIONS:
        with pytest.raises(ValueError, match=key.replace(".", r"\.")):
            ScenarioConfig.from_dict({**SYNTHETIC, section: value})
    # an explicit source needs both gains
    with pytest.raises(ValueError, match=r"gains\.k2"):
        ScenarioConfig.from_dict({**SYNTHETIC, "gains": {"source": "explicit", "k1": 3.6}})
    # and a config that leaves gains out has none
    with pytest.raises(ValueError, match=r"gains\.k1 is required"):
        ScenarioConfig.from_dict({k: v for k, v in SYNTHETIC.items() if k != "gains"})
    for ok in ({"steps_per_period": 2000, "periods": 20}, {"steps_per_period": 300}):
        ScenarioConfig.from_dict({**SYNTHETIC, "integration": ok})
    cfg = ScenarioConfig.from_dict({**SYNTHETIC, "gains": {"k1": 3.6, "k2": 6.0}})
    assert runner._resolve_gains(cfg, 12.0, 0.2) == Gains(3.6, 6.0)  # default source and delta
    cfg = ScenarioConfig.from_dict({**SYNTHETIC, "gains": {"source": "finite_time"}})
    assert runner._resolve_gains(cfg, 12.0, 0.2) == finite_time_gains(12.0)
    ScenarioConfig.from_dict(_constant_speed_config(
        perturbation={"coulomb": 0, "viscous": 0.0, "harmonics": []}))
    ScenarioConfig.from_dict({**SYNTHETIC, "analysis": {"n": 0.25, "tolerance": 1e-3}})
    ScenarioConfig.from_dict(_constant_speed_config(
        motor={"encoder_quantum": 1e-5, "velocity_window": 4, "noise_std": 0.0}))


def _config_file(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_config_override(tmp_path):
    path = _config_file(tmp_path, SYNTHETIC)
    motor_path = _config_file(tmp_path, _constant_speed_config(), "motor.json")
    assert ScenarioConfig.from_file(path, [("seed", "7")]).seed == 7
    patched = ScenarioConfig.from_file(path, [("integration.periods", "33")])
    assert patched.integration["periods"] == 33
    assert json.loads(path.read_text()) == SYNTHETIC  # the file untouched
    nested = ScenarioConfig.from_file(path, [("gains.k1", "1.25")])
    assert nested.gains["k1"] == 1.25
    for dotted in ("nonexistent.key", "seed.x"):
        with pytest.raises(ValueError):
            ScenarioConfig.from_file(path, [(dotted, "1")])
    with pytest.raises(ValueError, match="seed must be an integer"):
        ScenarioConfig.from_file(path, [("seed", "abc")])
    for section, key, value in OUT_OF_RANGE:
        base = motor_path if section in MOTOR_SECTIONS else path
        with pytest.raises(ValueError, match=rf"{section}\.{key}"):
            ScenarioConfig.from_file(base, [(f"{section}.{key}", json.dumps(value))])
    for section, value, key in BAD_SECTIONS:
        with pytest.raises(ValueError, match=key.replace(".", r"\.")):
            ScenarioConfig.from_file(path, [(section, json.dumps(value))])


@pytest.mark.parametrize("section,key", [
    ("gains", "k3"), ("integration", "steps_per_periods"), ("motor", "inertial"),
    ("analysis", "tol"), ("initial", "x3"),
    ("parameters", "omega_r"), ("perturbation", "coulombb"), ("integration", "record_stride"),
    ("motor", "noise_std"), ("motor", "inertia"), ("perturbation", "coulomb"),
])
def test_unknown_nested_key_names_its_path(section, key, tmp_path):
    """A typo, or a key ``synthetic_q`` does not read, fails at load, naming the dotted path."""
    data = json.loads(json.dumps(SYNTHETIC))
    data.setdefault(section, {})[key] = 1
    with pytest.raises(ValueError, match=rf"{section}\.{key}"):
        ScenarioConfig.from_dict(data)
    path = _config_file(tmp_path, SYNTHETIC)
    with pytest.raises(ValueError, match=rf"{section}\.{key}"):
        ScenarioConfig.from_file(path, [(f"{section}.{key}", "1")])


@pytest.mark.parametrize("section,key,value", [
    ("motor", "inertia", 1.0), ("motor", "inertia", 2), ("motor", "inertia", 0),
    ("motor", "inertia", -1.0), ("motor", "inertia", 1e13), ("motor", "inertia", "abc"),
    ("motor", "inertial", 1), ("perturbation", "coulombb", 0.4),
])
def test_unknown_motor_key_names_its_path(section, key, value, tmp_path):
    """A key the motor scenarios do not read fails at load whatever its value, naming it.

    The motor loop is stated per unit inertia, so ``motor.inertia`` is such a key.
    """
    line = rf"^unknown config keys: {section}\.{key}$"
    data = _constant_speed_config()
    data.setdefault(section, {})[key] = value
    with pytest.raises(ValueError, match=line):
        ScenarioConfig.from_dict(data)
    path = _config_file(tmp_path, _constant_speed_config())
    with pytest.raises(ValueError, match=line):
        ScenarioConfig.from_file(path, [(f"{section}.{key}", json.dumps(value))])


def test_cli_override_rejects_unknown_nested_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SYNTHETIC))
    for key in ("integration.steps_per_periods", "motor.noise_std", "perturbation.coulomb"):
        assert main(["sweep", "--config", str(path), "--override", f"{key}=10"]) == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "integration.record_stride=1", "perturbation.viscous=NaN", 'gains.source="optimise"',
    'gains={"source": "optimize", "k1_max": 0.9, "eta": 0.2, "delta": 1e-6}',
    'gains={"source": "tune_k2", "k1": 0.9, "eta": 0.2, "k2": 5.0}',
    'gains.objective="zzz"', "initial.x1=0.1", 'gains={"source": "tune_k2", "eta": 0.2}',
    'gains={"source": "optimize", "eta": 0.2}', 'gains={"source": "finite_time", "margin": -1}',
    'gains={"source": "optimize", "k1_max": 0.9, "eta": 0.2, "objective": "k3"}',
    'initial.error="abc"', "parameters.omega_r=[NaN]", "parameters.omega_r=[0]",
    "integration.periods=5", "seed=-1",
])
def test_cli_bad_config_exits_1_before_any_case_runs(override, tmp_path, capsys, monkeypatch):
    def no_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(runner, "_execute_case", no_case)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_constant_speed_config()))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--override", override]) == 1
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


#: Two L values that agree to 6 significant digits, and so share a label.
CLASHING_CASES = [[12.345671, 0.2], [12.345674, 0.2]]


def test_duplicate_case_labels_rejected_before_any_case_runs():
    with pytest.raises(ValueError, match=r"'L12\.3457_T0\.2'"):
        ScenarioConfig.from_dict({**SYNTHETIC, "parameters": {"cases": CLASHING_CASES}})
    with pytest.raises(ValueError, match=r"'wr18'"):
        ScenarioConfig.from_dict(_constant_speed_config(parameters={"omega_r": [18.0, 18]}))


def test_cli_duplicate_case_labels_exit_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SYNTHETIC, "parameters": {"cases": CLASHING_CASES}}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "L12.3457_T0.2" in capsys.readouterr().err
    assert not out.exists()


def test_empty_parameter_set_is_config_error():
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({**SYNTHETIC, "parameters": {"cases": []}})


#: Gains sections that are tuned to each case's L, and two that are not.
TUNED_TO_L = [{"source": "tune_k2", "k1": 0.9, "eta": 0.2},
              {"source": "optimize", "k1_max": 0.9, "eta": 0.2}, {"source": "finite_time"}]
FIXED_FOR_L = [{"source": "explicit", "k1": 3.6, "k2": 6.0},
               {"source": "finite_time", "rate_bound": 12.0}]


def test_unforced_case_fails_at_load_unless_the_gains_ignore_L(tmp_path, capsys, monkeypatch):
    """An L = 0 case cannot be tuned to, so it fails at load; fixed gains run it to amplitude 0."""
    unforced = [[12.0, 0.2], [0, 0.2]]
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    for gains in TUNED_TO_L:
        message = rf"^case 'L0_T0\.2' has L = 0.*gains\.source '{gains['source']}'"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_dict({**SYNTHETIC, "gains": gains,
                                      "parameters": {"cases": unforced}})
        path.write_text(json.dumps({**SYNTHETIC, "gains": gains}))
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_execute_case", lambda *args: pytest.fail("a case ran"))
            assert main(["sweep", "--config", str(path), "--out", str(out),
                         "--override", f"parameters.cases={json.dumps(unforced)}"]) == 1
        err = capsys.readouterr().err
        assert "'L0_T0.2'" in err and gains["source"] in err
        assert not out.exists()
    for gains in FIXED_FOR_L:
        cfg = ScenarioConfig.from_dict({**SYNTHETIC, "gains": gains,
                                        "parameters": {"cases": [[0, 0.2]]}})
        (result,) = run_scenario(cfg)
        assert result.error is None
        assert result.report.converged and result.report.amplitude == 0.0


#: Motor configs whose load-torque rate is identically zero, so L = 0, and the key that zeroes it.
ZERO_RATE_MOTOR = [
    ({"perturbation": {"harmonics": []}}, "perturbation.harmonics"),
    ({"perturbation": {"harmonics": [[0.5, 0.0], [-0.5, 0.0]]}}, "perturbation.harmonics"),
    ({"scenario": "sinusoidal_velocity",
      "parameters": {"frequency_hz": [2.0, 4.0], "accel_peak": 0}}, "parameters.accel_peak"),
    ({"scenario": "sinusoidal_velocity", "parameters": {"frequency_hz": [2.0, 4.0]},
      "perturbation": {"coulomb": 0, "viscous": 0.0, "harmonics": []}}, "perturbation.coulomb"),
]


@pytest.mark.parametrize("overrides, key", ZERO_RATE_MOTOR)
def test_zero_rate_motor_config_fails_at_load_unless_the_gains_ignore_L(
        overrides, key, tmp_path, capsys, monkeypatch):
    """A motor config with no load-torque rate gives L = 0: tuned gains fail at load."""
    label = "f2" if "scenario" in overrides else "wr18"  # the config's first case
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    path.write_text(json.dumps(_constant_speed_config(**overrides)))
    for gains in TUNED_TO_L:
        with pytest.raises(ValueError, match=rf"^case '{label}' has L = 0.*'{gains['source']}'"):
            ScenarioConfig.from_dict(_constant_speed_config(**overrides, gains=gains))
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_execute_case", lambda *args: pytest.fail("a case ran"))
            assert main(["sweep", "--config", str(path), "--out", str(out),
                         "--override", f"gains={json.dumps(gains)}"]) == 1
        err = capsys.readouterr().err
        assert f"'{label}'" in err and gains["source"] in err
        assert not out.exists()
    for gains in FIXED_FOR_L:
        cfg = ScenarioConfig.from_dict(_constant_speed_config(**overrides, gains=gains))
        assert len(cfg.cases) >= 1


def test_override_repairs_a_file_that_fails_at_load(tmp_path, capsys, monkeypatch):
    """Overrides apply to the file's JSON before the one load, so they can fix a zero-rate file."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_constant_speed_config(
        parameters={"omega_r": [12.0]}, perturbation={"harmonics": []},
        gains={"source": "tune_k2", "k1": 0.9, "eta": 0.2})))
    with pytest.raises(ValueError, match="^case 'wr12' has L = 0"):
        ScenarioConfig.from_file(path)
    loaded = []
    monkeypatch.setattr(runner, "run_scenario",
                        lambda cfg, workers, out_dir: loaded.append(cfg) or [])
    assert main(["sweep", "--config", str(path), "--override", "perturbation={}",
                 "--out", str(tmp_path / "out")]) == 0
    (cfg,) = loaded
    assert cfg.perturbation == {} and cfg.forcing[0][0] > 0.0
    assert cfg.forcing == ScenarioConfig.from_dict(_constant_speed_config(
        parameters={"omega_r": [12.0]}, gains={"source": "tune_k2", "k1": 0.9,
                                               "eta": 0.2})).forcing
    assert capsys.readouterr().err == ""


def test_sweep_with_overrides_characterizes_each_case_once(tmp_path, monkeypatch):
    """The config loads once with both overrides in place: one bound_L call per case."""
    calls = []
    bound_L = runner.bound_L
    monkeypatch.setattr(runner, "bound_L", lambda *args: calls.append(args) or bound_L(*args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_constant_speed_config(
        scenario="sinusoidal_velocity", parameters={"frequency_hz": [2.0, 4.0]})))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--override", "integration.periods=10",
                 "--override", "integration.steps_per_period=200"]) in (0, 2)
    assert len(calls) == 2
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())["runs"]
    assert [run["label"] for run in reports] == ["f2", "f4"]


def test_non_finite_rate_fails_at_load_naming_the_case():
    """bound_L's non-finite samples fail the config at load, naming the stage and the case."""
    with pytest.raises(ValueError,
                       match=r"^characterize case 'f2': rate signal produced non-finite"):
        ScenarioConfig.from_dict(_constant_speed_config(
            scenario="sinusoidal_velocity", parameters={"frequency_hz": [2.0]},
            perturbation={"viscous": 1e308}))


@pytest.mark.parametrize("frequency_hz, what", [(1e308, "2*pi*f"), (1e-320, "accel_peak/(2*pi*f)")])
def test_an_overflowing_frequency_fails_at_load_naming_the_case_and_the_key(frequency_hz, what):
    """A frequency whose reference overflows fails while its case is characterized."""
    label = re.escape(f"f{frequency_hz:g}")
    with pytest.raises(ValueError, match=rf"^characterize case '{label}': frequency_hz must keep "
                                         rf"{re.escape(what)} finite"):
        ScenarioConfig.from_dict(_constant_speed_config(
            scenario="sinusoidal_velocity", parameters={"frequency_hz": [2.0, frequency_hz]}))


#: Per gains source: a valid section, and a non-default valid value for each key it reads.
GAINS_KEY_CHANGES = {
    "explicit": ({"k1": 3.6, "k2": 6.0}, {"k1": 3.7, "k2": 6.5, "delta": 1e-5}),
    "finite_time": ({}, {"margin": 1.5, "rate_bound": 20.0, "delta": 1e-5}),
    "tune_k2": ({"k1": 0.9, "eta": 0.2}, {"k1": 0.8, "eta": 0.1, "delta": 1e-5}),
    "optimize": ({"k1_max": 0.9, "eta": 0.2}, {"k1_max": 0.8, "eta": 0.1}),
}


def test_every_gains_key_is_read():
    """Each key a gains source accepts changes the gains it resolves; the tuned
    sources read ``analysis.n``, which the run's bounds are reported with."""
    assert set(GAINS_KEY_CHANGES) == set(runner.CONFIG_TABLE["gains"])
    for source, (base, changes) in GAINS_KEY_CHANGES.items():
        assert set(changes) == set(runner.CONFIG_TABLE["gains"][source])
        gains = {"source": source, **base}
        reference = runner._resolve_gains(ScenarioConfig.from_dict({**SYNTHETIC, "gains": gains}),
                                          12.0, 0.3125)
        for key, value in changes.items():
            cfg = ScenarioConfig.from_dict({**SYNTHETIC, "gains": {**gains, key: value}})
            assert runner._resolve_gains(cfg, 12.0, 0.3125) != reference, (source, key)
    for source in ("tune_k2", "optimize"):
        runs = {n: run_scenario(ScenarioConfig.from_dict({
            **SYNTHETIC, "gains": {"source": source, **GAINS_KEY_CHANGES[source][0]},
            "analysis": {"n": n}, "parameters": {"cases": [[12.0, 0.3125]]},
            "integration": {"steps_per_period": 200, "periods": 10}}))[0] for n in (0.5, 0.25)}
        assert runs[0.5].gains.k2 != runs[0.25].gains.k2, source
        for n, run in runs.items():
            assert run.report.coarse_bound == cycle_width_bound(run.gains.k2, 12.0, n, 0.3125)
        assert runs[0.5].report.coarse_bound != runs[0.25].report.coarse_bound, source


def test_synthetic_sweep_and_outputs(tmp_path):
    cfg = ScenarioConfig.from_dict(SYNTHETIC)
    out = tmp_path / "sweep"
    results = run_scenario(cfg, out_dir=out)
    assert [r.label for r in results] == ["L12_T0.1", "L12_T0.2", "L12_T0.4", "L12_T0.8"]
    assert all(r.ok for r in results)
    amplitudes = [r.report.amplitude for r in results]
    assert amplitudes == sorted(amplitudes)  # width grows with the period

    assert sum(r.converged for r in results) == 4
    fit_line = (out / "scaling.csv").read_text().splitlines()[-1].removeprefix("# ")
    fit = {key: float(value) for key, value in (item.split("=") for item in fit_line.split())}
    assert 1.6 <= fit["exponent"] <= 2.4 and fit["r_squared"] >= 0.95

    for r in results:
        assert (out / r.label / "trajectory.csv").exists()
        assert (out / r.label / "phase.csv").exists()
    bounds = (out / "bounds.csv").read_text().splitlines()
    assert bounds[0] == "label,amplitude,coarse_bound,tight_bound,satisfied"
    assert len(bounds) == 5
    assert all(line.endswith(",1") for line in bounds[1:])
    assert "# exponent=" in (out / "scaling.csv").read_text()
    payload = json.loads((out / "reports.json").read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert len(payload["runs"]) == 4
    assert "scaling fit" in (out / "summary.txt").read_text()


def test_equal_periods_write_their_points_but_no_scaling_fit(tmp_path):
    """Four converged runs at one period give no power law: the points are written, no fit."""
    cfg = ScenarioConfig.from_dict({
        **SYNTHETIC,
        "parameters": {"cases": [[5.0, 0.2], [6.0, 0.2], [7.0, 0.2], [8.0, 0.2]]},
        "gains": {"source": "explicit", "k1": 0.9, "k2": 4.0},
        "integration": {"steps_per_period": 500, "periods": 20},
    })
    out = tmp_path / "sweep"
    results = run_scenario(cfg, out_dir=out)
    assert all(r.converged for r in results)
    scaling = (out / "scaling.csv").read_text().splitlines()
    assert scaling[0] == "period,amplitude" and len(scaling) == 5
    assert all(line.startswith("0.2,") for line in scaling[1:])
    assert "# exponent=" not in (out / "scaling.csv").read_text()
    assert "scaling fit" not in (out / "summary.txt").read_text()


def test_constant_speed_run_with_tuned_gains():
    """tune_k2 gain source resolves the applied integral gain from (L, T)."""
    cfg = ScenarioConfig.from_dict(_constant_speed_config(
        parameters={"omega_r": [23.0]},
        gains={"source": "tune_k2", "k1": 0.9, "eta": 0.2},
    ))
    (result,) = run_scenario(cfg)
    assert result.error is None
    assert result.rate_bound == pytest.approx(11.5)
    assert result.gains.k2 == pytest.approx(11.1439, abs=1e-3)
    assert result.report.converged
    assert result.report.measured_period == pytest.approx(2 * math.pi / 23.0, rel=0.02)


def test_gain_sources_finite_time_and_optimize():
    cfg = ScenarioConfig.from_dict(_constant_speed_config(
        gains={"source": "finite_time", "margin": 1.1},
        integration={"steps_per_period": 2000, "periods": 12},
    ))
    (result,) = run_scenario(cfg)
    assert result.gains.k2 == pytest.approx(1.1 * 9.0)
    assert result.report.converged

    cfg = ScenarioConfig.from_dict(_constant_speed_config(
        gains={"source": "optimize", "k1_max": 0.9, "eta": 0.2},
        integration={"steps_per_period": 2000, "periods": 12},
    ))
    (result,) = run_scenario(cfg)
    assert result.error is None
    assert result.gains.k1 == pytest.approx(0.9)


#: Gains that no synthetic case at L = 12 can resolve: k2 < 0 at k1 = 50.
INFEASIBLE = {"source": "tune_k2", "k1": 50.0, "eta": 0.2}


def test_failed_run_is_recorded_and_sweep_continues():
    cfg = ScenarioConfig.from_dict({
        **SYNTHETIC,
        "parameters": {"cases": [[12.0, 0.2], [12.0, 0.4]]},
        "gains": INFEASIBLE,
    })
    results = run_scenario(cfg)
    assert len(results) == 2
    assert all(r.error is not None and "InfeasibleSpec" in r.error for r in results)
    assert not any(r.ok for r in results)


def test_emit_marks_failed_runs(tmp_path):
    bad = RunResult(label="broken", params={}, error="DivergenceError: boom")
    good_cfg = ScenarioConfig.from_dict({**SYNTHETIC,
                                         "parameters": {"cases": [[12.0, 0.2]]}})
    (good,) = run_scenario(good_cfg)
    out = tmp_path / "mixed"
    emit_outputs([good, bad], out)
    summary = (out / "summary.txt").read_text()
    assert "broken: FAILED" in summary
    assert not (out / "broken" / "phase.csv").exists()


def test_emit_removes_stale_per_run_files(tmp_path):
    """A run that fails on re-emission keeps none of its earlier files."""
    cfg = ScenarioConfig.from_dict({**SYNTHETIC, "parameters": {"cases": [[12.0, 0.2]]}})
    out = tmp_path / "sweep"
    (good,) = run_scenario(cfg, out_dir=out)
    assert sorted(p.name for p in (out / good.label).iterdir()) == ["phase.csv", "trajectory.csv"]
    (failed,) = run_scenario(replace(cfg, gains=INFEASIBLE), out_dir=out)
    assert failed.label == good.label and failed.error is not None
    assert list((out / good.label).iterdir()) == []


def test_emit_removes_run_dirs_absent_from_new_sweep(tmp_path):
    """Re-emitting a sweep deletes the earlier sweep's runs it no longer has, and nothing else."""
    out = tmp_path / "sweep"
    for case in ([12.0, 0.2], [12.0, 0.4]):
        cfg = ScenarioConfig.from_dict({**SYNTHETIC, "parameters": {"cases": [case]}})
        run_scenario(cfg, out_dir=out)
        (out / "notes").mkdir(exist_ok=True)
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["L12_T0.4", "notes"]
    labels = [run["label"] for run in json.loads((out / "reports.json").read_text())["runs"]]
    assert labels == ["L12_T0.4"]


#: One case per outcome at 1000 steps x 12 periods: wr12 fails (tune_k2 needs k2 <= 0),
#: wr18 does not converge, wr23 converges.
MIXED_OUTCOMES = _constant_speed_config(
    parameters={"omega_r": [12.0, 18.0, 23.0]},
    gains={"source": "tune_k2", "k1": 5.0, "eta": 1.0},
    integration={"steps_per_period": 1000, "periods": 12},
)


#: A sampled sweep on a moving reference: 2 of its 3 cases converge.
SAMPLED_MOVING = {
    "schema_version": 1, "scenario": "sinusoidal_velocity",
    "parameters": {"frequency_hz": [2.0, 4.0, 8.0]},
    "gains": {"source": "explicit", "k1": 0.9, "k2": 19.65},
    "perturbation": {"coulomb": 0.003, "viscous": 0.01},
    "motor": {"encoder_quantum": 1e-5, "noise_std": 1e-4, "velocity_window": 4},
    "analysis": {"tolerance": 3e-2},
    "integration": {"steps_per_period": 500, "periods": 20},
}


def _sweep(config: dict, tmp_path, out, *flags) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(["sweep", "--config", str(path), "--out", str(out), *flags])


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_worker_count_cannot_change_the_outputs(tmp_path):
    def tree(config, name):
        trees = []
        for workers in (1, 2, 3):
            out = tmp_path / f"{name}{workers}"
            assert _sweep(config, tmp_path, out, "--workers", str(workers)) == 2
            trees.append(_tree(out))
        assert trees[0] == trees[1] == trees[2]
        return trees[0]

    mixed = tree(MIXED_OUTCOMES, "w")
    assert {"wr18/trajectory.csv", "wr23/trajectory.csv", "wr23/phase.csv"} < set(mixed)
    assert not any(name.startswith("wr12/") for name in mixed)
    assert "wr12: FAILED (InfeasibleSpecError" in mixed["summary.txt"].decode()
    assert "wr18: NOT CONVERGED" in mixed["summary.txt"].decode()

    # the sampled loop, with seeded noise and a velocity window, through the pool
    sampled = tree(SAMPLED_MOVING, "sampled")
    assert {"f4/phase.csv", "f8/phase.csv"} < set(sampled)
    assert "f2: NOT CONVERGED" in sampled["summary.txt"].decode()


def test_every_output_gives_the_same_verdict(tmp_path, capsys):
    """RunResult.ok, summary.txt, bounds.csv and `twistlab table` agree on each run."""
    out = tmp_path / "out"
    results = run_scenario(ScenarioConfig.from_dict(MIXED_OUTCOMES), out_dir=out)
    ok = {r.label: r.ok for r in results}
    assert ok == {"wr12": False, "wr18": False, "wr23": True}
    summary = {line.split(":")[0]: line.split(" satisfied=")[1].split()[0] == "yes"
               for line in (out / "summary.txt").read_text().splitlines()
               if " satisfied=" in line}
    bounds = {row.split(",")[0]: row.split(",")[-1] == "1"
              for row in (out / "bounds.csv").read_text().splitlines()[1:]}
    capsys.readouterr()
    assert main(["table", "--out", str(out)]) == 0
    table = {row.split()[0]: row.split()[-1] == "yes"
             for row in capsys.readouterr().out.splitlines()[1:]}
    # a run that failed or did not converge has no row, and is not ok
    assert summary == bounds == table == {r.label: r.ok for r in results if r.converged}


#: Schema 1's keys of a ``reports.json`` run entry, in order: every run's, then a reported run's.
RUN_KEYS = ["label", "params", "error", "rate_bound", "period"]
REPORT_KEYS = ["gains", "converged", "cycle_start_time", "measured_period", "amplitude",
               "coarse_bound", "tight_bound", "crossings_per_period"]


def test_reports_json_entries_hold_the_schema_1_keys_in_order(tmp_path):
    """A failed, a non-converged and a converged run each write exactly schema 1's keys."""
    out = tmp_path / "out"
    run_scenario(ScenarioConfig.from_dict(MIXED_OUTCOMES), out_dir=out)
    runs = json.loads((out / "reports.json").read_text())["runs"]
    assert [(run["label"], run["error"] is None, run.get("converged")) for run in runs] == [
        ("wr12", False, None), ("wr18", True, False), ("wr23", True, True)]
    assert list(runs[0]) == RUN_KEYS
    for run in runs[1:]:
        assert list(run) == RUN_KEYS + REPORT_KEYS
        assert list(run["gains"]) == ["k1", "k2", "delta"]


def test_phase_csv_holds_the_records_the_amplitude_is_read_from(tmp_path):
    """Each converged run's phase.csv is its final period's steps_per_period + 1 records,
    each value as repr writes it, and their max |w1| is the amplitude in reports.json."""
    synthetic = {**SYNTHETIC, "integration": {"steps_per_period": 1000, "periods": 12}}
    converged = 0
    for name, config in (("synthetic", synthetic), ("motor", MIXED_OUTCOMES)):
        out = tmp_path / name
        run_scenario(ScenarioConfig.from_dict(config), out_dir=out)
        for run in json.loads((out / "reports.json").read_text())["runs"]:
            if not run.get("converged"):
                continue
            converged += 1
            header, *rows = (out / run["label"] / "phase.csv").read_text().splitlines()
            assert header == "w1,w2"
            assert len(rows) == config["integration"]["steps_per_period"] + 1
            assert all(value == repr(float(value)) for row in rows for value in row.split(","))
            assert max(abs(float(row.split(",")[0])) for row in rows) == run["amplitude"]
    assert converged == 5


def test_worker_writes_its_run_and_returns_no_trajectory(tmp_path):
    cfg = ScenarioConfig.from_dict(MIXED_OUTCOMES)
    results = run_scenario(cfg, workers=2, out_dir=tmp_path)
    assert [r.trajectory for r in results] == [None, None, None]
    assert results[2].report.converged
    assert sorted(p.name for p in (tmp_path / "wr23").iterdir()) == ["phase.csv", "trajectory.csv"]


def test_worker_path_removes_stale_per_run_files(tmp_path):
    """A case that fails on a re-run into the same --out keeps none of its earlier files."""
    out = tmp_path / "out"
    config = {**MIXED_OUTCOMES, "parameters": {"omega_r": [12.0, 23.0]},
              "gains": {"source": "explicit", "k1": 0.9, "k2": 11.65}}
    assert _sweep(config, tmp_path, out, "--workers", "2") == 2  # wr23 does not converge
    assert sorted(p.name for p in (out / "wr12").iterdir()) == ["phase.csv", "trajectory.csv"]
    config["gains"] = MIXED_OUTCOMES["gains"]
    assert _sweep(config, tmp_path, out, "--workers", "2") == 2
    assert list((out / "wr12").iterdir()) == []
    assert sorted(p.name for p in (out / "wr23").iterdir()) == ["phase.csv", "trajectory.csv"]


def test_write_error_in_a_worker_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "wr23").write_text("not a directory")
    assert _sweep(MIXED_OUTCOMES, tmp_path, out, "--workers", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "wr23" in err
    assert not (out / "reports.json").exists()


def test_write_error_leaves_no_verdict_of_the_previous_sweep(tmp_path, capsys):
    """A re-sweep stopped by a write error leaves none of the previous sweep's files
    that vouch for runs it has since overwritten."""
    out = tmp_path / "out"
    explicit = {**MIXED_OUTCOMES, "gains": {"source": "explicit", "k1": 0.9, "k2": 11.65}}
    assert _sweep(explicit, tmp_path, out) == 2
    (wr12, _, _) = json.loads((out / "reports.json").read_text())["runs"]
    assert wr12["label"] == "wr12" and wr12["converged"] and wr12["error"] is None
    shutil.rmtree(out / "wr23")
    (out / "wr23").write_text("not a directory")
    assert _sweep(MIXED_OUTCOMES, tmp_path, out, "--workers", "2") == 1
    assert list((out / "wr12").iterdir()) == []  # wr12 now fails and keeps no file
    for name in ("reports.json", "bounds.csv", "scaling.csv", "summary.txt"):
        assert not (out / name).exists(), name
    capsys.readouterr()
    assert main(["table", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_failed_write_leaves_no_temp_file(tmp_path):
    class FailingCsv:
        def to_csv(self, path):
            Path(path).write_text("t,x1\n0.0,")
            raise OSError("disk full")

    direct = tmp_path / "direct"
    (direct / "bounds.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):  # the rename fails
        runner._atomic_write(direct / "bounds.csv", "label\n")
    with pytest.raises(OSError, match="disk full"):  # the write fails
        runner._atomic_write(direct / "trajectory.csv", FailingCsv())
    assert [p.name for p in direct.iterdir()] == ["bounds.csv"]

    out = tmp_path / "out"
    (out / "bounds.csv").mkdir(parents=True)
    assert _sweep({**SYNTHETIC, "parameters": {"cases": [[12.0, 0.2]]}}, tmp_path, out) == 1
    assert not list(out.rglob("*.tmp"))


def test_pool_is_capped_at_the_case_count(tmp_path, monkeypatch):
    opened = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ScenarioConfig.from_dict({**SYNTHETIC,
                                    "parameters": {"cases": [[12.0, 0.2], [12.0, 0.4]]},
                                    "integration": {"steps_per_period": 500, "periods": 10}})
    assert len(run_scenario(cfg, workers=4)) == 2
    assert opened == [2]
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_scenario(cfg, workers=workers)
    assert opened == [2]


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-3"], ["--workers=-3"],
                                   ["--workers", "2.5"]])
def test_cli_workers_below_one_is_a_usage_error(flags, tmp_path, capsys, monkeypatch):
    def no_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(runner, "_execute_case", no_case)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        _sweep(SYNTHETIC, tmp_path, out, *flags)
    assert exited.value.code == 2
    assert "--workers: must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_twistlab_runs_without_warnings():
    src = str(Path(twistlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "twistlab", "--help"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: twistlab [-h] {sweep,tune,table} ...\n")
    assert proc.stderr == ""


def test_runner_import_loads_no_scipy():
    """The package depends on numpy alone; scipy is a test-only dependency."""
    src = str(Path(twistlab.__file__).resolve().parents[1])
    code = ("import sys, twistlab.runner; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_constant_speed_sweep_all_converge():
    """The full 12-point set-point sweep converges with the applied gain pair."""
    cfg = ScenarioConfig.from_dict(_constant_speed_config(
        parameters={"omega_r": [float(w) for w in range(12, 24)]},
        integration={"steps_per_period": 2000, "periods": 20},
    ))
    results = run_scenario(cfg, workers=2)
    assert len(results) == 12
    assert all(r.ok for r in results)
    for r in results:
        assert r.report.measured_period == pytest.approx(r.period, rel=0.02)
        # crossings are counted with the run's own boundary layer merged
        t_end = r.trajectory.t[-1]
        events = detect_crossings(r.trajectory, r.gains.delta)
        assert r.report.crossings_per_period == sum(
            1 for tc, _ in events if t_end - r.period <= tc <= t_end)
    # at 12 rad/s the cycle stays inside the layer: its sign changes are chatter
    assert results[0].report.crossings_per_period == 0


def test_sinusoidal_velocity_sweep():
    """Eight tracking frequencies converge with overall shrinking cycle width.

    Uses a friction calibration whose reversal rate spike stays near the
    20 N*m/s regime the tracking experiments operate in; the default
    constant-speed calibration would spike two orders of magnitude higher
    at motion reversals and break the small-period averaging premise.
    """
    cfg = ScenarioConfig.from_dict({
        "schema_version": 1,
        "scenario": "sinusoidal_velocity",
        "parameters": {"frequency_hz": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0]},
        "gains": {"source": "explicit", "k1": 0.9, "k2": 19.65},
        "perturbation": {"coulomb": 0.003, "steepness": 100.0, "viscous": 0.01},
        "integration": {"steps_per_period": 2000, "periods": 30},
    })
    results = run_scenario(cfg)
    assert len(results) == 8
    assert all(r.ok for r in results)
    amplitudes = [r.report.amplitude for r in results]
    assert amplitudes[-1] < amplitudes[0]          # width shrinks with frequency
    assert max(amplitudes) == amplitudes[0]
    for r in results:
        assert r.rate_bound == pytest.approx(20.1, rel=0.01)
        assert r.report.measured_period == pytest.approx(r.period, rel=0.02)


def test_parallel_matches_serial():
    cfg = ScenarioConfig.from_dict({**SYNTHETIC,
                                    "parameters": {"cases": [[12.0, 0.2], [12.0, 0.4]]},
                                    "integration": {"steps_per_period": 2000, "periods": 15}})
    serial = run_scenario(cfg, workers=1)
    parallel = run_scenario(cfg, workers=2)
    for a, b in zip(serial, parallel):
        assert a.label == b.label
        assert np.array_equal(a.trajectory.x1, b.trajectory.x1)
        assert a.report.amplitude == b.report.amplitude


def test_seeded_noise_is_reproducible():
    """The seed drives measurement noise only, and does so deterministically."""
    base = _constant_speed_config(
        motor={"noise_std": 1e-3},
        integration={"steps_per_period": 2000, "periods": 12},
    )
    cfg = ScenarioConfig.from_dict({**base, "seed": 3})
    (first,) = run_scenario(cfg)
    (again,) = run_scenario(cfg)
    assert first.error is None
    assert np.array_equal(first.trajectory.x1, again.trajectory.x1)
    (other,) = run_scenario(ScenarioConfig.from_dict({**base, "seed": 4}))
    assert not np.array_equal(first.trajectory.x1, other.trajectory.x1)


def test_round_trip_identical_outputs(tmp_path):
    cfg = ScenarioConfig.from_dict({**SYNTHETIC,
                                    "parameters": {"cases": [[12.0, 0.2]]},
                                    "integration": {"steps_per_period": 2000, "periods": 15}})
    first, second = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=first)
    run_scenario(cfg, out_dir=second)
    for name in ("L12_T0.2/trajectory.csv", "L12_T0.2/phase.csv", "bounds.csv", "scaling.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cli_sweep_and_table(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**SYNTHETIC,
                                       "parameters": {"cases": [[12.0, 0.2]]},
                                       "integration": {"steps_per_period": 2000,
                                                       "periods": 15}}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "reports.json").exists()
    assert main(["table", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "L12_T0.2" in captured.out


def test_cli_table_rejects_malformed_reports(tmp_path, capsys):
    """A reports.json of the wrong shape is an error naming the file, not a traceback."""
    run = {"label": "L12_T0.2", "error": None, "converged": True, "amplitude": 0.01,
           "coarse_bound": 0.02, "tight_bound": None}
    path = tmp_path / "reports.json"
    for payload, detail in (
        ([], "must hold a JSON object, got list"),
        ({"schema_version": True, "runs": [run]}, "unsupported reports schema True"),
        ({"schema_version": 1.0, "runs": [run]}, "unsupported reports schema 1.0"),
        ({"schema_version": SCHEMA_VERSION, "runs": {"L12_T0.2": run}}, "runs must be a list"),
        ({"schema_version": SCHEMA_VERSION, "runs": [{**run, "amplitude": "0.01"}]},
         "run 'L12_T0.2': amplitude must be a finite number >= 0, got '0.01'"),
        ({"schema_version": SCHEMA_VERSION, "runs": [{**run, "coarse_bound": "0.02"}]},
         "run 'L12_T0.2': coarse_bound must be a finite number >= 0, got '0.02'"),
    ):
        path.write_text(json.dumps(payload))
        assert main(["table", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {detail}")
        assert captured.out == ""
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "runs": [run]}))
    assert main(["table", "--out", str(tmp_path)]) == 0
    assert "L12_T0.2" in capsys.readouterr().out


def test_cli_sweep_exit_code_on_failure(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        **SYNTHETIC,
        "parameters": {"cases": [[12.0, 0.2]]},
        "gains": INFEASIBLE,
    }))
    assert main(["sweep", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 2


def _tuned_gains(out: str) -> dict:
    """Each ``tune`` line's label and its printed (k1, k2, delta) as a :class:`Gains`."""
    tuned = {}
    for line in out.splitlines():
        label, _, rest = line.partition(": ")
        pair = rest.partition(" finite_time:")[0]  # the finite-time pair is for comparison
        values = dict(item.split("=") for item in pair.split())
        tuned[label] = Gains(*(float(values[key]) for key in ("k1", "k2", "delta")))
    return tuned


def test_cli_tune(tmp_path, capsys):
    """One line per case: its (L, T), the resolved gains, their bounds and the finite-time pair."""
    path = _config_file(tmp_path, {**SYNTHETIC, "parameters": {"cases": [[12.0, 0.3125]]},
                                   "gains": {"source": "tune_k2", "k1": 0.9, "eta": 0.2}})
    assert main(["tune", "--config", str(path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("L12_T0.3125: L=12 T=0.3125 k1=0.9 k2=11.65")
    assert line.endswith(" tight_bound=0.162 averaged_conditions=informative-fail "
                         "finite_time: k1=9.03593 k2=13.2")
    # an unforced case under explicit gains has no finite-time pair and no tight bound
    path = _config_file(tmp_path, {**SYNTHETIC, "parameters": {"cases": [[0, 0.2]]}})
    assert main(["tune", "--config", str(path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line == ("L0_T0.2: L=0 T=0.2 k1=3.6 k2=6.0 delta=1e-05 coarse_bound=0.03 "
                    "tight_bound=- averaged_conditions=informative-fail finite_time: -")


#: A sinusoidal-velocity config whose cases ``tune`` and ``sweep`` both measure.
MOVING = _constant_speed_config(scenario="sinusoidal_velocity",
                                parameters={"frequency_hz": [2.0, 8.0]},
                                perturbation={"coulomb": 0.003, "viscous": 0.01})


@pytest.mark.parametrize("base", [SYNTHETIC, MOVING], ids=["synthetic_q", "sinusoidal_velocity"])
@pytest.mark.parametrize("source", GAINS_KEY_CHANGES)
def test_tune_prints_the_gains_a_sweep_runs(source, base, tmp_path, capsys):
    """For every gains source, ``tune`` prints each case's gains as a sweep resolves them."""
    data = {**base, "gains": {"source": source, **GAINS_KEY_CHANGES[source][1]},
            "integration": {"steps_per_period": 200, "periods": 10}}
    assert main(["tune", "--config", str(_config_file(tmp_path, data))]) == 0
    results = run_scenario(ScenarioConfig.from_dict(data))
    assert _tuned_gains(capsys.readouterr().out) == {r.label: r.gains for r in results}


def test_cli_sweep_without_out_prints_the_summary(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**SYNTHETIC, "parameters": {"cases": [[12.0, 0.2]]},
                                       "integration": {"steps_per_period": 500, "periods": 15}}))
    assert main(["sweep", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("L12_T0.2: converged ") and "satisfied=yes" in out
    assert list(tmp_path.iterdir()) == [config_path]


def test_cli_tune_with_a_tuning_section_exits_1(tmp_path, capsys):
    """The former ``tuning`` section, in the file or by override, and a per-source ``n`` fail."""
    tuning = {"rate_bound": 12.0, "period": 0.3125, "eta": 0.2, "k1": 0.9}
    unknown = "error: unknown config keys: tuning\n"  # one spelling, in the file or by override
    path = _config_file(tmp_path, {**SYNTHETIC, "tuning": tuning})
    assert main(["tune", "--config", str(path)]) == 1
    assert capsys.readouterr().err == unknown
    path = _config_file(tmp_path, SYNTHETIC)
    for override in (f"tuning={json.dumps(tuning)}", "tuning.k1=0.9"):
        assert main(["tune", "--config", str(path), "--override", override]) == 1
        assert capsys.readouterr() == ("", unknown)
    override = 'gains={"source": "tune_k2", "k1": 0.9, "eta": 0.2, "n": 0.25}'
    assert main(["tune", "--config", str(path), "--override", override]) == 1
    captured = capsys.readouterr()
    assert "gains.n" in captured.err and captured.out == ""


@pytest.mark.parametrize("gains, case, line", [
    # k2 <= 0 at the optimizer's k1 = 1
    ({"source": "optimize", "eta": 100, "k1_max": 1}, [0.1, 0.3125],
     "L0.1_T0.3125: L=0.1 T=0.3125 infeasible (accuracy eta=100"),
    # k2 rounds to L, where the k1 premise fails
    ({"source": "tune_k2", "eta": 1e-40, "k1": 1}, [12.0, 0.3125],
     "L12_T0.3125: L=12 T=0.3125 infeasible (rounding breaks the k1 premise"),
], ids=["optimize", "tune_k2"])
def test_cli_tune_infeasible_spec_exits_2(gains, case, line, tmp_path, capsys):
    path = _config_file(tmp_path, {**SYNTHETIC, "gains": gains,
                                   "parameters": {"cases": [case, [12.0, 0.1]]}})
    assert main(["tune", "--config", str(path)]) == 2
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith(line)
    assert second.startswith("L12_T0.1: L=12 T=0.1 ")  # the other cases still print


def test_cli_bad_config_path():
    assert main(["sweep", "--config", "/nonexistent/cfg.json"]) == 1


def test_cli_config_that_is_not_an_object_exits_1(tmp_path, capsys, monkeypatch):
    def no_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(runner, "_execute_case", no_case)
    path = tmp_path / "cfg.json"
    for text, kind in (("5", "int"), ("[1]", "list"), ("null", "NoneType"), ('"abc"', "str")):
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: config must be a JSON object, got {kind}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["table", "--out", "OUT", "--config", "CFG"], ["table", "--out", "OUT", "--override", "seed=1"],
    ["table", "--out", "OUT", "--workers", "2"], ["table"],
    ["tune", "--config", "CFG", "--out", "NEW"], ["tune", "--config", "CFG", "--workers", "2"],
    ["sweep", "--out", "NEW"], ["simulate", "--config", "CFG"],
])
def test_cli_rejects_flags_a_command_does_not_read(flags, tmp_path, capsys):
    """A flag the command does not read, a command without its required flag, or an unknown
    command, is a usage error (exit 2)."""
    paths = {"CFG": tmp_path / "cfg.json", "OUT": tmp_path / "out", "NEW": tmp_path / "new"}
    paths["CFG"].write_text(json.dumps(SYNTHETIC))
    paths["OUT"].mkdir()
    (paths["OUT"] / "reports.json").write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                                           "runs": []}))
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exited:
        main([str(paths.get(flag, flag)) for flag in flags])
    assert exited.value.code == 2
    assert "usage: twistlab" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_one_step_per_period_converges_without_a_measured_period():
    """Five periods of one step each hold 6 records, too few for a period estimate: the
    converged run reports no measured period rather than failing."""
    cfg = ScenarioConfig.from_dict({**SYNTHETIC, "parameters": {"cases": [[0.0, 0.2]]},
                                    "integration": {"steps_per_period": 1, "periods": 20}})
    with pytest.warns(UserWarning, match="coarser than T/200"):
        (result,) = run_scenario(cfg)
    assert result.error is None and result.converged
    assert result.report.measured_period is None and result.report.amplitude == 0.0
