"""Seeded workload generator and the invariants each workload must keep.

The program only ever sees the JSON configs built here.  The same seed
gives the same config; the default seed gives the configs whose outputs
are pinned by ``golden.json``.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

#: Case count of the ``synthetic_q`` accuracy-closure campaign.
CLOSURE_CASES = 24

#: Accuracy target of the closure campaign; every case must stay within it.
CLOSURE_ETA = 0.2

#: How each workload drives the program: ``sweep`` is ``twistlab sweep --out``,
#: ``sweep+table`` adds ``twistlab table --out``, ``scenario`` calls
#: ``run_scenario`` with no output directory.
MODES = {"motor_sweep": "sweep", "closure_campaign": "scenario",
         "sampled_reversal": "sweep+table"}

WORKERS = {"motor_sweep": 2, "closure_campaign": 1, "sampled_reversal": 1}


def motor_sweep(seed: int) -> dict:
    """The README's twelve-speed constant-speed motor sweep, on a shorter horizon.

    The default seed uses the README speeds 12..23 rad/s; any other seed
    draws twelve distinct speeds from the same range.
    """
    if seed == DEFAULT_SEED:
        speeds = [float(v) for v in range(12, 24)]
    else:
        speeds = [v / 100.0 for v in sorted(random.Random(seed).sample(range(1200, 2301), 12))]
    return {
        "schema_version": 1,
        "scenario": "constant_speed",
        "parameters": {"omega_r": speeds},
        "gains": {"source": "explicit", "k1": 0.9, "k2": 11.65},
        "perturbation": {"coulomb": 0.4, "steepness": 100.0, "viscous": 0.01,
                         "harmonics": [[0.5, 0.0]]},
        "integration": {"steps_per_period": 1000, "periods": 20},
        "seed": seed,
    }


def closure_campaign(seed: int) -> dict:
    """Randomized (L, T) specs with optimizer gains, over acceptance criterion 5's ranges."""
    rng = random.Random(seed)
    cases: list[list[float]] = []
    while len(cases) < CLOSURE_CASES:
        case = [round(rng.uniform(5.0, 25.0), 4), round(rng.uniform(0.1, 0.6), 4)]
        if case not in cases:
            cases.append(case)
    return {
        "schema_version": 1,
        "scenario": "synthetic_q",
        "parameters": {"cases": cases},
        "gains": {"source": "optimize", "eta": CLOSURE_ETA, "k1_max": 0.9},
        "integration": {"steps_per_period": 1000, "periods": 20},
        "seed": seed,
    }


def sampled_reversal(seed: int) -> dict:
    """Sinusoidal tracking at 2-8 Hz through the quantized, noisy sampled controller.

    The seed feeds the measurement noise.
    """
    return {
        "schema_version": 1,
        "scenario": "sinusoidal_velocity",
        "parameters": {"frequency_hz": [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
        "gains": {"source": "explicit", "k1": 0.9, "k2": 19.65},
        "perturbation": {"coulomb": 0.003, "steepness": 100.0, "viscous": 0.01},
        "motor": {"encoder_quantum": 1e-5, "noise_std": 1e-4},
        "analysis": {"tolerance": 3e-2},
        "integration": {"steps_per_period": 1000, "periods": 20},
        "seed": seed,
    }


GENERATORS = {"motor_sweep": motor_sweep, "closure_campaign": closure_campaign,
            "sampled_reversal": sampled_reversal}


def case_count(config: dict) -> int:
    params = config["parameters"]
    return len(params.get("omega_r") or params.get("frequency_hz") or params["cases"])


def total_steps(config: dict) -> int:
    """RK4 steps of the whole sweep: cases x steps_per_period x periods."""
    icfg = config["integration"]
    return case_count(config) * icfg["steps_per_period"] * icfg["periods"]


def broken_invariant(workload: str, record: dict) -> bool:
    """Whether one case raised or broke its workload's invariant.

    ``record`` carries ``error``, ``converged``, ``amplitude`` and ``coarse_bound``.
    """
    if record["error"] is not None:
        return True
    converged = bool(record["converged"])
    if workload == "closure_campaign":
        return not (converged and record["amplitude"] <= CLOSURE_ETA)
    return converged and record["amplitude"] > record["coarse_bound"]
