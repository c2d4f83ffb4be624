"""Virtual motor experiment: the speed loop closed on simulated rotor dynamics.

The rotor is stated per unit inertia: domega/dt = u0 + d(omega, theta)
with d from the friction-plus-cogging model; the speed error
e = omega - omega_r is driven by the super-twisting law, whose output is
mapped onto the rotor torque u0 = u + domega_r/dt.  A rotor of another
inertia is the same loop with every load coefficient divided by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Gains, check_number, twisting_action
from .integrator import IntegrationConfig, Trajectory, on_grid, run_loop, stage_grids
from .signals import FrictionCoggingModel, MotionProfile

__all__ = ["MotorModel", "simulate_motor_loop"]


@dataclass(frozen=True)
class MotorModel:
    """Load-torque model and measurement options of a rotor of unit inertia.

    Torque-like quantities share the error's units: a rotor of another
    inertia is this model with ``coulomb``, ``viscous`` and each harmonic
    amplitude divided by the inertia, so the rate bound L read from the
    model is the one the loop feels.  Encoder quantization and velocity
    noise are off by default; switching either on re-routes the controller
    through a backward-differenced, noisy velocity estimate over
    ``velocity_window`` samples without touching the baseline physics.  With
    both off the window must stay 1: nothing reads it.
    """

    friction_cogging: FrictionCoggingModel = FrictionCoggingModel()
    encoder_quantum: float = 0.0        # position LSB in rad; 0 disables
    velocity_window: int = 1            # samples for backward differencing
    noise_std: float = 0.0              # std of the velocity measurement noise; 0 disables

    def __post_init__(self) -> None:
        for name in ("encoder_quantum", "noise_std"):
            check_number(getattr(self, name), "a finite number >= 0",
                         lambda v: 0.0 <= v < math.inf, name=name)
        check_number(self.velocity_window, "an integer >= 1", lambda v: v >= 1, integer=True,
                     name="velocity_window")
        if self.velocity_window != 1 and self.encoder_quantum == 0.0 and self.noise_std == 0.0:
            raise ValueError(f"velocity_window must be 1 with encoder_quantum and noise_std 0 "
                             f"(the continuous loop reads no window), got {self.velocity_window}")


def simulate_motor_loop(motor: MotorModel, reference: MotionProfile, gains: Gains,
                        cfg: IntegrationConfig, initial_error: float = 0.0,
                        initial_integral: float = 0.0,
                        rng: np.random.Generator | None = None) -> Trajectory:
    """Closed-loop run of the virtual motor; records the error as x1.

    ``_motor_loop`` integrates it: as a continuous ODE with the encoder and
    noise off (the baseline), else with the controller sampled on the
    measured velocity.  The ``u`` channel holds the torque command u0.  In
    sampled mode the recorded ``u`` and ``q`` are rebuilt after the run from
    the true error, not from the measured error the controller acted on.
    """
    model = motor.friction_cogging
    ref_omega, ref_accel = reference.omega, reference.omega_dot
    x0 = (float(reference.theta(0.0)), float(ref_omega(0.0)) + initial_error, initial_integral)

    times, states = _motor_loop(motor, reference, gains, cfg, x0, rng)

    theta = states[:, 0]
    omega = states[:, 1]
    z = states[:, 2]
    e = omega - ref_omega(times)
    u0 = twisting_action(e, z, gains) + ref_accel(times)
    d = np.asarray(model.torque(omega, theta))
    omega_dot = u0 + d
    q = np.asarray(model.rate(omega, omega_dot, theta))

    return Trajectory(t=times, x1=e, x2=z + d, u=u0, d=d, q=q, dt=cfg.dt)


def _motor_loop(motor: MotorModel, reference: MotionProfile, gains: Gains,
                cfg: IntegrationConfig, x0,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) of the speed loop, one RK4 step of the rotor per ``dt``, by :func:`run_loop`.

    Continuous (encoder and noise off): ``motor_loop``, an RK4 step of
    (theta, omega, z) on the true speed, with the reference's ``omega`` and
    ``omega_dot`` on :func:`stage_grids`.  Sampled: ``sampled_motor_loop``,
    with the reference on ``k*dt`` and the noise drawn up front; the law
    acts on the quantized, backward-differenced, noisy speed, u0 is held
    over the rotor's RK4 step, and z takes an Euler step.  The torque calls
    libm's ``atan`` and ``sin``; the NaN that ``sin`` gives on a stage angle
    overflowed to inf is a divergence.
    """
    quantum, noise_std = motor.encoder_quantum, motor.noise_std
    if noise_std > 0.0 and rng is None:
        raise ValueError("noise injection requires an rng")
    friction = motor.friction_cogging
    model = np.array([friction.coulomb * (2.0 / math.pi), friction.steepness, friction.viscous,
                      *(v for harmonic in friction.harmonics for v in harmonic)])
    load = (model, len(friction.harmonics))
    if quantum > 0.0 or noise_std > 0.0:
        grid = np.arange(cfg.n_steps) * cfg.dt
        noise = noise_std * rng.standard_normal(cfg.n_steps) if noise_std > 0.0 else None
        # no step looks back past step 0, so a longer window gives the same bits; the last
        # argument is the kernel's ring of window + 1 measured positions
        window = min(motor.velocity_window, cfg.n_steps)
        return run_loop("sampled_motor_loop", gains, cfg, x0, *load,
                        on_grid(reference.omega, grid), on_grid(reference.omega_dot, grid),
                        quantum, window, noise, np.empty(window + 1))
    return run_loop("motor_loop", gains, cfg, x0, *load, *stage_grids(reference.omega, cfg),
                    *stage_grids(reference.omega_dot, cfg))
