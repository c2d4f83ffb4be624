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
from .integrator import DivergenceError, IntegrationConfig, Trajectory, _rk4_kernel, on_grid
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
    """(times, states) of the speed loop, one RK4 step of the rotor per ``dt`` in the C kernel.

    The reference's ``omega`` and ``omega_dot`` are called once on each
    stage grid a rule reads, and the step reads stage ``k``'s values by index.
    Continuous (encoder and noise off): ``motor_loop``, an RK4 step of
    (theta, omega, z) on the true speed, with the reference on the grids
    ``k*dt``, ``k*dt + dt/2`` (both midpoints) and ``k*dt + dt``.  Sampled:
    ``sampled_motor_loop``, with the reference on ``k*dt`` and the noise
    drawn up front; the law acts on the quantized, backward-differenced, noisy
    speed, u0 is held over the rotor's RK4 step, and z takes an Euler step.
    Both rules are written out in :data:`~twistlab.integrator._KERNEL_SOURCE`
    with the law in ``twisting_action``'s operation order and the torque on
    libm's ``atan`` and ``sin``.  On a 2-vCPU Intel Xeon VM (gcc 12), a
    whole call over 20,000 steps, grids and noise included, took 0.20 us per
    step at constant speed, 0.29 us on a 4 Hz sinusoidal reference and 0.23 us
    sampled, against 3.1, 3.1 and 2.5 us for the same steps written on Python
    floats, to the same bits.  A non-finite state, also the NaN that ``sin``
    gives on a stage angle overflowed to inf, raises :class:`DivergenceError`
    at the end of its step.
    """
    quantum, window, noise_std = motor.encoder_quantum, motor.velocity_window, motor.noise_std
    if noise_std > 0.0 and rng is None:
        raise ValueError("noise injection requires an rng")
    friction = motor.friction_cogging
    model = np.array([friction.coulomb * (2.0 / math.pi), friction.steepness, friction.viscous,
                      *(v for harmonic in friction.harmonics for v in harmonic)])
    dt, n_steps = cfg.dt, cfg.n_steps
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, 3))
    states[0] = [float(v) for v in x0]
    # the arguments both kernel functions open with
    shared = (-gains.k1, -gains.k2, gains.delta, dt, model.ctypes.data, len(friction.harmonics))
    grid = times[:-1]
    if quantum > 0.0 or noise_std > 0.0:
        omega_r, accel_r = on_grid(reference.omega, grid), on_grid(reference.omega_dot, grid)
        noise = noise_std * rng.standard_normal(n_steps) if noise_std > 0.0 else None
        # the kernel's ring of positions; no slot past the last step is written
        measured = np.empty(min(window, n_steps) + 1)
        steps = _rk4_kernel().sampled_motor_loop(
            *shared, omega_r.ctypes.data, accel_r.ctypes.data, quantum, window,
            None if noise is None else noise.ctypes.data, measured.ctypes.data,
            n_steps, states.ctypes.data)
    else:
        grids = (grid, grid + 0.5 * dt, grid + dt)
        omega_grids = [on_grid(reference.omega, g) for g in grids]
        accel_grids = [on_grid(reference.omega_dot, g) for g in grids]
        steps = _rk4_kernel().motor_loop(
            *shared, *(a.ctypes.data for a in omega_grids + accel_grids), n_steps,
            states.ctypes.data)
    if steps < n_steps:
        raise DivergenceError(steps * dt + dt)
    return times, states
