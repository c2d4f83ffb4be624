"""Virtual motor experiment: the speed loop closed on simulated rotor dynamics.

The rotor is stated per unit inertia: domega/dt = u0 + d(omega, theta)
with d from the friction-plus-cogging model; the speed error
e = omega - omega_r is driven by the super-twisting law, whose output is
mapped onto the rotor torque u0 = u + domega_r/dt.  A rotor of another
inertia is the same loop with every load coefficient divided by it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .dynamics import Gains, check_number, twisting_action
from .integrator import DivergenceError, IntegrationConfig, Trajectory, on_grid
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
    """(times, states) of the speed loop, one RK4 step of the rotor per ``dt`` on floats.

    The reference's ``omega`` and ``omega_dot`` are called once on each
    stage grid a rule reads, and the step reads stage ``k``'s values by index.
    Continuous (encoder and noise off): an RK4 step of (theta, omega, z) on
    the true speed, with the reference on the grids ``k*dt``, ``k*dt + dt/2``
    (both midpoints) and ``k*dt + dt``.  Sampled: the reference on ``k*dt``
    and the noise are drawn up front; the law acts on the quantized, backward-
    differenced, noisy speed, u0 is held over the rotor's RK4 step, and z
    takes an Euler step.  The law keeps ``twisting_action``'s operation
    order.  A non-finite component or stage angle raises
    :class:`DivergenceError` at the end of its step.
    """
    quantum, window, noise_std = motor.encoder_quantum, motor.velocity_window, motor.noise_std
    if noise_std > 0.0 and rng is None:
        raise ValueError("noise injection requires an rng")
    torque = motor.friction_cogging.scalar_torque()
    neg_k1, neg_k2, delta = -gains.k1, -gains.k2, gains.delta
    dt, n_steps = cfg.dt, cfg.n_steps
    half = 0.5 * dt
    sixth = dt / 6.0
    sqrt = math.sqrt
    isfinite = math.isfinite

    times = np.arange(n_steps + 1) * dt
    theta, omega, z = (float(v) for v in x0)
    records = array("d", (theta, omega, z))
    sampled = quantum > 0.0 or noise_std > 0.0
    # the stage grids: the sampled rule reads the reference at k*dt only
    grid = times[:-1]
    grids = (grid,) if sampled else (grid, grid + half, grid + dt)
    omega_grids = [on_grid(reference.omega, g) for g in grids]
    accel_grids = [on_grid(reference.omega_dot, g) for g in grids]
    omega_a, accel_a = omega_grids[0], accel_grids[0]
    if sampled:
        noise = memoryview(noise_std * rng.standard_normal(n_steps)) if noise_std > 0.0 else None
        # the last window + 1 positions; step k's at k % ring, step k - window's at slot - window
        ring = window + 1
        measured = [0.0] * ring
        window_dt = window * dt
    else:
        _, omega_mid, omega_end = omega_grids
        _, accel_mid, accel_end = accel_grids

        # constants as defaults: read by a closure they would be cells for the sampled step too
        def stage(theta: float, omega: float, z: float, omega_r: float, accel_r: float,
                  torque=torque, neg_k1=neg_k1, neg_k2=neg_k2, delta=delta,
                  sqrt=sqrt) -> tuple[float, float]:
            """(domega, dz), with the law in the operation order of ``twisting_action``."""
            e = omega - omega_r
            s = e / delta
            if s > 1.0:
                s = 1.0
            elif s < -1.0:
                s = -1.0
            u0 = neg_k1 * sqrt(abs(e)) * s + z + accel_r
            return u0 + torque(omega, theta), neg_k2 * s

    try:
        if sampled:
            for k in range(n_steps):
                theta_meas = math.floor(theta / quantum) * quantum if quantum > 0.0 else theta
                slot = k % ring
                measured[slot] = theta_meas
                if k >= window:
                    omega_meas = (theta_meas - measured[slot - window]) / window_dt
                elif k:
                    omega_meas = (theta_meas - measured[0]) / (k * dt)
                else:
                    omega_meas = omega
                if noise_std > 0.0:
                    omega_meas += noise[k]

                e = omega_meas - omega_a[k]
                s = e / delta
                if s > 1.0:
                    s = 1.0
                elif s < -1.0:
                    s = -1.0
                u0 = neg_k1 * sqrt(abs(e)) * s + z + accel_a[k]

                # one RK4 step of (theta, omega) -> (omega, u0 + d)
                dw_a = u0 + torque(omega, theta)
                w_b = omega + half * dw_a
                dw_b = u0 + torque(w_b, theta + half * omega)
                w_c = omega + half * dw_b
                dw_c = u0 + torque(w_c, theta + half * w_b)
                w_e = omega + dt * dw_c
                dw_e = u0 + torque(w_e, theta + dt * w_c)
                theta = theta + sixth * (omega + 2.0 * (w_b + w_c) + w_e)
                omega = omega + sixth * (dw_a + 2.0 * (dw_b + dw_c) + dw_e)
                z += dt * (neg_k2 * s)
                if not (isfinite(theta) and isfinite(omega) and isfinite(z)):
                    raise DivergenceError(k * dt + dt)
                records.extend((theta, omega, z))
        else:
            for k in range(n_steps):
                dw_a, dz_a = stage(theta, omega, z, omega_a[k], accel_a[k])
                w_mid, a_mid = omega_mid[k], accel_mid[k]
                w_b = omega + half * dw_a
                dw_b, dz_b = stage(theta + half * omega, w_b, z + half * dz_a, w_mid, a_mid)
                w_c = omega + half * dw_b
                dw_c, dz_c = stage(theta + half * w_b, w_c, z + half * dz_b, w_mid, a_mid)
                w_e = omega + dt * dw_c
                dw_e, dz_e = stage(theta + dt * w_c, w_e, z + dt * dz_c,
                                   omega_end[k], accel_end[k])

                theta = theta + sixth * (omega + 2.0 * (w_b + w_c) + w_e)
                omega = omega + sixth * (dw_a + 2.0 * (dw_b + dw_c) + dw_e)
                z = z + sixth * (dz_a + 2.0 * (dz_b + dz_c) + dz_e)
                if not (isfinite(theta) and isfinite(omega) and isfinite(z)):
                    raise DivergenceError(k * dt + dt)
                records.extend((theta, omega, z))
    except ValueError as exc:  # only math.sin raises here, on a stage angle overflowed to inf
        raise DivergenceError(k * dt + dt) from exc
    return times, np.frombuffer(records, dtype=float).reshape(n_steps + 1, 3)
