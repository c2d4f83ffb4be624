"""The generic RK4 solver, the scalar law, torque and ``repr`` CSV: the C kernel's references.

``integrate``'s C kernel and both step rules of ``twistlab.plant._motor_loop``
write their RK4 step, the super-twisting law and the load torque out on
doubles.  The tests hold them, bit for bit, to :func:`rk4_solve` on fields
built from :func:`twisting_law` and :func:`scalar_torque`, and to
:func:`sampled_motor_loop`.  The kernel's CSV writer is held, byte for byte,
to :func:`repr_csv`.
"""

import math
from array import array
from typing import Callable, Sequence

import numpy as np

from twistlab.dynamics import Gains
from twistlab.integrator import DivergenceError, Trajectory


def twisting_law(gains: Gains):
    """Scalar super-twisting law, the reference for the loops that inline it.

    Returns ``law(x1, z, q) -> (u, dz)`` with

        u  = -k1*sqrt(|x1|)*s + z
        dz = -k2*s + q,          s = sat(x1/delta)

    ``z`` is the integral state (or integral-plus-disturbance state of the
    reduced loop) and ``q`` the rate added to its derivative.  The
    saturation is inlined because ``np.clip`` on a Python float costs
    microseconds; the result is bit-identical to
    :func:`~twistlab.dynamics.twisting_action`.
    """
    k1, k2, delta = gains.k1, gains.k2, gains.delta
    sqrt = math.sqrt

    def law(x1: float, z: float, q: float) -> tuple[float, float]:
        s = x1 / delta
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        return -k1 * sqrt(abs(x1)) * s + z, -k2 * s + q

    return law


def rk4_solve(field: Callable, x0: Sequence[float], t0: float, dt: float,
              n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 over ``n_steps`` fixed steps; returns (times, states) at every step.

    ``field(t, x)`` receives the state as a tuple and returns the derivative
    tuple.  The step is written out on Python float locals for two state
    sizes: 3 is the reference for the continuous motor step
    ``(theta, omega, z)`` (through :func:`motor_field`), and 2 for
    ``integrate`` (through :func:`loop_field`) and the sampled rotor step;
    any other size raises ValueError.  Raises :class:`DivergenceError` as
    soon as a component goes non-finite.  Like the motor loop, the 3-state
    step also takes a ValueError raised while a stage's first component (the
    motor angle) is non-finite, e.g. by ``math.sin(inf)``, as a divergence.
    """
    x = tuple(float(v) for v in x0)
    if len(x) not in (2, 3):
        raise ValueError(f"rk4_solve integrates 2- or 3-state systems, got {len(x)} states")
    times = t0 + np.arange(n_steps + 1) * dt
    records = array("d", x)

    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    if len(x) == 2:
        x1, x2 = x
        for k in range(n_steps):
            t = t0 + k * dt
            th = t + half
            a1, a2 = field(t, (x1, x2))
            b1, b2 = field(th, (x1 + half * a1, x2 + half * a2))
            c1, c2 = field(th, (x1 + half * b1, x2 + half * b2))
            e1, e2 = field(t + dt, (x1 + dt * c1, x2 + dt * c2))
            x1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + e1)
            x2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + e2)
            if not (isfinite(x1) and isfinite(x2)):
                raise DivergenceError(t + dt)
            records.extend((x1, x2))
    else:
        x1, x2, x3 = x
        a1 = b1 = c1 = x2  # read by the except clause; the last step left them finite
        try:
            for k in range(n_steps):
                t = t0 + k * dt
                th = t + half
                a1, a2, a3 = field(t, (x1, x2, x3))
                b1, b2, b3 = field(th, (x1 + half * a1, x2 + half * a2, x3 + half * a3))
                c1, c2, c3 = field(th, (x1 + half * b1, x2 + half * b2, x3 + half * b3))
                e1, e2, e3 = field(t + dt, (x1 + dt * c1, x2 + dt * c2, x3 + dt * c3))
                x1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + e1)
                x2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + e2)
                x3 = x3 + sixth * (a3 + 2.0 * (b3 + c3) + e3)
                if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                    raise DivergenceError(t + dt)
                records.extend((x1, x2, x3))
        except ValueError as exc:
            if all(isfinite(a) for a in (x1 + half * a1, x1 + half * b1, x1 + dt * c1)):
                raise
            raise DivergenceError(t + dt) from exc
    return times, np.frombuffer(records, dtype=float).reshape(n_steps + 1, len(x))


def loop_field(gains, rate):
    """The reduced loop (t, (x1, x2)) -> (dx1, dx2), built from ``twisting_law``.

    ``rate`` is an array rate as ``integrate`` takes it; the law gets ``float(rate(t))``.
    """
    law = twisting_law(gains)
    return lambda t, x: law(x[0], x[1], float(rate(t)))


def scalar_torque(model):
    """Float closure ``torque(omega, theta) -> d``: the load torque as the C kernel computes it.

    The expression of ``FrictionCoggingModel.torque`` in its operation order,
    on ``math.atan`` and ``math.sin``, which call the kernel's libm.  It
    equals the numpy ``torque`` bit for bit wherever ``math.atan`` and
    ``np.arctan`` round ``steepness * omega`` alike; on rare arguments they
    differ in the last bit.  ``math.sin`` raises ValueError on an infinite
    angle, where C's ``sin`` returns NaN.
    """
    coulomb = model.coulomb * (2.0 / math.pi)
    steepness, viscous, harmonics = model.steepness, model.viscous, model.harmonics
    atan, sin = math.atan, math.sin

    def torque(omega: float, theta: float) -> float:
        d = coulomb * atan(steepness * omega) + viscous * omega
        for amp, phase in harmonics:
            d += amp * sin(theta + phase)
        return d

    return torque


def motor_field(motor, reference, gains):
    """The continuous motor loop (t, (theta, omega, z)) -> derivatives, from ``twisting_law``."""
    law = twisting_law(gains)
    torque = scalar_torque(motor.friction_cogging)
    ref_omega, ref_accel = reference.omega, reference.omega_dot

    def field(t, x):
        theta, omega, z = x
        # q = -0.0 adds nothing to any float, so dz is exactly -k2*s
        u, dz = law(omega - float(ref_omega(t)), z, -0.0)
        u0 = u + float(ref_accel(t))
        return (omega, u0 + torque(omega, theta), dz)

    return field


def sampled_motor_loop(motor, reference, gains, cfg, x0, rng=None):
    """(times, states) of the sampled motor loop on Python floats: the sampled kernel's reference.

    Takes ``_motor_loop``'s arguments, with the encoder or the noise on.  The
    noise is drawn up front from ``rng``.  Each step quantizes theta with C's
    ``floor`` (which keeps -0.0, inf and NaN), estimates the speed by the
    backward difference over the last ``velocity_window`` positions (fewer in
    the first steps; the true speed at step 0), adds the noise, applies the
    law of :func:`twisting_law` plus the reference acceleration as a torque
    held over one RK4 step of (theta, omega) on :func:`scalar_torque`, and
    takes an Euler step of z.  Raises :class:`DivergenceError` at the end of
    the first step whose state is non-finite, or in which ``math.sin`` raised
    on a stage angle that overflowed.
    """
    quantum, window, noise_std = motor.encoder_quantum, motor.velocity_window, motor.noise_std
    law, torque = twisting_law(gains), scalar_torque(motor.friction_cogging)
    dt, n_steps = cfg.dt, cfg.n_steps
    half, sixth = 0.5 * dt, dt / 6.0
    times = np.arange(n_steps + 1) * dt
    grid = times[:-1]
    omega_r = np.broadcast_to(reference.omega(grid), grid.shape).tolist()
    accel_r = np.broadcast_to(reference.omega_dot(grid), grid.shape).tolist()
    noise = (noise_std * rng.standard_normal(n_steps)).tolist() if noise_std > 0.0 else None
    theta, omega, z = (float(v) for v in x0)
    records = array("d", (theta, omega, z))
    measured = []  # the positions of the last window + 1 steps, oldest first
    for k in range(n_steps):
        theta_meas = float(np.floor(theta / quantum)) * quantum if quantum > 0.0 else theta
        measured = (measured + [theta_meas])[-(window + 1):]
        span = len(measured) - 1
        omega_meas = (theta_meas - measured[0]) / (span * dt) if span else omega
        if noise is not None:
            omega_meas += noise[k]
        u, dz = law(omega_meas - omega_r[k], z, -0.0)
        u0 = u + accel_r[k]
        try:
            dw_a = u0 + torque(omega, theta)
            w_b = omega + half * dw_a
            dw_b = u0 + torque(w_b, theta + half * omega)
            w_c = omega + half * dw_b
            dw_c = u0 + torque(w_c, theta + half * w_b)
            w_e = omega + dt * dw_c
            dw_e = u0 + torque(w_e, theta + dt * w_c)
        except ValueError as exc:  # math.sin of an angle that overflowed to inf
            raise DivergenceError(k * dt + dt) from exc
        theta = theta + sixth * (omega + 2.0 * (w_b + w_c) + w_e)
        omega = omega + sixth * (dw_a + 2.0 * (dw_b + dw_c) + dw_e)
        z += dt * dz
        if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(z)):
            raise DivergenceError(k * dt + dt)
        records.extend((theta, omega, z))
    return times, np.frombuffer(records, dtype=float).reshape(n_steps + 1, 3)


def solve_trajectory(field, x0, cfg):
    """``rk4_solve`` of a planar field from t = 0 on ``cfg``'s grid, with zero u, d, q."""
    times, states = rk4_solve(field, x0, 0.0, cfg.dt, cfg.n_steps)
    u, d, q = (np.zeros_like(times) for _ in range(3))
    return Trajectory(t=times, x1=states[:, 0].copy(), x2=states[:, 1].copy(),
                      u=u, d=d, q=q, dt=cfg.dt)


def repr_csv(header: str, columns) -> bytes:
    """The CSV table ``write_csv`` writes: ``header``, then one row of ``repr`` floats per index.

    Formatted from Python floats (``tolist``), as ``Trajectory.to_csv`` did
    before the formatting moved into the kernel.
    """
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return (header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)).encode()
