"""Test-local disturbance reconstruction from the recorded motor signals.

A first-order sliding-mode differentiator estimates the rotor acceleration,
so d_hat = domega/dt - u0, per unit inertia as the motor loop is stated,
needs only the speed and the torque command; q_hat differentiates d_hat
again.  It checks the virtual motor's recorded ``d`` and ``q`` channels; it
cannot identify (L, T).
"""

import math

import numpy as np


def robust_differentiate(samples, dt: float, rate_bound: float) -> np.ndarray:
    """Derivative estimate per sample, with gains sized from a bound C on the second derivative.

    lambda1 = 1.5*sqrt(C), lambda2 = 1.1*C; starts on the first sample with zero derivative.
    """
    lam1, lam2 = 1.5 * math.sqrt(rate_bound), 1.1 * rate_bound
    x = np.asarray(samples, dtype=float)
    out = np.empty_like(x)
    z0, z1 = float(x[0]), 0.0
    for k in range(len(x)):
        sigma = z0 - x[k]
        sgn = 1.0 if sigma > 0.0 else (-1.0 if sigma < 0.0 else 0.0)
        v = -lam1 * math.sqrt(abs(sigma)) * sgn + z1
        out[k] = v
        z0 += dt * v
        z1 += dt * (-lam2 * sgn)
    return out


def reconstruct_disturbance(traj, omega, rate_bound: float,
                            rate_rate_bound: float | None = None):
    """(d_hat, q_hat) from the rotor speed ``omega`` and the recorded torque command ``traj.u``."""
    d_hat = robust_differentiate(omega, traj.dt, rate_bound) - traj.u
    return d_hat, robust_differentiate(d_hat, traj.dt, rate_rate_bound or rate_bound)
