"""Test-side planar fields for ``rk4_solve``, the reference the written-out steps are held to."""

import numpy as np

from twistlab.dynamics import twisting_law
from twistlab.integrator import Trajectory, rk4_solve


def loop_field(gains, rate):
    """The reduced loop (t, (x1, x2)) -> (dx1, dx2), built from ``twisting_law``."""
    law = twisting_law(gains)
    return lambda t, x: law(x[0], x[1], rate(t))


def solve_trajectory(field, x0, cfg):
    """``rk4_solve`` of a planar field from t = 0 on ``cfg``'s grid, with zero u, d, q."""
    times, states = rk4_solve(field, x0, 0.0, cfg.dt, cfg.n_steps)
    u, d, q = (np.zeros_like(times) for _ in range(3))
    return Trajectory(t=times, x1=states[:, 0].copy(), x2=states[:, 1].copy(),
                      u=u, d=d, q=q, dt=cfg.dt)
