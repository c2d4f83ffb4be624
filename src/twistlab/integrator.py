"""Deterministic fixed-step RK4 integration with dense records.

Fixed stepping is deliberate: the regularized loop has a steep but bounded
slope inside the boundary layer, and period-map analysis needs samples that
land exactly on multiples of the perturbation period.  Adaptive stepping
would break both.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Gains

__all__ = [
    "DivergenceError",
    "IntegrationConfig",
    "Trajectory",
    "integrate",
    "detect_crossings",
]

CSV_HEADER = "t,x1,x2,u,d,q"
CSV_CHUNK_ROWS = 1024


class DivergenceError(RuntimeError):
    """A state component became non-finite; carries the blow-up time."""

    def __init__(self, time: float):
        super().__init__(f"integration diverged at t={time:g}")
        self.time = time


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size and step count (horizon ``n_steps * dt``) for one run; every step is recorded."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if type(self.n_steps) is not int or self.n_steps < 1:  # so True and 10.0 fail too
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    @classmethod
    def for_period(cls, period: float, steps_per_period: int, periods: int) -> "IntegrationConfig":
        """Config aligned to a forcing period: dt = period / steps_per_period.

        Samples then land exactly on period multiples, which the stroboscopic
        map requires.  A step coarser than period/200 draws a warning.
        """
        if steps_per_period < 1 or periods < 1:
            raise ValueError("steps_per_period and periods must be positive")
        if steps_per_period < 200:
            warnings.warn(
                f"dt = T/{steps_per_period} is coarser than T/200; "
                "the boundary layer may be under-resolved",
                stacklevel=2,
            )
        return cls(dt=period / steps_per_period, n_steps=steps_per_period * periods)


@dataclass
class Trajectory:
    """Run record, one row per integration step, with control and disturbance channels.

    ``u`` holds the input actually applied to the plant (the inner
    super-twisting action for reduced-loop runs, the motor torque command
    for virtual-motor runs).  ``dt`` is the integration step, and so the
    spacing of the records.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    d: np.ndarray
    q: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("x1", "x2", "u", "d", "q"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length mismatch")
        if n >= 2 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("time stamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """Write the canonical `t,x1,x2,u,d,q` table (shortest round-trip floats).

        Rows are formatted from Python floats (``tolist``) in chunks of
        ``CSV_CHUNK_ROWS``, so memory stays bounded on long runs.
        """
        channels = (self.t, self.x1, self.x2, self.u, self.d, self.q)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for start in range(0, len(self.t), CSV_CHUNK_ROWS):
                rows = zip(*(np.asarray(c[start:start + CSV_CHUNK_ROWS], dtype=float).tolist()
                             for c in channels))
                fh.write("".join(f"{t!r},{x1!r},{x2!r},{u!r},{d!r},{q!r}\n"
                                 for t, x1, x2, u, d, q in rows))


def on_grid(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> memoryview:
    """``f`` called once on the whole ``grid``, as float values that index to Python floats.

    A scalar result is broadcast to the grid.  Indexing the memoryview holds
    no float object per grid point.
    """
    return memoryview(np.broadcast_to(f(grid), grid.shape).astype(float))


def integrate(gains: Gains, rate: Callable[[np.ndarray], np.ndarray], x0,
              cfg: IntegrationConfig) -> Trajectory:
    """Integrate the reduced loop from ``x0 = (x1, x2)`` at t = 0 into a :class:`Trajectory`.

        dx1 = -k1*sqrt(|x1|)*s + x2
        dx2 = -k2*s + rate(t),       s = sat(x1/delta)

    The classical RK4 step is written out on Python float locals with the
    law inlined in :func:`~twistlab.dynamics.twisting_action`'s operation
    order.  ``rate`` takes an array of times and is called once on each of
    the three stage grids, ``k*dt``, ``k*dt + dt/2`` (both midpoint stages)
    and ``k*dt + dt``; the step reads stage ``k``'s values by index.
    Raises :class:`DivergenceError` as soon as a state goes non-finite.
    The ``u``, ``d`` and ``q`` channels are zero; a caller that knows them
    swaps them in with ``dataclasses.replace``.
    """
    start = tuple(float(v) for v in x0)
    if len(start) != 2:
        raise ValueError(f"integrate expects a planar state (x1, x2), got {len(start)} states")

    neg_k1, neg_k2, delta = -gains.k1, -gains.k2, gains.delta
    dt, n_steps = cfg.dt, cfg.n_steps
    half = 0.5 * dt
    sixth = dt / 6.0
    sqrt = math.sqrt
    isfinite = math.isfinite
    times = np.arange(n_steps + 1) * dt
    grid = times[:-1]
    rate_a, rate_mid, rate_end = (on_grid(rate, g) for g in (grid, grid + half, grid + dt))
    x1, x2 = start
    x1s, x2s = array("d", (x1,)), array("d", (x2,))
    append1, append2 = x1s.append, x2s.append
    for k in range(n_steps):
        s = x1 / delta
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        a1 = neg_k1 * sqrt(abs(x1)) * s + x2
        a2 = neg_k2 * s + rate_a[k]

        q_mid = rate_mid[k]
        y1, y2 = x1 + half * a1, x2 + half * a2
        s = y1 / delta
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        b1 = neg_k1 * sqrt(abs(y1)) * s + y2
        b2 = neg_k2 * s + q_mid

        y1, y2 = x1 + half * b1, x2 + half * b2
        s = y1 / delta
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        c1 = neg_k1 * sqrt(abs(y1)) * s + y2
        c2 = neg_k2 * s + q_mid

        y1, y2 = x1 + dt * c1, x2 + dt * c2
        s = y1 / delta
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        e1 = neg_k1 * sqrt(abs(y1)) * s + y2
        e2 = neg_k2 * s + rate_end[k]

        x1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + e1)
        x2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + e2)
        if not (isfinite(x1) and isfinite(x2)):
            raise DivergenceError(k * dt + dt)
        append1(x1)
        append2(x2)

    u, d, q = (np.zeros_like(times) for _ in range(3))
    return Trajectory(t=times, x1=np.frombuffer(x1s), x2=np.frombuffer(x2s),
                      u=u, d=d, q=q, dt=cfg.dt)


def detect_crossings(traj: Trajectory, layer_width: float = 0.0) -> list[tuple[float, int]]:
    """Linear-interpolated zero crossings of ``x1``, as (time, direction).

    ``direction`` is the sign of ``x1`` after the crossing.  Crossing
    clusters whose intermediate samples stay inside the boundary layer
    (|value| < layer_width for more than one step) are coalesced into a
    single event: that chatter is a regularization artifact, not cycle
    structure.  With the default width 0 every sign change counts.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    values = traj.x1
    t = traj.t

    # bracketing pairs: consecutive nonzero samples of opposite sign (zeros
    # and NaN carry no sign and are skipped)
    nz = np.flatnonzero((values > 0.0) | (values < 0.0))
    flip = np.flatnonzero((values[nz[1:]] > 0.0) != (values[nz[:-1]] > 0.0))
    left, right = nz[flip], nz[flip + 1]
    va, vb = values[left], values[right]
    # root of the linear interpolant between the bracketing samples
    frac = va / (va - vb)
    t_cross = t[left] + frac * (t[right] - t[left])
    raw = list(zip(t_cross.tolist(), np.where(vb > 0.0, 1, -1).tolist(),
                   left.tolist(), right.tolist()))

    if not raw or layer_width <= 0.0:
        return [(tc, dirn) for tc, dirn, _, _ in raw]

    # merge consecutive crossings whose whole span stays inside the layer:
    # such a dwell lasts more than one step and is chatter, not structure
    events: list[tuple[float, int]] = []
    group_start = 0
    for j in range(1, len(raw) + 1):
        if j < len(raw):
            span = values[raw[j - 1][2]:raw[j][3] + 1]
            if np.all(np.abs(span) < layer_width):
                continue
        events.append((raw[group_start][0], raw[j - 1][1]))
        group_start = j
    return events
