"""The super-twisting control law.

The law is written once, in two forms: a scalar closure for the fixed-step
RK4 loops and an array form for recorded channels.  Both are pure maps; the
controller's integral state is owned by whoever integrates the loop, so they
can be shared freely between workers.  ``integrator.integrate`` writes the
scalar form out inline, in the same operation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DELTA",
    "Gains",
    "default_layer_width",
    "saturation",
    "twisting_law",
    "twisting_action",
]

#: Fallback boundary-layer width when no accuracy target is active.
DEFAULT_DELTA = 1e-4


def default_layer_width(accuracy: float | None = None) -> float:
    """Boundary-layer width kept far below the amplitudes a run must resolve.

    With an accuracy target ``eta`` the width is ``min(1e-4, 1e-3 * eta)`` so
    the layer never dominates the measured cycle; without one it falls back
    to :data:`DEFAULT_DELTA`.
    """
    if accuracy is None:
        return DEFAULT_DELTA
    if accuracy <= 0.0:
        raise ValueError(f"accuracy target must be positive, got {accuracy}")
    return min(DEFAULT_DELTA, 1e-3 * accuracy)


@dataclass(frozen=True)
class Gains:
    """Super-twisting gains (k1: sqrt-term, k2: integral) plus layer width."""

    k1: float
    k2: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if not (self.k1 > 0.0 and math.isfinite(self.k1)):
            raise ValueError(f"k1 must be positive and finite, got {self.k1}")
        if not (self.k2 > 0.0 and math.isfinite(self.k2)):
            raise ValueError(f"k2 must be positive and finite, got {self.k2}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


def saturation(q, delta):
    """Boundary-layer replacement for sgn: clip(q / delta, -1, 1).

    Continuous, odd and non-decreasing in ``q``; equals the sign function
    exactly for |q| >= delta.  Accepts scalars or arrays.
    """
    if delta <= 0.0:
        raise ValueError(f"layer width delta must be positive, got {delta}")
    return np.clip(q / delta, -1.0, 1.0)


def twisting_law(gains: Gains):
    """Scalar super-twisting law for the fixed-step hot loops.

    Returns ``law(x1, z, q) -> (u, dz)`` with

        u  = -k1*sqrt(|x1|)*s + z
        dz = -k2*s + q,          s = sat(x1/delta)

    ``z`` is the integral state (or integral-plus-disturbance state of the
    reduced loop) and ``q`` the rate added to its derivative.  The
    saturation is inlined because ``np.clip`` on a Python float costs
    microseconds; the result is bit-identical to :func:`twisting_action`.
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


def twisting_action(x1, z, gains: Gains):
    """Array form of the control u = -k1*sqrt(|x1|)*sat(x1/delta) + z.

    Used on recorded channels; elementwise bit-identical to the ``u`` of
    :func:`twisting_law`.
    """
    return -gains.k1 * np.sqrt(np.abs(x1)) * saturation(x1, gains.delta) + z
