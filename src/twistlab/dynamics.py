"""The super-twisting control law.

The law has one array form here, :func:`twisting_action`, for recorded
channels.  The RK4 loops (``integrator.integrate``'s C kernel and both step
rules of ``plant._motor_loop``) write the law out inline on doubles, in the
same operation order, so each loop's control equals :func:`twisting_action`
on its recorded states bit for bit.  The controller's integral state is owned
by whoever integrates the loop.
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
    "twisting_action",
]

#: Fallback boundary-layer width when no accuracy target is active.
DEFAULT_DELTA = 1e-4


def default_layer_width(accuracy: float) -> float:
    """Boundary-layer width kept far below the amplitudes a run must resolve.

    For an accuracy target ``eta`` the width is ``min(1e-4, 1e-3 * eta)``, so
    the layer never dominates the measured cycle.
    """
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


def twisting_action(x1, z, gains: Gains):
    """Array form of the control u = -k1*sqrt(|x1|)*sat(x1/delta) + z.

    Used on recorded channels; elementwise bit-identical to the ``u`` that
    the RK4 loops compute inline on floats.
    """
    return -gains.k1 * np.sqrt(np.abs(x1)) * saturation(x1, gains.delta) + z
