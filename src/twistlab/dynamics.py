"""The super-twisting control law.

The law has one array form here, :func:`twisting_action`, for recorded
channels.  The RK4 loops (the C kernel behind ``integrator.integrate`` and
both step rules of ``plant._motor_loop``) write the law out inline on
doubles, in the same operation order, so each loop's control equals
:func:`twisting_action` on its recorded states bit for bit.  The
controller's integral state is owned by whoever integrates the loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DELTA",
    "Gains",
    "check_number",
    "default_layer_width",
    "saturation",
    "twisting_action",
]

#: Fallback boundary-layer width when no accuracy target is active.
DEFAULT_DELTA = 1e-4


def check_number(value, what: str = "a finite number > 0", ok=lambda v: 0.0 < v < math.inf,
                 integer: bool = False, name: str = ""):
    """``value`` as a float, or as an int with ``integer``, once it is a number passing ``ok``.

    A number is a real number, numpy's scalars included, that is not NaN and
    fits a float; with ``integer`` it must be an int.  ``ok`` is asked about
    its float; by default it asks for what ``what`` says, a finite number
    > 0.  A bool, a non-number or a value failing ``ok`` raises ValueError,
    "<name> must be <what>, got <value!r>", so a caller names its argument
    and a config its dotted key.
    """
    number = math.nan
    if isinstance(value, int if integer else numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            pass
    if number != number or not ok(number):
        raise ValueError(f"{name} must be {what}, got {value!r}".lstrip())
    return int(value) if integer else number


def default_layer_width(accuracy: float) -> float:
    """Boundary-layer width kept far below the amplitudes a run must resolve.

    For an accuracy target ``eta`` the width is ``min(1e-4, 1e-3 * eta)``, so
    the layer never dominates the measured cycle.
    """
    check_number(accuracy, "a number > 0", lambda v: v > 0.0, name="accuracy")
    return min(DEFAULT_DELTA, 1e-3 * accuracy)


@dataclass(frozen=True)
class Gains:
    """Super-twisting gains (k1: sqrt-term, k2: integral) plus layer width."""

    k1: float
    k2: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "delta"):
            check_number(getattr(self, name), name=name)


def saturation(q, delta):
    """Boundary-layer replacement for sgn: clip(q / delta, -1, 1).

    Continuous, odd and non-decreasing in ``q``; equals the sign function
    exactly for |q| >= delta.  Accepts scalars or arrays.
    """
    check_number(delta, "a number > 0", lambda v: v > 0.0, name="delta")
    return np.clip(q / delta, -1.0, 1.0)


def twisting_action(x1, z, gains: Gains):
    """Array form of the control u = -k1*sqrt(|x1|)*sat(x1/delta) + z.

    Used on recorded channels; elementwise bit-identical to the ``u`` that
    the RK4 loops compute inline on floats.
    """
    return -gains.k1 * np.sqrt(np.abs(x1)) * saturation(x1, gains.delta) + z
