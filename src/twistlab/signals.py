"""Periodic perturbation models and their rates.

Two families: a synthetic disturbance whose rate is a pure sinusoid, and the
motor load torque built from smoothed Coulomb + viscous friction plus
position-periodic cogging harmonics.  Both are periodic, so every rate has
period mean 0.  Helpers extract the rate bound and the period for tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import check_number

__all__ = [
    "TWO_PI",
    "SinusoidPerturbation",
    "FrictionCoggingModel",
    "MotionProfile",
    "eval_q",
    "bound_L",
    "constant_speed_characterization",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SinusoidPerturbation:
    """Disturbance whose rate is q(t) = rate_amplitude * sin(2*pi*t/period + phase)."""

    rate_amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_number(self.period, name="period")
        for name in ("rate_amplitude", "phase"):
            check_number(getattr(self, name), "a finite number", math.isfinite, name=name)

    def q(self, t):
        return self.rate_amplitude * np.sin(TWO_PI * t / self.period + self.phase)

    def d(self, t):
        """Disturbance itself, integrated from q with d(0) = 0."""
        w = TWO_PI / self.period
        return self.rate_amplitude / w * (math.cos(self.phase) - np.cos(w * t + self.phase))


@dataclass(frozen=True)
class FrictionCoggingModel:
    """Motor load torque: smoothed Coulomb + viscous friction + cogging ripple.

        d = coulomb*(2/pi)*arctan(steepness*omega) + viscous*omega
            + sum_i amp_i*sin(theta + phase_i)

    Defaults are the desk calibration: one dominant cogging harmonic of
    0.5 N*m so the constant-speed rate bound 0.5*|omega_r| covers the
    8-11.5 N*m/s range across omega_r in [16, 23] rad/s.  All fields are
    config-overridable.
    """

    coulomb: float = 0.4          # N*m
    steepness: float = 100.0      # s/rad, >> 1 so arctan approximates sgn(omega)
    viscous: float = 0.01         # N*m*s/rad
    harmonics: tuple[tuple[float, float], ...] = ((0.5, 0.0),)  # (N*m, rad)

    def __post_init__(self) -> None:
        # each message opens with the field name, so a config error can name its key
        for name in ("coulomb", "viscous"):
            check_number(getattr(self, name), "a finite number >= 0",
                         lambda v: 0.0 <= v < math.inf, name=name)
        check_number(self.steepness, name="steepness")

        def finite(v):
            return check_number(v, "a finite number", math.isfinite)
        try:
            harmonics = tuple((finite(a), finite(p)) for a, p in self.harmonics)
        except (TypeError, ValueError):
            raise ValueError(f"harmonics must be (amplitude, phase) pairs of finite numbers, "
                             f"got {self.harmonics!r}") from None
        object.__setattr__(self, "harmonics", harmonics)

    @property
    def cogging_amplitude(self) -> float:
        """Amplitude of the summed cogging ripple, ``|sum_i amp_i*exp(j*phase_i)|``.

        The harmonics share the angle theta, so their sum is one sinusoid in
        theta with this amplitude; it scales the constant-speed rate bound.
        """
        return math.hypot(sum(a * math.cos(p) for a, p in self.harmonics),
                          sum(a * math.sin(p) for a, p in self.harmonics))

    def torque(self, omega, theta):
        """Load torque at angular velocity ``omega`` and position ``theta``."""
        d = self.coulomb * (2.0 / math.pi) * np.arctan(self.steepness * omega)
        d = d + self.viscous * omega
        for amp, phase in self.harmonics:
            d = d + amp * np.sin(theta + phase)
        return d

    def rate(self, omega, omega_dot, theta):
        """Time derivative of :meth:`torque` along a motion (omega, omega_dot, theta)."""
        a = self.steepness
        q = (2.0 * self.coulomb * a / (math.pi * (1.0 + (a * omega) ** 2)) + self.viscous) * omega_dot
        cog = 0.0
        for amp, phase in self.harmonics:
            cog = cog + amp * np.cos(theta + phase)
        return q + omega * cog


@dataclass(frozen=True)
class MotionProfile:
    """Reference motion given as callables omega(t), theta(t), omega_dot(t).

    Each callable takes an array of times and returns the values at each; the
    motor loop calls ``omega`` and ``omega_dot`` once per stage grid.
    """

    omega: Callable[[np.ndarray], np.ndarray]
    theta: Callable[[np.ndarray], np.ndarray]
    omega_dot: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def constant_speed(cls, omega_r: float) -> "MotionProfile":
        """Constant set-point: theta advances as omega_r * t."""
        check_number(omega_r, "a finite number", math.isfinite, name="omega_r")
        return cls(
            omega=lambda t: omega_r + 0.0 * t,
            theta=lambda t: omega_r * t,
            omega_dot=lambda t: 0.0 * t,
        )

    @classmethod
    def sinusoidal_velocity(cls, frequency_hz: float, accel_peak: float = 100.0) -> "MotionProfile":
        """Zero-mean sinusoidal velocity with a frequency-independent acceleration peak.

        omega(t) = (accel_peak / 2*pi*f) * cos(2*pi*f*t), so the acceleration
        amplitude stays at ``accel_peak`` for every frequency.  A frequency
        whose ``2*pi*f``, speed amplitude or angle amplitude overflows raises
        ValueError.
        """
        check_number(frequency_hz, name="frequency_hz")
        check_number(accel_peak, "a finite number", math.isfinite, name="accel_peak")
        w = TWO_PI * frequency_hz
        amp = accel_peak / w
        for what, value in (("2*pi*f", w), ("accel_peak/(2*pi*f)", amp),
                            ("accel_peak/(2*pi*f)**2", amp / w)):
            if not math.isfinite(value):
                raise ValueError(f"frequency_hz must keep {what} finite, got {frequency_hz!r} "
                                 f"({what} = {value!r} at accel_peak {accel_peak!r})")
        return cls(
            omega=lambda t: amp * np.cos(w * t),
            theta=lambda t: amp / w * np.sin(w * t),
            omega_dot=lambda t: -accel_peak * np.sin(w * t),
        )


def eval_q(model: FrictionCoggingModel, profile: MotionProfile, t):
    """Disturbance torque rate along a motion profile."""
    return model.rate(profile.omega(t), profile.omega_dot(t), profile.theta(t))


def _abs_samples(q: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # an overflow is reported below, as a non-finite sample
        values = np.abs(np.broadcast_to(np.asarray(q(t), dtype=float), t.shape))
    if not np.all(np.isfinite(values)):
        raise ValueError("rate signal produced non-finite samples")
    return values


def bound_L(q: Callable[[np.ndarray], np.ndarray], period: float) -> float:
    """Sup of |q| over one period by dense sampling plus one refinement pass.

    Works for arbitrary rate signals, which is why sampling is used instead
    of symbolic analysis.  ``q`` is called on a whole array of sample times
    and returns the rate at each (e.g. ``lambda t: eval_q(model, profile, t)``).
    Non-finite samples raise ValueError.
    """
    check_number(period, name="period")
    samples = 10000
    t = np.linspace(0.0, period, samples, endpoint=False)
    values = _abs_samples(q, t)
    k = int(np.argmax(values))
    # refine on one grid cell around the coarse argmax
    spacing = period / samples
    fine = np.linspace(t[k] - spacing, t[k] + spacing, 1001)
    return float(max(values[k], _abs_samples(q, fine).max()))


def constant_speed_characterization(model: FrictionCoggingModel, omega_r: float) -> tuple[float, float]:
    """Rate bound and period of the load torque at a constant speed set-point.

    At constant speed the friction terms contribute no rate and the rate is
    omega_r * sum_i amp_i*cos(theta + phase_i), so L = |omega_r| times the
    model's ``cogging_amplitude`` and T = 2*pi / |omega_r|.
    """
    check_number(omega_r, "a finite number != 0", lambda v: 0.0 < abs(v) < math.inf, name="omega_r")
    L = abs(omega_r * model.cogging_amplitude)
    T = TWO_PI / abs(omega_r)
    return L, T
