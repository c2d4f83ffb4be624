"""Closed-form gain and bound calculus for the super-twisting loop.

Covers both regimes: finite-time tuning (integral gain above the rate
bound) and the under-tuned regime, where the loop settles on a periodic
cycle whose width can be budgeted against an accuracy target instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import DEFAULT_DELTA, Gains, check_number, default_layer_width

__all__ = [
    "AccuracySpec",
    "InfeasibleSpecError",
    "finite_time_gains",
    "check_averaged_conditions",
    "cycle_width_bound",
    "tight_bound_feasible",
    "tight_width_bound",
    "tune_k2",
    "optimize_gains",
]


class InfeasibleSpecError(ValueError):
    """No gain pair can satisfy the requested accuracy specification."""


def _check_n(n) -> None:
    check_number(n, "a number in (0, 0.5]", lambda v: 0.0 < v <= 0.5, name="n")


@dataclass(frozen=True)
class AccuracySpec:
    """Accuracy target: keep |x1| below eta against a (rate_bound, period) forcing.

    ``n`` is the fraction of a period a trajectory may spend on one side of
    the error axis; 1/2 is the safe default used throughout.
    """

    eta: float
    rate_bound: float
    period: float
    n: float = 0.5

    def __post_init__(self) -> None:
        for name in ("eta", "rate_bound", "period"):
            check_number(getattr(self, name), name=name)
        _check_n(self.n)


def finite_time_gains(rate_bound: float, margin: float = 1.1,
                      delta: float = DEFAULT_DELTA) -> Gains:
    """Gains that make the origin finite-time stable: k2 = margin*L, k1 = 1.8*sqrt(k2+L).

    ``margin`` must exceed 1 strictly; the default 1.1 reproduces the usual
    10% headroom over the rate bound.
    """
    check_number(rate_bound, name="rate_bound")
    check_number(margin, "a finite number > 1", lambda v: 1.0 < v < math.inf, name="margin")
    k2 = margin * rate_bound
    k1 = 1.8 * math.sqrt(k2 + rate_bound)
    return Gains(k1=k1, k2=k2, delta=delta)


def check_averaged_conditions(gains: Gains) -> bool:
    """Sufficient conditions on the period-averaged loop for cycle convergence.

    They are taken at the rate's period mean, 0: q is the derivative of a
    T-periodic d.  Every :class:`Gains` has k2 > 0, so k1 >= 1.8*sqrt(k2)
    remains.  Sufficient only; loops violating it are routinely observed to
    converge, so callers should report rather than enforce this flag.
    """
    return gains.k1 >= 1.8 * math.sqrt(gains.k2)


def cycle_width_bound(k2: float, rate_bound: float, n: float, period: float) -> float:
    """Cycle width bound (k2 + L) * n^2 * T^2 / 2 from period averaging.

    Grows with the integral gain and the rate bound, shrinks quadratically
    with the forcing period: faster perturbations average out better.
    """
    _check_n(n)
    check_number(period, "a number > 0", lambda v: v > 0.0, name="period")
    return 0.5 * (k2 + rate_bound) * n * n * period * period


def tight_bound_feasible(k1: float, k2: float, rate_bound: float) -> bool:
    """Whether the tight width bound applies: L > k2 and k1 > sqrt(2*(L - k2)).

    The first is the under-tuned regime (for L <= k2 the loop converges in
    finite time and has no cycle to bound), the second the bound's k1
    premise.  Every caller asks here whether the tight bound exists.
    """
    return rate_bound > k2 and k1 > math.sqrt(2.0 * (rate_bound - k2))


def tight_width_bound(k1: float, k2: float, rate_bound: float, n: float,
                      period: float) -> float | None:
    """Non-conservative cycle width bound for an under-tuned loop, or None.

        k1^4 * (L - k2)^2 * n^2 * T^2 / (k1^2 - 2*(L - k2))^2

    None where :func:`tight_bound_feasible` is false: outside the
    under-tuned regime, or where the k1 premise fails.  A bad ``n`` or
    ``period`` raises ValueError.
    """
    _check_n(n)
    check_number(period, "a number > 0", lambda v: v > 0.0, name="period")
    if not tight_bound_feasible(k1, k2, rate_bound):
        return None
    excess = rate_bound - k2
    denom = k1 * k1 - 2.0 * excess
    return (k1 ** 4) * excess * excess * n * n * period * period / (denom * denom)


def tune_k2(k1: float, spec: AccuracySpec) -> float:
    """Smallest integral gain meeting an accuracy spec for a fixed k1.

        k2 = L - sqrt(eta) * k1^2 / (2*sqrt(eta) + k1*n*T)

    Closed form of the tight-bound inversion used in the actuator-limited
    workflow (cap k1, solve for k2).  At the returned pair the k1 premise
    holds for any k1 > 0, since k1^2 - 2*(L - k2) = k1^3*n*T / (2*sqrt(eta)
    + k1*n*T), and the tight bound equals eta * k1^2: within the spec for
    k1 <= 1 (with zero margin at k1 = 1), beyond it for k1 > 1.  k2 falls as
    k1 rises or eta grows.  Raises :class:`InfeasibleSpecError` when k2 <= 0,
    or when rounding breaks :func:`tight_bound_feasible` at the returned pair
    (e.g. a tiny eta leaves k2 = L), so every k2 returned has a tight bound.
    """
    check_number(k1, name="k1")
    root_eta = math.sqrt(spec.eta)
    k2 = spec.rate_bound - root_eta * k1 * k1 / (2.0 * root_eta + k1 * spec.n * spec.period)
    if k2 <= 0.0:
        raise InfeasibleSpecError(
            f"accuracy eta={spec.eta} with k1={k1} needs k2={k2:.6g} <= 0; "
            "lower k1 or tighten eta"
        )
    if not tight_bound_feasible(k1, k2, spec.rate_bound):
        raise InfeasibleSpecError(
            f"rounding breaks the k1 premise at k1={k1}, k2={k2!r}, L={spec.rate_bound}"
        )
    return k2


def optimize_gains(spec: AccuracySpec, k1_max: float) -> Gains:
    """The least integral gain k2, with k1 <= k1_max, whose tight width bound meets eta.

    Along :func:`tune_k2` the tight bound is eta * k1^2 and k2 falls as k1
    rises, so the least k2 sits at k1 = min(k1_max, 1).  At k1 = 1 the bound
    equals eta with zero margin, and rounding of L - k2 can read it slightly
    above eta (about 2e-12 relative at L = 25, more at larger L).  Raises
    :class:`InfeasibleSpecError` where :func:`tune_k2` does at that k1: when
    k2 <= 0 there (k2 then falls towards 0 as k1 rises to the root of
    k2(k1) = 0, and no least k2 exists), or when rounding breaks the k1 premise.
    """
    check_number(k1_max, name="k1_max")
    k1 = min(k1_max, 1.0)
    return Gains(k1=k1, k2=tune_k2(k1, spec), delta=default_layer_width(spec.eta))
