"""Limit-cycle detection and measurement on recorded trajectories.

Convergence is established empirically through contraction of the
period-strobed samples; no Floquet machinery.  Amplitudes are read off the
recorded samples directly, which at 2000 steps per period resolves the
2-5% tolerances used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Gains, check_number
from .integrator import Trajectory, detect_crossings
from .tuning import cycle_width_bound, tight_width_bound

__all__ = [
    "InsufficientDataError",
    "AperiodicSignalError",
    "LimitCycleReport",
    "BoundTable",
    "default_tolerance",
    "stroboscopic_convergence",
    "final_periods",
    "estimate_period",
    "scaling_fit",
    "bound_comparison_table",
    "build_report",
]

#: Contractions of the strobe map required in a row before declaring convergence.
CONSECUTIVE_CONTRACTIONS = 3

#: Periods of signal used for period estimation (excludes transients).
PERIOD_WINDOW_CYCLES = 5

#: Recorded periods the strobe map needs before it can judge convergence.
MIN_STROBE_PERIODS = 10


class InsufficientDataError(ValueError):
    """Trajectory too short for the requested analysis."""


class AperiodicSignalError(RuntimeError):
    """No significant periodicity found in the signal."""


@dataclass
class LimitCycleReport:
    """Verdict and measurements for one run.

    ``coarse_bound`` is the averaging-based width bound (k2+L)n^2T^2/2;
    ``tight_bound`` its under-tuned refinement, None exactly where
    :func:`~twistlab.tuning.tight_bound_feasible` is false (not under-tuned,
    or the k1 premise fails).  ``tolerance`` is the strobe-gap tolerance the
    verdict was taken against.  ``reports.json`` writes every field but
    ``tolerance``, in this order.
    """

    converged: bool
    cycle_start_time: float | None = None
    measured_period: float | None = None
    amplitude: float | None = None
    coarse_bound: float | None = None
    tight_bound: float | None = None
    crossings_per_period: int | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.converged:
            if self.amplitude is not None:
                check_number(self.amplitude, "a number >= 0", lambda v: v >= 0.0,
                             name="amplitude")
            if self.measured_period is not None:
                check_number(self.measured_period, "a number > 0", lambda v: v > 0.0,
                             name="measured_period")

    @property
    def satisfied(self) -> bool:
        """The run's verdict: converged onto a cycle no wider than the coarse bound."""
        return self.converged and self.amplitude <= self.coarse_bound


def default_tolerance(delta: float) -> float:
    """Strobe contraction tolerance: nothing below the boundary layer resolves."""
    return max(10.0 * delta, 1e-6)


def _strobe_stride(traj: Trajectory, period: float) -> int:
    """Records per forcing period; the step must divide the period evenly."""
    stride = period / traj.dt
    stride_int = round(stride)
    if stride_int < 1 or abs(stride - stride_int) > 1e-6 * max(stride, 1.0):
        raise ValueError(
            f"samples not aligned to the period: T/dt = {stride!r}"
        )
    return stride_int


def stroboscopic_convergence(traj: Trajectory, period: float,
                             tol: float) -> tuple[bool, float | None]:
    """Detect contraction of the once-per-period samples onto a fixed point.

    Converged when the Euclidean distance between consecutive strobe samples
    stays below ``tol`` for three consecutive periods; returns the time of
    the first strobe sample opening such a window.  ``tol`` is a finite
    number > 0.  Requires at least ``MIN_STROBE_PERIODS`` recorded periods.
    """
    tol = check_number(tol, name="tol")
    stride = _strobe_stride(traj, period)
    n_periods = (len(traj) - 1) // stride
    if n_periods < MIN_STROBE_PERIODS:
        raise InsufficientDataError(
            f"trajectory covers {n_periods} periods; need at least {MIN_STROBE_PERIODS}"
        )
    idx = np.arange(0, n_periods + 1) * stride
    pts = np.column_stack((traj.x1[idx], traj.x2[idx]))
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    run = 0
    for k, gap in enumerate(gaps):
        run = run + 1 if gap < tol else 0
        if run >= CONSECUTIVE_CONTRACTIONS:
            start = k - CONSECUTIVE_CONTRACTIONS + 1
            return True, float(traj.t[idx[start]])
    return False, None


def final_periods(traj: Trajectory, period: float, count: int = 1) -> slice:
    """The records of the last ``count`` forcing periods: the last ``count * stride + 1``.

    ``stride`` is the records per period, so the slice spans exactly ``count``
    periods, the records at both ends included; ``count`` is an integer >= 1.
    Raises :class:`InsufficientDataError` when the record holds fewer periods.
    """
    check_number(count, "an integer >= 1", lambda v: v >= 1, integer=True, name="count")
    stride = _strobe_stride(traj, period)
    if count * stride > len(traj) - 1:  # a negative start would wrap round
        raise InsufficientDataError(
            f"trajectory covers {(len(traj) - 1) // stride} periods; need {count}"
        )
    return slice(len(traj) - count * stride - 1, len(traj))


def estimate_period(samples: np.ndarray, dt: float) -> float:
    """Dominant period via the autocorrelation peak, parabolically refined.

    The search starts past the first non-positive autocorrelation lag so the
    trivial lag-0 peak is excluded.  Non-finite samples, a constant signal,
    a power that overflows, a normalized peak below 0.2 or no interior peak
    at all raise :class:`AperiodicSignalError`.  ``dt`` is a finite number > 0.
    """
    check_number(dt, name="dt")
    x = np.asarray(samples, dtype=float)
    if len(x) < 8:
        raise InsufficientDataError("need at least 8 samples to estimate a period")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise AperiodicSignalError(f"{bad} of {len(x)} samples are not finite (NaN or inf)")
    with np.errstate(over="ignore", invalid="ignore"):  # a power that overflows fails below
        x = x - x.mean()
        power = float(np.dot(x, x))
    if power == 0.0:
        raise AperiodicSignalError("signal is constant")
    if not math.isfinite(power):
        raise AperiodicSignalError("signal power overflows a float")
    corr = np.correlate(x, x, mode="full")[len(x) - 1:] / power

    # past lag 0 the autocorrelation of a mean-free signal of finite power sums to -1/2,
    # so some lag is <= 0
    start = int(np.argmax(corr <= 0.0))
    search = corr[start:len(x) // 2 + 1]
    if len(search) < 3:
        raise AperiodicSignalError("window too short past the autocorrelation decay")
    k = start + int(np.argmax(search))
    if corr[k] < 0.2:
        raise AperiodicSignalError(
            f"strongest autocorrelation peak {corr[k]:.3f} is below 0.2"
        )
    # corr[0] = 1 > 0, so 0 < start <= k <= len(x) // 2 < len(corr) - 1
    denom = corr[k - 1] - 2.0 * corr[k] + corr[k + 1]
    shift = 0.5 * (corr[k - 1] - corr[k + 1]) / denom if denom != 0.0 else 0.0
    return (k + float(np.clip(shift, -0.5, 0.5))) * dt


def scaling_fit(points) -> tuple[float, float, float]:
    """Power-law fit amplitude = coefficient * period^exponent on >= 4 points.

    Least squares in log-log space; returns (exponent, coefficient,
    r_squared).  Periods or amplitudes that are not finite and positive, and
    points that do not span 2 distinct periods, are a domain error.
    """
    pts = [(check_number(T, name="period"), check_number(amp, name="amplitude"))
           for T, amp in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points for a scaling fit, got {len(pts)}")
    if len({T for T, _ in pts}) < 2:
        raise ValueError("a scaling fit needs at least 2 distinct periods")
    log_T = np.log([T for T, _ in pts])
    log_a = np.log([amp for _, amp in pts])
    exponent, intercept = np.polyfit(log_T, log_a, 1)
    fitted = exponent * log_T + intercept
    ss_res = float(np.sum((log_a - fitted) ** 2))
    ss_tot = float(np.sum((log_a - log_a.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(exponent), float(math.exp(intercept)), r_squared


@dataclass
class BoundTable:
    """Measured-versus-predicted cycle widths, one ``(label, report)`` row per converged run."""

    rows: list[tuple[str, LimitCycleReport]]

    def render(self) -> str:
        header = f"{'label':<16}{'amplitude':>12}{'coarse_bound':>14}{'tight_bound':>13}  ok"
        lines = [header]
        for label, r in self.rows:
            tight = f"{r.tight_bound:.6g}" if r.tight_bound is not None else "-"
            lines.append(
                f"{label:<16}{r.amplitude:>12.6g}{r.coarse_bound:>14.6g}"
                f"{tight:>13}  {'yes' if r.satisfied else 'NO'}"
            )
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("label,amplitude,coarse_bound,tight_bound,satisfied\n")
            for label, r in self.rows:
                tight = repr(float(r.tight_bound)) if r.tight_bound is not None else ""
                fh.write(
                    f"{label},{float(r.amplitude)!r},{float(r.coarse_bound)!r},"
                    f"{tight},{int(r.satisfied)}\n"
                )


def bound_comparison_table(reports, labels) -> BoundTable:
    """Tabulate measured amplitudes against their predicted bounds.

    All reports must be converged.  Empty input yields an empty table.
    """
    rows = []
    for label, report in zip(labels, reports):
        if not report.converged:
            raise ValueError(f"report {label!r} did not converge")
        rows.append((str(label), report))
    return BoundTable(rows=rows)


def build_report(traj: Trajectory, period: float, rate_bound: float, gains: Gains,
                 n: float = 0.5, tol: float | None = None) -> LimitCycleReport:
    """Full per-run measurement: convergence, amplitude, period, bounds, crossings.

    The amplitude is read over the records of the final period (steady
    state, :func:`final_periods`), the period estimated over those of the
    last five, or None where they resolve none (too few records, as at a
    few steps per period, or no periodicity).  Crossings are interpolated
    times, so they are counted over the final period's time span; those
    inside the boundary layer ``gains.delta`` are merged.
    """
    if tol is None:
        tol = default_tolerance(gains.delta)
    converged, start = stroboscopic_convergence(traj, period, tol)

    coarse = cycle_width_bound(gains.k2, rate_bound, n, period)
    tight = tight_width_bound(gains.k1, gains.k2, rate_bound, n, period)

    if not converged:
        return LimitCycleReport(
            converged=False, coarse_bound=coarse, tight_bound=tight, tolerance=tol,
        )

    amplitude = float(np.max(np.abs(traj.x1[final_periods(traj, period)])))

    tail = final_periods(traj, period, PERIOD_WINDOW_CYCLES)
    try:
        measured_period = estimate_period(traj.x1[tail], traj.dt)
    except (AperiodicSignalError, InsufficientDataError):  # e.g. too few steps per period
        measured_period = None

    crossings = detect_crossings(traj, gains.delta)
    t_end = float(traj.t[-1])
    per_cycle = sum(1 for tc, _ in crossings if t_end - period <= tc <= t_end)

    return LimitCycleReport(
        converged=True,
        cycle_start_time=start,
        measured_period=measured_period,
        amplitude=amplitude,
        coarse_bound=coarse,
        tight_bound=tight,
        crossings_per_period=per_cycle,
        tolerance=tol,
    )
