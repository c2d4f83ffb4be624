"""Limit-cycle measurement tests."""

import math

import numpy as np
import pytest

from twistlab.analysis import (AperiodicSignalError, InsufficientDataError,
                               LimitCycleReport, bound_comparison_table,
                               build_report, default_tolerance, estimate_period,
                               final_periods, scaling_fit,
                               stroboscopic_convergence)
from twistlab.dynamics import Gains
from twistlab.integrator import IntegrationConfig, Trajectory, integrate

from _fields import solve_trajectory


def _synthetic(period=0.25, periods=12, spp=200, amplitude=1.0, drift=0.0):
    """Trajectory with x1 = A sin(2 pi t / T) and optional secular drift in x2."""
    n = periods * spp
    t = np.arange(n + 1) * (period / spp)
    x1 = amplitude * np.sin(2 * math.pi * t / period)
    x2 = amplitude * np.cos(2 * math.pi * t / period) + drift * t
    zeros = np.zeros_like(t)
    return Trajectory(x1=x1, x2=x2, u=zeros.copy(), d=zeros.copy(), q=zeros.copy(),
                      dt=period / spp)


def test_stroboscopic_converged_periodic():
    traj = _synthetic()
    converged, start = stroboscopic_convergence(traj, 0.25, tol=1e-9)
    assert converged
    assert start == pytest.approx(0.0)


def test_stroboscopic_detects_drift():
    """An x2 that integrates a nonzero mean rate never settles."""
    traj = _synthetic(drift=1.0)
    converged, start = stroboscopic_convergence(traj, 0.25, tol=1e-6)
    assert not converged
    assert start is None


def test_stroboscopic_divergent_zero_gain_loop():
    """With no feedback, x2 integrates the nonzero-mean rate and escapes."""
    T = 0.25
    w = 2 * math.pi / T
    cfg = IntegrationConfig.for_period(T, 200, 12)
    traj = solve_trajectory(lambda t, x: (x[1], 1.0 + math.sin(w * t)), (0.0, 0.0), cfg)
    converged, start = stroboscopic_convergence(traj, T, tol=1e-3)
    assert not converged and start is None


def test_stroboscopic_needs_ten_periods():
    traj = _synthetic(periods=8)
    with pytest.raises(InsufficientDataError):
        stroboscopic_convergence(traj, 0.25, tol=1e-6)


def test_stroboscopic_needs_alignment():
    traj = _synthetic()
    with pytest.raises(ValueError):
        stroboscopic_convergence(traj, 0.2501, tol=1e-6)


def test_cycle_amplitude_sine():
    traj = _synthetic(amplitude=2.7)
    assert np.max(np.abs(traj.x1[final_periods(traj, 0.25)])) == pytest.approx(2.7, rel=1e-3)


def test_final_periods_is_the_last_count_periods_of_records():
    traj = _synthetic(periods=12, spp=200)
    for count in (1, 5, 12):
        window = final_periods(traj, 0.25, count)
        assert window.stop == len(traj) and window.stop - window.start == count * 200 + 1
    with pytest.raises(InsufficientDataError):
        final_periods(traj, 0.25, 13)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, True, "abc"])
def test_a_strobe_tolerance_must_be_a_finite_number_above_0(tol):
    """A tolerance no gap can pass, or every gap passes, fails by name instead of reading a verdict."""
    traj = _synthetic()
    with pytest.raises(ValueError, match="^tol must be a finite number > 0"):
        stroboscopic_convergence(traj, 0.25, tol)
    with pytest.raises(ValueError, match="^tol must be a finite number > 0"):
        build_report(traj, 0.25, 1.0, Gains(0.9, 2.0), tol=tol)


@pytest.mark.parametrize("count", [0, -1, 2.5, True, 1.0])
def test_final_periods_count_must_be_an_integer_of_at_least_1(count):
    with pytest.raises(ValueError, match="^count must be an integer >= 1"):
        final_periods(_synthetic(), 0.25, count)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, True])
def test_estimate_period_dt_must_be_a_finite_number_above_0(dt):
    samples = np.sin(2 * math.pi * np.arange(3000) / 349)
    with pytest.raises(ValueError, match="^dt must be a finite number > 0"):
        estimate_period(samples, dt)


def test_estimate_period_sine():
    dt = 1e-3
    t = np.arange(0, 3.0, dt)
    period = estimate_period(np.sin(2 * math.pi * t / 0.349), dt)
    assert period == pytest.approx(0.349, rel=0.01)


def test_estimate_period_rejects_noise():
    rng = np.random.default_rng(23)
    with pytest.raises(AperiodicSignalError):
        estimate_period(rng.standard_normal(4000), 1e-3)


def test_estimate_period_rejects_constant():
    with pytest.raises(AperiodicSignalError):
        estimate_period(np.ones(1000), 1e-3)


def test_estimate_period_rejects_short_and_non_finite_signals():
    with pytest.raises(InsufficientDataError, match="at least 8 samples"):
        estimate_period(np.arange(7.0), 1e-3)
    # a ramp's autocorrelation first turns non-positive at lag 3, past half of 8 samples
    with pytest.raises(AperiodicSignalError, match="window too short"):
        estimate_period(np.arange(8.0), 1e-3)
    t = np.arange(100.0)
    for bad, count in ((np.nan, 1), (np.inf, 2), (-np.inf, 1)):
        samples = np.sin(t)
        samples[7::50][:count] = bad
        with pytest.raises(AperiodicSignalError, match=f"^{count} of 100 samples are not finite"):
            estimate_period(samples, 1e-3)
    with pytest.raises(AperiodicSignalError, match="^100 of 100 samples are not finite"):
        estimate_period(np.full(100, np.nan), 1e-3)
    # finite samples whose mean or power overflows
    for samples in (np.full(100, 1e308), 1e200 * np.sin(t), np.repeat([1e308, -1e308], 50)):
        with pytest.raises(AperiodicSignalError, match="power overflows"):
            estimate_period(samples, 1e-3)


def test_scaling_fit_quadratic_row():
    """Points generated as 3.0625 / f^2 recover exponent 2 and the coefficient."""
    points = [(1.0 / f, 3.0625 / f ** 2) for f in (1.0, 1.5, 2.0, 2.5)]
    exponent, coefficient, r2 = scaling_fit(points)
    assert exponent == pytest.approx(2.0, abs=1e-9)
    assert coefficient == pytest.approx(3.0625, rel=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_constant():
    points = [(T, 0.4) for T in (0.1, 0.2, 0.4, 0.8)]
    exponent, coefficient, _ = scaling_fit(points)
    assert exponent == pytest.approx(0.0, abs=1e-12)
    assert coefficient == pytest.approx(0.4)


def test_scaling_fit_domain_errors():
    with pytest.raises(ValueError):
        scaling_fit([(0.1, 1.0), (0.2, 2.0), (0.4, 3.0)])  # too few
    with pytest.raises(ValueError):
        scaling_fit([(0.1, 1.0), (0.2, -2.0), (0.4, 3.0), (0.8, 4.0)])
    with pytest.raises(ValueError, match="distinct periods"):
        scaling_fit([(0.2, 0.1), (0.2, 0.2), (0.2, 0.3), (0.2, 0.4)])  # one period


def test_bound_table():
    reports = [
        LimitCycleReport(converged=True, amplitude=0.1, coarse_bound=0.5, tight_bound=0.2),
        LimitCycleReport(converged=True, amplitude=0.7, coarse_bound=0.5, tight_bound=None),
    ]
    table = bound_comparison_table(reports, ["a", "b"])
    assert table.rows == list(zip(["a", "b"], reports))
    assert [report.satisfied for _, report in table.rows] == [True, False]
    assert "NO" in table.render()
    assert bound_comparison_table([], []).rows == []
    with pytest.raises(ValueError):
        bound_comparison_table([LimitCycleReport(converged=False)], ["c"])


def test_bound_table_csv(tmp_path):
    table = bound_comparison_table(
        [LimitCycleReport(converged=True, amplitude=0.1, coarse_bound=0.5, tight_bound=0.2)],
        ["run"])
    path = tmp_path / "bounds.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,amplitude,coarse_bound,tight_bound,satisfied"
    assert lines[1].startswith("run,0.1,0.5,0.2,1")


def test_report_validation():
    with pytest.raises(ValueError):
        LimitCycleReport(converged=True, amplitude=-0.1)
    with pytest.raises(ValueError):
        LimitCycleReport(converged=True, measured_period=0.0)


def test_report_satisfied():
    """The run's verdict: converged, and no wider than the coarse bound."""
    assert LimitCycleReport(converged=True, amplitude=0.5, coarse_bound=0.5).satisfied
    assert not LimitCycleReport(converged=True, amplitude=0.6, coarse_bound=0.5).satisfied
    assert not LimitCycleReport(converged=False, coarse_bound=0.5).satisfied


def test_default_tolerance():
    assert default_tolerance(1e-4) == pytest.approx(1e-3)
    assert default_tolerance(1e-9) == pytest.approx(1e-6)


def test_build_report_on_under_tuned_run():
    """End-to-end measurement of a genuinely under-tuned loop."""
    gains = Gains(k1=3.6, k2=6.0, delta=1e-5)
    L, T = 12.0, 0.4
    w = 2 * math.pi / T
    cfg = IntegrationConfig.for_period(T, 2000, 25)
    traj = integrate(gains, lambda t: L * np.sin(w * t), (0.0, 0.0), cfg)
    report = build_report(traj, T, L, gains)
    assert report.converged
    assert report.amplitude <= report.coarse_bound
    assert report.measured_period == pytest.approx(T, rel=0.02)
    assert report.crossings_per_period % 2 == 0

    # amplitude is stable across successive steady-state periods
    tol = default_tolerance(gains.delta)
    # the first period of the last k, so period k from the end
    amplitudes = [np.max(np.abs(traj.x1[final_periods(traj, T, k)][:2001])) for k in (1, 2, 3)]
    assert max(amplitudes) - min(amplitudes) < tol

    # crossing count is even and stable across successive periods
    from twistlab.integrator import detect_crossings
    crossings = detect_crossings(traj, gains.delta)
    counts = []
    for k in (1, 2, 3):
        lo, hi = traj.t[-1] - k * T, traj.t[-1] - (k - 1) * T
        counts.append(sum(1 for tc, _ in crossings if lo <= tc < hi))
    assert len(set(counts)) == 1
    assert counts[0] % 2 == 0
