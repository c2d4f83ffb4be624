"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts; any assertion failure marks the criterion red.
"""

import math
import time

import numpy as np
import pytest

import twistlab as tl
from twistlab.tuning import AccuracySpec, optimize_gains

from _fields import loop_field, rk4_solve
from _reconstruct import reconstruct_disturbance

ETA = 0.2
DELTA = tl.default_layer_width(ETA)


def _report_line(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS  [{detail}]")


def _synthetic_run(gains, rate_amplitude, period, periods=30, spp=2000, x0=(0.0, 0.0)):
    w = 2 * math.pi / period
    cfg = tl.IntegrationConfig.for_period(period, spp, periods)
    return tl.integrate(gains, lambda t: rate_amplitude * np.sin(w * t), x0, cfg)


def test_criterion_1_gain_formulas():
    """Finite-time pair and accuracy-driven integral gains match the applied values."""
    gains = tl.finite_time_gains(12.0, 1.1)
    assert gains.k1 == pytest.approx(9.04, abs=0.01)
    assert gains.k2 == pytest.approx(13.2, abs=1e-12)

    k2_a = tl.tune_k2(0.9, AccuracySpec(eta=0.2, rate_bound=12.0, period=0.3125, n=0.5))
    k2_b = tl.tune_k2(0.9, AccuracySpec(eta=0.2, rate_bound=20.0, period=0.3125, n=0.5))
    assert k2_a == pytest.approx(11.650, abs=1e-3)
    assert k2_b == pytest.approx(19.650, abs=1e-3)
    _report_line("1 gain formulas",
                 f"k1={gains.k1:.4f} k2={gains.k2:.1f} k2_a={k2_a:.4f} k2_b={k2_b:.4f}")


def test_criterion_2_bound_row():
    """Width bound with (k2+L) = 24.5, n = 0.5 matches the frozen reference row."""
    frequencies = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
    expected = (3.063, 1.361, 0.766, 0.49, 0.34, 0.25, 0.191, 0.123)
    k2, rate_bound = 19.65, 4.85  # back-calibrated effective rate bound
    for f, target in zip(frequencies, expected):
        value = tl.cycle_width_bound(k2, rate_bound, 0.5, 1.0 / f)
        assert value == pytest.approx(target, abs=1e-3)
    _report_line("2 bound row", f"8 frequencies within ±0.001")


def test_criterion_3_constant_speed_limit_cycles():
    """12 calibrated constant-speed runs: convergence, period match, bounded width."""
    t_start = time.perf_counter()
    model = tl.FrictionCoggingModel()
    gains = tl.Gains(0.9, 11.65, DELTA)
    tol = max(10 * gains.delta, 1e-6)
    for omega_r in range(12, 24):
        L, T = tl.constant_speed_characterization(model, float(omega_r))
        profile = tl.MotionProfile.constant_speed(float(omega_r))
        motor = tl.MotorModel(friction_cogging=model)
        cfg = tl.IntegrationConfig.for_period(T, 2000, 40)
        traj = tl.simulate_motor_loop(motor, profile, gains, cfg)
        report = tl.build_report(traj, T, L, gains, n=0.5, tol=tol)
        assert report.converged, f"omega_r={omega_r} did not converge"
        assert report.measured_period == pytest.approx(T, rel=0.02), f"omega_r={omega_r}"
        bound = tl.cycle_width_bound(gains.k2, L, 0.5, T)
        assert report.amplitude <= bound, f"omega_r={omega_r}"
    _report_line("3 constant-speed cycles",
                 f"12 runs in {time.perf_counter() - t_start:.1f}s")


def test_criterion_4_quadratic_scaling():
    """Synthetic sweep: cycle width follows the square of the forcing period."""
    t_start = time.perf_counter()
    gains = tl.Gains(3.6, 6.0, 1e-5)  # under-tuned vs L=12, premise floor sqrt(12)=3.46
    points = []
    for period in (0.1, 0.2, 0.4, 0.8):
        traj = _synthetic_run(gains, 12.0, period)
        report = tl.build_report(traj, period, 12.0, gains)
        assert report.converged
        points.append((period, report.amplitude))
    exponent, _, r_squared = tl.scaling_fit(points)
    assert 1.6 <= exponent <= 2.4
    assert r_squared >= 0.95
    _report_line("4 quadratic scaling",
                 f"exponent={exponent:.3f} r2={r_squared:.4f} "
                 f"in {time.perf_counter() - t_start:.1f}s")


def test_criterion_5_accuracy_spec_closure():
    """20 randomized specs: optimizer gains keep the simulated width below eta.

    Every run starts at the origin x = (0, 0).  From other starts the same
    gains can settle on a larger cycle (criterion 5b).
    """
    t_start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    converged_count = 0
    for _ in range(20):
        L = rng.uniform(5.0, 25.0)
        T = rng.uniform(0.1, 0.6)
        eta = rng.uniform(0.05, 0.5)
        spec = AccuracySpec(eta=eta, rate_bound=L, period=T, n=0.5)
        gains = optimize_gains(spec, k1_max=0.9)
        traj = _synthetic_run(gains, L, T)
        report = tl.build_report(traj, T, L, gains)
        if report.converged:
            converged_count += 1
            worst = max(worst, report.amplitude / eta)
            assert report.amplitude <= eta, f"spec (L={L:.2f}, T={T:.2f}, eta={eta:.3f})"
    assert converged_count == 20
    _report_line("5 accuracy closure",
                 f"worst amplitude/eta={worst:.4f} in {time.perf_counter() - t_start:.1f}s")


def test_criterion_5b_tuned_loop_has_two_cycles():
    """L = 6, T = 2*pi/12, tune_k2 at eta = 0.05: a near-zero cycle and one above eta.

    From the origin the loop settles near 2.0e-4.  From x2(0) in
    {0.52, -0.52, 1.0} it settles on a cycle of period T with 2 crossings
    per period, whose amplitude 0.0821 exceeds eta and the tight bound but
    stays inside the coarse bound.
    """
    t_start = time.perf_counter()
    L, T, eta = 6.0, 2 * math.pi / 12, 0.05
    k2 = tl.tune_k2(0.9, AccuracySpec(eta=eta, rate_bound=L, period=T, n=0.5))
    assert k2 == pytest.approx(5.7347, abs=1e-4)
    gains = tl.Gains(0.9, k2, tl.default_layer_width(eta))

    small = tl.build_report(_synthetic_run(gains, L, T, periods=40), T, L, gains)
    assert small.converged
    assert small.amplitude == pytest.approx(2.02e-4, rel=0.01)

    for x2 in (0.52, -0.52, 1.0):
        report = tl.build_report(_synthetic_run(gains, L, T, periods=40, x0=(0.0, x2)),
                                 T, L, gains)
        assert report.converged, f"x2(0)={x2}"
        assert report.amplitude == pytest.approx(0.0821, rel=1e-3)
        assert report.crossings_per_period == 2
        assert report.measured_period == pytest.approx(0.521, abs=1e-3)
        assert report.tight_bound == pytest.approx(0.0405, rel=1e-9)
        assert max(eta, report.tight_bound) < report.amplitude < report.coarse_bound
        assert report.coarse_bound == pytest.approx(0.402, abs=1e-3)
    _report_line("5b two cycles",
                 f"amplitudes {small.amplitude:.3g} and {report.amplitude:.4g} "
                 f"in {time.perf_counter() - t_start:.1f}s")


def test_criterion_6_finite_time_regime():
    """Finite-time gains push the error into a 10-delta neighborhood within 5 s."""
    t_start = time.perf_counter()
    checked = 0
    for L, make_rate in (
        (12.0, lambda w: (lambda t: 12.0 * np.sin(w * t))),
        (12.0, lambda w: (lambda t: 7.0 * np.sin(w * t) + 5.0 * np.cos(3 * w * t))),
        (20.0, lambda w: (lambda t: 20.0 * np.sin(w * t + 0.7))),
    ):
        gains = tl.finite_time_gains(L, 1.1)
        period = 0.35
        w = 2 * math.pi / period
        dt = period / 2000
        n_steps = int(math.ceil(5.0 / dt))
        cfg = tl.IntegrationConfig(dt=dt, n_steps=n_steps)
        traj = tl.integrate(gains, make_rate(w), (1.0, 0.0), cfg)
        inside = np.abs(traj.x1) <= 10 * gains.delta
        assert inside[-1], f"L={L}: not inside the neighborhood at the horizon"
        outside = np.nonzero(~inside)[0]
        stay_from = traj.t[outside[-1] + 1] if outside.size else traj.t[0]
        assert stay_from < 5.0, f"L={L}: settled only at t={stay_from:.2f}s"
        checked += 1
    _report_line("6 finite-time sanity",
                 f"{checked} rate signals in {time.perf_counter() - t_start:.1f}s")


def test_criterion_7_disturbance_reconstruction():
    """From the recorded motor channels, a test-local differentiator recovers d and its period.

    d within 2% RMS; the rate estimate's period within 2% of T.
    """
    model = tl.FrictionCoggingModel()
    gains = tl.Gains(0.9, 11.65, DELTA)
    L, T = tl.constant_speed_characterization(model, 18.0)
    profile = tl.MotionProfile.constant_speed(18.0)
    motor = tl.MotorModel(friction_cogging=model)
    cfg = tl.IntegrationConfig.for_period(T, 2000, 20)
    traj = tl.simulate_motor_loop(motor, profile, gains, cfg)
    d_hat, q_hat = reconstruct_disturbance(traj, traj.x1 + 18.0, 50.0, 200.0)
    skip = len(traj) // 4
    rel_rms = math.sqrt(np.mean((d_hat[skip:] - traj.d[skip:]) ** 2)
                        / np.mean(traj.d[skip:] ** 2))
    assert rel_rms < 0.02
    period = tl.estimate_period(q_hat[skip:], traj.dt)
    assert period == pytest.approx(T, rel=0.02)
    _report_line("7 reconstruction", f"RMS={100 * rel_rms:.2f}% period={period:.4f}")


def test_criterion_8_numerics():
    """RK4 order ratio is 16 ± 3; the unforced loop scales with weights (2, 1)."""
    field = lambda t, x: (x[1], -x[0])
    exact = (math.cos(1.0), -math.sin(1.0))
    errors = []
    for n in (50, 100, 200):
        _, states = rk4_solve(field, (1.0, 0.0), 0.0, 1.0 / n, n)
        errors.append(math.hypot(states[-1, 0] - exact[0], states[-1, 1] - exact[1]))
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    assert ratios[0] == pytest.approx(16.0, abs=3.0)
    assert ratios[1] == pytest.approx(16.0, abs=3.0)

    # homogeneity: x1 scales by lambda^2 and x2 by lambda under time dilation;
    # the layer width carries weight 2, so it scales with lambda^2 as well
    k1, k2 = 0.9, 11.65
    horizon, n = 0.25, 4000
    dt = horizon / n
    base_delta = 1e-10
    zero_rate = lambda t: 0.0
    _, base = rk4_solve(loop_field(tl.Gains(k1, k2, base_delta), zero_rate),
                        (1.0, 0.0), 0.0, dt, n)
    _, half_step = rk4_solve(loop_field(tl.Gains(k1, k2, base_delta), zero_rate),
                             (1.0, 0.0), 0.0, dt / 2, 2 * n)
    tol = np.max(np.abs(base - half_step[::2]))
    for lam in (0.5, 2.0):
        scaled_gains = tl.Gains(k1, k2, base_delta * lam ** 2)
        n_scaled = int(round(lam * n))
        _, scaled = rk4_solve(loop_field(scaled_gains, zero_rate),
                              (lam ** 2, 0.0), 0.0, dt, n_scaled)
        if lam == 2.0:
            idx_base = np.arange(0, n + 1)
            idx_scaled = 2 * idx_base
        else:
            idx_base = np.arange(0, n + 1, 2)
            idx_scaled = idx_base // 2
        mismatch = max(
            np.max(np.abs(scaled[idx_scaled, 0] - lam ** 2 * base[idx_base, 0])),
            np.max(np.abs(scaled[idx_scaled, 1] - lam * base[idx_base, 1])),
        )
        assert mismatch <= 10 * tol, f"lambda={lam}: {mismatch} > {10 * tol}"
    _report_line("8 numerics", f"order ratios {ratios[0]:.2f}/{ratios[1]:.2f}")


#: homogeneity weights of the channels t, x1, x2, u, d, q
WEIGHTS = {"t": 1, "x1": 2, "x2": 1, "u": 1, "d": 1, "q": 0}


def _forced_run(lam):
    """The forced loop with (L, lambda*T, lambda^2*delta, (lambda^2*x1, lambda*x2)) through
    ``run_scenario``: the base run stretched in time by lambda, with weights ``WEIGHTS``."""
    L, T, delta, (x1, x2) = 12.0, 0.3, 1e-4, (0.01, -0.2)
    cfg = tl.ScenarioConfig.from_dict({
        "schema_version": 1,
        "scenario": "synthetic_q",
        "parameters": {"cases": [[L, lam * T]], "phase": 0.3},
        "gains": {"source": "explicit", "k1": 3.6, "k2": 6.0, "delta": lam ** 2 * delta},
        "initial": {"x1": lam ** 2 * x1, "x2": lam * x2},
        "integration": {"steps_per_period": 1000, "periods": 12},
    })
    (result,) = tl.run_scenario(cfg)
    assert result.error is None
    return result


def test_criterion_8_forced_loop_homogeneity():
    """The forced loop scaled by lambda is the base run stretched in time by lambda, and for
    powers of two the match is exact."""
    base = _forced_run(1.0)
    for lam in (0.5, 2.0, 4.0):
        scaled = _forced_run(lam)
        for channel, weight in WEIGHTS.items():
            np.testing.assert_array_equal(getattr(scaled.trajectory, channel),
                                          lam ** weight * getattr(base.trajectory, channel),
                                          err_msg=f"lambda={lam}: {channel}")
        assert scaled.report.amplitude == lam ** 2 * base.report.amplitude
    _report_line("8 forced homogeneity",
                 f"exact for lambda in (0.5, 2, 4); amplitude {base.report.amplitude:.4g}")


@pytest.mark.parametrize("lam", [0.75, 1.7, 3.0])
def test_criterion_8_forced_loop_homogeneity_off_powers_of_two(lam):
    """Off powers of two, rounding enters: each channel matches to 1e-12 of its peak."""
    base, scaled = _forced_run(1.0), _forced_run(lam)
    worst = 0.0
    for channel, weight in WEIGHTS.items():
        expected = lam ** weight * getattr(base.trajectory, channel)
        error = np.max(np.abs(getattr(scaled.trajectory, channel) - expected))
        relative = error / np.max(np.abs(expected))
        assert relative <= 1e-12, f"lambda={lam}: {channel} off by {relative:.3g} of its peak"
        worst = max(worst, relative)
    assert scaled.report.amplitude == pytest.approx(lam ** 2 * base.report.amplitude, rel=1e-12)
    _report_line("8 forced homogeneity", f"lambda={lam}: worst channel error {worst:.2g} of peak")
