"""Virtual-motor and differentiator tests."""

import math

import numpy as np
import pytest

from twistlab import plant
from twistlab.analysis import estimate_period
from twistlab.dynamics import Gains, default_layer_width
from twistlab.integrator import IntegrationConfig
from twistlab.plant import MotorModel, _motor_loop, simulate_motor_loop
from twistlab.signals import (FrictionCoggingModel, MotionProfile,
                              constant_speed_characterization)
from twistlab.tuning import finite_time_gains

from _fields import rk4_solve, scalar_torque, twisting_law
from _reconstruct import reconstruct_disturbance, robust_differentiate

CALIBRATED = FrictionCoggingModel()
QUIET = FrictionCoggingModel(coulomb=0.0, steepness=100.0, viscous=0.0, harmonics=())
GENTLE = FrictionCoggingModel(coulomb=0.003, steepness=100.0, viscous=0.01)


def _run_with_states(monkeypatch, *args, **kwargs):
    """simulate_motor_loop plus the (theta, omega, z) records its motor loop returned."""
    calls = []
    loop = plant._motor_loop

    def capture(*loop_args):
        times, states = loop(*loop_args)
        calls.append(states)
        return times, states

    monkeypatch.setattr(plant, "_motor_loop", capture)
    traj = simulate_motor_loop(*args, **kwargs)
    (states,) = calls
    return traj, states


def test_robust_differentiate_sine():
    """Padded Lipschitz estimate: a thin margin over sup|d2f/dt2| tracks poorly."""
    dt = 1e-3
    t = np.arange(0.0, 3.0, dt)
    out = robust_differentiate(np.sin(t), dt, 2.0)
    tail = t >= 1.0
    assert np.max(np.abs(out[tail] - np.cos(t[tail]))) < 1e-2


def test_robust_differentiate_constant():
    dt = 1e-3
    out = robust_differentiate(np.full(2000, 0.7), dt, 1.0)
    assert np.max(np.abs(out[500:])) < 1e-3


def test_robust_differentiate_ramp():
    dt = 1e-4
    t = np.arange(0.0, 2.0, dt)
    out = robust_differentiate(2.0 * t, dt, 4.0)
    assert np.max(np.abs(out[len(t) // 2:] - 2.0)) < 1e-3


def test_motor_loop_finite_time_convergence():
    """No perturbation + finite-time gains drive the error into the layer.

    Cross-checked against a halved-step run of the same loop.
    """
    motor = MotorModel(friction_cogging=QUIET)
    reference = MotionProfile.constant_speed(10.0)
    gains = finite_time_gains(12.0, 1.1)
    results = []
    for spp in (2000, 4000):
        cfg = IntegrationConfig.for_period(2 * math.pi / 10.0, spp, 10)
        traj = simulate_motor_loop(motor, reference, gains, cfg, initial_error=1.0)
        results.append(traj.x1[-1])
        assert abs(traj.x1[-1]) < 10 * gains.delta
    assert abs(results[0] - results[1]) < gains.delta


def test_motor_loop_constant_speed_periodicity(monkeypatch):
    """Calibrated motor at omega_r = 18 settles on a cycle at the cogging period."""
    motor = MotorModel(friction_cogging=CALIBRATED)
    reference = MotionProfile.constant_speed(18.0)
    gains = Gains(0.9, 11.65, default_layer_width(0.2))
    _, T = constant_speed_characterization(CALIBRATED, 18.0)
    cfg = IntegrationConfig.for_period(T, 2000, 30)
    traj, states = _run_with_states(monkeypatch, motor, reference, gains, cfg)
    tail = traj.t >= traj.t[-1] - 5 * T
    period = estimate_period(traj.x1[tail], traj.dt)
    assert period == pytest.approx(T, rel=0.02)
    assert np.all(np.isfinite(traj.u))
    # converged loop keeps a bounded integral state
    assert np.max(np.abs(states[:, 2])) < 5.0


def test_motor_loop_sinusoidal_reference_periodicity():
    """Sinusoidal tracking at 2 Hz yields a steady error at the forcing period."""
    motor = MotorModel(friction_cogging=GENTLE)
    reference = MotionProfile.sinusoidal_velocity(2.0)
    gains = Gains(0.9, 19.65, default_layer_width(0.2))
    cfg = IntegrationConfig.for_period(0.5, 2000, 24)
    traj = simulate_motor_loop(motor, reference, gains, cfg)
    tail = traj.t >= traj.t[-1] - 5 * 0.5
    period = estimate_period(traj.x1[tail], traj.dt)
    assert period == pytest.approx(0.5, rel=0.02)


def test_motor_loop_records_consistent_channels(monkeypatch):
    """x2 = integral state + d, and x1 plus the reference speed is the rotor speed."""
    motor = MotorModel(friction_cogging=CALIBRATED)
    reference = MotionProfile.constant_speed(18.0)
    gains = Gains(0.9, 11.65)
    cfg = IntegrationConfig.for_period(2 * math.pi / 18.0, 2000, 12)
    traj, states = _run_with_states(monkeypatch, motor, reference, gains, cfg)
    assert np.allclose(traj.x2, states[:, 2] + traj.d)
    assert (traj.x1 + 18.0).tobytes() == states[:, 1].tobytes()

    # x1 = fl(omega - omega_r), so adding omega_r back rounds twice: within half
    # an ulp of x1 plus half an ulp of omega (0 on this run, as at constant speed)
    reference = MotionProfile.sinusoidal_velocity(4.0)
    cfg = IntegrationConfig.for_period(0.25, 400, 2)
    traj, states = _run_with_states(monkeypatch, MotorModel(friction_cogging=GENTLE),
                                    reference, Gains(0.9, 19.65), cfg)
    omega = states[:, 1]
    tolerance = 0.5 * (np.spacing(np.abs(traj.x1)) + np.spacing(np.abs(omega)))
    assert np.all(np.abs(traj.x1 + reference.omega(traj.t) - omega) <= tolerance)


def test_motor_loop_torque_is_law_plus_reference_acceleration(monkeypatch):
    """The recorded torque command is u + domega_r/dt, bit for bit."""
    motor = MotorModel(friction_cogging=GENTLE)
    reference = MotionProfile.sinusoidal_velocity(4.0)
    gains = Gains(0.9, 19.65, default_layer_width(0.2))
    cfg = IntegrationConfig.for_period(0.25, 400, 2)
    traj, states = _run_with_states(monkeypatch, motor, reference, gains, cfg)
    law = twisting_law(gains)
    z = states[:, 2]
    for i, t in enumerate(traj.t):
        u, _ = law(float(traj.x1[i]), float(z[i]), 0.0)
        assert traj.u[i] == u + float(reference.omega_dot(float(t)))


def test_encoder_and_noise_path_stays_bounded():
    motor = MotorModel(friction_cogging=CALIBRATED,
                       encoder_quantum=2 * math.pi / 2 ** 11,
                       velocity_window=16, noise_std=1e-3)
    reference = MotionProfile.constant_speed(18.0)
    gains = Gains(0.9, 11.65)
    cfg = IntegrationConfig.for_period(2 * math.pi / 18.0, 2000, 12)
    rng = np.random.default_rng(0)
    traj = simulate_motor_loop(motor, reference, gains, cfg, rng=rng)
    assert np.all(np.isfinite(traj.x1))
    assert np.max(np.abs(traj.x1[len(traj) // 2:])) < 1.0
    # the encoder and the noise reach the controller: the run is not the continuous loop's
    continuous = simulate_motor_loop(MotorModel(friction_cogging=CALIBRATED), reference,
                                     gains, cfg)
    assert not np.array_equal(traj.x1, continuous.x1)


def test_sampled_rotor_step_matches_rk4_solve():
    """The sampled loop's first step is twisting_law then a one-step rk4_solve, bit for bit."""
    rng = np.random.default_rng(23)
    models = (CALIBRATED, FrictionCoggingModel(coulomb=0.003, steepness=350.0, viscous=0.02,
                                               harmonics=((0.5, 0.0), (0.13, -0.8))))
    for _ in range(200):
        # magnitudes from 1e-6 to 50, so rounding inside the step is not absorbed by theta
        theta, omega, z = (rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-6.0, 1.7, 3)).tolist()
        dt = float(rng.uniform(1e-5, 1e-2))
        model = models[int(rng.integers(2))]
        gains = Gains(float(rng.uniform(0.1, 5.0)), float(rng.uniform(1.0, 30.0)),
                      float(rng.choice([1e-4, 0.05])))
        # the first step measures omega exactly; the error is 0, inside the layer or outside
        omega_r = omega - float(rng.choice([0.0, 0.5 * gains.delta, 0.3]))
        accel = float(rng.normal(0.0, 50.0))
        reference = MotionProfile(omega=lambda t: omega_r + 0.0 * t, theta=lambda t: 0.0 * t,
                                  omega_dot=lambda t: accel + 0.0 * t)
        _, states = _motor_loop(MotorModel(friction_cogging=model, encoder_quantum=1e-9),
                                reference, gains, IntegrationConfig(dt=dt, n_steps=1),
                                (theta, omega, z), None)
        u, dz = twisting_law(gains)(omega - omega_r, z, -0.0)
        u0 = u + accel
        torque = scalar_torque(model)

        def rotor(t, x):
            th, w = x
            return (w, u0 + torque(w, th))

        _, expected = rk4_solve(rotor, (theta, omega), 0.0, dt, 1)
        assert states[1, :2].tobytes() == expected[1].tobytes()
        assert states[1, 2] == z + dt * dz


@pytest.mark.parametrize("window", [1, 2, 5, 16])
def test_sampled_velocity_estimate_matches_sliding_list(window):
    """The sampled loop's ring of positions gives the sliding-list estimate, bit for bit.

    The reference keeps the last ``window + 1`` measured positions in a list
    and steps the rotor with a one-step ``rk4_solve``.
    """
    quantum, noise_std, dt = 1e-5, 1e-3, 1e-4
    motor = MotorModel(friction_cogging=CALIBRATED, encoder_quantum=quantum,
                       velocity_window=window, noise_std=noise_std)
    reference = MotionProfile.sinusoidal_velocity(4.0)
    gains = Gains(0.9, 19.65)
    cfg = IntegrationConfig(dt=dt, n_steps=300)
    x0 = (0.01, 4.5, 0.1)  # theta moves about 40 quanta a step
    _, states = _motor_loop(motor, reference, gains, cfg, x0, np.random.default_rng(5))

    law, torque = twisting_law(gains), scalar_torque(CALIBRATED)
    noise = (noise_std * np.random.default_rng(5).standard_normal(cfg.n_steps)).tolist()
    grid = np.arange(cfg.n_steps) * dt
    ref_omega, ref_accel = reference.omega(grid).tolist(), reference.omega_dot(grid).tolist()
    theta, omega, z = x0
    measured, expected = [], [x0]
    for k in range(cfg.n_steps):
        measured = (measured + [math.floor(theta / quantum) * quantum])[-(window + 1):]
        span = len(measured) - 1
        omega_meas = (measured[-1] - measured[0]) / (span * dt) if span else omega
        u, dz = law(omega_meas + noise[k] - ref_omega[k], z, -0.0)
        u0 = u + ref_accel[k]
        _, rotor = rk4_solve(lambda t, x: (x[1], u0 + torque(x[1], x[0])), (theta, omega),
                             0.0, dt, 1)
        theta, omega = rotor[1].tolist()
        z += dt * dz
        expected.append((theta, omega, z))
    assert states.tobytes() == np.array(expected).tobytes()


def test_a_velocity_window_past_the_run_reads_as_the_run():
    """No step looks back past step 0, so a window of n_steps or longer gives the same bits.

    10**19 does not fit the kernel's int64 window, and 2**63 - 1 leaves no
    room for the ring's one extra slot; neither may wrap.
    """
    period = 2 * math.pi / 18.0
    cfg = IntegrationConfig.for_period(period, steps_per_period=200, periods=10)
    records = [_motor_loop(MotorModel(encoder_quantum=1e-5, velocity_window=window),
                           MotionProfile.constant_speed(18.0), Gains(0.9, 11.65), cfg,
                           (0.0, 18.0, 0.0))[1].tobytes()
               for window in (cfg.n_steps, 10**19, 2**63 - 1)]
    assert records[1] == records[0] and records[2] == records[0]


def test_reconstruct_disturbance_accuracy():
    """Noiseless reconstruction recovers the recorded d within 2% RMS."""
    motor = MotorModel(friction_cogging=CALIBRATED)
    reference = MotionProfile.constant_speed(18.0)
    gains = Gains(0.9, 11.65, default_layer_width(0.2))
    _, T = constant_speed_characterization(CALIBRATED, 18.0)
    cfg = IntegrationConfig.for_period(T, 2000, 20)
    traj = simulate_motor_loop(motor, reference, gains, cfg)
    d_hat, q_hat = reconstruct_disturbance(traj, traj.x1 + 18.0, 50.0, 200.0)
    skip = len(traj) // 4
    err = d_hat[skip:] - traj.d[skip:]
    rel_rms = math.sqrt(np.mean(err ** 2) / np.mean(traj.d[skip:] ** 2))
    assert rel_rms < 0.02
    # reconstructed rate carries the forcing period
    period = estimate_period(q_hat[skip:], traj.dt)
    assert period == pytest.approx(T, rel=0.02)


def test_reconstruct_zero_perturbation():
    motor = MotorModel(friction_cogging=QUIET)
    reference = MotionProfile.constant_speed(10.0)
    gains = finite_time_gains(5.0, 1.1)
    cfg = IntegrationConfig.for_period(2 * math.pi / 10.0, 2000, 10)
    traj = simulate_motor_loop(motor, reference, gains, cfg, initial_error=0.1)
    d_hat, _ = reconstruct_disturbance(traj, traj.x1 + 10.0, 10.0)
    assert np.max(np.abs(d_hat[len(traj) // 2:])) < 0.05


def test_motor_model_validation():
    with pytest.raises(TypeError, match="inertia"):  # the loop is stated per unit inertia
        MotorModel(inertia=1.0)
    with pytest.raises(ValueError):
        MotorModel(encoder_quantum=-1.0)
    for window in (0, -1, 2.5, 4.0, True):
        with pytest.raises(ValueError, match="^velocity_window"):
            MotorModel(encoder_quantum=1e-5, velocity_window=window)
    for noise_std in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="^noise_std"):
            MotorModel(noise_std=noise_std)
