"""Perturbation-model unit tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from twistlab.signals import (FrictionCoggingModel, MotionProfile,
                              SinusoidPerturbation, TWO_PI, bound_L,
                              constant_speed_characterization, eval_q)

from _fields import scalar_torque

CALIBRATED = FrictionCoggingModel()  # coulomb 0.4, steepness 100, viscous 0.01, one 0.5 N*m harmonic


def eval_d(model, profile, t):
    """Disturbance torque along a motion profile."""
    return model.torque(profile.omega(t), profile.theta(t))


def test_eval_d_vanishes_at_rest():
    profile = MotionProfile.constant_speed(0.0)
    model = FrictionCoggingModel(harmonics=((0.3, 0.0), (0.1, 0.0)))
    assert eval_d(model, profile, 0.0) == 0.0


def test_eval_d_arctan_saturation():
    """For large speed and no harmonics, d approaches coulomb + viscous*omega."""
    model = FrictionCoggingModel(coulomb=1.0, steepness=100.0, viscous=0.01, harmonics=())
    profile = MotionProfile.constant_speed(1e6)
    assert eval_d(model, profile, 0.0) == pytest.approx(1.0 + 0.01 * 1e6, rel=1e-7)


def test_eval_d_hand_value():
    """Frozen hand evaluation: (2/pi)atan(1000) + 0.1 + 0.3 at theta = pi/2."""
    model = FrictionCoggingModel(coulomb=1.0, steepness=100.0, viscous=0.01,
                                 harmonics=((0.3, 0.0),))
    profile = MotionProfile(omega=lambda t: 10.0, theta=lambda t: math.pi / 2,
                            omega_dot=lambda t: 0.0)
    assert eval_d(model, profile, 0.0) == pytest.approx(1.399363380439839, abs=1e-12)


def test_eval_q_constant_speed_reduction():
    """At constant speed only the cogging rate survives: omega_r * sum F cos."""
    omega_r = 18.0
    profile = MotionProfile.constant_speed(omega_r)
    model = FrictionCoggingModel(harmonics=((0.5, 0.3), (0.2, -1.0)))
    for t in (0.0, 0.013, 0.27, 1.9):
        expected = omega_r * (0.5 * math.cos(omega_r * t + 0.3)
                              + 0.2 * math.cos(omega_r * t - 1.0))
        assert eval_q(model, profile, t) == pytest.approx(expected, abs=1e-12)


def test_eval_q_zero_velocity_reduction():
    """At zero speed and acceleration a, the friction rate peaks at a*(2*Tc*alpha/pi + beta)."""
    a = 100.0
    model = FrictionCoggingModel(coulomb=0.4, steepness=100.0, viscous=0.01)
    profile = MotionProfile(omega=lambda t: 0.0, theta=lambda t: 0.0,
                            omega_dot=lambda t: a)
    expected = a * (2.0 * 0.4 * 100.0 / math.pi + 0.01)
    assert eval_q(model, profile, 0.0) == pytest.approx(expected, rel=1e-12)


def test_eval_q_matches_central_difference():
    """q equals the central difference of d to O(h^2) along a smooth motion."""
    profile = MotionProfile.sinusoidal_velocity(2.0)
    h = 1e-6
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.0, 2.0)
        fd = (eval_d(CALIBRATED, profile, t + h) - eval_d(CALIBRATED, profile, t - h)) / (2 * h)
        assert eval_q(CALIBRATED, profile, t) == pytest.approx(fd, abs=1e-5, rel=1e-6)


def test_d_is_periodic_along_periodic_profiles():
    for profile, period in ((MotionProfile.constant_speed(18.0), TWO_PI / 18.0),
                            (MotionProfile.sinusoidal_velocity(2.0), 0.5)):
        for t in np.linspace(0.0, 2.0, 41):
            assert abs(eval_d(CALIBRATED, profile, t + period)
                       - eval_d(CALIBRATED, profile, t)) < 1e-9


def test_bound_L_sinusoid():
    T = 0.44
    pert = SinusoidPerturbation(8.0, T)
    assert bound_L(pert.q, T) == pytest.approx(8.0, rel=1e-3)


def test_bound_L_constant_speed_formula():
    omega_r = 18.0
    profile = MotionProfile.constant_speed(omega_r)
    _, T = constant_speed_characterization(CALIBRATED, omega_r)
    L = bound_L(lambda t: eval_q(CALIBRATED, profile, t), T)
    assert L == pytest.approx(9.0, rel=1e-4)


def test_bound_L_calibrated_range():
    """Calibrated model stays in the 8-12 N*m/s window over the fast set-points."""
    for omega_r in range(16, 24):
        profile = MotionProfile.constant_speed(float(omega_r))
        _, T = constant_speed_characterization(CALIBRATED, float(omega_r))
        L = bound_L(lambda t: eval_q(CALIBRATED, profile, t), T)
        assert 8.0 <= L <= 12.0


def test_bound_L_dominates_samples():
    """The bound is an upper envelope on a fresh random grid."""
    T = 0.37
    profile = MotionProfile.constant_speed(TWO_PI / T)
    q = lambda t: eval_q(CALIBRATED, profile, t)
    L = bound_L(q, T)
    rng = np.random.default_rng(17)
    assert np.all(np.abs(q(rng.uniform(0.0, 5.0, size=300))) <= L * (1 + 1e-12))


def test_bound_L_rejects_non_finite():
    with pytest.raises(ValueError):
        bound_L(lambda t: np.where(t > 0.1, np.inf, 0.0), 1.0)



def _scalar_bound_L(q, period):
    """bound_L as it sampled q before it took an array callable: one float call per time."""
    t = np.linspace(0.0, period, 10000, endpoint=False)
    values = np.abs(np.asarray([float(q(ti)) for ti in t]))
    k = int(np.argmax(values))
    spacing = period / 10000
    fine = np.linspace(t[k] - spacing, t[k] + spacing, 1001)
    return float(max(values[k], np.abs(np.asarray([float(q(ti)) for ti in fine])).max()))


def test_bound_L_array_call_matches_scalar_sampling():
    """Sampling q on whole arrays gives exactly the bound of one scalar call per sample."""
    gentle = FrictionCoggingModel(coulomb=0.003, steepness=100.0, viscous=0.01)
    cases = [(lambda t, f=f, m=m: eval_q(m, MotionProfile.sinusoidal_velocity(f), t), 1.0 / f)
             for m, freqs in ((gentle, (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)), (CALIBRATED, (2.0, 8.0)))
             for f in freqs]
    cases.append((lambda t: eval_q(CALIBRATED, MotionProfile.constant_speed(18.0), t),
                  TWO_PI / 18.0))
    cases.append((SinusoidPerturbation(8.0, 0.44, phase=0.3).q, 0.44))
    for q, period in cases:
        assert bound_L(q, period) == _scalar_bound_L(q, period)
    assert bound_L(lambda t: -3.7, 1.3) == 3.7  # a constant broadcasts over the samples


def test_scalar_torque_is_torque_wherever_the_atans_agree():
    """The motor kernel's reference torque (libm's atan and sin) is the numpy torque.

    Bit for bit, signed zeros too, wherever ``math.atan`` and ``np.arctan``
    round ``steepness * omega`` alike; elsewhere only the atan term's last
    bit moves the sum.
    """
    omegas = [0.0, -0.0, 5e-324, -1e-300, 1e-6, -3e-3, 0.01, -0.5, 1.0, 7.25, -18.0,
              23.0, 1e3, -4.4e4, 1e8, -1e300]
    thetas = [0.0, -0.0, 1e-300, 0.3, -1.7, math.pi, 12.5, -250.0, 1e5, -3e7]
    rng = np.random.default_rng(11)
    omegas += (rng.standard_normal(150) * 30.0).tolist()
    thetas += rng.uniform(-1e3, 1e3, 150).tolist()
    # math.atan rounds these three differently from np.arctan on some platforms (steepness 1)
    omegas += [0.28585315191874305, -1.2969441221999225, 7.902235856800126]
    models = [CALIBRATED, FrictionCoggingModel(steepness=1.0, harmonics=()),
              FrictionCoggingModel(coulomb=0.003, steepness=350.0, viscous=0.02,
                                   harmonics=((0.5, 0.0), (0.13, -0.8)))]
    for model in models:
        torque = scalar_torque(model)
        for omega in omegas:
            x = model.steepness * omega
            same_atan = math.atan(x) == float(np.arctan(x))
            # one ulp of the atan term, carried through the later sums
            slack = 4 * math.ulp(model.coulomb + abs(model.viscous * omega)
                                 + sum(abs(a) for a, _ in model.harmonics))
            for theta in thetas:
                actual, expected = torque(omega, theta), float(model.torque(omega, theta))
                if same_atan:
                    assert repr(actual) == repr(expected)
                else:
                    assert abs(actual - expected) <= slack


def _period_mean(q, T):
    """Mean of q over [0, T] by adaptive quadrature."""
    integral, _ = quad(q, 0.0, T, epsrel=1e-10, epsabs=1e-12, limit=500)
    return integral / T


def test_mean_rate():
    """Every rate is the derivative of a T-periodic disturbance, so its period mean is 0.

    This is why the averaged-loop conditions are evaluated at mean rate 0.
    """
    T = 0.3
    pert = SinusoidPerturbation(12.0, T)
    assert abs(_period_mean(lambda t: float(pert.q(t)), T)) < 1e-9
    assert _period_mean(lambda t: 3.7, 1.3) == pytest.approx(3.7, rel=1e-9)
    phased = SinusoidPerturbation(12.0, T, phase=0.7)
    assert abs(_period_mean(lambda t: float(phased.q(t)), T)) < 1e-9
    reversal = MotionProfile.sinusoidal_velocity(4.0)
    assert abs(_period_mean(lambda t: float(eval_q(CALIBRATED, reversal, t)), 0.25)) < 1e-9


def test_mean_rate_cogging_is_zero():
    omega_r = 18.0
    profile = MotionProfile.constant_speed(omega_r)
    _, T = constant_speed_characterization(CALIBRATED, omega_r)
    mean = _period_mean(lambda t: float(eval_q(CALIBRATED, profile, t)), T)
    assert abs(mean) < 1e-9


def test_constant_speed_characterization():
    model = FrictionCoggingModel(harmonics=((1.0, 0.0),))
    assert constant_speed_characterization(model, 12.0) == (
        pytest.approx(12.0), pytest.approx(0.5235987755982988))
    L, T = constant_speed_characterization(CALIBRATED, 18.0)
    assert (L, T) == (pytest.approx(9.0), pytest.approx(0.3490658503988659))


@pytest.mark.parametrize("harmonics", [
    ((0.5, 0.0),),
    ((0.5, 0.0), (-0.5, math.pi)),      # opposite signs and phases add: 1.0, not 0
    ((0.5, 0.0), (0.3, math.pi)),       # opposite phases cancel: 0.2, not 0.8
    ((0.5, 0.0), (0.13, -0.8)),
    ((0.2, 1.1), (0.2, -2.3), (0.05, 0.4)),
    ((0.5, 0.0), (-0.5, 0.0)),
    (),
])
def test_constant_speed_rate_bound_is_the_sup_of_the_rate(harmonics):
    """L is the sup of |q| at constant speed: the cogging harmonics add as phasors."""
    model = FrictionCoggingModel(harmonics=harmonics)
    for omega_r in (18.0, -12.5):
        L, T = constant_speed_characterization(model, omega_r)
        profile = MotionProfile.constant_speed(omega_r)
        assert L == pytest.approx(bound_L(lambda t: eval_q(model, profile, t), T),
                                  rel=1e-9, abs=1e-12)
    L, T = constant_speed_characterization(CALIBRATED, 23.0)
    assert (L, T) == (pytest.approx(11.5), pytest.approx(0.2731819698773733))
    with pytest.raises(ValueError):
        constant_speed_characterization(CALIBRATED, 0.0)


def test_sinusoid_perturbation_d_integrates_q():
    pert = SinusoidPerturbation(5.0, 0.8, phase=0.4)
    assert pert.d(0.0) == pytest.approx(0.0, abs=1e-15)
    h = 1e-6
    for t in (0.1, 0.33, 0.77):
        fd = (pert.d(t + h) - pert.d(t - h)) / (2 * h)
        assert fd == pytest.approx(float(pert.q(t)), abs=1e-6)
    with pytest.raises(ValueError):
        SinusoidPerturbation(1.0, 0.0)


def _consistency_error(profile: MotionProfile, t_end: float) -> float:
    """Max |theta(t) - theta(0) - integral(omega)| over [0, t_end], by cumulative trapezoids."""
    t = np.linspace(0.0, t_end, 2001)
    w = np.asarray([float(profile.omega(ti)) for ti in t])
    th = np.asarray([float(profile.theta(ti)) for ti in t])
    dt = t[1] - t[0]
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)))
    return float(np.max(np.abs(th - th[0] - integral)))


def test_motion_profiles_are_consistent():
    """theta must integrate omega for both reference families."""
    assert _consistency_error(MotionProfile.constant_speed(18.0), 1.0) < 1e-9
    assert _consistency_error(MotionProfile.sinusoidal_velocity(2.0), 1.0) < 1e-5


def test_friction_model_validation():
    with pytest.raises(ValueError):
        FrictionCoggingModel(steepness=0.0)
    with pytest.raises(ValueError):
        FrictionCoggingModel(coulomb=-1.0)
    # non-finite values are rejected, and each message opens with the field name
    for kwargs in ({"viscous": math.nan}, {"steepness": math.inf}, {"coulomb": -math.inf},
                   {"harmonics": ((math.nan, 0.0),)}, {"harmonics": ((0.5, math.inf),)}):
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"^{name} "):
            FrictionCoggingModel(**kwargs)
