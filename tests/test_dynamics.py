"""Control-law, vector-field and number-check unit tests."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from twistlab.analysis import LimitCycleReport, scaling_fit
from twistlab.dynamics import (DEFAULT_DELTA, Gains, check_number, default_layer_width,
                               saturation, twisting_action)
from twistlab.integrator import IntegrationConfig, integrate
from twistlab.plant import MotorModel
from twistlab.runner import ScenarioConfig, run_scenario
from twistlab.signals import (FrictionCoggingModel, MotionProfile, SinusoidPerturbation,
                              bound_L, constant_speed_characterization)
from twistlab.tuning import (AccuracySpec, cycle_width_bound, finite_time_gains,
                             optimize_gains, tight_width_bound, tune_k2)

from _fields import twisting_law

GAINS = Gains(k1=0.9, k2=11.65, delta=1e-4)
LAW = twisting_law(GAINS)


class NearSingularityError(ValueError):
    """Phase-form evaluation requested too close to the w1 = 0 axis."""


@dataclass(frozen=True)
class PhaseState:
    """Phase-plane state: error w1 and error rate w2."""

    w1: float
    w2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise ValueError("phase state must be finite")


def eval_phase(state: PhaseState, gains: Gains, q_at_t: float) -> tuple[float, float]:
    """Phase-coordinate form (w1, w2) = (x1, dx1/dt) of the loop; singular at w1 = 0.

    dw1 = w2
    dw2 = -(k1/2)*|w1|^(-1/2)*w2 - k2*sgn(w1) + q(t)

    An independent form of the discontinuous loop that the simulated
    (x1, x2) trajectories are cross-checked against.
    """
    if abs(state.w1) < 1e-9:
        raise NearSingularityError(
            f"|w1| = {abs(state.w1)} is below the singularity floor 1e-09"
        )
    dw1 = state.w2
    dw2 = (-0.5 * gains.k1 * state.w2 / math.sqrt(abs(state.w1))
           - gains.k2 * float(np.sign(state.w1)) + q_at_t)
    return dw1, dw2


def test_saturation_examples():
    """Interior slope, saturation, and the exact boundary point."""
    assert saturation(0.5, 1.0) == 0.5
    assert saturation(2.0, 1.0) == 1.0
    assert saturation(-0.5, 0.5) == -1.0


def test_saturation_rejects_bad_delta():
    with pytest.raises(ValueError):
        saturation(0.1, 0.0)
    with pytest.raises(ValueError):
        saturation(0.1, -1e-3)


def test_saturation_properties():
    """Odd, non-decreasing, bounded by 1, equals sgn outside the layer."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        delta = rng.uniform(1e-6, 2.0)
        q = rng.uniform(-5.0, 5.0)
        s = saturation(q, delta)
        assert -1.0 <= s <= 1.0
        assert saturation(-q, delta) == -s
        if abs(q) >= delta:
            assert s == np.sign(q)
    grid = np.linspace(-3.0, 3.0, 301)
    values = saturation(grid, 0.7)
    assert np.all(np.diff(values) >= 0.0)


def test_control_action_examples():
    assert twisting_action(0.0, 0.0, GAINS) == 0.0
    assert twisting_action(1.0, 0.0, GAINS) == pytest.approx(-0.9)
    assert twisting_action(4.0, 1.0, GAINS) == pytest.approx(-0.8)
    assert LAW(4.0, 1.0, 0.0)[0] == pytest.approx(-0.8)


def test_twisting_law_examples():
    assert LAW(0.0, 0.0, 0.0) == (0.0, 0.0)
    dx1, dx2 = LAW(1.0, 0.0, 0.0)
    assert dx1 == pytest.approx(-0.9)
    assert dx2 == pytest.approx(-11.65)
    # interior of the boundary layer: saturation at one half
    delta = GAINS.delta
    L = 12.0
    dx1, dx2 = LAW(delta / 2, 1.0, L)
    assert dx1 == pytest.approx(-0.9 * math.sqrt(delta / 2) * 0.5 + 1.0)
    assert dx2 == pytest.approx(-0.5 * 11.65 + L)


def test_scalar_and_array_laws_are_bit_identical():
    """twisting_law's u equals twisting_action's, and its dz uses the same saturation.

    The grid covers both zeros, the layer edges, the layer interior and
    values far outside it, where rounding of x1/delta matters most.
    """
    delta = GAINS.delta
    edges = [0.0, delta, delta / 2, delta * (1 - 1e-16), delta * (1 + 1e-15),
             delta / 3, 1e-300, 5e-324, 0.37, 1.0, 7.5e3, 1e300]
    signed_zeros = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    rng = np.random.default_rng(5)
    x1 = np.array([a for a, _ in signed_zeros] + edges + [-v for v in edges]
                  + list(rng.normal(0.0, 3 * delta, 200)) + list(rng.normal(0.0, 10.0, 200)))
    z = np.concatenate(([b for _, b in signed_zeros],
                        rng.normal(0.0, 2.0, len(x1) - len(signed_zeros))))
    q = rng.normal(0.0, 20.0, len(x1))
    pairs = [LAW(float(a), float(b), float(c)) for a, b, c in zip(x1, z, q)]
    u_scalar = np.array([p[0] for p in pairs])
    dz_scalar = np.array([p[1] for p in pairs])
    assert u_scalar.tobytes() == twisting_action(x1, z, GAINS).tobytes()
    dz_array = -GAINS.k2 * saturation(x1, delta) + q
    assert dz_scalar.tobytes() == dz_array.tobytes()


def test_regularized_matches_discontinuous_outside_layer():
    """The layer approximation is exact once delta <= |x1|: s = sgn(x1)."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        x1 = rng.uniform(-3.0, 3.0)
        if abs(x1) < 1e-3:
            continue
        z = rng.uniform(-5.0, 5.0)
        q = rng.uniform(-20.0, 20.0)
        gains = Gains(k1=rng.uniform(0.1, 5.0), k2=rng.uniform(0.1, 20.0),
                      delta=abs(x1) * rng.choice([0.5, 1.0]))
        sgn = math.copysign(1.0, x1)
        expected = (-gains.k1 * math.sqrt(abs(x1)) * sgn + z, -gains.k2 * sgn + q)
        assert twisting_law(gains)(x1, z, q) == expected
        assert twisting_action(x1, z, gains) == expected[0]


def test_odd_symmetry():
    """law(-x1, -z, -q) = -law(x1, z, q) componentwise, in both forms."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        x1, z = rng.uniform(-2, 2), rng.uniform(-5, 5)
        q = rng.uniform(-15, 15)
        fwd = LAW(x1, z, q)
        mirrored = LAW(-x1, -z, -q)
        assert mirrored == (-fwd[0], -fwd[1])
        assert twisting_action(-x1, -z, GAINS) == -twisting_action(x1, z, GAINS)


def test_averaged_law_quadrature_oracle():
    """Time average of the forced law at a frozen state equals the law at the mean rate.

    Oracle: numeric quadrature of each component over one period of a
    zero-mean sinusoidal rate.
    """
    x1, x2 = 0.3, -0.7
    L, T = 12.0, 0.25

    def component(i):
        def f(t):
            return LAW(x1, x2, L * math.sin(2 * math.pi * t / T))[i]
        return f

    mean_dx1 = quad(component(0), 0.0, T, epsrel=1e-10)[0] / T
    mean_dx2 = quad(component(1), 0.0, T, epsrel=1e-10)[0] / T
    averaged = LAW(x1, x2, 0.0)
    assert averaged[0] == pytest.approx(mean_dx1, abs=1e-9)
    assert averaged[1] == pytest.approx(mean_dx2, abs=1e-9)


def test_eval_phase_examples():
    dw1, dw2 = eval_phase(PhaseState(1.0, 0.0), GAINS, 0.0)
    assert (dw1, dw2) == (0.0, pytest.approx(-11.65))
    gains = Gains(k1=2.0, k2=1.0)
    assert eval_phase(PhaseState(1.0, 2.0), gains, 0.0) == pytest.approx((2.0, -3.0))
    with pytest.raises(NearSingularityError):
        eval_phase(PhaseState(1e-12, 0.0), GAINS, 0.0)


def test_phase_state_consistency_along_trajectory():
    """(x1, dx1) from a simulated loop obeys the phase form where |x1| >> delta.

    w2 is reconstructed from the recorded channels (it equals dx1 exactly);
    its finite-difference slope must match the phase-form dw2.
    """
    gains = Gains(k1=3.6, k2=6.0, delta=1e-6)
    L, T = 12.0, 0.4
    w = 2 * math.pi / T
    cfg = IntegrationConfig.for_period(T, 4000, 20)
    traj = integrate(gains, lambda t: L * np.sin(w * t), (0.0, 0.0), cfg)
    x1 = traj.x1
    w2 = twisting_action(x1, traj.x2, gains)
    dt = traj.dt
    dw2_fd = (w2[2:] - w2[:-2]) / (2 * dt)
    q = L * np.sin(w * traj.t)

    amplitude = np.abs(x1).max()
    scale = np.abs(dw2_fd).max()
    checked = 0
    for i in range(1 + len(x1) // 2, len(x1) - 1):
        if abs(x1[i]) < 0.05 * amplitude:
            continue
        dw1, dw2 = eval_phase(PhaseState(float(x1[i]), float(w2[i])),
                              gains, float(q[i]))
        assert dw1 == w2[i]
        assert abs(dw2 - dw2_fd[i - 1]) < 2e-3 * scale
        checked += 1
    assert checked > 1000


def test_gains_validation():
    for bad in ({"k1": 0.0, "k2": 1.0}, {"k1": 1.0, "k2": -1.0},
                {"k1": 1.0, "k2": 1.0, "delta": 0.0}):
        with pytest.raises(ValueError):
            Gains(**bad)


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState(math.nan, 0.0)
    with pytest.raises(ValueError):
        PhaseState(0.0, math.inf)


def test_default_layer_width():
    assert default_layer_width(1.0) == DEFAULT_DELTA == 1e-4  # capped at the untargeted width
    assert default_layer_width(0.2) == 1e-4          # min(1e-4, 2e-4)
    assert default_layer_width(0.05) == pytest.approx(5e-5)
    with pytest.raises(ValueError):
        default_layer_width(0.0)


def test_check_number_keeps_a_number_and_names_what_fails():
    assert check_number(np.float32(0.5)) == 0.5 and type(check_number(np.int64(2))) is float
    assert check_number(-3, "a finite number", math.isfinite) == -3.0
    assert check_number(7, "an integer >= 0", lambda v: v >= 0, True) == 7
    with pytest.raises(ValueError, match=r"^must be a finite number > 0, got inf$"):
        check_number(math.inf)
    with pytest.raises(ValueError, match="^k1 must be a finite number > 0, got 1000"):
        check_number(10 ** 400, name="k1")  # past the float range


#: Each spec's accuracy, rate bound and period; ``run_scenario`` runs the config's cases.
SPEC = AccuracySpec(eta=0.2, rate_bound=12.0, period=0.3125)
CONFIG = {"schema_version": 1, "scenario": "synthetic_q", "parameters": {"cases": [[12.0, 0.2]]},
          "gains": {"source": "explicit", "k1": 3.6, "k2": 6.0}}

#: Every argument the library checks as a number: its name and a call passing ``v`` as it.
NUMBER_ARGUMENTS = [
    ("accuracy", default_layer_width),
    ("k1", lambda v: Gains(v, 2.0)),
    ("k2", lambda v: Gains(1.0, v)),
    ("delta", lambda v: Gains(1.0, 2.0, v)),
    ("delta", lambda v: saturation(0.1, v)),
    ("eta", lambda v: AccuracySpec(v, 12.0, 0.3125)),
    ("rate_bound", lambda v: AccuracySpec(0.2, v, 0.3125)),
    ("period", lambda v: AccuracySpec(0.2, 12.0, v)),
    ("n", lambda v: AccuracySpec(0.2, 12.0, 0.3125, v)),
    ("rate_bound", finite_time_gains),
    ("margin", lambda v: finite_time_gains(12.0, margin=v)),
    ("delta", lambda v: finite_time_gains(12.0, delta=v)),
    ("n", lambda v: cycle_width_bound(5.0, 12.0, v, 0.3125)),
    ("period", lambda v: cycle_width_bound(5.0, 12.0, 0.5, v)),
    ("n", lambda v: tight_width_bound(0.9, 5.0, 12.0, v, 0.3125)),
    ("period", lambda v: tight_width_bound(0.9, 5.0, 12.0, 0.5, v)),
    ("k1", lambda v: tune_k2(v, SPEC)),
    ("k1_max", lambda v: optimize_gains(SPEC, v)),
    ("dt", lambda v: IntegrationConfig(v, 10)),
    ("n_steps", lambda v: IntegrationConfig(0.1, v)),
    ("period", lambda v: IntegrationConfig.for_period(v, 200, 10)),
    ("steps_per_period", lambda v: IntegrationConfig.for_period(0.3, v, 10)),
    ("periods", lambda v: IntegrationConfig.for_period(0.3, 200, v)),
    ("rate_amplitude", lambda v: SinusoidPerturbation(v, 0.3125)),
    ("encoder_quantum", lambda v: MotorModel(encoder_quantum=v)),
    ("velocity_window", lambda v: MotorModel(velocity_window=v)),
    ("noise_std", lambda v: MotorModel(noise_std=v)),
    ("period", lambda v: SinusoidPerturbation(12.0, v)),
    ("coulomb", lambda v: FrictionCoggingModel(coulomb=v)),
    ("steepness", lambda v: FrictionCoggingModel(steepness=v)),
    ("viscous", lambda v: FrictionCoggingModel(viscous=v)),
    ("harmonics", lambda v: FrictionCoggingModel(harmonics=((v, 0.0),))),
    ("harmonics", lambda v: FrictionCoggingModel(harmonics=((0.5, v),))),
    ("frequency_hz", MotionProfile.sinusoidal_velocity),
    ("period", lambda v: bound_L(np.sin, v)),
    ("omega_r", lambda v: constant_speed_characterization(FrictionCoggingModel(), v)),
    ("workers", lambda v: run_scenario(ScenarioConfig.from_dict(CONFIG), workers=v)),
    ("seed", lambda v: ScenarioConfig.from_dict({**CONFIG, "seed": v})),
    ("period", lambda v: scaling_fit([(v, 1.0), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)])),
    ("amplitude", lambda v: scaling_fit([(0.1, v), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)])),
    ("phase", lambda v: SinusoidPerturbation(12.0, 0.3125, v)),
    ("omega_r", MotionProfile.constant_speed),
    ("accel_peak", lambda v: MotionProfile.sinusoidal_velocity(4.0, v)),
]

#: Arguments where an infinite value would pass as a number but give nonsense: a
#: NaN reference or rate, a zero period or a failed fit.
FINITE_ARGUMENTS = [
    ("rate_amplitude", lambda v: SinusoidPerturbation(v, 0.3125)),
    ("phase", lambda v: SinusoidPerturbation(12.0, 0.3125, v)),
    ("omega_r", MotionProfile.constant_speed),
    ("frequency_hz", MotionProfile.sinusoidal_velocity),
    ("accel_peak", lambda v: MotionProfile.sinusoidal_velocity(4.0, v)),
    ("omega_r", lambda v: constant_speed_characterization(FrictionCoggingModel(), v)),
    ("period", lambda v: scaling_fit([(v, 1.0), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)])),
    ("amplitude", lambda v: scaling_fit([(0.1, v), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)])),
]


@pytest.mark.parametrize("bad", [True, "1", None, math.nan], ids=["True", "str", "None", "nan"])
@pytest.mark.parametrize("name, call", NUMBER_ARGUMENTS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(NUMBER_ARGUMENTS)])
def test_a_bool_non_number_or_nan_fails_naming_its_argument(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("name, call", FINITE_ARGUMENTS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(FINITE_ARGUMENTS)])
def test_an_infinite_value_fails_naming_its_argument(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite "):
        call(bad)


#: Finite frequencies > 0 whose reference overflows, and the quantity that does.
OVERFLOWING_FREQUENCIES = [(1e308, "2*pi*f"), (1e-320, "accel_peak/(2*pi*f)"),
                           (1e-160, "accel_peak/(2*pi*f)**2")]


@pytest.mark.parametrize("frequency_hz, what", OVERFLOWING_FREQUENCIES)
def test_a_frequency_whose_reference_overflows_fails_naming_it(frequency_hz, what):
    """Not an all-NaN or infinite reference: 2*pi*f, the speed or the angle amplitude overflows."""
    with pytest.raises(ValueError, match=rf"^frequency_hz must keep {re.escape(what)} finite, "
                                         rf"got {re.escape(repr(frequency_hz))} "):
        MotionProfile.sinusoidal_velocity(frequency_hz)
    # the amplitudes scale with accel_peak: a zero peak keeps them finite
    if what != "2*pi*f":
        assert MotionProfile.sinusoidal_velocity(frequency_hz, accel_peak=0.0).omega(1.0) == 0.0


def test_number_checks_keep_what_they_accepted_and_name_the_argument():
    # numpy scalars are numbers, but an integer argument takes an int
    assert Gains(np.int64(1), 2.0).k1 == 1 and Gains(np.float32(0.9), 2.0).k1 == np.float32(0.9)
    with pytest.raises(ValueError, match="^n_steps must be an integer >= 1"):
        IntegrationConfig(0.1, np.int64(5))
    assert default_layer_width(math.inf) == DEFAULT_DELTA  # a number > 0, inf included
    with pytest.raises(ValueError, match="^margin "):
        finite_time_gains(12, margin=math.nan)
    with pytest.raises(ValueError, match="^k1 "):
        tune_k2(math.nan, SPEC)
    with pytest.raises(ValueError, match="^steps_per_period "):
        IntegrationConfig.for_period(0.3, 2.5, 20)
    with pytest.raises(ValueError, match="^workers must be an integer >= 1, got 1.5"):
        run_scenario(ScenarioConfig.from_dict(CONFIG), workers=1.5)
    with pytest.raises(ValueError, match="^k1_max must be a finite number > 0, got inf"):
        optimize_gains(SPEC, math.inf)  # as the config's gains.k1_max
    assert optimize_gains(SPEC, 1e300) == optimize_gains(SPEC, 1.0)
    for bad in (True, "1", math.nan):  # a report's measurements, where None means unmeasured
        for name in ("amplitude", "measured_period"):
            with pytest.raises(ValueError, match=f"^{name} must be "):
                LimitCycleReport(True, **{name: bad})
