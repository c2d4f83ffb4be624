"""Control-law and vector-field unit tests."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from twistlab.dynamics import (DEFAULT_DELTA, Gains, default_layer_width, saturation,
                               twisting_action)
from twistlab.integrator import IntegrationConfig, integrate

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
