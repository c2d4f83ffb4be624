"""Gain-calculus tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.dynamics import DEFAULT_DELTA, Gains
from twistlab.integrator import IntegrationConfig, integrate
from twistlab.tuning import (AccuracySpec, InfeasibleSpecError, check_averaged_conditions,
                             cycle_width_bound, finite_time_gains, optimize_gains,
                             tight_bound_feasible, tight_width_bound, tune_k2)

SPEC_A = AccuracySpec(eta=0.2, rate_bound=12.0, period=0.3125, n=0.5)
SPEC_B = AccuracySpec(eta=0.2, rate_bound=20.0, period=0.3125, n=0.5)

#: Accuracy specs over the ranges the bench and acceptance runs span, and wider.
#: With L >= 0.5 and k1 <= 1, tune_k2 always returns k2 > 0 (k2 > L - k1^2/2).
SPECS = st.builds(AccuracySpec, eta=st.floats(0.01, 1.0), rate_bound=st.floats(0.5, 30.0),
                  period=st.floats(0.05, 1.0), n=st.floats(0.05, 0.5))
PROPERTY = settings(derandomize=True, deadline=None)


def test_finite_time_gains_values():
    gains = finite_time_gains(12.0, 1.1)
    assert gains.k2 == pytest.approx(13.2)
    assert gains.k1 == pytest.approx(9.04, abs=0.01)
    assert gains.delta == DEFAULT_DELTA
    wide = finite_time_gains(20.0, 1.1)
    assert wide.k2 == pytest.approx(22.0)
    assert wide.k1 == pytest.approx(11.67, abs=0.01)
    tiny = finite_time_gains(1e-9, 1.1)
    assert tiny.k1 < 1e-4 and tiny.k2 < 1e-8


def test_finite_time_gains_margin_error():
    with pytest.raises(ValueError):
        finite_time_gains(12.0, 1.0)
    with pytest.raises(ValueError):
        finite_time_gains(-3.0, 1.1)


def test_check_averaged_conditions():
    assert check_averaged_conditions(Gains(k1=1.8, k2=1.0))
    # the experimentally applied pair violates the k1 part (sufficient only)
    assert not check_averaged_conditions(Gains(k1=0.9, k2=11.65))


def test_cycle_width_bound_values():
    assert cycle_width_bound(19.65, 4.85, 0.5, 1.0) == pytest.approx(3.0625)
    assert cycle_width_bound(19.65, 4.85, 0.5, 0.5) == pytest.approx(0.765625)
    full = cycle_width_bound(5.0, 3.0, 0.5, 0.8)
    half = cycle_width_bound(5.0, 3.0, 0.5, 0.4)
    assert full == pytest.approx(4 * half)
    with pytest.raises(ValueError):
        cycle_width_bound(5.0, 3.0, 0.6, 0.8)


def test_tight_bound_feasible():
    assert tight_bound_feasible(0.9, 11.65, 12.0)     # sqrt(0.7) = 0.837 < 0.9
    assert tight_bound_feasible(0.9, 19.65, 20.0)
    assert not tight_bound_feasible(0.5, 11.65, 12.0)
    assert not tight_bound_feasible(0.9, 13.0, 12.0)


def test_tight_width_bound_values():
    bound = tight_width_bound(0.9, 11.65, 12.0, 0.5, 0.3125)
    assert bound == pytest.approx(0.1622, abs=1e-4)
    assert bound <= 0.2
    # vanishing excess perturbation kills the bound
    assert tight_width_bound(0.9, 11.9999, 12.0, 0.5, 0.3125) < 1e-6
    # quadratic in the period
    assert tight_width_bound(0.9, 11.65, 12.0, 0.5, 0.625) == pytest.approx(4 * bound)
    assert tight_width_bound(0.5, 11.65, 12.0, 0.5, 0.3125) is None
    assert tight_width_bound(0.9, 12.0, 12.0, 0.5, 0.3125) is None


def test_tune_k2_reproduces_applied_gains():
    assert tune_k2(0.9, SPEC_A) == pytest.approx(11.650, abs=1e-3)
    assert tune_k2(0.9, SPEC_B) == pytest.approx(19.650, abs=1e-3)


def test_tune_k2_relaxed_limit():
    """For a huge accuracy budget k2 tends to L - k1^2/2."""
    spec = AccuracySpec(eta=1e12, rate_bound=12.0, period=0.3125, n=0.5)
    assert tune_k2(0.9, spec) == pytest.approx(12.0 - 0.81 / 2, rel=1e-4)


def test_tune_k2_infeasible():
    spec = AccuracySpec(eta=0.05, rate_bound=1.0, period=0.5, n=0.5)
    with pytest.raises(InfeasibleSpecError):
        tune_k2(5.0, spec)


def test_tune_k2_infeasible_advice_leads_to_k2_above_zero():
    """Lowering k1 or tightening eta, as the message says, raises k2 above 0."""
    spec = AccuracySpec(eta=0.2, rate_bound=0.2, period=0.3, n=0.5)
    with pytest.raises(InfeasibleSpecError, match="lower k1 or tighten eta"):
        tune_k2(0.9, spec)
    assert tune_k2(0.5, spec) > 0.0
    assert tune_k2(0.9, AccuracySpec(eta=0.002, rate_bound=0.2, period=0.3, n=0.5)) > 0.0
    # the opposite moves keep it infeasible
    for k1, eta in ((1.0, 0.2), (0.9, 0.5)):
        with pytest.raises(InfeasibleSpecError):
            tune_k2(k1, AccuracySpec(eta=eta, rate_bound=0.2, period=0.3, n=0.5))


def test_tune_k2_infeasible_where_rounding_breaks_the_premise():
    """A tiny eta rounds k2 to L itself, outside the under-tuned regime: no tight bound."""
    spec = AccuracySpec(eta=1e-32, rate_bound=12, period=0.3125)
    for tune in (lambda: tune_k2(1.0, spec), lambda: optimize_gains(spec, k1_max=1.0)):
        with pytest.raises(InfeasibleSpecError, match="rounding breaks the k1 premise.*k2=12.0"):
            tune()


def test_optimize_gains_reproduces_applied_pair():
    gains = optimize_gains(SPEC_A, k1_max=0.9)
    assert (gains.k1, gains.k2) == (0.9, tune_k2(0.9, SPEC_A))
    assert gains.k2 == pytest.approx(11.650, abs=1e-3)


def test_optimize_gains_huge_eta_sits_near_premise_floor():
    """With a huge eta the winner sits just above its own k1 premise floor."""
    spec = AccuracySpec(eta=1e6, rate_bound=12.0, period=0.3125, n=0.5)
    gains = optimize_gains(spec, k1_max=0.9)
    floor = math.sqrt(2.0 * (spec.rate_bound - gains.k2))
    assert gains.k1 > floor
    assert (gains.k1 - floor) / gains.k1 < 1e-3


def test_optimize_gains_infeasible():
    """A cap above 1 stops at k1 = 1; with k2 <= 0 there, no least k2 exists."""
    gains = optimize_gains(SPEC_A, k1_max=250.0)
    assert (gains.k1, gains.k2) == (1.0, tune_k2(1.0, SPEC_A))
    with pytest.raises(InfeasibleSpecError):
        optimize_gains(AccuracySpec(eta=0.2, rate_bound=0.2, period=0.3, n=0.5), k1_max=0.9)


def test_optimize_gains_bad_args():
    with pytest.raises(ValueError):
        optimize_gains(SPEC_A, k1_max=0.0)


def test_finite_time_gains_satisfy_averaged_conditions():
    """The finite-time pair passes the averaged-loop check."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        L = rng.uniform(0.5, 30.0)
        gains = finite_time_gains(L, margin=rng.uniform(1.01, 3.0))
        assert check_averaged_conditions(gains)


@PROPERTY
@given(spec=SPECS, k1=st.floats(0.05, 1.0))
def test_tune_then_bound_meets_spec(spec, k1):
    """At the tune_k2 pair the k1 premise holds and the tight bound is eta * k1^2.

    Relative tolerance 1e-7: the bound divides by k1^2 - 2*(L - k2), which
    cancels down to about 1.6e-7 at L = 30, k1 = n = T = 0.05, eta = 1, while
    L - k2 carries half an ulp of L.  The worst of 700k samples over these
    ranges read 4.4e-8.
    """
    k2 = tune_k2(k1, spec)
    assert 0.0 < k2 < spec.rate_bound
    assert tight_bound_feasible(k1, k2, spec.rate_bound)
    bound = tight_width_bound(k1, k2, spec.rate_bound, spec.n, spec.period)
    assert bound == pytest.approx(spec.eta * k1 * k1, rel=1e-7)


def test_bounds_monotonicity():
    """Both bounds grow with period and rate bound; the tight one falls with k2.

    The coarse bound grows with k2 instead (it charges the full switching
    authority), so only the tight bound rewards a larger integral gain.
    """
    rng = np.random.default_rng(37)
    for _ in range(300):
        L = rng.uniform(5.0, 25.0)
        k2 = rng.uniform(0.2, L * 0.9)
        n = rng.uniform(0.05, 0.5)
        T = rng.uniform(0.05, 1.0)
        factor = rng.uniform(1.01, 2.0)
        assert cycle_width_bound(k2, L, n, T * factor) > cycle_width_bound(k2, L, n, T)
        assert cycle_width_bound(k2, L * factor, n, T) > cycle_width_bound(k2, L, n, T)
        assert cycle_width_bound(k2 * factor, L, n, T) > cycle_width_bound(k2, L, n, T)

        k1 = math.sqrt(2.0 * (L - k2)) * rng.uniform(1.05, 3.0)
        base = tight_width_bound(k1, k2, L, n, T)
        assert tight_width_bound(k1, k2, L, n, T * factor) > base
        if tight_bound_feasible(k1, k2, L * factor):
            assert tight_width_bound(k1, k2, L * factor, n, T) > base
        k2_hi = k2 * factor
        if k2_hi < L and tight_bound_feasible(k1, k2_hi, L):
            assert tight_width_bound(k1, k2_hi, L, n, T) < base


@PROPERTY
@given(spec=SPECS, k1_max=st.floats(1e-3, 5.0))
def test_optimize_gains_is_grid_optimal(spec, k1_max):
    """No candidate on a 200-point k1 grid in (0, k1_max] meets eta with a smaller k2.

    A candidate counts when its tight bound reads at most eta * (1 - 1e-7),
    the rounding that test_tune_then_bound_meets_spec measures, so none with
    k1 just above 1 passes on rounding alone.  Below k1_max = 1e-3 the k1
    premise margin, k1^3*n*T / (2*sqrt(eta) + k1*n*T), nears the rounding of
    L - k2, and the check reads noise.
    """
    winner = optimize_gains(spec, k1_max=k1_max)
    assert winner.k1 <= k1_max
    bound = tight_width_bound(winner.k1, winner.k2, spec.rate_bound, spec.n, spec.period)
    assert bound <= spec.eta * (1 + 1e-7)
    for i in range(1, 201):
        k1 = k1_max * i / 200
        try:
            k2 = tune_k2(k1, spec)
        except InfeasibleSpecError:
            continue
        if not (k2 < spec.rate_bound and tight_bound_feasible(k1, k2, spec.rate_bound)):
            continue
        if tight_width_bound(k1, k2, spec.rate_bound, spec.n, spec.period) <= spec.eta * (1 - 1e-7):
            assert winner.k2 <= k2


def test_accuracy_spec_validation():
    for kwargs in ({"eta": 0.0, "rate_bound": 1.0, "period": 1.0},
                   {"eta": 0.1, "rate_bound": -1.0, "period": 1.0},
                   {"eta": 0.1, "rate_bound": 1.0, "period": 0.0},
                   {"eta": 0.1, "rate_bound": 1.0, "period": 1.0, "n": 0.6}):
        with pytest.raises(ValueError):
            AccuracySpec(**kwargs)


@pytest.mark.parametrize("mu, lam", [(mu, lam) for mu in (0.25, 4.0, 16.0) for lam in (0.5, 2.0)])
def test_amplitude_and_time_scaling_is_exact(mu, lam):
    """The loop, ``tune_k2`` and the coarse bound keep the loop's two scalings, bit for bit.

    With time scaled by lam and the error by mu*lam**2 (so x2 by mu*lam), the
    reduced loop keeps its form when L and k2 scale by mu, k1 by sqrt(mu), T
    by lam, and delta, eta and the start's x1 by mu*lam**2.  With mu a power
    of 4 and lam a power of 2 every operation scales exactly.  Two rules
    break it, the open break of ROADMAP item 1, whose mend moves goldens:
    ``tight_width_bound`` scales by mu**2 * lam**2, not as a width, and
    ``optimize_gains`` caps k1 at the constant 1, fixed in units of sqrt(L).
    """
    def run(scale, time):
        width = scale * time * time
        L, T, k1 = scale * 12.0, time * 0.3125, math.sqrt(scale) * 0.9
        k2 = tune_k2(k1, AccuracySpec(eta=width * 0.2, rate_bound=L, period=T))
        w = 2.0 * math.pi / T
        start = (width * 0.01, scale * time * 0.5)
        traj = integrate(Gains(k1, k2, width * 1e-4), lambda t: L * np.sin(w * t), start,
                         IntegrationConfig.for_period(T, 200, 10))
        return k2, cycle_width_bound(k2, L, 0.5, T), traj

    k2, coarse, base = run(1.0, 1.0)
    scaled_k2, scaled_coarse, scaled = run(mu, lam)
    assert scaled_k2 == mu * k2
    assert scaled_coarse == mu * lam ** 2 * coarse
    np.testing.assert_array_equal(scaled.t, lam * base.t)
    np.testing.assert_array_equal(scaled.x1, mu * lam ** 2 * base.x1)
    np.testing.assert_array_equal(scaled.x2, mu * lam * base.x2)
