"""Property tests over random valid model parameters (Hypothesis).

Every drawn model has m <= 4 steps.  Every batch has n = 64 points,
except in the unbiasedness check, which averages over n = 1024.  The runs
are derandomized, so the examples are fixed for a given Hypothesis version
and a given set of collected test modules.  They are not fixed across
those: Hypothesis adds the literal constants of every local module in
sys.modules to its draw pool, so running this file alone and running it
in the whole suite can draw different examples.  The Tier-1 run of the
whole suite is the one that counts.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from smoothqmc.estimators import method_transform
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    NigSpec,
    _nig_gamma,
    path_map,
)
from smoothqmc.payoffs import PAYOFF_KINDS, PayoffSpec, build_separable, payoff_value
from smoothqmc.points import EPS, ScrambleSeed, pseudo_uniform
from smoothqmc.smoothing import evaluate_indicator, evaluate_smoothed, vpo_map
from smoothqmc.transforms import apply_transform, identity_transform

N = 64
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw, min_m=1):
    kind = draw(st.sampled_from(["black-scholes", "nig", "heston"]))
    m = draw(st.integers(1 if kind == "heston" else min_m, 4))  # Heston: d = 2m >= 2
    s0, r, T = draw(_real(50.0, 200.0)), draw(_real(-0.02, 0.08)), draw(_real(0.25, 2.0))
    if kind == "black-scholes":
        return BlackScholesSpec(s0=s0, r=r, sigma=draw(_real(0.05, 1.0)), T=T, m=m)
    if kind == "heston":
        return HestonSpec(s0=s0, v0=draw(_real(0.01, 0.5)), r=r,
                          theta_bar=draw(_real(0.01, 0.5)), nu=draw(_real(0.1, 3.0)),
                          sigma_v=draw(_real(0.05, 1.0)), rho=draw(_real(-0.95, 0.95)),
                          T=T, m=m)
    alpha = draw(_real(20.0, 150.0))
    beta = alpha * draw(_real(-0.5, 0.5))
    delta = draw(_real(0.5, 5.0))
    # pick mu so that the martingale equation has its root at theta
    theta = draw(_real(-5.0, 5.0))
    mu = r - delta * (_nig_gamma(alpha, beta + theta) - _nig_gamma(alpha, beta + theta + 1.0))
    return NigSpec(s0=s0, alpha=alpha, beta=beta, mu=mu, delta=delta, r=r, T=T, m=m)


@st.composite
def payoffs(draw, model):
    kind = draw(st.sampled_from(PAYOFF_KINDS))
    strike = model.s0 * draw(_real(0.8, 1.25))
    barrier = model.s0 * draw(_real(0.7, 0.98)) if kind == "barrier-down-out" else None
    return PayoffSpec.for_model(kind, model, strike, barrier)


@given(data=st.data(), method=st.sampled_from(["sQMC-I", "sQMC-II"]),
       seed=st.integers(0, 2 ** 32 - 1))
@PROPERTY
def test_indicator_matches_payoff_of_direct_paths(data, method, seed):
    # identity (sQMC-I) or pinned-QR (sQMC-II; the identity at d = 1)
    model = data.draw(models())
    payoff = data.draw(payoffs(model))
    transform = method_transform(method, payoff, model)
    u = pseudo_uniform(N, model.d, ScrambleSeed(seed)).values
    direct = payoff_value(payoff, path_map(model, transform)(special.ndtri(u)))
    separated = evaluate_indicator(build_separable(payoff, model, transform), u)
    np.testing.assert_allclose(separated, direct, rtol=1e-10, atol=1e-10)


@given(data=st.data(), method=st.sampled_from(["sQMC-I", "sQMC-II"]),
       seed=st.integers(0, 2 ** 32 - 1))
@PROPERTY
def test_smoothed_integrand_is_unbiased_for_the_raw_one(data, method, seed):
    # the push-out keeps the integral: the paired difference of smoothed
    # and raw values at the same points has mean zero
    model = data.draw(models())
    payoff = data.draw(payoffs(model))
    transform = method_transform(method, payoff, model)
    u = pseudo_uniform(1024, model.d, ScrambleSeed(seed)).values
    raw = payoff_value(payoff, path_map(model, transform)(special.ndtri(u)))
    # every payoff here is nonzero exactly on its payout region; with fewer
    # than 10 points on one side of it the raw mean misses that side's
    # share, which the standard error cannot show (all raw values of a
    # binary payoff are then equal, and the error reads zero)
    assume(10 <= np.count_nonzero(raw) <= raw.size - 10)
    diff = evaluate_smoothed(build_separable(payoff, model, transform), u) - raw
    assert abs(diff.mean()) <= 5.0 * diff.std(ddof=1) / np.sqrt(diff.size)


@given(pairs=st.lists(st.tuples(_real(0.0, 1.0), _real(0.0, 1.0)), min_size=1, max_size=N))
@PROPERTY
def test_vpo_map_lands_in_the_payout_interval(pairs):
    u1, gamma = np.array(pairs).T
    pushed, weight = vpo_map(u1, gamma)
    # within 2^-32 of 1 the clip, not Gamma, sets the floor
    floor = np.minimum(np.maximum(gamma, EPS), 1.0 - EPS)
    assert np.all(floor <= pushed) and np.all(pushed <= 1.0 - EPS)
    np.testing.assert_array_equal(weight, 1.0 - gamma)


@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
@PROPERTY
def test_pinned_rotation_pins_the_first_coordinate(data, seed):
    # sQMC-II's rotation: mqr, or the identity when no weight falls past z_1
    model = data.draw(models(min_m=2))
    payoff = data.draw(payoffs(model))
    d = model.d
    transform = method_transform("sQMC-II", payoff, model)
    z = special.ndtri(pseudo_uniform(N, d, ScrambleSeed(seed)).values)
    np.testing.assert_array_equal(apply_transform(transform, z)[:, 0], z[:, 0])
    if not isinstance(model, HestonSpec):
        # an exp-Levy S_1 sees z_1 alone, so the rotation leaves it as it is
        first = path_map(model, transform)(z)[:, 0]
        np.testing.assert_allclose(first, path_map(model, identity_transform(d))(z)[:, 0],
                                   rtol=1e-13)
