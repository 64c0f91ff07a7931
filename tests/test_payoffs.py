"""Payoff values and variable-separation bounds."""

import warnings

import numpy as np
import pytest
from scipy import special

from smoothqmc.errors import NumericalError
from smoothqmc.estimators import method_transform, run
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    NigSpec,
    factorization,
    increment_law_for,
    path_map,
    paths_exp_levy,
)
from smoothqmc.payoffs import (
    PayoffSpec,
    build_separable,
    gamma_average,
    gamma_extreme,
    payoff_value,
)
from smoothqmc.points import ScrambleSeed, pseudo_uniform, scrambled_sobol
from smoothqmc.smoothing import evaluate_indicator, evaluate_smoothed
from smoothqmc.transforms import identity_transform, mqr_transform, qr_transform, taylor_weight

BS4 = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=4)
SYM4 = BlackScholesSpec(s0=100.0, r=0.045, sigma=0.3, T=1.0, m=4)  # a = 0


def _bs_x_rest(u_rest, law):
    return law.normal(special.ndtri(u_rest))


def _zeta(x_rest, s0):
    """Conditional path zeta_i = s0 exp(x_2 + ... + x_i), zeta_1 = s0."""
    return s0 * np.exp(np.concatenate([np.zeros((x_rest.shape[0], 1)),
                                       np.cumsum(x_rest, axis=1)], axis=1))


def _bs_zeta(u_rest, law, s0):
    return _zeta(_bs_x_rest(u_rest, law), s0)


def _gamma_date(j, kappa, zeta, law):
    """Bound for the single-date condition S_j > kappa: gamma_extreme on column j."""
    return gamma_extreme(np.array([kappa]), zeta[:, j - 1:j], law)


def _heston_gamma_average(kappa, u_rest, hes, transform):
    """The average bound on the conditioning coordinates u_{2:d}."""
    law, conditional = factorization(hes, transform)
    return gamma_average(kappa, conditional(u_rest), law)


# ---------------------------------------------------------------------------
# payoff values


def test_payoff_value_flat_path_is_out_of_the_money():
    spec = PayoffSpec("binary-asian", strike=100.0)
    np.testing.assert_array_equal(payoff_value(spec, np.full((1, 8), 100.0)), [0.0])  # strict inequality


def test_payoff_value_binary_and_delta():
    path = np.array([[100.0, 110.0, 120.0, 110.0]])  # average 110
    np.testing.assert_array_equal(
        payoff_value(PayoffSpec("binary-asian", strike=100.0, discount=0.5), path), [0.5])
    delta = PayoffSpec("asian-delta", strike=100.0, discount=1.0, s0=100.0)
    np.testing.assert_allclose(payoff_value(delta, path), [1.1], rtol=0, atol=1e-14)
    below = PayoffSpec("asian-delta", strike=120.0, discount=1.0, s0=100.0)
    np.testing.assert_array_equal(payoff_value(below, path), [0.0])


def test_payoff_value_barrier():
    spec = PayoffSpec("barrier-down-out", strike=100.0, barrier=90.0)
    np.testing.assert_array_equal(payoff_value(spec, np.array([[95.0, 89.0, 120.0, 130.0]])), [0.0])
    np.testing.assert_allclose(payoff_value(spec, np.array([[95.0, 91.0, 120.0, 105.0]])), [5.0])
    # final level folds the strike in: finishing alive but below K pays zero
    np.testing.assert_array_equal(payoff_value(spec, np.array([[95.0, 95.0, 95.0, 95.0]])), [0.0])


def test_payoff_value_batch_shape():
    spec = PayoffSpec("binary-asian", strike=100.0)
    batch = np.array([[101.0, 103.0], [95.0, 97.0]])
    np.testing.assert_allclose(payoff_value(spec, batch), [1.0, 0.0])
    with pytest.raises(ValueError):
        payoff_value(spec, batch[0])  # a single path is not a batch


def test_payoff_spec_validation():
    with pytest.raises(ValueError):
        PayoffSpec("lookback", strike=100.0)
    with pytest.raises(ValueError):
        PayoffSpec("binary-asian", strike=-1.0)
    with pytest.raises(ValueError):
        PayoffSpec("barrier-down-out", strike=100.0)  # barrier missing
    with pytest.raises(ValueError):
        PayoffSpec("asian-delta", strike=100.0)  # reference price s0 missing
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            PayoffSpec("binary-asian", strike=bad)
        with pytest.raises(ValueError):
            PayoffSpec("barrier-down-out", strike=100.0, barrier=bad)
        with pytest.raises(ValueError):
            PayoffSpec("asian-delta", strike=100.0, s0=bad)
    # a bool, text or an int too large for a float is not a number
    for bad in (True, "100", 10 ** 400):
        with pytest.raises(ValueError, match="strike"):
            PayoffSpec("binary-asian", strike=bad)
        with pytest.raises(ValueError, match="barrier"):
            PayoffSpec("barrier-down-out", strike=100.0, barrier=bad)
        with pytest.raises(ValueError, match="s0"):
            PayoffSpec("asian-delta", strike=100.0, s0=bad)
    # a discount is a finite real >= 0; 0 is what exp(-rT) underflows to
    for bad in (-1.0, True, "1", np.nan, np.inf, 10 ** 400):
        with pytest.raises(ValueError, match="discount"):
            PayoffSpec("binary-asian", strike=100.0, discount=bad)
    assert PayoffSpec("binary-asian", strike=100.0, discount=0.0).discount == 0.0
    # a valid model whose exp(-rT) overflows has no price a float holds
    overflow = BlackScholesSpec(s0=100.0, r=-800.0, sigma=0.3, T=1.0, m=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="r = -800, T = 1"):
            PayoffSpec.for_model("binary-asian", overflow, 100.0)


def test_barrier_levels_fold_strike():
    spec = PayoffSpec("barrier-down-out", strike=100.0, barrier=90.0)
    np.testing.assert_allclose(spec.barrier_levels(4), [90.0, 90.0, 90.0, 100.0])
    high = PayoffSpec("barrier-down-out", strike=80.0, barrier=90.0)
    np.testing.assert_allclose(high.barrier_levels(3), [90.0, 90.0, 90.0])


# ---------------------------------------------------------------------------
# separation bounds, exponential-Levy


def test_gamma_component_trivials():
    law = increment_law_for(SYM4)
    flat = np.full((1, 4), SYM4.s0)
    assert _gamma_date(1, SYM4.s0, flat, law)[0] == pytest.approx(0.5, abs=1e-14)
    assert _gamma_date(1, 1e-12, flat, law)[0] <= 1e-12
    # conditioning shifts the bound: positive past increments lower it
    up = _gamma_date(3, SYM4.s0, _zeta(np.array([[0.2, 0.2, 0.0]]), SYM4.s0), law)[0]
    assert up < 0.5


def test_gamma_component_matches_marginal_probability():
    # two routes to P(S_3 > kappa): raw path indicators, and 1 - gamma_3
    # averaged over the conditioning increments
    law = increment_law_for(BS4)
    kappa, n = 100.0, 10 ** 5
    z = special.ndtri(pseudo_uniform(n, 4, ScrambleSeed(5, 0)).values)
    S = paths_exp_levy(law, BS4.s0, z, identity_transform(4))
    ind = (S[:, 2] > kappa).astype(float)
    v = pseudo_uniform(n, 3, ScrambleSeed(5, 1)).values
    g = 1.0 - _gamma_date(3, kappa, _bs_zeta(v, law, BS4.s0), law)
    se = np.hypot(ind.std(ddof=1), g.std(ddof=1)) / np.sqrt(n)
    assert abs(ind.mean() - g.mean()) <= 3 * se
    # conditioning integrates out u_1, so the bound route has less variance
    assert g.var(ddof=1) < ind.var(ddof=1)


def test_gamma_average_single_step_reduces_to_component():
    law = increment_law_for(BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=1))
    zeta = np.full((5, 1), 100.0)
    np.testing.assert_allclose(gamma_average(95.0, zeta, law),
                               _gamma_date(1, 95.0, zeta, law), atol=1e-14)


def test_gamma_average_flat_conditioning():
    law = increment_law_for(SYM4)
    g = gamma_average(SYM4.s0, np.full((1, 4), SYM4.s0), law)[0]
    assert g == pytest.approx(0.5, abs=1e-14)


def test_gamma_average_matches_average_probability():
    law = increment_law_for(BS4)
    kappa, n = 100.0, 10 ** 5
    z = special.ndtri(pseudo_uniform(n, 4, ScrambleSeed(6, 0)).values)
    S = paths_exp_levy(law, BS4.s0, z, identity_transform(4))
    ind = (S.mean(axis=1) > kappa).astype(float)
    v = pseudo_uniform(n, 3, ScrambleSeed(6, 1)).values
    g = 1.0 - gamma_average(kappa, _bs_zeta(v, law, BS4.s0), law)
    se = np.hypot(ind.std(ddof=1), g.std(ddof=1)) / np.sqrt(n)
    assert abs(ind.mean() - g.mean()) <= 3 * se


def test_gamma_average_monotone_in_strike():
    law = increment_law_for(BS4)
    v = pseudo_uniform(64, 3, ScrambleSeed(7, 0)).values
    zeta = _bs_zeta(v, law, BS4.s0)
    lo = gamma_average(90.0, zeta, law)
    hi = gamma_average(110.0, zeta, law)
    assert np.all(hi > lo)


def test_gamma_extreme_single_level_reduces_to_component():
    law = increment_law_for(BS4)
    zeta = np.full((5, 1), 100.0)
    np.testing.assert_allclose(gamma_extreme(np.array([97.0]), zeta, law),
                               law.cdf(np.log(97.0 / zeta[:, 0])), atol=1e-14)


def test_gamma_extreme_limits_and_direction():
    law = increment_law_for(BS4)
    v = pseudo_uniform(32, 3, ScrambleSeed(8, 0)).values
    zeta = _bs_zeta(v, law, BS4.s0)
    tiny = gamma_extreme(np.full(4, 1e-8), zeta, law)
    assert np.all(tiny <= 1e-12)
    levels = np.array([90.0, 90.0, 90.0, 100.0])
    # all levels must hold, so the bound is the max of the per-step bounds
    per_step = [_gamma_date(j, levels[j - 1], zeta, law) for j in range(1, 5)]
    np.testing.assert_allclose(gamma_extreme(levels, zeta, law), np.max(per_step, axis=0),
                               atol=1e-14)


def test_gamma_extreme_matches_survival_probability():
    law = increment_law_for(BS4)
    n = 10 ** 5
    levels = np.array([90.0, 90.0, 90.0, 100.0])
    z = special.ndtri(pseudo_uniform(n, 4, ScrambleSeed(9, 0)).values)
    S = paths_exp_levy(law, BS4.s0, z, identity_transform(4))
    ind = np.all(S > levels[None, :], axis=1).astype(float)
    v = pseudo_uniform(n, 3, ScrambleSeed(9, 1)).values
    g = 1.0 - gamma_extreme(levels, _bs_zeta(v, law, BS4.s0), law)
    se = np.hypot(ind.std(ddof=1), g.std(ddof=1)) / np.sqrt(n)
    assert abs(ind.mean() - g.mean()) <= 3 * se


@pytest.mark.parametrize("model, n", [
    (BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16), 4096),
    (NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032, r=0.04, T=1.0, m=16),
     2 ** 14),
    (HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=-0.5, m=16),
     2 ** 14),
], ids=["BS16", "NIG16", "HES16_NEG"])
def test_gamma_extreme_is_the_max_of_the_per_date_cdfs(model, n):
    # one cdf per path equals the per-(path, date) cdfs maximised over dates,
    # bit for bit, on the sQMC-II barrier 100/90 cell of the acceptance models
    payoff = PayoffSpec.for_model("barrier-down-out", model, 100.0, 90.0)
    law, conditional = factorization(model, method_transform("sQMC-II", payoff, model))
    u = scrambled_sobol(n, model.d, ScrambleSeed(12345, 0)).values
    zeta = conditional(u[:, 1:])
    kappas = payoff.barrier_levels(model.m)
    np.testing.assert_array_equal(gamma_extreme(kappas, zeta, law),
                                  law.cdf(np.log(kappas / zeta)).max(axis=-1))


def test_gamma_extreme_matches_the_ratio_max_where_zeta_holds_zeros():
    # the running max over dates gives the bits of the (N, m) ratio max;
    # a zeta_j of 0 still reads as ratio +inf, Gamma 1, with no warning
    law = increment_law_for(BS4)
    zeta = _bs_zeta(pseudo_uniform(64, 3, ScrambleSeed(11, 0)).values, law, BS4.s0)
    zeta[::5, 1] = 0.0
    zeta[::7, 3] = 0.0
    levels = np.array([90.0, 90, 90, 100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gamma_extreme(levels, zeta, law)
    with np.errstate(divide="ignore"):
        old = law.cdf(np.log((levels / zeta).max(axis=-1)))
    np.testing.assert_array_equal(g, old)
    assert np.all(g[::5] == 1.0) and np.all(g[::7] == 1.0) and np.any(g < 1.0)


def test_gamma_bounds_stay_in_unit_interval():
    law = increment_law_for(BS4)
    v = pseudo_uniform(256, 3, ScrambleSeed(10, 0)).values
    zeta = _bs_zeta(v, law, BS4.s0)
    for g in (gamma_average(100.0, zeta, law),
              gamma_extreme(np.array([90.0, 90, 90, 100.0]), zeta, law),
              _gamma_date(2, 100.0, zeta, law)):
        assert np.all((g >= 0.0) & (g <= 1.0))


def test_gamma_average_is_continuous_in_conditioning():
    law = increment_law_for(BS4)
    v = pseudo_uniform(16, 3, ScrambleSeed(11, 0)).values
    x = _bs_x_rest(v, law)
    base = gamma_average(100.0, _zeta(x, BS4.s0), law)
    for j in range(3):
        bumped = x.copy()
        bumped[:, j] += 1e-6
        assert np.max(np.abs(gamma_average(100.0, _zeta(bumped, BS4.s0), law) - base)) <= 1e-4


@pytest.mark.parametrize("model", [
    BS4,
    NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032, r=0.04, T=1.0, m=4),
], ids=["bs4", "nig4"])
def test_conditional_paths_match_zero_first_increment(model):
    # the production zeta map against the hand-built s0 exp(x_2 + ... + x_i),
    # x = G of the trailing block of U applied to z_{2:d}, with and without
    # a pinned rotation (Heston zeta: test_factorization_reproduces_paths)
    law = increment_law_for(model)
    v = pseudo_uniform(64, 3, ScrambleSeed(17, 0)).values
    W = taylor_weight(path_map(model, identity_transform(4)), "barrier", 4)
    for transform in (identity_transform(4), mqr_transform(W)):
        x_rest = law.normal(special.ndtri(v) @ transform.U[1:, 1:].T)
        np.testing.assert_allclose(factorization(model, transform)[1](v),
                                   _zeta(x_rest, model.s0), rtol=1e-14)


def test_conditional_path_where_the_mean_step_leaves_the_float_range():
    # a = (r - sigma^2/2) dt = -749.4: exp(a) underflows and exp(-a)
    # overflows, so zeta cannot be the path at z_1 = 0 times exp(-a)
    model = BlackScholesSpec(s0=100.0, r=0.04, sigma=10.0, T=30.0, m=2)
    v = pseudo_uniform(64, 1, ScrambleSeed(17, 0)).values
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zeta = factorization(model, identity_transform(2))[1](v)
        report = run("sQMC-I", PayoffSpec.for_model("binary-asian", model, 100.0), model,
                     n=256, reps=4, seed=1)
    np.testing.assert_allclose(zeta, _bs_zeta(v, increment_law_for(model), model.s0), rtol=1e-13)
    assert np.isfinite(report.estimate)


# ---------------------------------------------------------------------------
# Heston bounds


def _hand_heston_zeta(hes):
    # all shocks zero -> drift-only zetas
    v, log_s, zetas = hes.v0, np.log(hes.s0), []
    for _ in range(hes.m):
        log_s += (hes.r - 0.5 * v) * hes.dt
        zetas.append(np.exp(log_s))
        v += hes.nu * (hes.theta_bar - v) * hes.dt
    return np.array([zetas])


def test_heston_gamma_average_hand_loop():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=4)
    zeta = _hand_heston_zeta(hes)
    c = np.sqrt((1 - hes.rho ** 2) * hes.v0 * hes.dt)
    want = special.ndtr((np.log(100.0 * 4) - np.log(zeta.sum())) / c)
    law, conditional = factorization(hes, identity_transform(8))
    assert gamma_average(100.0, zeta, law)[0] == pytest.approx(want, abs=1e-12)
    u_rest = np.full((1, 7), 0.5)
    np.testing.assert_allclose(conditional(u_rest), zeta, rtol=1e-14)
    got = _heston_gamma_average(100.0, u_rest, hes, identity_transform(8))[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_heston_gamma_average_degenerate_matches_bs():
    # sigma_v = 0, rho = 0, v0 = theta_bar: the variance stays flat and the
    # bound must coincide with the Black-Scholes one at sigma = sqrt(v0),
    # with the asset shocks sitting on the odd conditioning coordinates
    m = 8
    hes = HestonSpec(s0=100.0, v0=0.09, r=0.04, theta_bar=0.09, nu=1.0,
                     sigma_v=0.0, rho=0.0, m=m)
    bs = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=m)
    law = increment_law_for(bs)
    u_rest = pseudo_uniform(50, 2 * m - 1, ScrambleSeed(12, 0)).values
    hes_law, conditional = factorization(hes, identity_transform(2 * m))
    got = gamma_average(100.0, conditional(u_rest), hes_law)
    asset = u_rest[:, 1::2][:, : m - 1]  # original coordinates 3, 5, ...
    want = gamma_average(100.0, _bs_zeta(asset, law, bs.s0), law)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_heston_gamma_average_vanishing_strike():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=4)
    u_rest = pseudo_uniform(8, 7, ScrambleSeed(13, 0)).values
    assert np.all(_heston_gamma_average(1e-8, u_rest, hes, identity_transform(8)) <= 1e-12)


def test_heston_gamma_extreme_single_date():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=1)
    u_rest = pseudo_uniform(16, 1, ScrambleSeed(14, 0)).values
    law, conditional = factorization(hes, identity_transform(2))
    ga = gamma_extreme(np.array([95.0]), conditional(u_rest), law)
    gb = _heston_gamma_average(95.0, u_rest, hes, identity_transform(2))
    np.testing.assert_allclose(ga, gb, atol=1e-12)


def test_gamma_extreme_where_the_heston_zeta_underflows():
    # at sigma_v 5 some conditional paths underflow to zeta_j = 0; such a
    # path is knocked out whatever u_1 is, so Gamma is 1 and the smoothed
    # integrand weighs it 0, with no divide or overflow warning
    hes = HestonSpec(s0=100, v0=4.0, r=0.04, theta_bar=0.0, nu=0.0, sigma_v=5.0,
                     rho=-0.99, T=10.0, m=8)
    payoff = PayoffSpec.for_model("barrier-down-out", hes, 100.0, 90.0)
    u = scrambled_sobol(1024, hes.d, ScrambleSeed(12345, 0)).values
    for method in ("sQMC-I", "sQMC-II"):
        problem = build_separable(payoff, hes, method_transform(method, payoff, hes))
        zeta = problem.conditional(u[:, 1:])
        zero = np.any(zeta == 0.0, axis=1)
        assert zero.any()
        assert np.all(problem.lower(zeta)[zero] == 1.0)
        values = evaluate_smoothed(problem, u)
        assert np.all(np.isfinite(values)) and np.all(values[zero] == 0.0)
        assert np.isfinite(run(method, payoff, hes, 1024, 4, 12345).estimate)


def test_heston_bounds_reject_unpinned_transform():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=2)
    rng = np.random.default_rng(0)
    full = qr_transform(rng.normal(size=(4, 1)))
    with pytest.raises(ValueError):
        _heston_gamma_average(100.0, np.full((1, 3), 0.5), hes, full)


# ---------------------------------------------------------------------------
# assembled separable problems


def _pointwise_check(payoff, model, transform, n=10_000, seed=100):
    problem = build_separable(payoff, model, transform)
    u = pseudo_uniform(n, problem.d, ScrambleSeed(seed, 0)).values
    direct = payoff_value(payoff, path_map(model, transform)(special.ndtri(u)))
    zeta = problem.conditional(u[:, 1:])
    inside = u[:, 0] > problem.lower(zeta)
    separated = problem.factor(u[:, 0], zeta) * inside
    assert np.max(np.abs(separated - direct)) <= 1e-10
    assert inside.mean() > 0.01  # both branches genuinely exercised
    assert inside.mean() < 0.99


def test_separable_matches_direct_payoff_bs():
    for kind, strike, barrier in (("binary-asian", 100.0, None),
                                  ("asian-delta", 100.0, None),
                                  ("barrier-down-out", 100.0, 90.0)):
        payoff = PayoffSpec.for_model(kind, BS4, strike, barrier)
        _pointwise_check(payoff, BS4, identity_transform(4))


def test_separable_matches_direct_payoff_bs_rotated():
    law = increment_law_for(BS4)
    ident = identity_transform(4)
    for kind, strike, barrier in (("binary-asian", 100.0, None),
                                  ("barrier-down-out", 100.0, 90.0)):
        payoff = PayoffSpec.for_model(kind, BS4, strike, barrier)
        W = taylor_weight(lambda z: paths_exp_levy(law, BS4.s0, z, ident),
                          payoff.weight_kind, 4)
        _pointwise_check(payoff, BS4, mqr_transform(W))


def test_separable_matches_direct_payoff_nig():
    nig = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
                  r=0.04, T=1.0, m=4)
    payoff = PayoffSpec.for_model("binary-asian", nig, 100.0)
    _pointwise_check(payoff, nig, identity_transform(4), seed=101)


def test_separable_matches_direct_payoff_heston():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=4)
    for kind, strike, barrier in (("binary-asian", 100.0, None),
                                  ("barrier-down-out", 100.0, 90.0)):
        payoff = PayoffSpec.for_model(kind, hes, strike, barrier)
        _pointwise_check(payoff, hes, identity_transform(8), seed=102)


def test_separable_rejects_full_qr():
    payoff = PayoffSpec.for_model("binary-asian", BS4, 100.0)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        build_separable(payoff, BS4, qr_transform(rng.normal(size=(4, 1))))


def test_separable_rejects_dimension_mismatch():
    payoff = PayoffSpec.for_model("binary-asian", BS4, 100.0)
    with pytest.raises(ValueError):
        build_separable(payoff, BS4, identity_transform(5))


def test_delta_factor_independent_of_strike_indicator():
    # the smooth factor is disc * S_A / s0 everywhere; the strike enters
    # only through the interval bounds
    payoff = PayoffSpec.for_model("asian-delta", BS4, 100.0)
    problem = build_separable(payoff, BS4, identity_transform(4))
    u = pseudo_uniform(100, 4, ScrambleSeed(15, 0)).values
    S = paths_exp_levy(increment_law_for(BS4), BS4.s0, special.ndtri(u),
                       identity_transform(4))
    want = payoff.discount * S.mean(axis=1) / BS4.s0
    np.testing.assert_allclose(problem.factor(u[:, 0], problem.conditional(u[:, 1:])), want,
                               atol=1e-12)


def test_separable_orientation_validation():
    # the payout region is the one-sided {u_1 > Gamma}: Gamma is a
    # probability and the separated raw integrand is f(u) 1{u_1 > Gamma}
    payoff = PayoffSpec.for_model("binary-asian", BS4, 100.0)
    problem = build_separable(payoff, BS4, identity_transform(4))
    u = pseudo_uniform(10, 4, ScrambleSeed(16, 0)).values
    zeta = problem.conditional(u[:, 1:])
    g = problem.lower(zeta)
    assert np.all((g >= 0.0) & (g <= 1.0))
    np.testing.assert_array_equal(evaluate_indicator(problem, u),
                                  problem.factor(u[:, 0], zeta) * (u[:, 0] > g))
