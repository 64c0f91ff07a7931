"""Push-out smoothing: the map itself, smoothed evaluation, variance bound."""

import dataclasses

import numpy as np
import pytest
from scipy import special

from smoothqmc.estimators import weight_matrix
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    NigSpec,
    nominal_dim,
    path_map,
)
from smoothqmc.payoffs import PayoffSpec, SeparableProblem, build_separable
from smoothqmc.points import EPS, ScrambleSeed, pseudo_uniform
from smoothqmc.smoothing import (
    _variance_se,
    evaluate_indicator,
    evaluate_smoothed,
    variance_bound_check,
    vpo_map,
)
from smoothqmc.transforms import identity_transform, mqr_transform

BS16 = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)


def _problem(kind, strike=100.0, barrier=None, model=BS16):
    payoff = PayoffSpec.for_model(kind, model, strike, barrier)
    return build_separable(payoff, model, identity_transform(model.m))


def _constant_problem(g1, d=3):
    # the conditional state is the conditioning block itself
    return SeparableProblem(
        conditional=lambda v: np.atleast_2d(v),
        lower=lambda state: np.full(state.shape[0], g1),
        factor=lambda u1, state: np.ones(state.shape[0]),
        d=d)


# ---------------------------------------------------------------------------
# the push-out map


def test_vpo_map_unit_interval_is_identity():
    u = np.linspace(0.05, 0.95, 19)
    pushed, w = vpo_map(u, np.zeros(19))
    np.testing.assert_allclose(pushed, u, atol=1e-15)
    np.testing.assert_allclose(w, 1.0)


def test_vpo_map_midpoint():
    pushed, w = vpo_map(np.array([0.5]), np.array([0.25]))
    assert pushed[0] == pytest.approx(0.625, abs=1e-15)
    assert w[0] == pytest.approx(0.75, abs=1e-15)


def test_vpo_map_empty_interval():
    # Gamma = 1 leaves no payout interval: zero weight, coordinate at the top
    u = np.array([0.1, 0.6, 0.9])
    pushed, w = vpo_map(u, np.ones(3))
    np.testing.assert_array_equal(w, 0.0)
    np.testing.assert_array_equal(pushed, 1.0 - EPS)


def test_vpo_map_clips_to_open_interval():
    pushed, _ = vpo_map(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert pushed[0] == EPS
    assert pushed[1] == 1.0 - EPS


def test_vpo_map_lands_inside_interval():
    rng = np.random.default_rng(2)
    u = rng.random(500)
    gamma = rng.random(500)
    pushed, w = vpo_map(u, gamma)
    assert np.all(pushed >= gamma - 1e-15)
    assert np.all(pushed <= 1.0)
    np.testing.assert_allclose(w, 1.0 - gamma)


# ---------------------------------------------------------------------------
# smoothed evaluation


def test_constant_problem_smooths_to_interval_length():
    problem = _constant_problem(0.2)
    u = pseudo_uniform(50, 3, ScrambleSeed(3, 0)).values
    np.testing.assert_allclose(evaluate_smoothed(problem, u), 0.8, atol=1e-15)


def test_smoothed_mean_hits_reference_price():
    # binary Asian, sigma=0.3, r=0.04, K=s0=100, 16 dates: price 0.4848
    problem = _problem("binary-asian")
    h = evaluate_smoothed(problem, pseudo_uniform(10 ** 5, 16, ScrambleSeed(4, 0)).values)
    se = h.std(ddof=1) / np.sqrt(h.size)
    assert abs(h.mean() - 0.4848) <= 3 * se + 1e-4


def test_smoothed_matches_raw_in_expectation():
    for kind, barrier in (("binary-asian", None), ("asian-delta", None),
                          ("barrier-down-out", 90.0)):
        problem = _problem(kind, barrier=barrier)
        u = pseudo_uniform(20_000, 16, ScrambleSeed(5, 0)).values
        smooth = evaluate_smoothed(problem, u)
        raw = evaluate_indicator(problem, pseudo_uniform(20_000, 16, ScrambleSeed(5, 1)).values)
        se = np.hypot(smooth.std(ddof=1), raw.std(ddof=1)) / np.sqrt(20_000)
        assert abs(smooth.mean() - raw.mean()) <= 3 * se


def test_smoothed_checks_dimension():
    problem = _problem("binary-asian")
    with pytest.raises(ValueError):
        evaluate_smoothed(problem, np.full((4, 15), 0.5))
    with pytest.raises(ValueError):
        evaluate_indicator(problem, np.full((4, 15), 0.5))


def test_binary_smoothed_is_flat_in_first_coordinate():
    # constant smooth factor: pushing out removes u_1 entirely
    problem = _problem("binary-asian")
    u = pseudo_uniform(32, 16, ScrambleSeed(7, 0)).values
    shifted = u.copy()
    shifted[:, 0] = 1.0 - shifted[:, 0]
    np.testing.assert_allclose(evaluate_smoothed(problem, u),
                               evaluate_smoothed(problem, shifted), atol=1e-14)


def test_smoothing_restores_continuity_at_the_boundary():
    # raw integrand jumps by the full factor across Gamma_1; the smoothed
    # one moves in proportion to the offset
    problem = _problem("asian-delta")
    v = np.full((1, 15), 0.5)
    g1 = float(problem.lower_bound(v)[0])
    assert 0.01 < g1 < 0.99
    prev = None
    for delta in (1e-3, 1e-4, 1e-5):
        lo = np.concatenate([[[g1 - delta]], v], axis=1)
        hi = np.concatenate([[[g1 + delta]], v], axis=1)
        raw_jump = abs(evaluate_indicator(problem, hi)[0] - evaluate_indicator(problem, lo)[0])
        smooth_jump = abs(evaluate_smoothed(problem, hi)[0] - evaluate_smoothed(problem, lo)[0])
        assert raw_jump > 0.1  # discontinuity does not shrink with delta
        assert smooth_jump <= 5.0 * delta
        if prev is not None:
            assert smooth_jump < prev
        prev = smooth_jump


# ---------------------------------------------------------------------------
# variance bound


def test_variance_bound_constant_interval():
    report = variance_bound_check(_constant_problem(0.8), n=4000, seed=11)
    assert report.c_hat == pytest.approx(0.2, abs=1e-12)
    assert report.var_smoothed <= 1e-30  # constant integrand, ulp residue only
    assert report.var_raw > 0.0
    assert report.bound_satisfied
    assert report.slack >= 0.0


def test_variance_bound_binary_asian():
    report = variance_bound_check(_problem("binary-asian"), n=20_000, seed=12)
    assert report.bound_satisfied
    assert report.var_smoothed < report.var_raw
    assert 0.0 < report.c_hat <= 1.0


def test_variance_bound_barrier():
    report = variance_bound_check(_problem("barrier-down-out", barrier=90.0),
                                  n=20_000, seed=13)
    assert report.bound_satisfied
    assert report.var_smoothed < report.var_raw


def test_variance_bound_builds_one_conditional_path():
    # one conditional path per call, and the report that separate raw,
    # smoothed and bound evaluations of the same points give
    problem = _problem("barrier-down-out", barrier=90.0)
    calls = []

    def conditional(v):
        calls.append(len(v))
        return problem.conditional(v)

    report = variance_bound_check(dataclasses.replace(problem, conditional=conditional),
                                  n=4096, seed=14)
    assert calls == [4096]
    u = pseudo_uniform(4096, problem.d, ScrambleSeed(14)).values
    raw, smoothed = evaluate_indicator(problem, u), evaluate_smoothed(problem, u)
    c_hat = float(1.0 - problem.lower_bound(u[:, 1:]).min())
    assert report.var_raw == float(np.var(raw, ddof=1))
    assert report.var_smoothed == float(np.var(smoothed, ddof=1))
    assert report.c_hat == c_hat
    assert report.slack == 3.0 * float(np.hypot(_variance_se(smoothed), c_hat * _variance_se(raw)))
    assert report.bound_satisfied


# ---------------------------------------------------------------------------
# the smooth factor reuses the conditional path


def _direct_factor(payoff, paths):
    if payoff.kind == "binary-asian":
        return np.full(paths.shape[0], payoff.discount)
    if payoff.kind == "asian-delta":
        return payoff.discount * paths.mean(axis=1) / payoff.s0
    return payoff.discount * (paths[:, -1] - payoff.strike)


@pytest.mark.parametrize("model", [
    BS16,
    NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
            r=0.04, T=1.0, m=4),
    HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
               sigma_v=0.2, rho=0.5, m=4),
], ids=["bs16", "nig4", "heston4"])
def test_smoothed_factor_matches_direct_paths_at_pushed_point(model):
    # exp(xi(u_1~)) zeta against paths rebuilt from scratch at (u_1~, u_2..u_d)
    d = nominal_dim(model)
    u = pseudo_uniform(2000, d, ScrambleSeed(17, 0)).values
    for kind, barrier in (("binary-asian", None), ("asian-delta", None),
                          ("barrier-down-out", 90.0)):
        payoff = PayoffSpec.for_model(kind, model, 100.0, barrier)
        for transform in (identity_transform(d), mqr_transform(weight_matrix(payoff, model))):
            problem = build_separable(payoff, model, transform)
            pushed_u1, weight = vpo_map(u[:, 0], problem.lower_bound(u[:, 1:]))
            pushed = u.copy()
            pushed[:, 0] = pushed_u1
            paths = path_map(model, transform)(special.ndtri(pushed))
            want = weight * _direct_factor(payoff, paths)
            gap = np.max(np.abs(evaluate_smoothed(problem, u) - want))
            assert gap <= 1e-10, (kind, transform.kind, gap)
            assert 0.0 < np.mean(weight) < 1.0  # the push-out moves points
