"""Effective-dimension statistics against analytic and quadrature oracles."""

import numpy as np
import pytest

from smoothqmc.effdim import DimensionReport, dimension_report
from smoothqmc.errors import NumericalError

from oracles import g_anova, g_function, g_quadrature

N = 2 ** 13


# ---------------------------------------------------------------------------
# trivial integrands


def test_single_coordinate_truncation():
    h = lambda u: np.atleast_2d(u)[:, 0]
    assert dimension_report(h, 3, N, seed=1).truncation[0] == pytest.approx(1.0, abs=0.01)
    h2 = lambda u: np.atleast_2d(u)[:, 1]
    trunc2 = dimension_report(h2, 3, N, seed=1).truncation
    assert trunc2[0] == pytest.approx(0.0, abs=0.01)
    assert trunc2[1] == pytest.approx(1.0, abs=0.01)


def test_additive_integrand_is_fully_first_order():
    h = lambda u: np.atleast_2d(u).sum(axis=1)
    report = dimension_report(h, 4, N, seed=2)
    assert report.r_order1 == pytest.approx(1.0, abs=0.02)
    assert report.d_ms == pytest.approx(1.0, abs=0.02)


def test_pure_interaction_has_no_first_order_part():
    h = lambda u: np.prod(np.atleast_2d(u) - 0.5, axis=1)
    report = dimension_report(h, 3, N, seed=3)
    assert report.r_order1 == pytest.approx(0.0, abs=0.02)
    assert report.d_ms == pytest.approx(3.0, abs=0.05)


def test_truncation_dimension_trivials():
    h = lambda u: np.atleast_2d(u)[:, 0]
    assert dimension_report(h, 3, N, seed=4).d_t == 1
    additive = lambda u: np.atleast_2d(u).sum(axis=1)
    # equal shares of 1/4 each: only the full prefix reaches 99 percent
    assert dimension_report(additive, 4, N, seed=4, p=0.99).d_t == 4
    assert dimension_report(additive, 4, N, seed=4, p=0.45).d_t == 2


# ---------------------------------------------------------------------------
# oracle comparisons


def test_quadrature_oracle_agrees_with_closed_form():
    a = np.array([0.0, 0.5, 3.0])
    va, ta, fa, ma = g_anova(a)
    vq, tq, fq, mq = g_quadrature(a)
    assert vq == pytest.approx(va, rel=1e-12)
    np.testing.assert_allclose(tq, ta, atol=1e-12)
    assert fq == pytest.approx(fa, abs=1e-12)
    assert mq == pytest.approx(ma, abs=1e-12)


def test_g_function_report_matches_both_oracles():
    a = np.array([0.0, 0.5, 3.0])
    h = g_function(a)
    var, trunc, first, mdim = g_quadrature(a)
    report = dimension_report(h, 3, 2 ** 14, seed=5, p=0.98)
    assert isinstance(report, DimensionReport)
    np.testing.assert_allclose(report.truncation, trunc, atol=0.01)
    assert report.r_order1 == pytest.approx(first, abs=0.01)
    assert report.d_ms == pytest.approx(mdim, rel=0.01)
    assert report.total_variance == pytest.approx(var, rel=0.05)
    assert report.r_first == report.truncation[0]
    assert report.r_first_two == report.truncation[1]


def test_g_function_higher_dimension_closed_form():
    a = np.array([0.0, 0.5, 3.0, 9.0, 99.0, 99.0])
    h = g_function(a)
    _, trunc, first, mdim = g_anova(a)
    report = dimension_report(h, 6, 2 ** 14, seed=6, p=0.98)
    assert report.truncation[1] == pytest.approx(trunc[1], abs=0.01)
    assert report.r_order1 == pytest.approx(first, abs=0.015)
    assert report.d_ms == pytest.approx(mdim, rel=0.01)
    # R_2 = 0.935, R_3 = 0.991: the 0.98 threshold lands on ell = 3
    assert report.d_t == 3


# ---------------------------------------------------------------------------
# report structure


def test_full_prefix_ratio_is_exactly_one():
    h = g_function(np.array([0.0, 1.0, 2.0]))
    report = dimension_report(h, 3, 2 ** 12, seed=7)
    assert report.truncation[-1] == pytest.approx(1.0, abs=1e-12)
    assert report.d == 3


def test_integrand_call_count():
    # the two base blocks, d - 1 truncation hybrids (at l = d the hybrid is
    # the base block itself), and d hybrids shared by the first-order and
    # total indices
    calls = []

    def counted(u):
        calls.append(len(u))
        return np.atleast_2d(u).sum(axis=1)

    for d in (1, 2, 5):
        calls.clear()
        report = dimension_report(counted, d, 256, seed=13)
        assert len(calls) == 2 * d + 1
        assert len(report.truncation) == d


def test_truncation_ratios_increase():
    h = g_function(np.array([0.0, 0.5, 3.0, 9.0]))
    report = dimension_report(h, 4, 2 ** 14, seed=8)
    diffs = np.diff(report.truncation)
    assert np.all(diffs >= -0.02)  # sampling noise only


def test_estimates_tighten_with_n():
    a = np.array([0.0, 0.5, 3.0])
    _, _, _, mdim = g_anova(a)
    h = g_function(a)
    coarse = dimension_report(h, 3, 2 ** 10, seed=9).d_ms
    fine = dimension_report(h, 3, 2 ** 16, seed=9).d_ms
    assert abs(fine - mdim) <= 0.005
    assert abs(coarse - mdim) <= 0.05


def test_degenerate_and_invalid_inputs():
    const = lambda u: np.ones(np.atleast_2d(u).shape[0])
    with pytest.raises(NumericalError):
        dimension_report(const, 3, 256, seed=10)
    h = lambda u: np.atleast_2d(u)[:, 0]
    with pytest.raises(ValueError):
        dimension_report(h, 3, 256, seed=10, p=1.5)
    with pytest.raises(ValueError):
        dimension_report(h, 3, 256, seed=10, p=0.0)


def test_report_deterministic_in_seed():
    h = g_function(np.array([0.0, 2.0]))
    r1 = dimension_report(h, 2, 2 ** 10, seed=11)
    r2 = dimension_report(h, 2, 2 ** 10, seed=11)
    assert r1.truncation == r2.truncation
    assert r1.d_ms == r2.d_ms
    r3 = dimension_report(h, 2, 2 ** 10, seed=12)
    assert r1.truncation != r3.truncation


def test_non_finite_statistics_raise():
    # finite on the base block, so the variance check passes; a non-finite
    # hybrid evaluation must not come back as a nan statistic
    calls = []

    def flaky(u):
        calls.append(len(u))
        out = np.atleast_2d(u)[:, 0].copy()
        if len(calls) > 1:
            out[0] = np.nan
        return out

    with pytest.raises(NumericalError):
        dimension_report(flaky, 3, 256, seed=10)
