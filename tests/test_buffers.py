"""Arrays a layer keeps from one call to the next never reach its caller.

Two calls on different inputs return arrays that share no memory, the
first result is unchanged by the second call, the inputs are unchanged
by both, and a function given out= returns out.
"""

import numpy as np
import pytest
from scipy import special

from smoothqmc.estimators import METHODS, analysis_integrand, method_integrand, method_transform
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    NigSpec,
    factorization,
    increment_law_for,
    path_map,
    paths_exp_levy,
    paths_heston,
)
from smoothqmc.payoffs import PayoffSpec
from smoothqmc.points import ScrambleSeed, SobolSource, pseudo_uniform, scramble

BS = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=8)
NIG = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032, r=0.04, T=1.0, m=8)
HES = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=0.5, m=8)
MODELS = pytest.mark.parametrize("model", [BS, NIG, HES], ids=["bs8", "nig8", "hes8"])
N = 300


def _uniforms(d, k):
    return pseudo_uniform(N, d, ScrambleSeed(5, k)).values


def _assert_fresh(f, a, b):
    a_in, b_in = np.copy(a), np.copy(b)
    first = f(a)
    kept = first.copy()
    second = f(b)
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)
    assert not np.array_equal(first, second)  # so an overwritten first would show
    np.testing.assert_array_equal(a, a_in)
    np.testing.assert_array_equal(b, b_in)


def _rotation(model, method="sQMC-II"):
    payoff = PayoffSpec.for_model("barrier-down-out", model, 100.0, 90.0)
    return method_transform(method, payoff, model)


@pytest.mark.parametrize("method", METHODS)
@MODELS
def test_integrands_return_new_arrays(model, method):
    payoff = PayoffSpec.for_model("asian-delta", model, 100.0)
    _assert_fresh(method_integrand(method, payoff, model),
                  _uniforms(model.d, 0), _uniforms(model.d, 1))
    h, dim = analysis_integrand(method, payoff, model)
    _assert_fresh(h, _uniforms(dim, 2), _uniforms(dim, 3))


@pytest.mark.parametrize("method", ["sQMC-I", "sQMC-II"])
@MODELS
def test_zeta_map_returns_new_arrays(model, method):
    _, zeta = factorization(model, _rotation(model, method))
    _assert_fresh(zeta, _uniforms(model.d - 1, 0), _uniforms(model.d - 1, 1))


@pytest.mark.parametrize("method", ["MC", "QMC-II", "sQMC-II"])
@MODELS
def test_path_maps_return_new_arrays_or_out(model, method):
    transform = _rotation(model, method)
    if isinstance(model, HestonSpec):
        direct = lambda z, out=None: paths_heston(model, z, transform, out)
    else:
        direct = lambda z, out=None: paths_exp_levy(increment_law_for(model), model.s0,
                                                    z, transform, out)
    za, zb = (special.ndtri(_uniforms(model.d, k)) for k in (0, 1))
    for paths in (path_map(model, transform), direct):
        _assert_fresh(paths, za, zb)
        _assert_fresh(paths, za[:1], zb[:1])  # a one-row transpose is no copy
        out = np.empty((N, model.m))
        assert paths(za, out=out) is out
        np.testing.assert_array_equal(out, paths(za))


def test_point_sets_return_new_arrays_or_out():
    def sobol(k, out=None):
        return scramble(SobolSource(N, 8), ScrambleSeed(5, k), out=out).values

    def mc(k, out=None):
        return pseudo_uniform(N, 8, ScrambleSeed(5, k), out=out).values

    for points in (sobol, mc):
        _assert_fresh(points, 0, 1)
        out = np.empty((N, 8))
        assert points(0, out=out) is out
        np.testing.assert_array_equal(out, points(0))
