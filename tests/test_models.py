"""Model layer: increment laws, NIG numerics, path construction."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.interpolate import CubicHermiteSpline

from smoothqmc.errors import NoEsscherRootError
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    ModelSpec,
    NigSpec,
    esscher_theta,
    factorization,
    increment_law_for,
    nig_density,
    nig_numerical_law,
    nominal_dim,
    path_map,
    paths_exp_levy,
    paths_heston,
)
from smoothqmc.models import (
    _NORMAL_CHUNK,
    _Z_NODES,
    _domain_half_width,
    _spline_on_x_nodes,
    _spline_on_z_nodes,
)
from smoothqmc.points import ScrambleSeed, pseudo_uniform
from smoothqmc.transforms import apply_transform, identity_transform, mqr_transform, taylor_weight

from oracles import nig_mgf

BS = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)
NIG = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
              r=0.04, T=1.0, m=16)


# ---------------------------------------------------------------------------
# Black-Scholes increments


def test_bs_increment_parameters():
    law = increment_law_for(BS)
    assert law.normal(0.0) == pytest.approx((0.04 - 0.045) / 16, abs=1e-15)
    assert law.normal(1.0) - law.normal(0.0) == pytest.approx(0.075, abs=1e-15)
    assert law.residuals is None  # exact law, nothing built
    y = np.linspace(-8.0, 8.0)
    np.testing.assert_allclose(law.to_normal(law.normal(y)), y, rtol=0.0, atol=1e-14)
    sym = increment_law_for(BlackScholesSpec(s0=1.0, r=0.045, sigma=0.3, T=1.0, m=16))
    assert sym.cdf(0.0) == pytest.approx(0.5, abs=1e-14)


def test_bs_round_trip():
    unit = increment_law_for(BlackScholesSpec(s0=1.0, r=0.3, sigma=1.0, T=1.0, m=1))
    for x in (-1.0, 0.0, 1.0):
        assert unit.inv(unit.cdf(x)) == pytest.approx(x, abs=1e-12)
    # narrow per-step law: same identity inside its representable range
    law = increment_law_for(BS)
    for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
        x = law.normal(k)
        assert law.inv(law.cdf(x)) == pytest.approx(x, abs=1e-12)
    x = law.normal(5.0)  # tails lose a couple of digits to cdf conditioning
    assert law.inv(law.cdf(x)) == pytest.approx(x, abs=1e-9)


# ---------------------------------------------------------------------------
# NIG density / MGF / Esscher parameter


def test_nig_density_integrates_to_one():
    # independent adaptive-quadrature oracle, not the Simpson grid
    mass, err = integrate.quad(nig_density, NIG.mu - 40 * NIG.delta,
                               NIG.mu + 40 * NIG.delta,
                               args=(NIG.alpha, NIG.beta, NIG.mu, NIG.delta),
                               limit=200)
    assert abs(mass - 1.0) <= 1e-6
    assert err < 1e-8


def test_nig_density_symmetry_and_validation():
    for x in (0.1, 1.0, 3.0):
        assert nig_density(x, 2.0, 0.0, 0.0, 1.5) == pytest.approx(
            nig_density(-x, 2.0, 0.0, 0.0, 1.5), abs=1e-12)
    with pytest.raises(ValueError):
        nig_density(0.0, 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        nig_density(0.0, 1.0, 0.5, 0.0, -1.0)


def test_nig_mode_left_of_mu_after_esscher():
    beta_shifted = NIG.beta + NIG.theta  # negative skew
    assert beta_shifted < 0
    res = optimize.minimize_scalar(
        lambda x: -nig_density(x, NIG.alpha, beta_shifted, NIG.mu, NIG.delta),
        bounds=(NIG.mu - NIG.delta, NIG.mu + NIG.delta), method="bounded")
    assert res.x < NIG.mu


def test_nig_mgf_values():
    assert nig_mgf(0.0, *[NIG.alpha, NIG.beta, NIG.mu, NIG.delta]) == pytest.approx(1.0)
    assert nig_mgf(1.2, 3.0, 0.0, 0.0, 1.0) == pytest.approx(nig_mgf(-1.2, 3.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        nig_mgf(140.0, *[NIG.alpha, NIG.beta, NIG.mu, NIG.delta])


def test_nig_mgf_derivative_matches_quadrature_mean():
    args = (NIG.alpha, NIG.beta, NIG.mu, NIG.delta)
    h = 1e-6
    dlogm = (np.log(nig_mgf(h, *args)) - np.log(nig_mgf(-h, *args))) / (2 * h)
    mean, _ = integrate.quad(lambda x: x * nig_density(x, *args),
                             NIG.mu - 40 * NIG.delta, NIG.mu + 40 * NIG.delta,
                             limit=200)
    assert dlogm == pytest.approx(mean, abs=1e-6)


def test_esscher_theta_paper_value_and_residual():
    theta = esscher_theta(NIG.alpha, NIG.beta, NIG.mu, NIG.delta, 0.04)
    assert theta == pytest.approx(-4.87, abs=0.01)
    args = (NIG.alpha, NIG.beta, NIG.mu, NIG.delta)
    residual = np.log(nig_mgf(theta + 1.0, *args) / nig_mgf(theta, *args)) - 0.04
    assert abs(residual) <= 1e-10


def test_esscher_theta_monotone_in_rate():
    lo = esscher_theta(NIG.alpha, NIG.beta, NIG.mu, NIG.delta, 0.04)
    hi = esscher_theta(NIG.alpha, NIG.beta, NIG.mu, NIG.delta, 0.041)
    assert hi > lo


def test_esscher_no_root_error():
    # alpha < 1/2 leaves no room for the theta+1 shift
    with pytest.raises(NoEsscherRootError):
        esscher_theta(0.4, 0.0, 0.0, 1.0, 0.0)


def _esscher_cases(alphas, ks, r=0.04):
    # a root exists iff c^2 <= 2 alpha - 1, c = (r - mu) / delta
    for alpha in alphas:
        for delta in (1e-3, 4.032, 30.0):
            for beta in (-0.9 * alpha, 0.0, 0.9 * alpha):
                for k in ks:
                    mu = r - k * np.sqrt(2.0 * alpha - 1.0) * delta
                    yield alpha, beta, mu, delta, r


def test_esscher_closed_form_solves_the_martingale_equation():
    def residual(theta):
        def gamma(b):  # clamped at the domain edge, as the residual is there
            return np.sqrt(max((alpha - b) * (alpha + b), 0.0))
        s = beta + theta
        return mu + delta * (gamma(s) - gamma(s + 1.0)) - r

    cases = _esscher_cases((0.5, 0.6, 1.0, 3.0, 105.96, 300.0), (0.0, 0.5, -0.5, 0.999, -0.999))
    for alpha, beta, mu, delta, r in cases:
        theta = esscher_theta(alpha, beta, mu, delta, r)
        # The residual rises in theta.  As s + 1 nears alpha its slope
        # blows up, and even the double nearest the root leaves more than
        # 1e-10 (4.6e-10 at alpha 105.96, delta 4.032, k 0.5); so the bound
        # is 1e-10 plus the rise over 4 ulps either side of theta.
        step = 4.0 * np.spacing(max(abs(theta), abs(beta), 1.0))
        rise = residual(theta + step) - residual(theta - step)
        assert abs(residual(theta)) <= 1e-10 + rise, (alpha, beta, mu, delta)


def test_esscher_no_root_just_past_the_boundary():
    for case in _esscher_cases((0.6, 1.0, 3.0, 105.96, 300.0), (1.0 + 1e-9, -1.0 - 1e-9)):
        with pytest.raises(NoEsscherRootError):
            esscher_theta(*case)


def test_esscher_closed_form_matches_the_bracketed_root():
    # the bracketed brentq root that the closed form replaced
    assert abs(NIG.theta - -4.870885003754478) <= 1e-11


# ---------------------------------------------------------------------------
# NIG numerical inversion


def test_nig_inverse_round_trip():
    law = increment_law_for(NIG)
    # off-grid probabilities, distinct from any construction-time grid
    u = (np.sqrt(5) - 1) / 2 * (np.arange(1, 10_001) % 9973) / 9973
    u = np.clip(u, 1e-6, 1 - 1e-6)
    err = np.max(np.abs(law.cdf(law.inv(u)) - u))
    assert err <= 1e-8


def test_nig_inverse_is_pointwise():
    # the inverse is an interpolant evaluated value by value, tails
    # included: inverting a batch equals inverting each value alone
    law = increment_law_for(NIG)
    u = np.concatenate([np.geomspace(2.0 ** -32, 1e-5, 200), np.linspace(1e-5, 1 - 1e-5, 201),
                        1.0 - np.geomspace(1e-5, 2.0 ** -32, 200)])
    single = np.array([law.inv(u[i:i + 1])[0] for i in range(u.size)])
    np.testing.assert_array_equal(law.inv(u), single)


def test_nig_law_builds_at_fine_time_grids():
    # per-step tails decay like exp(-(alpha - |beta|)|x|) however small
    # delta dt gets, so mu +/- 40 delta dt alone loses mass at m = 2000;
    # with a slow tail decay the grid spans up to 4e5 deltas, and its
    # nodes must still resolve the peak of width delta
    fine = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
                   r=0.04, T=1.0, m=2000)
    u = np.linspace(1e-6, 1 - 1e-6, 10_001)
    for law in (increment_law_for(fine), nig_numerical_law(20.0, 19.0, 0.0, 2e-4),
                nig_numerical_law(1.0, 0.5, 0.0, 1e-4)):
        assert np.max(np.abs(law.cdf(law.inv(u)) - u)) <= 1e-8


def test_nig16_domain_stays_forty_step_deltas():
    for m, half_width in ((16, 10.08), (64, 2.52)):
        spec = dataclasses.replace(NIG, m=m)
        step_delta = spec.delta * spec.dt
        width = _domain_half_width(spec.alpha, spec.beta + spec.theta, step_delta)
        assert width == 40.0 * step_delta
        assert width == pytest.approx(half_width, rel=1e-12)


# Tilted beta + theta near -alpha: the law's mean mu + delta beta / gamma
# lies far from mu, and a grid centred on mu that spans only 40 delta or
# 20 tail decays lost mass (integral 0.9999414 and 0.9296708).
NIG_EDGE = (
    NigSpec(s0=100.0, alpha=161.5586, beta=-71.507, mu=3.9305, delta=0.3587,
            r=0.0057, T=5.0, m=1),
    NigSpec(s0=100.0, alpha=350.87, beta=-237.62, mu=273.38, delta=13.59,
            r=0.0977, T=5.0, m=16),
)


def test_nig_law_builds_near_the_esscher_edge():
    # the NIG_EDGE specs, then c = (r - mu) / delta a factor 1 - 10^-u inside
    # the edge sqrt(2 alpha - 1) past which no Esscher root exists; the build
    # checks its own 1e-8 round trip and raises DistributionBuildError when
    # any check fails
    rng = np.random.default_rng(2024)
    specs = list(NIG_EDGE)
    for _ in range(60):
        alpha = float(np.exp(rng.uniform(0.0, np.log(400.0))))
        delta = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        r = float(rng.uniform(0.0, 0.1))
        edge = np.sqrt(2.0 * alpha - 1.0)
        c = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** -rng.uniform(1.0, 6.0)) * edge
        specs.append(NigSpec(s0=100.0, alpha=alpha, beta=float(rng.uniform(-0.9, 0.9)) * alpha,
                             mu=float(r - c * delta), delta=delta, r=r,
                             T=float(rng.uniform(0.5, 5.0)), m=int(rng.choice([1, 16, 256]))))
    for spec in specs:
        increment_law_for.__wrapped__(spec)  # uncached


def test_nig_inverse_symmetric_median():
    law = nig_numerical_law(4.0, 0.0, 0.0, 1.0)
    assert abs(float(law.inv(np.array([0.5]))[0])) <= 1e-8


def test_nig_inverse_monotone_and_extreme_arguments():
    law = increment_law_for(NIG)
    u = np.concatenate([[2.0 ** -32], np.linspace(1e-5, 1 - 1e-5, 1001), [1 - 2.0 ** -32]])
    x = law.inv(u)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) > 0)
    # the ends of [0, 1] are clamped onto the outermost nodes
    x = law.inv(np.concatenate([[0.0, 1e-300], u, [1.0]]))
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) >= 0)


def test_nig_law_is_not_affine():
    # paths take their increments from the normal-space map G = F^-1(Phi),
    # which agrees with inverting Phi(y) and is not affine in y
    law = increment_law_for(NIG)
    y = np.linspace(-4.0, 4.0, 16)[None, :]
    x = law.normal(y)
    paths = paths_exp_levy(law, 1.0, y, identity_transform(16))
    np.testing.assert_array_equal(paths, np.exp(np.cumsum(x, axis=1)))
    assert np.max(np.abs(x - law.inv(special.ndtr(y)))) <= 1e-10
    assert np.ptp(np.diff(x)) > 1e-3


def test_nig_normal_map_tail_mass():
    # the mass beyond G(z) against adaptive quadrature of the density:
    # F(G(z)) = Phi(z) below the median, 1 - F(G(z)) = Phi(-z) above it
    law = increment_law_for(NIG)
    args = (NIG.alpha, NIG.beta + NIG.theta, NIG.mu * NIG.dt, NIG.delta * NIG.dt)
    mu, half_width = args[2], _domain_half_width(args[0], args[1], args[3])
    for z in (-7.0, -5.0, 0.0, 5.0, 6.0, 6.23, 7.0):
        x = float(law.normal(np.array([z]))[0])
        lo, hi = (mu - half_width, x) if z <= 0 else (x, mu + half_width)
        tail, _ = integrate.quad(nig_density, lo, hi, args=args, points=[mu],
                                 limit=500, epsabs=0.0, epsrel=1e-13)
        assert abs(tail / special.ndtr(-abs(z)) - 1.0) <= 1e-9, z


def test_nig_build_residuals():
    law = increment_law_for(NIG)
    assert law.residuals.nodes == 1025
    assert law.residuals.round_trip <= 1e-8
    assert law.residuals.mass_error <= 1e-6
    # outside the nodes the cdf is exactly 0 and 1
    x_lo, x_hi = law.normal(np.array([-np.inf, np.inf]))
    outside = np.array([x_lo - 1.0, x_lo, x_hi, x_hi + 1.0])
    np.testing.assert_array_equal(law.cdf(outside), [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(law.to_normal(outside), [-np.inf, -np.inf, np.inf, np.inf])
    # inside them to_normal inverts normal
    z = np.linspace(-7.99, 7.99, 100_001)
    assert np.max(np.abs(law.to_normal(law.normal(z)) - z)) <= 1e-10


def _z_node_spline(kind):
    if kind == "random":
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.uniform(0.01, 1.0, _Z_NODES.size))
        return CubicHermiteSpline(_Z_NODES, x, rng.uniform(0.01, 2.0, _Z_NODES.size))
    spec = {"nig16": NIG, "nig64": dataclasses.replace(NIG, m=64),
            "edge-m1": NIG_EDGE[0], "edge-m16": NIG_EDGE[1]}[kind]
    law = increment_law_for(spec)
    assert law.normal.func is _spline_on_z_nodes
    return law.normal.args[0]


@pytest.mark.parametrize("kind", ["random", "nig16", "nig64", "edge-m1", "edge-m16"])
def test_spline_on_z_nodes_is_scipys_spline_bit_for_bit(kind):
    # law.normal reads its interval off the uniform z nodes; it must equal
    # scipy's bisecting evaluation of the same spline, clamped to [-8, 8]
    spline = _z_node_spline(kind)
    rng = np.random.default_rng(7)
    block = 3.0 * rng.standard_normal((3 * _NORMAL_CHUNK // 11 + 100, 11))
    assert block.size > 3 * _NORMAL_CHUNK and block.size % _NORMAL_CHUNK  # and a partial one
    edges = np.array([-9.0, -8.0, 8.0, 9.0, -np.inf, np.inf, np.nan, 0.0])
    inputs = [block, _Z_NODES, np.nextafter(_Z_NODES, -np.inf), np.nextafter(_Z_NODES, np.inf),
              edges, np.asarray(0.3), np.asarray(np.nan), np.empty(0), np.empty((0, 16)),
              np.asfortranarray(block), block[::3, 1::2], block[::-1]]
    for y in inputs:
        kept = y.copy()
        out = _spline_on_z_nodes(spline, y)
        assert out.shape == y.shape and out.flags.c_contiguous
        assert not np.shares_memory(out, y)
        assert np.array_equal(out, spline(np.clip(y, -8.0, 8.0)), equal_nan=True)
        np.testing.assert_array_equal(y, kept)


def test_nig_normal_writes_only_into_a_c_contiguous_out_of_the_input_shape():
    # a copy made by reshaping out would be written and dropped, leaving
    # out as it was
    law = increment_law_for(NIG)
    y = np.linspace(-3.0, 3.0, 15).reshape(5, 3)
    for out in (np.zeros((5, 3), order="F"), np.zeros((5, 6))[:, ::2], np.zeros(15),
                np.zeros((3, 5))):
        with pytest.raises(ValueError, match="C-contiguous"):
            law.normal(y, out=out)
    out = np.zeros((5, 3))
    assert law.normal(y, out=out) is out
    np.testing.assert_array_equal(out, law.normal(y))


@pytest.mark.parametrize("kind", ["nig16", "nig64", "edge-m1", "edge-m16"])
def test_nig_to_normal_is_scipys_spline_bit_for_bit(kind):
    # law.to_normal finds its interval with np.searchsorted; it must equal
    # scipy's bisecting evaluation of the same spline, clamped to the end
    # nodes, with -inf and +inf at and past them
    spec = {"nig16": NIG, "nig64": dataclasses.replace(NIG, m=64),
            "edge-m1": NIG_EDGE[0], "edge-m16": NIG_EDGE[1]}[kind]
    law = increment_law_for(spec)
    assert law.to_normal.func is _spline_on_x_nodes
    spline = law.to_normal.args[0]
    assert isinstance(spline, CubicHermiteSpline)
    x_nodes = spline.x
    x_lo, x_hi = x_nodes[0], x_nodes[-1]

    def expected(x):
        z = spline(np.clip(x, x_lo, x_hi))
        return np.where(x <= x_lo, -np.inf, np.where(x >= x_hi, np.inf, z))

    rng = np.random.default_rng(8)
    block = law.normal(rng.uniform(-8.5, 8.5, (4099, 7))) + rng.normal(0.0, 1e-9, (4099, 7))
    edges = np.array([x_lo, x_hi, np.nextafter(x_lo, -np.inf), np.nextafter(x_lo, np.inf),
                      np.nextafter(x_hi, -np.inf), np.nextafter(x_hi, np.inf),
                      x_lo - 1.0, x_hi + 1.0, -np.inf, np.inf, np.nan, 0.0])
    inputs = [block, x_nodes, np.nextafter(x_nodes, -np.inf), np.nextafter(x_nodes, np.inf),
              edges, np.asarray(0.0), np.asarray(np.nan), np.empty(0), np.empty((0, 16)),
              np.asfortranarray(block), block[::3, 1::2], block[::-1]]
    for x in inputs:
        kept = x.copy()
        z = law.to_normal(x)
        assert z.shape == x.shape
        assert np.array_equal(z, expected(x), equal_nan=True)
        np.testing.assert_array_equal(x, kept)
    assert law.to_normal(0.0) == expected(np.asarray(0.0))  # as factorization calls it
    # the cdf Phi(H) is exactly 0 and 1 at and past the end nodes
    ends = law.to_normal(edges[:10])
    np.testing.assert_array_equal(np.isinf(ends), [1, 1, 1, 0, 0, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(np.sign(ends), [-1, 1, -1, -1, 1, 1, -1, 1, -1, 1])


def test_nig_sampling_matches_density():
    # histogram L1 distance between one million inverse-sampled draws and
    # exact bin probabilities from the CDF
    law = increment_law_for(NIG)
    u = pseudo_uniform(10 ** 6, 1, ScrambleSeed(123, 0)).values[:, 0]
    x = law.inv(u)
    edges = np.linspace(float(law.inv(np.array([1e-5]))[0]),
                        float(law.inv(np.array([1 - 1e-5]))[0]), 65)
    emp, _ = np.histogram(x, bins=edges)
    exact = np.diff(law.cdf(edges))
    l1 = np.abs(emp / len(x) - exact).sum()
    assert l1 <= 0.01


def test_nig_convolution_closure():
    # sum of two independent increments has the NIG law with doubled
    # location/scale; Kolmogorov-Smirnov distance against that law's CDF
    dt = NIG.dt
    law1 = nig_numerical_law(NIG.alpha, NIG.beta + NIG.theta, NIG.mu * dt, NIG.delta * dt)
    law2 = nig_numerical_law(NIG.alpha, NIG.beta + NIG.theta,
                             2 * NIG.mu * dt, 2 * NIG.delta * dt)
    u = pseudo_uniform(10 ** 5, 2, ScrambleSeed(17, 0)).values
    s = law1.inv(u[:, 0]) + law1.inv(u[:, 1])
    s.sort()
    grid = law2.cdf(s)
    ranks = np.arange(1, len(s) + 1) / len(s)
    ks = max(np.max(np.abs(grid - ranks)), np.max(np.abs(grid - (ranks - 1 / len(s)))))
    assert ks <= 0.01


def test_increment_law_cache_and_nominal_dim():
    assert increment_law_for(BS) is increment_law_for(BS)
    with pytest.raises(TypeError, match="no i.i.d. increment law"):
        increment_law_for(HestonSpec(s0=1, v0=0.04, r=0, theta_bar=0.04,
                                     nu=1, sigma_v=0.1, rho=0.3))
    heston = HestonSpec(s0=1, v0=0.04, r=0, theta_bar=0.04, nu=1, sigma_v=0.1, rho=0.3, m=16)
    for spec, d in ((BS, 16), (NIG, 16), (heston, 32)):
        assert isinstance(spec, ModelSpec)
        assert spec.d == nominal_dim(spec) == d


# ---------------------------------------------------------------------------
# path construction


def test_zero_noise_path():
    law = increment_law_for(BS)
    z = np.zeros((1, 16))
    S = paths_exp_levy(law, BS.s0, z, identity_transform(16))
    expected = BS.s0 * np.exp(BS.a * np.arange(1, 17))
    assert np.max(np.abs(S[0] - expected)) <= 1e-9


def test_paths_leave_the_coordinates_unchanged():
    # paths are summed and exponentiated in place, in the array law.normal returns
    z = np.random.default_rng(7).normal(size=(50, 16))
    kept = z.copy()
    for model in (BS, NIG):
        paths_exp_levy(increment_law_for(model), model.s0, z, identity_transform(16))
    np.testing.assert_array_equal(z, kept)


def test_martingale_property_bs():
    law = increment_law_for(BS)
    u = pseudo_uniform(10 ** 5, 16, ScrambleSeed(21, 0))
    S = paths_exp_levy(law, BS.s0, special.ndtri(u.values), identity_transform(16))
    disc = np.exp(-BS.r * BS.T) * S[:, -1]
    se = disc.std(ddof=1) / np.sqrt(len(disc))
    assert abs(disc.mean() - BS.s0) <= 3 * se


def test_measure_invariance_under_rotation():
    law = increment_law_for(BS)
    ident = identity_transform(16)
    W = taylor_weight(lambda z: paths_exp_levy(law, BS.s0, z, ident), "average", 16)
    U = mqr_transform(W)
    z = special.ndtri(pseudo_uniform(10 ** 5, 16, ScrambleSeed(22, 0)).values)
    s_id = paths_exp_levy(law, BS.s0, z, ident)[:, -1]
    s_rot = paths_exp_levy(law, BS.s0, z, U)[:, -1]
    for moment in (1, 2):
        a, b = s_id ** moment, s_rot ** moment
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(len(a))
        assert abs(a.mean() - b.mean()) <= 3 * se


def test_heston_coordinate_count_checked():
    hes = HestonSpec(s0=100, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=16)
    with pytest.raises(ValueError):
        paths_heston(hes, np.zeros((2, 16)), identity_transform(16))


def test_heston_degenerate_equals_bs_pathwise():
    m = 16
    hes = HestonSpec(s0=100.0, v0=0.09, r=0.04, theta_bar=0.09, nu=1.0,
                     sigma_v=0.0, rho=0.4, m=m)
    rng = np.random.default_rng(31)
    z = rng.normal(size=(200, 2 * m))
    S_h = paths_heston(hes, z, identity_transform(2 * m))
    # same combined shocks through the BS recursion with sigma^2 = V0
    rho_hat = np.sqrt(1 - hes.rho ** 2)
    eps = rho_hat * z[:, 0::2] + hes.rho * z[:, 1::2]
    bs = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=m)
    law = increment_law_for(bs)
    S_b = paths_exp_levy(law, bs.s0, eps, identity_transform(m))
    assert np.max(np.abs(S_h / S_b - 1.0)) <= 1e-12


def test_heston_drift_only_path():
    hes = HestonSpec(s0=100.0, v0=0.04, r=0.02, theta_bar=0.09, nu=0.5,
                     sigma_v=0.3, rho=0.5, m=4)
    S = paths_heston(hes, np.zeros((1, 8)), identity_transform(8))[0]
    v, log_s, dt = hes.v0, np.log(hes.s0), hes.dt
    expected = []
    for _ in range(4):
        log_s += (hes.r - 0.5 * v) * dt
        expected.append(np.exp(log_s))
        v += hes.nu * (hes.theta_bar - v) * dt
    assert np.max(np.abs(S - np.array(expected))) <= 1e-12


def test_heston_paths_match_the_column_loop():
    # the log-Euler recursion on the columns of the (N, 2m) batch; the
    # row-major loop of paths_heston gives the same bits, in C order
    hes = HestonSpec(s0=100.0, v0=0.04, r=0.04, theta_bar=0.04, nu=1.0,
                     sigma_v=1.0, rho=-0.5, m=8)
    transform = mqr_transform(taylor_weight(
        lambda z: paths_heston(hes, z, identity_transform(16)), "average", 16))
    z = np.random.default_rng(35).normal(size=(300, 16))
    y = apply_transform(transform, z)
    rho_hat = np.sqrt(1.0 - hes.rho ** 2)
    v, log_s = np.full(300, hes.v0), np.full(300, np.log(hes.s0))
    out, truncated = np.empty((300, hes.m)), 0
    for i in range(hes.m):
        truncated += np.count_nonzero(v < 0.0)
        vp = np.maximum(v, 0.0)
        vol = np.sqrt(vp * hes.dt)
        log_s = log_s + (hes.r - 0.5 * vp) * hes.dt + vol * (rho_hat * y[:, 2 * i]
                                                             + hes.rho * y[:, 2 * i + 1])
        out[:, i] = log_s
        v = v + hes.nu * (hes.theta_bar - vp) * hes.dt + hes.sigma_v * vol * y[:, 2 * i + 1]
    assert truncated > 0  # the full-truncation branch is exercised
    S = paths_heston(hes, z, transform)
    assert S.flags.c_contiguous
    np.testing.assert_array_equal(S, np.exp(out))


def test_heston_rotation_by_slices_gives_the_pre_rotated_path_bits():
    # paths_heston rotates one slice at a time into its coordinate-major
    # copy; over several uneven slices that equals the path of z U^T
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=0.5, m=16)
    transform = mqr_transform(taylor_weight(
        lambda z: paths_heston(hes, z, identity_transform(32)), "average", 32))
    z = np.random.default_rng(36).normal(size=(8195, 32))
    np.testing.assert_array_equal(paths_heston(hes, z, transform),
                                  paths_heston(hes, z @ transform.U.T, identity_transform(32)))


@pytest.mark.parametrize("nu, sigma_v, rho", [(1.0, 1.0, -0.7), (0.5, 1.5, -0.9)],
                         ids=["sigma_v-1.0", "sigma_v-1.5"])
def test_heston_discounted_price_is_a_martingale_past_feller(nu, sigma_v, rho):
    # 2 nu theta_bar < sigma_v^2, so V goes negative on many paths; full
    # truncation keeps E[exp(-rT) S_T] = s0 (with the signed V in the
    # drifts these paths read 100.48 and 101.48, 13 and 42 s.e. high)
    hes = HestonSpec(s0=100.0, v0=0.04, r=0.04, theta_bar=0.04, nu=nu,
                     sigma_v=sigma_v, rho=rho, m=16)
    rng = np.random.default_rng(41)
    s_t = np.concatenate([
        paths_heston(hes, rng.normal(size=(2 ** 15, hes.d)), identity_transform(hes.d))[:, -1]
        for _ in range(8)])
    discounted = np.exp(-hes.r * hes.T) * s_t
    se = discounted.std(ddof=1) / np.sqrt(discounted.size)
    assert abs(discounted.mean() - hes.s0) <= 4.0 * se


def test_heston_first_shock_factorization():
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.5, m=16)
    rng = np.random.default_rng(33)
    z = rng.normal(size=(50, 32))
    c = np.sqrt((1 - hes.rho ** 2) * hes.v0 * hes.dt)
    ratios = []
    for z1 in (-1.7, 0.0, 2.3):
        zz = z.copy()
        zz[:, 0] = z1
        ratios.append(paths_heston(hes, zz, identity_transform(32)) / np.exp(c * z1))
    assert np.max(np.abs(ratios[0] / ratios[1] - 1.0)) <= 1e-12
    assert np.max(np.abs(ratios[2] / ratios[1] - 1.0)) <= 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        BlackScholesSpec(s0=-1, r=0.0, sigma=0.2)
    with pytest.raises(ValueError):
        NigSpec(s0=100, alpha=1.0, beta=2.0, mu=0.0, delta=1.0, r=0.0)
    with pytest.raises(ValueError):
        HestonSpec(s0=100, v0=0.2, r=0.0, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            BlackScholesSpec(s0=bad, r=0.0, sigma=0.2)
        with pytest.raises(ValueError):
            BlackScholesSpec(s0=100, r=bad, sigma=0.2)
        with pytest.raises(ValueError):
            NigSpec(s0=100, alpha=1.0, beta=0.0, mu=0.0, delta=bad, r=0.0)
        with pytest.raises(ValueError):
            HestonSpec(s0=100, v0=0.2, r=0.0, theta_bar=bad, nu=1.0, sigma_v=0.2, rho=0.5)
    heston = dict(s0=100, v0=0.2, r=0.0, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=0.5)
    for key, bad in (("nu", -1.0), ("theta_bar", -0.2), ("sigma_v", -0.2)):
        with pytest.raises(ValueError):
            HestonSpec(**{**heston, key: bad})
    HestonSpec(**{**heston, "nu": 0.0, "theta_bar": 0.0, "sigma_v": 0.0})  # zero stays valid
    # the checks every spec shares: T > 0 and an integer m >= 1
    nig = dict(s0=100, alpha=1.0, beta=0.0, mu=0.0, delta=1.0, r=0.0)
    for spec, params in ((BlackScholesSpec, dict(s0=100, r=0.0, sigma=0.2)),
                         (NigSpec, nig), (HestonSpec, heston)):
        for key, bad in (("T", 0.0), ("T", -1.0), ("m", 0), ("m", 4.5), ("m", 4.0)):
            with pytest.raises(ValueError, match=spec.__name__):
                spec(**{**params, key: bad})
        # every field is a finite real number that is not a bool
        for key, bad in (("m", True), ("s0", True), ("s0", "100"), ("s0", None),
                         ("s0", 10 ** 400), ("T", 10 ** 400)):
            with pytest.raises(ValueError, match=spec.__name__):
                spec(**{**params, key: bad})


# ---------------------------------------------------------------------------
# first-shock factorization


@pytest.mark.parametrize("model", [
    BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=4),
    NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
            r=0.04, T=1.0, m=4),
    HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
               sigma_v=0.2, rho=0.5, m=4),
    BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=1),
    NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
            r=0.04, T=1.0, m=1),
    HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
               sigma_v=0.2, rho=0.5, m=1),
    # every node of this narrow step law lies above 0, so H(0) = -inf
    NigSpec(s0=100.0, alpha=5000.0, beta=0.0, mu=0.04, delta=5e-4, r=0.04, T=1.0, m=4),
], ids=["bs4", "nig4", "heston4", "bs1", "nig1", "heston1", "nig4-narrow"])
def test_factorization_reproduces_paths(model):
    # exp(xi(u_1)) zeta(u_{2:d}) against the whole path map, with and
    # without a pinned rotation
    d = model.d
    u = pseudo_uniform(500, d, ScrambleSeed(41, 0)).values
    W = taylor_weight(path_map(model, identity_transform(d)), "barrier", d)
    for transform in (identity_transform(d), mqr_transform(W)):
        law, zeta = factorization(model, transform)
        got = np.exp(law.inv(u[:, 0]))[:, None] * zeta(u[:, 1:])
        want = path_map(model, transform)(special.ndtri(u))
        np.testing.assert_allclose(got, want, rtol=1e-12)
