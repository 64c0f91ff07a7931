"""Replicated estimators and variance-reduction bookkeeping."""

import numpy as np
import pytest
from scipy import special

from smoothqmc.estimators import (
    _ROW_BLOCK,
    METHODS,
    RAW_METHODS,
    SMOOTHED_METHODS,
    analysis_integrand,
    method_integrand,
    method_transform,
    run,
    vrf_table,
    weight_matrix,
)
from smoothqmc.errors import NumericalError
from smoothqmc.models import BlackScholesSpec, HestonSpec, NigSpec, path_map
from smoothqmc.payoffs import PayoffSpec, build_separable, payoff_value
from smoothqmc.points import ScrambleSeed, SobolSource, pseudo_uniform, scramble
from smoothqmc.smoothing import evaluate_smoothed

BS = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)
BINARY = PayoffSpec.for_model("binary-asian", BS, 100.0)
DELTA = PayoffSpec.for_model("asian-delta", BS, 100.0)
BARRIER = PayoffSpec.for_model("barrier-down-out", BS, 100.0, 90.0)
NIG = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032, r=0.04, T=1.0, m=16)
HES = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=0.5, m=16)


def test_method_rosters():
    assert set(RAW_METHODS) | set(SMOOTHED_METHODS) == set(METHODS)
    assert len(METHODS) == 5


def test_method_transform_kinds():
    assert method_transform("MC", BINARY, BS).kind == "identity"
    assert method_transform("QMC-I", BINARY, BS).kind == "identity"
    assert method_transform("QMC-II", BINARY, BS).kind == "qr"
    assert method_transform("sQMC-II", BINARY, BS).kind == "mqr"
    with pytest.raises(ValueError):
        method_transform("QMC-III", BINARY, BS)


def test_weight_matrix_shapes():
    W1 = weight_matrix(BINARY, BS)
    assert W1.shape == (16, 1)
    assert weight_matrix(BARRIER, BS).shape == (16, 16)


def test_constant_payoff_has_zero_replicate_variance():
    # strike far below any path: the binary payoff is identically 1
    sure = PayoffSpec.for_model("binary-asian", BS, 1e-6)
    for method in ("MC", "QMC-I", "sQMC-II"):
        report = run(method, sure, BS, n=64, reps=3, seed=0)
        assert report.estimate == pytest.approx(sure.discount, abs=1e-12)
        assert report.replicate_variance <= 1e-28


def test_run_is_deterministic():
    a = run("sQMC-II", BINARY, BS, n=256, reps=4, seed=42)
    b = run("sQMC-II", BINARY, BS, n=256, reps=4, seed=42)
    assert a.estimate == b.estimate
    assert a.replicate_variance == b.replicate_variance
    c = run("sQMC-II", BINARY, BS, n=256, reps=4, seed=43)
    assert c.estimate != a.estimate


def test_run_is_thread_count_invariant():
    a = run("QMC-I", BINARY, BS, n=256, reps=6, seed=7, threads=1)
    b = run("QMC-I", BINARY, BS, n=256, reps=6, seed=7, threads=4)
    assert a.estimate == b.estimate
    assert a.replicate_variance == b.replicate_variance


@pytest.mark.parametrize("method", ["MC", "QMC-I"])
def test_raw_nig_run_is_thread_count_invariant(method):
    # every replicate maps its own batch through the NIG law's normal map,
    # chunk by chunk, on whichever pool thread runs it
    payoff = PayoffSpec.for_model("asian-delta", NIG, 100.0)
    a = run(method, payoff, NIG, n=1024, reps=6, seed=7, threads=1)
    b = run(method, payoff, NIG, n=1024, reps=6, seed=7, threads=2)
    assert a.estimate == b.estimate
    assert a.replicate_variance == b.replicate_variance


@pytest.mark.parametrize("model, payoff_kind", [
    (NIG, "binary-asian"),
    (HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0, sigma_v=0.2, rho=-0.5, m=16),
     "barrier-down-out"),
], ids=["nig16-binary", "hes16-neg-barrier"])
def test_smoothed_run_is_thread_count_invariant(model, payoff_kind):
    # the conditional path is built per call, so replicates that share one
    # separable problem across threads cannot see each other's state
    payoff = PayoffSpec.for_model(payoff_kind, model, 100.0, 90.0)
    a = run("sQMC-II", payoff, model, n=256, reps=6, seed=7, threads=1)
    b = run("sQMC-II", payoff, model, n=256, reps=6, seed=7, threads=2)
    assert a.estimate == b.estimate
    assert a.replicate_variance == b.replicate_variance


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("model", [BS, NIG, HES], ids=["bs16", "nig16", "hes16"])
def test_every_cell_is_thread_count_invariant_over_row_blocks(model, method):
    # n = 12288 runs two row blocks of 6144, so each thread's arrays are
    # reused across row blocks and replicates
    payoff = PayoffSpec.for_model("barrier-down-out", model, 100.0, 90.0)
    a = run(method, payoff, model, n=12288, reps=4, seed=11, threads=1)
    b = run(method, payoff, model, n=12288, reps=4, seed=11, threads=2)
    assert a.estimate == b.estimate
    assert a.replicate_variance == b.replicate_variance


def test_single_step_pinned_rotation_is_the_identity():
    one = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=1)
    payoff = PayoffSpec.for_model("asian-delta", one, 100.0)
    assert method_transform("sQMC-II", payoff, one).kind == "identity"
    pinned = run("sQMC-II", payoff, one, n=256, reps=4, seed=3)
    plain = run("sQMC-I", payoff, one, n=256, reps=4, seed=3)
    assert pinned.estimate == plain.estimate
    assert pinned.replicate_variance == plain.replicate_variance


def test_pinned_rotation_without_weight_past_z1_is_the_identity():
    # Heston at m = 1 with rho = 0: S_1 does not see the variance shock,
    # so rows 2..d of the weight matrix are zero and there is nothing to rotate
    hes = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                     sigma_v=0.2, rho=0.0, m=1)
    for kind, barrier in (("binary-asian", None), ("barrier-down-out", 90.0)):
        payoff = PayoffSpec.for_model(kind, hes, 100.0, barrier)
        assert method_transform("sQMC-II", payoff, hes).kind == "identity"
        pinned = run("sQMC-II", payoff, hes, n=256, reps=4, seed=3)
        plain = run("sQMC-I", payoff, hes, n=256, reps=4, seed=3)
        assert pinned.estimate == plain.estimate


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_replicate_mean_raises():
    # discount exp(-800) underflows to 0 while the paths overflow to inf
    extreme = BlackScholesSpec(s0=100.0, r=40.0, sigma=0.3, T=20.0, m=16)
    payoff = PayoffSpec.for_model("asian-delta", extreme, 100.0)
    with pytest.raises(NumericalError):
        run("MC", payoff, extreme, n=64, reps=3, seed=1)


def test_methods_agree_on_the_price():
    reports = {m: run(m, BINARY, BS, n=1024, reps=20, seed=11) for m in METHODS}
    for m, rep in reports.items():
        se = np.sqrt(rep.replicate_variance / rep.reps)
        base = reports["MC"]
        base_se = np.sqrt(base.replicate_variance / base.reps)
        tol = 4 * np.hypot(se, base_se)
        assert abs(rep.estimate - base.estimate) <= tol, (m, rep.estimate)


def test_smoothing_and_rotation_multiply_up():
    rows = vrf_table([BINARY], BS, METHODS, n=1024, reps=20, seed=3)
    vrf = {rep.method: rep.vrf for _, rep in rows}
    assert vrf["MC"] == pytest.approx(1.0)
    assert vrf["sQMC-II"] >= 20.0 * vrf["QMC-II"]
    assert vrf["sQMC-II"] >= 100.0


def test_mc_variance_scales_inversely_with_n():
    small = run("MC", BINARY, BS, n=2 ** 10, reps=100, seed=19)
    large = run("MC", BINARY, BS, n=2 ** 13, reps=100, seed=19)
    ratio = small.replicate_variance / large.replicate_variance
    assert 8.0 / 1.5 <= ratio <= 8.0 * 1.5


def test_smoothed_rotated_beats_mc_by_three_orders():
    mc = run("MC", BINARY, BS, n=2 ** 14, reps=20, seed=23)
    sq = run("sQMC-II", BINARY, BS, n=2 ** 14, reps=20, seed=23)
    assert sq.replicate_variance < mc.replicate_variance / 1000.0


def test_vrf_table_shape_and_baseline():
    rows = vrf_table([BINARY, BARRIER], BS, ("MC", "sQMC-I"), n=128, reps=4, seed=5)
    assert len(rows) == 4
    for payoff, rep in rows:
        assert payoff.kind in ("binary-asian", "barrier-down-out")
        assert rep.vrf is not None and rep.vrf > 0
    by_payoff = {(p.kind, r.method): r.vrf for p, r in rows}
    assert by_payoff[("binary-asian", "MC")] == pytest.approx(1.0)
    assert by_payoff[("barrier-down-out", "MC")] == pytest.approx(1.0)


def test_vrf_table_without_baseline_leaves_vrf_none():
    rows = vrf_table([BINARY], BS, ("QMC-I", "sQMC-II"), n=128, reps=4, seed=5)
    assert [rep.method for _, rep in rows] == ["QMC-I", "sQMC-II"]
    for _, rep in rows:
        assert rep.vrf is None
        assert rep.estimate == run(rep.method, BINARY, BS, n=128, reps=4, seed=5).estimate


def test_run_validation():
    with pytest.raises(ValueError):
        run("QMC-9", BINARY, BS, n=128, reps=4, seed=5)
    with pytest.raises(ValueError):
        run("MC", BINARY, BS, n=1, reps=4, seed=5)
    with pytest.raises(ValueError):
        run("MC", BINARY, BS, n=128, reps=1, seed=5)


def test_timing_is_positive_and_excludes_setup():
    report = run("sQMC-II", BINARY, BS, n=128, reps=4, seed=5)
    assert report.wall_time > 0.0
    assert report.n == 128
    assert report.reps == 4


def test_method_integrand_means_match_run():
    # run() is exactly the mean of the integrand over replicate point sets
    h = method_integrand("sQMC-I", BINARY, BS)
    means = [float(h(scramble(SobolSource(256, 16), ScrambleSeed(31, k)).values).mean())
             for k in range(3)]
    report = run("sQMC-I", BINARY, BS, n=256, reps=3, seed=31)
    assert report.estimate == pytest.approx(np.mean(means), abs=1e-15)


def test_analysis_integrand_dimension_reduction():
    h, dim = analysis_integrand("sQMC-II", BINARY, BS)
    assert dim == 15  # pushed coordinate dropped for a constant factor
    v = np.full((4, 15), 0.5)
    assert np.all(np.isfinite(h(v)))
    # bit-equal to the discounted payout-interval length (1 - Gamma)
    problem = build_separable(BINARY, BS, method_transform("sQMC-II", BINARY, BS))
    v = pseudo_uniform(64, 15, ScrambleSeed(19, 0)).values
    np.testing.assert_array_equal(
        h(v), BINARY.discount * (1.0 - problem.lower(problem.conditional(v))))
    h2, dim2 = analysis_integrand("sQMC-II", DELTA, BS)
    assert dim2 == 16
    h3, dim3 = analysis_integrand("QMC-I", BINARY, BS)
    assert dim3 == 16


def test_analysis_integrand_reduced_mean_matches_price():
    # integrating out the pushed coordinate preserves the integral
    h, dim = analysis_integrand("sQMC-I", BINARY, BS)
    v = pseudo_uniform(50_000, dim, ScrambleSeed(37, 0)).values
    vals = h(v)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    full = run("sQMC-I", BINARY, BS, n=4096, reps=8, seed=37)
    tol = 4 * np.hypot(se, np.sqrt(full.replicate_variance / full.reps))
    assert abs(vals.mean() - full.estimate) <= tol


def _whole_batch(method, payoff, model):
    """The method's integrand evaluated on the whole batch in one call."""
    transform = method_transform(method, payoff, model)
    if method in RAW_METHODS:
        paths = path_map(model, transform)
        return lambda u: payoff_value(payoff, paths(special.ndtri(u)))
    problem = build_separable(payoff, model, transform)
    return lambda u: evaluate_smoothed(problem, u)


def _assert_blocked_output(h, whole, u):
    before = u.copy()
    out = h(u)
    np.testing.assert_array_equal(u, before)
    assert out.dtype == np.float64 and out.shape == (len(u),)
    assert out.flags.c_contiguous and out.flags.owndata
    np.testing.assert_array_equal(out, whole(u))


@pytest.mark.parametrize("n", [_ROW_BLOCK + 3, 3 * _ROW_BLOCK + 1])
@pytest.mark.parametrize("model", [BS, NIG, HES], ids=["bs16", "nig16", "hes16"])
def test_row_blocks_give_the_whole_batch_bits(model, n):
    # BLAS does not promise the same bits of z @ U.T for every row count,
    # so the identity, qr and mqr transforms are all pinned here
    u = pseudo_uniform(n, model.d, ScrambleSeed(43, 0)).values
    for kind in ("binary-asian", "asian-delta", "barrier-down-out"):
        payoff = PayoffSpec.for_model(kind, model, 100.0, 90.0)
        for method in METHODS:
            _assert_blocked_output(method_integrand(method, payoff, model),
                                   _whole_batch(method, payoff, model), u)


@pytest.mark.parametrize("n", [_ROW_BLOCK + 3, 3 * _ROW_BLOCK + 1])
def test_row_blocked_analysis_integrand_gives_the_whole_batch_bits(n):
    h, dim = analysis_integrand("sQMC-II", BINARY, BS)
    smoothed = _whole_batch("sQMC-II", BINARY, BS)
    v = pseudo_uniform(n, dim, ScrambleSeed(47, 0)).values
    _assert_blocked_output(h, lambda v: smoothed(np.column_stack([np.full(len(v), 0.5), v])), v)


def _outcome(f, u):
    try:
        return f(u)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("method", ["QMC-II", "sQMC-II"])
def test_row_blocks_leave_edge_inputs_alone(method):
    h, whole = method_integrand(method, DELTA, BS), _whole_batch(method, DELTA, BS)
    wrong = [_outcome(h, np.full((n, 15), 0.5)) for n in (4, _ROW_BLOCK + 3)]
    assert wrong[0] == wrong[1] and wrong[0][0] is ValueError
    for u in (np.full(16, 0.5), np.empty((0, 16))):
        got, expected = _outcome(h, u), _outcome(whole, u)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            np.testing.assert_array_equal(got, expected)
            assert got.shape == expected.shape
