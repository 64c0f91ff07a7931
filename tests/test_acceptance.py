"""Acceptance gate: the headline numbers and invariants the package must
reproduce, one visible pass/fail line per criterion.

These runs are sized for a laptop-scale budget (a few minutes total);
every threshold carries generous slack below the corresponding
high-precision reference, so failures signal real regressions rather
than replication noise.
"""

import contextlib
import io

import numpy as np
import pytest

from smoothqmc.cli import main
from smoothqmc.effdim import dimension_report
from smoothqmc.estimators import (
    METHODS,
    analysis_integrand,
    method_transform,
    run,
    vrf_table,
    weight_matrix,
)
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    NigSpec,
    increment_law_for,
    paths_exp_levy,
    paths_heston,
)
from smoothqmc.payoffs import PayoffSpec, build_separable, payoff_value
from smoothqmc.points import ScrambleSeed, SobolSource, pseudo_uniform, scramble, sobol_raw
from smoothqmc.smoothing import evaluate_indicator, evaluate_smoothed, variance_bound_check
from smoothqmc.transforms import identity_transform, mqr_transform, qr_transform

from oracles import g_function, g_quadrature

SEED = 12345

BS16 = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)
BS128 = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=128)
NIG16 = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
                r=0.04, T=1.0, m=16)
NIG64 = NigSpec(s0=100.0, alpha=105.96, beta=-26.15, mu=1.2528, delta=4.032,
                r=0.04, T=1.0, m=64)
HES16 = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                   sigma_v=0.2, rho=0.5, m=16)
HES16_NEG = HestonSpec(s0=100.0, v0=0.2, r=0.04, theta_bar=0.2, nu=1.0,
                       sigma_v=0.2, rho=-0.5, m=16)

CELL_KINDS = (("binary-asian", 100.0, None),
              ("asian-delta", 100.0, None),
              ("barrier-down-out", 100.0, 90.0))


def _payoffs(model):
    return [PayoffSpec.for_model(kind, model, strike, barrier)
            for kind, strike, barrier in CELL_KINDS]


@pytest.fixture
def verdict(capsys):
    """One visible pass/fail line per criterion, printed past the capture."""

    def _verdict(number: int, label: str, failures: list) -> None:
        status = "FAIL" if failures else "PASS"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {status}", flush=True)
        assert not failures, "; ".join(str(f) for f in failures)

    return _verdict


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def bs16_rows():
    return vrf_table(_payoffs(BS16), BS16, METHODS, n=4096, reps=100, seed=SEED)


def _by_cell(rows):
    return {(payoff.kind, rep.method): rep for payoff, rep in rows}


# ---------------------------------------------------------------------------


def test_1_price_reproduction(bs16_rows, verdict):
    failures = []
    cells = _by_cell(bs16_rows)
    targets = {"binary-asian": (0.4848, 0.002),
               "asian-delta": (0.5660, 0.002),
               "barrier-down-out": (10.99, 0.06)}
    for kind, (value, width) in targets.items():
        for method in METHODS:
            est = cells[(kind, method)].estimate
            _check(failures, abs(est - value) <= width,
                   f"{kind}/{method} estimate {est:.6f} outside {value} +/- {width}")
        for i, ma in enumerate(METHODS):
            for mb in METHODS[i + 1:]:
                ra, rb = cells[(kind, ma)], cells[(kind, mb)]
                tol = 4.0 * np.sqrt(ra.replicate_variance / ra.reps
                                    + rb.replicate_variance / rb.reps)
                _check(failures, abs(ra.estimate - rb.estimate) <= tol,
                       f"{kind}: {ma} and {mb} disagree beyond 4 s.e.")
    verdict(1, "price reproduction", failures)


def test_2_variance_reduction_targets(bs16_rows, verdict):
    failures = []
    cells = _by_cell(bs16_rows)

    def vrf(kind, method):
        return cells[(kind, method)].vrf

    _check(failures, vrf("binary-asian", "sQMC-II") >= 5000.0,
           f"binary vrf {vrf('binary-asian', 'sQMC-II'):.0f} < 5000")
    _check(failures, vrf("asian-delta", "sQMC-II") >= 5000.0,
           f"delta vrf {vrf('asian-delta', 'sQMC-II'):.0f} < 5000")
    for kind in ("binary-asian", "asian-delta"):
        _check(failures, vrf(kind, "sQMC-II") >= 20.0 * vrf(kind, "QMC-II"),
               f"{kind}: smoothing gain below 20x over rotation alone")
    _check(failures, vrf("barrier-down-out", "sQMC-II") >= 50.0,
           f"barrier vrf {vrf('barrier-down-out', 'sQMC-II'):.0f} < 50")
    verdict(2, "variance reduction, 16 dates", failures)


def test_3_variance_reduction_high_dimension(verdict):
    failures = []
    payoffs = [PayoffSpec.for_model("binary-asian", BS128, 100.0),
               PayoffSpec.for_model("asian-delta", BS128, 100.0)]
    rows = vrf_table(payoffs, BS128, ("MC", "sQMC-II"), n=4096, reps=100, seed=SEED)
    cells = _by_cell(rows)
    binary = cells[("binary-asian", "sQMC-II")].vrf
    delta = cells[("asian-delta", "sQMC-II")].vrf
    _check(failures, binary >= 300.0, f"binary vrf {binary:.0f} < 300 at 128 dates")
    _check(failures, delta >= 400.0, f"delta vrf {delta:.0f} < 400 at 128 dates")
    verdict(3, "variance reduction, 128 dates", failures)


def test_4_effective_dimension_targets(verdict):
    failures = []
    n_eff, eff_seed = 2 ** 18, 2024
    binary = PayoffSpec.for_model("binary-asian", BS16, 100.0)
    delta = PayoffSpec.for_model("asian-delta", BS16, 100.0)

    h, d = analysis_integrand("sQMC-II", binary, BS16)
    rep = dimension_report(h, d, n_eff, eff_seed)
    _check(failures, rep.r_first >= 0.99,
           f"smoothed+rotated binary R_1 = {rep.r_first:.4f} < 0.99")
    _check(failures, rep.d_t == 1, f"smoothed+rotated binary d_t = {rep.d_t} != 1")
    _check(failures, 1.00 <= rep.d_ms <= 1.03,
           f"smoothed+rotated binary d_ms = {rep.d_ms:.3f} outside [1.00, 1.03]")

    h, d = analysis_integrand("sQMC-II", delta, BS16)
    rep = dimension_report(h, d, n_eff, eff_seed)
    _check(failures, rep.d_t == 2, f"smoothed+rotated delta d_t = {rep.d_t} != 2")

    h, d = analysis_integrand("sQMC-I", binary, BS16)
    rep = dimension_report(h, d, n_eff, eff_seed)
    _check(failures, 0.10 <= rep.r_first <= 0.22,
           f"smoothed identity binary R_1 = {rep.r_first:.4f} outside [0.10, 0.22]")
    _check(failures, 1.25 <= rep.d_ms <= 1.50,
           f"smoothed identity binary d_ms = {rep.d_ms:.3f} outside [1.25, 1.50]")
    verdict(4, "effective dimension", failures)


def test_5_nig_pipeline(verdict):
    failures = []
    _check(failures, abs(NIG16.theta - (-4.87)) <= 0.01,
           f"martingale tilt {NIG16.theta:.4f} not -4.87 +/- 0.01")

    law = increment_law_for(NIG16)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 10 ** 4)
    round_trip = float(np.max(np.abs(law.cdf(law.inv(grid)) - grid)))
    _check(failures, round_trip <= 1e-8,
           f"inverse-cdf round trip {round_trip:.2e} > 1e-8")

    for model, floor in ((NIG16, 1e4), (NIG64, 100.0)):
        payoff = PayoffSpec.for_model("binary-asian", model, 100.0)
        rows = vrf_table([payoff], model, ("MC", "sQMC-II"), n=2 ** 14,
                         reps=100, seed=SEED)
        vrf = _by_cell(rows)[("binary-asian", "sQMC-II")].vrf
        _check(failures, vrf >= floor,
               f"binary vrf {vrf:.0f} < {floor:.0f} at {model.m} dates")
    verdict(5, "exponential-NIG pipeline", failures)


def test_6_heston_pipeline(verdict):
    failures = []
    binary = PayoffSpec.for_model("binary-asian", HES16, 100.0)
    rows = vrf_table([binary], HES16, ("MC", "sQMC-II"), n=2 ** 14, reps=100, seed=SEED)
    vrf = _by_cell(rows)[("binary-asian", "sQMC-II")].vrf
    _check(failures, vrf >= 300.0, f"binary vrf {vrf:.0f} < 300 at rho = 0.5")

    barrier = PayoffSpec.for_model("barrier-down-out", HES16_NEG, 100.0, 90.0)
    rows = vrf_table([barrier], HES16_NEG, ("MC", "sQMC-II"), n=2 ** 14,
                     reps=100, seed=SEED)
    vrf = _by_cell(rows)[("barrier-down-out", "sQMC-II")].vrf
    _check(failures, vrf >= 30.0, f"barrier vrf {vrf:.0f} < 30 at rho = -0.5")

    # flat-variance limit: sigma_v = 0 with v0 = theta_bar must price like
    # the lognormal model at sigma = sqrt(v0)
    flat = HestonSpec(s0=100.0, v0=0.09, r=0.04, theta_bar=0.09, nu=1.0,
                      sigma_v=0.0, rho=0.0, m=16)
    lognormal = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)
    for kind, strike, level in CELL_KINDS:
        ph = PayoffSpec.for_model(kind, flat, strike, level)
        pb = PayoffSpec.for_model(kind, lognormal, strike, level)
        rh = run("QMC-I", ph, flat, n=4096, reps=50, seed=7)
        rb = run("QMC-I", pb, lognormal, n=4096, reps=50, seed=7)
        tol = 3.0 * np.sqrt(rh.replicate_variance / rh.reps
                            + rb.replicate_variance / rb.reps)
        _check(failures, abs(rh.estimate - rb.estimate) <= tol,
               f"{kind}: flat-variance estimate {rh.estimate:.4f} vs "
               f"lognormal {rb.estimate:.4f} beyond 3 s.e.")
    verdict(6, "Heston pipeline", failures)


# ---------------------------------------------------------------------------


def _paths_for(model, u, transform):
    z = np.asarray(u, dtype=float)
    from scipy.special import ndtri
    if isinstance(model, HestonSpec):
        return paths_heston(model, ndtri(z), transform)
    return paths_exp_levy(increment_law_for(model), model.s0, ndtri(z), transform)


def test_7_property_suites(verdict):
    failures = []
    models = (BS16, NIG16, HES16)

    # orthogonality and the first-coordinate pin of every rotation in use
    for model in models:
        for kind, strike, level in CELL_KINDS:
            payoff = PayoffSpec.for_model(kind, model, strike, level)
            for method in ("QMC-II", "sQMC-II"):
                U = method_transform(method, payoff, model).U
                gram = float(np.abs(U.T @ U - np.eye(U.shape[0])).max())
                _check(failures, gram <= 1e-10,
                       f"{method} rotation not orthogonal for {kind}: {gram:.2e}")
            Um = method_transform("sQMC-II", payoff, model).U
            pin = max(abs(Um[0, 0] - 1.0), float(np.abs(Um[0, 1:]).max()),
                      float(np.abs(Um[1:, 0]).max()))
            _check(failures, pin <= 1e-12,
                   f"pinned rotation moves the first coordinate for {kind}: {pin:.2e}")

    # raw-vs-separated equivalence, unbiasedness, and the variance bound
    # for every payoff x model cell under both applicable transforms
    for model in models:
        d = model.d
        for kind, strike, level in CELL_KINDS:
            payoff = PayoffSpec.for_model(kind, model, strike, level)
            transforms = {"identity": identity_transform(d),
                          "pinned": mqr_transform(weight_matrix(payoff, model))}
            for name, transform in transforms.items():
                cell = f"{kind}/{type(model).__name__}/{name}"
                problem = build_separable(payoff, model, transform)

                u = pseudo_uniform(10 ** 4, d, ScrambleSeed(71, 0)).values
                direct = payoff_value(payoff, _paths_for(model, u, transform))
                separated = evaluate_indicator(problem, u)
                gap = float(np.max(np.abs(separated - direct)))
                _check(failures, gap <= 1e-10,
                       f"{cell}: separated form deviates by {gap:.2e}")

                u1 = pseudo_uniform(10 ** 5, d, ScrambleSeed(72, 0)).values
                u2 = pseudo_uniform(10 ** 5, d, ScrambleSeed(72, 1)).values
                smooth = evaluate_smoothed(problem, u1)
                raw = evaluate_indicator(problem, u2)
                se = float(np.hypot(smooth.std(ddof=1), raw.std(ddof=1)) / np.sqrt(10 ** 5))
                _check(failures, abs(smooth.mean() - raw.mean()) <= 4 * se,
                       f"{cell}: smoothed mean {smooth.mean():.5f} vs raw "
                       f"{raw.mean():.5f} beyond 4 s.e.")

                report = variance_bound_check(problem, n=20_000, seed=73)
                _check(failures, report.bound_satisfied,
                       f"{cell}: smoothed variance {report.var_smoothed:.3e} exceeds "
                       f"{report.c_hat:.3f} x raw {report.var_raw:.3e}")

    # dyadic equidistribution of the generator, raw and scrambled
    for values in (sobol_raw(2 ** 12, 8, include_zero=True).values,
                   scramble(SobolSource(2 ** 12, 8), ScrambleSeed(74)).values):
        for k in range(1, 13):
            cells = np.floor(values * 2 ** k).astype(int)
            cells = np.clip(cells, 0, 2 ** k - 1)
            for j in range(values.shape[1]):
                counts = np.bincount(cells[:, j], minlength=2 ** k)
                if not np.all(counts == 2 ** 12 // 2 ** k):
                    _check(failures, False,
                           f"dyadic balance broken at level {k}, coordinate {j}")
                    break

    # effective-dimension estimators vs the tensor-quadrature oracle
    for a in (np.array([0.0, 0.5, 3.0]), np.array([0.0, 1.0, 4.0, 9.0])):
        var, trunc, first, mdim = g_quadrature(a)
        rep = dimension_report(g_function(a), a.size, 2 ** 14, seed=75)
        _check(failures, float(np.max(np.abs(np.array(rep.truncation) - trunc))) <= 0.01,
               f"truncation ratios off oracle for d={a.size}")
        _check(failures, abs(rep.r_order1 - first) <= 0.01,
               f"first-order ratio off oracle for d={a.size}")
        _check(failures, abs(rep.d_ms - mdim) <= 0.01 * mdim,
               f"mean dimension off oracle for d={a.size}")
    verdict(7, "property suites", failures)


def test_8_cli_determinism(tmp_path, verdict):
    failures = []
    configs = {
        "price": """
model: {kind: black-scholes, m: 4}
n: 64
reps: 3
""",
        "vrf": """
model: {kind: black-scholes, m: 4}
methods: [MC, sQMC-I, sQMC-II]
n: 64
reps: 3
""",
        "effdim": """
model: {kind: black-scholes, m: 4}
methods: [sQMC-I, sQMC-II]
effdim: {n: 512}
""",
        "sweep": """
model: {kind: black-scholes, m: 4}
methods: [MC, sQMC-II]
reps: 3
sweep: {n: [16, 32]}
""",
    }

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    for command, text in configs.items():
        path = tmp_path / f"{command}.yaml"
        path.write_text(text, encoding="utf-8")
        code1, out1 = capture([command, "--config", str(path)])
        code2, out2 = capture([command, "--config", str(path)])
        _check(failures, code1 == 0 and code2 == 0, f"{command}: nonzero exit")
        _check(failures, out1 == out2, f"{command}: output not byte-stable")
        _check(failures, len(out1.splitlines()) >= 2, f"{command}: empty output")
    code3, out3 = capture(["price", "--config", str(tmp_path / "price.yaml"),
                           "--threads", "4"])
    _, base = capture(["price", "--config", str(tmp_path / "price.yaml")])
    _check(failures, code3 == 0 and out3 == base, "price: threading changes bytes")
    verdict(8, "command-line determinism", failures)
