"""Command-line interface: exit codes, CSV contracts, reproducibility."""

import csv
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

import smoothqmc
from smoothqmc.cli import ExperimentConfig, main, parse_config
from smoothqmc.errors import ConfigError


def _write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FAST_BS = """
model: {kind: black-scholes, m: 4}
n: 64
reps: 3
seed: 99
"""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out):
    return list(csv.reader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_without_config_file():
    cfg = parse_config(None)
    assert cfg.model_kind == "black-scholes"
    assert cfg.m_values == (16,)
    assert cfg.methods == ("MC", "QMC-I", "QMC-II", "sQMC-I", "sQMC-II")
    assert cfg.n == 4096 and cfg.reps == 100 and cfg.seed == 12345
    assert isinstance(cfg, ExperimentConfig)


def test_config_round_trip(tmp_path):
    path = _write(tmp_path, """
model: {kind: nig, m: [4, 8], alpha: 100.0}
payoffs:
  - {kind: binary-asian, strike: 95.0}
  - {kind: barrier-down-out, strike: 100.0, barrier: 85.0}
methods: [MC, sQMC-II]
n: 512
reps: 5
seed: 7
effdim: {n: 1024, p: 0.95}
sweep: {n: [16, 64]}
""")
    cfg = parse_config(path)
    assert cfg.model_kind == "nig"
    assert cfg.m_values == (4, 8)
    assert cfg.model_params["alpha"] == 100.0
    assert cfg.model_params["beta"] == -26.15  # default preserved
    assert len(cfg.payoffs) == 2
    assert cfg.methods == ("MC", "sQMC-II")
    assert cfg.effdim_n == 1024 and cfg.effdim_p == 0.95
    assert cfg.sweep_n == (16, 64)


@pytest.mark.parametrize("snippet,fragment", [
    ("bogus: 1", "unknown config keys"),
    ("model: {kind: vg}", "model.kind"),
    ("model: {kind: black-scholes, vol: 0.2}", "unknown black-scholes parameters"),
    ("model: {m: 0}", "model.m"),
    ("model: {m: []}", "model.m"),
    ("payoff: {kind: binary-asian}\npayoffs: [{kind: binary-asian}]", "not both"),
    ("payoff: {kind: lookback}", "payoff.kind"),
    ("payoff: {notional: 5}", "unknown payoff keys"),
    ("methods: [MC, QMC-9]", "unknown method"),
    ("methods: []", "methods"),
    ("n: 1", "n must be >= 2"),
    ("reps: 1", "reps must be >= 2"),
    ("seed: -3", "seed"),
    ("effdim: {p: 1.5}", "effdim.p"),
    ("effdim: {p: true}", "effdim.p"),
    ("payoff: {strike: true}", "payoff.strike"),
    ("payoff: {kind: barrier-down-out, barrier: true}", "payoff.barrier"),
    ("effdim: {q: 1}", "unknown effdim keys"),
    ("sweep: {n: [1000]}", "powers of two"),
    ("sweep: {n: []}", "sweep.n"),
    ("payoff: {strike: .nan}", "payoff.strike"),
    ("model: {sigma: .inf}", "model.sigma"),
    ("payoff: {kind: barrier-down-out, barrier: -.inf}", "payoff.barrier"),
    ("model: [1, 2]", "mapping of model keys"),
    ("model: 0", "mapping of model keys"),
    ("effdim: 5", "mapping of effdim keys"),
    ("sweep: x", "mapping of sweep keys"),
    ("payoff: 0", "mapping of payoff keys"),
    ("[1, 2]", "mapping of config keys"),
    ("methods: 5", "methods must be a non-empty list"),
    ("methods: MC", "methods must be a non-empty list"),
    ("model: {kind: [1]}", "model.kind"),
    ("model: {sigma: 3e-1}",
     "model.sigma must be a finite number, got '3e-1' (YAML read it as text"),
    pytest.param("model: {sigma: 1" + "0" * 400 + "}", "model.sigma",
                 id="model-sigma-int-beyond-float"),
    # past the 2^32-point Sobol' net; never run these with MC, which would
    # allocate the n x d batch
    ("methods: [QMC-I]\nn: 4294967297\nreps: 2", "n must be <= 2^32"),
    ("methods: [sQMC-II]\neffdim: {n: 8589934592}", "effdim.n must be <= 2^32"),
    ("methods: [QMC-I]\nreps: 2\nsweep: {n: [8589934592]}", "sweep.n must be <= 2^32"),
])
def test_config_rejections(tmp_path, snippet, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, snippet))
    assert fragment in str(exc.value)


def test_negative_heston_parameter_exits_2(tmp_path, capsys):
    # the spec, not parse_config, checks model parameters
    path = _write(tmp_path, "model: {kind: heston, m: 2, sigma_v: -0.2}\nn: 64\nreps: 2\n")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 2 and out == ""
    assert "invalid model or payoff parameters" in err


def test_malformed_block_exits_2_without_traceback(tmp_path, capsys):
    path = _write(tmp_path, "model: [1, 2]")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.yaml"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "model: [unclosed"))


# ---------------------------------------------------------------------------
# price


def test_price_csv_contract(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["case", "method", "estimate", "variance", "vrf",
                       "time_ms", "n", "reps", "seed"]
    assert len(rows) == 1 + 5  # five methods, one cell
    for row in rows[1:]:
        assert row[0] == "binary-asian|black-scholes|m=4"
        assert row[5] == "0.0"  # timing off by default
        assert row[6] == "64" and row[7] == "3" and row[8] == "99"
        float(row[2]), float(row[3])
    by_method = {row[1]: row for row in rows[1:]}
    assert float(by_method["MC"][4]) == pytest.approx(1.0)


def test_price_without_baseline_leaves_vrf_blank(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS + "methods: [QMC-I]\n")
    code, out, _ = _run(capsys, ["price", "--config", path])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert rows[1][4] == ""


def test_price_byte_reproducible_and_thread_invariant(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    _, first, _ = _run(capsys, ["price", "--config", path])
    _, second, _ = _run(capsys, ["price", "--config", path])
    _, threaded, _ = _run(capsys, ["price", "--config", path, "--threads", "4"])
    assert first == second == threaded


def test_price_seed_override_changes_output(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    _, base, _ = _run(capsys, ["price", "--config", path])
    _, other, _ = _run(capsys, ["price", "--config", path, "--seed", "100"])
    assert base != other
    _, same, _ = _run(capsys, ["price", "--config", path, "--seed", "99"])
    assert base == same


def test_price_timing_flag_fills_column(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    _, out, _ = _run(capsys, ["price", "--config", path, "--timing"])
    times = [row[5] for row in _rows(out)[1:]]
    assert all(re.fullmatch(r"\d+\.\d{3}", t) for t in times)


def test_price_out_file_matches_stdout(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    _, out, _ = _run(capsys, ["price", "--config", path])
    target = tmp_path / "result.csv"
    code, silent, _ = _run(capsys, ["price", "--config", path, "--out", str(target)])
    assert code == 0 and silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_price_unwritable_out_file_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, ["price", "--config", path, "--out", str(target)])
    assert code == 2 and out == ""
    assert "cannot write output file" in err
    assert not target.exists()


def test_price_multiple_m_values(tmp_path, capsys):
    path = _write(tmp_path, """
model: {kind: black-scholes, m: [2, 4]}
methods: [MC, QMC-I]
n: 32
reps: 2
""")
    _, out, _ = _run(capsys, ["price", "--config", path])
    cases = {row[0] for row in _rows(out)[1:]}
    assert cases == {"binary-asian|black-scholes|m=2", "binary-asian|black-scholes|m=4"}


def test_heston_case_label_carries_rho(tmp_path, capsys):
    path = _write(tmp_path, """
model: {kind: heston, m: 2, rho: -0.5}
methods: [MC]
n: 32
reps: 2
""")
    _, out, _ = _run(capsys, ["price", "--config", path])
    assert _rows(out)[1][0] == "binary-asian|heston|m=2|rho=-0.5"


def test_nig_price_near_the_esscher_edge(tmp_path, capsys):
    # the tilted beta + theta lies near -alpha, so the step law's mean sits
    # far from mu; its numerical build used to lose tail mass (exit 3)
    path = _write(tmp_path, """
model: {kind: nig, m: 1, s0: 100, alpha: 161.5586, beta: -71.507, mu: 3.9305,
        delta: 0.3587, r: 0.0057, T: 5}
n: 64
reps: 2
""")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 0, err
    assert len(_rows(out)) == 6


def test_nig_logs_esscher_theta_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, """
model: {kind: nig, m: 4}
methods: [MC]
n: 32
reps: 2
""")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 0
    assert "# nig m=4: esscher theta = -4.87" in err
    assert "esscher" not in out  # the log line stays out of the CSV


# ---------------------------------------------------------------------------
# vrf


def test_vrf_csv_contract(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS + "methods: [MC, sQMC-I]\n")
    code, out, _ = _run(capsys, ["vrf", "--config", path])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["case", "d", "method", "estimate", "vrf", "time_ms"]
    assert [row[2] for row in rows[1:]] == ["MC", "sQMC-I"]
    assert rows[1][1] == "4"
    assert float(rows[1][4]) == pytest.approx(1.0)


def test_vrf_needs_baseline(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS + "methods: [QMC-I, sQMC-I]\n")
    code, _, err = _run(capsys, ["vrf", "--config", path])
    assert code == 2
    assert "MC baseline" in err


@pytest.mark.parametrize("command", ["price", "vrf"])
def test_zero_replicate_variance_leaves_vrf_blank(tmp_path, capsys, command):
    # at m = 1 and rho = 0 the bound Gamma does not see u_2, so the smoothed
    # integrand is a constant: a zero variance has no finite factor
    path = _write(tmp_path, """
model: {kind: heston, m: 1, rho: 0.0}
methods: [MC, sQMC-I, sQMC-II]
n: 64
reps: 3
""")
    code, out, _ = _run(capsys, [command, "--config", path])
    assert code == 0
    assert "inf" not in out
    header, *rows = _rows(out)
    vrf = {row[header.index("method")]: row[header.index("vrf")] for row in rows}
    assert float(vrf["MC"]) == pytest.approx(1.0)
    assert vrf["sQMC-I"] == "" and vrf["sQMC-II"] == ""


# ---------------------------------------------------------------------------
# effdim


def test_effdim_csv_contract(tmp_path, capsys):
    path = _write(tmp_path, """
model: {kind: black-scholes, m: 4}
methods: [MC, sQMC-I, sQMC-II]
effdim: {n: 512}
""")
    code, out, _ = _run(capsys, ["effdim", "--config", path])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["case", "d", "method", "R1", "R12", "Rorder1", "d_t",
                       "d_ms", "R1_raw", "R12_raw", "Rorder1_raw", "d_ms_raw"]
    assert [row[2] for row in rows[1:]] == ["sQMC-I", "sQMC-II"]  # raw methods filtered
    for row in rows[1:]:
        assert row[1] == "3"  # binary payoff: pushed coordinate dropped
        for cell in row[3:6]:
            assert re.fullmatch(r"\d+\.\d{2}", cell)
        int(row[6])
        assert re.fullmatch(r"\d+\.\d{2}", row[7])
        for cell in row[8:]:
            float(cell)


def test_effdim_needs_smoothed_method(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS + "methods: [MC, QMC-II]\n")
    code, _, err = _run(capsys, ["effdim", "--config", path])
    assert code == 2
    assert "smoothed method" in err


def test_effdim_constant_integrand_is_a_numerical_failure(tmp_path, capsys):
    # a strike no path can miss makes the smoothed binary integrand
    # constant, so the variance normalization has nothing to divide by
    path = _write(tmp_path, """
model: {kind: black-scholes, m: 4}
payoff: {kind: binary-asian, strike: 1.0e-06}
methods: [sQMC-I]
effdim: {n: 256}
""")
    code, out, err = _run(capsys, ["effdim", "--config", path])
    assert code == 3
    assert "numerical failure" in err
    assert _rows(out)[1:] == [["binary-asian|black-scholes|m=4", "3", "sQMC-I", *[""] * 9]]


@pytest.mark.parametrize("kind", ["black-scholes", "nig"])
def test_effdim_single_step_binary_keeps_its_pushed_coordinate(tmp_path, capsys, kind):
    # at d = 1 the smoothed binary integrand is a constant: the analysis
    # must fail on its variance, not hand Sobol' zero coordinates
    path = _write(tmp_path, f"""
model: {{kind: {kind}, m: 1}}
payoff: {{kind: binary-asian, strike: 100.0}}
methods: [sQMC-I]
effdim: {{n: 256}}
""")
    code, out, err = _run(capsys, ["effdim", "--config", path])
    assert code == 3
    assert "variance" in err
    assert "dimension must be" not in err
    assert _rows(out)[1:] == [[f"binary-asian|{kind}|m=1", "1", "sQMC-I", *[""] * 9]]


def test_effdim_reports_every_cell_when_one_fails(tmp_path, capsys):
    # the smoothed binary integrand at m = 1 is a constant and cannot be
    # analysed; the asian-delta cells still are, exactly as on their own
    block = """
model: {{kind: black-scholes, m: 1}}
payoffs:
{payoffs}
methods: [sQMC-I, sQMC-II]
effdim: {{n: 1024}}
"""
    binary = "  - {kind: binary-asian, strike: 100.0}"
    delta = "  - {kind: asian-delta, strike: 100.0}"
    both = _write(tmp_path, block.format(payoffs=f"{binary}\n{delta}"), "both.yaml")
    alone = _write(tmp_path, block.format(payoffs=delta), "alone.yaml")
    code, out, err = _run(capsys, ["effdim", "--config", both])
    assert code == 3
    rows = _rows(out)
    assert len(rows) == 5
    for meth, row in zip(("sQMC-I", "sQMC-II"), rows[1:3]):
        assert row == ["binary-asian|black-scholes|m=1", "1", meth, *[""] * 9]
        assert f"# effdim binary-asian|black-scholes|m=1 {meth}: " in err
    assert "numerical failure:" in err
    code_alone, out_alone, _ = _run(capsys, ["effdim", "--config", alone])
    assert code_alone == 0
    assert rows[3:] == _rows(out_alone)[1:]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_contract(tmp_path, capsys):
    path = _write(tmp_path, """
model: {kind: black-scholes, m: 4}
methods: [MC, sQMC-II]
reps: 3
sweep: {n: [16, 32]}
""")
    code, out, _ = _run(capsys, ["sweep", "--config", path])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["case", "method", "n", "variance", "time_ms"]
    assert [(r[1], r[2]) for r in rows[1:]] == [("MC", "16"), ("MC", "32"),
                                                ("sQMC-II", "16"), ("sQMC-II", "32")]
    for row in rows[1:]:
        assert float(row[3]) >= 0.0


# ---------------------------------------------------------------------------
# top-level argument handling


def test_exit_code_for_bad_config(tmp_path, capsys):
    path = _write(tmp_path, "reps: 1")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_exit_code_for_missing_config(tmp_path, capsys):
    code, _, err = _run(capsys, ["price", "--config", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_for_non_finite_estimate(tmp_path, capsys):
    # valid but extreme inputs: discount exp(-800) underflows, paths overflow
    path = _write(tmp_path, """
model: {kind: black-scholes, m: 16, r: 40.0, T: 20.0}
payoff: {kind: asian-delta, strike: 100.0}
methods: [MC]
n: 64
reps: 3
""")
    code, out, err = _run(capsys, ["price", "--config", path])
    assert code == 3
    assert "nan" not in out
    assert "numerical failure:" in err


def test_threads_and_seed_validation(tmp_path, capsys):
    path = _write(tmp_path, FAST_BS)
    code, _, _ = _run(capsys, ["price", "--config", path, "--threads", "0"])
    assert code == 2
    code, _, _ = _run(capsys, ["price", "--config", path, "--seed", "-1"])
    assert code == 2


def test_only_the_replicate_commands_take_threads_and_timing(tmp_path, capsys):
    # effdim runs no replicate loop and prints no time column
    path = _write(tmp_path, FAST_BS + "sweep: {n: [64]}\n")
    for flags in (["--threads", "2"], ["--timing"]):
        with pytest.raises(SystemExit) as exc:
            main(["effdim", "--config", path, *flags])
        assert exc.value.code == 2
    for command in ("price", "vrf", "sweep"):
        code, out, _ = _run(capsys, [command, "--config", path, "--threads", "2", "--timing"])
        assert code == 0 and len(_rows(out)) > 1


# ---------------------------------------------------------------------------
# import cost


def test_cli_import_defers_the_nig_build_modules():
    # scipy.integrate and scipy.interpolate take about a third of a second
    # to import, and only the NIG law build uses them
    script = """
import sys
import smoothqmc.cli
lazy = ("scipy.integrate", "scipy.interpolate")
print(*(name in sys.modules for name in lazy))
from smoothqmc.models import nig_numerical_law
nig_numerical_law(4.0, 0.0, 0.0, 1.0)
print(*(name in sys.modules for name in lazy))
"""
    path = [str(pathlib.Path(smoothqmc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines() == ["False False", "True True"]
