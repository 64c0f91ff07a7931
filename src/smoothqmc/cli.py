"""Command-line front end.

Subcommands (help texts in _COMMANDS):

    price    estimates for every configured (payoff, method) cell
    vrf      variance-reduction factors against the MC baseline
    effdim   effective-dimension report for the smoothed integrands
    sweep    replicate variance as a function of the sample size n

Configuration comes from a YAML file (--config); every file key has a
default, so all subcommands also run bare.  Every block (the root, model,
each payoff, effdim, sweep) is a mapping, and an absent or null block takes
all its defaults; every list (model.m, payoffs, methods, sweep.n) is a
non-empty YAML list, except that a scalar model.m means a one-entry list.
Output is a UTF-8 CSV with a fixed header, written to --out or stdout.  A
blank vrf means there is no MC baseline or the cell's replicate variance is
zero.  Runs are byte-reproducible for a fixed seed: timing columns print
0.0 unless --timing is given.

Exit codes: 0 success, 2 configuration error (an unwritable --out too),
3 numerical failure (effdim first writes every row, blank for a failed cell).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, replace

import yaml

from .effdim import dimension_report
from .errors import ConfigError, NumericalError
from .estimators import METHODS, SMOOTHED_METHODS, analysis_integrand, sweep, vrf_table
from .models import BlackScholesSpec, HestonSpec, NigSpec, _finite_real
from .payoffs import PAYOFF_KINDS, PayoffSpec
from .points import N_BITS

__all__ = ["main", "parse_config", "ExperimentConfig"]

# model kind -> (spec class, default parameters); the parameters are the
# keys a model block may carry besides kind and m
_MODELS = {
    "black-scholes": (BlackScholesSpec,
                      {"s0": 100.0, "r": 0.04, "sigma": 0.3, "T": 1.0}),
    "nig": (NigSpec, {"s0": 100.0, "alpha": 105.96, "beta": -26.15, "mu": 1.2528,
                      "delta": 4.032, "r": 0.04, "T": 1.0}),
    "heston": (HestonSpec, {"s0": 100.0, "v0": 0.2, "r": 0.04, "theta_bar": 0.2,
                            "nu": 1.0, "sigma_v": 0.2, "rho": 0.5, "T": 1.0}),
}

_PAYOFF_DEFAULTS = {"kind": "binary-asian", "strike": 100.0, "barrier": 90.0}


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    model_params: dict
    m_values: tuple[int, ...]
    payoffs: tuple[dict, ...]
    methods: tuple[str, ...]
    n: int
    reps: int
    seed: int
    effdim_n: int
    effdim_p: float
    sweep_n: tuple[int, ...]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _block(value, name: str, allowed) -> dict:
    """Read one config mapping: absent or null reads as {}, and anything
    but a mapping is an error, as is a key outside allowed (None admits
    every key, for a block whose keys are checked later)."""
    if value is None:
        return {}
    _require(isinstance(value, dict), f"expected a mapping of {name}, got {value!r}")
    bad = set(value) - set(value if allowed is None else allowed)
    _require(not bad, f"unknown {name}: {sorted(bad, key=str)}")
    return dict(value)


def _as_list(value, name: str) -> list:
    _require(isinstance(value, list) and value,
             f"{name} must be a non-empty list, got {value!r}")
    return value


def _as_int(value, name: str, low: int) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    _require(value >= low, f"{name} must be >= {low}, got {value}")
    return value


def _as_seed(value, name: str) -> int:
    _require(_as_int(value, name, 0) < 2 ** 64, f"{name} must be < 2^64, got {value}")
    return value


def _as_sample_size(value, name: str) -> int:
    # a scrambled Sobol' net has at most 2^N_BITS points
    _require(_as_int(value, name, 2) <= 2 ** N_BITS, f"{name} must be <= 2^{N_BITS}, got {value}")
    return value


def _as_number(value, name: str) -> float:
    hint = " (YAML read it as text; spell exponents as 3.0e-1 or 1.0e+6)" if isinstance(value, str) else ""
    _require(_finite_real(value), f"{name} must be a finite number, got {value!r}{hint}")
    return float(value)


def parse_config(path: str | None) -> ExperimentConfig:
    """Load and validate the experiment configuration."""
    raw = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    raw = _block(raw, "config keys", ("model", "payoff", "payoffs", "methods", "n",
                                      "reps", "seed", "effdim", "sweep"))

    model = _block(raw.get("model"), "model keys", None)
    kind = model.pop("kind", "black-scholes")
    kinds = tuple(_MODELS)  # a tuple, so an unhashable kind is just not in it
    _require(kind in kinds, f"model.kind must be one of {kinds}, got {kind!r}")
    m_raw = model.pop("m", 16)
    m_values = tuple(_as_int(v, "model.m", 1) for v in
                     _as_list(m_raw if isinstance(m_raw, list) else [m_raw], "model.m"))
    defaults = _MODELS[kind][1]
    params = {**defaults, **_block(model, f"{kind} parameters", defaults)}
    params = {key: _as_number(value, f"model.{key}") for key, value in params.items()}

    _require(not ("payoff" in raw and "payoffs" in raw),
             "give either payoff or payoffs, not both")
    payoffs = []
    for block in _as_list(raw.get("payoffs", [raw.get("payoff")]), "payoffs"):
        merged = {**_PAYOFF_DEFAULTS, **_block(block, "payoff keys", _PAYOFF_DEFAULTS)}
        _require(merged["kind"] in PAYOFF_KINDS,
                 f"payoff.kind must be one of {PAYOFF_KINDS}, got {merged['kind']!r}")
        for key in ("strike", "barrier"):
            merged[key] = _as_number(merged[key], f"payoff.{key}")
        payoffs.append(merged)

    methods = tuple(_as_list(raw.get("methods", list(METHODS)), "methods"))
    for meth in methods:
        _require(meth in METHODS, f"unknown method {meth!r}; choose from {METHODS}")

    effdim = _block(raw.get("effdim"), "effdim keys", ("n", "p"))
    effdim_p = _as_number(effdim.get("p", 0.99), "effdim.p")
    _require(0.0 < effdim_p <= 1.0, f"effdim.p must be in (0, 1], got {effdim_p!r}")

    sweep = _block(raw.get("sweep"), "sweep keys", ("n",))
    sweep_n = tuple(_as_sample_size(v, "sweep.n") for v in
                    _as_list(sweep.get("n", [2 ** k for k in range(10, 15)]), "sweep.n"))
    for v in sweep_n:
        _require(v & (v - 1) == 0, f"sweep.n entries must be powers of two >= 2, got {v}")

    return ExperimentConfig(
        model_kind=kind, model_params=params, m_values=m_values,
        payoffs=tuple(payoffs), methods=methods,
        n=_as_sample_size(raw.get("n", 4096), "n"),
        reps=_as_int(raw.get("reps", 100), "reps", 2),
        seed=_as_seed(raw.get("seed", 12345), "seed"),
        effdim_n=_as_sample_size(effdim.get("n", 2 ** 18), "effdim.n"),
        effdim_p=effdim_p, sweep_n=sweep_n)


def _cells(cfg: ExperimentConfig):
    """Yield (case, model, payoff) for every configured cell, logging the
    Esscher parameter once per NIG model build.  Parameters that a spec
    rejects are a configuration error."""
    spec = _MODELS[cfg.model_kind][0]
    for m in cfg.m_values:
        try:
            model = spec(m=m, **cfg.model_params)
            payoffs = [PayoffSpec.for_model(p["kind"], model, p["strike"], barrier=p["barrier"])
                       for p in cfg.payoffs]
        except ValueError as exc:
            raise ConfigError(f"invalid model or payoff parameters: {exc}") from exc
        if isinstance(model, NigSpec):
            print(f"# nig m={m}: esscher theta = {model.theta:.6f}", file=sys.stderr)
        case = f"{cfg.model_kind}|m={m}"
        if isinstance(model, HestonSpec):
            case += f"|rho={model.rho:g}"
        for payoff in payoffs:
            yield f"{payoff.kind}|{case}", model, payoff


def _priced(cfg: ExperimentConfig):
    """Yield (case, model, report) for every (cell, method); the reports
    carry a vrf when MC is among the methods."""
    for case, model, payoff in _cells(cfg):
        for _, rep in vrf_table([payoff], model, cfg.methods, cfg.n, cfg.reps, cfg.seed):
            yield case, model, rep


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _time_ms(seconds: float, timing: bool) -> str:
    return f"{seconds * 1e3:.3f}" if timing else "0.0"


def _write_csv(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _cmd_price(cfg: ExperimentConfig, args) -> list[list[str]]:
    return [[case, rep.method, _fmt(rep.estimate), _fmt(rep.replicate_variance),
             _fmt(rep.vrf), _time_ms(rep.wall_time, args.timing),
             str(rep.n), str(rep.reps), str(cfg.seed)]
            for case, _, rep in _priced(cfg)]


def _cmd_vrf(cfg: ExperimentConfig, args) -> list[list[str]]:
    _require("MC" in cfg.methods, "vrf needs the MC baseline in methods")
    return [[case, str(model.d), rep.method, _fmt(rep.estimate),
             _fmt(rep.vrf), _time_ms(rep.wall_time, args.timing)]
            for case, model, rep in _priced(cfg)]


def _pct(x: float) -> str:
    # negative sampling noise is clamped for display only
    return f"{100.0 * max(x, 0.0):.2f}"


def _cmd_effdim(cfg: ExperimentConfig, args) -> list[list[str]]:
    methods = [meth for meth in cfg.methods if meth in SMOOTHED_METHODS]
    _require(methods, "effdim needs at least one smoothed method (sQMC-I or sQMC-II)")
    rows = []
    for case, model, payoff in _cells(cfg):
        for meth in methods:
            integrand, d = analysis_integrand(meth, payoff, model)
            try:
                rep = dimension_report(integrand, d, cfg.effdim_n, cfg.seed, p=cfg.effdim_p)
                stats = [_pct(rep.r_first), _pct(rep.r_first_two), _pct(rep.r_order1),
                         str(rep.d_t), f"{rep.d_ms:.2f}", _fmt(rep.r_first),
                         _fmt(rep.r_first_two), _fmt(rep.r_order1), _fmt(rep.d_ms)]
            except NumericalError as exc:  # blank statistics; the other cells go on
                print(f"# effdim {case} {meth}: {exc}", file=sys.stderr)
                stats = [""] * 9
            rows.append([case, str(d), meth, *stats])
    if any(not row[3] for row in rows):  # write every row, then exit 3
        _write_csv(args.out, _COMMANDS["effdim"][2], rows)
        raise NumericalError("effdim could not analyse every cell")
    return rows


def _cmd_sweep(cfg: ExperimentConfig, args) -> list[list[str]]:
    return [[case, meth, str(rep.n), _fmt(rep.replicate_variance),
             _time_ms(rep.wall_time, args.timing)]
            for case, model, payoff in _cells(cfg) for meth in cfg.methods
            for rep in sweep(meth, payoff, model, cfg.sweep_n, cfg.reps, cfg.seed)]


# name -> (command, help text, CSV header)
_COMMANDS = {
    "price": (_cmd_price, "estimate every configured payoff",
              ["case", "method", "estimate", "variance", "vrf", "time_ms",
               "n", "reps", "seed"]),
    "vrf": (_cmd_vrf, "variance-reduction factors vs plain MC",
            ["case", "d", "method", "estimate", "vrf", "time_ms"]),
    "effdim": (_cmd_effdim, "effective dimension of smoothed integrands",
               ["case", "d", "method", "R1", "R12", "Rorder1", "d_t", "d_ms",
                "R1_raw", "R12_raw", "Rorder1_raw", "d_ms_raw"]),
    "sweep": (_cmd_sweep, "replicate variance across sample sizes",
              ["case", "method", "n", "variance", "time_ms"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothqmc",
        description="Smoothed quasi-Monte Carlo pricing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="YAML experiment file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if name != "effdim":  # effdim has no replicate loop and no time column
            cmd.add_argument("--threads", type=int, default=1,
                             help="accepted and ignored: the replicate loop uses every "
                                  "CPU the process may use (limit them with taskset)")
            cmd.add_argument("--timing", action="store_true",
                             help="record wall-clock times (breaks byte reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _as_int(getattr(args, "threads", 1), "--threads", 1)
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=_as_seed(args.seed, "--seed"))
        command, _, header = _COMMANDS[args.command]
        _write_csv(args.out, header, command(cfg, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
