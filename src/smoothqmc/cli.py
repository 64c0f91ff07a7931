"""Command-line front end.

Subcommands:

    price    estimates for every configured (payoff, method) cell
    vrf      variance-reduction factors against the MC baseline
    effdim   effective-dimension report for the smoothed integrands
    sweep    replicate variance as a function of the sample size n

Configuration comes from a YAML file (--config); every file key has a
default, so all subcommands also run bare.  Output is a UTF-8 CSV with a
fixed header, written to --out or stdout.  Runs are byte-reproducible
for a fixed seed: timing columns print 0.0 unless --timing is given.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, field, replace

import yaml

from .effdim import dimension_report
from .errors import ConfigError, NumericalError
from .estimators import (
    METHODS,
    SMOOTHED_METHODS,
    analysis_integrand,
    run,
    vrf_table,
)
from .models import BlackScholesSpec, HestonSpec, ModelSpec, NigSpec, nominal_dim
from .payoffs import PAYOFF_KINDS, PayoffSpec

__all__ = ["main", "parse_config", "ExperimentConfig"]

_MODEL_KINDS = ("black-scholes", "nig", "heston")

_MODEL_DEFAULTS = {
    "black-scholes": {"s0": 100.0, "r": 0.04, "sigma": 0.3, "T": 1.0},
    "nig": {"s0": 100.0, "alpha": 105.96, "beta": -26.15, "mu": 1.2528,
            "delta": 4.032, "r": 0.04, "T": 1.0},
    "heston": {"s0": 100.0, "v0": 0.2, "r": 0.04, "theta_bar": 0.2, "nu": 1.0,
               "sigma_v": 0.2, "rho": 0.5, "T": 1.0},
}

_PAYOFF_DEFAULTS = {"kind": "binary-asian", "strike": 100.0, "barrier": 90.0}

_SWEEP_DEFAULT_N = tuple(2 ** k for k in range(10, 15))


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str = "black-scholes"
    model_params: dict = field(default_factory=dict)
    m_values: tuple[int, ...] = (16,)
    payoffs: tuple[dict, ...] = (dict(_PAYOFF_DEFAULTS),)
    methods: tuple[str, ...] = METHODS
    n: int = 4096
    reps: int = 100
    seed: int = 12345
    effdim_n: int = 2 ** 18
    effdim_p: float = 0.99
    sweep_n: tuple[int, ...] = _SWEEP_DEFAULT_N


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def _as_number(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number, got {value!r}")
    return float(value)


def parse_config(path: str | None) -> ExperimentConfig:
    """Load and validate the experiment configuration."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a mapping")
    known = {"model", "payoff", "payoffs", "methods", "n", "reps", "seed",
             "effdim", "sweep"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    model_block = dict(raw.get("model") or {})
    kind = model_block.pop("kind", "black-scholes")
    _require(kind in _MODEL_KINDS, f"model.kind must be one of {_MODEL_KINDS}, got {kind!r}")
    m_raw = model_block.pop("m", 16)
    m_list = m_raw if isinstance(m_raw, list) else [m_raw]
    _require(len(m_list) >= 1, "model.m must not be an empty list")
    m_values = tuple(_as_int(v, "model.m") for v in m_list)
    _require(all(v >= 1 for v in m_values), "model.m entries must be >= 1")
    params = dict(_MODEL_DEFAULTS[kind])
    bad = set(model_block) - set(params)
    _require(not bad, f"unknown {kind} parameters: {sorted(bad)}")
    for key, value in model_block.items():
        params[key] = _as_number(value, f"model.{key}")

    _require(not ("payoff" in raw and "payoffs" in raw),
             "give either payoff or payoffs, not both")
    payoff_blocks = raw.get("payoffs", [raw.get("payoff") or dict(_PAYOFF_DEFAULTS)])
    _require(isinstance(payoff_blocks, list) and payoff_blocks,
             "payoffs must be a non-empty list")
    payoffs = []
    for block in payoff_blocks:
        _require(isinstance(block, dict), "each payoff must be a mapping")
        merged = dict(_PAYOFF_DEFAULTS)
        bad = set(block) - set(merged)
        _require(not bad, f"unknown payoff keys: {sorted(bad)}")
        merged.update(block)
        _require(merged["kind"] in PAYOFF_KINDS,
                 f"payoff.kind must be one of {PAYOFF_KINDS}, got {merged['kind']!r}")
        for key in ("strike", "barrier"):
            merged[key] = _as_number(merged[key], f"payoff.{key}")
        payoffs.append(merged)

    methods = tuple(raw.get("methods", METHODS))
    _require(len(methods) >= 1, "methods must not be empty")
    for meth in methods:
        _require(meth in METHODS, f"unknown method {meth!r}; choose from {METHODS}")

    n = _as_int(raw.get("n", 4096), "n")
    _require(n >= 2, f"n must be >= 2, got {n}")
    reps = _as_int(raw.get("reps", 100), "reps")
    _require(reps >= 2, f"reps must be >= 2 (one replicate gives no variance), got {reps}")
    seed = _as_int(raw.get("seed", 12345), "seed")
    _require(0 <= seed < 2 ** 64, f"seed must be in [0, 2^64), got {seed}")

    eff = dict(raw.get("effdim") or {})
    bad = set(eff) - {"n", "p"}
    _require(not bad, f"unknown effdim keys: {sorted(bad)}")
    effdim_n = _as_int(eff.get("n", 2 ** 18), "effdim.n")
    _require(effdim_n >= 2, f"effdim.n must be >= 2, got {effdim_n}")
    effdim_p = _as_number(eff.get("p", 0.99), "effdim.p")
    _require(0.0 < effdim_p <= 1.0, f"effdim.p must be in (0, 1], got {effdim_p!r}")

    sweep = dict(raw.get("sweep") or {})
    bad = set(sweep) - {"n"}
    _require(not bad, f"unknown sweep keys: {sorted(bad)}")
    sweep_raw = sweep.get("n", list(_SWEEP_DEFAULT_N))
    _require(isinstance(sweep_raw, list) and sweep_raw, "sweep.n must be a non-empty list")
    sweep_n = tuple(_as_int(v, "sweep.n") for v in sweep_raw)
    for v in sweep_n:
        _require(v >= 2 and (v & (v - 1)) == 0,
                 f"sweep.n entries must be powers of two >= 2, got {v}")

    return ExperimentConfig(model_kind=kind, model_params=params, m_values=m_values,
                            payoffs=tuple(payoffs), methods=methods, n=n, reps=reps,
                            seed=seed, effdim_n=effdim_n, effdim_p=effdim_p,
                            sweep_n=sweep_n)


def _build_model(cfg: ExperimentConfig, m: int) -> ModelSpec:
    params = dict(cfg.model_params)
    try:
        if cfg.model_kind == "black-scholes":
            return BlackScholesSpec(m=m, **params)
        if cfg.model_kind == "nig":
            return NigSpec(m=m, **params)
        return HestonSpec(m=m, **params)
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _build_payoff(block: dict, model: ModelSpec) -> PayoffSpec:
    try:
        return PayoffSpec.for_model(block["kind"], model, block["strike"],
                                    barrier=block["barrier"])
    except ValueError as exc:
        raise ConfigError(f"invalid payoff parameters: {exc}") from exc


def _case_label(cfg: ExperimentConfig, payoff_kind: str, m: int) -> str:
    label = f"{payoff_kind}|{cfg.model_kind}|m={m}"
    if cfg.model_kind == "heston":
        label += f"|rho={cfg.model_params['rho']:g}"
    return label


def _cells(cfg: ExperimentConfig):
    """Yield (case, model, payoff) for every configured cell, logging the
    Esscher parameter once per NIG model build."""
    for m in cfg.m_values:
        model = _build_model(cfg, m)
        if isinstance(model, NigSpec):
            print(f"# nig m={m}: esscher theta = {model.theta:.6f}", file=sys.stderr)
        for block in cfg.payoffs:
            yield _case_label(cfg, block["kind"], m), model, _build_payoff(block, model)


def _fmt(x: float) -> str:
    if x != x:  # NaN
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


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
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_price(cfg: ExperimentConfig, args) -> list[list[str]]:
    rows = []
    for case, model, payoff in _cells(cfg):
        if "MC" in cfg.methods:
            table = vrf_table([payoff], model, cfg.methods, cfg.n, cfg.reps,
                              cfg.seed, threads=args.threads)
            reports = [rep for _, rep in table]
        else:
            reports = [run(meth, payoff, model, cfg.n, cfg.reps, cfg.seed,
                           threads=args.threads) for meth in cfg.methods]
        for rep in reports:
            rows.append([case, rep.method, _fmt(rep.estimate),
                         _fmt(rep.replicate_variance),
                         _fmt(rep.vrf) if rep.vrf is not None else "",
                         _time_ms(rep.wall_time, args.timing),
                         str(rep.n), str(rep.reps), str(cfg.seed)])
    return rows


def _cmd_vrf(cfg: ExperimentConfig, args) -> list[list[str]]:
    _require("MC" in cfg.methods, "vrf needs the MC baseline in methods")
    rows = []
    for case, model, payoff in _cells(cfg):
        table = vrf_table([payoff], model, cfg.methods, cfg.n, cfg.reps,
                          cfg.seed, threads=args.threads)
        d = nominal_dim(model)
        for _, rep in table:
            rows.append([case, str(d), rep.method, _fmt(rep.estimate),
                         _fmt(rep.vrf), _time_ms(rep.wall_time, args.timing)])
    return rows


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
            rep = dimension_report(integrand, d, cfg.effdim_n, cfg.seed, p=cfg.effdim_p)
            rows.append([case, str(d), meth,
                         _pct(rep.r_first), _pct(rep.r_first_two), _pct(rep.r_order1),
                         str(rep.d_t), f"{rep.d_ms:.2f}",
                         _fmt(rep.r_first), _fmt(rep.r_first_two), _fmt(rep.r_order1),
                         _fmt(rep.d_ms)])
    return rows


def _cmd_sweep(cfg: ExperimentConfig, args) -> list[list[str]]:
    rows = []
    for case, model, payoff in _cells(cfg):
        for meth in cfg.methods:
            for n in cfg.sweep_n:
                rep = run(meth, payoff, model, n, cfg.reps, cfg.seed,
                          threads=args.threads)
                rows.append([case, meth, str(n), _fmt(rep.replicate_variance),
                             _time_ms(rep.wall_time, args.timing)])
    return rows


_COMMANDS = {
    "price": (_cmd_price,
              ["case", "method", "estimate", "variance", "vrf", "time_ms",
               "n", "reps", "seed"]),
    "vrf": (_cmd_vrf, ["case", "d", "method", "estimate", "vrf", "time_ms"]),
    "effdim": (_cmd_effdim,
               ["case", "d", "method", "R1", "R12", "Rorder1", "d_t", "d_ms",
                "R1_raw", "R12_raw", "Rorder1_raw", "d_ms_raw"]),
    "sweep": (_cmd_sweep, ["case", "method", "n", "variance", "time_ms"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothqmc",
        description="Smoothed quasi-Monte Carlo pricing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [("price", "estimate every configured payoff"),
                            ("vrf", "variance-reduction factors vs plain MC"),
                            ("effdim", "effective dimension of smoothed integrands"),
                            ("sweep", "replicate variance across sample sizes")]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="YAML experiment file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="output CSV path (default stdout)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads for replicate loops")
        cmd.add_argument("--timing", action="store_true",
                         help="record wall-clock times (breaks byte reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = parse_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError(f"--seed must be in [0, 2^64), got {args.seed}")
            cfg = replace(cfg, seed=args.seed)
        command, header = _COMMANDS[args.command]
        rows = command(cfg, args)
        _write_csv(args.out, header, rows)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
