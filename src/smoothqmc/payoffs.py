"""Payoffs and their variable-separation bounds.

Three payoffs are built in: the binary Asian option, the pathwise
Asian-delta estimator, and the down-and-out barrier call.  Each one is
a smooth factor times an indicator whose payout region, conditional on
the coordinates u_{2:d}, is the half-line {u_1 > Gamma(u_{2:d})} in the
first coordinate.

Every supported model factors as S_i = exp(xi(u_1)) zeta_i(u_{2:d}) once
the transform pins the first coordinate, so the bounds are the first
log-shock's cdf applied to a function of the conditional path zeta
(gamma_average, gamma_extreme), and the smooth factor at any u_1 is a
function of exp(xi(u_1)) and the same zeta.  build_separable wires payoff,
model, and transform into a SeparableProblem the smoothing layer can
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .models import (
    HestonSpec,
    IncrementLaw,
    ModelSpec,
    first_shock_law,
    increment_law_for,
    log_increments,
    nominal_dim,
    paths_heston,
)
from .transforms import OrthogonalTransform

__all__ = [
    "PayoffSpec",
    "SeparableProblem",
    "payoff_value",
    "gamma_component",
    "gamma_average",
    "gamma_extreme",
    "heston_gamma_average",
    "heston_gamma_extreme",
    "conditional_paths",
    "build_separable",
]

PAYOFF_KINDS = ("binary-asian", "asian-delta", "barrier-down-out")


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff descriptor: kind, strike K, knockout barrier kappa, discount."""

    kind: str
    strike: float
    barrier: float | None = None
    discount: float = 1.0
    s0: float | None = None  # reference price for the delta estimator

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.kind == "barrier-down-out" and (self.barrier is None or self.barrier <= 0):
            raise ValueError("barrier-down-out needs a positive barrier level")

    @classmethod
    def for_model(cls, kind: str, model: ModelSpec, strike: float,
                  barrier: float | None = None) -> "PayoffSpec":
        return cls(kind=kind, strike=strike, barrier=barrier,
                   discount=float(np.exp(-model.r * model.T)), s0=model.s0)

    def barrier_levels(self, m: int) -> np.ndarray:
        """Per-step knockout levels: kappa except at maturity, where the
        strike is folded in (kappa_m = max(K, kappa)), which turns the
        call payoff times the survival product into a plain product of
        level indicators with a sign-definite smooth factor."""
        levels = np.full(m, float(self.barrier))
        levels[-1] = max(self.strike, self.barrier)
        return levels

    @property
    def weight_kind(self) -> str:
        """Which Taylor weight family matches this payoff."""
        return "barrier" if self.kind == "barrier-down-out" else "average"


def payoff_value(spec: PayoffSpec, paths: np.ndarray):
    """Discounted payoff of each path; accepts one path or an (N, m) batch."""
    S = np.asarray(paths, dtype=float)
    single = S.ndim == 1
    S = np.atleast_2d(S)
    avg = S.mean(axis=1)
    if spec.kind == "binary-asian":
        out = spec.discount * (avg > spec.strike).astype(float)
    elif spec.kind == "asian-delta":
        out = spec.discount * (avg / spec.s0) * (avg > spec.strike)
    else:
        levels = spec.barrier_levels(S.shape[1])
        alive = np.all(S > levels[None, :], axis=1)
        out = spec.discount * (S[:, -1] - spec.strike) * alive
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# separation bounds.  zeta is the conditional path, an (..., m) array with
# S_i = exp(xi) zeta_i; law is the law of the first log-shock xi.


def gamma_average(kappa: float, zeta: np.ndarray, law: IncrementLaw) -> np.ndarray:
    """Bound for the average condition S_A > kappa:
    gamma = F_xi(log(kappa m / sum_i zeta_i))."""
    zeta = np.asarray(zeta, dtype=float)
    return law.cdf(np.log(kappa * zeta.shape[-1] / zeta.sum(axis=-1)))


def gamma_extreme(kappas: np.ndarray, zeta: np.ndarray, law: IncrementLaw) -> np.ndarray:
    """Bound for the extreme condition {S_j > kappa_j for all j} over
    per-step levels kappa_j: u_1 > max_j F_xi(log(kappa_j / zeta_j))."""
    g = law.cdf(np.log(np.asarray(kappas, dtype=float) / np.asarray(zeta, dtype=float)))
    return g.max(axis=-1)


def gamma_component(j: int, kappa: float, zeta: np.ndarray, law: IncrementLaw) -> np.ndarray:
    """Bound for the single-date condition S_j > kappa: F_xi(log(kappa / zeta_j))."""
    return law.cdf(np.log(kappa / np.asarray(zeta, dtype=float)[..., j - 1]))


def heston_gamma_average(kappa: float, u_rest: np.ndarray, spec: HestonSpec,
                         transform: OrthogonalTransform) -> np.ndarray:
    """Heston bound for S_A > kappa on the conditioning coordinates u_{2:d}."""
    return gamma_average(kappa, conditional_paths(spec, transform)(u_rest), first_shock_law(spec))


def heston_gamma_extreme(kappas: np.ndarray, u_rest: np.ndarray, spec: HestonSpec,
                         transform: OrthogonalTransform) -> np.ndarray:
    """Heston bound for the extreme condition of gamma_extreme on u_{2:d}."""
    return gamma_extreme(kappas, conditional_paths(spec, transform)(u_rest),
                         first_shock_law(spec))


# ---------------------------------------------------------------------------
# wiring


def _require_pinned(transform: OrthogonalTransform) -> None:
    # conditioning on u_{2:d} is only meaningful when (Uz)_1 = z_1
    if transform.kind == "qr":
        raise ValueError("separable form needs an identity or mqr transform; "
                         "the full-qr transform does not pin the first coordinate")


def conditional_paths(model: ModelSpec,
                      transform: OrthogonalTransform) -> Callable[[np.ndarray], np.ndarray]:
    """The map u_{2:d} -> zeta, the (N, m) path at a zero first log-shock.

    With the first coordinate pinned, S_i = exp(xi(u_1)) zeta_i(u_{2:d}):
    for exponential-Levy paths zeta_i = s0 exp(x_2 + ... + x_i), for Heston
    zeta is the log-Euler path at z_1 = 0.
    """
    _require_pinned(transform)
    if isinstance(model, HestonSpec):
        def zeta(v):
            v = np.atleast_2d(np.asarray(v, dtype=float))
            z = np.zeros((v.shape[0], model.d))
            z[:, 1:] = special.ndtri(v)
            return paths_heston(model, z, transform)
        return zeta

    law = increment_law_for(model)
    rotation = transform.U[1:, 1:].T if transform.kind == "mqr" else None

    def zeta(v):
        y = special.ndtri(np.atleast_2d(np.asarray(v, dtype=float)))
        if rotation is not None:
            y = y @ rotation
        log_zeta = np.zeros((y.shape[0], model.m))
        np.cumsum(log_increments(law, y), axis=1, out=log_zeta[:, 1:])
        return model.s0 * np.exp(log_zeta)
    return zeta


@dataclass(frozen=True, eq=False)
class SeparableProblem:
    """A payoff in variable-separated form, f(u) 1{u_1 > Gamma(u_{2:d})}.

    conditional maps the conditioning block u_{2:d} to a state (the
    conditional path zeta for built problems); lower maps that state to
    the bound Gamma, and factor maps (u_1, state) to the discounted smooth
    factor.  An evaluation builds the state once and passes it on, so the
    problem itself holds no per-call data.
    """

    conditional: Callable[[np.ndarray], np.ndarray]
    lower: Callable[[np.ndarray], np.ndarray]
    factor: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d: int

    def lower_bound(self, v: np.ndarray) -> np.ndarray:
        """Gamma on the conditioning coordinates u_{2:d}."""
        return self.lower(self.conditional(v))

    def smooth_factor(self, u: np.ndarray) -> np.ndarray:
        """Smooth factor on a full (N, d) uniform batch."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return self.factor(u[:, 0], self.conditional(u[:, 1:]))


def build_separable(payoff: PayoffSpec, model: ModelSpec,
                    transform: OrthogonalTransform) -> SeparableProblem:
    """Assemble (zeta, Gamma, f) for a payoff/model/transform triple."""
    conditional = conditional_paths(model, transform)
    d = nominal_dim(model)
    if transform.d != d:
        raise ValueError(f"transform dimension {transform.d} does not match model dimension {d}")
    law = first_shock_law(model)
    disc = payoff.discount

    def growth(u1):
        return np.exp(law.inv(u1))

    if payoff.kind == "barrier-down-out":
        levels = payoff.barrier_levels(model.m)

        def lower(zeta):
            return gamma_extreme(levels, zeta, law)

        def factor(u1, zeta):
            return disc * (growth(u1) * zeta[:, -1] - payoff.strike)
    else:
        def lower(zeta):
            return gamma_average(payoff.strike, zeta, law)

        if payoff.kind == "binary-asian":
            def factor(u1, zeta):
                return np.full(zeta.shape[0], disc)
        else:
            def factor(u1, zeta):
                return disc * growth(u1) * zeta.mean(axis=1) / payoff.s0

    return SeparableProblem(conditional=conditional, lower=lower, factor=factor, d=d)
