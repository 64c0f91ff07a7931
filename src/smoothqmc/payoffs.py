"""Payoffs and their variable-separation bounds.

Three payoffs are built in: the binary Asian option, the pathwise
Asian-delta estimator, and the down-and-out barrier call.  Each one is
a smooth factor times an indicator whose payout region, conditional on
the coordinates u_{2:d}, is the half-line {u_1 > Gamma(u_{2:d})} in the
first coordinate.

Every supported model factors as S_i = exp(xi(u_1)) zeta_i(u_{2:d}) once
the transform pins the first coordinate (models.factorization gives the
law of xi and the map u_{2:d} -> zeta), so the bounds are the first
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

from .errors import NumericalError
from .models import HestonSpec, IncrementLaw, ModelSpec, _finite_real, factorization
from .transforms import OrthogonalTransform

__all__ = [
    "PayoffSpec",
    "SeparableProblem",
    "payoff_value",
    "gamma_average",
    "gamma_extreme",
    "build_separable",
]

PAYOFF_KINDS = ("binary-asian", "asian-delta", "barrier-down-out")


def _positive(x: float | None) -> bool:
    """True for a finite real number above 0."""
    return _finite_real(x) and x > 0


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
        if not _positive(self.strike):
            raise ValueError("strike must be positive and finite")
        if not (_finite_real(self.discount) and self.discount >= 0):  # exp(-rT) may underflow to 0
            raise ValueError("discount must be finite and >= 0")
        if self.kind == "barrier-down-out" and not _positive(self.barrier):
            raise ValueError("barrier-down-out needs a positive finite barrier level")
        if self.kind == "asian-delta" and not _positive(self.s0):
            raise ValueError("asian-delta needs a positive finite reference price s0")

    @classmethod
    def for_model(cls, kind: str, model: ModelSpec, strike: float,
                  barrier: float | None = None) -> "PayoffSpec":
        if -model.r * model.T > 709.782712893384:  # log of the largest float: no price fits
            raise NumericalError(f"discount exp(-r T) overflows at r = {model.r:g}, T = {model.T:g}")
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


def payoff_value(spec: PayoffSpec, paths: np.ndarray) -> np.ndarray:
    """Discounted payoff of each path of an (N, m) batch."""
    S = np.asarray(paths, dtype=float)
    if S.ndim != 2:
        raise ValueError(f"paths must be an (N, m) batch, got shape {S.shape}")
    avg = S.mean(axis=1)
    if spec.kind == "binary-asian":
        return spec.discount * (avg > spec.strike).astype(float)
    if spec.kind == "asian-delta":
        return spec.discount * (avg / spec.s0) * (avg > spec.strike)
    alive = np.all(S > spec.barrier_levels(S.shape[1])[None, :], axis=1)
    return spec.discount * (S[:, -1] - spec.strike) * alive


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
    per-step levels kappa_j: u_1 > max_j F_xi(log(kappa_j / zeta_j)).
    F_xi and log are monotone, so that is one cdf per path,
    F_xi(log(max_j kappa_j / zeta_j))."""
    # a zeta_j at or near 0 knocks the path out for any u_1: ratio +inf, Gamma 1
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.asarray(kappas, dtype=float) / np.asarray(zeta, dtype=float)
    return law.cdf(np.log(ratio.max(axis=-1)))


# not exported: only perfbench/spans.py traces it (ROADMAP item 7)
def gamma_component(j: int, kappa: float, zeta: np.ndarray, law: IncrementLaw) -> np.ndarray:
    """Bound for the single-date condition S_j > kappa: F_xi(log(kappa / zeta_j))."""
    return law.cdf(np.log(kappa / np.asarray(zeta, dtype=float)[..., j - 1]))


# not exported: only perfbench/spans.py traces it (ROADMAP item 7)
def heston_gamma_average(kappa: float, u_rest: np.ndarray, spec: HestonSpec,
                         transform: OrthogonalTransform) -> np.ndarray:
    """Heston bound for S_A > kappa on the conditioning coordinates u_{2:d}."""
    law, zeta = factorization(spec, transform)
    return gamma_average(kappa, zeta(u_rest), law)


# not exported: only perfbench/spans.py traces it (ROADMAP item 7)
def heston_gamma_extreme(kappas: np.ndarray, u_rest: np.ndarray, spec: HestonSpec,
                         transform: OrthogonalTransform) -> np.ndarray:
    """Heston bound for the extreme condition of gamma_extreme on u_{2:d}."""
    law, zeta = factorization(spec, transform)
    return gamma_extreme(kappas, zeta(u_rest), law)


# ---------------------------------------------------------------------------
# wiring


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
    law, conditional = factorization(model, transform)
    d = model.d
    if transform.d != d:
        raise ValueError(f"transform dimension {transform.d} does not match model dimension {d}")
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
