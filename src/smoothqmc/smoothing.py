"""Push-out smoothing of indicator payoffs.

Given a payoff in separated form f(u) * 1{u_1 > Gamma(u_{2:d})}, the
push-out map squeezes u_1 into the payout interval (Gamma, 1),

    u_1~ = Gamma + (1 - Gamma) u_1,

and reweights by the interval length.  The smoothed integrand

    h~(u) = (1 - Gamma) f(u_1~, u_2, ..., u_d)

has the same integral as the raw one and variance at most
sup(1 - Gamma) times the raw variance, but no discontinuity in u_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .payoffs import SeparableProblem
from .points import EPS, ScrambleSeed, pseudo_uniform

__all__ = [
    "vpo_map",
    "evaluate_smoothed",
    "evaluate_indicator",
    "variance_bound_check",
    "VarianceBoundReport",
]


def vpo_map(u1: np.ndarray, gamma: np.ndarray):
    """Push u_1 into the payout interval (Gamma, 1); returns the pushed
    coordinate and the interval-length weight 1 - Gamma.  Gamma is a cdf
    value in [0, 1], so at Gamma = 1 the weight is 0."""
    weight = 1.0 - np.asarray(gamma, dtype=float)
    return np.clip(gamma + weight * np.asarray(u1, dtype=float), EPS, 1.0 - EPS), weight


def _conditioned(problem: SeparableProblem, u):
    """Split a uniform batch into u_1 and the conditional state of u_{2:d},
    with the payout bound Gamma the state gives."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != problem.d:
        raise ValueError(f"expected {problem.d} coordinates, got {u.shape[1]}")
    state = problem.conditional(u[:, 1:])
    return u[:, 0], state, problem.lower(state)


def evaluate_smoothed(problem: SeparableProblem, u: np.ndarray) -> np.ndarray:
    """Smoothed integrand values at the uniform points u of shape (N, d)."""
    u1, state, g1 = _conditioned(problem, u)
    pushed, weight = vpo_map(u1, g1)
    return weight * problem.factor(pushed, state)


def evaluate_indicator(problem: SeparableProblem, u: np.ndarray) -> np.ndarray:
    """Raw (unsmoothed) integrand through the separated form, for
    equivalence checks against the direct path-payoff route."""
    u1, state, g1 = _conditioned(problem, u)
    return np.where(u1 > g1, problem.factor(u1, state), 0.0)


@dataclass(frozen=True)
class VarianceBoundReport:
    var_raw: float
    var_smoothed: float
    c_hat: float
    bound_satisfied: bool
    slack: float


def _variance_se(x: np.ndarray) -> float:
    # asymptotic s.e. of the sample variance: sqrt((m4 - var^2)/n)
    n = x.size
    centered = x - x.mean()
    var = centered.var(ddof=1) if n > 1 else 0.0
    m4 = np.mean(centered ** 4)
    return float(np.sqrt(max(m4 - var ** 2, 0.0) / n))


def variance_bound_check(problem: SeparableProblem, n: int, seed: int) -> VarianceBoundReport:
    """Monte Carlo check of Var(h~) <= c * Var(h) with c = sup(1 - Gamma),
    allowing three-standard-error slack on both variance estimates."""
    u = pseudo_uniform(n, problem.d, ScrambleSeed(seed)).values
    raw = evaluate_indicator(problem, u)
    smoothed = evaluate_smoothed(problem, u)
    var_raw = float(np.var(raw, ddof=1))
    var_smoothed = float(np.var(smoothed, ddof=1))
    c_hat = float(1.0 - _conditioned(problem, u)[2].min())
    slack = 3.0 * float(np.hypot(_variance_se(smoothed), c_hat * _variance_se(raw)))
    satisfied = var_smoothed <= c_hat * var_raw + slack
    return VarianceBoundReport(var_raw=var_raw, var_smoothed=var_smoothed,
                               c_hat=c_hat, bound_satisfied=satisfied, slack=slack)
