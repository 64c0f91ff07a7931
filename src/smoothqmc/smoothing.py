"""Push-out smoothing of indicator payoffs.

Given a payoff in separated form f(u) * 1{Gamma_1 < u_1 < Gamma_2}, the
push-out map squeezes u_1 into the payout interval,

    u_1~ = Gamma_1 + (Gamma_2 - Gamma_1) u_1,

and reweights by the interval length.  The smoothed integrand

    h~(u) = (Gamma_2 - Gamma_1) f(u_1~, u_2, ..., u_d)

has the same integral as the raw one and variance at most
sup(Gamma_2 - Gamma_1) times the raw variance, but no discontinuity in
u_1.  The complement orientation handles payout regions of the form
{u_1 outside (Gamma_1, Gamma_2)} by subtraction.
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


def vpo_map(u1: np.ndarray, g1: np.ndarray, g2: np.ndarray):
    """Push u_1 into (g1, g2); returns the pushed coordinate and the
    interval-length weight.  Empty intervals (g2 <= g1) get weight 0 and
    leave the coordinate unchanged."""
    u1 = np.asarray(u1, dtype=float)
    weight = np.maximum(np.asarray(g2, dtype=float) - np.asarray(g1, dtype=float), 0.0)
    pushed = np.where(weight > 0.0, g1 + weight * u1, u1)
    return np.clip(pushed, EPS, 1.0 - EPS), weight


def _conditioned(problem: SeparableProblem, u):
    """Split a uniform batch into u_1 and the conditional state of u_{2:d},
    with the payout interval bounds the state gives."""
    u = np.atleast_2d(np.asarray(getattr(u, "values", u), dtype=float))
    if u.shape[1] != problem.d:
        raise ValueError(f"expected {problem.d} coordinates, got {u.shape[1]}")
    state = problem.conditional(u[:, 1:])
    return u[:, 0], state, problem.lower(state), problem.upper(state)


def evaluate_smoothed(problem: SeparableProblem, u: np.ndarray) -> np.ndarray:
    """Smoothed integrand values at the uniform points u of shape (N, d)."""
    u1, state, g1, g2 = _conditioned(problem, u)
    pushed, weight = vpo_map(u1, g1, g2)
    inner = weight * problem.factor(pushed, state)
    if problem.orientation == "interval":
        return inner
    return problem.factor(u1, state) - inner


def _indicator(problem: SeparableProblem, u1, g1, g2) -> np.ndarray:
    inside = (u1 > g1) & (u1 < g2)
    return ~inside if problem.orientation == "complement" else inside


def evaluate_indicator(problem: SeparableProblem, u: np.ndarray) -> np.ndarray:
    """Raw (unsmoothed) integrand through the separated form, for
    equivalence checks against the direct path-payoff route."""
    u1, state, g1, g2 = _conditioned(problem, u)
    return np.where(_indicator(problem, u1, g1, g2), problem.factor(u1, state), 0.0)


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
    """Monte Carlo check of Var(h~) <= c * Var(h) with c = sup(G2 - G1),
    allowing three-standard-error slack on both variance estimates."""
    u = pseudo_uniform(n, problem.d, ScrambleSeed(seed)).values
    u1, state, g1, g2 = _conditioned(problem, u)
    pushed, weight = vpo_map(u1, g1, g2)
    full = problem.factor(u1, state)
    raw = np.where(_indicator(problem, u1, g1, g2), full, 0.0)
    smoothed = weight * problem.factor(pushed, state)
    if problem.orientation == "complement":
        smoothed = full - smoothed
    var_raw = float(np.var(raw, ddof=1))
    var_smoothed = float(np.var(smoothed, ddof=1))
    c_hat = float(weight.max())
    slack = 3.0 * float(np.hypot(_variance_se(smoothed), c_hat * _variance_se(raw)))
    satisfied = var_smoothed <= c_hat * var_raw + slack
    return VarianceBoundReport(var_raw=var_raw, var_smoothed=var_smoothed,
                               c_hat=c_hat, bound_satisfied=satisfied, slack=slack)
