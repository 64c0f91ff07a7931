"""Effective dimension of an integrand on the unit cube.

All quantities come from pick-freeze sampling: two independent point
blocks a, b drive hybrid evaluations that isolate how much variance the
leading coordinates (truncation sense) or single coordinates
(superposition sense) explain.

    R_l   = Cov(h(a), h(a_1..l, b_l+1..d)) / Var(h)     truncation ratios
    S_j   = Cov(h(a), h(b with coord j from a)) / Var(h) first-order indices
    tau_j = (1/2n) sum (h(b) - h(b with coord j from a))^2  total indices

    d_t  = smallest l with R_l >= p  (truncation dimension)
    d_ms = sum_j tau_j / Var(h)      (mean dimension)

The blocks are disjoint coordinate slabs of one scrambled Sobol' set in
2d dimensions, so the ratios converge at QMC rather than MC rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .points import ScrambleSeed, scrambled_sobol

__all__ = [
    "DimensionReport",
    "dimension_report",
]

Integrand = Callable[[np.ndarray], np.ndarray]


def _variance(values: np.ndarray) -> float:
    var = float(np.var(values, ddof=1))
    # constant integrands leave only summation residue, orders below
    # eps^2 relative to the magnitude; treat that as zero variance
    floor = 1e-24 * max(float(np.mean(values ** 2)), 1e-300)
    if not np.isfinite(var) or var <= floor:
        raise NumericalError("effective-dimension analysis needs an integrand "
                             "with positive finite variance")
    return var


def _cov(x: np.ndarray, y: np.ndarray) -> float:
    return float((x - x.mean()) @ (y - y.mean()) / (x.size - 1))


@dataclass(frozen=True)
class DimensionReport:
    """All effective-dimension statistics from one shared sample."""

    d: int
    truncation: tuple[float, ...]  # R_1 .. R_d, raw (may stray outside [0,1])
    r_order1: float
    d_ms: float
    d_t: int
    total_variance: float

    @property
    def r_first(self) -> float:
        return self.truncation[0]

    @property
    def r_first_two(self) -> float:
        return self.truncation[1] if self.d >= 2 else self.truncation[0]


def dimension_report(integrand: Integrand, d: int, n: int, seed: int,
                     p: float = 0.99) -> DimensionReport:
    """One-pass report sharing a single (a, b) block pair across the
    truncation scan, first-order indices, and Jansen total indices; the
    last two share their d hybrids, so a report makes 2d + 1 integrand calls."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    a, b = np.hsplit(scrambled_sobol(n, 2 * d, ScrambleSeed(seed)).values, 2)
    ha = np.asarray(integrand(a), dtype=float)
    var = _variance(ha)

    trunc = []
    for ell in range(1, d):
        hybrid = np.concatenate([a[:, :ell], b[:, ell:]], axis=1)
        trunc.append(_cov(ha, np.asarray(integrand(hybrid), dtype=float)) / var)
    trunc.append(_cov(ha, ha) / var)  # at l = d the hybrid is a itself
    trunc_dim = next((ell for ell, r in enumerate(trunc, start=1) if r >= p), d)

    hb = np.asarray(integrand(b), dtype=float)
    first_order = 0.0
    jansen = 0.0
    for j in range(d):
        hybrid = b.copy()
        hybrid[:, j] = a[:, j]
        h_hybrid = np.asarray(integrand(hybrid), dtype=float)
        first_order += _cov(ha, h_hybrid) / var
        diff = hb - h_hybrid
        jansen += float(diff @ diff) / (2.0 * hb.size)

    d_ms = jansen / var
    if not np.all(np.isfinite([*trunc, first_order, d_ms])):
        raise NumericalError("effective-dimension statistics are not finite")
    return DimensionReport(d=d, truncation=tuple(trunc), r_order1=first_order,
                           d_ms=d_ms, d_t=trunc_dim, total_variance=var)
