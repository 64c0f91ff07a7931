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


# Dot products of batch-sized vectors go through einsum, which calls no
# BLAS: OpenBLAS threads a dot product of more than 10^4 entries, and its
# worker then spins on a core that the row blocks of the next call need.
def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i", x, y))


def _cov(x: np.ndarray, y: np.ndarray) -> float:
    return _dot(x - x.mean(), y - y.mean()) / (x.size - 1)


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
    truncation scan, first-order indices, and Jansen total indices.  Each
    hybrid is b with some columns from a, alive only during its own call;
    the last two share their d hybrids, so a report makes 2d + 1 calls."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    a, b = np.hsplit(scrambled_sobol(n, 2 * d, ScrambleSeed(seed)).values, 2)

    def h_hybrid(cols) -> np.ndarray:
        hybrid = b.copy()
        hybrid[:, cols] = a[:, cols]
        return np.asarray(integrand(hybrid), dtype=float)

    ha = np.asarray(integrand(a), dtype=float)
    var = _variance(ha)
    trunc = [_cov(ha, h_hybrid(slice(0, ell))) / var for ell in range(1, d)]
    trunc.append(_cov(ha, ha) / var)  # at l = d the hybrid is a itself
    trunc_dim = next((ell for ell, r in enumerate(trunc, start=1) if r >= p), d)

    hb = np.asarray(integrand(b), dtype=float)
    first_order = jansen = 0.0
    for j in range(d):
        hj = h_hybrid(j)
        first_order += _cov(ha, hj) / var
        diff = hb - hj
        jansen += _dot(diff, diff) / (2.0 * hb.size)

    d_ms = jansen / var
    if not np.all(np.isfinite([*trunc, first_order, d_ms])):
        raise NumericalError("effective-dimension statistics are not finite")
    return DimensionReport(d=d, truncation=tuple(trunc), r_order1=first_order,
                           d_ms=d_ms, d_t=trunc_dim, total_variance=var)
