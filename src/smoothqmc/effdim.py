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
from .points import N_BITS, ScrambleSeed, SobolSource, scramble

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


def _cov(centered: np.ndarray, y: np.ndarray) -> float:
    """Covariance of x and y, given x - mean(x)."""
    return _dot(centered, y - y.mean()) / (y.size - 1)


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
    last two share their d hybrids, so a report makes 2d + 1 calls.

    a and b are the column halves of one column-major (n, 2d) array, and
    every hybrid (b with some columns from a) is formed in one kept
    column-major buffer by copying single columns between calls.  So the
    integrand must not keep a reference to its argument after it returns;
    a returned view of it is read before the buffer next changes.  Peak
    memory is 2nd + nd floats plus the integrand's own row blocks.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 2 <= n <= 2 ** N_BITS:
        raise ValueError(f"n must be >= 2 and <= 2^{N_BITS} (the Sobol' net), got {n}")
    source = SobolSource(n, 2 * d)  # checks d against the table before allocating
    points = scramble(source, ScrambleSeed(seed), out=np.empty((n, 2 * d), order="F")).values
    a, b = points[:, :d], points[:, d:]

    def h(u) -> np.ndarray:
        return np.asarray(integrand(u), dtype=float)

    ha = h(a)
    var = _variance(ha)
    ca = ha - ha.mean()
    hybrid = b.copy(order="F")
    trunc = []
    for ell in range(1, d):
        hybrid[:, ell - 1] = a[:, ell - 1]
        trunc.append(_cov(ca, h(hybrid)) / var)
    trunc.append(_cov(ca, ha) / var)  # at l = d the hybrid is a itself
    trunc_dim = next((ell for ell, r in enumerate(trunc, start=1) if r >= p), d)
    hybrid[:, :d - 1] = b[:, :d - 1]

    hb = h(b)
    first_order = jansen = 0.0
    for j in range(d):
        hybrid[:, j] = a[:, j]
        hj = h(hybrid)
        first_order += _cov(ca, hj) / var
        diff = hb - hj
        jansen += _dot(diff, diff) / (2.0 * hb.size)
        hybrid[:, j] = b[:, j]

    d_ms = jansen / var
    if not np.all(np.isfinite([*trunc, first_order, d_ms])):
        raise NumericalError("effective-dimension statistics are not finite")
    return DimensionReport(d=d, truncation=tuple(trunc), r_order1=first_order,
                           d_ms=d_ms, d_t=trunc_dim, total_variance=var)
