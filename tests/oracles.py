"""Shared test oracles.

A product test function with known ANOVA structure, reached by two
independent routes: a closed-form ANOVA from the product structure, and a
tensor composite Gauss-Legendre quadrature that never touches the closed
form.  Both are exact for this integrand, so agreement to rounding
validates either route.  The NIG moment generating function, the
reference that the closed-form Esscher parameter is checked against.  And
a bit-by-bit Gray-code evaluation of digital-net points, the reference
for the recurrence in points._digital_points.  And pick-freeze with a new
array for every hybrid, the reference for the kept hybrid buffer of
effdim.dimension_report.
"""

import numpy as np

from smoothqmc.effdim import DimensionReport
from smoothqmc.points import ScrambleSeed, scrambled_sobol


def nig_mgf(u, alpha, beta, mu, delta):
    """NIG moment generating function, defined for |beta + u| <= alpha."""
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(beta + u) > alpha):
        raise ValueError("nig_mgf undefined: |beta + u| > alpha")

    def gamma(b):
        return np.sqrt((alpha - b) * (alpha + b))

    val = np.exp(delta * (gamma(beta) - gamma(beta + u)) + mu * u)
    return float(val) if val.ndim == 0 else val


def gray_code_points(n, start, directions, shift=None):
    """Net points start..start+n-1 as uint32 integers, one bit at a time:
    point i XORs directions[:, k] for every set bit k of i ^ (i >> 1), then
    the shift."""
    x = np.zeros((n, directions.shape[0]), dtype=np.uint32)
    for row, i in enumerate(range(start, start + n)):
        gray = i ^ (i >> 1)
        for k in range(gray.bit_length()):
            if gray >> k & 1:
                x[row] ^= directions[:, k]
    if shift is not None:
        x ^= shift
    return x


def g_function(a):
    """h(u) = prod_j (|4 u_j - 2| + a_j) / (1 + a_j); small a_j means an
    important coordinate."""
    a = np.asarray(a, dtype=float)

    def h(u):
        u = np.atleast_2d(u)
        return np.prod((np.abs(4.0 * u - 2.0) + a) / (1.0 + a), axis=1)

    return h


def g_anova(a):
    """Closed-form ANOVA: per-coordinate variance D_j = (1/3)/(1+a_j)^2,
    total variance prod(1+D_j) - 1.  Returns (variance, truncation
    ratios, first-order ratio, mean dimension)."""
    a = np.asarray(a, dtype=float)
    D = (1.0 / 3.0) / (1.0 + a) ** 2
    total = np.prod(1.0 + D) - 1.0
    trunc = (np.cumprod(1.0 + D) - 1.0) / total
    first = D.sum() / total
    tau = D * (np.prod(1.0 + D) / (1.0 + D))  # Jansen total indices
    return total, trunc, first, tau.sum() / total


def g_quadrature(a):
    """Independent tensor-quadrature ANOVA for the same integrand.

    Composite 16-node Gauss-Legendre on [0, 1/2] and [1/2, 1] is exact
    for the piecewise-linear axis factors, so every conditional moment
    below is exact up to rounding.  Intended for d <= 4.
    """
    a = np.asarray(a, dtype=float)
    d = a.size
    x16, w16 = np.polynomial.legendre.leggauss(16)
    nodes = np.concatenate([(x16 + 1.0) / 4.0, (x16 + 3.0) / 4.0])
    weights = np.tile(w16 / 4.0, 2)
    factors = [(np.abs(4.0 * nodes - 2.0) + a[j]) / (1.0 + a[j]) for j in range(d)]

    grid = factors[0]
    for j in range(1, d):
        grid = np.multiply.outer(grid, factors[j])

    def integrate(values, axes):
        out = values
        for ax in sorted(axes, reverse=True):
            out = np.tensordot(out, weights, axes=([ax], [0]))
        return out

    mean = float(integrate(grid, range(d)))
    second = float(integrate(grid ** 2, range(d)))
    var = second - mean ** 2

    def variance_of(cond):
        # variance of a conditional mean over its remaining node axes
        total1, total2 = np.asarray(cond, dtype=float), np.asarray(cond, dtype=float) ** 2
        while total1.ndim > 0:
            total1 = np.tensordot(total1, weights, axes=([0], [0]))
            total2 = np.tensordot(total2, weights, axes=([0], [0]))
        return float(total2) - float(total1) ** 2

    trunc = []
    for ell in range(1, d + 1):
        trunc.append(variance_of(integrate(grid, range(ell, d))) / var)
    first = 0.0
    tau_sum = 0.0
    for j in range(d):
        cond_j = integrate(grid, [k for k in range(d) if k != j])
        first += variance_of(cond_j) / var
        cond_not_j = integrate(grid, [j])
        tau_sum += var - variance_of(cond_not_j)
    return var, np.array(trunc), first, tau_sum / var


def pick_freeze_reference(integrand, d, n, seed, p=0.99):
    """dimension_report's statistics, with every hybrid a new array
    np.where(mask, a, b) that the integrand may keep: the same 2d + 1
    calls in the same order, and the same arithmetic."""
    a, b = np.hsplit(scrambled_sobol(n, 2 * d, ScrambleSeed(seed)).values, 2)
    cols = np.arange(d)

    def h(mask):
        return np.asarray(integrand(np.where(mask, a, b)), dtype=float)

    def dot(x, y):
        return float(np.einsum("i,i", x, y))

    def cov(x, y):
        return dot(x - x.mean(), y - y.mean()) / (x.size - 1)

    ha = h(cols < d)
    var = float(np.var(ha, ddof=1))
    trunc = [cov(ha, h(cols < ell)) / var for ell in range(1, d)] + [cov(ha, ha) / var]
    d_t = next((ell for ell, r in enumerate(trunc, start=1) if r >= p), d)
    hb = h(cols < 0)
    first_order = jansen = 0.0
    for j in range(d):
        hj = h(cols == j)
        first_order += cov(ha, hj) / var
        jansen += dot(hb - hj, hb - hj) / (2.0 * n)
    return DimensionReport(d=d, truncation=tuple(trunc), r_order1=first_order,
                           d_ms=jansen / var, d_t=d_t, total_variance=var)
