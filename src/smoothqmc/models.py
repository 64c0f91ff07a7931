"""Asset-price path models.

Black-Scholes and exponential-NIG paths are cumulative exponentials of
i.i.d. log-return increments; the Heston model is discretized with a
log-Euler scheme on interleaved (asset, variance) shocks.  Every model
exposes the structure the smoothing and transform layers rely on: an
increment law with cdf/inverse pair for the exponential-Levy models,
and the first-shock factorization S_i = exp(c z_1) zeta_i(z_{2:d}) for
Heston.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import integrate, interpolate, optimize, special

from .errors import DistributionBuildError, NoEsscherRootError
from .transforms import OrthogonalTransform, apply_transform

__all__ = [
    "BlackScholesSpec",
    "NigSpec",
    "HestonSpec",
    "ModelSpec",
    "IncrementLaw",
    "gaussian_law",
    "bs_increment_law",
    "nig_density",
    "nig_mgf",
    "esscher_theta",
    "nig_numerical_law",
    "nig_inverse_cdf_build",
    "increment_law_for",
    "first_shock_law",
    "nominal_dim",
    "paths_exp_levy",
    "log_increments",
    "paths_heston",
]


@dataclass(frozen=True)
class BlackScholesSpec:
    s0: float
    r: float
    sigma: float
    T: float = 1.0
    m: int = 16

    def __post_init__(self):
        if self.s0 <= 0 or self.sigma <= 0 or self.T <= 0 or self.m < 1:
            raise ValueError("BlackScholesSpec requires s0>0, sigma>0, T>0, m>=1")

    @property
    def dt(self) -> float:
        return self.T / self.m

    @property
    def a(self) -> float:
        return (self.r - 0.5 * self.sigma ** 2) * self.dt

    @property
    def b(self) -> float:
        return self.sigma * np.sqrt(self.dt)


@dataclass(frozen=True)
class NigSpec:
    """Annualized NIG parameters plus the market rate; theta is the Esscher
    parameter making the discounted price a martingale."""

    s0: float
    alpha: float
    beta: float
    mu: float
    delta: float
    r: float
    T: float = 1.0
    m: int = 16

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("NigSpec requires s0 > 0")
        if not (abs(self.beta) <= self.alpha) or self.delta <= 0:
            raise ValueError("NigSpec requires |beta| <= alpha and delta > 0")
        if self.T <= 0 or self.m < 1:
            raise ValueError("NigSpec requires T > 0 and m >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.m

    @functools.cached_property
    def theta(self) -> float:
        return esscher_theta(self.alpha, self.beta, self.mu, self.delta, self.r)


@dataclass(frozen=True)
class HestonSpec:
    s0: float
    v0: float
    r: float
    theta_bar: float
    nu: float
    sigma_v: float
    rho: float
    T: float = 1.0
    m: int = 16

    def __post_init__(self):
        if self.s0 <= 0 or self.v0 <= 0 or self.T <= 0 or self.m < 1:
            raise ValueError("HestonSpec requires s0>0, v0>0, T>0, m>=1")
        if not abs(self.rho) < 1:
            raise ValueError("HestonSpec requires rho strictly inside (-1, 1)")

    @property
    def dt(self) -> float:
        return self.T / self.m

    @property
    def d(self) -> int:
        return 2 * self.m


ModelSpec = Union[BlackScholesSpec, NigSpec, HestonSpec]


@dataclass(frozen=True, eq=False)
class IncrementLaw:
    """CDF and inverse of one i.i.d. log-return increment.

    For Gaussian laws the affine representation x = mean + scale * z is
    exact and path generation uses it directly; otherwise paths go
    through inv(Phi(z)).
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    mean: float
    scale: float
    gaussian: bool = False


def gaussian_law(mean: float, scale: float) -> IncrementLaw:
    """The normal law N(mean, scale^2)."""

    def cdf(x):
        return special.ndtr((np.asarray(x, dtype=float) - mean) / scale)

    def inv(u):
        return mean + scale * special.ndtri(np.asarray(u, dtype=float))

    return IncrementLaw(cdf=cdf, inv=inv, mean=mean, scale=scale, gaussian=True)


def bs_increment_law(spec: BlackScholesSpec) -> IncrementLaw:
    """Increment law N(a, b^2) with a = (r - sigma^2/2) dt, b = sigma sqrt(dt)."""
    return gaussian_law(spec.a, spec.b)


def _nig_gamma(alpha: float, beta: float) -> float:
    return np.sqrt((alpha - beta) * (alpha + beta))


def nig_density(x, alpha: float, beta: float, mu: float, delta: float):
    """NIG density alpha*delta/pi * exp(delta*gamma + beta(x-mu)) K1(alpha s)/s,
    s = sqrt(delta^2 + (x-mu)^2).  The Bessel factor is evaluated in its
    exponentially scaled form so the tails underflow gracefully."""
    if not (abs(beta) <= alpha) or delta <= 0:
        raise ValueError("nig_density requires |beta| <= alpha and delta > 0")
    x = np.asarray(x, dtype=float)
    s = np.hypot(delta, x - mu)
    arg = alpha * s
    expo = delta * _nig_gamma(alpha, beta) + beta * (x - mu) - arg
    return (alpha * delta / np.pi) * np.exp(expo) * special.k1e(arg) / s


def nig_mgf(u, alpha: float, beta: float, mu: float, delta: float):
    """Moment generating function, defined for |beta + u| <= alpha."""
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(beta + u) > alpha):
        raise ValueError("nig_mgf undefined: |beta + u| > alpha")
    val = np.exp(delta * (_nig_gamma(alpha, beta) - _nig_gamma(alpha, beta + u)) + mu * u)
    return float(val) if val.ndim == 0 else val


def esscher_theta(alpha: float, beta: float, mu: float, delta: float, r: float) -> float:
    """Solve log M(theta+1) - log M(theta) = r for the Esscher parameter.

    The left side is strictly increasing in theta (log-convexity of M), so
    a bracketed root on theta in [-alpha-beta, alpha-beta-1] is unique.
    """
    lo, hi = -alpha - beta, alpha - beta - 1.0
    if lo >= hi:
        raise NoEsscherRootError("Esscher domain is empty (alpha < 1/2)")

    def residual(t):
        g0 = np.sqrt(max((alpha - beta - t) * (alpha + beta + t), 0.0))
        g1 = np.sqrt(max((alpha - beta - t - 1.0) * (alpha + beta + t + 1.0), 0.0))
        return mu + delta * (g0 - g1) - r

    if residual(lo) > 0.0 or residual(hi) < 0.0:
        raise NoEsscherRootError("martingale equation has no root in the admissible range")
    theta = optimize.brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    if abs(residual(theta)) > 1e-10:
        raise NoEsscherRootError(f"root residual {residual(theta):.3e} exceeds 1e-10")
    return float(theta)


# ---------------------------------------------------------------------------
# numerical inverse CDF for the NIG increment


_GRID_POINTS = 2 ** 17 + 1
_KNOTS = 2048
_P_LO, _P_HI = 1e-6, 1.0 - 1e-6
# The NIG tails decay like exp(-(alpha - |beta|) |x|) whatever delta is;
# a half-width of _TAIL_DECAYS decay lengths leaves less than 1e-10 of the
# mass outside the grid (measured for delta from 2e-4 to 0.25 and
# alpha - |beta| from 0.5 to 75), well inside the 1e-6 mass check.
_TAIL_DECAYS = 20.0


def _domain_half_width(alpha: float, beta: float, delta: float) -> float:
    """Half-width of the integration grid around mu: 40 delta, widened to
    _TAIL_DECAYS tail decay lengths when delta is small (fine time grids)."""
    decay_rate = alpha - abs(beta)
    if decay_rate <= 0.0:  # no exponential tail; the mass check reports it
        return 40.0 * delta
    return max(40.0 * delta, _TAIL_DECAYS / decay_rate)


def nig_numerical_law(alpha: float, beta: float, mu: float, delta: float) -> IncrementLaw:
    """One-time numerical construction of cdf/inverse for a NIG law.

    The density is integrated by Simpson's rule on a dense grid spanning
    mu +/- max(40 delta, 20 / (alpha - |beta|)); the forward cdf is a
    cubic Hermite interpolant with exact density slopes, the inverse a
    monotone cubic over 2048 knots equi-spaced in probability, polished by
    two Newton steps with the exact density.  Queries outside the knot
    range fall back to a bracketed Newton search on the dense grid.
    """
    half_width = _domain_half_width(alpha, beta, delta)
    x_lo, x_hi = mu - half_width, mu + half_width
    x_grid = np.linspace(x_lo, x_hi, _GRID_POINTS)
    pdf_grid = nig_density(x_grid, alpha, beta, mu, delta)
    cdf_grid = integrate.cumulative_simpson(pdf_grid, x=x_grid, initial=0.0)
    mass = cdf_grid[-1]
    if abs(mass - 1.0) > 1e-6:
        raise DistributionBuildError(
            f"tail mass not bracketed on mu +/- {half_width:.6g}: integral = {mass:.9f}"
        )
    cdf_grid = cdf_grid / mass
    pdf_norm = pdf_grid / mass
    if np.any(np.diff(cdf_grid) < 0.0):
        raise DistributionBuildError("cumulative integral is not monotone")
    spline = interpolate.CubicHermiteSpline(x_grid, cdf_grid, pdf_norm)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.clip(spline(np.clip(x, x_lo, x_hi)), 0.0, 1.0)
        return np.where(x <= x_lo, 0.0, np.where(x >= x_hi, 1.0, out))

    def pdf(x):
        return nig_density(x, alpha, beta, mu, delta) / mass

    def _invert(p, start=None):
        """Newton polish safeguarded by a one-grid-cell bracket around the root."""
        p = np.clip(p, 1e-300, 1.0)
        hi_idx = np.clip(np.searchsorted(cdf_grid, p), 1, _GRID_POINTS - 1)
        lo_b = x_grid[hi_idx - 1]
        hi_b = x_grid[hi_idx]
        x = 0.5 * (lo_b + hi_b) if start is None else np.clip(start, lo_b, hi_b)
        moving = np.ones(x.shape, dtype=bool)
        for it in range(60):
            fx = spline(x) - p
            if it >= 2:
                # each root stops on its own residual, so its value does not
                # depend on the other queries in the batch
                moving = np.abs(fx) > 1e-13
                if not moving.any():
                    break
            below = fx < 0.0
            lo_b = np.where(below, x, lo_b)
            hi_b = np.where(below, hi_b, x)
            step = x - fx / np.maximum(pdf(x), 1e-300)
            inside = (step > lo_b) & (step < hi_b)
            x = np.where(moving, np.where(inside, step, 0.5 * (lo_b + hi_b)), x)
        return x

    knots_p = np.linspace(_P_LO, _P_HI, _KNOTS)
    knots_x = _invert(knots_p)
    pchip = interpolate.PchipInterpolator(knots_p, knots_x)

    def inv(u):
        u = np.asarray(u, dtype=float)
        flat = np.atleast_1d(u).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            # two Newton polish steps from the monotone-cubic start cover
            # almost every query; stragglers (first/last knot cell, clamped
            # tails) are re-solved with the bracketed routine
            x = pchip(flat)
            for _ in range(2):
                x = x - (spline(x) - flat) / np.maximum(pdf(x), 1e-300)
            residual = np.abs(spline(x) - flat)
            bad = ~(residual <= 1e-12)
            if bad.any():
                x[bad] = _invert(flat[bad])
        return x.reshape(u.shape)

    check = np.linspace(_P_LO, _P_HI, 10_000)
    err = np.abs(cdf(inv(check)) - check).max()
    if err > 1e-8:
        raise DistributionBuildError(f"inverse round-trip error {err:.3e} exceeds 1e-8")

    gamma = _nig_gamma(alpha, beta)
    return IncrementLaw(cdf=cdf, inv=inv, mean=mu + delta * beta / gamma, scale=delta)


def nig_inverse_cdf_build(spec: NigSpec) -> IncrementLaw:
    """Increment law of one time step under the Esscher measure:
    NIG(alpha, beta + theta, mu dt, delta dt)."""
    return nig_numerical_law(spec.alpha, spec.beta + spec.theta,
                             spec.mu * spec.dt, spec.delta * spec.dt)


@functools.lru_cache(maxsize=32)
def increment_law_for(model: ModelSpec) -> IncrementLaw | None:
    """The per-step increment law, or None for models without one (Heston)."""
    if isinstance(model, BlackScholesSpec):
        return bs_increment_law(model)
    if isinstance(model, NigSpec):
        return nig_inverse_cdf_build(model)
    if isinstance(model, HestonSpec):
        return None
    raise TypeError(f"unknown model spec {type(model).__name__}")


def first_shock_law(model: ModelSpec) -> IncrementLaw:
    """Law of the first log-shock xi in the factorization S_i = exp(xi) zeta_i.

    For the exponential-Levy models xi is the first increment.  For Heston
    it is c z_1, c = sqrt((1 - rho^2) v0 dt): the asset-specific shock of
    the first log-Euler step, the only place z_1 enters the path.
    """
    if isinstance(model, HestonSpec):
        return gaussian_law(0.0, float(np.sqrt((1.0 - model.rho ** 2) * model.v0 * model.dt)))
    return increment_law_for(model)


def nominal_dim(model: ModelSpec) -> int:
    return model.d if isinstance(model, HestonSpec) else model.m


# ---------------------------------------------------------------------------
# path construction


def paths_exp_levy(law: IncrementLaw, s0: float, z: np.ndarray,
                   transform: OrthogonalTransform) -> np.ndarray:
    """Price paths S_i = s0 exp(x_1 + ... + x_i) from an (N, m) batch of
    normal coordinates z.

    Gaussian laws use x = mean + scale * (Uz); other laws map each
    transformed coordinate through inv(Phi(.)).
    """
    y = apply_transform(transform, np.asarray(z, dtype=float))
    return s0 * np.exp(np.cumsum(log_increments(law, y), axis=1))


def log_increments(law: IncrementLaw, y: np.ndarray) -> np.ndarray:
    """Log-return increments from transformed normal coordinates y."""
    if law.gaussian:
        return law.mean + law.scale * y
    return law.inv(special.ndtr(y))


def paths_heston(spec: HestonSpec, z: np.ndarray, transform: OrthogonalTransform) -> np.ndarray:
    """Log-Euler Heston paths from an (N, 2m) batch of normal coordinates.

    Coordinates are interleaved (z_1^1, z_1^2, ..., z_m^1, z_m^2): odd
    positions are asset-specific shocks, even positions drive the
    variance.  Square roots use the positive part of V (full truncation);
    the drifts keep the signed V.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[1] != spec.d:
        raise ValueError(f"Heston needs 2m = {spec.d} coordinates, got {z.shape[1]}")
    y = apply_transform(transform, z)
    z_asset, z_var = y[:, 0::2], y[:, 1::2]
    n = z.shape[0]
    dt, rho = spec.dt, spec.rho
    rho_hat = np.sqrt(1.0 - rho ** 2)
    v = np.full(n, spec.v0)
    log_s = np.full(n, np.log(spec.s0))
    out = np.empty((n, spec.m))
    for i in range(spec.m):
        vol = np.sqrt(np.maximum(v, 0.0) * dt)
        log_s = log_s + (spec.r - 0.5 * v) * dt + vol * (rho_hat * z_asset[:, i] + rho * z_var[:, i])
        out[:, i] = log_s
        v = v + spec.nu * (spec.theta_bar - v) * dt + spec.sigma_v * vol * z_var[:, i]
    return np.exp(out)
