"""Asset-price path models.

Black-Scholes and exponential-NIG paths are cumulative exponentials of
i.i.d. log-return increments; the Heston model is discretized with a
log-Euler scheme on interleaved (asset, variance) shocks.  This module is
the one place that knows how a model turns normal coordinates into
prices: path_map gives the whole path, and factorization gives the
structure the smoothing layer relies on, S_i = exp(xi(u_1)) zeta_i(u_{2:d})
with the law of the first log-shock xi.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import integrate, interpolate, special

from .errors import DistributionBuildError, NoEsscherRootError
from .transforms import OrthogonalTransform, apply_transform

__all__ = [
    "BlackScholesSpec",
    "NigSpec",
    "HestonSpec",
    "ModelSpec",
    "IncrementLaw",
    "gaussian_law",
    "nig_density",
    "nig_mgf",
    "esscher_theta",
    "nig_numerical_law",
    "increment_law_for",
    "nominal_dim",
    "paths_exp_levy",
    "paths_heston",
    "path_map",
    "factorization",
]


def _require_finite(spec) -> None:
    bad = [f.name for f in dataclasses.fields(spec) if not np.isfinite(getattr(spec, f.name))]
    if bad:
        raise ValueError(f"{type(spec).__name__} requires finite {', '.join(bad)}")


@dataclass(frozen=True)
class BlackScholesSpec:
    s0: float
    r: float
    sigma: float
    T: float = 1.0
    m: int = 16

    def __post_init__(self):
        _require_finite(self)
        if not (self.s0 > 0 and self.sigma > 0 and self.T > 0 and self.m >= 1):
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
        _require_finite(self)
        if not self.s0 > 0:
            raise ValueError("NigSpec requires s0 > 0")
        if not (abs(self.beta) <= self.alpha and self.delta > 0):
            raise ValueError("NigSpec requires |beta| <= alpha and delta > 0")
        if not (self.T > 0 and self.m >= 1):
            raise ValueError("NigSpec requires T > 0 and m >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.m

    @property
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
        _require_finite(self)
        if not (self.s0 > 0 and self.v0 > 0 and self.T > 0 and self.m >= 1):
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

    Gaussian laws carry mean and scale: their affine representation
    x = mean + scale * z is exact and path generation uses it directly.
    Other laws leave both None, and paths go through inv(Phi(z)).
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    mean: float | None = None
    scale: float | None = None


def gaussian_law(mean: float, scale: float) -> IncrementLaw:
    """The normal law N(mean, scale^2)."""

    def cdf(x):
        return special.ndtr((np.asarray(x, dtype=float) - mean) / scale)

    def inv(u):
        return mean + scale * special.ndtri(np.asarray(u, dtype=float))

    return IncrementLaw(cdf=cdf, inv=inv, mean=mean, scale=scale)


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
    """The Esscher parameter, the root of log M(theta+1) - log M(theta) = r
    (Gerber & Shiu, Trans. Soc. Actuaries 46, 1994), in closed form: with
    s = beta + theta and c = (r - mu) / delta, 2s + 1 = c sqrt((4 alpha^2 -
    1 - c^2) / (1 + c^2)).  It exists iff c^2 <= 2 alpha - 1 (so alpha >= 1/2).
    """
    c = (r - mu) / delta
    if not c * c <= 2.0 * alpha - 1.0:
        raise NoEsscherRootError(f"no Esscher root: c^2 = {c * c:.6g} > 2 alpha - 1")
    t = c * np.sqrt((4.0 * alpha * alpha - 1.0 - c * c) / (1.0 + c * c))
    return float(0.5 * (t - 1.0) - beta)


# ---------------------------------------------------------------------------
# numerical inverse CDF for the NIG increment


_GRID_POINTS = 2 ** 17 + 1
# Inverse nodes below this cdf value are dropped, so that every slope 1/f
# of the inverse spline stays finite.
_CDF_FLOOR = 1e-50
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

    The density is integrated by Simpson's rule on a grid spanning
    mu +/- max(40 delta, 20 / (alpha - |beta|)), spaced as
    mu + delta sinh(t) with t uniform, so that it is dense on the peak
    (width delta) and sparse in the tails.  The forward cdf is the cubic
    Hermite interpolant of the grid values with the density as slopes;
    the inverse is the same interpolant with the axes swapped, slopes
    1/density, on the grid nodes where the cdf is at least 1e-50 and
    strictly increasing (Hoermann & Leydold, ACM TOMACS 13(4), 2003).
    Queries are clamped into the node range.
    """
    half_width = _domain_half_width(alpha, beta, delta)
    x_lo, x_hi = mu - half_width, mu + half_width
    t_max = np.arcsinh(half_width / delta)
    x_grid = mu + delta * np.sinh(np.linspace(-t_max, t_max, _GRID_POINTS))
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

    # strictly increasing nodes: the first of each run of equal cdf values
    keep = np.concatenate([[True], np.diff(cdf_grid) > 0.0]) & (cdf_grid >= _CDF_FLOOR)
    p_nodes = cdf_grid[keep]
    inverse = interpolate.CubicHermiteSpline(p_nodes, x_grid[keep], 1.0 / pdf_norm[keep])

    def inv(u):
        return inverse(np.clip(np.asarray(u, dtype=float), p_nodes[0], p_nodes[-1]))

    check = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    err = np.abs(cdf(inv(check)) - check).max()
    if err > 1e-8:
        raise DistributionBuildError(f"inverse round-trip error {err:.3e} exceeds 1e-8")
    return IncrementLaw(cdf=cdf, inv=inv)


@functools.lru_cache(maxsize=32)
def increment_law_for(model: ModelSpec) -> IncrementLaw | None:
    """The per-step increment law, or None for models without one (Heston).

    Black-Scholes: N(a, b^2) with a = (r - sigma^2/2) dt, b = sigma sqrt(dt).
    NIG: NIG(alpha, beta + theta, mu dt, delta dt), the step law under the
    Esscher measure.
    """
    if isinstance(model, BlackScholesSpec):
        return gaussian_law(model.a, model.b)
    if isinstance(model, NigSpec):
        return nig_numerical_law(model.alpha, model.beta + model.theta,
                                 model.mu * model.dt, model.delta * model.dt)
    if isinstance(model, HestonSpec):
        return None
    raise TypeError(f"unknown model spec {type(model).__name__}")


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
    return s0 * np.exp(np.cumsum(_log_increments(law, y), axis=1))


def _log_increments(law: IncrementLaw, y: np.ndarray) -> np.ndarray:
    """Log-return increments from transformed normal coordinates y."""
    if law.scale is not None:
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


def path_map(model: ModelSpec,
             transform: OrthogonalTransform) -> Callable[[np.ndarray], np.ndarray]:
    """The map from normal coordinates z to the model's (N, m) price paths."""
    if isinstance(model, HestonSpec):
        return lambda z: paths_heston(model, z, transform)
    law = increment_law_for(model)
    return lambda z: paths_exp_levy(law, model.s0, z, transform)


def factorization(model: ModelSpec, transform: OrthogonalTransform
                  ) -> tuple[IncrementLaw, Callable[[np.ndarray], np.ndarray]]:
    """The first-shock factorization S_i = exp(xi(u_1)) zeta_i(u_{2:d}).

    Returns the law of xi and the map u_{2:d} -> zeta, the (N, m) path at
    a zero first log-shock.  For the exponential-Levy models xi = x_1 and
    zeta_i = s0 exp(x_2 + ... + x_i).  For Heston xi = c z_1 with
    c = sqrt((1 - rho^2) v0 dt), the asset-specific shock of the first
    log-Euler step and the only place z_1 enters the path; zeta is the
    path at z_1 = 0.  The factorization needs the transform to pin the
    first coordinate, (Uz)_1 = z_1, so a full-qr transform is rejected.
    """
    if transform.kind == "qr":
        raise ValueError("separable form needs an identity or mqr transform; "
                         "the full-qr transform does not pin the first coordinate")
    if isinstance(model, HestonSpec):
        c = float(np.sqrt((1.0 - model.rho ** 2) * model.v0 * model.dt))

        def zeta(v):
            v = np.atleast_2d(np.asarray(v, dtype=float))
            z = np.zeros((v.shape[0], model.d))
            z[:, 1:] = special.ndtri(v)
            return paths_heston(model, z, transform)
        return gaussian_law(0.0, c), zeta

    law = increment_law_for(model)
    rotation = transform.U[1:, 1:].T if transform.kind == "mqr" else None

    def zeta(v):
        y = special.ndtri(np.atleast_2d(np.asarray(v, dtype=float)))
        if rotation is not None:
            y = y @ rotation
        log_zeta = np.zeros((y.shape[0], model.m))
        np.cumsum(_log_increments(law, y), axis=1, out=log_zeta[:, 1:])
        return model.s0 * np.exp(log_zeta)
    return law, zeta
