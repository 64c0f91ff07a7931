"""Asset-price path models.

Black-Scholes and exponential-NIG paths are cumulative exponentials of
i.i.d. log-return increments; the Heston model is discretized with a
log-Euler scheme on interleaved (asset, variance) shocks.  This module is
the one place that knows how a model turns normal coordinates into
prices: path_map gives the whole path, and factorization gives the
structure the smoothing layer relies on, S_i = exp(xi(u_1)) zeta_i(u_{2:d})
with the law of the first log-shock xi.  For every model zeta is path_map
at the z_1 where xi is 0, times exp(-xi) there.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DistributionBuildError, NoEsscherRootError
from .transforms import OrthogonalTransform, _rotation_slices, apply_transform

__all__ = [
    "BlackScholesSpec",
    "NigSpec",
    "HestonSpec",
    "ModelSpec",
    "IncrementLaw",
    "BuildResiduals",
    "gaussian_law",
    "nig_density",
    "esscher_theta",
    "nig_numerical_law",
    "increment_law_for",
    "paths_exp_levy",
    "paths_heston",
    "path_map",
    "factorization",
]


def _finite_real(x) -> bool:
    """A finite real number that is not a bool; abs(x) <= max float also
    refuses nan, +-inf and ints too large for a float."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


class ModelSpec:
    """Base of the model specs: a price s0 > 0 monitored at m >= 1 dates
    dt = T / m apart up to T > 0, with d = m normal coordinates per path.
    Every field is a finite real and m an integer; a subclass adds its own checks."""

    def __post_init__(self):
        name = type(self).__name__
        bad = [f.name for f in dataclasses.fields(self) if not _finite_real(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{name} requires finite real numbers for {', '.join(bad)}")
        if not (self.s0 > 0 and self.T > 0 and isinstance(self.m, numbers.Integral) and self.m >= 1):
            raise ValueError(f"{name} requires s0 > 0, T > 0 and an integer m >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.m

    @property
    def d(self) -> int:
        return self.m


@dataclass(frozen=True)
class BlackScholesSpec(ModelSpec):
    s0: float
    r: float
    sigma: float
    T: float = 1.0
    m: int = 16

    def __post_init__(self):
        super().__post_init__()
        if not self.sigma > 0:
            raise ValueError("BlackScholesSpec requires sigma > 0")

    @property
    def a(self) -> float:
        return (self.r - 0.5 * self.sigma ** 2) * self.dt

    @property
    def b(self) -> float:
        return self.sigma * np.sqrt(self.dt)


@dataclass(frozen=True)
class NigSpec(ModelSpec):
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
        super().__post_init__()
        if not (abs(self.beta) <= self.alpha and self.delta > 0):
            raise ValueError("NigSpec requires |beta| <= alpha and delta > 0")

    @property
    def theta(self) -> float:
        return esscher_theta(self.alpha, self.beta, self.mu, self.delta, self.r)


@dataclass(frozen=True)
class HestonSpec(ModelSpec):
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
        super().__post_init__()
        if not abs(self.rho) < 1:
            raise ValueError("HestonSpec requires rho strictly inside (-1, 1)")
        if not (self.v0 > 0 and self.nu >= 0 and self.theta_bar >= 0 and self.sigma_v >= 0):
            raise ValueError("HestonSpec requires v0>0, nu>=0, theta_bar>=0, sigma_v>=0")

    @property
    def d(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class BuildResiduals:
    """Residuals of a numerical law build: |mass - 1| of the integrated
    density before it is normalized, the largest |F(F^-1(u)) - u| on the
    build's check grid, and the number of interpolation nodes."""

    mass_error: float
    round_trip: float
    nodes: int


@dataclass(frozen=True, eq=False)
class IncrementLaw:
    """One i.i.d. log-return increment as a monotone map of a standard normal.

    normal(y, out=None) = F^-1(Phi(y)) maps normal coordinates to
    increments, into out when given (which may be y itself), and
    to_normal(x) = Phi^-1(F(x)) maps back; cdf and inv follow from the pair.
    Numerically built laws carry the residuals of their build; exact
    (Gaussian) laws leave them None.
    """

    normal: Callable[[np.ndarray], np.ndarray]
    to_normal: Callable[[np.ndarray], np.ndarray]
    residuals: BuildResiduals | None = None

    def cdf(self, x) -> np.ndarray:
        return special.ndtr(self.to_normal(x))

    def inv(self, u) -> np.ndarray:
        return self.normal(special.ndtri(np.asarray(u, dtype=float)))


def gaussian_law(mean: float, scale: float) -> IncrementLaw:
    """N(mean, scale^2): the affine maps mean + scale y and (x - mean) / scale."""
    def normal(y, out=None):
        x = np.multiply(np.asarray(y, dtype=float), scale, out=out)
        x += mean
        return x

    return IncrementLaw(normal=normal,
                        to_normal=lambda x: (np.asarray(x, dtype=float) - mean) / scale)


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
# numerical NIG increment law


_GRID_POINTS = 2 ** 17 + 1
# The law is interpolated in normal space on these z nodes, spaced 1/64.
# They reach past |z| <= 6.23, the range of the Sobol' and MC points
# (clamped to [2^-32, 1 - 2^-32]), and Phi(-8) = 6.2e-16.
_Z_NODES = np.linspace(-8.0, 8.0, 1025)
# Newton steps that polish each node from its secant start.
_NEWTON_STEPS = 2
# The NIG tails decay like exp(-(alpha - |beta|) |x|) whatever delta is;
# a half-width of _TAIL_DECAYS decay lengths leaves less than 1e-10 of the
# mass outside the grid (measured for delta from 2e-4 to 0.25 and
# alpha - |beta| from 0.5 to 75), well inside the 1e-6 mass check.
_TAIL_DECAYS = 20.0
# G is evaluated over flat chunks of this many values: few enough numpy
# calls (about 15 a chunk) that two pool workers run it side by side, and
# temporaries small enough to stay cheap.  On a 2-vCPU Xeon, 2 x 20 calls
# on 8192 x 16 values took 0.104 s serially and 0.202 s on two threads in
# 2^12-value chunks, 0.088 and 0.072 s in 2^14, 0.084 and 0.066 s in
# 2^15, 0.125 and 0.086 s in 2^16, and 0.216 and 0.134 s in one 2^17
# chunk (medians of 7).  nig16-price blocks ran about 7 % faster at 2^15
# than at 2^14, for about 1 MB more peak RSS.
_NORMAL_CHUNK = 2 ** 15


def _cubic(spline, v, i, out=None) -> np.ndarray:
    """Piece i of a scipy cubic spline at v, in s = v - spline.x[i], summed
    in scipy's order, into out when given."""
    c0, c1, c2, c3 = spline.c
    s = v - spline.x[i]
    s2 = s * s
    r = c2[i] * s
    r += c3[i]
    r += c1[i] * s2
    s2 *= s
    return np.add(r, c0[i] * s2, out=out)


def _spline_on_z_nodes(spline, y, out=None) -> np.ndarray:
    """spline(clip(y, -8, 8)), bit for bit, for a CubicHermiteSpline on
    _Z_NODES, into out (a C-contiguous array of y's shape, which may be y)
    when given.

    scipy bisects for the interval z_i <= y < z_(i+1) of every value (the
    last one closed at 8).  On the uniform nodes i = floor((y + 8) 64).
    Each z_i + 8 = i / 64 is a double, so y + 8 never rounds below it and
    i is never too low; one comparison lowers i where y + 8 rounded up
    onto the next node.  NaN stays NaN.
    """
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty(y.shape)
    elif out.shape != y.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the input's shape")
    flat, res = y.ravel(), out.reshape(-1)
    lo, hi, last = _Z_NODES[0], _Z_NODES[-1], _Z_NODES.size - 2
    per_unit = (_Z_NODES.size - 1) / (hi - lo)
    for a in range(0, flat.size, _NORMAL_CHUNK):
        v = np.maximum(flat[a:a + _NORMAL_CHUNK], lo)
        np.minimum(v, hi, out=v)
        with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary index
            i = ((v - lo) * per_unit).astype(np.intp)
        np.maximum(i, 0, out=i)
        np.minimum(i, last, out=i)
        i -= v < _Z_NODES[i]
        _cubic(spline, v, i, out=res[a:a + _NORMAL_CHUNK])
    return out


def _spline_on_x_nodes(spline, x) -> np.ndarray:
    """spline(clip(x, x_lo, x_hi)), bit for bit, for a CubicHermiteSpline
    on the nodes x_lo < ... < x_hi, but -inf at and below x_lo and +inf at
    and above x_hi.  Each value's interval is the last node at or below
    it, as in scipy's bisection; NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    knots = spline.x
    v = np.minimum(np.maximum(x, knots[0]), knots[-1])
    i = np.minimum(np.searchsorted(knots, v, side="right") - 1, knots.size - 2)
    z = _cubic(spline, v, i)
    return np.where(x <= knots[0], -np.inf, np.where(x >= knots[-1], np.inf, z))


def _domain_half_width(alpha: float, beta: float, delta: float) -> float:
    """Half-width of the integration grid around mu: 40 delta, widened to
    _TAIL_DECAYS tail decay lengths when delta is small (fine time grids),
    and to reach 20 standard deviations past the mean mu + delta beta / gamma,
    which runs off from mu as |beta| nears alpha."""
    decay_rate = alpha - abs(beta)
    if decay_rate <= 0.0:  # no exponential tail; the mass check reports it
        return 40.0 * delta
    gamma = _nig_gamma(alpha, beta)
    sd = np.sqrt(delta * alpha * alpha / gamma ** 3)
    return float(max(40.0 * delta, _TAIL_DECAYS / decay_rate,
                     abs(delta * beta / gamma) + 20.0 * sd))


def _tail_quantiles(x, tail, density, p):
    """The points t with tail(t) = p, where tail is the integral of density
    from the left, tabulated non-decreasing on the grid x with tail[0] = 0.

    Each t starts from the secant of its grid interval and takes Newton
    steps on tail(x_j) plus a Simpson integral of density over [x_j, t],
    kept inside the interval.
    """
    j = np.searchsorted(tail, p) - 1  # tail[j] < p <= tail[j + 1]
    a, b, base = x[j], x[j + 1], tail[j]
    f_a = density(a)
    t = a + (p - base) / (tail[j + 1] - base) * (b - a)
    for _ in range(_NEWTON_STEPS):
        f_t = density(t)
        area = base + (t - a) / 6.0 * (f_a + 4.0 * density(0.5 * (a + t)) + f_t)
        t = np.clip(t - (area - p) / f_t, a, b)
    return t


def nig_numerical_law(alpha: float, beta: float, mu: float, delta: float) -> IncrementLaw:
    """One-time numerical construction of a NIG law in normal space.

    The density is integrated by Simpson's rule on a grid spanning
    mu +/- max(40 delta, 20 / (alpha - |beta|), |delta beta / gamma| + 20 sd),
    sd^2 = delta alpha^2 / gamma^3, spaced as mu + delta sinh(t) with t
    uniform, so that it is dense on the peak (width delta) and sparse in
    the tails.  The cdf F is integrated forward from the bottom of the
    grid up to the mode, and the survival function 1 - F backward from
    the top, so each tail keeps its relative precision.  The grid only
    places the nodes x_k = F^-1(Phi(z_k)) on 1025 uniform z_k in [-8, 8]:
    nodes with z_k > 0 solve 1 - F(x_k) = Phi(-z_k), and every node is
    polished by Newton steps on the density itself.  Two cubic Hermite
    splines on these nodes carry the law (Hoermann & Leydold, ACM TOMACS
    13(4), 2003, in normal space): G(z) = F^-1(Phi(z)) with slopes
    phi(z_k) / f(x_k), the normal map, and H(x) = Phi^-1(F(x)) with
    slopes f(x_k) / phi(z_k), the map to_normal; the law is the pair
    (G, H).  G clamps onto the outermost nodes, and H is -inf and +inf at
    and past them, so the cdf Phi(H) is exactly 0 and 1 there.  scipy
    only builds the two splines: G reads its interval off the uniform
    nodes by index and H finds its interval with np.searchsorted, and
    both equal scipy's spline bit for bit without its evaluation, which
    holds the GIL.
    """
    from scipy import integrate, interpolate  # ~0.3 s to import; only NIG pays it

    half_width = _domain_half_width(alpha, beta, delta)
    t_max = np.arcsinh(half_width / delta)
    x_grid = mu + delta * np.sinh(np.linspace(-t_max, t_max, _GRID_POINTS))
    pdf_grid = nig_density(x_grid, alpha, beta, mu, delta)
    split = int(np.clip(np.argmax(pdf_grid), 2, _GRID_POINTS - 3))
    below = integrate.cumulative_simpson(pdf_grid[:split + 1], x=x_grid[:split + 1],
                                         initial=0.0)
    above = integrate.cumulative_simpson(pdf_grid[:split - 1:-1], x=-x_grid[:split - 1:-1],
                                         initial=0.0)
    mass = below[-1] + above[-1]
    if abs(mass - 1.0) > 1e-6:
        raise DistributionBuildError(
            f"tail mass not bracketed on mu +/- {half_width:.6g}: integral = {mass:.9f}"
        )
    if np.any(np.diff(below) < 0.0) or np.any(np.diff(above) < 0.0):
        raise DistributionBuildError("cumulative integral is not monotone")
    # F on the grid from the bottom, and 1 - F on the mirrored grid -x
    # from the top; each is exact in its own tail and 1 minus the other
    # elsewhere
    cdf_grid = np.concatenate([below, mass - above[-2::-1]]) / mass
    sf_grid = np.concatenate([above, mass - below[-2::-1]]) / mass

    def density(x):
        return nig_density(x, alpha, beta, mu, delta) / mass

    lower = _Z_NODES <= 0.0
    x_nodes = np.concatenate([
        _tail_quantiles(x_grid, cdf_grid, density, special.ndtr(_Z_NODES[lower])),
        -_tail_quantiles(-x_grid[::-1], sf_grid, lambda t: density(-t),
                         special.ndtr(-_Z_NODES[~lower])),
    ])
    if not np.all(np.diff(x_nodes) > 0.0):
        raise DistributionBuildError("interpolation nodes are not strictly increasing")
    slope = np.exp(-0.5 * _Z_NODES ** 2) / np.sqrt(2.0 * np.pi) / density(x_nodes)  # phi / f
    to_x = interpolate.CubicHermiteSpline(_Z_NODES, x_nodes, slope)
    to_z = interpolate.CubicHermiteSpline(x_nodes, _Z_NODES, 1.0 / slope)
    law = IncrementLaw(normal=functools.partial(_spline_on_z_nodes, to_x),
                       to_normal=functools.partial(_spline_on_x_nodes, to_z))
    check = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    err = float(np.abs(law.cdf(law.inv(check)) - check).max())
    if err > 1e-8:
        raise DistributionBuildError(f"inverse round-trip error {err:.3e} exceeds 1e-8")
    return dataclasses.replace(law, residuals=BuildResiduals(
        mass_error=float(abs(mass - 1.0)), round_trip=err, nodes=_Z_NODES.size))


@functools.lru_cache(maxsize=32)
def increment_law_for(model: ModelSpec) -> IncrementLaw:
    """The law of one i.i.d. log-return step of an exponential-Levy model.

    Black-Scholes: N(a, b^2) with a = (r - sigma^2/2) dt, b = sigma sqrt(dt).
    NIG: NIG(alpha, beta + theta, mu dt, delta dt), the step law under the
    Esscher measure.  Any other spec (Heston) has no i.i.d. steps and
    raises TypeError.
    """
    if isinstance(model, BlackScholesSpec):
        return gaussian_law(model.a, model.b)
    if isinstance(model, NigSpec):
        return nig_numerical_law(model.alpha, model.beta + model.theta,
                                 model.mu * model.dt, model.delta * model.dt)
    raise TypeError(f"{type(model).__name__} has no i.i.d. increment law")


# not exported: only perfbench/workloads.py imports it (ROADMAP item 7)
def nominal_dim(model: ModelSpec) -> int:
    return model.d


# ---------------------------------------------------------------------------
# path construction


class _Scratch(threading.local):
    """Batch arrays that one owner (an integrand, a zeta map, a run call)
    keeps from one call to the next, one set per thread.  Each is
    allocated on first use and again only for a call that needs more, so
    replicates reuse its pages instead of faulting in fresh ones."""

    def array(self, name: str, shape: tuple, fill: float | None = None) -> np.ndarray:
        """A C-contiguous float array of this shape on the memory called
        name, which is new (filled with fill, if given) when too small."""
        size = math.prod(shape)
        buf = getattr(self, name, None)
        if buf is None or buf.size < size:
            buf = np.empty(size) if fill is None else np.full(size, fill)
            setattr(self, name, buf)
        return buf[:size].reshape(shape)


def paths_exp_levy(law: IncrementLaw, s0: float, z: np.ndarray,
                   transform: OrthogonalTransform, out: np.ndarray | None = None) -> np.ndarray:
    """Price paths S_i = s0 exp(x_1 + ... + x_i) from an (N, m) batch of
    normal coordinates z: the increments are law.normal of the
    transformed coordinates Uz, written into out (C-contiguous) when given
    and otherwise into a new array, then summed, exponentiated and scaled
    in place.
    """
    z = np.asarray(z, dtype=float)
    y = apply_transform(transform, z, out=out)
    # the identity hands back z itself, which stays the caller's
    x = law.normal(y, out=out if y is z else y)
    np.exp(np.cumsum(x, axis=1, out=x), out=x)
    x *= s0
    return x


def paths_heston(spec: HestonSpec, z: np.ndarray, transform: OrthogonalTransform,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Log-Euler Heston paths from an (N, 2m) batch of normal coordinates,
    written into out (N x m) when given and otherwise into a new array.

    Coordinates are interleaved (z_1^1, z_1^2, ..., z_m^1, z_m^2): odd
    positions are asset-specific shocks, even positions drive the
    variance.  The scheme is full truncation (Lord, Koekkoek & van Dijk,
    Quant. Finance 10(2), 2010): the square root and both drifts,
    (r - V+/2) dt for log S and nu (theta_bar - V+) dt for V, use the
    positive part V+ of V, so the discounted price is a martingale of the
    scheme even where V goes negative.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[1] != spec.d:
        raise ValueError(f"Heston needs 2m = {spec.d} coordinates, got {z.shape[1]}")
    n = z.shape[0]
    # a copy with one row per coordinate, so each step reads contiguous
    # memory; the transform goes into it one slice at a time through a
    # small buffer (the identity leaves the buffer alone and returns the slice)
    slices = _rotation_slices(n, spec.d)
    y = np.empty((spec.d, n))
    buf = np.empty((max(b - a for a, b in slices), spec.d))
    for a, b in slices:
        y[:, a:b] = apply_transform(transform, z[a:b], out=buf[:b - a]).T
    z_asset, z_var = y[0::2], y[1::2]
    dt = spec.dt
    # the asset shock rho_hat z_asset + rho z_var of every step; step i
    # then overwrites row i with its log price
    z_asset *= np.sqrt(1.0 - spec.rho ** 2)
    z_asset += spec.rho * z_var
    log_s = z_asset
    v = np.full(n, spec.v0)
    vp, vol, tmp = np.empty(n), np.empty(n), np.empty(n)
    prev = np.log(spec.s0)
    for i in range(spec.m):
        np.maximum(v, 0.0, out=vp)
        np.sqrt(np.multiply(vp, dt, out=vol), out=vol)
        # log S += (r - V+/2) dt + vol shock
        np.multiply(vp, 0.5, out=tmp)
        np.subtract(spec.r, tmp, out=tmp)
        tmp *= dt
        tmp += prev
        log_s[i] *= vol
        log_s[i] += tmp
        prev = log_s[i]
        # V += nu (theta_bar - V+) dt + sigma_v vol z_var
        np.subtract(spec.theta_bar, vp, out=tmp)
        tmp *= spec.nu
        tmp *= dt
        v += tmp
        np.multiply(vol, spec.sigma_v, out=tmp)
        tmp *= z_var[i]
        v += tmp
    out = np.empty((n, spec.m)) if out is None else out
    np.copyto(out, np.exp(log_s, out=log_s).T)
    return out


def path_map(model: ModelSpec,
             transform: OrthogonalTransform) -> Callable[[np.ndarray], np.ndarray]:
    """The map from normal coordinates z to the model's (N, m) price paths,
    called as paths(z, out=None) and written into out when given."""
    if isinstance(model, HestonSpec):
        return lambda z, out=None: paths_heston(model, z, transform, out)
    law = increment_law_for(model)
    return lambda z, out=None: paths_exp_levy(law, model.s0, z, transform, out)


def factorization(model: ModelSpec, transform: OrthogonalTransform
                  ) -> tuple[IncrementLaw, Callable[[np.ndarray], np.ndarray]]:
    """The first-shock factorization S_i = exp(xi(u_1)) zeta_i(u_{2:d}).

    Returns the law of xi and the map u_{2:d} -> zeta, the (N, m) path
    with the first log-shock taken out: the model's path_map at
    z = (z_0, Phi^-1(u_{2:d})) divided by exp(xi) there, where z_0 = H(0)
    puts xi at 0, so that the divisor neither overflows nor underflows.
    For the exponential-Levy models xi = x_1; for Heston xi = c z_1 with
    c = sqrt((1 - rho^2) v0 dt), the asset-specific shock of the first
    log-Euler step and the only place z_1 enters the path, so z_0 = 0.
    The factorization needs the transform to pin the first coordinate,
    (Uz)_1 = z_1, so a full-qr transform is rejected.
    """
    if transform.kind == "qr":
        raise ValueError("separable form needs an identity or mqr transform; "
                         "the full-qr transform does not pin the first coordinate")
    if isinstance(model, HestonSpec):
        law = gaussian_law(0.0, float(np.sqrt((1.0 - model.rho ** 2) * model.v0 * model.dt)))
    else:
        law = increment_law_for(model)
    path = path_map(model, transform)
    z0 = float(law.to_normal(0.0))  # H(0), or +/-inf past a numerical law's end nodes,
    z0 = z0 if abs(z0) < np.inf else float(np.copysign(_Z_NODES[-1], z0))  # where G clamps
    unshock = float(np.exp(-law.normal(z0)))
    scratch = _Scratch()  # the (z_0, z_{2:d}) batch; the paths are new

    def zeta(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        z = scratch.array("z", (v.shape[0], model.d), fill=z0)
        special.ndtri(v, out=z[:, 1:])
        paths = path(z)
        paths *= unshock
        return paths
    return law, zeta
