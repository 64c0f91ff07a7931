"""Replicated estimators: plain MC, scrambled-Sobol QMC, and their
smoothed/rotated variants.

Five named methods cover the cross of point set, orthogonal transform,
and smoothing:

    MC       pseudo-random points, raw payoff
    QMC-I    scrambled Sobol, raw payoff, identity transform
    QMC-II   scrambled Sobol, raw payoff, full-QR rotation
    sQMC-I   scrambled Sobol, push-out smoothing, identity transform
    sQMC-II  scrambled Sobol, push-out smoothing, pinned-QR rotation

Each replicate refreshes the scramble (or the pseudo-random stream) from
a counter-derived seed, so results are independent of thread count and
byte-stable under a fixed master seed.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import NumericalError
from .models import ModelSpec, _Scratch, path_map
from .payoffs import PayoffSpec, build_separable, payoff_value
from .points import ScrambleSeed, SobolSource, pseudo_uniform, scramble
from .smoothing import evaluate_smoothed
from .transforms import (
    OrthogonalTransform,
    _even_bounds,
    identity_transform,
    mqr_transform,
    qr_transform,
    taylor_weight,
)

__all__ = [
    "METHODS",
    "RAW_METHODS",
    "SMOOTHED_METHODS",
    "EstimatorReport",
    "weight_matrix",
    "method_transform",
    "method_integrand",
    "analysis_integrand",
    "run",
    "vrf_table",
]

RAW_METHODS = ("MC", "QMC-I", "QMC-II")
SMOOTHED_METHODS = ("sQMC-I", "sQMC-II")
METHODS = RAW_METHODS + SMOOTHED_METHODS


@dataclass(frozen=True)
class EstimatorReport:
    method: str
    estimate: float
    replicate_variance: float
    vrf: float | None
    wall_time: float
    n: int
    reps: int


def weight_matrix(payoff: PayoffSpec, model: ModelSpec) -> np.ndarray:
    """First-order Taylor weights of the payoff's smooth part at z = 0,
    built afresh on each call (a few finite-difference paths)."""
    d = model.d
    return taylor_weight(path_map(model, identity_transform(d)), payoff.weight_kind, d)


def method_transform(method: str, payoff: PayoffSpec, model: ModelSpec) -> OrthogonalTransform:
    """The orthogonal rotation a method applies to the normal coordinates."""
    if method in ("MC", "QMC-I", "sQMC-I"):
        return identity_transform(model.d)
    if method == "QMC-II":
        return qr_transform(weight_matrix(payoff, model))
    if method == "sQMC-II":
        return mqr_transform(weight_matrix(payoff, model))
    raise ValueError(f"unknown method {method!r}")


# Most rows per integrand evaluation: every stage from u to the payoff
# maps rows independently, so blocks give the whole-batch values while no
# temporary grows with the batch.  Smaller blocks slowed two-thread Heston
# replicates (more of their time holds the GIL); larger ones gave back
# most of the saving on 2^18-point effective-dimension calls.
_ROW_BLOCK = 2 ** 13


def _row_blocked(integrand: Callable[[np.ndarray], np.ndarray]
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """integrand evaluated block by block into one new array when u is a
    batch of more than _ROW_BLOCK rows, and directly otherwise.

    The blocks split the rows evenly, so none is shorter than half of
    _ROW_BLOCK: OpenBLAS takes a product z @ U.T of one row or a few
    dozen rows through other kernels, which round differently, so a short
    tail block would change the bits of the rotation.
    """
    def blocked(u):
        if np.ndim(u) != 2 or len(u) <= _ROW_BLOCK:
            return integrand(u)
        out = np.empty(len(u))
        for a, b in _even_bounds(len(u), _ROW_BLOCK):
            out[a:b] = integrand(u[a:b])
        return out
    return blocked


def _integrand(method: str, payoff: PayoffSpec,
               model: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    transform = method_transform(method, payoff, model)
    if method in RAW_METHODS:
        paths = path_map(model, transform)
        scratch = _Scratch()  # z = ndtri(u), and the paths it is rotated and mapped into

        def raw(u):
            shape = np.shape(u)
            z = special.ndtri(u, out=scratch.array("z", shape))
            return payoff_value(payoff, paths(z, out=scratch.array("paths", (*shape[:-1], model.m))))
        return raw
    problem = build_separable(payoff, model, transform)
    return lambda u: evaluate_smoothed(problem, u)


def method_integrand(method: str, payoff: PayoffSpec,
                     model: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The (0,1)^d integrand a method averages over its point set.

    An (N, d) batch of more than 2^13 rows is evaluated over even blocks
    of at most 2^13 rows into one new float64 array, so the memory a call
    takes does not grow with N; the values are those of the whole-batch
    call.  The integrand keeps its batch-sized intermediate arrays, one
    set per thread, from one call to the next.
    """
    return _row_blocked(_integrand(method, payoff, model))


def analysis_integrand(method: str, payoff: PayoffSpec,
                       model: ModelSpec) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Integrand and dimension for effective-dimension analysis.

    This is method_integrand, except for the smoothed binary payoff at
    d > 1: its integrand (1 - Gamma) * discount does not depend on the
    pushed coordinate, so that coordinate is fixed at 1/2 and the
    analysis runs on the remaining d - 1 inputs.
    """
    d = model.d
    integrand = _integrand(method, payoff, model)
    if method in SMOOTHED_METHODS and payoff.kind == "binary-asian" and d > 1:
        return _row_blocked(
            lambda v: integrand(np.column_stack([np.full(len(v), 0.5), v]))), d - 1
    return _row_blocked(integrand), d


def run(method: str, payoff: PayoffSpec, model: ModelSpec, n: int, reps: int,
        seed: int, threads: int = 1) -> EstimatorReport:
    """Average the method's integrand over reps independent replicates.

    Replicate k draws its points from the (seed, k) stream, so the result
    is reproducible for fixed inputs and unchanged by threads.  With one
    thread the replicates run on the calling thread, otherwise on a pool;
    each thread draws every replicate into one point batch.  Timing
    excludes one-time setup (weights, rotations, NIG inversion build).
    Raises NumericalError if any replicate mean is not finite.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a replicate variance, got {reps}")
    integrand = method_integrand(method, payoff, model)
    d = model.d
    scratch = _Scratch()

    def one(k: int) -> float:
        s = ScrambleSeed(seed, k)
        u = scratch.array("points", (n, d))
        if method == "MC":
            pts = pseudo_uniform(n, d, s, out=u)
        else:
            pts = scramble(SobolSource(n, d), s, out=u)
        return float(integrand(pts.values).mean())

    t0 = time.perf_counter()
    if threads == 1:
        means = np.fromiter(map(one, range(reps)), dtype=float, count=reps)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            means = np.fromiter(pool.map(one, range(reps)), dtype=float, count=reps)
    wall = time.perf_counter() - t0
    if not np.all(np.isfinite(means)):
        raise NumericalError(f"{method} {payoff.kind}: non-finite replicate mean "
                             f"({int(np.count_nonzero(~np.isfinite(means)))} of {reps})")
    return EstimatorReport(method=method, estimate=float(means.mean()),
                           replicate_variance=float(means.var(ddof=1)),
                           vrf=None, wall_time=wall, n=n, reps=reps)


def vrf_table(payoffs: Sequence[PayoffSpec], model: ModelSpec, methods: Sequence[str],
              n: int, reps: int, seed: int,
              threads: int = 1) -> list[tuple[PayoffSpec, EstimatorReport]]:
    """Run every (payoff, method) cell and attach variance-reduction
    factors relative to the MC baseline of the same payoff.  The vrf is
    None in every row when MC is not among the methods, and in a row
    whose replicate variance is zero, as no finite factor exists."""
    rows: list[tuple[PayoffSpec, EstimatorReport]] = []
    for payoff in payoffs:
        reports = {meth: run(meth, payoff, model, n, reps, seed, threads) for meth in methods}
        base = reports["MC"].replicate_variance if "MC" in reports else None
        for meth in methods:
            var = reports[meth].replicate_variance
            vrf = base / var if base is not None and var > 0.0 else None
            rows.append((payoff, dataclasses.replace(reports[meth], vrf=vrf)))
    return rows
