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
a counter-derived seed, so results are independent of the CPUs that run
them and byte-stable under a fixed master seed.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special

from .errors import NumericalError
from .models import ModelSpec, _Scratch, path_map
from .payoffs import PayoffSpec, build_separable, payoff_value
from .points import N_BITS, ScrambleSeed, SobolSource, pseudo_uniform, scramble
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
    "sweep",
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


@functools.cache
def _row_blocks_pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs the jobs of a main-thread call, one
    worker per CPU the process may use, built on first use."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="smoothqmc-rows")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, so it builds its own pool
    os.register_at_fork(after_in_child=_row_blocks_pool.cache_clear)


def _run_jobs(job: Callable, args: Iterable) -> None:
    """job(arg) for every arg: on the process-wide pool when called from
    the main thread, and inline from any other thread (a pool worker, or a
    caller's own thread), so pools never nest.  Raises the error of the
    first job, in the order of args, that raised one."""
    on_main = threading.current_thread() is threading.main_thread()
    list((_row_blocks_pool().map if on_main else map)(job, args))


def _row_blocked(integrand: Callable[[np.ndarray], np.ndarray]
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """integrand evaluated block by block into one new array when u is a
    batch of more than _ROW_BLOCK rows, and directly otherwise.

    The blocks split the rows evenly, so none is shorter than half of
    _ROW_BLOCK: OpenBLAS takes a product z @ U.T of one row or a few
    dozen rows through other kernels, which round differently, so a short
    tail block would change the bits of the rotation.  The blocks run as
    _run_jobs runs them, and each computes the same bits wherever it runs.
    """
    def blocked(u):
        if np.ndim(u) != 2 or len(u) <= _ROW_BLOCK:
            return integrand(u)
        out = np.empty(len(u))

        def block(bounds):
            a, b = bounds
            out[a:b] = integrand(u[a:b])

        _run_jobs(block, _even_bounds(len(u), _ROW_BLOCK))
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
    call.  A call from the main thread spreads the blocks over the CPUs
    the process may use.  The integrand keeps its batch-sized
    intermediate arrays, one set per thread, from one call to the next.
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


def sweep(method: str, payoff: PayoffSpec, model: ModelSpec, ns: Sequence[int], reps: int,
          seed: int) -> list[EstimatorReport]:
    """One report per sample size in ns, from one evaluation of every
    replicate at max(ns): the n-point set of replicate k is the first n
    rows of its largest set, so each n averages a prefix of its values.

    Replicate k draws its points from the (seed, k) stream, so the result
    is reproducible for fixed inputs and unchanged by the CPUs that run
    it.  Each (replicate, row block) pair is one job: it draws its rows of
    the replicate's points and evaluates them, on the process-wide pool
    from the main thread and inline from any other.  Every report's
    wall_time is the seconds of the one shared evaluation, excluding
    one-time setup (weights, rotations, NIG inversion build).  Raises
    NumericalError if any replicate mean is not finite.
    """
    if not ns or not all(2 <= n <= 2 ** N_BITS for n in ns):
        raise ValueError(f"every n must be >= 2 and <= 2^{N_BITS} (the Sobol' net), got {list(ns)}")
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a replicate variance, got {reps}")
    integrand = method_integrand(method, payoff, model)
    d = model.d
    scratch = _Scratch()
    values = np.empty((reps, max(ns)))

    def job(k_bounds):
        k, (a, b) = k_bounds
        s = ScrambleSeed(seed, k)
        u = scratch.array("points", (b - a, d))
        if method == "MC":
            pts = pseudo_uniform(b - a, d, s, out=u, start=a)
        else:
            pts = scramble(SobolSource(b - a, d), s, out=u, start=a)
        values[k, a:b] = integrand(pts.values)

    t0 = time.perf_counter()
    _run_jobs(job, itertools.product(range(reps), _even_bounds(max(ns), _ROW_BLOCK)))
    all_means = [np.array([row[:n].mean() for row in values]) for n in ns]
    wall = time.perf_counter() - t0
    for means in all_means:
        if not np.all(np.isfinite(means)):
            raise NumericalError(f"{method} {payoff.kind}: non-finite replicate mean "
                                 f"({int(np.count_nonzero(~np.isfinite(means)))} of {reps})")
    return [EstimatorReport(method=method, estimate=float(means.mean()),
                            replicate_variance=float(means.var(ddof=1)),
                            vrf=None, wall_time=wall, n=n, reps=reps)
            for n, means in zip(ns, all_means)]


def run(method: str, payoff: PayoffSpec, model: ModelSpec, n: int, reps: int,
        seed: int) -> EstimatorReport:
    """Average the method's integrand over reps independent replicates of
    n points: sweep at the one sample size n."""
    return sweep(method, payoff, model, (n,), reps, seed)[0]


def vrf_table(payoffs: Sequence[PayoffSpec], model: ModelSpec, methods: Sequence[str],
              n: int, reps: int, seed: int,
              threads: int = 1) -> list[tuple[PayoffSpec, EstimatorReport]]:
    """Run every (payoff, method) cell and attach variance-reduction
    factors relative to the MC baseline of the same payoff.  The vrf is
    None in every row when MC is not among the methods, and in a row
    whose replicate variance is zero, as no finite factor exists.
    threads is accepted and ignored, since perfbench/workloads.py passes
    it as the seventh positional argument (ROADMAP item 1).  Each cell is
    one call of the module global run, which perfbench patches to time it."""
    rows: list[tuple[PayoffSpec, EstimatorReport]] = []
    for payoff in payoffs:
        reports = {meth: run(meth, payoff, model, n, reps, seed) for meth in methods}
        base = reports["MC"].replicate_variance if "MC" in reports else None
        for meth in methods:
            var = reports[meth].replicate_variance
            vrf = base / var if base is not None and var > 0.0 else None
            rows.append((payoff, dataclasses.replace(reports[meth], vrf=vrf)))
    return rows
