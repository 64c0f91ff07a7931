"""Outside-in span tracer for the smoothqmc layers.

Spans are recorded by wrappers that replace a layer's public function at
every module attribute that holds it, so a caller that bound the name
with ``from .points import scramble`` sees the wrapper too.  Spans stay
in memory until ``layer_metrics`` turns them into per-layer self times
and counts.  Each thread keeps its own span stack; a span opened on a
thread whose stack is empty (a replicate running in ``run``'s thread
pool) gets the innermost context span (``run``) as its parent.

A public name the package no longer defines is recorded as absent and
its metrics read 0; the other layers are still traced.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np
from scipy import special as scipy_special

# Spans a replicate of ``run`` is made of; their share of run wall time
# times threads is the thread-busy share.
REPLICATE_SPANS = ("points.scramble", "points.pseudo_uniform", "estimators.integrand")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "points.scramble.self_s": "s",
    "points.scramble.calls": "count",
    "points.pseudo_uniform.self_s": "s",
    "points.uniforms": "count",
    "normal.ndtri.self_s": "s",
    "normal.ndtri.values": "count",
    "models.law_inv.self_s": "s",
    "models.law_inv.values": "count",
    "models.law_cdf.self_s": "s",
    "models.law_build_s": "s",
    "models.paths_exp_levy.self_s": "s",
    "models.paths_heston.self_s": "s",
    "models.path_steps": "count",
    "transforms.apply_transform.self_s": "s",
    "transforms.flops": "flop",
    "transforms.build_s": "s",
    "payoffs.payoff_value.self_s": "s",
    "payoffs.lower_bound.self_s": "s",
    "payoffs.gamma.self_s": "s",
    "payoffs.smooth_factor.self_s": "s",
    "smoothing.evaluate_smoothed.self_s": "s",
    "smoothing.zero_weight_share": "ratio",
    "estimators.run.self_s": "s",
    "estimators.replicates": "count",
    "estimators.method_integrand_s": "s",
    "estimators.thread_busy_share": "ratio",
    "effdim.dimension_report.self_s": "s",
    "effdim.integrand_calls": "count",
    "effdim.points_evaluated": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder; its wrappers call straight through while it is disabled."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self.counter_errors: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, object]] = []
        self._context: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[(self.phase, key)] += value

    def wrap(self, name, fn, count=None, after=None, context=False):
        """A span-recording wrapper around fn.

        count(tracer, span, args, kwargs, out) records counters; after(out)
        may replace the result, to wrap objects the call builds; a context
        span parents the spans opened on threads started inside it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                out = fn(*args, **kwargs)
                return out if after is None else after(out)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._context[-1] if tracer._context else -1)
            span = [name, 0.0, None, parent, tracer.phase]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            if context:
                tracer._context.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if context:
                    tracer._context.pop()
                stack.pop()
            if count is not None:
                try:
                    count(tracer, span, args, kwargs, out)
                except Exception:  # a changed signature must not stop the trace
                    tracer.counter_errors[name] += 1
            return out if after is None else after(out)

        wrapper.perfbench_span = name
        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation ----------------------------------------------------

    def patch(self, module_name: str, attr: str, span_name: str, **kw) -> None:
        """Wrap smoothqmc.<module_name>.<attr> wherever the package binds it."""
        module = sys.modules.get(f"smoothqmc.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        self._replace(original, self.wrap(span_name, original, **kw))

    def _replace(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "smoothqmc":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def wrap_attr(self, obj, attr: str, span_name: str, **kw) -> None:
        """Wrap a callable attribute of one object (a law, a separable problem)."""
        fn = getattr(obj, attr, None)
        if fn is None:
            self.absent.append(f"{type(obj).__name__}.{attr}")
            return
        if hasattr(fn, "perfbench_span"):
            return
        try:
            object.__setattr__(obj, attr, self.wrap(span_name, fn, **kw))
        except (AttributeError, TypeError):
            self.absent.append(f"{type(obj).__name__}.{attr}")

    def install(self) -> None:
        """Wrap every traced layer function of the imported package."""
        for module_name, attr, span_name, count in LAYER_FUNCTIONS:
            self.patch(module_name, attr, span_name, count=count)
        self.patch("models", "increment_law_for", "models.increment_law_for",
                   after=self._wrap_law)
        self.patch("payoffs", "build_separable", "payoffs.build_separable",
                   after=self._wrap_problem)
        self.patch("estimators", "method_integrand", "estimators.method_integrand",
                   after=self._wrap_integrand)
        self.patch("estimators", "analysis_integrand", "estimators.method_integrand",
                   after=self._wrap_analysis)
        self.patch("estimators", "run", "estimators.run", count=_count_run, context=True)
        self._trace_ndtri()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _trace_ndtri(self) -> None:
        # the package calls ndtri as special.ndtri; replacing scipy.special
        # itself would also trace scipy's internal calls
        traced = self.wrap("normal.ndtri", scipy_special.ndtri, count=_count_ndtri)
        self._replace(scipy_special, _SpecialProxy(traced))
        self._replace(scipy_special.ndtri, traced)

    def _wrap_law(self, law):
        if law is not None:
            self.wrap_attr(law, "inv", "models.law_inv", count=_count_law_inv)
            self.wrap_attr(law, "cdf", "models.law_cdf")
        return law

    def _wrap_problem(self, problem):
        self.wrap_attr(problem, "lower_bound", "payoffs.lower_bound")
        self.wrap_attr(problem, "smooth_factor", "payoffs.smooth_factor")
        return problem

    def _wrap_integrand(self, integrand):
        return self.wrap("estimators.integrand", integrand)

    def _wrap_analysis(self, pair):
        integrand, d = pair
        return self._wrap_integrand(integrand), d

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0 and t1 is not None:
                children[parent].append((t0, t1))
        out = []
        for idx, (_, t0, t1, _, _) in enumerate(self.spans):
            if t1 is None:
                out.append(0.0)
                continue
            out.append((t1 - t0) - _union(children.get(idx, ()), t0, t1))
        return out

    def layer_metrics(self, traced_wall: list[float], untraced_wall: list[float],
                      traced_seconds: float) -> dict[str, float]:
        """Per-layer metrics: per traced block, except the build times,
        which come from the one traced cold set-up.

        traced_wall and untraced_wall hold each block's wall_s;
        traced_seconds is the whole time spent in traced blocks.
        """
        blocks = len(traced_wall)
        selfs = self.self_times()
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        incl_s: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        busy = 0.0
        for (name, t0, t1, parent, phase), own in zip(self.spans, selfs):
            if t1 is None:
                continue
            self_s[(phase, name)] += own
            incl_s[(phase, name)] += t1 - t0
            calls[(phase, name)] += 1
            if (phase == "block" and name in REPLICATE_SPANS and parent >= 0
                    and self.spans[parent][0] == "estimators.run"):
                busy += t1 - t0

        def per_block(value: float) -> float:
            return value / blocks

        def pself(name: str) -> float:
            return per_block(self_s[("block", name)])

        def count(key: str) -> float:
            return per_block(self.counts[("block", key)])

        pushed = self.counts[("block", "smoothing.pushed")]
        capacity = self.counts[("block", "estimators.capacity_s")]
        block_spans = [(s[1], s[2]) for s in self.spans if s[4] == "block" and s[2] is not None]
        return {
            "points.scramble.self_s": pself("points.scramble"),
            "points.scramble.calls": per_block(calls[("block", "points.scramble")]),
            "points.pseudo_uniform.self_s": pself("points.pseudo_uniform"),
            "points.uniforms": count("points.uniforms"),
            "normal.ndtri.self_s": pself("normal.ndtri"),
            "normal.ndtri.values": count("normal.ndtri.values"),
            "models.law_inv.self_s": pself("models.law_inv"),
            "models.law_inv.values": count("models.law_inv.values"),
            "models.law_cdf.self_s": pself("models.law_cdf"),
            "models.law_build_s": incl_s[("setup", "models.increment_law_for")],
            "models.paths_exp_levy.self_s": pself("models.paths_exp_levy"),
            "models.paths_heston.self_s": pself("models.paths_heston"),
            "models.path_steps": count("models.path_steps"),
            "transforms.apply_transform.self_s": pself("transforms.apply_transform"),
            "transforms.flops": count("transforms.flops"),
            "transforms.build_s": incl_s[("setup", "transforms.build")],
            "payoffs.payoff_value.self_s": pself("payoffs.payoff_value"),
            "payoffs.lower_bound.self_s": pself("payoffs.lower_bound"),
            "payoffs.gamma.self_s": pself("payoffs.gamma"),
            "payoffs.smooth_factor.self_s": pself("payoffs.smooth_factor"),
            "smoothing.evaluate_smoothed.self_s": pself("smoothing.evaluate_smoothed"),
            "smoothing.zero_weight_share": (self.counts[("block", "smoothing.zero_weight")] / pushed
                                            if pushed else 0.0),
            "estimators.run.self_s": pself("estimators.run"),
            "estimators.replicates": count("estimators.replicates"),
            "estimators.method_integrand_s": incl_s[("setup", "estimators.method_integrand")],
            "estimators.thread_busy_share": busy / capacity if capacity else 0.0,
            "effdim.dimension_report.self_s": pself("effdim.dimension_report"),
            "effdim.integrand_calls": count("effdim.integrand_calls"),
            "effdim.points_evaluated": count("effdim.points_evaluated"),
            "trace.coverage": _union(block_spans, -np.inf, np.inf) / traced_seconds,
            "trace.overhead_s": statistics.median(traced_wall) - statistics.median(untraced_wall),
        }


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, edge = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, edge), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            edge = t1
    return total


class _SpecialProxy(types.ModuleType):
    """Stands in for scipy.special inside smoothqmc modules, with a traced ndtri."""

    def __init__(self, ndtri):
        super().__init__("scipy.special")
        self.ndtri = ndtri

    def __getattr__(self, name):
        return getattr(scipy_special, name)


def _size(x) -> int:
    return int(np.size(getattr(x, "values", x)))


def _count_points(tracer, span, args, kwargs, out):
    tracer.add("points.uniforms", _size(out))


def _count_ndtri(tracer, span, args, kwargs, out):
    tracer.add("normal.ndtri.values", _size(out))


def _count_law_inv(tracer, span, args, kwargs, out):
    tracer.add("models.law_inv.values", _size(out))


def _count_paths(tracer, span, args, kwargs, out):
    tracer.add("models.path_steps", _size(out))


def _count_transform(tracer, span, args, kwargs, out):
    transform, z = args[0], args[1]
    if transform.kind != "identity":
        n, d = np.shape(z)
        tracer.add("transforms.flops", 2.0 * n * d * d)


def _count_vpo(tracer, span, args, kwargs, out):
    weight = np.asarray(out[1])
    tracer.add("smoothing.zero_weight", float(np.count_nonzero(weight <= 0.0)))
    tracer.add("smoothing.pushed", float(weight.size))


def _count_run(tracer, span, args, kwargs, out):
    # run(method, payoff, model, n, reps, seed, threads=1)
    reps = kwargs["reps"] if "reps" in kwargs else args[4]
    threads = kwargs.get("threads", args[6] if len(args) > 6 else 1)
    tracer.add("estimators.replicates", float(reps))
    tracer.add("estimators.capacity_s", float(threads) * (span[2] - span[1]))


# (module, public name, span name, counter)
LAYER_FUNCTIONS = (
    ("points", "scramble", "points.scramble", _count_points),
    ("points", "pseudo_uniform", "points.pseudo_uniform", _count_points),
    ("models", "paths_exp_levy", "models.paths_exp_levy", _count_paths),
    ("models", "paths_heston", "models.paths_heston", _count_paths),
    ("transforms", "apply_transform", "transforms.apply_transform", _count_transform),
    ("transforms", "taylor_weight", "transforms.build", None),
    ("transforms", "qr_transform", "transforms.build", None),
    ("transforms", "mqr_transform", "transforms.build", None),
    ("payoffs", "payoff_value", "payoffs.payoff_value", None),
    ("payoffs", "gamma_component", "payoffs.gamma", None),
    ("payoffs", "gamma_average", "payoffs.gamma", None),
    ("payoffs", "gamma_extreme", "payoffs.gamma", None),
    ("payoffs", "heston_gamma_average", "payoffs.gamma", None),
    ("payoffs", "heston_gamma_extreme", "payoffs.gamma", None),
    ("smoothing", "evaluate_smoothed", "smoothing.evaluate_smoothed", None),
    ("smoothing", "vpo_map", "smoothing.vpo_map", _count_vpo),
    ("effdim", "dimension_report", "effdim.dimension_report", None),
)
