"""smoothqmc benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload bs16-price --seed 12345 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance (machine, library versions, workload shape,
sample counts, failures).  With ``--trace 0`` the metrics are the
end-to-end ones, measured in worker processes (worker.py) with no
tracing installed; with ``--trace 1`` they are the per-layer ones of
spans.LAYER_METRICS, measured in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An untraced run starts this many worker processes, one after another;
# each gives one import and one set-up sample.  A fresh import takes
# either about 0.78 s or about 0.94 s on a 2-core Xeon, depending on the
# process, so the median needs this many samples to settle.
WORKERS = 9
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"import_s": "s", "setup_s": "s", "wall_s": "s", "raw_rep_ms": "ms",
                    "smooth_rep_ms": "ms", "peak_rss_mb": "MB"}


def _import_package() -> None:
    """Import smoothqmc from this checkout's src, never from elsewhere."""
    if not (SRC / "smoothqmc" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import smoothqmc

    if not Path(smoothqmc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: smoothqmc imported from {smoothqmc.__file__}, not {SRC}")


def clear_caches() -> None:
    """Empty every functools cache in the package, so set-up runs cold."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "smoothqmc":
            continue
        for value in list(vars(module).values()):
            while not hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Run:
    """The blocks of one run, and the operations attempted and failed in them."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.blocks: list = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def repeat(self, seconds: float, step, reserve=lambda blocks: 0.0) -> None:
        """Call step(block seed) for at least min_blocks blocks, then while
        the next block, and after it the reserve(blocks) seconds of work
        the run still does once that many blocks are done, is predicted to
        end within `seconds`.  A block that raises fails all its
        operations and ends the run."""
        from workloads import block_seed

        t0 = time.perf_counter()
        durations = []
        while True:
            s0 = time.perf_counter()
            try:
                step(block_seed(self.seed, len(durations)))
            except Exception:
                self.fail(self.workload.operations, traceback.format_exc(limit=6))
                return
            durations.append(time.perf_counter() - s0)
            blocks = len(durations)
            ends = time.perf_counter() - t0 + statistics.median(durations) + reserve(blocks + 1)
            if blocks >= self.workload.min_blocks and ends > seconds:
                return

    def fail(self, operations: int, message: str) -> None:
        self.attempted += operations
        self.failed += operations
        self.messages.append(message)

    def gate(self) -> None:
        """The workload's correctness gate over every completed block."""
        self.attempted += self.workload.operations * len(self.blocks)
        if self.blocks:
            failed, messages = self.workload.check(self.blocks)
            self.failed += failed
            self.messages += messages

    def median(self, attr: str) -> float:
        return statistics.median(getattr(b, attr) for b in self.blocks)


def run_worker(workload, block_seed: int | None) -> dict:
    """One worker process (worker.py); its block, if any, uses block_seed.
    Adds the worker's duration, timed from here, as elapsed_s."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), workload.name,
                          json.dumps(workload.sizes), json.dumps(block_seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited with code {out.returncode}:\n{out.stderr[-3000:]}")
    return {**json.loads(out.stdout.splitlines()[-1]), "elapsed_s": time.perf_counter() - t0}


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics, tracing off.  Every block runs in a fresh worker
    process, and workers without a block top the import and set-up
    samples up to WORKERS.  Blocks are added while the top-up workers
    still fit in `seconds` after them."""
    from workloads import Block

    run = Run(workload, seed)
    workers = []

    def step(block_seed: int) -> None:
        result = run_worker(workload, block_seed)
        workers.append(result)
        run.blocks.append(Block(**result["block"]))

    def top_up_seconds(blocks: int) -> float:
        """Predicted duration of the top-up workers after `blocks` blocks:
        each costs what a block worker spends outside its block."""
        outside = statistics.median(w["elapsed_s"] - w["block_s"] for w in workers)
        return max(0, WORKERS - blocks) * outside

    run.repeat(seconds, step, top_up_seconds)
    run.gate()
    if not run.blocks:
        return run, None, {}
    while len(workers) < WORKERS:
        workers.append(run_worker(workload, None))
    metrics = {
        "import_s": statistics.median(w["import_s"] for w in workers),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "wall_s": run.median("wall_s"),
        "raw_rep_ms": run.median("raw_rep_ms"),
        "smooth_rep_ms": run.median("smooth_rep_ms"),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    blocks = len(run.blocks)
    samples = {"import_s": len(workers), "setup_s": len(workers),
               "setups_per_worker": [w["setup_samples"] for w in workers],
               "wall_s": blocks, "raw_rep_ms": blocks, "smooth_rep_ms": blocks,
               "peak_rss_mb": len(workers)}
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples


def measure_traced(workload, seed: int, seconds: float):
    """Per-layer metrics: one traced cold set-up, then each block untraced
    and traced in turn.  The difference of their medians is the tracing
    overhead, and a traced block must reproduce its untraced twin."""
    from spans import LAYER_METRICS, Tracer

    clear_caches()
    tracer = Tracer()
    tracer.install()
    run = Run(workload, seed)
    traced, traced_seconds = [], []

    def step(block_seed: int) -> None:
        untraced = workload.run_block(block_seed)
        run.blocks.append(untraced)
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            block = workload.run_block(block_seed)
        finally:
            tracer.enabled = False
        traced_seconds.append(time.perf_counter() - t0)
        traced.append(block.wall_s)
        for key, value in block.counts.items():
            tracer.add(key, value)
        if block.outputs != untraced.outputs:
            run.fail(workload.operations, "a traced block did not reproduce its untraced twin")

    try:
        tracer.enabled = True
        workload.setup()
        tracer.enabled = False
        tracer.phase = "block"
        run.repeat(seconds, step)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    run.gate()
    if not traced:
        return run, None, {}, tracer
    values = tracer.layer_metrics(traced, [b.wall_s for b in run.blocks[:len(traced)]],
                                  sum(traced_seconds))
    metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
    return run, metrics, {"traced_blocks": len(traced), "untraced_blocks": len(run.blocks)}, tracer


def _git_commit() -> str:
    """HEAD of this checkout, with "+dirty" if tracked files changed.  Git
    is not asked outside a git checkout, where it would search the
    directories above ROOT."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"

    def git(*args: str) -> str:
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        return commit + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, samples: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        **workload.shape,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 12345; 2024 for effdim-bs16)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import DEFAULT_SEEDS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    extra = {}
    if args.trace:
        run, metrics, samples, tracer = measure_traced(workload, seed, args.seconds)
        extra = {"absent": tracer.absent, "counter_errors": dict(tracer.counter_errors)}
    else:
        run, metrics, samples = measure(workload, seed, args.seconds)
    record = provenance(workload, seed, samples)
    record.update(extra)
    record["fail_ratio"] = run.failed / run.attempted
    record["failures"] = run.messages[:20]
    print(json.dumps({"provenance": record}))
    if metrics is None:
        print("benchmark: the first block raised; see failures above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
