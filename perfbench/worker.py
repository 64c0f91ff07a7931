"""One benchmark worker: a fresh interpreter that times `import smoothqmc`,
repeated cold set-ups and, if given a block seed, one block of the
workload's entry calls.

    python3 perfbench/worker.py <workload> '<sizes as JSON>' <block seed | null>

Prints one JSON object as its last line.  run.py starts the workers one
after another, so per-process effects (memory layout, the CPU a process
lands on) are sampled as often as there are workers.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

_t0 = time.perf_counter()
import smoothqmc  # noqa: E402  (the timed import)

IMPORT_S = time.perf_counter() - _t0

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

# Cold set-ups repeat until both limits are reached; most take ~10 ms.
SETUP_SAMPLES = 3
SETUP_SECONDS = 0.1


def cold_setup_seconds(workload) -> list[float]:
    """Times of repeated cold set-ups, each after clearing the package's
    caches; the last one leaves the caches warm for the block."""
    times = []
    while len(times) < SETUP_SAMPLES or sum(times) < SETUP_SECONDS:
        run.clear_caches()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def main(argv: list[str]) -> int:
    if not os.path.realpath(smoothqmc.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"worker: smoothqmc imported from {smoothqmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name, sizes, seed = argv[1], json.loads(argv[2]), json.loads(argv[3])
    workload = dataclasses.replace(workloads.WORKLOADS[name], **sizes)
    setups = cold_setup_seconds(workload)
    t0 = time.perf_counter()
    block = None if seed is None else dataclasses.asdict(workload.run_block(seed))
    block_s = time.perf_counter() - t0
    print(json.dumps({
        "import_s": IMPORT_S,
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "block_s": block_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "block": block,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
