"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every workload emits every end-to-end metric BENCHMARK.json
names, with its unit and a finite value; that the traced run reports
every per-layer metric; and that the heston16-threads cells give
bit-identical estimates at threads=1 and threads=2.  The correctness
floors are not expected to hold at these sizes and are not checked.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run

TINY = {"bs16-price": {"n": 256, "reps": 4, "min_blocks": 2},
        "nig16-price": {"n": 256, "reps": 2, "min_blocks": 2},
        "heston16-threads": {"n": 256, "reps": 4, "min_blocks": 2},
        "effdim-bs16": {"n": 512}}


def _compare(label: str, metrics: dict, expected: dict, problems: list) -> None:
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(expected.items())}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{label}: {name} = {value}")


def main() -> int:
    run._import_package()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json and workloads.py name different workloads")
    for name, sizes in TINY.items():
        workload = dataclasses.replace(workloads.WORKLOADS[name], **sizes)
        seed = workloads.DEFAULT_SEEDS[name]
        _, metrics, _ = run.measure(workload, seed, 0.0)
        _compare(f"{name} end-to-end", metrics or {}, end_to_end, problems)
        _, metrics, _, tracer = run.measure_traced(workload, seed, 0.0)
        _compare(f"{name} trace", metrics or {}, per_layer, problems)
        if tracer.absent or tracer.counter_errors:
            problems.append(f"{name} trace: absent {tracer.absent}, "
                            f"counter errors {dict(tracer.counter_errors)}")
        print(f"{name}: checked", flush=True)

    heston = dataclasses.replace(workloads.WORKLOADS["heston16-threads"], **TINY["heston16-threads"])
    single = dataclasses.replace(heston, threads=1).run_block(workloads.DEFAULT_SEEDS[heston.name])
    double = dataclasses.replace(heston, threads=2).run_block(workloads.DEFAULT_SEEDS[heston.name])
    if single.outputs != double.outputs:
        problems.append("heston16-threads: threads=1 and threads=2 estimates differ")

    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
