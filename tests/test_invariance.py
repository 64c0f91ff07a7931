"""CLI output bytes do not depend on the BLAS thread count or the CPU set.

Each case runs the CLI in two subprocesses: one with
OPENBLAS_NUM_THREADS=1 (OpenBLAS fixes its thread count when it loads,
so only a new process can change it), and one limited to one CPU, where
the process-wide pool has one worker.  Both stdouts must equal, byte for
byte, the default run in this process.  The child sets its own affinity
before it imports anything, rather than in a preexec_fn, which is unsafe
in a parent that holds pool threads.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import smoothqmc
from smoothqmc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(smoothqmc.__file__).parents[1]
KINDS = ("black-scholes", "nig", "heston")
# effdim's hybrids at n 16384 take two row blocks per integrand call, and
# the sweep reads n 1024 as a prefix of the n 16384 evaluation
CASES = ([("price", f"{kind}-m16", "") for kind in KINDS]
         + [("effdim", "black-scholes-m16", "effdim: {n: 16384}\n"),
            ("sweep", "heston-m16", "sweep: {n: [1024, 16384]}\n")])


def _child_argv(argv, one_cpu):
    if not one_cpu:
        return [sys.executable, "-m", "smoothqmc.cli", *argv]
    cpu = min(os.sched_getaffinity(0))
    script = (f"import os, runpy; os.sched_setaffinity(0, {{{cpu}}}); "
              "runpy.run_module('smoothqmc.cli', run_name='__main__')")
    return [sys.executable, "-c", script, *argv]


@pytest.mark.parametrize("command,stem,extra", CASES, ids=[f"{c}-{s}" for c, s, _ in CASES])
def test_cli_bytes_do_not_depend_on_blas_threads_or_cpus(tmp_path, command, stem, extra):
    config = tmp_path / "config.yaml"
    config.write_text((GOLDEN / f"{stem}.yaml").read_text() + extra)
    argv = [command, "--config", str(config)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")]))}
    settings = {"OPENBLAS_NUM_THREADS=1": ({**env, "OPENBLAS_NUM_THREADS": "1"}, False)}
    if hasattr(os, "sched_setaffinity"):
        settings["one CPU"] = (env, True)
    # the children run while this process makes the default run
    children = {name: subprocess.Popen(_child_argv(argv, one_cpu), env=child_env,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for name, (child_env, one_cpu) in settings.items()}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
    finally:
        outputs = {name: child.communicate(timeout=300) for name, child in children.items()}
    for name, (out, err) in outputs.items():
        assert children[name].returncode == 0, f"{name}: {err.decode()}"
        assert out == buf.getvalue().encode(), f"{name}: stdout bytes differ"
    if "one CPU" not in settings:
        pytest.skip("no CPU affinity on this platform; checked OPENBLAS_NUM_THREADS=1 only")
