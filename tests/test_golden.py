"""Golden CLI outputs: price, effdim and sweep for every model.

Each case runs cli.main on a config under tests/golden/ and compares the
CSV with the committed output: text columns exactly, numbers to a
per-column relative tolerance, since BLAS kernels may round a rotation
differently by machine (estimates 1e-10, variances and ratios 1e-6).
The m 16 configs price n = 16384, two row blocks.  A change that moves
the numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import math
import pathlib

import pytest

from smoothqmc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
KINDS = ("black-scholes", "nig", "heston")
CASES = ([(f"{kind}-m8", command) for kind in KINDS for command in ("price", "effdim", "sweep")]
         + [(f"{kind}-m16", "price") for kind in KINDS])

# column -> (rtol, atol); every other column is compared as text
_TOLERANCE = {
    "estimate": (1e-10, 0.0),
    "variance": (1e-6, 0.0),
    "vrf": (1e-6, 0.0),
    **{name: (1e-6, 0.0) for name in ("R1_raw", "R12_raw", "Rorder1_raw", "d_ms_raw")},
    # printed with two decimals: one unit of the last digit
    **{name: (0.0, 0.0101) for name in ("R1", "R12", "Rorder1", "d_ms")},
}


def _output(stem: str, command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, "--config", str(GOLDEN / f"{stem}.yaml")])
    assert code == 0, f"{command} {stem} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("stem,command", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_cli_output_matches_golden(stem, command):
    text = _output(stem, command)
    print(f"{stem}.{command}.csv md5 {hashlib.md5(text.encode()).hexdigest()}")
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO((GOLDEN / f"{stem}.{command}.csv").read_text())))
    assert got[0] == want[0] and len(got) == len(want)
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        for name, a, b in zip(want[0], g, w):
            if name not in _TOLERANCE or not (a and b):
                assert a == b, f"row {row} column {name}: {a!r} != {b!r}"
            else:
                rtol, atol = _TOLERANCE[name]
                assert math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=atol), \
                    f"row {row} column {name}: {a} != {b}"


if __name__ == "__main__":
    for stem, command in CASES:
        (GOLDEN / f"{stem}.{command}.csv").write_text(_output(stem, command))
