"""Uniform point sets on the open unit cube.

Three sources: the plain Sobol' digital net, its randomized version
(Matousek linear matrix scramble plus digital shift), and an ordinary
pseudo-random stream.  All coordinates are kept strictly inside (0, 1)
so that inverse-CDF maps stay finite downstream.

Direction numbers come from the bundled Joe-Kuo style table
``data/joe_kuo_directions.txt``.  Each row reads ``d s a m_1 ... m_s``:
dimension index, degree s of the primitive polynomial over GF(2),
the polynomial's inner coefficient bits packed into the integer a
(the polynomial is x^s + a_1 x^{s-1} + ... + a_{s-1} x + 1), and the
first s odd initial direction integers.  Dimension 1 (the van der
Corput sequence, all m_k = 1) is implicit and handled in code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DimensionTableError

N_BITS = 32
EPS = 2.0 ** -32
# digit k (0-based) of a 32-bit binary fraction sits at bit 31 - k: weight 2^(31-k)
_DIGIT_WEIGHTS = np.uint32(1) << np.arange(N_BITS - 1, -1, -1, dtype=np.uint32)

__all__ = [
    "EPS",
    "PointSet",
    "ScrambleSeed",
    "SobolSource",
    "sobol_raw",
    "scramble",
    "scrambled_sobol",
    "pseudo_uniform",
]


@dataclass(frozen=True)
class ScrambleSeed:
    """Master seed plus replicate index; the pair fixes every random bit."""

    seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.replicate_index < 0:
            raise ValueError(f"replicate_index must be >= 0, got {self.replicate_index}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """An n x d batch of points with every coordinate in the open (0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("PointSet values must be a 2-d array")
        # open-interval invariant; generation clamps into [EPS, 1-EPS]
        if v.size and not (0.0 < v.min() and v.max() < 1.0):
            raise ValueError("PointSet coordinates must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class SobolSource:
    """Generator state for a digital net: point count and dimension."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _direction_integers(self.d)  # validates d against the table


@functools.lru_cache(maxsize=None)
def _direction_integers(d: int) -> np.ndarray:
    """Direction integers V of shape (d, N_BITS); V[j, k] = m_{k+1} << (31-k).

    Reads only the table rows for dimensions 2..d.
    """
    if d < 1:
        raise DimensionTableError(f"dimension must be >= 1, got {d}")
    with resources.files(__package__).joinpath("data/joe_kuo_directions.txt").open() as fh:
        rows = [line.split() for line in itertools.islice(fh, 1, d)]  # skip the "d s a m_i" header
    if len(rows) < d - 1:
        raise DimensionTableError(
            f"dimension {d} exceeds the bundled direction-number table ({len(rows) + 1} dims)"
        )
    v = np.zeros((d, N_BITS), dtype=np.uint32)
    v[0] = _DIGIT_WEIGHTS
    for j, parts in enumerate(rows, start=1):
        s, a = int(parts[1]), int(parts[2])
        m = [int(t) for t in parts[3 : 3 + s]]
        for k in range(s, N_BITS):
            # m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1} ^ 2^s m_{k-s} ^ m_{k-s}
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        v[j] = np.array(m, dtype=np.uint32) * _DIGIT_WEIGHTS
    return v


def _digital_points(n: int, d: int, start: int, directions: np.ndarray,
                    shift: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Net points with indices start..start+n-1, in Gray-code order, in
    out when it is given and otherwise in a new (n, d) array.

    Point i XORs the direction columns over the set bits of gray(i) =
    i ^ (i >> 1).  gray(i) differs from gray(i-1) only in bit ctz(i), the
    trailing zeros of i, so x_i = x_{i-1} ^ v_{ctz(i)} (Antonov & Saleev,
    USSR Comput. Math. Math. Phys. 19(1), 1979; Bratley & Fox, ACM TOMS
    14(1), 1988): row 0 is built from its bits, every later row holds its
    direction column, and one running XOR turns the rows into points.  XOR
    is associative, so the shift folded into row 0 reaches every point.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if start + n > 2 ** N_BITS:
        raise ValueError("requested indices exceed the 32-bit net")
    x = np.empty((n, d), dtype=np.uint32)
    gray = start ^ (start >> 1)
    bits = [k for k in range(N_BITS) if gray >> k & 1]
    x[0] = np.bitwise_xor.reduce(directions[:, bits], axis=1)
    if shift is not None:
        x[0] ^= shift
    idx = np.arange(start + 1, start + n, dtype=np.uint64)
    ctz = np.bitwise_count((idx & (~idx + np.uint64(1))) - np.uint64(1))
    # ctz < 32, so "clip" never acts; unlike "raise", it writes into out unbuffered
    np.take(directions.T, ctz, axis=0, out=x[1:], mode="clip")
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    out = np.multiply(x, EPS, out=out)
    return np.clip(out, EPS, 1.0 - EPS, out=out)


def sobol_raw(n: int, d: int, include_zero: bool = False) -> PointSet:
    """First n points of the unscrambled Sobol' sequence.

    Index 0 (the all-zeros point) is skipped unless include_zero is set;
    with include_zero the first 2^k points form the exact digital net
    (one point per dyadic cell in every coordinate projection).
    """
    directions = _direction_integers(d)
    return PointSet(_digital_points(n, d, 0 if include_zero else 1, directions))


def _scramble_directions(directions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random lower-triangular unit-diagonal bit matrix per dimension.

    Row i of the matrix is packed into a uint32 with digit l stored at bit
    position 31-l (matching the digit layout of the direction integers), so
    scrambled digit i is the parity of popcount(row_i & v).
    """
    d = directions.shape[0]
    rand = rng.integers(0, 2 ** N_BITS, size=(d, N_BITS), dtype=np.uint32)
    # -w (mod 2^32) sets every bit from digit weight w up: row k keeps the
    # random bits of digits 0..k-1 and sets digit k
    rows = (rand & -_DIGIT_WEIGHTS[None, :]) | _DIGIT_WEIGHTS[None, :]

    digits = np.bitwise_count(rows[:, :, None] & directions[:, None, :]).astype(np.uint32) & np.uint32(1)
    return (digits * _DIGIT_WEIGHTS[None, :, None]).sum(axis=1, dtype=np.uint64).astype(np.uint32)


def scramble(source: SobolSource, seed: ScrambleSeed, out: np.ndarray | None = None) -> PointSet:
    """Scrambled Sobol' points: linear matrix scramble plus digital shift,
    written into out (n x d floats) when given and otherwise into a new array.

    The unit lower-triangular digit scramble keeps the digital-net
    structure; the shift makes every point uniform on (0, 1)^d.  Indices
    0..n-1 are used (the shift moves the zero point off the origin), so a
    scrambled set with n = 2^k retains exact dyadic equidistribution.
    """
    directions = _direction_integers(source.d)
    rng = np.random.default_rng([seed.seed, seed.replicate_index, 1])
    scrambled = _scramble_directions(directions, rng)
    shift = rng.integers(0, 2 ** N_BITS, size=source.d, dtype=np.uint32)
    return PointSet(_digital_points(source.n, source.d, 0, scrambled, shift, out))


def scrambled_sobol(n: int, d: int, seed: ScrambleSeed) -> PointSet:
    """Convenience wrapper: scramble(SobolSource(n, d), seed)."""
    return scramble(SobolSource(n, d), seed)


def pseudo_uniform(n: int, d: int, seed: ScrambleSeed, out: np.ndarray | None = None) -> PointSet:
    """I.i.d. uniforms from a reproducible counter-seeded generator, written
    into out (n x d floats, C-contiguous) when given and otherwise into a
    new array."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng([seed.seed, seed.replicate_index, 0])
    u = rng.random((n, d), out=out)
    return PointSet(np.clip(u, EPS, 1.0 - EPS, out=u))
