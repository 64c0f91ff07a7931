"""Point generation: Sobol' construction, scrambling, pseudo-uniforms."""

import hashlib

import numpy as np
import pytest

from smoothqmc.errors import DimensionTableError
from smoothqmc.points import (
    EPS,
    PointSet,
    ScrambleSeed,
    SobolSource,
    pseudo_uniform,
    scramble,
    scrambled_sobol,
    sobol_raw,
    _digital_points,
    _direction_integers,
)

from oracles import gray_code_points


def test_dimension_one_first_points():
    # van der Corput values after skipping the zero point
    pts = sobol_raw(3, 1)
    assert pts.values[:, 0] == pytest.approx([0.5, 0.75, 0.25], abs=1e-15)


def test_first_net_projections_quarter_intervals():
    pts = sobol_raw(4, 2, include_zero=True).values
    for j in range(2):
        cells = np.floor(pts[:, j] * 4).astype(int)
        assert sorted(cells) == [0, 1, 2, 3]


def test_single_point_high_dimension():
    pts = sobol_raw(1, 128)
    assert pts.values.shape == (1, 128)
    assert np.all((pts.values > 0.0) & (pts.values < 1.0))


@pytest.mark.parametrize("k", range(1, 13))
def test_dyadic_equidistribution_raw_and_scrambled(k):
    n = 2 ** k
    raw = sobol_raw(n, 8, include_zero=True).values
    scr = scrambled_sobol(n, 8, ScrambleSeed(31415, 0)).values
    for pts in (raw, scr):
        cells = np.floor(pts * n).astype(int)
        for j in range(8):
            assert np.bincount(cells[:, j], minlength=n).max() == 1


def test_scramble_determinism_and_replicate_variation():
    src = SobolSource(64, 6)
    a = scramble(src, ScrambleSeed(7, 0)).values
    b = scramble(src, ScrambleSeed(7, 0)).values
    c = scramble(src, ScrambleSeed(7, 1)).values
    assert np.array_equal(a, b)
    assert np.any(a != c)


def test_scramble_coordinate_means():
    pts = scrambled_sobol(2 ** 10, 8, ScrambleSeed(2, 0)).values
    tol = 3.0 / np.sqrt(12 * 2 ** 10)
    assert np.all(np.abs(pts.mean(axis=0) - 0.5) <= tol)


def test_open_interval_clamping():
    for pts in (sobol_raw(2 ** 12, 16, include_zero=True),
                scrambled_sobol(2 ** 12, 16, ScrambleSeed(5, 3)),
                pseudo_uniform(10_000, 4, ScrambleSeed(5, 0))):
        v = pts.values
        assert v.min() >= EPS
        assert v.max() <= 1.0 - EPS


def test_pseudo_uniform_determinism_and_stats():
    a = pseudo_uniform(10 ** 5, 2, ScrambleSeed(11, 0)).values
    b = pseudo_uniform(10 ** 5, 2, ScrambleSeed(11, 0)).values
    assert np.array_equal(a, b)
    assert abs(a[:, 0].mean() - 0.5) <= 0.005
    assert abs(np.corrcoef(a[:, 0], a[:, 1])[0, 1]) <= 0.01


def test_pseudo_and_scramble_streams_are_distinct():
    # the MC stream and the scramble stream must not collide for one seed
    mc = pseudo_uniform(32, 4, ScrambleSeed(9, 0)).values
    qmc = scrambled_sobol(32, 4, ScrambleSeed(9, 0)).values
    assert np.any(mc != qmc)


def test_dimension_table_limit():
    assert sobol_raw(2, 1024).values.shape == (2, 1024)
    with pytest.raises(DimensionTableError):
        sobol_raw(2, 1025)
    with pytest.raises(ValueError):
        sobol_raw(0, 4)


def test_direction_integers_match_the_full_table():
    # every bit of every dimension the table holds, against a fixed digest
    v = _direction_integers(1024)
    assert v.shape == (1024, 32) and v.dtype == np.uint32
    assert hashlib.md5(v.tobytes()).hexdigest() == "85d8a61da4c301bd96d4f505554dd8e7"


@pytest.mark.parametrize("start", [0, 1, 5, 2 ** 32 - 4097])
@pytest.mark.parametrize("n", [1, 2, 3, 4097])
@pytest.mark.parametrize("shifted", [False, True])
def test_digital_points_match_the_bitwise_gray_code(start, n, shifted):
    rng = np.random.default_rng([start, n])
    directions = rng.integers(0, 2 ** 32, size=(5, 32), dtype=np.uint32)
    shift = rng.integers(0, 2 ** 32, size=5, dtype=np.uint32) if shifted else None
    ref = np.clip(gray_code_points(n, start, directions, shift) * EPS, EPS, 1.0 - EPS)
    np.testing.assert_array_equal(_digital_points(n, 5, start, directions, shift), ref)


def test_digital_points_stay_inside_the_32_bit_net():
    directions = _direction_integers(2)
    assert _digital_points(1, 2, 2 ** 32 - 1, directions).shape == (1, 2)
    for start, n in ((2 ** 32 - 1, 2), (2 ** 32, 1), (0, 2 ** 32 + 1)):
        with pytest.raises(ValueError):
            _digital_points(n, 2, start, directions)


@pytest.mark.parametrize("make, digest", [
    (lambda: scrambled_sobol(4096, 16, ScrambleSeed(12345, 0)), "38beb098926bfc40c184b49380fb588a"),
    (lambda: scrambled_sobol(1000, 33, ScrambleSeed(7, 3)), "6c349aa8242203580645648624407868"),
    (lambda: sobol_raw(1023, 5), "1cb1d69b80994d585c2fcfb7dce93998"),
    (lambda: sobol_raw(1024, 7, include_zero=True), "31201d2b5163a439687d064cf912b616"),
], ids=["scrambled-4096x16", "scrambled-1000x33", "raw-1023x5", "raw-1024x7-zero"])
def test_point_sets_match_their_digests(make, digest):
    assert hashlib.md5(make().values.tobytes()).hexdigest() == digest


def test_scramble_seed_validation():
    with pytest.raises(ValueError):
        ScrambleSeed(-1, 0)
    with pytest.raises(ValueError):
        ScrambleSeed(2 ** 64, 0)
    with pytest.raises(ValueError):
        ScrambleSeed(0, -1)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([0.5, 0.5]))  # not 2-d
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.5]]))  # boundary value
