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
    _direction_integers,
)


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
