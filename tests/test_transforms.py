"""Orthogonal path-generation transforms and Taylor weight matrices."""

import numpy as np
import pytest

from smoothqmc.errors import DegenerateWeightError
from smoothqmc.models import (
    BlackScholesSpec,
    HestonSpec,
    increment_law_for,
    paths_exp_levy,
    paths_heston,
)
from smoothqmc.transforms import (
    _rotation_slices,
    apply_transform,
    identity_transform,
    mqr_transform,
    qr_transform,
    taylor_weight,
)

BS = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=16)


def bs_path_map(spec):
    law = increment_law_for(spec)
    ident = identity_transform(spec.m)
    return lambda z: paths_exp_levy(law, spec.s0, z, ident)


def test_mqr_two_dim_sign_convention():
    U = mqr_transform(np.array([[1.0], [-2.0]]))
    assert np.allclose(U.U, np.diag([1.0, -1.0]))
    U = mqr_transform(np.array([[1.0], [2.0]]))
    assert np.allclose(U.U, np.eye(2))


def test_one_dimensional_weight_is_rejected():
    # a bare weight vector has no orientation; W must be (d, r)
    for build in (qr_transform, mqr_transform):
        with pytest.raises(ValueError, match="2-d"):
            build(np.array([1.0, 2.0, 3.0]))


def test_mqr_canonical_column_gives_identity():
    W = np.zeros((6, 1))
    W[0, 0] = 3.0
    W[1, 0] = 2.0  # remainder is e_1 scaled
    assert np.allclose(mqr_transform(W).U, np.eye(6))


def test_qr_canonical_and_normalized_direction():
    e1 = np.zeros((5, 1))
    e1[0, 0] = 2.0
    assert np.allclose(qr_transform(e1).U, np.eye(5))
    rng = np.random.default_rng(0)
    w = rng.normal(size=(7, 1))
    U = qr_transform(w).U
    col = U[:, 0]
    assert np.allclose(col, np.sign(col @ w[:, 0]) * w[:, 0] / np.linalg.norm(w))
    assert col @ w[:, 0] > 0


def test_qr_lower_triangular_composite():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(8, 3))
    U = qr_transform(W)
    composite = W.T @ U.U  # rows are w_j^T U; should be R^T pattern
    for j in range(3):
        assert np.max(np.abs(composite[j, j + 1:])) <= 1e-10


def test_mqr_block_form_and_pin():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(9, 2))
    U = mqr_transform(W)
    assert U.U[0, 0] == 1.0
    assert np.allclose(U.U[0, 1:], 0.0)
    assert np.allclose(U.U[1:, 0], 0.0)
    z = rng.normal(size=(50, 9))
    assert np.array_equal(apply_transform(U, z)[:, 0], z[:, 0])


def test_orthogonality_of_all_constructions():
    rng = np.random.default_rng(5)
    for d, r in [(4, 1), (8, 3), (16, 5)]:
        W = rng.normal(size=(d, r))
        for U in (qr_transform(W), mqr_transform(W), identity_transform(d)):
            err = np.max(np.abs(U.U.T @ U.U - np.eye(d)))
            assert err <= 1e-10


def test_theorem_two_annihilation():
    # with rank-r W, the composite W^T U has zero columns past r+1,
    # so the transformed integrand depends on r+1 leading coordinates only
    W = taylor_weight(bs_path_map(BS), "average", BS.m)
    r = W.shape[1]
    U = mqr_transform(W)
    composite = W.T @ U.U
    assert np.max(np.abs(composite[:, r + 1:])) <= 1e-10


def test_theorem_two_invariance_probe():
    rng = np.random.default_rng(6)
    W = rng.normal(size=(10, 2))
    U = mqr_transform(W)
    z = rng.normal(size=10)
    base = W.T @ (U.U @ z)
    for k in range(3, 10):  # coordinates r+2..d, zero-based index r+1..
        bumped = z.copy()
        bumped[k] += 1.0
        moved = W.T @ (U.U @ bumped)
        assert np.max(np.abs(moved - base)) <= 1e-10 * max(1.0, np.max(np.abs(base)))


def test_barrier_weight_black_scholes_closed_form():
    spec = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=4)
    W = taylor_weight(bs_path_map(spec), "barrier", spec.m)
    # columns are [w_4, w_3, w_2, w_1]; w_i = b * (1,...,1,0,...,0) with i ones
    b = spec.b
    expected = b * np.array([
        [1, 1, 1, 1],
        [1, 1, 1, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 0],
    ], dtype=float).T
    assert np.max(np.abs(W - expected)) <= 1e-6


def test_average_weight_entry_ordering():
    spec = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=2)
    w0 = taylor_weight(bs_path_map(spec), "average", spec.m)[:, 0]
    # early shocks move more of the average: strictly decreasing entries
    assert w0[0] > w0[1] > 0


def test_heston_degenerate_average_weight():
    hes = HestonSpec(s0=100.0, v0=0.09, r=0.04, theta_bar=0.09, nu=1.0,
                     sigma_v=0.0, rho=0.0, T=1.0, m=8)
    ident = identity_transform(hes.d)
    W = taylor_weight(lambda z: paths_heston(hes, z, ident), "average", hes.d)[:, 0]
    bs = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=8)
    w_bs = taylor_weight(bs_path_map(bs), "average", bs.m)[:, 0]
    # asset shocks on odd positions match the BS weight; variance shocks inert
    assert np.max(np.abs(W[0::2] - w_bs)) <= 1e-6
    assert np.max(np.abs(W[1::2])) <= 1e-6


def test_degenerate_weight_errors():
    W = np.zeros((5, 1))
    W[0, 0] = 1.0  # remainder block all zero: nothing to rotate
    assert mqr_transform(W).kind == "identity"
    assert mqr_transform(np.ones((1, 1))).kind == "identity"  # d = 1: rows 2..d are empty
    with pytest.raises(DegenerateWeightError):
        qr_transform(np.c_[np.ones(5), np.ones(5)])  # rank deficient


def test_apply_transform_identity_and_isometry():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(20, 6))
    ident = identity_transform(6)
    assert apply_transform(ident, z) is z
    U = qr_transform(rng.normal(size=(6, 2)))
    y = apply_transform(U, z)
    assert np.max(np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(z, axis=1))) <= 1e-12
    with pytest.raises(ValueError):
        apply_transform(U, rng.normal(size=(3, 5)))


@pytest.mark.parametrize("d", [2, 8, 16, 32, 64])
def test_sliced_rotation_gives_the_whole_product_bits(d):
    # the even row slices apply_transform multiplies in give the bits of
    # one product over the whole batch, with and without out
    rng = np.random.default_rng(d)
    W = rng.normal(size=(d, 2))
    for transform in (mqr_transform(W), qr_transform(W)):
        for n in (1, 2, 255, 4096, 8195, 12288):
            z = rng.normal(size=(n, d))
            whole = np.matmul(z, transform.U.T)
            np.testing.assert_array_equal(apply_transform(transform, z), whole)
            out = np.empty((n, d))
            assert apply_transform(transform, z, out=out) is out
            np.testing.assert_array_equal(out, whole)


@pytest.mark.parametrize("d", [1, 2, 16, 32, 64, 65, 90, 128, 252])
def test_rotation_slices_are_even_and_at_most_the_serial_gemm_size(d):
    most = 2 ** 18 // d ** 2
    for n in (0, 1, 63, 64, 65, 255, 1025, 4096, 8192, 8195, 12288, 2 ** 18 + 1):
        bounds = _rotation_slices(n, d)
        if most < 64:  # past d = 64 no slice of 64 rows is a serial GEMM
            assert bounds == [(0, n)]
            continue
        sizes = [b - a for a, b in bounds]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(b == a for (_, b), (a, _) in zip(bounds, bounds[1:]))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        assert len(bounds) == max(1, -(-n // most))  # the fewest slices that fit


def test_transform_determinism():
    rng = np.random.default_rng(9)
    W = rng.normal(size=(12, 3))
    assert np.array_equal(mqr_transform(W).U, mqr_transform(W).U)
    assert np.array_equal(qr_transform(W).U, qr_transform(W).U)
