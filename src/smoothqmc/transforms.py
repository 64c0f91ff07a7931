"""Orthogonal transforms for path generation.

Under Gaussian increments a path-generation method is a choice of
orthogonal matrix U applied to the standard-normal coordinates.  Three
kinds are built here: the identity, the full-QR transform (U = complete
orthogonal basis from QR of a payoff-derived weight matrix W), and the
modified-QR transform that pins the first coordinate, U = diag(1, Q)
with Q from QR of the last d-1 rows of W.  The pin is what keeps the
push-out smoothing applicable after the change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError

_ORTHO_TOL = 1e-10
_RANK_TOL = 1e-10
_FD_STEP = 1e-5  # central-difference step of taylor_weight

__all__ = [
    "OrthogonalTransform",
    "identity_transform",
    "qr_transform",
    "mqr_transform",
    "taylor_weight",
    "apply_transform",
]


@dataclass(frozen=True, eq=False)
class OrthogonalTransform:
    """A d x d orthogonal matrix with its construction kind."""

    U: np.ndarray
    kind: str  # 'identity' | 'qr' | 'mqr'

    def __post_init__(self):
        if self.kind not in ("identity", "qr", "mqr"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        U = self.U
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("U must be square")
        gram_err = np.abs(U.T @ U - np.eye(U.shape[0])).max()
        if gram_err > _ORTHO_TOL:
            raise ValueError(f"U is not orthogonal to tolerance: {gram_err:.3e}")
        if self.kind == "mqr":
            # block form: first row and column are the first basis vector
            if abs(U[0, 0] - 1.0) > 1e-12 or np.abs(U[0, 1:]).max() > 1e-12 or np.abs(U[1:, 0]).max() > 1e-12:
                raise ValueError("mqr transform must leave the first coordinate fixed")

    @property
    def d(self) -> int:
        return self.U.shape[0]


def identity_transform(d: int) -> OrthogonalTransform:
    return OrthogonalTransform(np.eye(d), "identity")


def _as_weight(W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"weight matrix must be 2-d (d, r), got shape {W.shape}")
    return W


def _check_rank(W: np.ndarray) -> None:
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= _RANK_TOL * sv[0]:
        raise DegenerateWeightError(
            f"weight matrix is rank deficient (singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )


def _qr_nonneg(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complete QR with the sign convention diag(R) >= 0 on the leading block."""
    Q, R = np.linalg.qr(A, mode="complete")
    k = min(A.shape)
    flip = np.where(np.diag(R)[:k] < 0.0, -1.0, 1.0)
    Q[:, :k] *= flip[None, :]
    R[:k, :] *= flip[:, None]
    return Q, R


def qr_transform(W) -> OrthogonalTransform:
    """Full-QR transform: U is a complete orthogonal basis with W = U R.

    W^T U z = R^T z, so each w_j^T z is concentrated on the first j
    transformed coordinates.
    """
    W = _as_weight(W)
    _check_rank(W)
    Q, _ = _qr_nonneg(W)
    return OrthogonalTransform(Q, "qr")


def mqr_transform(W) -> OrthogonalTransform:
    """Modified-QR transform: U = diag(1, Q) with W[1:, :] = Q R.

    (Uz)_1 = z_1 exactly, and W^T U z = z_1 W[0, :]^T + R^T z_{2:d} with
    R^T lower triangular, so a payoff of the form G(W^T z) becomes a
    function of at most r+1 leading coordinates while the separation
    interval in the first coordinate survives the change of variables.
    """
    W = _as_weight(W)
    d = W.shape[0]
    _check_rank(W)
    rest = W[1:, :]
    if not np.any(rest):
        raise DegenerateWeightError("rows 2..d of the weight matrix are all zero")
    Q, _ = _qr_nonneg(rest)
    U = np.zeros((d, d))
    U[0, 0] = 1.0
    U[1:, 1:] = Q
    return OrthogonalTransform(U, "mqr")


def taylor_weight(path_map, payoff_kind: str, d: int) -> np.ndarray:
    """First-order Taylor weight matrix of the path map at z = 0.

    path_map maps a (N, d) normal-coordinate batch to (N, m) price paths.
    'average' payoffs get the single column w0 = grad of the path average;
    'barrier' payoffs get columns [w_m, ..., w_1] with w_i = grad log S_i.
    Gradients are central finite differences with step _FD_STEP.
    """
    if payoff_kind not in ("average", "barrier"):
        raise ValueError(f"unknown payoff kind {payoff_kind!r}")
    z = np.zeros((2 * d, d))
    rng = np.arange(d)
    z[rng, rng] = _FD_STEP
    z[d + rng, rng] = -_FD_STEP
    paths = np.asarray(path_map(z), dtype=float)
    if payoff_kind == "average":
        avg = paths.mean(axis=1)
        w0 = (avg[:d] - avg[d:]) / (2.0 * _FD_STEP)
        W = w0[:, None]
    else:
        grad_log = (np.log(paths[:d]) - np.log(paths[d:])) / (2.0 * _FD_STEP)  # (d, m)
        W = grad_log[:, ::-1]
    if not np.all(np.isfinite(W)):
        raise DegenerateWeightError("non-finite gradient in Taylor weight")
    return W


def apply_transform(transform: OrthogonalTransform, z: np.ndarray) -> np.ndarray:
    """Row-wise U z for a (N, d) batch."""
    if z.shape[-1] != transform.d:
        raise ValueError(f"dimension mismatch: points have d={z.shape[-1]}, transform d={transform.d}")
    if transform.kind == "identity":
        return z
    return z @ transform.U.T
