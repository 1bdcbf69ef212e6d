"""Spectral analysis of the gap-update matrices.

The static law's gap vector evolves under P_k = I + U_k/6, a row-stochastic
tridiagonal matrix. P_k is self-adjoint in the weighted inner product
<x, y> = sum_i w_i x_i y_i with w = (3, 6, ..., 6, 3): equivalently,
diag(w) P is symmetric, because P_ij = w_ij / w_i for the edge weights of an
undirected line graph (unit self-loops at nodes 1, 2, k-1, k; weight-2 end
edges; weight-3 interior edges). Its spectrum is therefore real, the top
eigenvalue is 1 with the all-ones eigenvector, and the remaining eigenvalue
moduli are bounded by 1 - 1/(3 k^2), which bounds the static law's
convergence rate. The bound is loose: the spectral gap 1 - max |lambda| is
close to pi^2 / (2 (k - 1)^2), about 15 times wider.

Eigenvalues are computed on the symmetrized tridiagonal matrix
S = D^{1/2} P D^{-1/2} with ``numpy.linalg.eigvalsh``: once S is verified
symmetric, the symmetric eigensolver returns real eigenvalues in ascending
order, each within a small multiple of machine epsilon times the spectral
radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError


@dataclass(frozen=True)
class TridiagonalSystem:
    """Gap-update stencil U, transition matrix P = I + U/6, and weights w."""

    k: int
    U: np.ndarray
    P: np.ndarray
    w: np.ndarray


def build_system(k: int) -> TridiagonalSystem:
    """Build the k-dimensional gap-update system (k >= 3).

    Stencil rows are integers divided by 6, so P is exact to one rounding.
    The sub-diagonal of U is (2, 3, ..., 3, 4), the super-diagonal is its
    reverse (4, 3, ..., 3, 2), and the diagonal makes every row sum to zero.
    """
    if k < 3:
        raise DomainError("gap systems need dimension k >= 3")
    sub = np.full(k - 1, 3.0)
    sub[0], sub[-1] = 2.0, 4.0
    U = np.diag(sub, -1) + np.diag(sub[::-1], 1)
    np.fill_diagonal(U, -U.sum(axis=1))
    P = np.eye(k) + U / 6.0
    w = np.full(k, 6.0)
    w[0] = w[-1] = 3.0
    return TridiagonalSystem(k=k, U=U, P=P, w=w)


def spectrum(sys: TridiagonalSystem) -> np.ndarray:
    """Real eigenvalues of P, ascending (largest is 1).

    Works on S = D^{1/2} P D^{-1/2} with D = diag(w); S is symmetric
    tridiagonal by the weighted self-adjointness, which is verified before
    solving.
    """
    P, w = sys.P, sys.w
    sqrt_w = np.sqrt(w)
    S = (sqrt_w[:, None] * P) / sqrt_w[None, :]
    if float(np.max(np.abs(S - S.T))) > 1e-10:
        raise NumericError("weighted symmetrization failed: diag(w) P not symmetric")
    return np.linalg.eigvalsh(0.5 * (S + S.T))


def predict_limit(sys: TridiagonalSystem, d0) -> float:
    """Common limit of all gap entries: the w-weighted mean of d(0).

    This is the projection of d(0) onto the all-ones eigenvector in the
    weighted inner product; for a valid gap vector of a field it equals
    F(1)/n, since sum_i w_i d_i = 6 F(1) and sum_i w_i = 6 (k - 1).
    """
    d0 = np.asarray(d0, dtype=float)
    if d0.shape != (sys.k,):
        raise DomainError(f"gap vector must have length {sys.k}")
    return float(np.dot(sys.w, d0) / np.sum(sys.w))
