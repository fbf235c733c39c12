"""PCA reduction of prompt embeddings into the feature map used downstream.

The embedding rows are centred, their population covariance is diagonalised by
cyclic Jacobi rotations (deterministic, dense, symmetric), and the features are
the coordinates on the top-d eigenvectors. Each eigenvector's sign is fixed by
making its first nonzero component positive.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ConfigurationError, NumericalError
from .environments import _read_arm_csv, _write_csv

_JACOBI_MAX_SWEEPS = 100
_JACOBI_TOL = 1e-12  # off-diagonal Frobenius norm, relative to max(max |a_ij|, 1)
_SIGN_EPS = 1e-12


def jacobi_eigh(matrix: np.ndarray):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, unsorted.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"need a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ConfigurationError("matrix must be symmetric")
    n = a.shape[0]
    vectors = np.eye(n)
    targets = (a, a.T, vectors)
    scale = max(float(np.abs(a).max()), 1.0)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= _JACOBI_TOL * scale:
            return np.diag(a).copy(), vectors
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-30 * scale:
                    continue
                phi = (a[q, q] - a[p, p]) / (2.0 * apq)
                if phi == 0.0:
                    t = 1.0
                else:
                    t = np.sign(phi) / (abs(phi) + np.sqrt(phi * phi + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                for target in targets:  # a's columns, a's rows (a.T is a view), the eigenvectors
                    col_p = target[:, p].copy()
                    col_q = target[:, q].copy()
                    target[:, p] = c * col_p - s * col_q
                    target[:, q] = s * col_p + c * col_q
    raise NumericalError(f"Jacobi rotations did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def pca_reduce(embeddings: np.ndarray, dim: int):
    """Project K embedding rows onto the top-``dim`` principal directions.

    Returns (features K x d, basis p x d, mean p-vector); features are
    ``(e(x) - mean) @ basis``.
    """
    table = np.asarray(embeddings, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise ConfigurationError(f"embeddings must be K x p, got shape {table.shape}")
    if not np.all(np.isfinite(table)):
        raise ConfigurationError("embeddings must be finite")
    n_rows, width = table.shape
    if not 1 <= dim <= min(n_rows, width):
        raise ConfigurationError(
            f"dim must satisfy 1 <= d <= min(K, p) = {min(n_rows, width)}, got {dim}"
        )
    mean = table.mean(axis=0)
    centred = table - mean
    covariance = centred.T @ centred / n_rows
    values, vectors = jacobi_eigh(covariance)
    order = sorted(range(width), key=lambda i: (-values[i], i))
    basis = vectors[:, order[:dim]].copy()
    for j in range(dim):
        column = basis[:, j]
        nonzero = np.nonzero(np.abs(column) > _SIGN_EPS)[0]
        if nonzero.size and column[nonzero[0]] < 0:
            basis[:, j] = -column
    return centred @ basis, basis, mean


def load_embeddings_csv(path: str | Path) -> np.ndarray:
    """Read an embedding table from CSV with header arm_id,e_1,...,e_p and one
    row per arm, checked like a replay file (``environments._read_arm_csv``)."""
    return _read_arm_csv(path, "embedding", repeats=False)[1]


def write_features_csv(path: str | Path, features: np.ndarray) -> None:
    feats = np.asarray(features, dtype=float)
    header = ",".join(["arm_id"] + [f"phi_{j + 1}" for j in range(feats.shape[1])])
    _write_csv(path, header, ([arm, *row] for arm, row in enumerate(feats.tolist())))
