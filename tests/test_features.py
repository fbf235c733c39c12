from pathlib import Path

import numpy as np
import pytest

from oracles import deflation_eigh
from mopx.core import ConfigurationError
from mopx.features import (
    jacobi_eigh,
    load_embeddings_csv,
    pca_reduce,
    write_features_csv,
)


def test_axis_aligned_example():
    feats, basis, mean = pca_reduce(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]), 1)
    assert np.allclose(mean, [0.0, 0.0])
    assert np.allclose(basis[:, 0], [1.0, 0.0])
    assert np.allclose(feats[:, 0], [1.0, -1.0, 0.0])


def test_full_dimension_preserves_pairwise_distances():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(8, 5))
    feats, _, _ = pca_reduce(table, 5)
    for i in range(8):
        for j in range(i + 1, 8):
            orig = np.linalg.norm(table[i] - table[j])
            new = np.linalg.norm(feats[i] - feats[j])
            assert abs(orig - new) < 1e-9


def test_full_variance_reconstruction_against_deflation_oracle():
    rng = np.random.default_rng(1)
    # rank-3 embeddings in 6 dims: d=3 captures all variance
    latent = rng.normal(size=(10, 3))
    mixer = rng.normal(size=(3, 6))
    table = latent @ mixer
    feats, basis, mean = pca_reduce(table, 3)
    centred = table - mean
    assert np.linalg.norm(centred - feats @ basis.T) < 1e-8
    cov = centred.T @ centred / table.shape[0]
    oracle_vals, _ = deflation_eigh(cov, 3)
    ours = np.sort(jacobi_eigh(cov)[0])[::-1][:3]
    assert np.allclose(np.sort(ours)[::-1], np.sort(oracle_vals)[::-1], atol=1e-8)


def test_basis_is_orthonormal():
    rng = np.random.default_rng(2)
    feats, basis, _ = pca_reduce(rng.normal(size=(12, 7)), 4)
    gram = basis.T @ basis
    assert np.max(np.abs(gram - np.eye(4))) < 1e-9


def test_variance_ordering_and_conservation():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(9, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    centred = table - table.mean(axis=0)
    covariance = centred.T @ centred / table.shape[0]
    values = np.sort(jacobi_eigh(covariance)[0])[::-1]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    total = np.trace(covariance)
    assert values.sum() == pytest.approx(total)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(7, 4))
    f1, b1, _ = pca_reduce(table, 2)
    f2, b2, _ = pca_reduce(table + 17.5, 2)
    assert np.allclose(f1, f2, atol=1e-9)
    assert np.allclose(b1, b2, atol=1e-9)


def test_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(5)
    _, basis, _ = pca_reduce(rng.normal(size=(10, 5)), 3)
    for j in range(3):
        column = basis[:, j]
        first = column[np.abs(column) > 1e-12][0]
        assert first > 0


def test_dim_validation():
    table = np.random.default_rng(6).normal(size=(4, 6))
    for bad in (0, 5, 7):  # d must stay within min(K, p) = 4
        with pytest.raises(ConfigurationError):
            pca_reduce(table, bad)


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(6, 6))
    sym = (mat + mat.T) / 2
    values, vectors = jacobi_eigh(sym)
    assert np.allclose(np.sort(values), np.sort(np.linalg.eigvalsh(sym)), atol=1e-9)
    assert np.max(np.abs(vectors @ np.diag(values) @ vectors.T - sym)) < 1e-9


def test_embeddings_csv_round_trip(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("arm_id,e_1,e_2\n0,1.5,0.0\n1,-0.5,2.0\n")
    table = load_embeddings_csv(path)
    assert table.shape == (2, 2)
    feats, _, _ = pca_reduce(table, 1)
    out = tmp_path / "features.csv"
    write_features_csv(out, feats)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "arm_id,phi_1"
    assert len(lines) == 3


def test_features_csv_text_is_pinned_and_reads_back_bit_for_bit(tmp_path):
    feats = np.array([[0.1, -0.0], [1e-300, 2.0 / 3.0], [-12345.678, 5e20]])
    out = tmp_path / "features.csv"
    write_features_csv(out, feats)
    assert out.read_bytes() == (
        b"arm_id,phi_1,phi_2\r\n0,0.1,-0.0\r\n1,1e-300,0.6666666666666666\r\n2,-12345.678,5e+20\r\n"
    )
    assert load_embeddings_csv(out).tobytes() == feats.tobytes()


def test_pca_reduce_output_is_pinned_within_kernel_rounding():
    # the covariance and the projection are BLAS products, so other OpenBLAS kernels round
    # them otherwise: Haswell and Sandybridge differ from the recorded SkylakeX values by
    # under 3e-13 relative, far below any change to jacobi_eigh or the projection
    embeddings = np.random.default_rng(40).normal(size=(40, 12))
    feats, _, _ = pca_reduce(embeddings, dim=5)
    recorded = load_embeddings_csv(Path(__file__).resolve().parent.parent / "fixtures" / "pca_reduce_features.csv")
    np.testing.assert_allclose(feats, recorded, rtol=1e-12, atol=0.0)
