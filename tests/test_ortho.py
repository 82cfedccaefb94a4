"""Basis orthogonalization: metric identities, minimality, spectral
invariance of the rotated problem."""

import tracemalloc

import numpy as np
import pytest

from fermap.fermion import classify, from_spatial_integrals
from fermap.jw import jw_transform_terms
from fermap.lattice import LatticeSpec, lattice_integrals
from fermap.oracle import dense_matrix
from fermap.ortho import (
    EmptyBasisError,
    NearLinearDependenceError,
    canonical_orthogonalizer,
    rotate_integrals,
    symmetric_orthogonalizer,
)


def random_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = np.linspace(1.0, cond, n)
    return q @ np.diag(vals / cond) @ q.T


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_symmetric_orthogonalizer_metric_identity(n):
    s = random_spd(n, n)
    x = symmetric_orthogonalizer(s).matrix
    assert np.allclose(x.T @ s @ x, np.eye(n), atol=1e-9)
    assert np.allclose(x, x.T, atol=1e-9)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_canonical_orthogonalizer_metric_identity(n):
    s = random_spd(n, 50 + n)
    x = canonical_orthogonalizer(s).matrix
    assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-9)


def test_symmetric_orthogonalizer_is_closest_to_original_basis():
    # among X' = X O (O orthogonal), the symmetric choice minimizes
    # tr[(X - I)^T S (X - I)], i.e. the total displacement of the orbitals
    s = random_spd(5, 3)
    x = symmetric_orthogonalizer(s).matrix

    def displacement(mat):
        d = mat - np.eye(5)
        return float(np.trace(d.T @ s @ d))

    base = displacement(x)
    rng = np.random.default_rng(0)
    for _ in range(25):
        o, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert base <= displacement(x @ o) + 1e-10


def test_canonical_truncation_drops_small_eigenvalues():
    s = np.diag([1.0, 0.5, 1e-12])
    ortho = canonical_orthogonalizer(s, tau=1e-8)
    assert ortho.matrix.shape == (3, 2)
    assert len(ortho.dropped_eigenvalues) == 1


def test_near_linear_dependence_raises():
    s = np.diag([1.0, 1e-14])
    with pytest.raises(NearLinearDependenceError):
        symmetric_orthogonalizer(s)


def test_all_dropped_raises():
    with pytest.raises(EmptyBasisError):
        canonical_orthogonalizer(np.diag([1e-12, 1e-13]), tau=1e-8)


def test_rotated_overlap_becomes_identity():
    raw = lattice_integrals(LatticeSpec(1, 3, 3.0))
    x = symmetric_orthogonalizer(raw.overlap).matrix
    assert np.allclose(x.T @ raw.overlap @ x, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("side", [2, 3])
def test_spectrum_invariant_under_orthogonalization_choice(side):
    # symmetric and canonical rotations span the same orthonormal space, so
    # the qubit Hamiltonians must be isospectral
    raw = lattice_integrals(LatticeSpec(1, side, 5.0))
    spectra = []
    for factory in (symmetric_orthogonalizer, canonical_orthogonalizer):
        h1, eri, c = rotate_integrals(raw, factory(raw.overlap))
        h = from_spatial_integrals(h1, eri, c)
        mat = dense_matrix(jw_transform_terms(classify(h), h.num_modes, h.constant))
        spectra.append(np.sort(np.linalg.eigvalsh(mat)))
    assert np.allclose(spectra[0], spectra[1], atol=1e-8)


def test_rotate_integrals_dimension_check():
    raw = lattice_integrals(LatticeSpec(1, 3, 3.0))
    bad = symmetric_orthogonalizer(np.eye(2))
    with pytest.raises(ValueError):
        rotate_integrals(raw, bad)


@pytest.mark.parametrize("truncate", [False, True])
def test_rotate_integrals_matches_einsum(truncate):
    raw = lattice_integrals(LatticeSpec(2, 3, 1.0))
    if truncate:  # keep the overlap eigenvalues above the median: k < m
        ortho = canonical_orthogonalizer(raw.overlap, tau=np.median(np.linalg.eigvalsh(raw.overlap)))
        assert ortho.matrix.shape[1] < raw.num_orbitals
    else:
        ortho = symmetric_orthogonalizer(raw.overlap)
    x = ortho.matrix
    h1, eri, constant = rotate_integrals(raw, ortho)
    assert eri.shape == (x.shape[1],) * 4
    expected = np.einsum("pi,qj,rk,sl,pqrs->ijkl", x, x, x, x, raw.eri, optimize=True)
    np.testing.assert_allclose(eri, expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(h1, x.T @ raw.core @ x, rtol=0, atol=1e-14)
    assert constant == raw.nuclear_repulsion


def test_rotation_peak_memory_is_bounded_by_the_eri():
    raw = lattice_integrals(LatticeSpec(3, 3, 8.75))
    ortho = symmetric_orthogonalizer(raw.overlap)
    tracemalloc.start()
    try:
        rotate_integrals(raw, ortho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * raw.eri.nbytes
