"""Jordan-Wigner mapping against the dense Fock-space oracle."""

import numpy as np
import pytest

from fermap.fermion import ClassifiedTerm, Kind, classify
from fermap.jw import jw_ladder, jw_transform, jw_transform_terms
from fermap.oracle import dense_matrix, fermion_dense, fock_ladder_operators
from fermap.pauli import NonHermitianError
from fermap.sampling import random_spatial_hamiltonian


@pytest.mark.parametrize("num_modes", [1, 2, 4])
def test_jw_ladders_equal_fock_ladders(num_modes):
    # the mapped annihilation operators must be exactly the Fock-space
    # annihilation matrices in the same bit convention
    ladders = fock_ladder_operators(num_modes)
    for j in range(num_modes):
        a_j = dense_matrix(jw_ladder(j, dagger=False, num_modes=num_modes))
        assert np.allclose(a_j, ladders[j], atol=1e-12)
        adag = dense_matrix(jw_ladder(j, dagger=True, num_modes=num_modes))
        assert np.allclose(adag, ladders[j].conj().T, atol=1e-12)


def test_jw_ladders_satisfy_anticommutation():
    n = 3
    ident = np.eye(2**n)
    mats = [dense_matrix(jw_ladder(j, False, n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            anti = mats[i] @ mats[j].conj().T + mats[j].conj().T @ mats[i]
            expected = ident if i == j else np.zeros_like(ident)
            assert np.allclose(anti, expected, atol=1e-12)
            assert np.allclose(mats[i] @ mats[j] + mats[j] @ mats[i], 0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_jw_transform_matches_dense_hamiltonian(seed):
    h = random_spatial_hamiltonian(2, seed)
    qubit_h = jw_transform(h)
    assert np.allclose(dense_matrix(qubit_h), fermion_dense(h), atol=1e-10)


def test_jw_transform_terms_matches_transform():
    h = random_spatial_hamiltonian(2, 17)
    a = jw_transform(h)
    b = jw_transform_terms(classify(h), h.num_modes, constant=h.constant)
    assert np.allclose(dense_matrix(a), dense_matrix(b), atol=1e-10)


def test_jw_output_is_hermitian():
    h = random_spatial_hamiltonian(2, 23)
    mat = dense_matrix(jw_transform(h))
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    for t in jw_transform(h).terms:
        assert abs(t.coefficient.imag) < 1e-12
    # an imaginary coefficient on a self-adjoint term is caught after the merge
    with pytest.raises(NonHermitianError):
        jw_transform_terms([ClassifiedTerm(Kind.NUMBER, (0,), 0.5j)], 2)


def test_jw_eps_drops_small_terms():
    h = random_spatial_hamiltonian(2, 31)
    full = jw_transform(h, eps=0.0)
    coeffs = sorted(abs(t.coefficient) for t in full.terms if t.weight() > 0)
    thresh = coeffs[len(coeffs) // 2]
    pruned = jw_transform(h, eps=thresh * 1.0000001)
    assert all(abs(t.coefficient) >= thresh or t.weight() == 0 for t in pruned.terms)
    assert len(pruned) < len(full)
