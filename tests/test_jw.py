"""Jordan-Wigner mapping against the dense Fock-space oracle."""

import numpy as np
import pytest

from fermap.fermion import ClassifiedTerms, Kind, classify_spatial
from fermap.jw import _ladders, _register_tables, jw_transform_terms
from fermap.metrics import report
from fermap.oracle import dense_matrix, fermion_dense, fock_ladder_operators
from fermap.pauli import NonHermitianError, PauliOperatorSum
from fermap.sampling import random_spatial_hamiltonian
from test_pauli import pack_masks


@pytest.mark.parametrize("num_modes", [1, 2, 63, 64, 65, 130])
def test_register_tables_match_integer_masks(num_modes):
    # a_j's X bit and Z string, across one, two and three words
    bits, prefix = _register_tables(num_modes)
    assert np.array_equal(bits, pack_masks([1 << j for j in range(num_modes)], num_modes))
    assert np.array_equal(prefix, pack_masks([(1 << j) - 1 for j in range(num_modes)], num_modes))


def ladder(j, dagger, num_modes):
    """The Pauli image of a_j (or a_j^) on num_modes qubits, from the
    production tables."""
    x, z, c = _ladders(np.array([j]), dagger, _register_tables(num_modes))
    return PauliOperatorSum(x[0], z[0], c[0], num_modes)


@pytest.mark.parametrize("num_modes", [1, 2, 4])
def test_jw_ladders_equal_fock_ladders(num_modes):
    # the mapped annihilation operators must be exactly the Fock-space
    # annihilation matrices in the same bit convention
    ladders = fock_ladder_operators(num_modes)
    for j in range(num_modes):
        a_j = dense_matrix(ladder(j, False, num_modes))
        assert np.allclose(a_j, ladders[j], atol=1e-12)
        adag = dense_matrix(ladder(j, True, num_modes))
        assert np.allclose(adag, ladders[j].conj().T, atol=1e-12)


def test_jw_ladders_satisfy_anticommutation():
    n = 3
    ident = np.eye(2**n)
    mats = [dense_matrix(ladder(j, False, n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            anti = mats[i] @ mats[j].conj().T + mats[j].conj().T @ mats[i]
            expected = ident if i == j else np.zeros_like(ident)
            assert np.allclose(anti, expected, atol=1e-12)
            assert np.allclose(mats[i] @ mats[j] + mats[j] @ mats[i], 0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_jw_transform_matches_dense_hamiltonian(seed):
    h = random_spatial_hamiltonian(2, seed)
    qubit_h = jw_transform_terms(classify_spatial(h.one_body, h.eri), h.num_modes, h.constant)
    assert np.allclose(dense_matrix(qubit_h), fermion_dense(h), atol=1e-10)


def test_jw_output_is_hermitian():
    h = random_spatial_hamiltonian(2, 23)
    op = jw_transform_terms(classify_spatial(h.one_body, h.eri), h.num_modes, h.constant)
    mat = dense_matrix(op)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    assert np.abs(op.coefficients.imag).max() < 1e-12
    # an imaginary coefficient on a self-adjoint term is caught after the merge
    with pytest.raises(NonHermitianError):
        jw_transform_terms(ClassifiedTerms({Kind.NUMBER: (np.array([[0]]), np.array([0.5j]))}), 2)


def test_jw_eps_drops_small_terms():
    h = random_spatial_hamiltonian(2, 31)
    terms = classify_spatial(h.one_body, h.eri)
    full = jw_transform_terms(terms, h.num_modes, h.constant, eps=0.0)
    coeffs = np.sort(np.abs(full.coefficients[full.weights() > 0]))
    thresh = coeffs[len(coeffs) // 2]
    pruned = jw_transform_terms(terms, h.num_modes, h.constant, eps=thresh * 1.0000001)
    assert ((np.abs(pruned.coefficients) >= thresh) | (pruned.weights() == 0)).all()
    assert len(pruned) < len(full)


def test_eps_zero_keeps_no_zero_coefficients():
    # a_0^ a_2 + h.c.: the XY and YX strings cancel exactly and must not be
    # kept, or counted, at eps = 0
    hop = ClassifiedTerms({Kind.EXCITATION: (np.array([[0, 2]]), np.array([0.5]))})
    op = jw_transform_terms(hop, 3, eps=0.0)
    # X0 Z1 X2 and Y0 Z1 Y2
    assert op.x[:, 0].tolist() == [0b101, 0b101] and op.z[:, 0].tolist() == [0b010, 0b111]
    assert op.coefficients.tolist() == [0.25, 0.25]
    rep = report(op, "hop")
    assert (rep.term_count, rep.total_weight) == (2, 6)
