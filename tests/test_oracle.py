"""Dense oracle internals: ladder operators, projectors, sector selection."""

import numpy as np
import pytest

from fermap.fermion import from_spatial_integrals
from fermap.oracle import (
    SizeError,
    codespace_projector,
    dense_matrix,
    fermion_dense,
    fock_ladder_operators,
    sector_spectra_match,
)
from fermap.pauli import PauliOperatorSum
from fermap.superfast import InteractionGraph, loop_stabilizers
from fermap.sampling import random_spatial_hamiltonian
from test_pauli import pack_masks


def test_fock_ladders_canonical_anticommutation():
    n = 3
    a = fock_ladder_operators(n)
    eye = np.eye(2**n)
    for i in range(n):
        for j in range(n):
            assert np.allclose(a[i] @ a[j] + a[j] @ a[i], 0, atol=1e-13)
            anti = a[i] @ a[j].conj().T + a[j].conj().T @ a[i]
            assert np.allclose(anti, eye if i == j else 0, atol=1e-13)


def test_fock_ladder_annihilates_vacuum_and_counts():
    n = 2
    a = fock_ladder_operators(n)
    vac = np.zeros(4)
    vac[0] = 1.0
    for op in a:
        assert np.allclose(op @ vac, 0)
    # number operator diagonal equals the corresponding occupation bit
    for j in range(n):
        num = a[j].conj().T @ a[j]
        diag = np.real(np.diag(num))
        assert np.allclose(diag, [(idx >> j) & 1 for idx in range(4)])


def test_fermion_dense_number_operator():
    h1 = np.array([[0.5]])
    h = from_spatial_integrals(h1, np.zeros((1,) * 4), constant=0.25)
    mat = fermion_dense(h)
    # modes 0 (up) and 1 (down): eigenvalues 0.25 + 0.5 * occupation
    assert np.allclose(np.sort(np.diag(mat).real), [0.25, 0.75, 0.75, 1.25])


def test_codespace_projector_is_projector_with_correct_rank():
    # the 4-cycle's stabilizer is real; K4's three have imaginary entries
    k4 = [(p, q) for q in range(4) for p in range(q)]
    for edges in ([(0, 1), (1, 2), (2, 3), (3, 0)], k4):
        g = InteractionGraph(4, edges)
        stabs = loop_stabilizers(g)
        proj = codespace_projector(stabs)
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        assert np.allclose(proj, proj.conj().T, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(2 ** (g.num_qubits - len(stabs)))
        weights, vectors = np.linalg.eigh(proj)
        basis = vectors[:, weights > 0.5]
        assert basis.shape == (2**g.num_qubits, 2 ** (g.num_qubits - len(stabs)))
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-9)
        # every stabilizer acts as +1 on the basis
        for k in range(len(stabs)):
            row = slice(k, k + 1)
            s = PauliOperatorSum(stabs.x[row], stabs.z[row], stabs.coefficients[row], g.num_qubits)
            assert np.allclose(dense_matrix(s) @ basis, basis, atol=1e-9)


def test_tree_graph_has_trivial_code_space():
    g = InteractionGraph(4, [(0, 1), (1, 2), (1, 3)])
    stabs = loop_stabilizers(g)
    assert len(stabs) == 0
    proj = codespace_projector(stabs)
    assert np.allclose(proj, np.eye(2**g.num_qubits))


def test_sector_spectra_match_zero_for_exact_hamiltonian():
    h = random_spatial_hamiltonian(2, 77)
    assert sector_spectra_match(h) < 1e-9


def test_size_guard():
    with pytest.raises(SizeError):
        fock_ladder_operators(40)
    with pytest.raises(SizeError):
        dense_matrix(PauliOperatorSum(pack_masks([1], 13), pack_masks([0], 13), np.ones(1, complex), 13))
