"""Dense oracle internals: ladder operators, the code-space spectrum under a
stabilizer penalty, sector selection."""

from functools import reduce

import numpy as np
import pytest

from fermap.fermion import from_spatial_integrals
from fermap.oracle import (
    SizeError,
    code_space_spectrum,
    dense_matrix,
    fermion_dense,
    fock_ladder_operators,
    sector_spectra_match,
)
from fermap.pauli import PauliOperatorSum, commute
from fermap.superfast import InteractionGraph, loop_stabilizers
from fermap.sampling import random_spatial_hamiltonian
from test_pauli import pack_masks
from test_superfast import squares_to_identity, symplectic_rank


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


def term_images(g, seed):
    """Every B_i and A_pq of ``g`` with a random real coefficient each."""
    x = np.concatenate([np.zeros_like(g.vertex), g.edge_x])
    z = np.concatenate([g.vertex, g.edge_z])
    c = np.random.default_rng(seed).normal(size=len(x)).astype(complex)
    return PauliOperatorSum(x, z, c, g.num_qubits)


CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]
GRAPHS = {
    "4-cycle": CYCLE,
    "K4": [(p, q) for q in range(4) for p in range(q)],
    "tree": [(0, 1), (1, 2), (1, 3)],
    "5-edge": CYCLE + [(0, 2)],
}


@pytest.mark.parametrize("edges", GRAPHS.values(), ids=GRAPHS.keys())
def test_code_space_spectrum_is_the_spectrum_on_the_stabilizer_code_space(edges):
    # the 4-cycle's stabilizer is real; K4's three have imaginary entries; the
    # tree has none, so its code space is the whole register
    g = InteractionGraph(4, edges)
    stabs = loop_stabilizers(g)
    r = g.num_qubits - g.num_vertices + len(g.connected_components())
    assert len(stabs) == r and symplectic_rank(stabs.x, stabs.z) == r
    assert squares_to_identity(stabs.x, stabs.z, stabs.coefficients)
    h = term_images(g, seed=len(edges))
    assert commute((h.x[:, None], h.z[:, None]), (stabs.x, stabs.z)).all()
    evals = code_space_spectrum(h, stabs)
    assert len(evals) == 2 ** (g.num_qubits - r)
    # reference: h on an orthonormal basis of the range of prod_k (I + S_k) / 2
    eye = np.eye(2**g.num_qubits)
    rows = [slice(k, k + 1) for k in range(r)]
    s = [
        dense_matrix(PauliOperatorSum(stabs.x[k], stabs.z[k], stabs.coefficients[k], g.num_qubits))
        for k in rows
    ]
    proj = reduce(np.matmul, [(eye + m) / 2 for m in s], eye)
    assert np.allclose(proj @ proj, proj, atol=1e-12) and np.allclose(proj, proj.conj().T, atol=1e-12)
    weights, vectors = np.linalg.eigh(proj)
    basis = vectors[:, weights > 0.5]
    assert basis.shape[1] == len(evals)
    assert all(np.allclose(m @ basis, basis, atol=1e-9) for m in s)
    expected = np.linalg.eigvalsh(basis.conj().T @ dense_matrix(h) @ basis)
    assert np.allclose(evals, expected, atol=1e-10)


def test_code_space_spectrum_rejects_rows_that_anticommute_with_a_stabilizer():
    g = InteractionGraph(4, CYCLE)
    stabs = loop_stabilizers(g)  # X on every edge qubit
    z0 = PauliOperatorSum(pack_masks([0], 4), pack_masks([1], 4), np.ones(1, complex), 4)
    with pytest.raises(RuntimeError, match="anticommutes"):
        code_space_spectrum(z0, stabs)
    both = PauliOperatorSum(
        np.concatenate([stabs.x, z0.x]), np.concatenate([stabs.z, z0.z]), np.ones(2, complex), 4
    )
    with pytest.raises(RuntimeError, match="anticommutes"):
        code_space_spectrum(term_images(g, seed=0), both)


def test_sector_spectra_match_zero_for_exact_hamiltonian():
    h = random_spatial_hamiltonian(2, 77)
    assert sector_spectra_match(h) < 1e-9


def test_size_guard():
    with pytest.raises(SizeError):
        fock_ladder_operators(40)
    with pytest.raises(SizeError):
        dense_matrix(PauliOperatorSum(pack_masks([1], 13), pack_masks([0], 13), np.ones(1, complex), 13))
