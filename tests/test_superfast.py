"""Edge/vertex operator algebra of the superfast encoding and loop
stabilizers."""

import numpy as np
import pytest

from fermap.fermion import ClassifiedTerm, Kind, classify_spatial
from fermap.lattice import LatticeSpec, lattice_integrals
from fermap.oracle import codespace_projector, sector_spectra_match
from fermap.ortho import rotate_integrals, symmetric_orthogonalizer
from fermap.pauli import NonHermitianError, PauliTerm, multiply
from fermap.sampling import random_connected_graph_edges, random_spatial_hamiltonian
from fermap.superfast import (
    InteractionGraph,
    add_parity_ancilla,
    build_interaction_graph,
    edge_operator,
    loop_stabilizers,
    ose_transform_terms,
    pair_partition,
    spin_table,
    symplectic_rank,
    vertex_operator,
)


def random_graphs(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        edges = sorted(random_connected_graph_edges(n, max_extra_edges=4, rng=rng))
        out.append(InteractionGraph.from_edges(n, edges[:12]))
    return out


def anticommutes(a: PauliTerm, b: PauliTerm) -> bool:
    return not a.commutes_with(b)


@pytest.mark.parametrize("g", random_graphs(50), ids=lambda g: f"V{g.num_vertices}E{g.num_qubits}")
def test_operator_algebra_relations(g):
    # exact symplectic checks of the defining relations
    ident = PauliTerm.identity(g.num_qubits, 1.0)
    bs = [vertex_operator(i, g) for i in range(g.num_vertices)]
    for i, bi in enumerate(bs):
        sq = multiply(bi, bi)
        assert sq.x == sq.z == 0 and sq.coefficient == 1.0
        for bj in bs[i + 1 :]:
            assert bi.commutes_with(bj)
    for p, q in g.edges:
        a = edge_operator(p, q, g)
        sq = multiply(a, a)
        assert sq.x == sq.z == 0 and sq.coefficient == 1.0
        # antisymmetry in the vertex order
        rev = edge_operator(q, p, g)
        assert rev.x == a.x and rev.z == a.z and rev.coefficient == -a.coefficient
        for i, bi in enumerate(bs):
            if i in (p, q):
                assert anticommutes(a, bi)
            else:
                assert a.commutes_with(bi)
    for e1 in g.edges:
        for e2 in g.edges:
            a1 = edge_operator(*e1, g)
            a2 = edge_operator(*e2, g)
            shared = len(set(e1) & set(e2))
            if shared == 1:
                assert anticommutes(a1, a2)
            else:
                assert a1.commutes_with(a2)
    assert ident.commutes_with(ident)


@pytest.mark.parametrize("g", random_graphs(50, seed=99), ids=lambda g: f"V{g.num_vertices}E{g.num_qubits}")
def test_loop_stabilizers_commute_with_all_operators(g):
    stabs = loop_stabilizers(g)
    expected_cycles = g.num_qubits - g.num_vertices + len(g.connected_components())
    assert len(stabs) == expected_cycles
    ops = [vertex_operator(i, g) for i in range(g.num_vertices)] + [
        edge_operator(p, q, g) for p, q in g.edges
    ]
    for s in stabs.stabilizers:
        sq = multiply(s, s)
        assert sq.x == sq.z == 0 and sq.coefficient == 1.0
        for op in ops:
            assert s.commutes_with(op)


@pytest.mark.parametrize("side,exponent", [(4, 8.75), (6, 8.75), (4, 5.00)])
def test_loop_stabilizers_commute_with_lattice_hamiltonian(side, exponent):
    raw = lattice_integrals(LatticeSpec(1, side, exponent))
    h1, eri, const = rotate_integrals(raw, symmetric_orthogonalizer(raw.overlap))
    terms = classify_spatial(h1, eri, cutoff=1e-7)
    g = build_interaction_graph(terms, 2 * side)
    if g.num_qubits > 12:
        pytest.skip("register too large for this check")
    h = ose_transform_terms(terms, g, constant=const, eps=1e-7)
    for s in loop_stabilizers(g).stabilizers:
        for t in h.terms:
            assert s.commutes_with(t)


def test_codespace_dimension_matches_cycle_count():
    g = InteractionGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    stabs = loop_stabilizers(g)
    proj = codespace_projector(stabs, g.num_qubits)
    assert np.trace(proj).real == pytest.approx(2 ** (g.num_qubits - len(stabs)))
    assert symplectic_rank(stabs.stabilizers) == len(stabs)


def test_pair_partition_spin_sectors():
    spin = spin_table(8)
    # mixed spin: same-spin indices end up paired together
    first, second, sign = pair_partition([(0, 4, 5, 1), (0, 5, 4, 1), (2, 6, 7, 3)], spin)
    assert (spin[first[:, 0]] == spin[first[:, 1]]).all()
    assert (spin[second[:, 0]] == spin[second[:, 1]]).all()
    assert set(sign) <= {-1, +1}
    # all same spin: outermost creation with outermost annihilation
    first, second, sign = pair_partition([(0, 1, 2, 3)], spin)
    assert first.tolist() == [[0, 3]] and second.tolist() == [[1, 2]] and sign.tolist() == [1]


@pytest.mark.parametrize("seed", range(4))
def test_sector_spectra_match_random_hamiltonians(seed):
    h = random_spatial_hamiltonian(2, seed)
    dev = sector_spectra_match(h)
    assert dev < 1e-9


def test_parity_ancilla_spectra():
    h = random_spatial_hamiltonian(2, 11)
    dev = sector_spectra_match(h, parity_ancilla_mode=0)
    assert dev < 1e-8


def test_add_parity_ancilla_extends_graph():
    g = InteractionGraph.from_edges(3, [(0, 1), (1, 2)])
    g2, pair = add_parity_ancilla(g, 1)
    assert g2.num_vertices == 4
    assert (1, 3) in g2.edge_index
    assert pair.num_qubits == g2.num_qubits


def test_missing_edge_raises():
    from fermap.superfast import MissingEdgeError

    g = InteractionGraph.from_edges(3, [(0, 1)])
    with pytest.raises(MissingEdgeError):
        edge_operator(0, 2, g)


def test_non_hermitian_terms_raise():
    g = InteractionGraph.from_edges(2, [(0, 1)])
    with pytest.raises(NonHermitianError):
        ose_transform_terms([ClassifiedTerm(Kind.NUMBER, (0,), 0.5j)], g)
