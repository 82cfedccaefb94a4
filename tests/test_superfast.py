"""Edge/vertex operator algebra of the superfast encoding and loop
stabilizers."""

import numpy as np
import pytest

from fermap.fermion import ClassifiedTerm, Kind, blocked_modes
from fermap.oracle import codespace_projector, sector_spectra_match
from fermap.pauli import NonHermitianError, commute, product
from fermap.sampling import random_spatial_hamiltonian
from fermap.superfast import (
    InteractionGraph,
    MissingEdgeError,
    _Tables,
    add_parity_ancilla,
    loop_stabilizers,
    ose_transform_terms,
    pair_partition,
)


def random_connected_graph_edges(num_vertices, max_extra_edges, rng):
    """Edge set of a random connected graph: a random spanning tree plus up
    to ``max_extra_edges`` additional distinct edges."""
    edges = set()
    for v in range(1, num_vertices):
        edges.add((int(rng.integers(0, v)), v))
    extra = int(rng.integers(0, max_extra_edges + 1))
    for _ in range(extra):
        p, q = rng.choice(num_vertices, size=2, replace=False)
        edges.add((int(min(p, q)), int(max(p, q))))
    return edges


def random_graphs(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        edges = sorted(random_connected_graph_edges(n, max_extra_edges=4, rng=rng))
        out.append(InteractionGraph.from_edges(n, edges[:12]))
    return out


def symplectic_rank(x: np.ndarray, z: np.ndarray) -> int:
    """GF(2) rank of the packed (x|z) rows, by elimination on the words."""
    rows = np.concatenate([x, z], axis=1)
    rank = 0
    for word in range(rows.shape[1]):
        for bit in range(64):
            has = (rows[rank:, word] >> np.uint64(bit)) & np.uint64(1) == 1
            if not has.any():
                continue
            pivot, *others = rank + np.flatnonzero(has)
            rows[others] ^= rows[pivot]
            rows[[rank, pivot]] = rows[[pivot, rank]]
            rank += 1
    return rank


def squares_to_identity(x, z, c) -> bool:
    sx, sz, sc = product((x, z, c), (x, z, c))
    return not sx.any() and not sz.any() and (sc == 1.0).all()


@pytest.mark.parametrize("g", random_graphs(50), ids=lambda g: f"V{g.num_vertices}E{g.num_qubits}")
def test_operator_algebra_relations(g):
    # exact symplectic checks of the defining relations on the packed B_i, A_pq
    t = _Tables(g)
    b = (np.zeros_like(t.vertex), t.vertex, np.ones(len(t.vertex)))
    a = (t.edge_x, t.edge_z, np.ones(len(t.edge_x)))
    assert squares_to_identity(*b) and squares_to_identity(*a)
    assert commute((b[0][:, None], b[1][:, None]), b[:2]).all()
    ends = np.array(g.edges).reshape(-1, 2)
    p, q = ends.T
    # antisymmetry in the vertex order
    for (x, z, c), sign in ((t.a(p, q), 1.0), (t.a(q, p), -1.0)):
        assert (x[:, 0] == a[0]).all() and (z[:, 0] == a[1]).all() and (c == sign).all()
    # A_pq anticommutes with B_i exactly when i is an end of pq
    incident = (ends[:, :, None] == np.arange(g.num_vertices)).any(axis=1)
    assert (commute((a[0][:, None], a[1][:, None]), b[:2]) == ~incident).all()
    # two edge operators anticommute exactly when their edges share one end
    shared = (ends[:, None, :, None] == ends[None, :, None, :]).any(axis=3).sum(axis=2)
    assert (commute((a[0][:, None], a[1][:, None]), a[:2]) == (shared != 1)).all()


@pytest.mark.parametrize("g", random_graphs(50, seed=99), ids=lambda g: f"V{g.num_vertices}E{g.num_qubits}")
def test_loop_stabilizers_commute_with_all_operators(g):
    stabs = loop_stabilizers(g)
    expected_cycles = g.num_qubits - g.num_vertices + len(g.connected_components())
    assert len(stabs) == expected_cycles
    t = _Tables(g)
    ops_x = np.concatenate([np.zeros_like(t.vertex), t.edge_x])
    ops_z = np.concatenate([t.vertex, t.edge_z])
    assert squares_to_identity(stabs.x, stabs.z, stabs.coefficients)
    assert commute((stabs.x[:, None], stabs.z[:, None]), (ops_x, ops_z)).all()


def test_codespace_dimension_matches_cycle_count():
    g = InteractionGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    stabs = loop_stabilizers(g)
    proj = codespace_projector(stabs)
    assert np.trace(proj).real == pytest.approx(2 ** (g.num_qubits - len(stabs)))
    assert symplectic_rank(stabs.x, stabs.z) == len(stabs)


def test_pair_partition_spin_sectors():
    spin = blocked_modes(8)[1]
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
    g = InteractionGraph.from_edges(3, [(0, 1)])
    with pytest.raises(MissingEdgeError):
        ose_transform_terms([ClassifiedTerm(Kind.EXCITATION, (0, 2), 1.0)], g)


def test_non_hermitian_terms_raise():
    g = InteractionGraph.from_edges(2, [(0, 1)])
    with pytest.raises(NonHermitianError):
        ose_transform_terms([ClassifiedTerm(Kind.NUMBER, (0,), 0.5j)], g)
