"""Edge/vertex operator algebra of the superfast encoding and loop
stabilizers."""

import numpy as np
import pytest

from fermap.fermion import ClassifiedTerms, Kind, blocked_modes, classify_spatial
from fermap.lattice import LatticeSpec
from fermap.oracle import codespace_projector, sector_spectra_match
from fermap.ortho import orthonormal_integrals
from fermap.pauli import NonHermitianError, commute, num_words
from fermap.sampling import random_spatial_hamiltonian
from fermap.superfast import (
    InteractionGraph,
    MissingEdgeError,
    add_parity_ancilla,
    build_interaction_graph,
    loop_stabilizers,
    ose_transform_terms,
    pair_partition,
)
from test_pauli import pack_masks, product


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
        out.append(InteractionGraph(n, edges[:12]))
    return out


def complete_graphs(m, copies, isolated=0):
    """``copies`` disjoint copies of K_m, then ``isolated`` lone vertices."""
    k = [(p, q) for q in range(m) for p in range(q)]
    edges = [(p + c * m, q + c * m) for c in range(copies) for p, q in k]
    return InteractionGraph(copies * m + isolated, edges)


# several words per mask: 2 x K12 has 132 edge qubits, 3 x K8 84
MULTI_WORD = [complete_graphs(12, 2, isolated=1), complete_graphs(8, 3)]


def reference_masks(g):
    """B_i, and A_pr's X and Z parts, as packed Python-integer masks: B_i sums
    the edges at i, A_pr's Z the edges (p, l) with l < r and (r, s) with s < p."""
    edges = g.edges.tolist()

    def at(end, below):  # the edges at ``end`` whose other end is below ``below``
        return sum(1 << k for k, e in enumerate(edges) if end in e and sum(e) - end < below)

    vertex = [at(i, g.num_vertices) for i in range(g.num_vertices)]
    edge_x, edge_z = [1 << k for k in range(len(edges))], [at(p, r) + at(r, p) for p, r in edges]
    return [pack_masks(m, g.num_qubits) for m in (vertex, edge_x, edge_z)]


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


def graph_id(g):
    return f"V{g.num_vertices}E{g.num_qubits}"


@pytest.mark.parametrize("g", random_graphs(50) + MULTI_WORD, ids=graph_id)
def test_tables_match_integer_masks(g):
    for table, reference in zip((g.vertex, g.edge_x, g.edge_z), reference_masks(g)):
        assert np.array_equal(table, reference)


def test_graph_canonicalizes_and_validates_edges():
    g = InteractionGraph(4, [(2, 3), (0, 1), (1, 3), (0, 2), (3, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]] and g.lookup[3, 2] == 3
    assert g.spanning_forest().tolist() == [-1, 0, 0, 1]  # 1 is dequeued before 2
    assert [len(c) for c in MULTI_WORD[0].connected_components()] == [12, 12, 1]
    for bad in ([(1, 1)], [(0, 4)], [(-1, 2)]):
        with pytest.raises(ValueError):
            InteractionGraph(4, bad)


@pytest.mark.parametrize("seed", range(20))
def test_graph_edges_are_the_sorted_unique_pairs(seed):
    # repeated and reversed pairs, sometimes none, over up to 40 vertices
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    ends = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    ends = np.concatenate([ends, ends[: len(ends) // 3, ::-1]])
    edges = InteractionGraph(n, ends).edges
    expected = np.unique(np.sort(ends, axis=1), axis=0).reshape(-1, 2)
    assert edges.dtype == np.intp and np.array_equal(edges, expected)


@pytest.mark.parametrize("g", random_graphs(50) + MULTI_WORD, ids=graph_id)
def test_operator_algebra_relations(g):
    # exact symplectic checks of the defining relations on the packed B_i, A_pq
    b = (np.zeros_like(g.vertex), g.vertex, np.ones(len(g.vertex)))
    a = (g.edge_x, g.edge_z, np.ones(len(g.edge_x)))
    assert squares_to_identity(*b) and squares_to_identity(*a)
    assert commute((b[0][:, None], b[1][:, None]), b[:2]).all()
    ends = g.edges
    p, q = ends.T
    # antisymmetry in the vertex order
    for (x, z, c), sign in ((g.a(p, q)[0], 1.0), (g.a(q, p)[0], -1.0)):
        assert (x[:, 0] == a[0]).all() and (z[:, 0] == a[1]).all() and (c == sign).all()
    # A_pq anticommutes with B_i exactly when i is an end of pq
    incident = (ends[:, :, None] == np.arange(g.num_vertices)).any(axis=1)
    assert (commute((a[0][:, None], a[1][:, None]), b[:2]) == ~incident).all()
    # two edge operators anticommute exactly when their edges share one end
    shared = (ends[:, None, :, None] == ends[None, :, None, :]).any(axis=3).sum(axis=2)
    assert (commute((a[0][:, None], a[1][:, None]), a[:2]) == (shared != 1)).all()


@pytest.mark.parametrize("g", random_graphs(50, seed=99) + MULTI_WORD, ids=graph_id)
def test_loop_stabilizers_commute_with_all_operators(g):
    stabs = loop_stabilizers(g)
    expected_cycles = g.num_qubits - g.num_vertices + len(g.connected_components())
    assert len(stabs) == expected_cycles
    ops_x = np.concatenate([np.zeros_like(g.vertex), g.edge_x])
    ops_z = np.concatenate([g.vertex, g.edge_z])
    assert squares_to_identity(stabs.x, stabs.z, stabs.coefficients)
    assert commute((stabs.x[:, None], stabs.z[:, None]), (ops_x, ops_z)).all()


def stabilizers_by_product(g):
    """The loop stabilizers through ``product``, one cycle at a time: i^p times
    the edge operators around the cycle that each non-tree edge closes in the
    spanning forest, from one end up to the lowest common ancestor and down
    to the other end."""
    parent = g.spanning_forest().tolist()

    def to_root(w):
        path = [w]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    words = num_words(g.num_qubits)
    rows = [(np.zeros((0, words), np.uint64), np.zeros((0, words), np.uint64), np.zeros(0, complex))]
    for u, v in g.edges.tolist():
        if parent[u] == v or parent[v] == u:
            continue
        pu, pv = to_root(u), to_root(v)
        top = next(w for w in pu if w in pv)
        cycle = pu[: pu.index(top) + 1] + pv[: pv.index(top)][::-1]
        x, z = np.zeros((2, 1, words), np.uint64)
        c = np.array([1j ** len(cycle)])
        for p, q in zip(cycle, cycle[1:] + cycle[:1]):
            (ax, az, ac), _ = g.a(np.array([p]), np.array([q]))
            x, z, c = product((x, z, c), (ax[:, 0], az[:, 0], ac[:, 0]))
        rows.append((x, z, c))
    x, z, c = (np.concatenate(r) for r in zip(*rows))
    assert not c.imag.any()
    return x, z, c.real.astype(complex)


def assert_stabilizers_equal_the_product_chain(g):
    stabs = loop_stabilizers(g)
    for got, expected in zip((stabs.x, stabs.z, stabs.coefficients), stabilizers_by_product(g)):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ancilla", [False, True])
@pytest.mark.parametrize("g", random_graphs(30, seed=7) + MULTI_WORD, ids=graph_id)
def test_loop_stabilizers_equal_the_product_chain(g, ancilla):
    # the ancilla's edge closes no cycle, but moves the qubits of the edges sorted after it
    assert_stabilizers_equal_the_product_chain(add_parity_ancilla(g, 0) if ancilla else g)


@pytest.mark.parametrize(
    "dim, side, exponent", [(1, 10, 1.0), (2, 4, 1.0), (3, 2, 1.0), (3, 4, 8.75)]
)
def test_lattice_loop_stabilizers_equal_the_product_chain(dim, side, exponent):
    # bundled-table cells: 90, 240, 56 and 288 edge qubits, up to five words
    h1, eri, _ = orthonormal_integrals(LatticeSpec(dim, side, exponent), "aos")
    g = build_interaction_graph(classify_spatial(h1, eri, cutoff=1e-7), 2 * len(h1))
    assert_stabilizers_equal_the_product_chain(g)


def test_codespace_dimension_matches_cycle_count():
    g = InteractionGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
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
    g = InteractionGraph(3, [(0, 1), (1, 2)])
    g2 = add_parity_ancilla(g, 1)
    assert g2.num_vertices == 4
    assert g2.lookup[1, 3] == 2


def test_missing_edge_raises():
    g = InteractionGraph(3, [(0, 1)])
    hop = ClassifiedTerms({Kind.EXCITATION: (np.array([[0, 2]]), np.ones(1))})
    with pytest.raises(MissingEdgeError):
        ose_transform_terms(hop, g)


def test_non_hermitian_terms_raise():
    g = InteractionGraph(2, [(0, 1)])
    with pytest.raises(NonHermitianError):
        ose_transform_terms(ClassifiedTerms({Kind.NUMBER: (np.array([[0]]), np.array([0.5j]))}), g)
