"""Superfast encoding: the interaction graph with its edge/vertex operator
tables, term mapping, loop stabilizers, and the odd-parity ancilla vertex.

Qubits are identified with graph edges: qubit e is row e of the sorted edge
array.  A vertex operator B_i is a product of Z on every edge incident to i;
an edge operator A_pq (p < q) is X on edge {p,q} dressed with Z factors on
neighboring edges, and A_qp = -A_pq.  One ``[n, n]`` edge lookup is the
graph's only adjacency: the packed tables and the breadth-first spanning
forest are both read from it.

The encoding's parts for ``fermion.map_terms``: n_j's Z word is B_j, a hop
is an edge operator times two vertex operators, and a double excitation two
edge operators times eight products of vertex operators.  A hop's product,
and each step of a loop stabilizer's product around its cycle, is a
``pauli.outer`` told the edges of the edge operators' X bits, so its phases
are the Z bits at those edges, not bit counts over whole rows.  A double
excitation hands over its two edges, its X support, and the slot and +/-1/8
coefficient of each B-subset string there, read from one table by its
pairing; its words are built once per summed string.
"""

from __future__ import annotations

from collections import deque
from functools import cache, partial
from typing import List, Tuple

import numpy as np

from .fermion import SLOT_FLAGS, ClassifiedTerms, Kind, blocked_modes, map_terms
from .pauli import Packed, PauliOperatorSum, num_words, outer, set_bits, z_rows


class MissingEdgeError(KeyError):
    """Raised when an edge operator is requested for a pair not in the graph."""


class AlgebraViolationError(RuntimeError):
    """Raised when a loop stabilizer fails its exactness checks."""


class InteractionGraph:
    """A graph on ``num_vertices`` modes and its packed operator tables.

    ``edges`` is the ``[Q, 2]`` array of distinct edges (p, q), p < q, sorted;
    ``lookup[p, q] = lookup[q, p]`` is the index of edge {p,q}, or -1 where
    there is none.  ``vertex[i]`` holds the Z words of B_i, and ``edge_x[e]``,
    ``edge_z[e]`` those of A_pq for edge e = (p, q).
    """

    def __init__(self, num_vertices: int, edges):
        ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if (ends[:, 0] == ends[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        if ((ends < 0) | (ends >= num_vertices)).any():
            raise ValueError("edge endpoint out of range")
        self.num_vertices = num_vertices
        # distinct (min, max) pairs in row-major order: the sorted unique rows
        adjacent = np.zeros((num_vertices, num_vertices), dtype=bool)
        adjacent[ends.min(axis=1), ends.max(axis=1)] = True
        self.edges = np.argwhere(adjacent)
        self.num_qubits = q = len(self.edges)
        p, r = self.edges.T
        e = np.arange(q)
        self.lookup = np.full((num_vertices, num_vertices), -1, dtype=np.intp)
        self.lookup[p, r] = self.lookup[r, p] = e
        # B_i: Z on every edge incident to i
        self.vertex = set_bits(self.edges.ravel(), np.repeat(e, 2), num_vertices, q)
        # A_pr: X on edge e; Z on the edges (p, l) with l < r and (r, s) with s < p
        self.edge_x = set_bits(e, e, q, q)
        at_p, at_r, vertices = self.lookup[p], self.lookup[r], np.arange(num_vertices)
        low_p = (at_p >= 0) & (vertices < r[:, None])
        low_r = (at_r >= 0) & (vertices < p[:, None])
        rows = np.concatenate([np.nonzero(low_p)[0], np.nonzero(low_r)[0]])
        self.edge_z = set_bits(rows, np.concatenate([at_p[low_p], at_r[low_r]]), q, q)

    def edge(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The index of edge {p, q} for every pair; MissingEdgeError where
        there is none."""
        e = self.lookup[p, q]
        if (e < 0).any():
            k = int(np.argmax(e < 0))
            raise MissingEdgeError(f"no edge between modes {p[k]} and {q[k]}")
        return e

    def a(self, p: np.ndarray, q: np.ndarray) -> Tuple[Packed, np.ndarray]:
        """A_pq for every pair, one row per term, and the index of its edge,
        the qubit of its X bit."""
        e = self.edge(p, q)
        c = np.where(p > q, -1.0, 1.0)[:, None]  # A_qp = -A_pq
        return (self.edge_x.take(e, axis=0)[:, None], self.edge_z.take(e, axis=0)[:, None], c), e

    def spanning_forest(self) -> np.ndarray:
        """Parent of every vertex in a breadth-first spanning forest, -1 at the
        roots.  Each tree is rooted at its lowest vertex, and every vertex
        visits its neighbours in ascending order."""
        parent = np.full(self.num_vertices, -1, dtype=np.intp)
        seen = np.zeros(self.num_vertices, dtype=bool)
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            while queue:
                v = queue.popleft()
                new = np.flatnonzero((self.lookup[v] >= 0) & ~seen)
                seen[new], parent[new] = True, v
                queue.extend(new.tolist())
        return parent

    def connected_components(self) -> List[List[int]]:
        """Vertex lists of the components, each sorted, ordered by lowest vertex."""
        parent = self.spanning_forest()
        root = np.arange(self.num_vertices)
        while (parent[root] >= 0).any():
            root = np.where(parent[root] >= 0, parent[root], root)
        return [np.flatnonzero(root == r).tolist() for r in np.flatnonzero(parent < 0)]


def pair_partition(
    indices: np.ndarray, spins: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition double-excitation index rows ``[n, 4]`` into two edge pairs.

    ``spins[v]`` is the spin sector of vertex v.  Same-spin indices are paired
    together so that every edge stays inside one spin sector; when all four
    share a spin, each creation index is paired with an annihilation index,
    outermost with outermost.  Returns the two pairs ``[n, 2]`` in operator
    order plus the Majorana reordering sign of each pairing (-1 for the
    crossing pairing, +1 otherwise); signs verified against a dense
    Majorana-product oracle.
    """
    i, j, k, l = np.asarray(indices, dtype=np.intp).reshape(-1, 4).T
    cross = ((spins[i] != spins[j]) & (spins[i] == spins[k]))[:, None]
    first = np.where(cross, np.stack([i, k], axis=1), np.stack([i, l], axis=1))
    second = np.where(cross, np.stack([j, l], axis=1), np.stack([j, k], axis=1))
    return first, second, np.where(cross[:, 0], -1.0, 1.0)


def build_interaction_graph(terms: ClassifiedTerms, num_modes: int) -> InteractionGraph:
    """Edge set = union of the edges each term's encoded image requires.

    Spins follow the blocked mode convention (``fermion.blocked_modes``).
    Number and Coulomb/exchange terms need only vertex operators.
    """
    spins = blocked_modes(num_modes)[1]
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for kind, (idx, _) in terms.by_kind.items():
        if kind is Kind.EXCITATION:
            pairs.append(idx)
        elif kind is Kind.NUMBER_EXCITATION:
            pairs.append(idx[:, [0, 2]])
        elif kind is Kind.DOUBLE_EXCITATION:
            pairs.extend(pair_partition(idx, spins)[:2])
    return InteractionGraph(num_modes, np.concatenate(pairs))


def _hops(g: InteractionGraph, i: np.ndarray, j: np.ndarray) -> Tuple[Packed, Tuple[np.ndarray]]:
    """a_i^ a_j + a_j^ a_i  ->  -i (A_ij B_j + B_i A_ij) / 2, with B_i A_ij = -A_ij B_i,
    and the qubit of its X bit, edge ij."""
    a, e = g.a(i, j)
    b = z_rows(g.vertex.take(np.stack([j, i], axis=1), axis=0), (-0.5j, 0.5j))
    return outer(a, b, (e,), ()), (e,)


# B-subset signs for the double-excitation expansion, keyed by the subset of
# operator positions (0,1 = creations, 2,3 = annihilations) carrying a vertex
# operator: -1 for the empty set, the creation pair, the annihilation pair and
# the full set; +1 for every mixed pair.
_DOUBLE_B_SUBSETS = (
    ((), -1.0),
    ((0, 1), -1.0),
    ((0, 2), +1.0),
    ((0, 3), +1.0),
    ((1, 2), +1.0),
    ((1, 3), +1.0),
    ((2, 3), -1.0),
    ((0, 1, 2, 3), -1.0),
)


@cache
def _double_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Slots (``fermion.SLOT_FLAGS``) and unit coefficients of the eight
    B-subset strings of a double excitation, by a code of its pairing: bit 0
    set for the crossing pairing, bit 1 where the first pair's edge is the
    higher, bits 2 and 3 where the first or second pair runs from its higher
    vertex to its lower.

    The term is pair_sign A_1 A_2 B_S / 8 summed over the subsets S of
    ``_DOUBLE_B_SUBSETS``.  Its support's four vertices are ordered as the
    lower edge's ends, then the higher edge's, each ascending, and a slot
    flags S over them.  The edges of two pairs of distinct modes share no
    vertex, so neither edge operator has a Z bit on the other's edge: A_1 A_2
    carries no phase, and ``outer``'s rule gives B_S a factor -i for each
    edge on which S has one end, which an even S has on both edges or on
    neither.  With A_qp = -A_pq, every coefficient is +/-1/8."""
    slots, units = np.zeros((16, 8), dtype=np.intp), np.zeros((16, 8))
    for code in range(16):
        cross, swap, flip1, flip2 = (code >> b & 1 for b in range(4))
        first, second = ((0, 2), (1, 3)) if cross else ((0, 3), (1, 2))  # operator positions
        place = {}
        for (p, q), lowest, flip in ((first, 2 * swap, flip1), (second, 2 - 2 * swap, flip2)):
            place[p], place[q] = lowest + flip, lowest + 1 - flip
        for t, (subset, sign) in enumerate(_DOUBLE_B_SUBSETS):
            split = len(set(subset) & set(first)) % 2
            slots[code, t] = sum(1 << place[r] for r in subset) // 2
            units[code, t] = sign * (-1) ** (cross + flip1 + flip2 + split) / 8
    return slots, units


def _double_excitations(
    g: InteractionGraph, spins: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """a_i^ a_j^ a_k a_l + h.c. for every row of ``idx``: the key of its
    two edges, the X support, as lower * Q + higher, and the slots and
    coefficients of its eight strings (``_double_tables``)."""
    first, second, pair_sign = pair_partition(idx, spins)
    e1, e2 = g.edge(*first.T), g.edge(*second.T)
    code = (pair_sign < 0) + 2 * (e1 > e2) + 4 * (first[:, 0] > first[:, 1])
    code += 8 * (second[:, 0] > second[:, 1])
    support = np.minimum(e1, e2) * g.num_qubits + np.maximum(e1, e2)
    slots, units = _double_tables()
    return support, slots[code], units[code]


def _double_words(g: InteractionGraph, supports: np.ndarray) -> Tuple[np.ndarray, ...]:
    """For every support, the words of A_1 A_2 on its two edges, its four
    vertices in slot order and the vertex words B_v, which flip Z."""
    edges = supports // g.num_qubits, supports % g.num_qubits
    x = g.edge_x.take(edges[0], axis=0) ^ g.edge_x.take(edges[1], axis=0)
    z = g.edge_z.take(edges[0], axis=0) ^ g.edge_z.take(edges[1], axis=0)
    return x, z, np.concatenate([g.edges.take(e, axis=0) for e in edges], axis=1), g.vertex


def ose_transform_terms(
    terms: ClassifiedTerms,
    g: InteractionGraph,
    constant: float = 0.0,
    eps: float = 1e-12,
) -> PauliOperatorSum:
    """Map classified terms onto the edge-qubit register; Q equals |E|.

    Vertex spins follow the blocked mode convention, whose boundary at
    ``num_vertices // 2`` a trailing ancilla vertex does not shift.  Like
    terms are merged and |c| < eps dropped; raises NonHermitianError when a
    merged coefficient has |imag| > eps.
    """
    double = partial(_double_excitations, g, blocked_modes(g.num_vertices)[1])
    words = partial(_double_words, g)
    return map_terms(terms, g.vertex, partial(_hops, g), double, words, g.num_qubits, constant, eps)


def loop_stabilizers(g: InteractionGraph) -> PauliOperatorSum:
    """One stabilizer per independent cycle: i^p times the edge-operator
    product around each fundamental cycle of a breadth-first spanning forest,
    in the order of the non-tree edges that close the cycles.  Each product
    must come out as a real +/-1 times a Pauli string.
    """
    parent = g.spanning_forest()
    p, q = g.edges.T
    closing = (parent[p] != q) & (parent[q] != p)
    up = parent.tolist()

    def path_to_root(w: int) -> List[int]:
        path = [w]
        while up[path[-1]] >= 0:
            path.append(up[path[-1]])
        return path

    cycles = []
    for u, v in g.edges[closing].tolist():
        pu, pv = path_to_root(u), path_to_root(v)
        anc = {x: i for i, x in enumerate(pu)}
        j = next(j for j, x in enumerate(pv) if x in anc)
        # [u, ..., common ancestor, ..., v]; edge (v, u) closes it
        cycles.append(pu[: anc[pv[j]] + 1] + pv[:j][::-1])

    # the edges (c[s], c[s+1 mod p]) around each cycle, multiplied in one
    # batch per cycle length: the running product has X bits on the cycle's
    # earlier edges, which differ from each other and from the next
    x = np.zeros((len(cycles), num_words(g.num_qubits)), np.uint64)
    z, c = np.zeros_like(x), np.zeros(len(cycles), complex)
    by_length = {}
    for k, cycle in enumerate(cycles):
        by_length.setdefault(len(cycle), []).append(k)
    for length, live in by_length.items():
        ends = np.array([cycles[k] for k in live])
        rows, edges = z_rows(np.zeros((len(live), 1, x.shape[1]), np.uint64), 1j**length), ()
        for u, v in zip(ends.T, np.roll(ends, -1, axis=1).T):
            a, e = g.a(u, v)
            rows, edges = outer(rows, a, edges, (e,)), edges + (e,)
        x[live], z[live], c[live] = (r[:, 0] for r in rows)
    bad = (np.abs(np.abs(c) - 1.0) > 1e-12) | (np.abs(c.imag) > 1e-12)
    if bad.any():
        raise AlgebraViolationError(f"loop product has coefficient {c[bad][0]}")
    return PauliOperatorSum(x, z, c.real.astype(complex), g.num_qubits)


def add_parity_ancilla(g: InteractionGraph, k: int) -> InteractionGraph:
    """The graph with an ancilla vertex s appended and the edge {k, s}."""
    if not 0 <= k < g.num_vertices:
        raise ValueError(f"vertex {k} out of range")
    s = g.num_vertices
    return InteractionGraph(s + 1, np.vstack([g.edges, [[k, s]]]))
