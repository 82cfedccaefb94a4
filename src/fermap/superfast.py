"""Superfast encoding: interaction graph, edge/vertex operators, term mapping,
loop stabilizers, and the odd-parity ancilla construction.

Qubits are identified with graph edges.  A vertex operator B_i is a product of
Z on every edge incident to i; an edge operator A_pq (p < q) is X on edge
{p,q} dressed with Z factors on neighboring edges, and A_qp = -A_pq.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fermion import ClassifiedTerm, ClassifiedTerms, Kind, blocked_modes
from .pauli import (
    Packed,
    PauliOperatorSum,
    PauliTerm,
    half_one_minus,
    merge_images,
    multiply,
    outer,
    pack_masks,
    z_rows,
)


class MissingEdgeError(KeyError):
    """Raised when an edge operator is requested for a pair not in the graph."""


class AlgebraViolationError(RuntimeError):
    """Raised when a loop stabilizer fails its exactness checks."""


@dataclass(frozen=True)
class InteractionGraph:
    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]  # canonical (p, q) with p < q, sorted
    edge_index: Dict[Tuple[int, int], int]
    neighbors: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Tuple[int, int]]
    ) -> "InteractionGraph":
        canon = set()
        for p, q in edges:
            if p == q:
                raise ValueError("self-loops are not allowed")
            if not (0 <= p < num_vertices and 0 <= q < num_vertices):
                raise ValueError("edge endpoint out of range")
            canon.add((min(p, q), max(p, q)))
        ordered = tuple(sorted(canon))
        index = {e: i for i, e in enumerate(ordered)}
        nbrs: List[List[int]] = [[] for _ in range(num_vertices)]
        for p, q in ordered:
            nbrs[p].append(q)
            nbrs[q].append(p)
        return cls(num_vertices, ordered, index, tuple(tuple(sorted(n)) for n in nbrs))

    @property
    def num_qubits(self) -> int:
        return len(self.edges)

    def qubit_of(self, p: int, q: int) -> int:
        try:
            return self.edge_index[(min(p, q), max(p, q))]
        except KeyError:
            raise MissingEdgeError(f"no edge between modes {p} and {q}") from None

    def connected_components(self) -> List[List[int]]:
        seen = [False] * self.num_vertices
        comps = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            comp = []
            queue = deque([start])
            seen[start] = True
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in self.neighbors[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(sorted(comp))
        return comps


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


def build_interaction_graph(terms: Iterable[ClassifiedTerm], num_modes: int) -> InteractionGraph:
    """Edge set = union of the edges each term's encoded image requires.

    Spins follow the blocked mode convention (``fermion.blocked_modes``).
    Number and Coulomb/exchange terms need only vertex operators.
    """
    spins = blocked_modes(num_modes)[1]
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for kind, (idx, _) in ClassifiedTerms.of(terms).by_kind.items():
        if kind is Kind.EXCITATION or kind is Kind.PAIR_CREATION:
            pairs.append(idx)
        elif kind is Kind.NUMBER_EXCITATION:
            pairs.append(idx[:, [0, 2]])
        elif kind is Kind.DOUBLE_EXCITATION:
            pairs.extend(pair_partition(idx, spins)[:2])
    required = np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)
    return InteractionGraph.from_edges(num_modes, required.tolist())


def _vertex_mask(i: int, g: InteractionGraph) -> int:
    if not 0 <= i < g.num_vertices:
        raise ValueError(f"vertex {i} out of range")
    z = 0
    for j in g.neighbors[i]:
        z |= 1 << g.qubit_of(i, j)
    return z


def vertex_operator(i: int, g: InteractionGraph) -> PauliTerm:
    """B_i: Z on every edge qubit incident to vertex i."""
    return PauliTerm(1.0, 0, _vertex_mask(i, g), g.num_qubits)


def _edge_masks(p: int, q: int, g: InteractionGraph) -> Tuple[float, int, int]:
    if p == q:
        raise ValueError("edge operator needs two distinct modes")
    sign = 1.0
    if p > q:
        sign = -1.0
    e_pq = g.qubit_of(p, q)
    lo, hi = min(p, q), max(p, q)
    x = 1 << e_pq
    z = 0
    for l in g.neighbors[lo]:
        if l < hi and l != lo:
            z |= 1 << g.qubit_of(l, lo)
    for s in g.neighbors[hi]:
        if s < lo:
            z |= 1 << g.qubit_of(s, hi)
    z &= ~x
    return sign, x, z


def edge_operator(p: int, q: int, g: InteractionGraph) -> PauliTerm:
    """A_pq: X on edge {p,q} with Z dressing; A_qp = -A_pq."""
    return PauliTerm(*_edge_masks(p, q, g), g.num_qubits)


class _Tables:
    """Packed B_i and A_pq (p < q) of one graph, plus a vertex-pair lookup of
    edge indices (-1 where there is no edge)."""

    def __init__(self, g: InteractionGraph):
        q = g.num_qubits
        self.vertex = pack_masks((_vertex_mask(i, g) for i in range(g.num_vertices)), q)
        _, xs, zs = zip(*(_edge_masks(p, r, g) for p, r in g.edges)) if q else ((), (), ())
        self.edge_x, self.edge_z = pack_masks(xs, q), pack_masks(zs, q)
        self.lookup = np.full((g.num_vertices, g.num_vertices), -1, dtype=np.intp)
        ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        self.lookup[ends[:, 0], ends[:, 1]] = self.lookup[ends[:, 1], ends[:, 0]] = np.arange(q)

    def a(self, p: np.ndarray, q: np.ndarray) -> Packed:
        """A_pq for every pair: one row per term."""
        e = self.lookup[p, q]
        if (e < 0).any():
            k = int(np.argmax(e < 0))
            raise MissingEdgeError(f"no edge between modes {p[k]} and {q[k]}")
        c = np.where(p > q, -1.0, 1.0)[:, None]  # A_qp = -A_pq
        return self.edge_x[e][:, None], self.edge_z[e][:, None], c

    def b(self, vertices: Sequence[np.ndarray], c) -> Packed:
        """c[r] B_v for every v in ``vertices[r]``: len(vertices) rows per term."""
        return z_rows(np.stack([self.vertex[v] for v in vertices], axis=1), c)


def _hops(t: _Tables, i: np.ndarray, j: np.ndarray) -> Packed:
    """a_i^ a_j + a_j^ a_i  ->  -i (A_ij B_j + B_i A_ij) / 2, with B_i A_ij = -A_ij B_i."""
    return outer(t.a(i, j), t.b([j, i], (-0.5j, 0.5j)))


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


def _double_excitations(t: _Tables, idx: np.ndarray, spins: np.ndarray) -> Packed:
    """a_i^ a_j^ a_k a_l + h.c. from two same-spin edge operators and eight B-subsets."""
    first, second, pair_sign = pair_partition(idx, spins)
    aa = outer(t.a(first[:, 0], first[:, 1]), t.a(second[:, 0], second[:, 1]))
    # the B_v commute and carry no X, so each subset's product is one Z mask
    subsets, signs = zip(*_DOUBLE_B_SUBSETS)
    b = t.vertex[idx]
    z = np.stack([np.bitwise_xor.reduce(b[:, list(sub)], axis=1) for sub in subsets], axis=1)
    c = np.outer(pair_sign / 8.0, signs)
    return outer(aa, z_rows(z, c))


def _kind_images(kind: Kind, idx: np.ndarray, t: _Tables, spins: np.ndarray) -> Packed:
    """Images of the unit-coefficient terms of one kind, grouped per term."""
    cols = idx.T
    if kind is Kind.NUMBER:
        return half_one_minus(t.vertex[cols[0]])
    if kind is Kind.COULOMB_EXCHANGE:
        return outer(half_one_minus(t.vertex[cols[0]]), half_one_minus(t.vertex[cols[1]]))
    if kind is Kind.EXCITATION:
        return _hops(t, cols[0], cols[1])
    if kind is Kind.NUMBER_EXCITATION:
        return outer(_hops(t, cols[0], cols[2]), half_one_minus(t.vertex[cols[1]]))
    if kind is Kind.DOUBLE_EXCITATION:
        return _double_excitations(t, idx, spins)
    if kind is Kind.PAIR_CREATION:
        # a_i^ a_j^ + a_j a_i -> i (A_ij B_i + A_ij B_j) / 2; sign fixed against
        # a dense Majorana-product oracle
        return outer(t.a(cols[0], cols[1]), t.b([cols[0], cols[1]], (0.5j, 0.5j)))
    raise ValueError(f"unhandled kind {kind}")


def ose_transform_terms(
    terms: Iterable[ClassifiedTerm],
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
    images = partial(_kind_images, t=_Tables(g), spins=blocked_modes(g.num_vertices)[1])
    return merge_images(ClassifiedTerms.of(terms).by_kind, images, g.num_qubits, constant, eps)


@dataclass(frozen=True)
class StabilizerSet:
    stabilizers: Tuple[PauliTerm, ...]

    def __len__(self) -> int:
        return len(self.stabilizers)


def loop_stabilizers(g: InteractionGraph) -> StabilizerSet:
    """One stabilizer per independent cycle: i^p times the edge-operator
    product around each fundamental cycle of a breadth-first spanning forest.
    """
    parent: Dict[int, Optional[int]] = {}
    order: Dict[int, int] = {}
    tree_edges = set()
    for start in range(g.num_vertices):
        if start in parent:
            continue
        parent[start] = None
        order[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors[v]:
                if w not in parent:
                    parent[w] = v
                    order[w] = order[v] + 1
                    tree_edges.add((min(v, w), max(v, w)))
                    queue.append(w)

    def path_to_root(v: int) -> List[int]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    stabs = []
    for u, v in g.edges:
        if (u, v) in tree_edges:
            continue
        pu, pv = path_to_root(u), path_to_root(v)
        anc = {x: i for i, x in enumerate(pu)}
        for j, x in enumerate(pv):
            if x in anc:
                cycle = pu[: anc[x] + 1] + pv[:j][::-1]
                break
        # cycle = [u, ..., common ancestor, ..., v]; close it with edge (v, u)
        p = len(cycle)
        term = PauliTerm.identity(g.num_qubits, 1j ** p)
        for t in range(p):
            term = multiply(term, edge_operator(cycle[t], cycle[(t + 1) % p], g))
        c = term.coefficient
        if abs(abs(c) - 1.0) > 1e-12 or abs(c.imag) > 1e-12:
            raise AlgebraViolationError(f"loop product has coefficient {c}")
        stabs.append(PauliTerm(c.real, term.x, term.z, g.num_qubits))
    return StabilizerSet(tuple(stabs))


def add_parity_ancilla(
    g: InteractionGraph, k: int
) -> Tuple[InteractionGraph, PauliOperatorSum]:
    """Append an ancilla vertex s with edge {k, s}; return the enlarged graph
    and the pair-creation image a_k^ a_s^ + a_s a_k on it."""
    if not 0 <= k < g.num_vertices:
        raise ValueError(f"vertex {k} out of range")
    s = g.num_vertices
    g2 = InteractionGraph.from_edges(s + 1, list(g.edges) + [(k, s)])
    return g2, ose_transform_terms([ClassifiedTerm(Kind.PAIR_CREATION, (k, s), 1.0)], g2)


def symplectic_rank(terms: Iterable[PauliTerm]) -> int:
    """GF(2) rank of the (x|z) vectors of the given Pauli terms."""
    basis: Dict[int, int] = {}  # leading-bit position -> reduced vector
    rank = 0
    for t in terms:
        row = (t.x << t.num_qubits) | t.z
        while row:
            lead = row.bit_length()
            if lead in basis:
                row ^= basis[lead]
            else:
                basis[lead] = row
                rank += 1
                break
    return rank
