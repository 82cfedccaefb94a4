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
    half_one_minus,
    merge_images,
    num_words,
    outer,
    pack_masks,
    product,
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
    """B_i: Z on every edge qubit incident to vertex i."""
    z = 0
    for j in g.neighbors[i]:
        z |= 1 << g.qubit_of(i, j)
    return z


def _edge_masks(p: int, q: int, g: InteractionGraph) -> Tuple[int, int]:
    """A_pq for an edge p < q: X on edge {p,q}, Z on the edges from p to its
    neighbours below q and from q to its neighbours below p."""
    z = 0
    for l in g.neighbors[p]:
        if l < q:
            z |= 1 << g.qubit_of(l, p)
    for s in g.neighbors[q]:
        if s < p:
            z |= 1 << g.qubit_of(s, q)
    return 1 << g.qubit_of(p, q), z


class _Tables:
    """Packed B_i and A_pq (p < q) of one graph, plus a vertex-pair lookup of
    edge indices (-1 where there is no edge)."""

    def __init__(self, g: InteractionGraph):
        q = g.num_qubits
        self.vertex = pack_masks((_vertex_mask(i, g) for i in range(g.num_vertices)), q)
        xs, zs = zip(*(_edge_masks(p, r, g) for p, r in g.edges)) if q else ((), ())
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


def loop_stabilizers(g: InteractionGraph) -> PauliOperatorSum:
    """One stabilizer per independent cycle: i^p times the edge-operator
    product around each fundamental cycle of a breadth-first spanning forest,
    in the order of the non-tree edges that close the cycles.  Each product
    must come out as a real +/-1 times a Pauli string.
    """
    parent: Dict[int, Optional[int]] = {}
    tree_edges = set()
    for start in range(g.num_vertices):
        if start in parent:
            continue
        parent[start] = None
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors[v]:
                if w not in parent:
                    parent[w] = v
                    tree_edges.add((min(v, w), max(v, w)))
                    queue.append(w)

    def path_to_root(v: int) -> List[int]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    cycles = []
    for u, v in g.edges:
        if (u, v) in tree_edges:
            continue
        pu, pv = path_to_root(u), path_to_root(v)
        anc = {x: i for i, x in enumerate(pu)}
        for j, x in enumerate(pv):
            if x in anc:
                # [u, ..., common ancestor, ..., v]; edge (v, u) closes it
                cycles.append(pu[: anc[x] + 1] + pv[:j][::-1])
                break

    # the edges (c[s], c[s+1 mod p]) around each cycle, multiplied in one
    # batch per step over the cycles that have that many edges
    steps = [list(zip(c, c[1:] + c[:1])) for c in cycles]
    t, words = _Tables(g), num_words(g.num_qubits)
    rows = (
        np.zeros((len(cycles), words), np.uint64),
        np.zeros((len(cycles), words), np.uint64),
        np.array([1j ** len(c) for c in cycles], dtype=complex),
    )
    for step in range(max(map(len, cycles), default=0)):
        live = [k for k, edges in enumerate(steps) if step < len(edges)]
        ax, az, ac = t.a(*np.array([steps[k][step] for k in live]).T)
        x, z, c = product(tuple(r[live] for r in rows), (ax[:, 0], az[:, 0], ac[:, 0]))
        rows[0][live], rows[1][live], rows[2][live] = x, z, c
    x, z, c = rows
    bad = (np.abs(np.abs(c) - 1.0) > 1e-12) | (np.abs(c.imag) > 1e-12)
    if bad.any():
        raise AlgebraViolationError(f"loop product has coefficient {c[bad][0]}")
    return PauliOperatorSum(x, z, c.real.astype(complex), g.num_qubits)


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
