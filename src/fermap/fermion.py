"""Second-quantized Hamiltonians from spin-restricted spatial integrals and
their term classification.

A Hamiltonian is held as its spatial integrals only: the one-body matrix
``h_ij`` and the survivors of the chemist-ordered ERI ``(ij|kl)``
(``fermap.eri.Survivors``).  Its spin-orbital form is the spin sum

    c + sum_s sum_ij h_ij a_is^ a_js
      + 1/2 sum_st sum_ijkl (ij|kl) a_is^ a_kt^ a_lt a_js

over the blocked modes of ``blocked_modes``; ``classify_spatial`` turns the
entries that pass the cutoff into canonical self-adjoint terms, canonicalising
each distinct spatial entry once, with no spin-orbital tensor.
``map_terms`` maps those terms to qubits under any encoding that says how it
writes n_j, a hop and a double excitation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

import numpy as np

from .eri import Survivors, orbit_keys, pack_eri, packed_indices
from .pauli import NonHermitianError, PauliOperatorSum, num_words

SYMMETRY_ATOL = 1e-10
#: Slot s of a double excitation's X support holds the string of the s-th
#: even subset of the support's four modes or edge ends, as four flags:
#: s = mask // 2, since an even mask's lowest bit is the parity of the others.
SLOT_FLAGS = np.array(
    [[mask >> q & 1 for q in range(4)] for mask in range(16) if bin(mask).count("1") % 2 == 0],
    dtype=bool,
)
#: A row flips at most four vertex words, so only the vertex words of a
#: component of at most this many vertices can multiply to one another's.
_SMALL = 4
#: Distinct spatial ERI copies classified, or rows written, at a time, which
#: bounds the temporaries.
_BLOCK = 1 << 15


class Kind(enum.Enum):
    NUMBER = "number"
    COULOMB_EXCHANGE = "coulomb_exchange"
    EXCITATION = "excitation"
    NUMBER_EXCITATION = "number_excitation"
    DOUBLE_EXCITATION = "double_excitation"


@dataclass(frozen=True)
class ClassifiedTerm:
    """One self-adjoint Hamiltonian term in canonical index form.

    kind/indices semantics (coefficient g, anticommutation signs folded in):
      NUMBER (i,):                g * n_i
      COULOMB_EXCHANGE (i, j):    g * n_i n_j                      (i < j)
      EXCITATION (i, j):          g * (a_i^ a_j + a_j^ a_i)        (i < j)
      NUMBER_EXCITATION (i,j,k):  g * n_j (a_i^ a_k + a_k^ a_i)    (i < k)
      DOUBLE_EXCITATION (i,j,k,l): g * (a_i^ a_j^ a_k a_l + h.c.)  (i<j, l<k,
                                   tuple lexicographically minimal vs its h.c.)
    """

    kind: Kind
    indices: Tuple[int, ...]
    coefficient: float


class ClassifiedTerms:
    """Classified terms held per kind: an index array ``[n, arity]`` and a
    coefficient vector ``[n]`` for every kind that has terms, in ``Kind``
    order.  Rows follow ``ClassifiedTerm``'s index semantics.  Iteration
    yields ``ClassifiedTerm``s ordered by kind name, then by the order of the
    rows (lexicographic indices for ``classify_spatial``'s output)."""

    def __init__(self, by_kind: Dict[Kind, Tuple[np.ndarray, np.ndarray]]):
        self.by_kind = {k: by_kind[k] for k in Kind if k in by_kind and len(by_kind[k][1])}

    def __len__(self) -> int:
        return sum(len(c) for _, c in self.by_kind.values())

    def __iter__(self) -> Iterator[ClassifiedTerm]:
        for kind in sorted(self.by_kind, key=lambda k: k.value):
            indices, coefficients = self.by_kind[kind]
            for row, c in zip(indices.tolist(), coefficients.tolist()):
                yield ClassifiedTerm(kind, tuple(row), c)


@dataclass(frozen=True)
class FermionHamiltonian:
    """A spin-restricted Hamiltonian held as its spatial integrals: the
    one-body matrix ``one_body[i, j]`` (``[m, m]``), the survivors of the
    chemist-ordered ERI ``(ij|kl)`` (``fermap.eri``) and a constant.  Its
    ``2m`` modes follow ``blocked_modes``."""

    one_body: np.ndarray
    eri: Survivors
    constant: float

    @property
    def num_modes(self) -> int:
        return 2 * self.one_body.shape[0]


def blocked_modes(num_modes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Spatial orbital and spin of every mode in the one mode convention,
    blocked: mode ``orbital + spin * (num_modes // 2)``, spin-up modes first.
    A trailing odd mode (a parity ancilla) falls in the spin-down block."""
    m = num_modes // 2
    spin = (np.arange(num_modes) >= m).astype(np.intp)
    return np.arange(num_modes) - m * spin, spin


def _checked_integrals(h1_spatial, eri_chemist) -> Tuple[np.ndarray, Survivors]:
    """The one-body matrix, checked to be square, finite and symmetric, and
    the survivors of the ERI of its ``m`` orbitals.  Survivors are checked by
    ``Survivors.checked``; a dense ``[m, m, m, m]`` ERI is checked to be
    finite and 8-fold symmetric, since packing keeps one slot per orbit, and
    packed (``pack_eri``)."""
    h1 = np.asarray(h1_spatial, dtype=float)
    m = len(h1) if h1.ndim else 0
    if (
        h1.shape != (m, m)
        or not np.isfinite(h1).all()
        or np.abs(h1 - h1.T).max(initial=0.0) > SYMMETRY_ATOL
    ):
        raise ValueError("spatial one-body matrix must be square, finite and symmetric")
    if isinstance(eri_chemist, Survivors):
        return h1, eri_chemist.checked(m)
    eri = np.asarray(eri_chemist, dtype=float)
    if eri.shape != (m,) * 4:
        raise ValueError(f"the ERI must be Survivors or a dense tensor of shape {(m,) * 4}")
    if not np.isfinite(eri).all():
        raise ValueError("the dense ERI tensor must be finite")
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        if np.abs(eri - eri.transpose(perm)).max(initial=0.0) > SYMMETRY_ATOL:
            raise ValueError("ERI tensor must have 8-fold permutational symmetry")
    return h1, pack_eri(eri)


def from_spatial_integrals(
    h1_spatial: np.ndarray,
    eri_chemist: Union[np.ndarray, Survivors],
    constant: float = 0.0,
) -> FermionHamiltonian:
    """The Hamiltonian of checked spatial integrals.  ``eri_chemist`` holds
    the chemist-notation integrals (ij|kl), either dense,
    ``eri_chemist[i,j,k,l]``, or as survivors (``fermap.eri``); it is stored
    as survivors."""
    h1, eri = _checked_integrals(h1_spatial, eri_chemist)
    return FermionHamiltonian(h1, eri, float(constant))


def _bincount(group: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Sum ``values`` per group, real or complex: ``np.bincount`` adds each
    group's values in input order, bitwise as a loop, the real and imaginary
    parts of complex values one after the other."""
    sums = np.bincount(group, weights=values.real, minlength=length)
    if np.iscomplexobj(values):
        sums = sums + 1j * np.bincount(group, weights=values.imag, minlength=length)
    return sums


def _summed(parts: list, num_modes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal index rows over ``(rows, values)`` parts and
    drop sums that are exactly zero; rows come back in lexicographic order
    and each row's values are summed in input order (``_bincount``)."""
    shape = (num_modes,) * parts[0][0].shape[1]
    keys = np.concatenate([np.ravel_multi_index(tuple(rows.T), shape) for rows, _ in parts])
    keys, group = np.unique(keys, return_inverse=True)
    sums = _bincount(group, np.concatenate([v for _, v in parts]), len(keys))
    kept = np.abs(sums) > 0
    return np.stack(np.unravel_index(keys[kept], shape), axis=1), sums[kept]


def _two_body_rows(p, q, r, s, v) -> Dict[Kind, Tuple[np.ndarray, np.ndarray]]:
    """Index rows and signed contributions of two-body entries h[p,q,r,s] = v
    to the canonical terms, per kind, in input order."""
    live = (p != q) & (r != s)  # a_p^ a_p^ and a_r a_r vanish
    p, q, r, s, v = (a[live] for a in (p, q, r, s, v))
    # canonical operator: a_c1^ a_c2^ a_hi a_lo, c1 < c2, lo < hi
    sign = np.where(p > q, -1.0, 1.0) * np.where(r < s, -1.0, 1.0)
    c1, c2, lo, hi = np.minimum(p, q), np.maximum(p, q), np.minimum(r, s), np.maximum(r, s)
    c1_shared, c2_shared = (c1 == lo) | (c1 == hi), (c2 == lo) | (c2 == hi)
    both, one_shared, none = c1_shared & c2_shared, c1_shared ^ c2_shared, ~(c1_shared | c2_shared)
    rows = {Kind.COULOMB_EXCHANGE: (np.stack([c1, c2], axis=1)[both], (sign * v)[both])}
    # n_j (a_i^ a_k + h.c.): a_j^ a_i^ -> -a_i^ a_j^ and a_k a_j -> -a_j a_k
    j = np.where(c1_shared, c1, c2)
    i, k = np.where(c1_shared, c2, c1), np.where(lo == j, hi, lo)
    flip = np.where(c1_shared, -1.0, 1.0) * np.where(lo == j, -1.0, 1.0)
    triples = np.stack([np.minimum(i, k), j, np.maximum(i, k)], axis=1)
    rows[Kind.NUMBER_EXCITATION] = (triples[one_shared], (0.5 * sign * flip * v)[one_shared])
    # the lexicographically smaller of (c1, c2, hi, lo) and its h.c., the reversed tuple
    quads = np.stack([c1, c2, hi, lo], axis=1)
    quads = np.where((c1 < lo)[:, None], quads, quads[:, ::-1])
    rows[Kind.DOUBLE_EXCITATION] = (quads[none], (0.5 * sign * v)[none])
    return rows


def classify_spatial(
    h1_spatial: np.ndarray,
    eri_chemist: Union[np.ndarray, Survivors],
    cutoff: float = 0.0,
) -> ClassifiedTerms:
    """Classify spatial integrals into canonical terms, canonicalising each
    distinct spatial entry once, with no spin-orbital tensor.  The inputs
    are checked as by ``from_spatial_integrals``: ``h1_spatial`` must be
    symmetric, and ``eri_chemist`` is survivors (``fermap.eri``) or dense; a
    dense one must be 8-fold symmetric and is packed first, so both forms
    classify alike.

    A same-spin entry compares indices within its spin block only, so its
    row, found on orbital indices, is written into both blocks, at +0 and +m.
    The spin-down/spin-up entry of (ij|kl) is the spin-up/spin-down entry of
    (kl|ij), so a mixed-spin term takes the latter alone, at twice its value.
    Each term sums its rows in the lexicographic order of their copies, and
    rows come out in lexicographic order.

    The cutoff is applied to the spin-orbital entries: a one-body integral
    survives when ``|h_ij| >= cutoff`` and, since each two-body entry is
    half the chemist integral, a two-body integral when
    ``|(ij|kl)| / 2 >= cutoff``.
    """
    if not 0 <= cutoff < math.inf:
        raise ValueError("cutoff must be non-negative and finite")
    h1, eri = _checked_integrals(h1_spatial, eri_chemist)
    m = h1.shape[0]
    floor = max(cutoff, 1e-300)
    # a number term is one diagonal entry, an excitation the half-sum of an
    # entry h_ij and its transpose, i < j
    passed = np.where(np.abs(h1) >= floor, h1, 0.0)
    pairs = np.triu(0.5 * passed + 0.5 * passed.T, 1)
    n, (i, j) = np.flatnonzero(np.diagonal(passed)), np.nonzero(pairs)
    terms = {
        kind: (np.concatenate([rows, rows + m]), np.concatenate([c, c]))
        for kind, rows, c in (
            (Kind.NUMBER, n[:, None], passed[n, n]),
            (Kind.EXCITATION, np.stack([i, j], axis=1), pairs[i, j]),
        )
    }
    # every survivor that passes stands for its distinct symmetric copies,
    # taken in lexicographic (i, j, k, l) order as a dense scan would find them
    kept = np.abs(eri.values) >= 2.0 * floor
    positions, values = eri.positions[kept], eri.values[kept]
    keys, first = np.unique(orbit_keys(*packed_indices(m, positions), m), return_index=True)
    values = 0.5 * values[first // 8]
    same, mixed = {}, {}
    for start in range(0, len(keys), _BLOCK):
        i, j, k, l = np.unravel_index(keys[start : start + _BLOCK], (m,) * 4)
        v = values[start : start + _BLOCK]
        for kind, part in _two_body_rows(i, k, l, j, v).items():  # h[i,k,l,j] = v
            same.setdefault(kind, []).append(part)
        for kind, part in _two_body_rows(i, k + m, l + m, j, 2.0 * v).items():  # up, down
            mixed.setdefault(kind, []).append(part)
    for kind in list(same):  # spin up, then at +m, then mixed; freed once summed
        up = same.pop(kind)
        terms[kind] = _summed(up + [(rows + m, c) for rows, c in up] + mixed.pop(kind), 2 * m)
    return ClassifiedTerms(terms)


def _distinct(*modes: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The mode columns, checked to differ in every row: the images of a hop
    and of a double excitation read their phases as if every mode were its
    own qubit or edge, which a repeated mode is not, and a row's key reads
    each mode it flips as a distinct word."""
    for b, later in enumerate(modes):
        if any((earlier == later).any() for earlier in modes[:b]):
            raise ValueError("a Coulomb term, hop or double excitation repeats a mode")
    return modes


def _small_components(components: Sequence[Sequence[int]], n: int) -> Tuple[np.ndarray, ...]:
    """Per vertex, and in a last entry for "no vertex" (index -1): the index
    of its component among those of at most ``_SMALL`` vertices, or -1, its
    bit in that component's mask (vertices in the order given) and the
    component's full mask."""
    comp, bit, full = np.full(n + 1, -1), np.zeros(n + 1, np.intp), np.zeros(n + 1, np.intp)
    for c, members in enumerate(c for c in components if len(c) <= _SMALL):
        comp[members], bit[members] = c, 1 << np.arange(len(members))
        full[members] = (1 << len(members)) - 1
    return comp, bit, full


def _flip_codes(flips: np.ndarray, small: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, int]:
    """An integer per row of ``flips`` ``[n, 2]`` (vertices, -1 for none)
    that two rows share exactly where their flipped vertex words XOR to the
    same word, and the bound of the codes.  The vertex words of a component
    multiply to the identity and, apart from that, are independent; so
    inside each small component (``_small_components``) the flipped
    vertices count only as the class of their mask there, min(mask,
    full ^ mask), 0 for the identity.  Each vertex outside one is its own
    atom, each class above 0 another atom, and a row's code is its pair of
    atoms."""
    comp, bit, full = small
    n = len(comp) - 1

    def atom(v, mask):  # -1 for the identity
        cls = np.minimum(mask, full[v] ^ mask)
        return np.where(comp[v] < 0, v, np.where(cls > 0, n + 8 * comp[v] + cls, -1))

    vertices = np.arange(-1, n)
    atoms = atom(vertices, bit[vertices]).take(flips + 1)
    # two vertices of one small component flip as one class of both
    c = comp.take(flips)
    both = np.flatnonzero((c[:, 0] == c[:, 1]) & (c[:, 0] >= 0))
    f0, f1 = flips[both].T
    atoms[both, 0], atoms[both, 1] = atom(f0, bit[f0] | bit[f1]), -1
    bound = n + 8 * int(comp.max()) + 16  # above every atom, -1 included, plus one
    low, high = np.minimum(*atoms.T), np.maximum(*atoms.T)
    return (low + 1) * bound + high + 1, bound * bound


def _slot_classes(
    elements: np.ndarray, slots: np.ndarray, small: Tuple[np.ndarray, ...]
) -> np.ndarray:
    """The slots ``[n, 8]`` of double excitations with elements ``[n, 4]``,
    each slot moved to the one of its class: two slots of one support give
    one string exactly where their flags differ on a union of components
    that lie wholly among the four elements (``_flip_codes``), and in each
    such component the flags become min(mask, full ^ mask) of their mask
    over the elements there.  Only terms that touch a small component are
    read, and ``slots`` is changed in place."""
    comp, bit, full = small
    touched = np.flatnonzero((comp >= 0).take(elements).any(axis=1))
    e = elements[touched]
    c, masks = comp[e], SLOT_FLAGS.take(slots[touched], axis=0) @ (1 << np.arange(4))
    for b in range(4):
        same = (c == c[:, b : b + 1]) & (c[:, b : b + 1] >= 0)
        whole = (same * bit[e]).sum(axis=1) == full[e[:, b]]
        at = np.where(whole, same @ (1 << np.arange(4)), 0)[:, None]
        part = masks & at
        masks ^= part ^ np.minimum(part, at ^ part)
    slots[touched] = masks // 2
    return slots


def _write(x, z, ends, at, flipped, words, flip_words) -> None:
    """Fill the words of rows, a block of rows at a time: those of the X
    support on ``ends[at[r]]`` (none where ``ends`` is None; ``at``
    ascends), built by ``words`` for the block's supports only, then in z
    the flip word of each vertex that ``flipped(block)`` gives for the
    block's rows (-1, the last flip word, flips nothing)."""
    for start in range(0, len(x), _BLOCK):
        block = slice(start, start + _BLOCK)
        if ends is not None:
            first = at[start]
            support_x, support_z = words(ends[first : at[block][-1] + 1])
            x[block] = support_x.take(at[block] - first, axis=0)
            z[block] = support_z.take(at[block] - first, axis=0)
        for column in flipped(block).T:
            z[block] ^= flip_words.take(column, axis=0)


def map_terms(
    terms: ClassifiedTerms,
    z: np.ndarray,
    hop: Callable[[np.ndarray, np.ndarray], np.ndarray],
    double: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
    words: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    num_qubits: int,
    constant: complex,
    eps: float,
    components: Sequence[Sequence[int]] = (),
) -> PauliOperatorSum:
    """Map classified terms to qubits under one encoding, given by four parts:
    ``z[j]``, the Z word of n_j = (1 - Z_j)/2; ``hop(i, k)``, the
    coefficients ``[n, 2]`` of the two strings of a_i^ a_k + h.c., which are
    its X support's words with ``z[k]``, then ``z[i]``, XORed into Z;
    ``double(idx)``, for every DOUBLE_EXCITATION row of ``idx``, an integer
    key of its image's X support ``[n]``, the support's four elements
    ``[n, 4]`` (modes or edge ends), and the slots and unit coefficients of
    its eight strings there ``[n, 8]``, slot s XORing in the ``z`` word of
    each element that ``SLOT_FLAGS[s]`` flags; and ``words(ends)``, the x
    and z words of the X support on the modes ``ends`` of a hop ``[n, 2]``
    or on a double excitation's elements ``[n, 4]``.  ``components`` are the
    vertex sets whose ``z`` words multiply to the identity (the superfast
    graph's components; none in JW).  A hop's or a double excitation's
    modes must differ (ValueError otherwise).

    Every term is folded before any word is built.  n_j = (1 - Z_j)/2 gives
    the identity parts of the NUMBER and COULOMB_EXCHANGE terms to
    ``constant``; their Z_j parts are summed per mode, and the hop parts of
    the EXCITATION and NUMBER_EXCITATION terms per mode pair.  The rows are
    then, in this order: the identity, the Z_j sums, g/4 Z_i Z_j of each
    Coulomb term g n_i n_j, the hop sums, -g/2 hop(i, k) Z_j of each
    g n_j hop(i, k) (its hop rows with z[j] XORed in: j is none of i, k, so
    no phase), and the eight strings of each double excitation.

    Each row is keyed by integers read from its term: its X support (none,
    a mode pair or a double excitation's support) and the class of the
    vertices whose ``z`` words it flips (``_flip_codes``, ``_slot_classes``),
    so two rows share a key exactly where they share a string.  One
    ``np.unique`` and one ``np.bincount`` sum each string's rows in the
    order above; a pre-summed string's coefficient may differ from a sum
    of its per-term rows by rounding.  Sums that are 0, or below eps in
    magnitude, are cut, and words are built for the kept rows only.  The
    rows come out in key order: Z-only strings, then each mode pair's, then
    each double excitation support's by slot.  eps must satisfy
    0 <= eps < inf (ValueError otherwise): a NaN or infinite eps would drop
    every term.  A Pauli sum is Hermitian exactly when its coefficients are
    real, so any |imag| above eps raises NonHermitianError.
    """
    if not 0 <= eps < np.inf:
        raise ValueError("eps must be non-negative and finite")

    def of(kind: Kind, arity: int) -> Tuple[np.ndarray, np.ndarray]:
        return terms.by_kind.get(kind, (np.empty((0, arity), dtype=np.intp), np.empty(0)))

    number, coulomb = of(Kind.NUMBER, 1), of(Kind.COULOMB_EXCHANGE, 2)
    excitation, number_excitation = of(Kind.EXCITATION, 2), of(Kind.NUMBER_EXCITATION, 3)
    (idx, g), n = of(Kind.DOUBLE_EXCITATION, 4), len(z)
    # g n_j = g/2 - g/2 Z_j and g n_i n_j = g/4 - g/4 Z_i - g/4 Z_j + g/4 Z_i Z_j:
    # the identity parts join the constant and the Z_j parts are summed per mode
    halves, quarters = 0.5 * number[1], 0.25 * coulomb[1]
    constant = constant + halves.sum() + quarters.sum()
    z_parts = np.append(-halves, -np.repeat(quarters, 2))
    z_sums = _bincount(np.append(number[0], coulomb[0]), z_parts, n)
    modes = np.flatnonzero(np.abs(z_sums) > 0)
    z_sums = z_sums[modes]
    # g n_j hop(i, k) = g/2 hop(i, k) - g/2 hop(i, k) Z_j: the hop parts are summed per pair
    pairs, hop_sums = _summed(
        [excitation, (number_excitation[0][:, [0, 2]], 0.5 * number_excitation[1])], n
    )
    i, j, k = _distinct(*number_excitation[0].T)
    hops = np.concatenate([pairs, np.stack([i, k], axis=1)])  # two rows per hop sum and n_j hop
    c = hop(*_distinct(*hops.T))
    identity = np.full((1 if constant else 0, 2), -1)
    # every row but the double excitations': the vertices it flips (-1 for none)
    second = np.append(np.full(2 * len(pairs), -1), np.repeat(j, 2))
    flips = np.concatenate([
        identity,
        np.stack([modes, np.full_like(modes, -1)], axis=1),
        np.stack(_distinct(*coulomb[0].T), axis=1),
        np.stack([hops[:, ::-1].ravel(), second], axis=1),
    ])
    values = np.concatenate([
        np.full(len(identity), constant),
        z_sums,
        quarters,
        (c[: len(pairs)] * hop_sums[:, None]).ravel(),
        (c[len(pairs) :] * -0.5 * number_excitation[1][:, None]).ravel(),
    ])
    z_only = len(flips) - 2 * len(hops)
    small = _small_components(components, n)
    codes, bound = _flip_codes(flips, small)
    lo, hi = np.minimum(*hops.T), np.maximum(*hops.T)
    support = np.append(np.zeros(z_only, np.intp), np.repeat(1 + lo * n + hi, 2))
    _distinct(*idx.T)
    double_support, elements, slots, units = double(idx)
    base = (n * n + 1) * bound  # above every other row's key
    if base + n**4 >= 2**63:
        raise ValueError(f"{n} modes or vertices are too many for an exact int64 row key")
    keys = np.concatenate([support * bound + codes, base + double_support])
    keys, at = np.unique(keys, return_inverse=True)
    # a bin per key of the other kinds' rows, which come first, then eight
    # per double excitation support, one per slot; filled in place, since
    # temporaries the size of the double excitations' rows cost more than the sums
    rows, other = len(values), int(np.searchsorted(keys, base))
    bins = np.empty(rows + slots.size, np.intp)
    weights = np.empty(len(bins), np.result_type(values, units, g))
    bins[:rows], weights[:rows] = at[:rows], values
    slots = _slot_classes(elements, slots, small)
    np.add((8 * at[rows:] - 7 * other)[:, None], slots, out=bins[rows:].reshape(slots.shape))
    np.multiply(units, g[:, None], out=weights[rows:].reshape(units.shape))
    del slots, units  # these, like bins and weights, are as large as the double rows
    sums = _bincount(bins, weights, other + 8 * (len(keys) - other))
    del bins, weights
    kept = np.flatnonzero(np.abs(sums) >= eps if eps else sums != 0)  # |c| >= eps > 0: c != 0
    coefficients = np.asarray(sums[kept], dtype=complex)
    worst = float(np.abs(coefficients.imag).max(initial=0.0))
    if worst > eps:
        raise NonHermitianError(f"coefficient with |imag| = {worst:.3e} > {eps:.3e}")
    # every row of a key has its string, so the words of a kept key are read
    # from whichever of its rows ``first`` holds; the keys run Z-only rows,
    # then hop rows, then double excitation rows
    first = np.empty(len(keys), dtype=np.intp)
    first[at] = np.arange(len(at))
    b = int(np.searchsorted(kept, other))
    unit, slot = np.divmod(kept[b:] - other, 8)
    row = first.take(np.append(kept[:b], other + unit))
    a = np.count_nonzero(row < z_only)
    new = np.diff(unit, prepend=-1) > 0  # the first kept row of each double excitation support
    support_of = np.cumsum(new) - 1
    e = elements.take(row[b:][new] - rows, axis=0)
    x, zw = (np.zeros((len(kept), num_words(num_qubits)), np.uint64) for _ in range(2))
    flip_words = np.concatenate([z, np.zeros_like(z[:1])])
    z_rows, hop_rows = row[:a], row[a:b]
    for part, ends, index, flipped in (
        (slice(0, a), None, None, lambda block: flips.take(z_rows[block], axis=0)),
        (
            slice(a, b),
            hops.take((hop_rows - z_only) // 2, axis=0),
            np.arange(b - a),
            lambda block: flips.take(hop_rows[block], axis=0),
        ),
        (
            slice(b, None),
            e,
            support_of,
            lambda block: np.where(
                SLOT_FLAGS.take(slot[block], axis=0), e.take(support_of[block], axis=0), -1
            ),
        ),
    ):
        _write(x[part], zw[part], ends, index, flipped, words, flip_words)
    return PauliOperatorSum(x, zw, coefficients, num_qubits)
