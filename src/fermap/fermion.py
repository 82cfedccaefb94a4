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
from typing import Callable, Dict, Iterator, Tuple, Union

import numpy as np

from .eri import Survivors, orbit_keys, pack_eri, packed_indices
from .pauli import NonHermitianError, Packed, PauliOperatorSum, outer, simplify, z_rows

SYMMETRY_ATOL = 1e-10
#: Slot s of a double excitation's X support holds the string of the s-th
#: even subset of the support's four modes or edge ends, as four flags:
#: s = mask // 2, since an even mask's lowest bit is the parity of the others.
SLOT_FLAGS = np.array(
    [[mask >> q & 1 for q in range(4)] for mask in range(16) if bin(mask).count("1") % 2 == 0],
    dtype=bool,
)
#: The least slot of every coset s ^ H, by a mask of the subgroup H of the
#: slots (bit t - 1 set where H holds slot t) and by s: slot s's flags are
#: linear in s, mask(s ^ t) = mask(s) ^ mask(t).
_LEAST_SLOT = np.array(
    [[min(s ^ t for t in range(8) if (2 * h + 1) >> t & 1) for s in range(8)] for h in range(128)],
    dtype=np.uint8,
)
#: Distinct spatial ERI copies classified, or double-excitation rows flipped,
#: at a time, which bounds the temporaries.
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
    own qubit or edge, which a repeated mode is not."""
    for b, later in enumerate(modes):
        if any((earlier == later).any() for earlier in modes[:b]):
            raise ValueError("a hop or double excitation repeats a mode")
    return modes


def _folded_doubles(
    merged: PauliOperatorSum, indices: np.ndarray, g: np.ndarray, double, double_words, eps: float
) -> PauliOperatorSum:
    """``merged`` followed by one row per string of the double excitations
    g (a_i^ a_j^ a_k a_l + h.c.), ``indices`` ``[n, 4]`` (``map_terms``),
    whose sum passes ``simplify``'s eps rule: |c| >= eps, or c != 0 at eps 0.

    Slots s and s ^ t of one support give one string exactly where the flip
    words of t's flagged elements XOR to zero; a slot's flags are linear in
    it, so those t form a subgroup and each slot is summed into the least
    slot of its coset.  ``np.bincount`` then adds each string's terms in
    term order, bitwise as ``simplify`` adds the terms' rows.  A support's
    words are built once and copied into the rows of its kept strings, whose
    flips are XORed in place, a block of rows at a time."""
    _distinct(*indices.T)
    support, slots, units = double(indices)
    supports, at = np.unique(support, return_inverse=True)
    x, z, elements, flips = double_words(supports)
    live = np.arange(len(supports))  # the supports whose subgroup may hold another slot
    joins = np.ones((7, len(live)), dtype=bool)  # where it may hold slot t + 1
    # first the XOR of each flip's words: a t whose flips XOR to zero passes
    # it too, and it leaves few supports for the exact test of every word
    for column in (np.bitwise_xor.reduce(flips, axis=1), *flips.T):
        if not len(live):
            break
        words = column.take(elements.take(live, axis=0).T)
        # slot t flags element b + 1 for each bit b of t, and element 0 to make
        # the count even, so its flagged words XOR to those bits' differences
        differences = words[1:] ^ words[0]
        flipped = np.zeros((8, len(live)), dtype=np.uint64)
        for b in range(3):
            flipped[1 << b : 2 << b] = flipped[: 1 << b] ^ differences[b]
        joins &= flipped[1:] == 0
        still = joins.any(axis=0)
        live, joins = live[still], joins[:, still]
    subgroup = np.zeros(len(supports), dtype=np.intp)
    subgroup[live] = (1 << np.arange(7)) @ joins
    key = 8 * at[:, None] + slots  # every string's (support, slot)
    joined = np.flatnonzero(subgroup.take(at))  # the terms on supports with a subgroup
    least = _LEAST_SLOT[subgroup.take(at[joined])[:, None], slots[joined]]
    key[joined] = 8 * at[joined, None] + least
    values = (units * g[:, None]).ravel()
    sums = _bincount(key.ravel(), values, 8 * len(supports))
    kept = np.flatnonzero(np.abs(sums) >= eps if eps else sums != 0)
    at, slot = kept // 8, kept % 8
    out_x, out_z = (np.empty((len(merged) + len(kept), x.shape[1]), np.uint64) for _ in range(2))
    out_x[: len(merged)], out_z[: len(merged)] = merged.x, merged.z
    double_x, double_z = out_x[len(merged) :], out_z[len(merged) :]
    # mode="clip": with the default "raise", np.take writes through a temporary copy of out
    np.take(x, at, axis=0, out=double_x, mode="clip")
    np.take(z, at, axis=0, out=double_z, mode="clip")
    flips = np.concatenate([flips, np.zeros_like(flips[:1])])  # a last row flips nothing
    for begin in range(0, len(kept), _BLOCK):
        block = slice(begin, begin + _BLOCK)
        flagged = SLOT_FLAGS.take(slot[block], axis=0)
        flip = np.where(flagged, elements.take(at[block], axis=0), len(flips) - 1)
        for column in flip.T:
            double_z[block] ^= flips.take(column, axis=0)
    c = np.concatenate([merged.coefficients, sums[kept]])
    return PauliOperatorSum(out_x, out_z, c, merged.num_qubits)


def map_terms(
    terms: ClassifiedTerms,
    z: np.ndarray,
    hop: Callable[[np.ndarray, np.ndarray], Tuple[Packed, Tuple[np.ndarray, ...]]],
    double: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    double_words: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
    num_qubits: int,
    constant: complex,
    eps: float,
) -> PauliOperatorSum:
    """Map classified terms to qubits under one encoding, given by four parts:
    ``z[j]``, the Z word of n_j = (1 - Z_j)/2; ``hop(i, k)``, the images of
    a_i^ a_k + h.c., grouped per term, and the qubits of their X bits (n_j
    multiplies them through ``outer``'s bit rule); ``double(idx)``, for
    every DOUBLE_EXCITATION row of ``idx``, an integer key of its image's X
    support, ``[n]``, and the slots and unit coefficients of its eight
    strings within that support, ``[n, 8]`` each; and
    ``double_words(supports)``, for every support key, the x and z words of
    its slot-0 string, its four elements ``[n, 4]`` (modes or vertices) and
    the table of Z words that an element XORs into z where slot s flags it
    (``SLOT_FLAGS[s]``).  A hop's or a double excitation's modes must differ
    (ValueError otherwise).

    Every term is folded before any row is built.  n_j = (1 - Z_j)/2 gives
    the identity parts of the NUMBER and COULOMB_EXCHANGE terms to
    ``constant``; their Z_j parts are summed per mode, and the hop parts of
    the EXCITATION and NUMBER_EXCITATION terms per mode pair.  The rows
    written per term are g/4 Z_i Z_j of each Coulomb term g n_i n_j and
    -g/2 hop(i, k) Z_j of each g n_j hop(i, k).  These rows, and the
    identity, are merged and zero sums and |c| < eps cut (``simplify``:
    rows come out in row-key order, a string's rows are summed in input
    order, and a key shared by two distinct strings makes it retry from
    another seed, a bounded number of times), so a pre-summed string's
    coefficient may differ from a sum of its per-term rows by rounding.

    A double excitation's strings have X on its support alone, which no
    string of another kind or another support has, so they never reach the
    merge: its coefficients times g are summed per string, in term order,
    which is bitwise ``simplify`` of its per-term rows (``_folded_doubles``),
    the same eps rule cuts the sums, and only the kept sums' words are
    built.  The returned operator is the merged rows, in row-key order,
    followed by the double excitations' rows, in (support, slot) order.  A
    Pauli sum is Hermitian exactly when its coefficients are real, so any
    |imag| above eps, in any row, raises NonHermitianError.
    """

    def of(kind: Kind, arity: int) -> Tuple[np.ndarray, np.ndarray]:
        return terms.by_kind.get(kind, (np.empty((0, arity), dtype=np.intp), np.empty(0)))

    number, coulomb = of(Kind.NUMBER, 1), of(Kind.COULOMB_EXCHANGE, 2)
    excitation, number_excitation = of(Kind.EXCITATION, 2), of(Kind.NUMBER_EXCITATION, 3)
    double_excitation = of(Kind.DOUBLE_EXCITATION, 4)
    # g n_j = g/2 - g/2 Z_j and g n_i n_j = g/4 - g/4 Z_i - g/4 Z_j + g/4 Z_i Z_j:
    # the identity parts join the constant and the Z_j parts are summed per mode
    halves, quarters = 0.5 * number[1], 0.25 * coulomb[1]
    constant = constant + halves.sum() + quarters.sum()
    modes, z_sums = _summed(
        [(number[0], -halves), (coulomb[0].reshape(-1, 1), -np.repeat(quarters, 2))], len(z)
    )
    # g n_j hop(i, k) = g/2 hop(i, k) - g/2 hop(i, k) Z_j: the hop parts are summed per pair
    pairs, hop_sums = _summed(
        [excitation, (number_excitation[0][:, [0, 2]], 0.5 * number_excitation[1])], len(z)
    )

    def batches():  # from_packed draws them all before copying any (ROADMAP item 2)
        yield z_rows(z.take(modes, axis=0), z_sums[:, None])
        i, j = coulomb[0].T
        yield z_rows((z.take(i, axis=0) ^ z.take(j, axis=0))[:, None], quarters[:, None])
        if len(hop_sums):
            x, zw, c = hop(*_distinct(*pairs.T))[0]
            yield x, zw, c * hop_sums[:, None]
        if len(number_excitation[1]):
            (i, j, k), g = number_excitation[0].T, number_excitation[1]
            rows, x_qubits = hop(*_distinct(i, k))
            x, zw, c = outer(rows, z_rows(z.take(j, axis=0)[:, None], -0.5), x_qubits, ())
            yield x, zw, c * g[:, None]

    merged = simplify(PauliOperatorSum.from_packed(batches(), num_qubits, constant), eps)
    if len(double_excitation[1]):
        merged = _folded_doubles(merged, *double_excitation, double, double_words, eps)
    worst = float(np.abs(merged.coefficients.imag).max(initial=0.0))
    if worst > eps:
        raise NonHermitianError(f"coefficient with |imag| = {worst:.3e} > {eps:.3e}")
    return merged
