"""Jordan-Wigner mapping of classified Hamiltonians.

Convention: ``a_j^ = (X_j - iY_j)/2 * Z_{j-1} ... Z_0`` (the Z string sits on
indices below j).

The encoding's parts for ``fermion.map_terms``: n_j's Z word is qubit j's
bit, and a hop or a double excitation is the product of its ladder images
plus its adjoint.  Its strings have X on the modes and Z on the XOR of the
modes' Z strings (a per-register table of prefix masks) and of the bit of
each mode whose ladder row is the Y one.  Its coefficients depend only on
the modes' relative order and those Y choices, so a chain of
``pauli.outer`` runs once per process over every ordering of 2 and of 4
modes, and each term reads its row of that table by the rank code of its
modes.  Only the strings that carry an even number of Y are written; the
adjoint cancels the others exactly.  A double excitation hands over the key
of its X support, its sorted modes and the slot of each of its 8 strings
there: the mask, over the sorted modes, of the modes whose ladder row is
the Y one, read by rank code from a table.  Words are built only for the
strings that ``map_terms`` keeps.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import combinations, permutations
from typing import Tuple

import numpy as np

from .fermion import ClassifiedTerms, map_terms
from .pauli import Packed, PauliOperatorSum, outer, set_bits


@cache
def _register_tables(num_modes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``bits[j]`` is the mask of qubit j and ``prefix[j]`` that of qubits
    0..j-1 (the Z string of a_j), both as words; built once per register
    size and read-only, since every caller of that size shares them."""
    modes = np.arange(num_modes)
    bits = set_bits(modes, modes, num_modes, num_modes)
    prefix = set_bits(*np.tril_indices(num_modes, -1), num_modes, num_modes)
    for table in (bits, prefix):
        table.flags.writeable = False
    return bits, prefix


def _ladders(modes: np.ndarray, dagger: bool, tables) -> Packed:
    """a_j (or a_j^) for every j in ``modes``: two rows per mode."""
    bits, prefix = tables
    b, p = bits[modes], prefix[modes]
    c = np.array([0.5, -0.5j if dagger else 0.5j])
    return np.stack([b, b], axis=1), np.stack([p, p | b], axis=1), np.tile(c, (len(modes), 1))


def _rank_code(modes) -> np.ndarray:
    """The relative order of distinct modes in every row: bit k is set where
    the k-th mode pair (a, b), a < b, in ``itertools.combinations`` order has
    ``m_a > m_b``.  Bits are set with ``+``: a signed ``|`` would call a numpy
    loop that nothing else in a run calls (see ``pauli._bits``)."""
    code = np.zeros(len(modes[0]), dtype=np.intp)
    for k, (a, b) in enumerate(combinations(range(len(modes)), 2)):
        code += (modes[a] > modes[b]).astype(np.intp) << k
    return code


def _even_y(num_factors: int) -> np.ndarray:
    """Y choices ``[rows, num_factors]`` of the product rows whose strings
    carry an even number of Y, in the product's row order (factor 0
    slowest).  Mode m_r's qubit is Y where choice r differs from the parity
    of the modes above m_r, whose Z strings cover it, so over distinct
    modes a string's Y count has the parity of its choices plus the number
    of mode pairs, whatever the modes' order."""
    rows = (np.arange(1 << num_factors)[:, None] >> np.arange(num_factors)[::-1]) % 2
    return rows[(rows.sum(axis=1) + num_factors * (num_factors - 1) // 2) % 2 == 0].astype(bool)


@cache
def _coefficient_table(num_factors: int) -> np.ndarray:
    """``c + conj(c)`` of every even-Y row of a ladder product, by the rank
    code of its modes.  The coefficient depends only on the relative order
    of the distinct modes and on which factors are Y, so the product runs
    once over every ordering of ``num_factors`` modes; each odd-Y row comes
    out exactly 0 and is left out.  Ladder r has its X bit on its own mode,
    and the product of the ladders before it on theirs."""
    orderings = np.array(list(permutations(range(num_factors))), dtype=np.intp)
    tables, modes = _register_tables(num_factors), tuple(orderings.T)
    ladders = [_ladders(m, r < num_factors // 2, tables) for r, m in enumerate(modes)]
    rows = ladders[0]
    for r in range(1, num_factors):
        rows = outer(rows, ladders[r], modes[:r], (modes[r],))
    c = rows[2]
    even = _even_y(num_factors) @ (1 << np.arange(num_factors)[::-1])
    table = np.zeros((1 << num_factors * (num_factors - 1) // 2, len(even)), complex)
    table[_rank_code(modes)] = (c + c.conj())[:, even]
    return table


def _hops(i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a_i^ a_k + h.c. for every pair, over X on i and k and Z on their Z
    strings: the coefficients of its two even-Y strings, read by the rank
    code of the modes, which have the Y on k (``z[k]`` XORed in), then on i
    (``_even_y``); they are real (c + conj(c))."""
    return _coefficient_table(2).real[_rank_code((i, k))]


@cache
def _double_slots() -> np.ndarray:
    """The slot (``fermion.SLOT_FLAGS``) of every even-Y row of a double
    excitation's ladder product, by the rank code of its modes.  A row's Z
    word is the XOR of the modes' Z strings and of the bits of the modes
    whose ladder row is the Y one, so its slot is the mask of those modes
    over the sorted modes, halved."""
    orderings = np.array(list(permutations(range(4))), dtype=np.intp)  # each mode is its rank
    masks = (_even_y(4).astype(np.intp)[None] << orderings[:, None]).sum(axis=2)
    table = np.zeros((64, len(masks[0])), dtype=np.intp)
    table[_rank_code(tuple(orderings.T))] = masks // 2
    return table


def _double_excitations(num_modes: int, idx: np.ndarray) -> Tuple[np.ndarray, ...]:
    """a_i^ a_j^ a_k a_l + h.c. for every row of ``idx``: the key of its X
    support, its four modes sorted and raveled, those modes, and the
    slots and coefficients of its eight even-Y strings, read by the rank
    code of the modes; the coefficients are real (c + conj(c))."""
    code = _rank_code(tuple(idx.T))
    modes = np.sort(idx, axis=1)
    support = np.ravel_multi_index(tuple(modes.T), (num_modes,) * 4)
    return support, modes, _double_slots()[code], _coefficient_table(4).real[code]


def _words(tables, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """X on the modes of every row of ``ends`` and Z on the XOR of their Z
    strings."""
    return tuple(reduce(np.bitwise_xor, [t.take(m, axis=0) for m in ends.T]) for t in tables)


def jw_transform_terms(
    terms: ClassifiedTerms,
    num_modes: int,
    constant: float = 0.0,
    eps: float = 1e-12,
) -> PauliOperatorSum:
    """Map classified terms to qubits, merge like terms and drop |c| < eps.

    Raises NonHermitianError when a merged coefficient has |imag| > eps.
    """
    tables = _register_tables(num_modes)
    double, words = partial(_double_excitations, num_modes), partial(_words, tables)
    return map_terms(terms, tables[0], _hops, double, words, num_modes, constant, eps)
