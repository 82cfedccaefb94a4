"""Exact multi-qubit Pauli algebra on a packed symplectic bit representation.

A Pauli term is a complex coefficient times a tensor product of single-qubit
factors from {X, Y, Z} (identity factors are implicit).  Factors are stored as
two bit masks (x, z): bit q of ``x`` marks an X component on qubit q, bit q of
``z`` a Z component, and both bits together mean Y, so a term is
``c * i**|x&z| * X^x Z^z``.  The masks are packed into little-endian ``uint64``
words on the last axis (Aaronson & Gottesman's symplectic tableau, word-packed
as in Stim); a batch of terms is a tuple of packed rows ``(x, z, c)``, and a
``PauliOperatorSum`` holds one such batch over a fixed register.  Products are
computed exactly, with the +/-1, +/-i phase folded into the coefficient.
``outer`` is the one product.  Every factor the library multiplies (a JW
ladder, an edge operator, a Z-only row) has at most one X bit, so a product
of them has its X bits on qubits the caller knows; ``outer`` is told those
qubits and reads the phase from the Z bits at them alone.  Like terms are
merged before any word is built, by keys read from the terms
(``fermion.map_terms``), so this module has no merge of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

_I_POW_ARRAY = np.array((1, 1j, -1, -1j), dtype=complex)
#: Rows weighed at a time.
_WEIGHT_BLOCK = 1 << 15


class DimensionMismatchError(ValueError):
    """Raised when operands act on different qubit counts."""


class NonHermitianError(ValueError):
    """Raised when a mapped Hamiltonian has a coefficient that is not real."""


#: A batch of packed Pauli rows ``(x, z, c)``: x and z carry the words on their
#: last axis, c has the leading shape of x and z without it.
Packed = Tuple[np.ndarray, np.ndarray, np.ndarray]


def num_words(num_qubits: int) -> int:
    """uint64 words per mask; at least one, so empty registers keep a key."""
    return max(1, -(-num_qubits // 64))


def set_bits(rows, bits, num_rows: int, num_qubits: int) -> np.ndarray:
    """Words ``[num_rows, num_words(num_qubits)]`` with bit ``bits[k]`` set in
    row ``rows[k]`` and every other bit clear; each bit must be below
    ``num_qubits``."""
    out = np.zeros((num_rows, num_words(num_qubits)), dtype=np.uint64)
    bits = np.asarray(bits, dtype=np.uint64)
    np.bitwise_or.at(out, (rows, bits // np.uint64(64)), np.uint64(1) << bits % np.uint64(64))
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row, as int64, added a word column at a time: a sum over
    a short last axis pays a fixed cost per row, several times the additions
    at 2-4 words."""
    counts = np.bitwise_count(words)
    total = counts[..., 0].astype(np.int64)
    for w in range(1, counts.shape[-1]):
        total += counts[..., w]
    return total


def commute(a: Packed, b: Packed) -> np.ndarray:
    """True where the Pauli strings of two packed batches commute, broadcasting
    as numpy does: ``|ax & bz| + |az & bx|``, summed over the words, is even.
    Coefficients are not read, so ``(x, z)`` pairs serve as well."""
    return (_popcount(a[0] & b[1]) + _popcount(a[1] & b[0])) % 2 == 0


def _bits(words: np.ndarray, qubits: np.ndarray) -> np.ndarray:
    """Bit ``qubits[g]`` of every mask in group g, as int64 0 or 1: ``words``
    is ``[n, R, words]`` and ``qubits`` ``[n]``.

    The bits and the phases built from them use only numpy loops that a run
    calls anyway: int64 arithmetic, and ``%`` rather than ``&`` on signed
    integers.  Each loop that nothing else calls maps up to 64 KB more of
    numpy's code into every process (int8 arithmetic here cost about 0.3 MB),
    and peak RSS counts it."""
    word = words[np.arange(len(qubits)), :, qubits >> 6]
    word >>= (qubits % 64).astype(np.uint64)[:, None]
    word &= np.uint64(1)
    return word.view(np.int64)


def outer(a: Packed, b: Packed, a_x: Sequence[np.ndarray], b_x: Sequence[np.ndarray]) -> Packed:
    """Per-group outer product: ``a`` has R rows and ``b`` T rows per group
    (axis 1); the result has the R*T products ``a[r] * b[t]`` per group, r
    slowest.

    Every row of group g of ``a`` has its X bits on exactly the qubits
    ``a_x[k][g]`` and every row of ``b`` on ``b_x[k][g]``; pass ``()`` for a
    Z-only factor.  With each row written as ``c * i**|x&z| * X^x Z^z``, a
    product's power of i is ``|ax&az| + |bx&bz| - |x&z| + 2|az&bx|`` mod 4:
    the factors' Y counts less the product's, and a sign for each Z of ``a``
    moved past an X of ``b``.  Every count is zero away from the X qubits,
    so the phase is a sum over them (the phase rule of Aaronson & Gottesman):
    an X of ``a`` at e adds ``bz[e] * (2 az[e] - 1)`` and an X of ``b`` at e
    adds ``az[e] * (2 bz[e] + 1)``.  The qubits must all differ: a qubit
    listed twice, or an X bit left out, gives a wrong phase and no error.
    The library's factors meet this.  A hop's modes differ
    (``fermion._distinct``), so its JW qubits do.  A JW table multiplies
    ladders on distinct modes, and a loop stabilizer the edge operators
    around a cycle, whose edges differ.
    """
    (ax, az, ac), (bx, bz, bc) = a, b
    phase = np.zeros((len(ax), 1, 1), dtype=np.int64)
    for q in a_x:
        phase = phase + _bits(bz, q)[:, None] * (2 * _bits(az, q)[:, :, None] - 1)
    for q in b_x:
        phase = phase + _bits(az, q)[:, :, None] * (2 * _bits(bz, q)[:, None] + 1)
    z = az[:, :, None] ^ bz[:, None]
    # with no X in b, every product row keeps a's X words: a view when R == 1
    x = ax[:, :, None] ^ bx[:, None] if len(b_x) else np.broadcast_to(ax[:, :, None], z.shape)
    c = np.multiply(ac[:, :, None], bc[:, None])
    phase %= 4
    for power, unit in enumerate(_I_POW_ARRAY):  # times i**phase, in place, a power at a time
        np.multiply(c, unit, out=c, where=phase == power)
    n, words = x.shape[0], x.shape[-1]
    return x.reshape(n, -1, words), z.reshape(n, -1, words), c.reshape(n, -1)


def z_rows(z: np.ndarray, c) -> Packed:
    """Z-only rows: masks ``[n, R, words]``, coefficients broadcast to ``[n, R]``;
    the X words are a read-only broadcast zero."""
    c = np.broadcast_to(np.asarray(c, dtype=complex), z.shape[:2])
    return np.broadcast_to(np.uint64(0), z.shape), z, c


@dataclass(frozen=True, eq=False)
class PauliOperatorSum:
    """A qubit operator as packed Pauli rows over a fixed register.

    Rows may repeat a string.  A mapped Hamiltonian (``fermion.map_terms``)
    has one row per string, in the order of its row keys, not of the words:
    the Z-only strings, then those of each hop's X support, then those of
    each double excitation's X support by slot.
    """

    x: np.ndarray  # uint64 [n_terms, num_words(num_qubits)]
    z: np.ndarray
    coefficients: np.ndarray  # complex [n_terms]
    num_qubits: int

    def __post_init__(self):
        shape = (len(self.coefficients), num_words(self.num_qubits))
        if self.x.shape != shape or self.z.shape != shape:
            raise DimensionMismatchError(
                f"masks of shape {self.x.shape}/{self.z.shape} do not fit {shape}"
            )

    def weights(self) -> np.ndarray:
        """Non-identity factor count of every row, a block of rows at a
        time, so that no copy of the words is made."""
        out = np.empty(len(self), dtype=np.int64)
        for start in range(0, len(self), _WEIGHT_BLOCK):
            block = slice(start, start + _WEIGHT_BLOCK)
            out[block] = _popcount(self.x[block] | self.z[block])
        return out

    def __len__(self) -> int:
        return len(self.coefficients)


def coefficient_l1_norm(
    s: PauliOperatorSum, include_identity: bool = True, weights: Optional[np.ndarray] = None
) -> float:
    """Sum of |c| over the rows, or over the non-identity rows only; pass
    ``weights`` when ``s.weights()`` is already at hand.  The magnitudes are
    summed in sorted order, so the norm does not depend on the row order."""
    magnitudes = np.abs(s.coefficients)
    if not include_identity:
        magnitudes = magnitudes[(s.weights() if weights is None else weights) > 0]
    return float(np.sort(magnitudes).sum())
