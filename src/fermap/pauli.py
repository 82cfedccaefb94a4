"""Exact multi-qubit Pauli algebra on a packed symplectic bit representation.

A Pauli term is a complex coefficient times a tensor product of single-qubit
factors from {X, Y, Z} (identity factors are implicit).  Factors are stored as
two bit masks (x, z): bit q of ``x`` marks an X component on qubit q, bit q of
``z`` a Z component, and both bits together mean Y, so a term is
``c * i**|x&z| * X^x Z^z``.  The masks are packed into little-endian ``uint64``
words on the last axis (Aaronson & Gottesman's symplectic tableau, word-packed
as in Stim); a batch of terms is a tuple of packed rows ``(x, z, c)``, and a
``PauliOperatorSum`` holds one such batch over a fixed register.  Products are
computed exactly, with the +/-1, +/-i phase folded into the coefficient, and
``simplify`` merges like terms by a hashed row key that it checks exactly.
``outer`` is the one product.  Every factor the library multiplies (a JW
ladder, an edge operator, a Z-only row) has at most one X bit, so a product
of them has its X bits on qubits the caller knows; ``outer`` is told those
qubits and reads the phase from the Z bits at them alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

_I_POW_ARRAY = np.array((1, 1j, -1, -1j), dtype=complex)

#: The row key's start state on each merge attempt; ``simplify`` gives up after the last.
_KEY_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7, 0xF39CC0605CEDC835],
    dtype=np.uint64,
)
MERGE_ATTEMPTS = len(_KEY_SEEDS)
#: The splitmix64 finalizer: (shift, multiplier) twice, then a last shift.
_MIX_STEPS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)
_MIX_LAST_SHIFT = np.uint64(31)
#: Rows keyed at a time.
_KEY_BLOCK = 8192


class DimensionMismatchError(ValueError):
    """Raised when operands act on different qubit counts."""


class KeyCollisionError(RuntimeError):
    """Raised when every merge attempt gives two distinct Pauli strings one key."""


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

    Rows may repeat a string until ``simplify`` merges them; a merged sum has
    one row per string, in the order of the merge's row keys, not of the words.
    A mapped Hamiltonian (``fermion.map_terms``) has one row per string too:
    the merged rows, in key order, then the double excitations' rows, whose
    strings no other row has, in the order of their X support and slot.
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

    @classmethod
    def from_packed(
        cls, batches: Iterable[Packed], num_qubits: int, constant: complex = 0.0
    ) -> "PauliOperatorSum":
        """One sum from packed batches of any leading shape, after an identity
        row carrying ``constant`` when it is nonzero.  Each batch is copied
        once, into its rows of the sum, so a broadcast batch is never
        materialized on its own.  Every batch is drawn, to size the sum,
        before any is copied: all of them are alive at once, and with the
        sum's arrays until it returns (ROADMAP item 2)."""
        words, n = num_words(num_qubits), 1 if constant else 0
        rows = [(np.zeros((n, words), np.uint64),) * 2 + (np.full(n, constant, dtype=complex),)]
        rows += batches
        total = sum(c.size for _, _, c in rows)
        x, z = (np.empty((total, words), np.uint64) for _ in range(2))
        out = x, z, np.empty(total, complex)
        start = 0
        for batch in rows:
            stop = start + batch[2].size
            for part, column in zip(batch, out):
                np.copyto(column[start:stop].reshape(part.shape), part)
            start = stop
        return cls(*out, num_qubits)

    def weights(self) -> np.ndarray:
        """Non-identity factor count of every row."""
        return _popcount(self.x | self.z)

    def __len__(self) -> int:
        return len(self.coefficients)


def _row_keys(x: np.ndarray, z: np.ndarray, attempt: int) -> np.ndarray:
    """A 64-bit key per row: starting from attempt's seed, each of the row's
    words, x then z, is XORed into the state and mixed by the splitmix64
    finalizer (Steele, Lea & Flood, OOPSLA 2014), a block of rows at a time
    so that the block's words stay in cache across the folds."""
    keys = np.empty(len(x), dtype=np.uint64)
    buffer = np.empty(min(len(x), _KEY_BLOCK), dtype=np.uint64)
    for start in range(0, len(x), _KEY_BLOCK):
        block = slice(start, start + _KEY_BLOCK)
        state = keys[block]
        shifted = buffer[: len(state)]
        state.fill(_KEY_SEEDS[attempt])
        for word in (*x[block].T, *z[block].T):
            state ^= word
            for shift, multiplier in _MIX_STEPS:
                np.right_shift(state, shift, out=shifted)
                state ^= shifted
                state *= multiplier
            np.right_shift(state, _MIX_LAST_SHIFT, out=shifted)
            state ^= shifted
    return keys


def simplify(s: PauliOperatorSum, eps: float = 1e-12) -> PauliOperatorSum:
    """Merge like terms and drop coefficients that are 0 or below eps in magnitude.

    Rows are grouped by a 64-bit key of their words (``_row_keys``) and one
    argsort; the output is in key order, the same on every run.  Keys are
    checked exactly: rows that share a key must share their words, and if two
    do not, the merge starts again from the next seed, raising
    KeyCollisionError after ``MERGE_ATTEMPTS`` attempts, so two distinct
    strings are never merged.  Each group's coefficients are summed in input
    order, so the sums do not depend on the key, the sort or a retry.  eps
    must satisfy 0 <= eps < inf (ValueError otherwise): a NaN or infinite
    eps would drop every term.  ``fermion.map_terms`` hands it every row but
    the double excitations', which no other row can meet; it sums those
    itself, in the same order and with the same eps rule.
    """
    if not 0 <= eps < np.inf:
        raise ValueError("eps must be non-negative and finite")
    for attempt in range(MERGE_ATTEMPTS):
        keys = _row_keys(s.x, s.z, attempt)
        order = np.argsort(keys)
        keys = keys[order]
        x, z = np.take(s.x, order, axis=0), np.take(s.z, order, axis=0)
        first = np.empty(len(order), dtype=bool)  # where a row's key differs from the last row's
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # a word that differs from the last row's where the key does not is a collision
        if not any(np.greater(w[1:] != w[:-1], first[1:, None]).any() for w in (x, z)):
            break
    else:
        raise KeyCollisionError(
            f"each of {MERGE_ATTEMPTS} key seeds gave two distinct strings one key"
        )
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.add.accumulate(first, dtype=np.intp) - 1
    starts = np.flatnonzero(first)
    merged = np.empty(len(starts), dtype=complex)
    merged.real = np.bincount(group, s.coefficients.real, len(starts))
    merged.imag = np.bincount(group, s.coefficients.imag, len(starts))
    kept = np.abs(merged) >= eps if eps else merged != 0  # |c| >= eps > 0 implies c != 0
    rows = starts[kept]
    x, z = np.take(x, rows, axis=0), np.take(z, rows, axis=0)
    return PauliOperatorSum(x, z, merged[kept], s.num_qubits)


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
