"""Exact multi-qubit Pauli algebra on a symplectic bit representation.

A Pauli term is a complex coefficient times a tensor product of single-qubit
factors from {X, Y, Z} (identity factors are implicit).  Factors are stored as
two bit masks (x, z): bit q of ``x`` marks an X component on qubit q, bit q of
``z`` a Z component, and both bits together mean Y.  Products are computed
exactly, with the +/-1, +/-i phase folded into the coefficient.

``PauliTerm`` holds one term with Python-integer masks.  ``PauliOperatorSum``
holds many terms as arrays: the masks packed into little-endian ``uint64``
words of shape ``[n_terms, num_words(Q)]`` (Aaronson & Gottesman's symplectic
tableau, word-packed as in Stim) plus a complex coefficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

_I_POW = (1, 1j, -1, -1j)
_I_POW_ARRAY = np.array(_I_POW, dtype=complex)

_LETTER_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class DimensionMismatchError(ValueError):
    """Raised when operands act on different qubit counts."""


class NonHermitianError(ValueError):
    """Raised when a mapped Hamiltonian has a coefficient that is not real."""


@dataclass(frozen=True)
class PauliTerm:
    """One coefficient times a product of single-qubit Pauli factors."""

    coefficient: complex
    x: int
    z: int
    num_qubits: int

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        mask = (1 << self.num_qubits) - 1
        if (self.x | self.z) & ~mask:
            raise ValueError("factor index out of range")

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliTerm":
        return cls(complex(coefficient), 0, 0, num_qubits)

    @classmethod
    def from_factors(
        cls,
        coefficient: complex,
        factors: Mapping[int, str],
        num_qubits: int,
    ) -> "PauliTerm":
        x = z = 0
        for q, letter in factors.items():
            if not 0 <= q < num_qubits:
                raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(complex(coefficient), x, z, num_qubits)

    @property
    def factors(self) -> Dict[int, str]:
        """Map qubit index -> factor letter, identity factors absent."""
        out = {}
        support = self.x | self.z
        q = 0
        while support >> q:
            if (support >> q) & 1:
                out[q] = _BITS_TO_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)]
            q += 1
        return out

    def weight(self) -> int:
        """Number of non-identity factors."""
        return (self.x | self.z).bit_count()

    def sort_key(self) -> Tuple:
        return tuple(sorted(self.factors.items()))

    def adjoint(self) -> "PauliTerm":
        return PauliTerm(self.coefficient.conjugate(), self.x, self.z, self.num_qubits)

    def commutes_with(self, other: "PauliTerm") -> bool:
        """True when the underlying Pauli strings commute."""
        anti = ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2
        return anti == 0

    def __str__(self) -> str:
        body = " ".join(f"{letter}{q}" for q, letter in sorted(self.factors.items()))
        return f"({self.coefficient:+g}) {body or 'I'}"


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Operator product a*b with the phase folded into the coefficient.

    Internally each term is ``c * i**|x&z| * X^x Z^z``; commuting the Z part of
    ``a`` through the X part of ``b`` contributes ``(-1)**|z_a & x_b|`` and the
    Y bookkeeping contributes an exact power of i.
    """
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"cannot multiply terms on {a.num_qubits} and {b.num_qubits} qubits"
        )
    x = a.x ^ b.x
    z = a.z ^ b.z
    phase = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return PauliTerm(a.coefficient * b.coefficient * _I_POW[phase], x, z, a.num_qubits)


#: A batch of packed Pauli rows ``(x, z, c)``: x and z carry the words on their
#: last axis, c has the leading shape of x and z without it.
Packed = Tuple[np.ndarray, np.ndarray, np.ndarray]


def num_words(num_qubits: int) -> int:
    """uint64 words per mask; at least one, so empty registers keep a key."""
    return max(1, -(-num_qubits // 64))


def pack_masks(masks: Iterable[int], num_qubits: int) -> np.ndarray:
    """Python-integer masks as a uint64 word array ``[n, num_words(num_qubits)]``."""
    words = num_words(num_qubits)
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, words).astype(np.uint64)


def _to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def product(a: Packed, b: Packed) -> Packed:
    """Row-wise product of two packed batches, broadcasting as numpy does.

    The same rule as :func:`multiply`, with each bit count summed across the
    words of a row before the phase is taken mod 4.
    """
    ax, az, ac = a
    bx, bz, bc = b
    x = ax ^ bx
    z = az ^ bz
    phase = (
        _popcount(ax & az) + _popcount(bx & bz) - _popcount(x & z) + 2 * _popcount(az & bx)
    ) % 4
    return x, z, ac * bc * _I_POW_ARRAY[phase]


def outer(a: Packed, b: Packed) -> Packed:
    """Per-group outer product: ``a`` has R rows and ``b`` T rows per group
    (axis 1); the result has the R*T products ``a[r] * b[t]`` per group."""
    (ax, az, ac), (bx, bz, bc) = a, b
    x, z, c = product(
        (ax[:, :, None], az[:, :, None], ac[:, :, None]),
        (bx[:, None], bz[:, None], bc[:, None]),
    )
    n, words = x.shape[0], x.shape[-1]
    return x.reshape(n, -1, words), z.reshape(n, -1, words), c.reshape(n, -1)


def z_rows(z: np.ndarray, c) -> Packed:
    """Z-only rows: masks ``[n, R, words]``, coefficients broadcast to ``[n, R]``."""
    return np.zeros_like(z), z, np.broadcast_to(np.asarray(c, dtype=complex), z.shape[:2])


def half_one_minus(z: np.ndarray) -> Packed:
    """(1 - Z^z) / 2 for every mask row of z: two rows per mask."""
    return z_rows(np.stack([np.zeros_like(z), z], axis=1), (0.5, -0.5))


@dataclass(frozen=True, eq=False)
class PauliOperatorSum:
    """A qubit operator as packed Pauli rows over a fixed register."""

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
    def from_terms(cls, terms: Iterable[PauliTerm], num_qubits: int) -> "PauliOperatorSum":
        terms = tuple(terms)
        if any(t.num_qubits != num_qubits for t in terms):
            raise DimensionMismatchError("all terms must share num_qubits")
        return cls(
            pack_masks((t.x for t in terms), num_qubits),
            pack_masks((t.z for t in terms), num_qubits),
            np.array([t.coefficient for t in terms], dtype=complex),
            num_qubits,
        )

    @classmethod
    def from_packed(
        cls, batches: Iterable[Packed], num_qubits: int, constant: complex = 0.0
    ) -> "PauliOperatorSum":
        """One sum from packed batches of any leading shape, after an identity
        row carrying ``constant`` when it is nonzero."""
        words, n = num_words(num_qubits), 1 if constant else 0
        rows = [(np.zeros((n, words), np.uint64),) * 2 + (np.full(n, constant, dtype=complex),)]
        rows += [(x.reshape(-1, words), z.reshape(-1, words), c.reshape(-1)) for x, z, c in batches]
        x, z, c = (np.concatenate(col) for col in zip(*rows))
        return cls(x, z, c, num_qubits)

    @property
    def terms(self) -> Tuple[PauliTerm, ...]:
        """The rows as scalar terms, built on each access."""
        return tuple(
            PauliTerm(complex(c), _to_int(x), _to_int(z), self.num_qubits)
            for x, z, c in zip(self.x, self.z, self.coefficients)
        )

    def weights(self) -> np.ndarray:
        """Non-identity factor count of every row."""
        return _popcount(self.x | self.z)

    def __add__(self, other: "PauliOperatorSum") -> "PauliOperatorSum":
        if self.num_qubits != other.num_qubits:
            raise DimensionMismatchError("cannot add sums on different registers")
        rows = [(s.x, s.z, s.coefficients) for s in (self, other)]
        return PauliOperatorSum.from_packed(rows, self.num_qubits)

    def scaled(self, factor: complex) -> "PauliOperatorSum":
        return PauliOperatorSum(self.x, self.z, self.coefficients * factor, self.num_qubits)

    def sorted_terms(self) -> Tuple[PauliTerm, ...]:
        """Deterministic ordering: lexicographic on (factor indices, letters)."""
        return tuple(sorted(self.terms, key=PauliTerm.sort_key))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.sorted_terms()) or "0"


def simplify(s: PauliOperatorSum, eps: float = 1e-12) -> PauliOperatorSum:
    """Merge like terms and drop coefficients with magnitude below eps.

    A stable lexsort on the (x, z) words groups like rows, so the output is
    ordered by the words and the same on every run.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    keys = np.concatenate([s.x, s.z], axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    merged = np.add.reduceat(s.coefficients[order], starts)
    kept = np.abs(merged) >= eps
    rows = order[starts[kept]]
    return PauliOperatorSum(s.x[rows], s.z[rows], merged[kept], s.num_qubits)


def merge_images(grouped, kind_images, num_qubits: int, constant: complex, eps: float):
    """Scale each kind's packed unit images ``kind_images(kind, indices)`` by
    the coefficients in ``grouped[kind]``, add ``constant`` times the identity,
    merge and cut at eps.  A Pauli sum is Hermitian exactly when its merged
    coefficients are real, so any |imag| above eps raises NonHermitianError.
    """
    images = []
    for kind, (indices, coefficients) in grouped.items():
        x, z, c = kind_images(kind, indices)
        images.append((x, z, c * coefficients[:, None]))
    merged = simplify(PauliOperatorSum.from_packed(images, num_qubits, constant), eps)
    worst = float(np.abs(merged.coefficients.imag).max(initial=0.0))
    if worst > eps:
        raise NonHermitianError(f"coefficient with |imag| = {worst:.3e} > {eps:.3e}")
    return merged


def coefficient_l1_norm(s: PauliOperatorSum, include_identity: bool = True) -> float:
    magnitudes = np.abs(s.coefficients)
    if not include_identity:
        magnitudes = magnitudes[s.weights() > 0]
    return float(magnitudes.sum())
