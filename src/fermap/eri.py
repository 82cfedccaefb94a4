"""The one two-electron form of the library: the nonzero chemist-ordered
integrals (ij|kl) of m orbitals, by pair-packed position.

Under the 8-fold permutational symmetry of real orbitals only one slot per
orbit is independent.  Orbital pairs i <= j are numbered ``pair(i, j) =
j (j + 1) / 2 + i``, so there are P = m (m + 1) / 2 of them, and ``(ij|kl)``
for ``a = pair(ij) <= b = pair(kl)`` has packed position ``b (b + 1) / 2 +
a``: position ``b (b + 1) / 2`` onwards, ``b + 1`` of them, is row ``b`` of
the lower triangle of the P x P pair matrix, P (P + 1) / 2 positions in all.

``Survivors`` holds the entries that are not 0, by ascending packed
position, and no array of every position is built: ``pack_eri`` takes them
from a dense ``[m, m, m, m]`` tensor, and ``unpack_eri`` writes them back into
one for callers that need it (the dense oracle).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np


def triangular(n) -> np.ndarray:
    """n (n + 1) / 2: the number of pairs a <= b below n, elementwise."""
    n = np.asarray(n, dtype=np.int64)
    return n * (n + 1) // 2


def packed_length(m: int) -> int:
    """Packed positions of the ERI of m orbitals: P (P + 1) / 2, in Python ints,
    which do not wrap (int64 would from m = 77 936 on)."""
    pairs = int(m) * (int(m) + 1) // 2
    return pairs * (pairs + 1) // 2


def pair_orbitals(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Orbitals (i, j), i <= j, of every pair in pair order."""
    j, i = np.nonzero(np.tri(m, dtype=bool))
    return i, j


def pair_table(m: int) -> np.ndarray:
    """``[m, m]`` table of ``pair(i, j)`` for every ordered (i, j)."""
    orbitals = np.arange(m)
    return tri_index(orbitals[:, None], orbitals)


def tri_index(a, b) -> np.ndarray:
    """Index of (a, b), in either order, in a row-major lower triangle: the
    pair index of orbitals (a, b), or the packed position of pairs (a, b)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return triangular(hi) + lo


def packed_pairs(positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pair indices (a, b), a <= b, of packed positions."""
    positions = np.asarray(positions, dtype=np.int64)
    b = ((np.sqrt(8.0 * positions + 1.0) - 1.0) // 2).astype(np.int64)
    b += triangular(b + 1) <= positions  # mend float rounding either way
    b -= triangular(b) > positions
    return positions - triangular(b), b


def packed_indices(m: int, positions) -> Tuple[np.ndarray, ...]:
    """Orbitals (i, j, k, l) of the packed slots at ``positions``; i <= j,
    k <= l and pair(ij) <= pair(kl)."""
    a, b = packed_pairs(positions)
    first, second = pair_orbitals(m)
    return first[a], second[a], first[b], second[b]


def orbit_keys(i, j, k, l, m: int) -> np.ndarray:
    """``[n, 8]`` flat m^4 indices of the 8 symmetric copies of each
    (i, j, k, l); copies of a slot with repeated indices coincide."""
    i, j, k, l = (np.asarray(x, dtype=np.int64)[:, None] for x in (i, j, k, l))
    ij, ji, kl, lk = (a * m + b for a, b in ((i, j), (j, i), (k, l), (l, k)))
    bra, ket = np.hstack([ij, ji, ij, ji]), np.hstack([kl, kl, lk, lk])
    return np.hstack([bra * m * m + ket, ket * m * m + bra])


def pack_eri(dense: np.ndarray) -> "Survivors":
    """The survivors of an ``[m, m, m, m]`` tensor: of each orbit, the value
    at its lexicographically first slot, (ij|kl) with i <= j, k <= l and
    (i, j) <= (k, l), where that value is not 0.  That is the slot an
    integral file writes, so a tensor that is symmetric only to rounding packs
    to the values its file holds."""
    dense = np.asarray(dense, dtype=float)
    m = len(dense)
    upper = np.tri(m, dtype=bool).T  # i <= j
    flat = np.arange(m * m).reshape(m, m)
    first = (dense != 0) & upper[:, :, None, None] & upper & (flat[:, :, None, None] <= flat)
    i, j, k, l = np.nonzero(first)
    positions = tri_index(tri_index(i, j), tri_index(k, l))
    order = np.argsort(positions)
    return Survivors(positions[order], dense[i, j, k, l][order])


def unpack_eri(eri: "Survivors", m: int) -> np.ndarray:
    """The dense, exactly 8-fold symmetric ``[m, m, m, m]`` tensor of the
    survivors of m orbitals: each entry at its symmetric copies, 0 elsewhere."""
    positions, values = eri.checked(m)
    dense = np.zeros(m**4)
    dense[orbit_keys(*packed_indices(m, positions), m)] = values[:, None]
    return dense.reshape((m,) * 4)


class Survivors(NamedTuple):
    """The nonzero entries of the ERI of m orbitals: packed ``positions``,
    strictly ascending, and their finite ``values``; every other slot reads
    as 0."""

    positions: np.ndarray
    values: np.ndarray

    def checked(self, m: int) -> "Survivors":
        """These entries as int64 positions and float64 values, checked to be
        survivors of m orbitals; ValueError otherwise."""
        positions, values = np.asarray(self.positions), np.asarray(self.values)
        if positions.ndim != 1 or positions.dtype.kind not in "iu":
            raise ValueError("survivor positions must be a 1-D array of integers")
        if values.shape != positions.shape:
            raise ValueError(f"{values.size} survivor values for {positions.size} positions")
        if np.any(positions[1:] <= positions[:-1]):
            raise ValueError("survivor positions must be strictly ascending")
        last = packed_length(m) - 1
        if len(positions) and not 0 <= positions[0] <= positions[-1] <= last:
            raise ValueError(f"the ERI of {m} orbitals has packed positions 0 to {last}")
        if values.dtype.kind not in "iuf" or not np.isfinite(values).all() or not values.all():
            raise ValueError("survivor values must be finite, nonzero real numbers")
        return Survivors(positions.astype(np.int64, copy=False), values.astype(float, copy=False))
