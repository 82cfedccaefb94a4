"""Orthogonalization of the single-particle basis and integral rotation.

Symmetric: X = U s^{-1/2} U^T (the inverse square root of the overlap);
canonical: X = U s^{-1/2} with optional truncation of small eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eri import packed_length, pair_orbitals, pair_table, put_rows, tri_index, triangular
from .lattice import LatticeSpec, RawIntegrals, lattice_integrals


#: Pair rows rotated per step of a half-transform.  Each step makes two
#: GEMM calls; fewer, larger calls keep the rotation fast when several
#: processes share the cores with multithreaded BLAS.
_ROTATE_BLOCK = 64


class NearLinearDependenceError(ValueError):
    """Overlap eigenvalue too small for the symmetric inverse square root;
    use the canonical orthogonalizer with truncation instead."""


class EmptyBasisError(ValueError):
    """Truncation removed every overlap eigenvalue."""


@dataclass(frozen=True)
class Orthogonalizer:
    matrix: np.ndarray  # m x k, X^T S X = identity
    kind: str  # "symmetric" | "canonical"
    dropped_eigenvalues: Tuple[float, ...] = ()


def symmetric_orthogonalizer(
    overlap: np.ndarray, eigenvalue_floor: float = 1e-10
) -> Orthogonalizer:
    s, u = np.linalg.eigh(np.asarray(overlap, dtype=float))
    if s.size == 0 or s.min() <= eigenvalue_floor:
        raise NearLinearDependenceError(
            f"smallest overlap eigenvalue {s.min() if s.size else 'n/a'} below "
            f"{eigenvalue_floor}; use canonical_orthogonalizer with truncation"
        )
    x = u @ np.diag(1.0 / np.sqrt(s)) @ u.T
    return Orthogonalizer(x, "symmetric")


def canonical_orthogonalizer(overlap: np.ndarray, tau: float = 1e-8) -> Orthogonalizer:
    if tau < 0:
        raise ValueError("tau must be non-negative")
    s, u = np.linalg.eigh(np.asarray(overlap, dtype=float))
    keep = s >= max(tau, 1e-300)
    if not np.any(keep):
        raise EmptyBasisError("all overlap eigenvalues fall below the threshold")
    x = u[:, keep] @ np.diag(1.0 / np.sqrt(s[keep]))
    return Orthogonalizer(x, "canonical", tuple(float(v) for v in s[~keep]))


def _congruence(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X^T M X for n symmetric m x m matrices M laid out as ``mats[p, b, q]
    = M_b[p, q]``, as the pairs i <= l of each result in pair order, ``[K,
    n]``.  Two flat GEMMs, X^T [M_0 ... M_n-1] and then that times X, with
    no transposed copy in between."""
    m, n, _ = mats.shape
    k = x.shape[1]
    rotated = ((x.T @ mats.reshape(m, n * m)).reshape(k * n, m) @ x).reshape(k, n, k)
    first, second = pair_orbitals(k)
    return rotated[first, :, second]


def rotate_integrals(
    raw: RawIntegrals, ortho: Orthogonalizer
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Rotated (one_body, packed eri, constant); the overlap becomes the
    identity and one_body is exactly symmetric.  The packed ERI has
    ``ortho.matrix.shape[1]`` orbitals."""
    x = ortho.matrix
    m, k = x.shape
    if m != raw.num_orbitals:
        raise ValueError("orthogonalizer dimension mismatch")
    h1 = x.T @ raw.core @ x
    # the product is symmetric only to rounding; keep the lower triangle, as an
    # FCIDUMP file does, so a dumped cell maps to the same coefficients
    h1 = np.tril(h1) + np.tril(h1, -1).T
    # two half-transforms, a block of pair rows at a time: each unpacks its
    # rows to m x m matrices and rotates them.  The first stores its result
    # transposed, row kl holding (pq|kl) for every pair pq; the second
    # rotates those rows and packs them straight into the output
    table = pair_table(m)[:, None, :]
    half = np.empty((triangular(k), triangular(m)))
    for start in range(0, half.shape[1], _ROTATE_BLOCK):
        rows = np.arange(start, min(start + _ROTATE_BLOCK, half.shape[1]))
        mats = raw.eri[tri_index(rows[:, None], table)]
        half[:, start : start + len(rows)] = _congruence(mats, x)
    # row kl keeps (ij|kl) for pair(ij) <= pair(kl), so j <= l: a block whose
    # last row has l = top - 1 needs only the first top columns of x
    _, second = pair_orbitals(k)
    # flat position of each unpacked entry [p, b, q] within a block of rows
    offsets = np.arange(_ROTATE_BLOCK)[:, None] * half.shape[1] + table
    eri = np.empty(packed_length(k))
    for start in range(0, len(half), _ROTATE_BLOCK):
        rows = half[start : start + _ROTATE_BLOCK]
        top = second[start + len(rows) - 1] + 1
        mats = np.take(rows, offsets[:, : len(rows)])
        put_rows(eri, start, _congruence(mats, x[:, :top]).T)
    return h1, eri, raw.nuclear_repulsion


def orthonormal_integrals(
    spec: LatticeSpec, rotation: str = "aos"
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The integrals stage: a lattice's (one_body, eri, constant) in the
    symmetric (``rotation="aos"``) or else the canonical orthonormal basis.
    The raw ERI, as large as the rotated one, is freed before this returns."""
    raw = lattice_integrals(spec)
    if rotation == "aos":
        ortho = symmetric_orthogonalizer(raw.overlap)
    else:
        ortho = canonical_orthogonalizer(raw.overlap)
    return rotate_integrals(raw, ortho)
