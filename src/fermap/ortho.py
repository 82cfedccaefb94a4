"""Orthogonalization of the single-particle basis and integral rotation.

Symmetric: X = U s^{-1/2} U^T (the inverse square root of the overlap);
canonical: X = U s^{-1/2} over the eigenvalues above a fixed threshold.

The ERI is rotated in one symmetric P x P matrix of pair integrals, P =
m (m + 1) / 2: the packed ERI is unpacked into it once, the first half-
transform rotates the pair ij of every row in place, the matrix is
transposed in place, and the second half rotates the pair kl of each row
straight into the packed output.  Both halves read each block of pair rows
as m x m matrices through one table of fixed offsets and rotate them with
two flat GEMMs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .eri import get_rows, packed_length, pair_orbitals, pair_table, put_rows, triangular
from .lattice import LatticeSpec, RawIntegrals, lattice_integrals


#: Pair rows rotated per step of a half-transform, and the side of the tiles
#: the pair matrix is mirrored and transposed in.  Each step makes two GEMM
#: calls; fewer, larger calls keep the rotation fast when several processes
#: share the cores with multithreaded BLAS.
_ROTATE_BLOCK = 64

#: The symmetric orthogonalizer refuses an overlap eigenvalue at or below
#: this; the canonical one keeps the eigenvalues at or above its threshold.
EIGENVALUE_FLOOR = 1e-10
TRUNCATION_TAU = 1e-8


class NearLinearDependenceError(ValueError):
    """Overlap eigenvalue too small for the symmetric inverse square root;
    use the canonical orthogonalizer with truncation instead."""


class EmptyBasisError(ValueError):
    """Truncation removed every overlap eigenvalue."""


def symmetric_orthogonalizer(overlap: np.ndarray) -> np.ndarray:
    """X = S^{-1/2}, the m x m orthogonalizer closest to the original basis;
    NearLinearDependenceError when an overlap eigenvalue is at or below
    ``EIGENVALUE_FLOOR``."""
    s, u = np.linalg.eigh(np.asarray(overlap, dtype=float))
    if s.size == 0 or s.min() <= EIGENVALUE_FLOOR:
        raise NearLinearDependenceError(
            f"smallest overlap eigenvalue {s.min() if s.size else 'n/a'} below "
            f"{EIGENVALUE_FLOOR}; use canonical_orthogonalizer with truncation"
        )
    return u @ np.diag(1.0 / np.sqrt(s)) @ u.T


def canonical_orthogonalizer(overlap: np.ndarray) -> np.ndarray:
    """X = U s^{-1/2} over the overlap eigenvalues s >= ``TRUNCATION_TAU``,
    an m x k matrix with k <= m; EmptyBasisError when none is kept."""
    s, u = np.linalg.eigh(np.asarray(overlap, dtype=float))
    keep = s >= TRUNCATION_TAU
    if not np.any(keep):
        raise EmptyBasisError("all overlap eigenvalues fall below the threshold")
    return u[:, keep] @ np.diag(1.0 / np.sqrt(s[keep]))


def _congruence(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X^T M X for n symmetric m x m matrices M laid out as ``mats[p, b, q]
    = M_b[p, q]``, as one row per matrix of the pairs i <= l of its result in
    pair order, ``[n, K]``.  Two flat GEMMs, X^T [M_0 ... M_n-1] and then
    that times X, with no transposed copy in between."""
    m, n, _ = mats.shape
    k = x.shape[1]
    rotated = ((x.T @ mats.reshape(m, n * m)).reshape(k * n, m) @ x).reshape(k, n, k)
    first, second = pair_orbitals(k)
    return rotated.transpose(1, 0, 2)[:, first, second]


def _unpack_pairs(packed: np.ndarray, full: np.ndarray) -> None:
    """Fill ``full`` with the symmetric P x P pair matrix of a packed ERI:
    copy its packed rows a block at a time, then mirror each block's entries
    into the rows above it, tile by tile."""
    size, block = len(full), _ROTATE_BLOCK
    upper = ~np.tri(min(block, size), dtype=bool)
    for start in range(0, size, block):
        stop = min(start + block, size)
        get_rows(packed, start, full[start:stop])
        for col in range(0, start, block):
            full[col : col + block, start:stop] = full[start:stop, col : col + block].T
        tile = full[start:stop, start:stop]
        np.copyto(tile, tile.T, where=upper[: stop - start, : stop - start])


def _transpose_pairs(full: np.ndarray, kept: int) -> None:
    """Transpose ``full[:, :kept]`` in place into ``full[:kept]``, tile by
    tile: swap the tiles of the leading kept x kept square, then copy the
    rows below it into the columns to its right."""
    size, block = len(full), _ROTATE_BLOCK
    for start in range(0, kept, block):
        rows = slice(start, min(start + block, kept))
        for col in range(0, start, block):
            cols = slice(col, col + block)
            upper = full[cols, rows].copy()
            full[cols, rows] = full[rows, cols].T
            full[rows, cols] = upper.T
        full[rows, rows] = full[rows, rows].T.copy()
    for start in range(kept, size, block):
        rows = slice(start, min(start + block, size))
        full[:kept, rows] = full[rows, :kept].T


def rotate_integrals(raw: RawIntegrals, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Rotated (one_body, packed eri, constant) in the basis of the columns
    of the m x k orthogonalizer ``x``; the overlap becomes the identity and
    one_body is exactly symmetric.  The packed ERI has k orbitals."""
    m, k = x.shape
    if m != raw.num_orbitals:
        raise ValueError("orthogonalizer dimension mismatch")
    h1 = x.T @ raw.core @ x
    # the product is symmetric only to rounding; keep the lower triangle, as an
    # FCIDUMP file does, so a dumped cell maps to the same coefficients
    h1 = np.tril(h1) + np.tril(h1, -1).T
    # full[a, b] = (ij|kl) for a = pair(ij), b = pair(kl); offsets[p, r, q]
    # is the flat position of pair(p, q) in row r of a block of rows
    size, kept = triangular(m), triangular(k)
    full = np.empty((size, size))
    _unpack_pairs(raw.eri, full)
    offsets = np.arange(_ROTATE_BLOCK)[:, None] * size + pair_table(m)[:, None, :]
    # the first half rotates pq in each row kl and writes the row back in
    # place: full[kl, ij] = (ij|kl), rotated ij < kept
    for start in range(0, size, _ROTATE_BLOCK):
        rows = full[start : start + _ROTATE_BLOCK]
        rows[:, :kept] = _congruence(np.take(rows, offsets[:, : len(rows)]), x)
    # the second half rotates kl in each row ij of the transpose and packs
    # straight into the output.  Row ij keeps (ij|kl) for pair(kl) <=
    # pair(ij), so l <= j: a block whose last row has j = top - 1 needs only
    # the first top columns of x
    _transpose_pairs(full, kept)
    _, second = pair_orbitals(k)
    eri = np.empty(packed_length(k))
    for start in range(0, kept, _ROTATE_BLOCK):
        rows = full[start : min(start + _ROTATE_BLOCK, kept)]
        top = second[start + len(rows) - 1] + 1
        mats = np.take(rows, offsets[:, : len(rows)])
        put_rows(eri, start, _congruence(mats, x[:, :top]))
    return h1, eri, raw.nuclear_repulsion


def orthonormal_integrals(
    spec: LatticeSpec, rotation: str = "aos"
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The integrals stage: a lattice's (one_body, eri, constant) in the
    symmetric (``rotation="aos"``) or else the canonical orthonormal basis.
    The raw ERI, as large as the rotated one, is freed before this returns."""
    raw = lattice_integrals(spec)
    if rotation == "aos":
        x = symmetric_orthogonalizer(raw.overlap)
    else:
        x = canonical_orthogonalizer(raw.overlap)
    return rotate_integrals(raw, x)
