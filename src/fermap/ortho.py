"""Orthogonalization of the single-particle basis and integral rotation.

Symmetric: X = U s^{-1/2} U^T (the inverse square root of the overlap);
canonical: X = U s^{-1/2} with optional truncation of small eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .lattice import LatticeSpec, RawIntegrals, lattice_integrals


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


def rotate_integrals(
    raw: RawIntegrals, ortho: Orthogonalizer
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Rotated (one_body, eri, constant); the overlap becomes the identity."""
    x = ortho.matrix
    if x.shape[0] != raw.num_orbitals:
        raise ValueError("orthogonalizer dimension mismatch")
    h1 = x.T @ raw.core @ x
    # four GEMMs: each contracts the leading index with x and appends its
    # image last, so after four the order is ijkl again; at most two m^4
    # intermediates are alive besides the raw tensor
    m, k = x.shape
    eri = raw.eri
    for _ in range(4):
        eri = eri.reshape(m, -1).T @ x
    return h1, eri.reshape(k, k, k, k), raw.nuclear_repulsion


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
