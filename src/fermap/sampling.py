"""Random problem generators shared by the verification CLI and the tests."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .fermion import FermionHamiltonian, from_spatial_integrals


def random_spatial_integrals(
    num_orbitals: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric one-body matrix and 8-fold-symmetric chemist-ordered ERI
    tensor, symmetrized from draws uniform on [-1, 1]."""
    m = num_orbitals
    h1 = rng.uniform(-1.0, 1.0, size=(m, m))
    h1 = 0.5 * (h1 + h1.T)
    eri = rng.uniform(-1.0, 1.0, size=(m, m, m, m))
    acc = np.zeros_like(eri)
    for perm in [
        (0, 1, 2, 3),
        (1, 0, 2, 3),
        (0, 1, 3, 2),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 0, 1),
        (2, 3, 1, 0),
        (3, 2, 1, 0),
    ]:
        acc += eri.transpose(perm)
    return h1, acc / 8.0


def random_spatial_hamiltonian(num_orbitals: int, seed: int) -> FermionHamiltonian:
    """``random_spatial_integrals`` and a constant, drawn in that order from
    a generator seeded with ``seed``; the ERI is stored as survivors."""
    rng = np.random.default_rng(seed)
    h1, eri = random_spatial_integrals(num_orbitals, rng)
    constant = float(rng.uniform(-1.0, 1.0))
    return from_spatial_integrals(h1, eri, constant)

