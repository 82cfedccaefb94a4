"""Jordan-Wigner mapping of classified Hamiltonians.

Convention: ``a_j^ = (X_j - iY_j)/2 * Z_{j-1} ... Z_0`` (the Z string sits on
indices below j).

The encoding's three parts for ``fermion.map_terms``: n_j's Z word is qubit
j's bit, and a hop or a double excitation is the row-wise product of its
ladder images, each read from a per-register table of single bits and one of
prefix masks (the Z strings), plus its adjoint.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

import numpy as np

from .fermion import ClassifiedTerms, map_terms
from .pauli import Packed, PauliOperatorSum, outer, set_bits


def _register_tables(num_modes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``bits[j]`` is the mask of qubit j and ``prefix[j]`` that of qubits
    0..j-1 (the Z string of a_j), both as words."""
    modes = np.arange(num_modes)
    bits = set_bits(modes, modes, num_modes, num_modes)
    return bits, set_bits(*np.tril_indices(num_modes, -1), num_modes, num_modes)


def _ladders(modes: np.ndarray, dagger: bool, tables) -> Packed:
    """a_j (or a_j^) for every j in ``modes``: two rows per mode."""
    bits, prefix = tables
    b, p = bits[modes], prefix[modes]
    c = np.array([0.5, -0.5j if dagger else 0.5j])
    return np.stack([b, b], axis=1), np.stack([p, p | b], axis=1), np.tile(c, (len(modes), 1))


def _plus_adjoint(tables, *modes: np.ndarray) -> Packed:
    """a_{m_0}^ ... a_{m_h-1}^ a_{m_h} ... a_{m_2h-1} plus its adjoint for every
    row of the mode columns: the first half is created, the second half
    annihilated, and the adjoint conjugates the coefficients."""
    rows = _ladders(modes[0], True, tables)
    for r, m in enumerate(modes[1:], 1):
        rows = outer(rows, _ladders(m, r < len(modes) // 2, tables))
    x, z, c = rows
    return x, z, c + c.conj()


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
    images = partial(_plus_adjoint, tables)
    return map_terms(terms, tables[0], images, lambda idx: images(*idx.T), num_modes, constant, eps)
