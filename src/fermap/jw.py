"""Jordan-Wigner mapping of ladder operators and classified Hamiltonians.

Convention: ``a_j^ = (X_j - iY_j)/2 * Z_{j-1} ... Z_0`` (the Z string sits on
indices below j).

Every term kind is mapped in one batch: the ladder images of all its terms are
read from a per-register table of single bits and one of prefix masks (the Z
strings), and multiplied row-wise.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence, Tuple

import numpy as np

from .fermion import ClassifiedTerm, FermionHamiltonian, Kind, classify, group_by_kind
from .pauli import Packed, PauliOperatorSum, half_one_minus, merge_images, outer, pack_masks


def _register_tables(num_modes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``bits[j]`` is the mask of qubit j and ``prefix[j]`` that of qubits
    0..j-1 (the Z string of a_j), both as words."""
    bits = [1 << j for j in range(num_modes)]
    return pack_masks(bits, num_modes), pack_masks((b - 1 for b in bits), num_modes)


def _ladders(modes: np.ndarray, dagger: bool, tables) -> Packed:
    """a_j (or a_j^) for every j in ``modes``: two rows per mode."""
    bits, prefix = tables
    b, p = bits[modes], prefix[modes]
    c = np.array([0.5, -0.5j if dagger else 0.5j])
    return np.stack([b, b], axis=1), np.stack([p, p | b], axis=1), np.tile(c, (len(modes), 1))


def _plus_adjoint(ladders, tables) -> Packed:
    """Product of the ladder operators plus its adjoint: conjugated coefficients."""
    half = _ladders(*ladders[0], tables)
    for modes, dagger in ladders[1:]:
        half = outer(half, _ladders(modes, dagger, tables))
    x, z, c = half
    return x, z, c + c.conj()


def _kind_images(kind: Kind, idx: np.ndarray, tables) -> Packed:
    """Images of the unit-coefficient terms of one kind, grouped per term."""
    cols, bits = idx.T, tables[0]  # n_j = (1 - Z_j) / 2
    if kind is Kind.NUMBER:
        return half_one_minus(bits[cols[0]])
    if kind is Kind.COULOMB_EXCHANGE:
        return outer(half_one_minus(bits[cols[0]]), half_one_minus(bits[cols[1]]))
    if kind is Kind.EXCITATION:
        return _plus_adjoint([(cols[0], True), (cols[1], False)], tables)
    if kind is Kind.NUMBER_EXCITATION:
        hop = _plus_adjoint([(cols[0], True), (cols[2], False)], tables)
        return outer(half_one_minus(bits[cols[1]]), hop)
    if kind is Kind.DOUBLE_EXCITATION:
        i, j, k, l = cols
        return _plus_adjoint([(i, True), (j, True), (k, False), (l, False)], tables)
    if kind is Kind.PAIR_CREATION:
        return _plus_adjoint([(cols[0], True), (cols[1], True)], tables)
    raise ValueError(f"unhandled kind {kind}")


def jw_ladder(j: int, dagger: bool, num_modes: int) -> PauliOperatorSum:
    """Pauli image of a_j (or a_j^ when dagger) on num_modes qubits."""
    if not 0 <= j < num_modes:
        raise IndexError(f"mode {j} out of range for {num_modes} modes")
    rows = _ladders(np.array([j]), dagger, _register_tables(num_modes))
    return PauliOperatorSum.from_packed([rows], num_modes)


def jw_transform_terms(
    terms: Sequence[ClassifiedTerm],
    num_modes: int,
    constant: float = 0.0,
    eps: float = 1e-12,
) -> PauliOperatorSum:
    """Map classified terms to qubits, merge like terms and drop |c| < eps.

    Raises NonHermitianError when a merged coefficient has |imag| > eps.
    """
    images = partial(_kind_images, tables=_register_tables(num_modes))
    return merge_images(group_by_kind(terms), images, num_modes, constant, eps)


def jw_transform(
    h: FermionHamiltonian, cutoff: float = 0.0, eps: float = 1e-12
) -> PauliOperatorSum:
    """Map a fermionic Hamiltonian to qubits; Q equals the mode count."""
    terms = classify(h, cutoff)
    return jw_transform_terms(terms, h.num_modes, h.constant, eps)
