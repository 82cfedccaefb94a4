"""Ground-truth verification tools: dense matrices, Fock-space rebuilds,
code-space spectra under a stabilizer penalty, and the JW-vs-superfast
spectral comparison.

Everything here is desk-scale (hard cap of 12 qubits) and deliberately
independent of the bit-level Pauli algebra where it serves as an oracle.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .eri import unpack_eri
from .fermion import ClassifiedTerms, FermionHamiltonian, Kind, blocked_modes, classify_spatial
from .jw import jw_transform_terms
from .pauli import PauliOperatorSum, coefficient_l1_norm, commute
from .superfast import (
    add_parity_ancilla,
    build_interaction_graph,
    loop_stabilizers,
    ose_transform_terms,
)

DENSE_QUBIT_LIMIT = 12
#: Both mapped operators of ``sector_spectra_match`` drop merged |c| below this.
MERGE_EPS = 1e-12


class SizeError(ValueError):
    """Raised when a dense computation would exceed the qubit cap."""


def _check_size(num_qubits: int) -> None:
    if num_qubits > DENSE_QUBIT_LIMIT:
        raise SizeError(f"{num_qubits} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")


def dense_matrix(s: PauliOperatorSum) -> np.ndarray:
    """Dense matrix of a Pauli sum, one row at a time: from
    X^x Z^z |j> = (-1)^|z&j| |j ^ x>, a row puts c i^|x&z| (-1)^|z&j| at
    (j ^ x, j) for every basis index j, whose bit q is qubit q."""
    _check_size(s.num_qubits)
    j = np.arange(2**s.num_qubits, dtype=np.uint64)
    out = np.zeros((len(j),) * 2, dtype=complex)
    for x, z, c in zip(s.x[:, 0], s.z[:, 0], s.coefficients):
        sign = 1 - 2 * (np.bitwise_count(z & j) & 1).astype(np.int64)
        out[j ^ x, j] += c * 1j ** int(np.bitwise_count(x & z)) * sign
    return out


# --- dense Fock-space fermionic operators -----------------------------------


def fock_ladder_operators(num_modes: int) -> List[np.ndarray]:
    """Dense annihilation operators a_0..a_{M-1} on the 2^M Fock space.

    Occupation-number basis with bit j of the index giving the occupancy of
    mode j; signs follow the ordering a_{M-1}^ ... a_0^ |vac> for basis states.
    """
    _check_size(num_modes)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # a on one mode
    sign = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = []
    for j in range(num_modes):
        out = np.array([[1.0]], dtype=complex)
        for q in range(num_modes):
            if q < j:
                f = sign
            elif q == j:
                f = lower
            else:
                f = np.eye(2, dtype=complex)
            out = np.kron(f, out)
        ops.append(out)
    return ops


def fermion_dense(h: FermionHamiltonian) -> np.ndarray:
    """Dense Fock-space matrix of a Hamiltonian (small m only), summed over
    spins straight from its spatial integrals:
    c + sum_s sum_ij h_ij a_is^ a_js + 1/2 sum_st sum_ijkl (ij|kl) a_is^ a_kt^ a_lt a_js,
    with mode ``mode[i, s]`` of orbital i and spin s from ``blocked_modes``."""
    M = h.num_modes
    m = M // 2
    a = fock_ladder_operators(M)
    adag = [op.conj().T for op in a]
    orbital, spin = blocked_modes(M)
    mode = np.empty((m, 2), dtype=np.intp)
    mode[orbital, spin] = np.arange(M)
    eri = unpack_eri(h.eri, m)
    out = h.constant * np.eye(2**M, dtype=complex)
    for s in range(2):
        for i, j in np.argwhere(h.one_body != 0):
            out += h.one_body[i, j] * (adag[mode[i, s]] @ a[mode[j, s]])
        for t in range(2):
            for i, j, k, l in np.argwhere(eri != 0):
                p, q, r, u = mode[i, s], mode[k, t], mode[l, t], mode[j, s]
                out += 0.5 * eri[i, j, k, l] * (adag[p] @ adag[q] @ a[r] @ a[u])
    return out


def classified_dense(terms: ClassifiedTerms, num_modes: int, constant: float = 0.0) -> np.ndarray:
    """Rebuild classified terms into a dense Fock-space matrix."""
    a = fock_ladder_operators(num_modes)
    adag = [op.conj().T for op in a]
    n = [adag[j] @ a[j] for j in range(num_modes)]
    out = constant * np.eye(2**num_modes, dtype=complex)
    for kind, (indices, coefficients) in terms.by_kind.items():
        for idx, g in zip(indices.tolist(), coefficients.tolist()):
            if kind is Kind.NUMBER:
                out += g * n[idx[0]]
            elif kind is Kind.COULOMB_EXCHANGE:
                out += g * (n[idx[0]] @ n[idx[1]])
            elif kind is Kind.EXCITATION:
                half = adag[idx[0]] @ a[idx[1]]
                out += g * (half + half.conj().T)
            elif kind is Kind.NUMBER_EXCITATION:
                i, j, k = idx
                half = adag[i] @ a[k]
                out += g * (n[j] @ (half + half.conj().T))
            elif kind is Kind.DOUBLE_EXCITATION:
                i, j, k, l = idx
                half = adag[i] @ adag[j] @ a[k] @ a[l]
                out += g * (half + half.conj().T)
            else:
                raise ValueError(f"unhandled kind {kind}")
    return out


# --- code space --------------------------------------------------------------


def code_space_spectrum(h: PauliOperatorSum, stabs: PauliOperatorSum) -> np.ndarray:
    """Ascending eigenvalues of ``h`` on the joint +1 eigenspace of the
    Pauli rows ``stabs`` (signs included): those below c/2 of the one matrix
    M = h + (c/2) sum_k (I - S_k), c = 2 L1(h) + 1.

    The rows of ``h`` and ``stabs`` must commute with every S_k, so M keeps
    each joint eigenspace of the S_k.  On the code space M = h, whose
    eigenvalues lie in [-L1, L1]; elsewhere some S_k reads -1, which lifts
    every eigenvalue to at least c - L1 = L1 + 1."""
    c = 2 * coefficient_l1_norm(h) + 1
    identity = np.zeros((1, stabs.x.shape[1]), dtype=np.uint64)
    x, z = (np.concatenate([a, b, identity]) for a, b in ((h.x, stabs.x), (h.z, stabs.z)))
    if not commute((x[:, None], z[:, None]), (stabs.x, stabs.z)).all():
        raise RuntimeError("a row anticommutes with a stabilizer; upstream bug")
    coefficients = np.concatenate([h.coefficients, -c / 2 * stabs.coefficients, [c / 2 * len(stabs)]])
    evals = np.linalg.eigvalsh(dense_matrix(PauliOperatorSum(x, z, coefficients, h.num_qubits)))
    return evals[evals < c / 2]


# --- spectral comparison -----------------------------------------------------


def _component_even_indices(components: List[List[int]], num_modes: int) -> np.ndarray:
    """Fock basis indices whose occupation has even parity within every
    graph component (bit j of the index = occupation of mode j)."""
    idx = np.arange(2**num_modes, dtype=np.int64)
    keep = np.ones(idx.shape, dtype=bool)
    for comp in components:
        mask = sum(1 << v for v in comp)
        keep &= (np.bitwise_count(idx & mask) & 1) == 0
    return idx[keep]


def sector_spectra_match(
    h: FermionHamiltonian,
    cutoff: float = 0.0,
    parity_ancilla_mode: Optional[int] = None,
) -> float:
    """Max deviation between the JW spectrum on the physical parity sectors
    and the superfast-encoding spectrum on its code space.

    Both sides are computed independently: the JW matrix is restricted to the
    Fock states with even particle number inside every interaction-graph
    component; the encoded spectrum is that of the joint +1 eigenspace of the
    loop stabilizers (``code_space_spectrum``).
    """
    terms = classify_spatial(h.one_body, h.eri, cutoff)
    g = build_interaction_graph(terms, h.num_modes)
    if parity_ancilla_mode is not None:
        g = add_parity_ancilla(g, parity_ancilla_mode)
    num_modes = g.num_vertices  # includes the ancilla when requested
    _check_size(num_modes)
    _check_size(g.num_qubits)

    ose = ose_transform_terms(terms, g, h.constant, MERGE_EPS)
    evals_ose = code_space_spectrum(ose, loop_stabilizers(g))

    jw = jw_transform_terms(terms, num_modes, h.constant, MERGE_EPS)
    h_jw = dense_matrix(jw)
    sel = _component_even_indices(g.connected_components(), num_modes)
    h_sector = h_jw[np.ix_(sel, sel)]
    evals_jw = np.linalg.eigvalsh(h_sector)

    if len(evals_jw) != len(evals_ose):
        raise RuntimeError(
            f"sector dimensions differ: JW {len(evals_jw)} vs encoded {len(evals_ose)}"
        )
    if len(evals_jw) == 0:
        return 0.0
    return float(np.max(np.abs(np.sort(evals_jw) - np.sort(evals_ose))))
