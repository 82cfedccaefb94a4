"""Second-quantized Hamiltonians over spin orbitals and their term classification.

The two-body tensor follows the physicist ordering: ``h[p,q,r,s]`` multiplies
``a_p^ a_q^ a_r a_s`` (daggers on the first two).  Ingestion from spatial
integrals takes the chemist-convention ERI tensor ``(ij|kl)`` and expands spin
with Kronecker deltas, so ``h[p,q,r,s] = (1/2) (ps|qr)`` for compatible spins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

SYMMETRY_ATOL = 1e-10


class Kind(enum.Enum):
    NUMBER = "number"
    COULOMB_EXCHANGE = "coulomb_exchange"
    EXCITATION = "excitation"
    NUMBER_EXCITATION = "number_excitation"
    DOUBLE_EXCITATION = "double_excitation"
    PAIR_CREATION = "pair_creation"


# kinds whose second-quantized form is already self-adjoint (no h.c. partner)
_SELF_ADJOINT = {Kind.NUMBER, Kind.COULOMB_EXCHANGE}


@dataclass(frozen=True)
class ClassifiedTerm:
    """One self-adjoint Hamiltonian term in canonical index form.

    kind/indices semantics (coefficient g, anticommutation signs folded in):
      NUMBER (i,):                g * n_i
      COULOMB_EXCHANGE (i, j):    g * n_i n_j                      (i < j)
      EXCITATION (i, j):          g * (a_i^ a_j + a_j^ a_i)        (i < j)
      NUMBER_EXCITATION (i,j,k):  g * n_j (a_i^ a_k + a_k^ a_i)    (i < k)
      DOUBLE_EXCITATION (i,j,k,l): g * (a_i^ a_j^ a_k a_l + h.c.)  (i<j, l<k,
                                   tuple lexicographically minimal vs its h.c.)
      PAIR_CREATION (i, j):       g * (a_i^ a_j^ + a_j a_i)        (i < j)
    """

    kind: Kind
    indices: Tuple[int, ...]
    coefficient: float


@dataclass
class FermionHamiltonian:
    constant: float
    one_body: np.ndarray
    two_body: np.ndarray
    num_modes: int

    def validate(self, atol: float = SYMMETRY_ATOL) -> None:
        m = self.num_modes
        if self.one_body.shape != (m, m):
            raise ValueError("one_body shape mismatch")
        if self.two_body.shape != (m, m, m, m):
            raise ValueError("two_body shape mismatch")
        if np.abs(self.one_body - self.one_body.T).max() > atol:
            raise ValueError("one_body must be symmetric")
        h2 = self.two_body
        if np.abs(h2 - h2.transpose(1, 0, 3, 2)).max() > atol:
            raise ValueError("two_body must satisfy h_pqrs = h_qpsr")
        if np.abs(h2 - h2.transpose(3, 2, 1, 0)).max() > atol:
            raise ValueError("two_body must satisfy h_pqrs = h_srqp")


def spin_of(p: int, num_modes: int, interleaving: str = "blocked") -> int:
    if interleaving == "interleaved":
        return p % 2
    if interleaving == "blocked":
        return 0 if p < num_modes // 2 else 1
    raise ValueError(f"unknown interleaving {interleaving!r}")


def from_spatial_integrals(
    h1_spatial: np.ndarray,
    eri_chemist: np.ndarray,
    constant: float = 0.0,
    interleaving: str = "blocked",
) -> FermionHamiltonian:
    """Expand spatial-orbital integrals to a spin-orbital Hamiltonian.

    ``eri_chemist[i,j,k,l]`` is the chemist-notation integral (ij|kl).
    """
    h1 = np.asarray(h1_spatial, dtype=float)
    eri = np.asarray(eri_chemist, dtype=float)
    m = h1.shape[0]
    if np.abs(h1 - h1.T).max() > SYMMETRY_ATOL:
        raise ValueError("spatial one-body matrix must be symmetric")
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        if np.abs(eri - eri.transpose(perm)).max() > SYMMETRY_ATOL:
            raise ValueError("ERI tensor must have 8-fold permutational symmetry")
    M = 2 * m
    spins = np.array([spin_of(p, M, interleaving) for p in range(M)])
    orb = _spatial_index(M, interleaving)
    same = spins[:, None] == spins[None, :]

    one_body = h1[np.ix_(orb, orb)] * same
    # h[p,q,r,s] = 0.5 * (ps|qr) * d(sp_p,sp_s) * d(sp_q,sp_r)
    two_body = 0.5 * eri[np.ix_(orb, orb, orb, orb)].transpose(0, 2, 3, 1)
    two_body *= same[:, None, None, :] * same[None, :, :, None]
    return FermionHamiltonian(float(constant), one_body, two_body, M)


def _spatial_index(M: int, interleaving: str) -> np.ndarray:
    if interleaving == "interleaved":
        return np.arange(M) // 2
    if interleaving == "blocked":
        return np.arange(M) % (M // 2)
    raise ValueError(f"unknown interleaving {interleaving!r}")


def apply_cutoff(h: FermionHamiltonian, eps: float) -> FermionHamiltonian:
    """Zero every tensor entry with magnitude below eps."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    one = np.where(np.abs(h.one_body) >= eps, h.one_body, 0.0)
    two = np.where(np.abs(h.two_body) >= eps, h.two_body, 0.0)
    return FermionHamiltonian(h.constant, one, two, h.num_modes)


class _Accumulator:
    """Collects signed tensor-entry contributions into canonical terms."""

    def __init__(self):
        self.acc: Dict[Tuple[Kind, Tuple[int, ...]], float] = {}

    def add(self, kind: Kind, indices: Tuple[int, ...], value: float) -> None:
        key = (kind, indices)
        self.acc[key] = self.acc.get(key, 0.0) + value

    def one_body_entry(self, p: int, q: int, v: float) -> None:
        if p == q:
            self.add(Kind.NUMBER, (p,), v)
        else:
            # entry and its transpose each contribute half of the combined term
            self.add(Kind.EXCITATION, (min(p, q), max(p, q)), 0.5 * v)

    def two_body_entry(self, p: int, q: int, r: int, s: int, v: float) -> None:
        if p == q or r == s:
            return  # operator vanishes identically
        sign = 1.0
        c1, c2 = (p, q) if p < q else (q, p)
        if p > q:
            sign = -sign
        d_hi, d_lo = (r, s) if r > s else (s, r)
        if r < s:
            sign = -sign
        # canonical operator: a_c1^ a_c2^ a_dhi a_dlo, c1<c2, dlo<dhi
        cre, ann = {c1, c2}, {d_lo, d_hi}
        shared = cre & ann
        if len(shared) == 2:
            self.add(Kind.COULOMB_EXCHANGE, (c1, c2), sign * v)
        elif len(shared) == 1:
            j = shared.pop()
            i = (cre - {j}).pop()
            k = (ann - {j}).pop()
            if c1 == j:
                sign = -sign  # a_j^ a_i^ -> -a_i^ a_j^
            if d_lo == j:
                sign = -sign  # a_k a_j -> -a_j a_k
            self.add(Kind.NUMBER_EXCITATION, (min(i, k), j, max(i, k)), 0.5 * sign * v)
        else:
            tup = (c1, c2, d_hi, d_lo)
            conj = (d_lo, d_hi, c2, c1)
            self.add(Kind.DOUBLE_EXCITATION, min(tup, conj), 0.5 * sign * v)

    def terms(self, drop_below: float = 0.0) -> List[ClassifiedTerm]:
        out = [
            ClassifiedTerm(kind, idx, coeff)
            for (kind, idx), coeff in self.acc.items()
            if abs(coeff) > drop_below
        ]
        out.sort(key=lambda t: (t.kind.value, t.indices))
        return out


def group_by_kind(terms: Sequence[ClassifiedTerm]) -> Dict[Kind, Tuple[np.ndarray, np.ndarray]]:
    """Index array ``[n, arity]`` and coefficient vector ``[n]`` of every kind
    present, each in term order."""
    grouped = {}
    for kind in Kind:
        members = [t for t in terms if t.kind is kind]
        if members:
            grouped[kind] = (
                np.array([t.indices for t in members], dtype=np.intp),
                np.array([t.coefficient for t in members]),
            )
    return grouped


def classify(h: FermionHamiltonian, cutoff: float = 0.0) -> List[ClassifiedTerm]:
    """Assign every tensor entry with |value| >= cutoff to a canonical term."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    acc = _Accumulator()
    one = h.one_body
    for p, q in np.argwhere(np.abs(one) >= max(cutoff, 1e-300)):
        acc.one_body_entry(int(p), int(q), float(one[p, q]))
    two = h.two_body
    for p, q, r, s in np.argwhere(np.abs(two) >= max(cutoff, 1e-300)):
        acc.two_body_entry(int(p), int(q), int(r), int(s), float(two[p, q, r, s]))
    return acc.terms()


def classify_spatial(
    h1_spatial: np.ndarray,
    eri_chemist: np.ndarray,
    cutoff: float = 0.0,
    interleaving: str = "blocked",
) -> List[ClassifiedTerm]:
    """Classify directly from spatial integrals without materializing the
    spin-orbital tensors.

    The cutoff is applied to the spin-orbital tensor entries, so it is
    equivalent to ``classify(apply_cutoff(from_spatial_integrals(...),
    cutoff), 0)``.  Since the two-body entry is half the chemist integral,
    a two-body integral survives when ``|(ij|kl)| / 2 >= cutoff``.
    """
    h1 = np.asarray(h1_spatial, dtype=float)
    eri = np.asarray(eri_chemist, dtype=float)
    m = h1.shape[0]
    M = 2 * m

    def mode(i: int, sp: int) -> int:
        if interleaving == "blocked":
            return i + sp * m
        if interleaving == "interleaved":
            return 2 * i + sp
        raise ValueError(f"unknown interleaving {interleaving!r}")

    acc = _Accumulator()
    for i, j in np.argwhere(np.abs(h1) >= max(cutoff, 1e-300)):
        v = float(h1[i, j])
        for sp in (0, 1):
            acc.one_body_entry(mode(int(i), sp), mode(int(j), sp), v)
    # (ij|kl) feeds h[p,q,r,s] = (ij|kl)/2 at p~i, s~j, q~k, r~l
    for i, j, k, l in np.argwhere(0.5 * np.abs(eri) >= max(cutoff, 1e-300)):
        v = 0.5 * float(eri[i, j, k, l])
        for s1 in (0, 1):
            for s2 in (0, 1):
                acc.two_body_entry(
                    mode(int(i), s1), mode(int(k), s2), mode(int(l), s2),
                    mode(int(j), s1), v,
                )
    return acc.terms()
