"""Orthogonalization of the single-particle basis and integral rotation.

Symmetric: X = U s^{-1/2} U^T (the inverse square root of the overlap);
canonical: X = U s^{-1/2} over the eigenvalues above a fixed threshold.

The ERI is rotated in the basis of orbital pairs: with G the P x P matrix
of AO pair integrals, P = m (m + 1) / 2, and the pair transform C[ab, ij] =
X_ai X_bj + X_bi X_aj (half that for a = b), the rotated pair matrix is
C^T G C.

By the Schwarz bound |(ab|cd)| <= q_ab q_cd, q_ab = sqrt((ab|ab)) read from
the factored integrals (Haeser & Ahlrichs, J. Comput. Chem. 10, 104 (1989)),
an AO pair with q_ab q_max below a pair screen takes part in no integral that
reaches it; the screen keeps the other AO pairs, S, and the entries of X at
or above ``ORBITAL_SCREEN``.  What is dropped is bounded at run time.  With
Q[a, b] = q_ab and W = |X|^T Q |X|, each term of the rotated (ij|kl) is
bounded by the matching term of W_ij W_kl; W' = |X'|^T Q' |X'|, with X' the
kept entries of X and Q' the kept pairs, bounds the kept terms alike.  So no
rotated entry moves by more than W_ij W_kl - W'_ij W'_kl <= 2 max W
max(W - W'), one pass of m x m x k products.

``ERROR_BUDGET`` is split between the pair screen and a floor on the entries
the rotation returns:

- The pair screen: the screens ``ERROR_BUDGET`` times 1e4, 1e2, 1 and 1e-2
  are tried, loosest first, and the first whose bound is within the budget
  is kept.  Orbitals local enough pass at the first try; where none passes,
  every AO pair and every entry of X is kept and the bound is 0.
- The floor, ``ERROR_BUDGET`` minus that bound.  Every kept-term entry obeys
  |(ij|kl)| <= W'_ij W'_kl, so an MO pair t with W'_t max W' below half the
  floor takes part in no entry that reaches it (the half absorbs rounding in
  W').  G_SS is built for the kept AO pairs alone, C_SR^T G_SS C_SR is formed
  with dense GEMMs for the remaining MO pairs, R, alone, and of its lower
  triangle only the entries at or above the floor leave the rotation, as
  ``fermap.eri.Survivors``.

So no returned entry, and no entry left out, moves by more than the bound
plus the floor, ``ERROR_BUDGET``.  Both choices depend on the integrals and X
alone.  Under ``--cutoff 0`` rotated entries below the budget read as exact
zeros.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from .eri import Survivors, pair_orbitals, pair_table, triangular
from .lattice import LatticeSpec, RawIntegrals, lattice_integrals


#: Rows of R formed per step, so each step's product and masks hold at most
#: this many rows of |R| entries.
_ROTATE_BLOCK = 64

#: The symmetric orthogonalizer refuses an overlap eigenvalue at or below
#: this; the canonical one keeps the eigenvalues at or above its threshold.
EIGENVALUE_FLOOR = 1e-10
TRUNCATION_TAU = 1e-8

#: Hartree.  The rotation's bound on the change of any rotated entry is
#: within this, five orders below the 2e-7 that a two-body entry must reach
#: at the default cutoff; it sets the pair screen and the floor.
ERROR_BUDGET = 1e-12
#: An entry of X below this leaves the rotation when a pair screen is kept.
#: It sits below the budget because what a dropped entry leaves out is scaled
#: by integrals of order 1: q_max^2 = (aa|aa) is 3.3 Ha at exponent 8.75.
ORBITAL_SCREEN = 1e-13


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


class _Screen(NamedTuple):
    """What the rotation keeps of ``eri`` and ``x``: the pair screen, 0 when
    it keeps everything, the AO pairs S in pair order, X with the dropped
    entries set to 0, the MO pairs R it forms in pair order, the bound on
    what the pair screen drops, and the floor of the entries it returns."""

    pair_screen: float
    pairs: np.ndarray
    x: np.ndarray
    rows: np.ndarray
    bound: float
    floor: float


def _screen(
    pair_screen: float, pairs: np.ndarray, x: np.ndarray, reach: np.ndarray, bound: float
) -> _Screen:
    """The screen of a pair screen and its bound, with the MO pairs R whose
    ``reach`` W' can take part in an entry at the floor."""
    # at least the smallest positive float, so no exact zero leaves the rotation
    floor = max(ERROR_BUDGET - bound, np.finfo(float).smallest_subnormal)
    first, second = pair_orbitals(x.shape[1])
    w = reach[first, second]
    rows = np.flatnonzero(w * w.max() >= 0.5 * floor)
    return _Screen(float(pair_screen), pairs, x, rows, bound, floor)


def _schwarz_screen(raw: RawIntegrals, x: np.ndarray) -> _Screen:
    """The screen of raw integrals and an m x k orthogonalizer: the loosest
    pair screen of the ladder whose bound is within ``ERROR_BUDGET``, else
    everything, and the MO pairs that reach the floor; see the module
    docstring.  No array is larger than m x m."""
    q = raw.schwarz_factors()
    largest = q * q.max()  # the largest integral each AO pair takes part in
    table = pair_table(len(x))
    full_q = q[table]
    a = np.abs(x)
    kept = a >= ORBITAL_SCREEN
    kept_a = np.where(kept, a, 0.0)
    lost_a = a - kept_a
    previous = -1
    for pair_screen in ERROR_BUDGET * np.array([1e4, 1e2, 1.0, 1e-2]):
        keep = largest >= pair_screen
        pairs = np.flatnonzero(keep)
        if len(pairs) == previous:  # the same pairs give the same bound
            continue
        previous = len(pairs)
        kept_q = np.where(keep, q, 0.0)[table]
        # W - W' is summed from the dropped terms, so no difference of
        # near-equal sums loses it: |X|^T (Q - Q') |X| plus the terms with a
        # dropped X entry, which D^T Q' |X| and its transpose bound,
        # D = |X| - |X'|
        reach = kept_a.T @ kept_q @ kept_a
        cross = lost_a.T @ (kept_q @ a)
        dropped = a.T @ (full_q - kept_q) @ a + cross + cross.T
        bound = 2.0 * float((reach + dropped).max() * dropped.max())
        if bound <= ERROR_BUDGET:
            return _screen(pair_screen, pairs, np.where(kept, x, 0.0), reach, bound)
    return _screen(0.0, np.arange(len(q)), x, a.T @ full_q @ a, 0.0)


def _rotate_screened(raw: RawIntegrals, screen: _Screen) -> Survivors:
    """The rotated ERI's entries at or above the floor, from the kept AO
    pairs and entries of X: C_SR^T G_SS C_SR a block of rows of R at a time,
    each block only up to its diagonal."""
    x, pairs, rows = screen.x, screen.pairs, screen.rows
    m, k = x.shape
    a, b = (orbital[pairs] for orbital in pair_orbitals(m))
    i, j = (orbital[rows] for orbital in pair_orbitals(k))
    xa, xb = x[a], x[b]
    c = np.take(xa, i, axis=1) * np.take(xb, j, axis=1)
    c += np.take(xb, i, axis=1) * np.take(xa, j, axis=1)
    c[a == b] *= 0.5
    gc = raw.pair_block(pairs, pairs) @ c
    positions, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for start in range(0, len(rows), _ROTATE_BLOCK):
        stop = min(start + _ROTATE_BLOCK, len(rows))
        block = c[:, start:stop].T @ gc[:, :stop]
        keep = (np.abs(block) >= screen.floor) & (np.arange(stop) <= np.arange(start, stop)[:, None])
        positions.append((triangular(rows[start:stop])[:, None] + rows[:stop])[keep])
        values.append(block[keep])
    return Survivors(np.concatenate(positions), np.concatenate(values))


def rotate_integrals(raw: RawIntegrals, x: np.ndarray) -> Tuple[np.ndarray, Survivors, float]:
    """Rotated (one_body, eri, constant) in the basis of the columns of the
    m x k orthogonalizer ``x``; the overlap becomes the identity and one_body
    is exactly symmetric.  The ERI of k orbitals comes as the survivors of
    the screen's floor; no entry, returned or left out, moves by more than
    ``ERROR_BUDGET``."""
    m, k = x.shape
    if m != raw.num_orbitals:
        raise ValueError("orthogonalizer dimension mismatch")
    h1 = x.T @ raw.core @ x
    # the product is symmetric only to rounding; keep the lower triangle, as an
    # FCIDUMP file does, so a dumped cell maps to the same coefficients
    h1 = np.tril(h1) + np.tril(h1, -1).T
    return h1, _rotate_screened(raw, _schwarz_screen(raw, x)), raw.nuclear_repulsion


def orthonormal_integrals(
    spec: LatticeSpec, rotation: str = "aos"
) -> Tuple[np.ndarray, Survivors, float]:
    """The integrals stage: a lattice's (one_body, eri, constant) in the
    symmetric (``rotation="aos"``) or else the canonical orthonormal basis."""
    raw = lattice_integrals(spec)
    if rotation == "aos":
        x = symmetric_orthogonalizer(raw.overlap)
    else:
        x = canonical_orthogonalizer(raw.overlap)
    return rotate_integrals(raw, x)
