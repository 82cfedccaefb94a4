"""Orthogonalization of the single-particle basis and integral rotation.

Symmetric: X = U s^{-1/2} U^T (the inverse square root of the overlap);
canonical: X = U s^{-1/2} over the eigenvalues above a fixed threshold.

The ERI is rotated in the basis of orbital pairs: with G the P x P matrix
of AO pair integrals, P = m (m + 1) / 2, and the pair transform C[ab, ij] =
X_ai X_bj + X_bi X_aj (half that for a = b), the rotated pair matrix is
C^T G C.  It is formed on one of two paths.

Screened.  By the Schwarz bound |(ab|cd)| <= q_ab q_cd, q_ab = sqrt((ab|ab))
read from the factored integrals (Haeser & Ahlrichs, J. Comput. Chem. 10, 104
(1989)), an AO pair with q_ab q_max below ``PAIR_SCREEN`` takes part in no
integral that reaches it; the screen keeps the other AO pairs, S, and the
entries of X at or above ``ORBITAL_SCREEN``.  T is the set of MO pairs that
the kept pair transform reaches.  G_SS is built for the kept pairs alone,
C_ST^T G_SS C_ST is formed with two dense GEMMs and its lower triangle
scattered into the packed output, and every entry outside T x T is exactly
0.  What is dropped is bounded at run time.  With Q[a, b] = q_ab and W =
|X|^T Q |X|, each term of the rotated (ij|kl) is bounded by the matching
term of W_ij W_kl; W' = |X'|^T Q' |X'|, with X' the kept entries of X and
Q' the kept pairs, bounds the kept terms alike.  So no rotated entry moves
by more than W_ij W_kl - W'_ij W'_kl <= 2 max W max(W - W'), one pass of
m x m x k products.

Dense.  The first half-transform builds the AO pair integrals a block of
pair rows kl at a time, against every pair ij, rotates ij and writes the
rotated rows, transposed, into one K x P array, K = k (k + 1) / 2.  The
second half rotates the pair kl of each row of that array straight into the
packed output.  Both halves read each block of pair rows as m x m matrices
through one table of fixed offsets and rotate them with two flat GEMMs.

The rule: the screened path runs when its bound is within ``ERROR_BUDGET``
and it keeps at most half of the AO pairs.  Orbitals that are not local
enough leave a bound over the budget; past half of the pairs the dense
path's GEMMs are faster.  The choice depends on the integrals and X alone.
Under ``--cutoff 0`` a screened cell's rotated entries below the budget may
read as exact zeros.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from .eri import packed_length, pair_orbitals, pair_table, put_rows, triangular
from .lattice import LatticeSpec, RawIntegrals, lattice_integrals


#: Pair rows built and rotated per step of a half-transform.  Each step makes
#: two GEMM calls; fewer, larger calls keep the rotation fast when several
#: processes share the cores with multithreaded BLAS.
_ROTATE_BLOCK = 64

#: The symmetric orthogonalizer refuses an overlap eigenvalue at or below
#: this; the canonical one keeps the eigenvalues at or above its threshold.
EIGENVALUE_FLOOR = 1e-10
TRUNCATION_TAU = 1e-8

#: Hartree.  The screened rotation runs only when its bound on the change of
#: any rotated entry is within this, five orders below the 2e-7 that a
#: two-body entry must reach at the default cutoff.
ERROR_BUDGET = 1e-12
#: Hartree.  An AO pair leaves the screened rotation when no integral it
#: takes part in can reach this.
PAIR_SCREEN = 1e-8
#: An entry of X below this leaves the screened rotation.  It sits below the
#: budget because what a dropped entry leaves out is scaled by integrals of
#: order 1: q_max^2 = (aa|aa) is 3.3 Ha at exponent 8.75.
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


class _Screen(NamedTuple):
    """What the screened rotation keeps of ``eri`` and ``x``: the AO pairs S
    in pair order, X with the dropped entries set to 0, the MO pairs T in
    pair order, and the bound on the change of any rotated entry."""

    pairs: np.ndarray
    x: np.ndarray
    reached: np.ndarray
    bound: float

    @property
    def applies(self) -> bool:
        """The path rule: the bound is within the budget and at most half of
        the AO pairs are kept."""
        return self.bound <= ERROR_BUDGET and 2 * len(self.pairs) <= triangular(len(self.x))


def _schwarz_screen(raw: RawIntegrals, x: np.ndarray) -> _Screen:
    """The screen of raw integrals and an m x k orthogonalizer; see the module
    docstring.  No array is larger than m x m."""
    m, k = x.shape
    size = triangular(m)
    q = raw.schwarz_factors()
    pairs = np.flatnonzero(q * q.max() >= PAIR_SCREEN)
    kept_q = np.zeros(size)
    kept_q[pairs] = q[pairs]
    table = pair_table(m)
    q, kept_q = q[table], kept_q[table]
    a = np.abs(x)
    kept = a >= ORBITAL_SCREEN
    kept_a = np.where(kept, a, 0.0)
    # W' > 0 exactly at the MO pairs the kept transform reaches.  W - W' is
    # summed from the dropped terms, so no difference of near-equal sums
    # loses it: |X|^T (Q - Q') |X| plus the terms with a dropped X entry,
    # which D^T Q' |X| and its transpose bound, D = |X| - |X'|
    reach = kept_a.T @ kept_q @ kept_a
    cross = (a - kept_a).T @ (kept_q @ a)
    dropped = a.T @ (q - kept_q) @ a + cross + cross.T
    first, second = pair_orbitals(k)
    reached = np.flatnonzero(reach[first, second] > 0)
    bound = 2.0 * float((reach + dropped).max() * dropped.max())
    return _Screen(pairs, np.where(kept, x, 0.0), reached, bound)


def _rotate_screened(raw: RawIntegrals, screen: _Screen) -> np.ndarray:
    """The packed rotated ERI from the kept AO pairs and entries of X: C_ST^T
    G_SS C_ST a block of rows of T at a time, each block only up to its
    diagonal, scattered into an output that is 0 elsewhere."""
    x, pairs, reached = screen.x, screen.pairs, screen.reached
    m, k = x.shape
    a, b = (orbital[pairs] for orbital in pair_orbitals(m))
    i, j = (orbital[reached] for orbital in pair_orbitals(k))
    xa, xb = x[a], x[b]
    c = np.take(xa, i, axis=1) * np.take(xb, j, axis=1)
    c += np.take(xb, i, axis=1) * np.take(xa, j, axis=1)
    c[a == b] *= 0.5
    gc = raw.pair_block(pairs, pairs) @ c
    out = np.zeros(packed_length(k))
    for start in range(0, len(reached), _ROTATE_BLOCK):
        stop = min(start + _ROTATE_BLOCK, len(reached))
        below = np.arange(stop) <= np.arange(start, stop)[:, None]
        positions = triangular(reached[start:stop])[:, None] + reached[:stop]
        out[positions[below]] = (c[:, start:stop].T @ gc[:, :stop])[below]
    return out


def _rotate_dense(raw: RawIntegrals, x: np.ndarray) -> np.ndarray:
    """The packed rotated ERI by the two half-transforms; see the module
    docstring."""
    m, k = x.shape
    # offsets[p, r, q] is the flat position of pair(p, q) in row r of a
    # block of pair rows
    size, kept = triangular(m), triangular(k)
    pairs = np.arange(size)
    offsets = np.arange(_ROTATE_BLOCK)[:, None] * size + pair_table(m)[:, None, :]
    # the first half rotates pq in each row kl of AO integrals: half[ij, kl]
    # = (ij|kl), rotated ij < kept
    half = np.empty((kept, size))
    for start in range(0, size, _ROTATE_BLOCK):
        rows = raw.pair_block(pairs[start : start + _ROTATE_BLOCK], pairs)
        half[:, start : start + len(rows)] = _congruence(np.take(rows, offsets[:, : len(rows)]), x).T
    # the second half rotates kl in each row ij and packs straight into the
    # output.  Row ij keeps (ij|kl) for pair(kl) <= pair(ij), so l <= j: a
    # block whose last row has j = top - 1 needs only the first top columns
    # of x
    _, second = pair_orbitals(k)
    out = np.empty(packed_length(k))
    for start in range(0, kept, _ROTATE_BLOCK):
        rows = half[start : start + _ROTATE_BLOCK]
        top = second[start + len(rows) - 1] + 1
        mats = np.take(rows, offsets[:, : len(rows)])
        put_rows(out, start, _congruence(mats, x[:, :top]))
    return out


def rotate_integrals(raw: RawIntegrals, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Rotated (one_body, packed eri, constant) in the basis of the columns
    of the m x k orthogonalizer ``x``; the overlap becomes the identity and
    one_body is exactly symmetric.  The packed ERI has k orbitals; it comes
    from the screened path when the path rule allows, else from the dense
    one."""
    m, k = x.shape
    if m != raw.num_orbitals:
        raise ValueError("orthogonalizer dimension mismatch")
    h1 = x.T @ raw.core @ x
    # the product is symmetric only to rounding; keep the lower triangle, as an
    # FCIDUMP file does, so a dumped cell maps to the same coefficients
    h1 = np.tril(h1) + np.tril(h1, -1).T
    screen = _schwarz_screen(raw, x)
    eri = _rotate_screened(raw, screen) if screen.applies else _rotate_dense(raw, x)
    return h1, eri, raw.nuclear_repulsion


def orthonormal_integrals(
    spec: LatticeSpec, rotation: str = "aos"
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The integrals stage: a lattice's (one_body, eri, constant) in the
    symmetric (``rotation="aos"``) or else the canonical orthonormal basis."""
    raw = lattice_integrals(spec)
    if rotation == "aos":
        x = symmetric_orthogonalizer(raw.overlap)
    else:
        x = canonical_orthogonalizer(raw.overlap)
    return rotate_integrals(raw, x)
