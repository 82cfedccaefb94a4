"""Analytic integrals for Hydrogen chains/lattices with one normalized s-type
Gaussian orbital per atom.

All closed forms are the standard s-Gaussian results (Gaussian product
theorem plus the Boys function F0); energies in Hartree, lengths in Bohr
internally, lattice spacing specified in Angstrom.

Every integral depends on the centers through the orbital pairs' Gaussian
product factors and midpoints, so F0 is evaluated once per distinct
midpoint and center (nuclear attraction) or pair of distinct midpoints
(ERIs).  ``RawIntegrals`` keeps the ERIs in that factored form, of O(m^2)
size on a lattice; the ERIs leave it only as blocks of AO pair rows and
columns (``pair_block``) or as the Schwarz factors (``schwarz_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eri import pair_orbitals, pair_table

ANGSTROM_TO_BOHR = 1.8897259886
#: ERIs below this, some 190 orders under any cutoff, are stored as 0.  As
#: subnormal numbers, and through the subnormal products they form, they
#: made the rotation's matrix products 1.7x slower on the 125-orbital lattice.
_ERI_FLOOR = 1e-200
#: Pair midpoints this close, relative to the largest center coordinate, are
#: one point: 0.5 * (a + b) rounds equal midpoints of a lattice a few ulps apart.
_MIDPOINT_RTOL = 1e-12
#: erf(sqrt(t)) rounds to 1.0 from here on: erfc(6) is 2e-17.
_ERF_ONE = 36.0
#: math.erf elementwise; numpy has no erf, and importing scipy.special for
#: one took 0.26-0.28 s of a fresh process.
_erf = np.frompyfunc(math.erf, 1, 1)


class GeometryError(ValueError):
    """Raised for invalid atomic geometries (e.g. coincident centers)."""


@dataclass(frozen=True)
class LatticeSpec:
    """Rectilinear Hydrogen grid: N^dimension atoms, one s Gaussian each.

    ``exponent`` is the Gaussian width parameter in inverse Bohr^2;
    ``spacing`` is the nearest-neighbor distance in Angstrom.
    """

    dimension: int
    side_length: int
    exponent: float
    spacing: float = 1.0

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.side_length < 1:
            raise ValueError("side_length must be at least 1")
        if not 0 < self.exponent < math.inf:
            raise ValueError("exponent must be positive and finite")
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")


@dataclass
class RawIntegrals:
    """Spatial-orbital integrals: overlap, core (T+V), the nuclear repulsion
    constant, and the chemist-ordered ERIs (ij|kl) in their Gaussian-product
    factored form.  For AO pairs a = pair(ij) <= b = pair(kl) (``fermap.eri``)

        (ij|kl) = boys[midpoint[b], midpoint[a]] * (kab[b] * (eri_pref * kab[a])),

    stored as 0 below ``_ERI_FLOOR``: ``kab`` per pair, the index of each
    pair's midpoint among the distinct midpoints, and the exactly symmetric
    F0 table over those.  Both methods give those values to the bit."""

    overlap: np.ndarray
    core: np.ndarray
    nuclear_repulsion: float
    kab: np.ndarray
    midpoint: np.ndarray
    boys: np.ndarray
    eri_pref: float

    @property
    def num_orbitals(self) -> int:
        return self.overlap.shape[0]

    def pair_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``[rows, cols]`` matrix of (ab|cd) for AO pairs ab in ``rows`` and
        cd in ``cols``.  Each entry takes ``kab`` of the larger pair times
        ``eri_pref * kab`` of the smaller, so it is the same value to the bit
        on either side of the diagonal."""
        block = np.take(np.take(self.boys, self.midpoint[rows], axis=0), self.midpoint[cols], axis=1)
        kab_rows, kab_cols = self.kab[rows], self.kab[cols]
        kab = np.multiply.outer(kab_rows, self.eri_pref * kab_cols)
        np.multiply.outer(self.eri_pref * kab_rows, kab_cols, out=kab, where=np.less.outer(rows, cols))
        block *= kab
        block[block < _ERI_FLOOR] = 0.0
        return block

    def schwarz_factors(self) -> np.ndarray:
        """q_ab = sqrt((ab|ab)) of every AO pair, in pair order."""
        diagonal = self.boys[self.midpoint, self.midpoint] * (self.kab * (self.eri_pref * self.kab))
        diagonal[diagonal < _ERI_FLOOR] = 0.0
        return np.sqrt(diagonal)


def build_lattice(spec: LatticeSpec) -> np.ndarray:
    """Atom centers in Bohr, row-major over the grid."""
    n = spec.side_length
    axes = [np.arange(n, dtype=float)] * spec.dimension
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    if spec.dimension < 3:
        pts = np.hstack([pts, np.zeros((pts.shape[0], 3 - spec.dimension))])
    return pts * spec.spacing * ANGSTROM_TO_BOHR


def boys_f0(t) -> np.ndarray:
    """F0(t) = integral of exp(-t u^2) over u in [0, 1].

    Closed form sqrt(pi/(4t)) * erf(sqrt(t)), with erf(sqrt(t)) = 1 for t >=
    36 and a series for tiny t; accurate to ~1e-14 across [0, 1e4].
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("boys_f0 requires t >= 0")
    out = np.empty_like(t)
    small, large = t < 1e-13, t >= _ERF_ONE
    ts = t[small]
    out[small] = 1.0 - ts / 3.0 + ts * ts / 10.0
    out[large] = 0.5 * np.sqrt(np.pi / t[large])
    middle = ~(small | large)
    tm = t[middle]
    out[middle] = 0.5 * np.sqrt(np.pi / tm) * _erf(np.sqrt(tm)).astype(float)
    return out if out.ndim else float(out)


def _distinct_points(points: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct points in lexicographic order and each point's index
    among them.  Coordinates that differ by at most ``tol`` on an axis, or
    through a chain of such steps, count as one, so points that rounding
    split are one point, represented by the first of them."""
    labels = []
    for values in points.T:
        distinct, inverse = np.unique(values, return_inverse=True)
        labels.append(np.concatenate([[0], np.cumsum(np.diff(distinct) > tol)])[inverse])
    keys = np.ravel_multi_index(labels, [label.max(initial=0) + 1 for label in labels])
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return points[first], which


def compute_integrals(centers: np.ndarray, alpha: float) -> RawIntegrals:
    """Overlap, core Hamiltonian, ERIs and nuclear repulsion for one
    normalized s Gaussian of exponent alpha (Bohr^-2) on each center (Bohr).
    Nuclear charges are all 1 (Hydrogen)."""
    centers = np.asarray(centers, dtype=float)
    m = centers.shape[0]
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    if m > 1 and np.min(r2[~np.eye(m, dtype=bool)]) < 1e-20:
        raise GeometryError("coincident centers")

    # pairwise Gaussian-product quantities (equal exponents): p = 2*alpha,
    # reduced exponent mu = alpha/2, product center at the midpoint.  Every
    # integral depends on the centers through the pair midpoints, so F0 is
    # evaluated once per distinct midpoint and center, or pair of them
    p = 2.0 * alpha
    overlap = np.exp(-0.5 * alpha * r2)
    kinetic = 0.5 * alpha * (3.0 - alpha * r2) * overlap
    first, second = pair_orbitals(m)
    midpoints = 0.5 * (centers[first] + centers[second])
    points, which = _distinct_points(midpoints, _MIDPOINT_RTOL * np.abs(centers).max(initial=0.0))

    norm2 = (2.0 * alpha / np.pi) ** 1.5  # squared normalization of the pair
    v_pref = norm2 * (2.0 * np.pi / p) * np.exp(-0.5 * alpha * r2)
    # F0 of each center c (rows) and distinct midpoint (columns), summed over
    # c in order for every (i, j) through the index of its midpoint
    nuclear = boys_f0(p * np.sum((points[None, :, :] - centers[:, None, :]) ** 2, axis=2))
    at = which[pair_table(m)]
    attraction = np.zeros((m, m))
    for c in range(m):
        attraction -= v_pref * nuclear[c, at]
    core = kinetic + attraction

    # (ij|kl) over normalized orbitals; combined exponent pq/(p+q) = alpha
    kab = np.exp(-0.5 * alpha * r2[first, second])
    sq = np.sum(points * points, axis=1)
    pq2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (points @ points.T), 0.0)
    # F0 once per unordered pair of midpoints, mirrored: the table is then
    # symmetric by construction, so a block's F0 can be gathered row-major
    lower = np.tri(len(points), dtype=bool)
    boys = np.empty_like(pq2)
    boys[lower] = boys.T[lower] = boys_f0(alpha * pq2[lower])
    eri_pref = norm2**2 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))

    if m > 1:
        inv_r = np.zeros((m, m))
        off = ~np.eye(m, dtype=bool)
        inv_r[off] = 1.0 / np.sqrt(r2[off])
        nuc = 0.5 * float(np.sum(inv_r))
    else:
        nuc = 0.0
    return RawIntegrals(overlap, core, nuc, kab, which, boys, eri_pref)


def lattice_integrals(spec: LatticeSpec) -> RawIntegrals:
    return compute_integrals(build_lattice(spec), spec.exponent)
