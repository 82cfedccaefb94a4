"""Analytic integrals for Hydrogen chains/lattices with one normalized s-type
Gaussian orbital per atom.

All closed forms are the standard s-Gaussian results (Gaussian product
theorem plus the Boys function F0); energies in Hartree, lengths in Bohr
internally, lattice spacing specified in Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eri import packed_length, pair_orbitals, put_rows

ANGSTROM_TO_BOHR = 1.8897259886
#: Packed ERI rows assembled per step.  Each step holds three [block, P]
#: temporaries, 4 MB each on the 125-orbital lattice; 16 MB ones (256 rows)
#: stayed on the heap between cells and raised a 3-cell sweep's peak RSS by
#: 27 MB.
_ERI_BLOCK = 64
#: ERIs below this, some 190 orders under any cutoff, are stored as 0.  As
#: subnormal numbers, and through the subnormal products they form, they
#: made the rotation's matrix products 1.7x slower on the 125-orbital lattice.
_ERI_FLOOR = 1e-200
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
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")


@dataclass
class RawIntegrals:
    """Spatial-orbital integrals: overlap, core (T+V), chemist-ordered ERIs
    (ij|kl) in the pair-packed form of ``fermap.eri``, and the nuclear
    repulsion constant."""

    overlap: np.ndarray
    core: np.ndarray
    eri: np.ndarray
    nuclear_repulsion: float

    @property
    def num_orbitals(self) -> int:
        return self.overlap.shape[0]


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
    # reduced exponent mu = alpha/2, product center at the midpoint
    p = 2.0 * alpha
    overlap = np.exp(-0.5 * alpha * r2)
    kinetic = 0.5 * alpha * (3.0 - alpha * r2) * overlap
    midpoints = 0.5 * (centers[:, None, :] + centers[None, :, :])

    norm2 = (2.0 * alpha / np.pi) ** 1.5  # squared normalization of the pair
    v_pref = norm2 * (2.0 * np.pi / p) * np.exp(-0.5 * alpha * r2)
    attraction = np.zeros((m, m))
    for c in range(m):
        pc2 = np.sum((midpoints - centers[c]) ** 2, axis=2)
        attraction -= v_pref * boys_f0(p * pc2)
    core = kinetic + attraction

    # (ij|kl) over normalized orbitals; combined exponent pq/(p+q) = alpha.
    # It depends on the centers only through kab and the two pair midpoints,
    # so F0 is evaluated once per pair of distinct midpoints, and the packed
    # ERI is filled a block of packed rows at a time: row b = pair(kl) holds
    # pref kab[ij] kab[kl] F0 for pair(ij) <= b
    first, second = pair_orbitals(m)
    kab = np.exp(-0.5 * alpha * r2[first, second])
    points, which = np.unique(midpoints[first, second], axis=0, return_inverse=True)
    sq = np.sum(points * points, axis=1)
    pq2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (points @ points.T), 0.0)
    # symmetric by construction, so a block's F0 can be gathered row-major
    boys = boys_f0(alpha * (np.tril(pq2) + np.tril(pq2, -1).T))
    eri_pref = norm2**2 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    pref_kab = eri_pref * kab
    eri = np.empty(packed_length(m))
    for start in range(0, len(kab), _ERI_BLOCK):
        stop = min(start + _ERI_BLOCK, len(kab))
        block = np.take(np.take(boys, which[start:stop], axis=0), which[:stop], axis=1)
        block *= np.multiply.outer(kab[start:stop], pref_kab[:stop])
        block[block < _ERI_FLOOR] = 0.0
        put_rows(eri, start, block)

    if m > 1:
        inv_r = np.zeros((m, m))
        off = ~np.eye(m, dtype=bool)
        inv_r[off] = 1.0 / np.sqrt(r2[off])
        nuc = 0.5 * float(np.sum(inv_r))
    else:
        nuc = 0.0
    return RawIntegrals(overlap, core, eri, nuc)


def lattice_integrals(spec: LatticeSpec) -> RawIntegrals:
    return compute_integrals(build_lattice(spec), spec.exponent)
