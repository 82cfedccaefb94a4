"""Analytic integrals for Hydrogen chains/lattices with one normalized s-type
Gaussian orbital per atom.

All closed forms are the standard s-Gaussian results (Gaussian product
theorem plus the Boys function F0); energies in Hartree, lengths in Bohr
internally, lattice spacing specified in Angstrom.

The atoms sit at h I for integer grid vectors I and spacing h, and every
orbital has the same exponent, so each pair's Gaussian product is centered
at h (I_i + I_j) / 2 and every F0 argument is a fixed multiple of an integer
squared distance D on the doubled grid: between two pairs' doubled midpoints
(ERIs) or between a doubled midpoint and a doubled center 2 I_c (nuclear
attraction).  F0 is evaluated once per D = 0 ... d (2n - 2)^2.
``RawIntegrals`` keeps the ERIs in that factored form, of O(m^2) size; the
ERIs leave it only as blocks of AO pair rows and columns (``pair_block``) or
as the Schwarz factors (``schwarz_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eri import pair_orbitals

ANGSTROM_TO_BOHR = 1.8897259886
#: ERIs below this, some 190 orders under any cutoff, are stored as 0.  As
#: subnormal numbers, and through the subnormal products they form, they
#: made the rotation's matrix products 1.7x slower on the 125-orbital lattice.
_ERI_FLOOR = 1e-200
#: erf(sqrt(t)) rounds to 1.0 from here on: erfc(6) is 2e-17.
_ERF_ONE = 36.0
#: math.erf elementwise; numpy has no erf, and importing scipy.special for
#: one took 0.26-0.28 s of a fresh process.
_erf = np.frompyfunc(math.erf, 1, 1)


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

        (ij|kl) = boys[|midpoint[a] - midpoint[b]|^2] * (kab[b] * (eri_pref * kab[a])),

    stored as 0 below ``_ERI_FLOOR``: ``kab`` per pair, each pair's doubled
    midpoint I_i + I_j on the integer grid, and F0 per integer squared
    distance between two of them.  Both methods give those values to the bit."""

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
        distance = _squared_distances(self.midpoint[rows], self.midpoint[cols])
        block = self.boys[distance]
        del distance  # before the factors, which set the peak
        kab_rows, kab_cols = self.kab[rows], self.kab[cols]
        kab = np.multiply.outer(kab_rows, self.eri_pref * kab_cols)
        np.multiply.outer(self.eri_pref * kab_rows, kab_cols, out=kab, where=np.less.outer(rows, cols))
        block *= kab
        block[block < _ERI_FLOOR] = 0.0
        return block

    def schwarz_factors(self) -> np.ndarray:
        """q_ab = sqrt((ab|ab)) of every AO pair, in pair order."""
        diagonal = self.boys[0] * (self.kab * (self.eri_pref * self.kab))
        diagonal[diagonal < _ERI_FLOOR] = 0.0
        return np.sqrt(diagonal)


def _grid(side: int, dimension: int) -> np.ndarray:
    """``[side^dimension, dimension]`` int32 vectors of a grid, row-major."""
    return np.indices((side,) * dimension, dtype=np.int32).reshape(dimension, -1).T


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[len(a), len(b)]`` int32 squared distances between the integer
    points (rows) of ``a`` and ``b``, accumulated one axis at a time."""
    out = np.zeros((len(a), len(b)), dtype=np.int32)
    step = np.empty_like(out)
    for x, y in zip(a.T, b.T):
        np.subtract.outer(x, y, out=step)
        step *= step
        out += step
    return out


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


def lattice_integrals(spec: LatticeSpec) -> RawIntegrals:
    """Overlap, core Hamiltonian, ERIs and nuclear repulsion of the lattice:
    one normalized s Gaussian of the spec's exponent (Bohr^-2) on each atom,
    nuclear charges all 1 (Hydrogen)."""
    d, n, alpha = spec.dimension, spec.side_length, spec.exponent
    h2 = (spec.spacing * ANGSTROM_TO_BOHR) ** 2
    grid = _grid(n, d)
    r2 = h2 * _squared_distances(grid, grid)

    # pairwise Gaussian-product quantities (equal exponents): p = 2*alpha,
    # reduced exponent mu = alpha/2, product center at the midpoint h (I_i + I_j) / 2;
    # a squared distance D on the doubled grid is h2 D / 4 in Bohr^2
    p = 2.0 * alpha
    overlap = np.exp(-0.5 * alpha * r2)
    kinetic = 0.5 * alpha * (3.0 - alpha * r2) * overlap
    t = 0.25 * alpha * h2 * np.arange(d * (2 * n - 2) ** 2 + 1)
    boys = boys_f0(t)  # (ij|kl): exponent alpha

    # nuclear attraction, exponent p: F0 summed over the centers 2 I_c once
    # per point of the doubled grid, and read at each (i, j) through the
    # row-major index of I_i + I_j there, the sum of the indices of I_i and I_j
    norm2 = (2.0 * alpha / np.pi) ** 1.5  # squared normalization of the pair
    attraction = boys_f0(2.0 * t)[_squared_distances(_grid(2 * n - 1, d), 2 * grid)].sum(axis=1)
    index = np.ravel_multi_index(grid.T, (2 * n - 1,) * d)
    core = kinetic - norm2 * (2.0 * np.pi / p) * overlap * attraction[np.add.outer(index, index)]

    # (ij|kl) over normalized orbitals; combined exponent pq/(p+q) = alpha
    first, second = pair_orbitals(len(grid))
    eri_pref = norm2**2 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    nuc = 0.5 * float(np.sum(np.divide(1.0, np.sqrt(r2), out=np.zeros_like(r2), where=r2 > 0)))
    return RawIntegrals(overlap, core, nuc, overlap[first, second], grid[first] + grid[second], boys, eri_pref)
