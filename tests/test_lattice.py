"""Analytic s-Gaussian integrals against quadrature and an independent
general-exponent implementation, on lattices of varied dimension, spacing
and exponent."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from fermap.eri import Survivors, packed_indices, packed_length, triangular, unpack_eri
from fermap.lattice import ANGSTROM_TO_BOHR, LatticeSpec, boys_f0, lattice_integrals


class Grid(NamedTuple):
    """The atom centers of a lattice: its dimension, side and spacing in
    Angstrom."""

    dimension: int
    side: int
    spacing: float = 1.0

    def spec(self, alpha):
        """The lattice with one s Gaussian of exponent ``alpha`` per atom."""
        return LatticeSpec(self.dimension, self.side, alpha, spacing=self.spacing)


def grid_of(spec):
    """Integer grid vectors of the atoms, row-major, and the spacing in Bohr."""
    grid = np.array(list(itertools.product(range(spec.side_length), repeat=spec.dimension)))
    return grid.reshape(-1, spec.dimension), spec.spacing * ANGSTROM_TO_BOHR


def centers_of(spec):
    """Atom centers in Bohr."""
    grid, h = grid_of(spec)
    return grid * h


def packed_eri(raw):
    """The packed ERI: the lower triangle of the full pair block, row-major."""
    every = np.arange(len(raw.kab))
    return raw.pair_block(every, every)[np.tri(len(every), dtype=bool)]


def dense_of(raw):
    """The dense ERI tensor of the packed ERI, through its survivors."""
    packed = packed_eri(raw)
    kept = np.flatnonzero(packed)
    return unpack_eri(Survivors(kept, packed[kept]), raw.num_orbitals)


# --- independent reference: general-exponent s-Gaussian integrals -----------
# Textbook closed forms parameterized by distinct exponents; exercised at
# equal exponents to cross-check the equal-exponent specialization.


def ref_norm(a):
    return (2.0 * a / np.pi) ** 0.75


def ref_overlap(a, b, ra, rb):
    ra, rb = np.asarray(ra, float), np.asarray(rb, float)
    p = a + b
    mu = a * b / p
    r2 = float(np.sum((ra - rb) ** 2))
    return ref_norm(a) * ref_norm(b) * (np.pi / p) ** 1.5 * np.exp(-mu * r2)


def ref_kinetic(a, b, ra, rb):
    p = a + b
    mu = a * b / p
    r2 = float(np.sum((np.asarray(ra) - np.asarray(rb)) ** 2))
    s = ref_overlap(a, b, ra, rb)
    return mu * (3.0 - 2.0 * mu * r2) * s


def ref_f0(t):
    if t < 1e-12:
        return 1.0 - t / 3.0
    return 0.5 * np.sqrt(np.pi / t) * erf(np.sqrt(t))


def ref_attraction(a, b, ra, rb, rc):
    # attraction integral for nuclear charge 1 at rc
    ra, rb, rc = (np.asarray(r, float) for r in (ra, rb, rc))
    p = a + b
    mu = a * b / p
    r2 = float(np.sum((ra - rb) ** 2))
    rp = (a * ra + b * rb) / p
    pc2 = float(np.sum((rp - rc) ** 2))
    return (
        -ref_norm(a)
        * ref_norm(b)
        * (2.0 * np.pi / p)
        * np.exp(-mu * r2)
        * ref_f0(p * pc2)
    )


def ref_eri(a, b, c, d, ra, rb, rc, rd):
    ra, rb, rc, rd = (np.asarray(r, float) for r in (ra, rb, rc, rd))
    p = a + b
    q = c + d
    rp = (a * ra + b * rb) / p
    rq = (c * rc + d * rd) / q
    ab2 = float(np.sum((ra - rb) ** 2))
    cd2 = float(np.sum((rc - rd) ** 2))
    pq2 = float(np.sum((rp - rq) ** 2))
    norm = ref_norm(a) * ref_norm(b) * ref_norm(c) * ref_norm(d)
    pref = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    return (
        norm
        * pref
        * np.exp(-a * b / p * ab2 - c * d / q * cd2)
        * ref_f0(p * q / (p + q) * pq2)
    )


# --- Boys function ----------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 1e-15, 1e-8, 0.3, 1.0, 7.5, 36.0, 40.0, 1e4])
def test_boys_f0_against_quadrature(t):
    val, err = integrate.quad(lambda u: np.exp(-t * u * u), 0.0, 1.0, epsabs=1e-14)
    assert boys_f0(t) == pytest.approx(val, abs=max(1e-13, 10 * err))


def test_boys_f0_vectorized_and_monotone():
    ts = np.linspace(0, 30, 301)
    vals = boys_f0(ts)
    assert vals.shape == ts.shape
    assert np.all(np.diff(vals) <= 0)
    assert vals[0] == pytest.approx(1.0)


def test_boys_f0_rejects_negative():
    with pytest.raises(ValueError):
        boys_f0(-0.5)


def test_importing_fermap_loads_no_scipy():
    # only the tests' references use scipy: importing scipy.special for erf
    # took 0.26-0.28 s of every fresh process, scipy.sparse alone 0.16-0.20 s.
    # The process pool's modules load only when a sweep starts one: they took
    # 12-18 ms of a 33-52 ms import
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = "('scipy', 'concurrent', 'multiprocessing')"
    code = f"import sys, fermap, fermap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- lattice geometry -------------------------------------------------------


def test_build_lattice_counts_and_spacing():
    # 3^d atoms, and the largest overlap of two of them is that of nearest
    # neighbors one spacing apart
    for dim in (1, 2, 3):
        overlap = lattice_integrals(LatticeSpec(dim, 3, 1.0, spacing=1.0)).overlap
        assert overlap.shape == (3**dim, 3**dim)
        nn = np.max(overlap[~np.eye(3**dim, dtype=bool)])
        assert nn == pytest.approx(np.exp(-0.5 * ANGSTROM_TO_BOHR**2))


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(4, 2, 1.0)
    with pytest.raises(ValueError):
        LatticeSpec(1, 0, 1.0)
    with pytest.raises(ValueError):
        LatticeSpec(1, 2, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            LatticeSpec(1, 2, bad)
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            LatticeSpec(1, 2, 1.0, spacing=bad)


# --- integral values --------------------------------------------------------


def test_overlap_against_quadrature():
    alpha, spec = 0.8, LatticeSpec(1, 2, 0.8, spacing=1.3 / ANGSTROM_TO_BOHR)
    r = spec.spacing * ANGSTROM_TO_BOHR
    norm = ref_norm(alpha)

    def axis_integral(shift):
        val, _ = integrate.quad(
            lambda x: np.exp(-alpha * x * x - alpha * (x - shift) ** 2),
            -12,
            12,
            epsabs=1e-13,
        )
        return val

    expected = norm**2 * axis_integral(r) * axis_integral(0.0) ** 2
    raw = lattice_integrals(spec)
    assert raw.overlap[0, 1] == pytest.approx(expected, rel=1e-10)
    assert raw.overlap[0, 0] == pytest.approx(1.0)


#: Lattices of varied dimension and spacing for the reference checks
REFERENCE_GRIDS = [Grid(3, 2, 0.9), Grid(2, 3, 0.6), Grid(1, 5)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.7, 40.0])
def test_integrals_match_general_exponent_reference(alpha):
    for grid in REFERENCE_GRIDS:
        centers = centers_of(grid.spec(alpha))
        raw = lattice_integrals(grid.spec(alpha))
        m = len(centers)
        for i in range(m):
            for j in range(m):
                assert raw.overlap[i, j] == pytest.approx(
                    ref_overlap(alpha, alpha, centers[i], centers[j]), abs=1e-12
                )
                kin = ref_kinetic(alpha, alpha, centers[i], centers[j])
                att = sum(
                    ref_attraction(alpha, alpha, centers[i], centers[j], centers[c])
                    for c in range(m)
                )
                assert raw.core[i, j] == pytest.approx(kin + att, abs=1e-12)
        eri = dense_of(raw)
        last = m - 1
        for i, j, k, l in [(0, 0, 0, 0), (0, 1, 2, 0), (0, 1, 1, 2), (2, 2, 0, 1), (0, last, last, 1)]:
            assert eri[i, j, k, l] == pytest.approx(
                ref_eri(alpha, alpha, alpha, alpha, *(centers[x] for x in (i, j, k, l))),
                abs=1e-12,
            )


def dense_eri(spec):
    """All m^4 ERIs as one dense expression over every pair of pair midpoints,
    with squared distances h^2 times the integer ones on the grid."""
    grid, h = grid_of(spec)
    alpha, m = spec.exponent, len(grid)
    r2 = h * h * np.sum((grid[:, None] - grid[None]) ** 2, axis=2)
    kab = np.exp(-0.5 * alpha * r2).reshape(-1)
    doubled = (grid[:, None] + grid[None]).reshape(-1, spec.dimension)  # twice each midpoint
    pq2 = 0.25 * h * h * np.sum((doubled[:, None] - doubled[None]) ** 2, axis=2)
    p = 2.0 * alpha
    pref = (2.0 * alpha / np.pi) ** 3 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    return (pref * kab[:, None] * kab[None, :] * boys_f0(alpha * pq2)).reshape((m,) * 4)


@pytest.mark.parametrize(
    "centers, alpha",
    [(Grid(2, 5), 1.0), (Grid(3, 2), 8.75), (Grid(3, 3, 0.7), 0.7), (Grid(1, 20, 0.3), 2.3)],
)
def test_eri_matches_dense_expression(centers, alpha):
    spec = centers.spec(alpha)
    np.testing.assert_allclose(dense_of(lattice_integrals(spec)), dense_eri(spec), rtol=1e-14, atol=0)


def test_eri_below_the_floor_is_stored_as_zero():
    # (00|01) of two far-apart tight orbitals, 11.47 Bohr apart, is about
    # 1e-251, some 240 orders below any cutoff; such values would reach the
    # rotation as subnormal products
    spec = LatticeSpec(1, 2, 8.75, spacing=6.07)
    dense = dense_eri(spec)
    assert 0.0 < dense[0, 0, 0, 1] < 1e-200
    floored = np.where(dense < 1e-200, 0.0, dense)
    np.testing.assert_allclose(dense_of(lattice_integrals(spec)), floored, rtol=1e-14, atol=0)


def test_eri_is_bitwise_the_per_entry_formula():
    # every squared distance is h^2 times an integer, so each packed entry
    # (ij|kl) must equal ((pref kab[ij]) kab[kl]) F0(alpha h^2 D / 4) to the
    # bit, D the integer squared distance between the doubled midpoints
    # I_i + I_j and I_k + I_l, floored at 1e-200
    spec = LatticeSpec(3, 3, 41.7, spacing=1.06)
    grid, h = grid_of(spec)
    alpha, h2 = spec.exponent, (spec.spacing * ANGSTROM_TO_BOHR) ** 2
    i, j, k, l = packed_indices(len(grid), np.arange(packed_length(len(grid))))
    kab_ij, kab_kl = (
        np.exp(-0.5 * alpha * (h2 * np.sum((grid[a] - grid[b]) ** 2, axis=1))) for a, b in ((i, j), (k, l))
    )
    distance = np.sum((grid[i] + grid[j] - grid[k] - grid[l]) ** 2, axis=1)
    p = 2.0 * alpha
    pref = ((2.0 * alpha / np.pi) ** 1.5) ** 2 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    expected = pref * kab_ij * kab_kl * boys_f0(0.25 * alpha * h2 * distance)
    assert ((0.0 < expected) & (expected < 1e-200)).any() and (expected > 1e-200).any()
    expected[expected < 1e-200] = 0.0
    assert np.array_equal(packed_eri(lattice_integrals(spec)), expected)


#: 136 and 378 AO pairs; at exponent 40 some far pairs' (ab|ab) fall below
#: the floor
FACTORED_CASES = [(Grid(2, 4, 0.8), 1.3), (Grid(3, 3), 40.0)]


@pytest.mark.parametrize("centers, alpha", FACTORED_CASES)
def test_pair_block_is_symmetric_and_the_same_by_rows(centers, alpha):
    # bitwise on both sides of the diagonal: the full block equals its
    # transpose, and blocks of rows against every column equal its rows
    raw = lattice_integrals(centers.spec(alpha))
    every = np.arange(len(raw.kab))
    full = raw.pair_block(every, every)
    assert np.array_equal(full, full.T)
    for start in range(0, len(every), 64):
        rows = every[start : start + 64]
        assert np.array_equal(raw.pair_block(rows, every), full[rows])
    pairs = np.sort(np.random.default_rng(4).choice(len(every), size=60, replace=False))
    assert np.array_equal(raw.pair_block(pairs, pairs), full[np.ix_(pairs, pairs)])


@pytest.mark.parametrize("centers, alpha", FACTORED_CASES)
def test_schwarz_factors_are_the_packed_diagonal(centers, alpha):
    raw = lattice_integrals(centers.spec(alpha))
    pairs = np.arange(1, len(raw.kab) + 1)
    diagonal = packed_eri(raw)[triangular(pairs) - 1]  # (ab|ab) ends packed row ab
    assert (diagonal == 0.0).any() == (alpha == 40.0)
    assert np.array_equal(raw.schwarz_factors(), np.sqrt(diagonal))


def _integrals_peak(spec):
    tracemalloc.start()
    try:
        raw = lattice_integrals(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return raw, peak


def test_integrals_peak_memory_is_bounded_by_the_eri():
    # F0 over the 109 integer squared distances, kab and the doubled
    # midpoints take 0.04 MB, and they are built from arrays of m^2 or
    # (2n - 1)^3 m entries; the packed ERI alone, 17.3 MB, breaks the bound
    raw, peak = _integrals_peak(LatticeSpec(3, 4, 8.75))
    factored = sum(a.nbytes for a in (raw.kab, raw.midpoint, raw.boys, raw.overlap, raw.core))
    assert raw.num_orbitals == 64 and raw.boys.shape == (109,)
    assert peak <= 8 * factored


def test_side_8_integrals_peak_memory_is_under_100_mib():
    # 512 orbitals: a table of F0 over every pair of the 3375 distinct pair
    # midpoints, built as it once was, peaked at 409 MiB
    raw, peak = _integrals_peak(LatticeSpec(3, 8, 8.75))
    assert raw.num_orbitals == 512 and raw.boys.shape == (589,)
    assert peak < 100 * 2**20


def test_single_center_known_values():
    alpha = 1.5
    raw = lattice_integrals(LatticeSpec(1, 1, alpha))
    # <T> = 3*alpha/2, <1/r> = 2*sqrt(2*alpha/pi) for a normalized s Gaussian
    assert raw.core[0, 0] == pytest.approx(1.5 * alpha - 2.0 * np.sqrt(2 * alpha / np.pi))
    # on-site repulsion (ss|ss) = sqrt(2/pi) * 2 * sqrt(alpha) / sqrt(2) * ... check
    # against the general-exponent reference instead of a hand-derived constant
    eri = packed_eri(raw)
    assert eri.shape == (1,)
    assert eri[0] == pytest.approx(
        ref_eri(alpha, alpha, alpha, alpha, *([np.zeros(3)] * 4))
    )
    assert raw.nuclear_repulsion == 0.0


def test_eri_eightfold_symmetry():
    # every slot of the closed form obeys the 8-fold symmetry, so storing one
    # slot per orbit loses nothing
    spec = LatticeSpec(1, 3, 2.0)
    eri = dense_eri(spec)
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]:
        assert np.allclose(eri, eri.transpose(perm), atol=1e-13)
    np.testing.assert_allclose(dense_of(lattice_integrals(spec)), eri, rtol=1e-14, atol=0)


def test_offsite_overlap_decreases_with_exponent():
    values = [lattice_integrals(LatticeSpec(1, 2, a)).overlap[0, 1] for a in (1.0, 3.0, 5.0, 8.75)]
    assert all(x > y > 0 for x, y in zip(values, values[1:]))


def test_nuclear_repulsion_pair_sum():
    spec = LatticeSpec(1, 3, 1.0, spacing=1.0)
    raw = lattice_integrals(spec)
    d = ANGSTROM_TO_BOHR
    assert raw.nuclear_repulsion == pytest.approx(1 / d + 1 / d + 1 / (2 * d))
