"""Analytic s-Gaussian integrals against quadrature and an independent
general-exponent implementation."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from fermap.eri import Survivors, packed_indices, packed_length, triangular, unpack_eri
from fermap.lattice import (
    ANGSTROM_TO_BOHR,
    GeometryError,
    LatticeSpec,
    _distinct_points,
    boys_f0,
    build_lattice,
    compute_integrals,
    lattice_integrals,
)


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
    for dim in (1, 2, 3):
        spec = LatticeSpec(dim, 3, 1.0, spacing=1.0)
        pts = build_lattice(spec)
        assert pts.shape == (3**dim, 3)
        dists = np.linalg.norm(pts[None] - pts[:, None], axis=2)
        nn = np.min(dists[dists > 0])
        assert nn == pytest.approx(ANGSTROM_TO_BOHR)


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


def test_coincident_centers_rejected():
    with pytest.raises(GeometryError):
        compute_integrals(np.zeros((2, 3)), 1.0)


# --- integral values --------------------------------------------------------


def test_overlap_against_quadrature():
    alpha, r = 0.8, 1.3
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
    raw = compute_integrals(np.array([[0.0, 0, 0], [r, 0, 0]]), alpha)
    assert raw.overlap[0, 1] == pytest.approx(expected, rel=1e-10)
    assert raw.overlap[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.7])
def test_integrals_match_general_exponent_reference(alpha):
    rng = np.random.default_rng(42)
    centers = rng.uniform(-1.0, 1.0, size=(3, 3))
    centers[1] += 2.0  # keep centers distinct
    centers[2] -= 2.0
    raw = compute_integrals(centers, alpha)
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
    for i, j, k, l in [(0, 0, 0, 0), (0, 1, 2, 0), (0, 1, 1, 2), (2, 2, 0, 1)]:
        assert eri[i, j, k, l] == pytest.approx(
            ref_eri(alpha, alpha, alpha, alpha, *(centers[x] for x in (i, j, k, l))),
            abs=1e-12,
        )


def dense_eri(centers, alpha):
    """All m^4 ERIs as one dense expression over every pair of pair midpoints."""
    m = len(centers)
    r2 = np.sum((centers[:, None] - centers[None]) ** 2, axis=2)
    kab = np.exp(-0.5 * alpha * r2).reshape(-1)
    pairs = (0.5 * (centers[:, None] + centers[None])).reshape(-1, 3)
    sq = np.sum(pairs * pairs, axis=1)
    pq2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pairs @ pairs.T), 0.0)
    p = 2.0 * alpha
    pref = (2.0 * alpha / np.pi) ** 3 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    return (pref * kab[:, None] * kab[None, :] * boys_f0(alpha * pq2)).reshape((m,) * 4)


def random_centers(m, seed):
    return np.random.default_rng(seed).uniform(-3.0, 3.0, size=(m, 3))


@pytest.mark.parametrize(
    "centers, alpha",
    [
        (build_lattice(LatticeSpec(2, 5, 1.0)), 1.0),
        (build_lattice(LatticeSpec(3, 2, 8.75)), 8.75),
        (random_centers(9, 0), 0.7),  # no two pair midpoints coincide
        (random_centers(20, 1), 2.3),
    ],
)
def test_eri_matches_dense_expression(centers, alpha):
    eri = dense_of(compute_integrals(centers, alpha))
    np.testing.assert_allclose(eri, dense_eri(centers, alpha), rtol=1e-14, atol=0)


def test_eri_below_the_floor_is_stored_as_zero():
    # (00|01) of two far-apart tight orbitals is about 1e-251, some 240 orders
    # below any cutoff; such values would reach the rotation as subnormal products
    centers = np.array([[0.0, 0.0, 0.0], [11.47, 0.0, 0.0]])
    dense = dense_eri(centers, 8.75)
    assert 0.0 < dense[0, 0, 0, 1] < 1e-200
    floored = np.where(dense < 1e-200, 0.0, dense)
    np.testing.assert_allclose(dense_of(compute_integrals(centers, 8.75)), floored, rtol=1e-14, atol=0)


def test_eri_is_bitwise_the_per_entry_formula():
    # on a grid of even integer centers every distance and pair midpoint is
    # exact in floating point, so each packed entry (ij|kl) must equal
    # ((pref kab[ij]) kab[kl]) F0 to the bit, floored at 1e-200
    grid = np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij")
    centers = 2.0 * np.stack(grid, axis=-1).reshape(-1, 3)
    alpha = 41.7
    i, j, k, l = packed_indices(len(centers), np.arange(packed_length(len(centers))))
    kab_ij, kab_kl = (
        np.exp(-0.5 * alpha * np.sum((centers[a] - centers[b]) ** 2, axis=1))
        for a, b in ((i, j), (k, l))
    )
    pq = 0.5 * (centers[i] + centers[j]) - 0.5 * (centers[k] + centers[l])
    p = 2.0 * alpha
    pref = ((2.0 * alpha / np.pi) ** 1.5) ** 2 * 2.0 * np.pi**2.5 / (p * p * np.sqrt(2.0 * p))
    expected = pref * kab_ij * kab_kl * boys_f0(alpha * np.sum(pq * pq, axis=1))
    assert ((0.0 < expected) & (expected < 1e-200)).any() and (expected > 1e-200).any()
    expected[expected < 1e-200] = 0.0
    assert np.array_equal(packed_eri(compute_integrals(centers, alpha)), expected)


#: 20 random centers, 210 AO pairs; at exponent 40 some far pairs' (ab|ab)
#: fall below the floor
FACTORED_CASES = [(random_centers(20, 2), 1.3), (random_centers(20, 3), 40.0)]


@pytest.mark.parametrize("centers, alpha", FACTORED_CASES)
def test_pair_block_is_symmetric_and_the_same_by_rows(centers, alpha):
    # bitwise on both sides of the diagonal: the full block equals its
    # transpose, and blocks of rows against every column equal its rows
    raw = compute_integrals(centers, alpha)
    every = np.arange(210)
    full = raw.pair_block(every, every)
    assert np.array_equal(full, full.T)
    for start in range(0, 210, 64):
        rows = every[start : start + 64]
        assert np.array_equal(raw.pair_block(rows, every), full[rows])
    pairs = np.sort(np.random.default_rng(4).choice(210, size=60, replace=False))
    assert np.array_equal(raw.pair_block(pairs, pairs), full[np.ix_(pairs, pairs)])


@pytest.mark.parametrize("centers, alpha", FACTORED_CASES)
def test_schwarz_factors_are_the_packed_diagonal(centers, alpha):
    raw = compute_integrals(centers, alpha)
    diagonal = packed_eri(raw)[triangular(np.arange(1, 211)) - 1]  # (ab|ab) ends packed row ab
    assert (diagonal == 0.0).any() == (alpha == 40.0)
    assert np.array_equal(raw.schwarz_factors(), np.sqrt(diagonal))


@pytest.mark.parametrize(
    "spec, count",
    [(LatticeSpec(1, 10, 1.0), 19), (LatticeSpec(2, 4, 1.0), 49), (LatticeSpec(3, 6, 8.75), 1331)],
)
def test_lattice_midpoints_split_by_rounding_are_one_point(spec, count):
    # the pair midpoints of a side-n grid take 2n - 1 values per axis, but
    # 0.5 * (a + b) rounds some of them apart: 25 points for d1 n10 and 2197
    # for d3 side 6 when compared exactly
    assert lattice_integrals(spec).boys.shape == (count, count)


def test_distinct_points_are_the_first_of_each_rounded_group():
    x = 1.7
    points = np.array(
        [[x, 0.0, 1.0], [np.nextafter(x, 2.0), 0.0, 1.0], [x, 0.0, 1.5], [np.nextafter(x, 0.0), 0.0, 1.0]]
    )
    distinct, which = _distinct_points(points, 1e-12)
    assert which.tolist() == [0, 0, 1, 0]
    assert distinct.tobytes() == points[[0, 2]].tobytes()
    # compared exactly, the three copies of one point stay three points
    assert len(_distinct_points(points, 0.0)[0]) == 4


def test_integrals_peak_memory_is_bounded_by_the_eri():
    # the F0 table over the 343 distinct midpoints, kab and the midpoint
    # index take 1.0 MB, and the tables are built from a few arrays that
    # size; the packed ERI alone, 17.3 MB, breaks the bound
    tracemalloc.start()
    try:
        raw = lattice_integrals(LatticeSpec(3, 4, 8.75))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factored = sum(a.nbytes for a in (raw.kab, raw.midpoint, raw.boys, raw.overlap, raw.core))
    assert raw.num_orbitals == 64 and raw.boys.shape == (343, 343)
    assert peak <= 8 * factored


def test_single_center_known_values():
    alpha = 1.5
    raw = compute_integrals(np.zeros((1, 3)), alpha)
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
    eri = dense_eri(build_lattice(spec), spec.exponent)
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]:
        assert np.allclose(eri, eri.transpose(perm), atol=1e-13)
    np.testing.assert_allclose(dense_of(lattice_integrals(spec)), eri, rtol=1e-14, atol=0)


def test_translation_invariance():
    alpha = 1.1
    centers = np.array([[0.0, 0, 0], [1.7, 0, 0], [0.3, 1.1, 0]])
    a = compute_integrals(centers, alpha)
    b = compute_integrals(centers + np.array([2.5, -1.0, 0.7]), alpha)
    assert np.allclose(a.overlap, b.overlap, atol=1e-12)
    assert np.allclose(a.core, b.core, atol=1e-12)
    assert np.allclose(packed_eri(a), packed_eri(b), atol=1e-12)
    assert a.nuclear_repulsion == pytest.approx(b.nuclear_repulsion)


def test_offsite_overlap_decreases_with_exponent():
    centers = np.array([[0.0, 0, 0], [ANGSTROM_TO_BOHR, 0, 0]])
    values = [compute_integrals(centers, a).overlap[0, 1] for a in (1.0, 3.0, 5.0, 8.75)]
    assert all(x > y > 0 for x, y in zip(values, values[1:]))


def test_nuclear_repulsion_pair_sum():
    spec = LatticeSpec(1, 3, 1.0, spacing=1.0)
    raw = lattice_integrals(spec)
    d = ANGSTROM_TO_BOHR
    assert raw.nuclear_repulsion == pytest.approx(1 / d + 1 / d + 1 / (2 * d))
