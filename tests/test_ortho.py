"""Basis orthogonalization: metric identities, minimality, spectral
invariance of the rotated problem."""

import tracemalloc

import numpy as np
import pytest

from fermap.eri import Survivors, packed_length, triangular, unpack_eri
from fermap.fermion import classify_spatial
from fermap.jw import jw_transform_terms
from fermap.lattice import LatticeSpec, lattice_integrals
from fermap.oracle import dense_matrix
from fermap.ortho import (
    ERROR_BUDGET,
    EmptyBasisError,
    NearLinearDependenceError,
    _rotate_screened,
    _schwarz_screen,
    canonical_orthogonalizer,
    orthonormal_integrals,
    rotate_integrals,
    symmetric_orthogonalizer,
)


def random_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = np.linspace(1.0, cond, n)
    return q @ np.diag(vals / cond) @ q.T


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_symmetric_orthogonalizer_metric_identity(n):
    s = random_spd(n, n)
    x = symmetric_orthogonalizer(s)
    assert np.allclose(x.T @ s @ x, np.eye(n), atol=1e-9)
    assert np.allclose(x, x.T, atol=1e-9)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_canonical_orthogonalizer_metric_identity(n):
    s = random_spd(n, 50 + n)
    x = canonical_orthogonalizer(s)
    assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-9)


def test_symmetric_orthogonalizer_is_closest_to_original_basis():
    # among X' = X O (O orthogonal), the symmetric choice minimizes
    # tr[(X - I)^T S (X - I)], i.e. the total displacement of the orbitals
    s = random_spd(5, 3)
    x = symmetric_orthogonalizer(s)

    def displacement(mat):
        d = mat - np.eye(5)
        return float(np.trace(d.T @ s @ d))

    base = displacement(x)
    rng = np.random.default_rng(0)
    for _ in range(25):
        o, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert base <= displacement(x @ o) + 1e-10


def test_canonical_truncation_drops_small_eigenvalues():
    s = np.diag([1.0, 0.5, 1e-12])
    x = canonical_orthogonalizer(s)
    assert x.shape == (3, 2)
    assert np.allclose(x.T @ s @ x, np.eye(2))


def test_near_linear_dependence_raises():
    s = np.diag([1.0, 1e-14])
    with pytest.raises(NearLinearDependenceError):
        symmetric_orthogonalizer(s)


def test_all_dropped_raises():
    with pytest.raises(EmptyBasisError):
        canonical_orthogonalizer(np.diag([1e-12, 1e-13]))


def test_rotated_overlap_becomes_identity():
    raw = lattice_integrals(LatticeSpec(1, 3, 3.0))
    x = symmetric_orthogonalizer(raw.overlap)
    assert np.allclose(x.T @ raw.overlap @ x, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("side", [2, 3])
def test_spectrum_invariant_under_orthogonalization_choice(side):
    # symmetric and canonical rotations span the same orthonormal space, so
    # the qubit Hamiltonians must be isospectral
    raw = lattice_integrals(LatticeSpec(1, side, 5.0))
    spectra = []
    for factory in (symmetric_orthogonalizer, canonical_orthogonalizer):
        h1, eri, c = rotate_integrals(raw, factory(raw.overlap))
        mat = dense_matrix(jw_transform_terms(classify_spatial(h1, eri), 2 * side, c))
        spectra.append(np.sort(np.linalg.eigvalsh(mat)))
    assert np.allclose(spectra[0], spectra[1], atol=1e-8)


def test_rotate_integrals_dimension_check():
    raw = lattice_integrals(LatticeSpec(1, 3, 3.0))
    bad = symmetric_orthogonalizer(np.eye(2))
    with pytest.raises(ValueError):
        rotate_integrals(raw, bad)


def _orthogonalizer(raw, truncate):
    if truncate:  # keep the columns of the larger half of the overlap eigenvalues: k < m
        return canonical_orthogonalizer(raw.overlap)[:, raw.num_orbitals // 2 :]
    return symmetric_orthogonalizer(raw.overlap)


def _einsum_rotation(raw, x):
    every = np.arange(len(raw.kab))
    packed = raw.pair_block(every, every)[np.tri(len(every), dtype=bool)]
    kept = np.flatnonzero(packed)
    dense = unpack_eri(Survivors(kept, packed[kept]), raw.num_orbitals)
    return np.einsum("pi,qj,rk,sl,pqrs->ijkl", x, x, x, x, dense, optimize=True)


@pytest.mark.parametrize(
    "spec, truncate",
    [
        pytest.param(LatticeSpec(1, 1, 1.0), False, id="m1"),  # one pair
        pytest.param(LatticeSpec(2, 3, 1.0), False, id="False"),
        pytest.param(LatticeSpec(2, 3, 1.0), True, id="True"),
        # 378 MO pairs reached: several blocks of 64 rows of T and a partial last one
        pytest.param(LatticeSpec(3, 3, 3.0), False, id="3d-False"),
        pytest.param(LatticeSpec(3, 3, 1.0), True, id="3d-True"),
    ],
)
def test_rotate_integrals_matches_einsum(spec, truncate):
    raw = lattice_integrals(spec)
    x = _orthogonalizer(raw, truncate)
    screen = _schwarz_screen(raw, x)
    assert screen.bound + screen.floor <= ERROR_BUDGET * (1 + 1e-12)
    h1, eri, constant = rotate_integrals(raw, x)
    k = x.shape[1]
    # what the pair screen and the floor drop, plus rounding
    deviation = np.abs(unpack_eri(eri, k) - _einsum_rotation(raw, x)).max()
    assert deviation <= screen.bound + screen.floor + 1e-14
    np.testing.assert_allclose(h1, x.T @ raw.core @ x, rtol=0, atol=1e-14)
    assert np.array_equal(h1, h1.T)  # bitwise, as an FCIDUMP file's triangle reads back
    assert constant == raw.nuclear_repulsion


def test_rotation_does_not_depend_on_the_block_size(monkeypatch):
    raw = lattice_integrals(LatticeSpec(2, 3, 1.0))
    x = canonical_orthogonalizer(raw.overlap)[:, raw.num_orbitals // 2 :]  # truncated: k < m
    _, whole, _ = rotate_integrals(raw, x)
    monkeypatch.setattr("fermap.ortho._ROTATE_BLOCK", 7)  # 15 rows of R, 7 at a time
    blocked = rotate_integrals(raw, x)[1]
    assert np.array_equal(blocked.positions, whole.positions)
    np.testing.assert_allclose(blocked.values, whole.values, rtol=0, atol=1e-15)


@pytest.mark.parametrize("truncate", [False, True])
def test_screened_rotation_matches_einsum_within_its_bound(truncate):
    # m = 27 with tight orbitals: the symmetric orbitals are local, and the
    # screen 1e-8 keeps 81 of 378 AO pairs; the canonical ones are
    # delocalized, and only the screen 1e-14 brings the bound within budget
    raw = lattice_integrals(LatticeSpec(3, 3, 8.75))
    x = _orthogonalizer(raw, truncate)
    screen = _schwarz_screen(raw, x)
    assert screen.pair_screen == pytest.approx(1e-14 if truncate else 1e-8, rel=1e-12)
    eri = _rotate_screened(raw, screen)
    k = x.shape[1]
    deviation = np.abs(unpack_eri(eri, k) - _einsum_rotation(raw, x)).max()
    # what the pair screen and the floor drop, plus rounding
    assert deviation <= screen.bound + screen.floor + 1e-14
    assert all(map(np.array_equal, rotate_integrals(raw, x)[1], eri))


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(LatticeSpec(3, 4, 8.75), id="d3-s4-a8.75"),  # forms 208 of 964 MO pairs
        pytest.param(LatticeSpec(3, 3, 8.75), id="d3-s3-a8.75"),
        pytest.param(LatticeSpec(3, 3, 3.0), id="d3-s3-a3.00"),
        pytest.param(LatticeSpec(1, 10, 1.0), id="d1-s10-a1.00"),
    ],
)
def test_the_row_rule_keeps_every_entry_that_reaches_the_floor(spec):
    # against the same kernel over every MO pair with no floor: an entry at
    # twice the floor, far above rounding, must survive with its value, so
    # every entry that reaches 2e-7 at the default cutoff does
    raw = lattice_integrals(spec)
    x = symmetric_orthogonalizer(raw.overlap)
    screen = _schwarz_screen(raw, x)
    every = _rotate_screened(raw, screen._replace(rows=np.arange(triangular(len(x))), floor=0.0))
    kept = _rotate_screened(raw, screen)
    large = np.abs(every.values) >= 2.0 * screen.floor
    found = np.searchsorted(kept.positions, every.positions[large])
    assert np.array_equal(kept.positions[np.minimum(found, len(kept.positions) - 1)], every.positions[large])
    np.testing.assert_allclose(kept.values[found], every.values[large], rtol=1e-12, atol=0)
    assert np.all(np.abs(kept.values) >= screen.floor)


@pytest.mark.parametrize(
    "spec, pair_screen",
    [
        pytest.param(LatticeSpec(3, 4, 8.75), 1e-8, id="d3-s4-a8.75"),
        pytest.param(LatticeSpec(3, 3, 8.75), 1e-8, id="d3-s3-a8.75"),
        pytest.param(LatticeSpec(3, 2, 8.75), 1e-8, id="d3-s2-a8.75"),
        pytest.param(LatticeSpec(1, 10, 3.0), 1e-10, id="d1-s10-a3.00"),
        pytest.param(LatticeSpec(2, 4, 1.0), 1e-12, id="d2-s4-a1.00"),
        pytest.param(LatticeSpec(3, 4, 3.0), 1e-12, id="d3-s4-a3.00"),
        pytest.param(LatticeSpec(3, 3, 3.0), 1e-12, id="d3-s3-a3.00"),
        pytest.param(LatticeSpec(1, 10, 1.0), 1e-14, id="d1-s10-a1.00"),
    ],
)
def test_each_cell_gets_the_loosest_pair_screen_within_the_budget(spec, pair_screen):
    raw = lattice_integrals(spec)
    screen = _schwarz_screen(raw, symmetric_orthogonalizer(raw.overlap))
    assert screen.pair_screen == pytest.approx(pair_screen, rel=1e-12)
    assert screen.bound <= ERROR_BUDGET


def test_no_pair_screen_within_the_budget_keeps_everything(monkeypatch):
    # with no room for error every screen that drops an entry of X fails, so
    # every AO pair, every entry of X and every MO pair is kept
    raw = lattice_integrals(LatticeSpec(3, 3, 8.75))
    x = symmetric_orthogonalizer(raw.overlap)
    monkeypatch.setattr("fermap.ortho.ERROR_BUDGET", 0.0)
    screen = _schwarz_screen(raw, x)
    assert (screen.pair_screen, screen.bound) == (0.0, 0.0)
    assert len(screen.pairs) == len(screen.rows) == 378
    assert np.array_equal(screen.x, x)
    eri = rotate_integrals(raw, x)[1]
    np.testing.assert_allclose(unpack_eri(eri, 27), _einsum_rotation(raw, x), rtol=0, atol=1e-14)


def _rotation_peak(spec):
    raw = lattice_integrals(spec)
    x = symmetric_orthogonalizer(raw.overlap)
    tracemalloc.start()
    try:
        rotate_integrals(raw, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return raw.num_orbitals, peak


def test_rotation_peak_memory_is_bounded_by_the_eri():
    # m = 27 at the screen 1e-12, which keeps 284 of 378 AO pairs: G_SS, C_SR
    # and G_SS C_SR take 1.2-1.6 m^4 bytes each; no packed AO ERI and no
    # packed output is built.  One dense m^4 float64 temporary alone breaks
    # the bound
    m, peak = _rotation_peak(LatticeSpec(3, 3, 3.0))
    assert m == 27
    assert peak <= 0.8 * m**4 * 8


def test_screened_rotation_peak_memory_is_bounded_by_the_output():
    # m = 64 at the screen 1e-8: the matrices of the 208 kept AO pairs and
    # 208 formed MO pairs, 0.012 m^4 float64; the packed output, 0.13 m^4,
    # breaks the bound
    m, peak = _rotation_peak(LatticeSpec(3, 4, 8.75))
    assert m == 64
    assert peak <= 0.05 * m**4 * 8


def test_side_5_integrals_and_classification_hold_one_packed_array():
    # m = 125: a packed rotated ERI would take 248 MB.  No raw packed ERI is
    # built and only 45 375 rotated entries leave the rotation, so the stage
    # peaks at about a tenth of that array (24 MB), and any array of packed
    # size breaks the bound
    tracemalloc.start()
    try:
        h1, eri, _ = orthonormal_integrals(LatticeSpec(3, 5, 8.75))
        classify_spatial(h1, eri, cutoff=1e-7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * packed_length(125) * 8
