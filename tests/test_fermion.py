"""Spatial-integral Hamiltonians and their term classification against the
dense Fock-space oracle."""

import numpy as np
import pytest

from fermap.eri import (
    Survivors,
    orbit_keys,
    pack_eri,
    packed_indices,
    packed_length,
    pair_table,
    tri_index,
)
from fermap.fermion import (
    ClassifiedTerms,
    Kind,
    _summed,
    blocked_modes,
    classify_spatial,
    from_spatial_integrals,
)
from fermap.lattice import LatticeSpec
from fermap.oracle import classified_dense, fermion_dense, fock_ladder_operators
from fermap.ortho import orthonormal_integrals
from fermap.sampling import random_spatial_hamiltonian, random_spatial_integrals


def general_integrals(seed, m=3):
    """Random symmetric h1 and ERI survivors of m orbitals, with about half of
    the ERI orbits zero; every term kind still appears, so
    every sign branch of the classification sees nonzero entries."""
    rng = np.random.default_rng(seed)
    packed = rng.normal(scale=2.0, size=packed_length(m)) * (rng.random(packed_length(m)) < 0.5)
    a = rng.normal(size=(m, m))
    return a + a.T, _survivors(packed)


def test_from_spatial_integrals_spin_deltas():
    h1, eri = random_spatial_integrals(2, np.random.default_rng(1))
    h = from_spatial_integrals(h1, eri)
    spin = blocked_modes(h.num_modes)[1]
    terms = classify_spatial(h.one_body, h.eri)
    # no hopping between spins, in the terms or in the dense spin sum
    for kind in (Kind.EXCITATION, Kind.NUMBER_EXCITATION):
        rows = terms.by_kind[kind][0]
        assert (spin[rows[:, 0]] == spin[rows[:, -1]]).all()
    a = fock_ladder_operators(h.num_modes)
    n_up = sum(a[p].conj().T @ a[p] for p in np.flatnonzero(spin == 0))
    dense = fermion_dense(h)
    assert np.abs(dense @ n_up - n_up @ dense).max() < 1e-12
    # opposite-spin Coulomb is (ii|jj); same-spin Coulomb loses the exchange (ij|ji)
    coulomb = {t.indices: t.coefficient for t in terms if t.kind is Kind.COULOMB_EXCHANGE}
    assert coulomb[(0, 3)] == pytest.approx(eri[0, 0, 1, 1])
    assert coulomb[(1, 2)] == pytest.approx(eri[0, 0, 1, 1])
    assert coulomb[(0, 2)] == pytest.approx(eri[0, 0, 0, 0])
    assert coulomb[(0, 1)] == pytest.approx(eri[0, 0, 1, 1] - eri[0, 1, 1, 0])


def test_from_spatial_rejects_asymmetric_input():
    h1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        from_spatial_integrals(h1, np.zeros((2,) * 4))
    with pytest.raises(ValueError, match="symmetric"):
        classify_spatial(h1, Survivors(np.empty(0, dtype=int), np.empty(0)))
    with pytest.raises(ValueError, match="square"):
        classify_spatial(np.ones(2), np.zeros((2,) * 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrals_are_rejected_in_every_form(bad):
    # NaN passes a symmetry check, and an infinite integral would map to an
    # infinite L1 norm; survivors are checked by Survivors.checked
    h1, eri = random_spatial_integrals(2, np.random.default_rng(2))
    bad_h1 = h1.copy()
    bad_h1[1, 1] = bad
    bad_eri = eri.copy()
    bad_eri[0, 0, 1, 1] = bad_eri[1, 1, 0, 0] = bad
    bad_survivors = Survivors(np.array([0, 3]), np.array([1.0, bad]))
    for args, message in (
        ((bad_h1, eri), "one-body matrix must be square, finite"),
        ((h1, bad_eri), "ERI tensor must be finite"),
        ((h1, bad_survivors), "finite"),
    ):
        with pytest.raises(ValueError, match=message):
            from_spatial_integrals(*args)
        with pytest.raises(ValueError, match=message):
            classify_spatial(*args)


def test_classify_spatial_cutoff_drops_small_entries():
    # one-body entries pass at |h_ij| >= cutoff, two-body ones at |(ij|kl)| / 2 >= cutoff
    h1 = np.array([[1.0, 1e-9], [1e-9, 0.5]])
    eri = np.zeros((2,) * 4)
    eri[0, 0, 0, 0] = 3e-7
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 1.5e-7
    terms = classify_spatial(h1, eri, cutoff=1e-7)
    assert list(terms.by_kind) == [Kind.NUMBER, Kind.COULOMB_EXCHANGE]
    assert terms.by_kind[Kind.NUMBER][1].tolist() == [1.0, 0.5, 1.0, 0.5]
    assert terms.by_kind[Kind.COULOMB_EXCHANGE][0].tolist() == [[0, 2]]
    assert terms.by_kind[Kind.COULOMB_EXCHANGE][1].tolist() == [3e-7]


@pytest.mark.parametrize("seed", range(6))
def test_classify_reconstructs_dense_hamiltonian(seed):
    # the classified self-adjoint terms, rebuilt on Fock space, must equal
    # the raw second-quantized Hamiltonian matrix
    h = random_spatial_hamiltonian(2, seed)
    terms = classify_spatial(h.one_body, h.eri)
    rebuilt = classified_dense(terms, h.num_modes, h.constant)
    assert np.allclose(rebuilt, fermion_dense(h), atol=1e-10)


def test_classify_is_hermitian_decomposition():
    h = random_spatial_hamiltonian(2, 99)
    mat = classified_dense(classify_spatial(h.one_body, h.eri), h.num_modes, h.constant)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)


@pytest.mark.parametrize("cutoff", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_classify_general_tensors_match_fermion_dense(seed, cutoff):
    h1, eri = general_integrals(seed)
    terms = classify_spatial(h1, eri, cutoff)
    assert {t.kind for t in terms} == set(Kind)
    assert list(terms.by_kind) == list(Kind)  # Kind order
    assert len(list(terms)) == len(terms)
    i, j, k, l = terms.by_kind[Kind.DOUBLE_EXCITATION][0].T
    assert ((i < j) & (l < k) & (i < l)).all()  # (i, j, k, l) < its h.c. (l, k, j, i)
    # the spin sum of the integrals that pass the cutoff
    large = np.abs(eri.values) >= 2 * cutoff
    cut = from_spatial_integrals(
        np.where(np.abs(h1) >= cutoff, h1, 0.0),
        Survivors(eri.positions[large], eri.values[large]),
        0.3,
    )
    rebuilt = classified_dense(terms, cut.num_modes, cut.constant)
    assert np.allclose(rebuilt, fermion_dense(cut), atol=1e-10)


def test_classify_drops_terms_that_cancel_exactly():
    # same spin: (00|11) n_0 n_1 and the exchange (01|10) a_0^ a_1^ a_0 a_1 = -(01|10) n_0 n_1
    # sum to exactly 0, so no same-spin n_0 n_1 term is kept
    eri = np.zeros((2,) * 4)
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 0.8
    eri[0, 1, 1, 0] = eri[1, 0, 0, 1] = eri[0, 1, 0, 1] = eri[1, 0, 1, 0] = 0.8
    terms = classify_spatial(np.diag([0.5, 0.0]), eri)
    assert terms.by_kind[Kind.COULOMB_EXCHANGE][0].tolist() == [[0, 3], [1, 2]]
    assert [(t.kind, t.indices, t.coefficient) for t in terms if t.kind is Kind.NUMBER] == [
        (Kind.NUMBER, (0,), 0.5),
        (Kind.NUMBER, (2,), 0.5),
    ]


def test_classification_does_not_depend_on_the_block_size(monkeypatch):
    h1, eri = random_spatial_integrals(3, np.random.default_rng(8))
    whole = list(classify_spatial(h1, eri))  # 81 distinct ERI copies: one block, or 12 of 7
    monkeypatch.setattr("fermap.fermion._BLOCK", 7)
    assert list(classify_spatial(h1, eri)) == whole  # every sum still adds in input order


def test_survivors_at_the_two_body_threshold_are_kept():
    # a survivor passes at |(ij|kl)| >= 2 cutoff, read from its values as they are:
    # at cutoff 0.25 the entry 0.5 sits on the threshold, and just above it drops out
    positions = np.array([0, 2, 3, 5])
    values = np.array([1.0, -2.0, 0.5, 3.0])
    h1 = np.zeros((2, 2))
    for cutoff in (0.0, 0.25, np.nextafter(0.25, 1.0), 1.0, 2.0):
        kept = np.abs(values) >= 2 * cutoff
        expected = classify_spatial(h1, Survivors(positions[kept], values[kept]))
        assert list(classify_spatial(h1, Survivors(positions, values), cutoff)) == list(expected)
    survivors = Survivors(positions, values)
    at, above = (list(classify_spatial(h1, survivors, c)) for c in (0.25, np.nextafter(0.25, 1.0)))
    assert len(at) > len(above)


def test_number_and_coulomb_classification():
    m = 2
    h1 = np.diag([0.7, -0.3])
    eri = np.zeros((m,) * 4)
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 0.8  # (00|11) Coulomb
    terms = classify_spatial(h1, eri)
    kinds = {t.kind for t in terms}
    assert Kind.NUMBER in kinds and Kind.COULOMB_EXCHANGE in kinds
    numbers = {t.indices[0]: t.coefficient for t in terms if t.kind is Kind.NUMBER}
    assert numbers[0] == pytest.approx(0.7)
    assert numbers[2] == pytest.approx(0.7)  # spin-down copy (blocked)


def _survivors(packed):
    """The nonzero entries of a packed ERI."""
    kept = np.flatnonzero(packed)
    return Survivors(kept, packed[kept])


@pytest.mark.parametrize("cutoff", [0.0, 0.2])
def test_classify_spatial_dense_and_packed_input_agree(cutoff):
    # a dense tensor and its survivors
    h1, eri = random_spatial_integrals(4, np.random.default_rng(3))
    dense = classify_spatial(h1, eri, cutoff=cutoff)
    other = classify_spatial(h1, pack_eri(eri), cutoff=cutoff)
    assert list(dense.by_kind) == list(other.by_kind)
    for kind, (indices, coefficients) in dense.by_kind.items():
        assert np.array_equal(other.by_kind[kind][0], indices)
        assert np.array_equal(other.by_kind[kind][1], coefficients)


def test_classify_spatial_rejects_an_asymmetric_tensor():
    # packing keeps one slot per orbit, so an asymmetric tensor would lose entries silently
    h1, eri = random_spatial_integrals(3, np.random.default_rng(4))
    eri[0, 1, 2, 2] += 1e-6
    with pytest.raises(ValueError, match="8-fold"):
        classify_spatial(h1, eri)
    with pytest.raises(ValueError, match="8-fold"):
        from_spatial_integrals(h1, eri)


def test_classify_spatial_rejects_a_packed_array():
    # packed_length(3) == 21: survivors or a dense tensor are the two forms
    for size in (20, 21):
        for reader in (classify_spatial, from_spatial_integrals):
            with pytest.raises(ValueError, match=r"Survivors or a dense tensor of shape \(3, "):
                reader(np.eye(3), np.zeros(size))


@pytest.mark.parametrize(
    "positions, values, message",
    [
        pytest.param([0.0, 5.0], [1.0, 2.0], "integers", id="positions-not-integers"),
        pytest.param([5, 5], [1.0, 2.0], "ascending", id="positions-not-ascending"),
        pytest.param([0, 21], [1.0, 2.0], "positions 0 to 20", id="position-past-the-end"),
        pytest.param([0, 5], [1.0, np.nan], "finite", id="value-not-finite"),
        pytest.param([0, 5], [1.0, 0.0], "nonzero", id="value-zero"),
        pytest.param([0, 5, 6], [1.0, 2.0], "2 survivor values for 3 positions", id="count-mismatch"),
    ],
)
def test_malformed_survivors_are_rejected(positions, values, message):
    # packed_length(3) == 21
    eri = Survivors(np.array(positions), np.array(values))
    with pytest.raises(ValueError, match=message):
        classify_spatial(np.eye(3), eri)
    with pytest.raises(ValueError, match=message):
        from_spatial_integrals(np.eye(3), eri)


def test_from_spatial_integrals_stores_survivors():
    h1, eri = random_spatial_integrals(3, np.random.default_rng(6))
    packed = from_spatial_integrals(h1, pack_eri(eri), 0.4)
    dense = from_spatial_integrals(h1, eri, 0.4)
    assert isinstance(dense.eri, Survivors) and np.array_equal(packed.one_body, h1)
    for field in (0, 1):
        assert np.array_equal(packed.eri[field], dense.eri[field])
    # the random tensor has no zero, so each of the 21 orbits survives
    assert np.array_equal(dense.eri.positions, np.arange(packed_length(3)))
    assert packed.num_modes == 6 and packed.constant == 0.4
    h = random_spatial_hamiltonian(3, 0)
    assert len(h.eri.positions) == packed_length(3) and h.num_modes == 6


def canonical_rows(p, q, r, s, v):
    """Index rows and signed contributions of two-body entries h[p,q,r,s] = v
    to the canonical terms, per kind, in input order: a copy of
    ``fermion._two_body_rows``, so that the reference shares no rule with the
    code it checks."""
    live = (p != q) & (r != s)  # a_p^ a_p^ and a_r a_r vanish
    p, q, r, s, v = (a[live] for a in (p, q, r, s, v))
    # canonical operator: a_c1^ a_c2^ a_hi a_lo, c1 < c2, lo < hi
    sign = np.where(p > q, -1.0, 1.0) * np.where(r < s, -1.0, 1.0)
    c1, c2, lo, hi = np.minimum(p, q), np.maximum(p, q), np.minimum(r, s), np.maximum(r, s)
    c1_shared, c2_shared = (c1 == lo) | (c1 == hi), (c2 == lo) | (c2 == hi)
    both, one_shared, none = c1_shared & c2_shared, c1_shared ^ c2_shared, ~(c1_shared | c2_shared)
    rows = {Kind.COULOMB_EXCHANGE: (np.stack([c1, c2], axis=1)[both], (sign * v)[both])}
    # n_j (a_i^ a_k + h.c.): a_j^ a_i^ -> -a_i^ a_j^ and a_k a_j -> -a_j a_k
    j = np.where(c1_shared, c1, c2)
    i, k = np.where(c1_shared, c2, c1), np.where(lo == j, hi, lo)
    flip = np.where(c1_shared, -1.0, 1.0) * np.where(lo == j, -1.0, 1.0)
    triples = np.stack([np.minimum(i, k), j, np.maximum(i, k)], axis=1)
    rows[Kind.NUMBER_EXCITATION] = (triples[one_shared], (0.5 * sign * flip * v)[one_shared])
    # the lexicographically smaller of (c1, c2, hi, lo) and its h.c., the reversed tuple
    quads = np.stack([c1, c2, hi, lo], axis=1)
    quads = np.where((c1 < lo)[:, None], quads, quads[:, ::-1])
    rows[Kind.DOUBLE_EXCITATION] = (quads[none], (0.5 * sign * v)[none])
    return rows


def spin_row_terms(h1, eri, cutoff=0.0):
    """A reference for ``classify_spatial`` that expands every entry over its
    spins: each one-body entry h_ij into both spin blocks and each distinct
    copy (ij|kl) of the survivors ``eri`` into its four spin rows h[p,q,r,s] =
    (ij|kl)/2, p ~ i and s ~ j of spin s1, q ~ k and r ~ l of spin s2,
    copy-major, then s1, then s2.  Every row is canonicalised by
    ``canonical_rows`` and each kind is summed in row order."""
    m = len(h1)
    orbital, spin = blocked_modes(2 * m)
    mode = np.empty((m, 2), dtype=np.intp)
    mode[orbital, spin] = np.arange(2 * m)
    floor = max(cutoff, 1e-300)
    i, j = np.nonzero(np.abs(h1) >= floor)
    p, q, v = mode[i].ravel(), mode[j].ravel(), np.repeat(h1[i, j], 2)
    diag = p == q
    pairs = np.stack([np.minimum(p, q), np.maximum(p, q)], axis=1)
    # an off-diagonal entry and its transpose each contribute half of the term
    raw = {Kind.NUMBER: [(p[diag, None], v[diag])], Kind.EXCITATION: [(pairs[~diag], 0.5 * v[~diag])]}
    kept = np.abs(eri.values) >= 2.0 * floor
    positions, values = eri.positions[kept], eri.values[kept]
    keys, first = np.unique(orbit_keys(*packed_indices(m, positions), m), return_index=True)
    i, j, k, l = np.unravel_index(keys, (m,) * 4)
    shape = (len(keys), 2, 2)
    p, s = (np.broadcast_to(mode[x][:, :, None], shape).ravel() for x in (i, j))
    q, r = (np.broadcast_to(mode[x][:, None, :], shape).ravel() for x in (k, l))
    for kind, part in canonical_rows(p, q, r, s, np.repeat(0.5 * values[first // 8], 4)).items():
        raw[kind] = [part]
    return ClassifiedTerms({kind: _summed(parts, 2 * m) for kind, parts in raw.items()})


def assert_bitwise_equal(terms, expected):
    assert list(terms.by_kind) == list(expected.by_kind)
    for kind, (indices, coefficients) in expected.by_kind.items():
        got_indices, got_coefficients = terms.by_kind[kind]
        assert got_indices.dtype == indices.dtype and got_indices.shape == indices.shape, kind
        assert got_indices.tobytes() == indices.tobytes(), kind
        assert got_coefficients.dtype == coefficients.dtype, kind
        assert got_coefficients.tobytes() == coefficients.tobytes(), kind


def random_survivors(m, rng):
    """Random ERI survivors of m orbitals: about half of the orbits, and every
    orbit with repeated indices, (ii|ii), (ii|jj) and (ij|ij) = (ij|ji)."""
    size = packed_length(m)
    packed = rng.normal(size=size) * (rng.random(size) < 0.5)
    pair = pair_table(m)
    packed[tri_index(pair, pair)] = rng.normal(size=(m, m))  # (ij|ij), (ii|ii) among them
    same = np.diagonal(pair)
    packed[tri_index(same[:, None], same)] = rng.normal(size=(m, m))  # (ii|jj)
    return _survivors(packed)


@pytest.mark.parametrize("cutoff", [0.0, 0.2])
@pytest.mark.parametrize("m", range(1, 8))
def test_classification_is_bitwise_the_spin_row_expansion(m, cutoff):
    # each spatial copy classified once gives the same rows and coefficient
    # bytes as every spin row of every copy summed in order
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        a = rng.normal(size=(m, m))
        h1, eri = a + a.T, random_survivors(m, rng)
        terms = classify_spatial(h1, eri, cutoff)
        assert_bitwise_equal(terms, spin_row_terms(h1, eri, cutoff))
        assert m == 1 or len(terms.by_kind) == len(Kind)  # one orbital has no hop


@pytest.mark.parametrize("cell", [(2, 4, 1.0), (3, 4, 3.0)])
def test_lattice_classification_is_bitwise_the_spin_row_expansion(cell):
    h1, eri, _ = orthonormal_integrals(LatticeSpec(*cell))
    assert_bitwise_equal(classify_spatial(h1, eri, 1e-7), spin_row_terms(h1, eri, 1e-7))
