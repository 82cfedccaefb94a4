"""Second-quantized Hamiltonian construction and term classification against
the dense Fock-space oracle."""

import numpy as np
import pytest

from fermap.eri import pack_eri
from fermap.fermion import (
    ClassifiedTerms,
    FermionHamiltonian,
    Kind,
    apply_cutoff,
    classify,
    classify_spatial,
    from_spatial_integrals,
)
from fermap.oracle import classified_dense, fermion_dense
from fermap.sampling import random_spatial_hamiltonian, random_spatial_integrals


def general_hamiltonian(seed, num_modes=5):
    """Random tensors with only h_pqrs = h_qpsr = h_srqp: not spin-expanded,
    with entries in the p == q and r == s slots and about half of them zero,
    so every sign branch of the classification sees nonzero entries."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(num_modes,) * 4) * (rng.random((num_modes,) * 4) < 0.5)
    t = t + t.transpose(1, 0, 3, 2)
    a = rng.normal(size=(num_modes, num_modes))
    return FermionHamiltonian(0.3, a + a.T, t + t.transpose(3, 2, 1, 0), num_modes)


def test_from_spatial_integrals_spin_deltas():
    rng = np.random.default_rng(1)
    h1, eri = random_spatial_integrals(2, rng)
    h = from_spatial_integrals(h1, eri)
    h.validate()
    m = 2
    # same-spin block equals the spatial matrix, cross-spin vanishes
    assert np.allclose(h.one_body[:m, :m], h1)
    assert np.allclose(h.one_body[m:, m:], h1)
    assert np.allclose(h.one_body[:m, m:], 0)
    # two-body entry: h[p,q,r,s] = (ps|qr)/2 on matching spin pairs
    assert h.two_body[0, 1, 1, 0] == pytest.approx(0.5 * eri[0, 0, 1, 1])
    assert h.two_body[0, 3, 3, 0] == pytest.approx(0.5 * eri[0, 0, 1, 1])
    assert h.two_body[0, 1, 0, 1] == pytest.approx(0.5 * eri[0, 1, 1, 0])
    # spin non-conserving slots vanish
    assert h.two_body[0, 1, 3, 0] == 0.0


def test_from_spatial_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        from_spatial_integrals(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4))


def test_apply_cutoff_zeroes_small_entries():
    h1 = np.array([[1.0, 1e-9], [1e-9, 0.5]])
    h = from_spatial_integrals(h1, np.zeros((2,) * 4))
    cut = apply_cutoff(h, 1e-7)
    assert cut.one_body[0, 1] == 0.0
    assert cut.one_body[0, 0] == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_classify_reconstructs_dense_hamiltonian(seed):
    # the classified self-adjoint terms, rebuilt on Fock space, must equal
    # the raw second-quantized Hamiltonian matrix
    h = random_spatial_hamiltonian(2, seed)
    terms = classify(h)
    rebuilt = classified_dense(terms, h.num_modes, h.constant)
    assert np.allclose(rebuilt, fermion_dense(h), atol=1e-10)


def test_classify_is_hermitian_decomposition():
    h = random_spatial_hamiltonian(2, 99)
    mat = classified_dense(classify(h), h.num_modes, h.constant)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_classify_spatial_matches_classify_with_cutoff():
    rng = np.random.default_rng(5)
    h1, eri = random_spatial_integrals(3, rng)
    cutoff = 0.2  # large cutoff so the paths must agree on what survives
    direct = classify_spatial(h1, eri, cutoff=cutoff)
    via_tensors = classify(apply_cutoff(from_spatial_integrals(h1, eri), cutoff))
    assert {(t.kind, t.indices) for t in direct} == {
        (t.kind, t.indices) for t in via_tensors
    }
    lookup = {(t.kind, t.indices): t.coefficient for t in via_tensors}
    for t in direct:
        assert t.coefficient == pytest.approx(lookup[(t.kind, t.indices)], abs=1e-12)


@pytest.mark.parametrize("cutoff", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_classify_general_tensors_match_fermion_dense(seed, cutoff):
    h = general_hamiltonian(seed)
    h.validate()
    terms = classify(h, cutoff)
    assert {t.kind for t in terms} == set(Kind) - {Kind.PAIR_CREATION}
    i, j, k, l = terms.by_kind[Kind.DOUBLE_EXCITATION][0].T
    assert ((i < j) & (l < k) & (i < l)).all()  # (i, j, k, l) < its h.c. (l, k, j, i)
    rebuilt = classified_dense(terms, h.num_modes, h.constant)
    assert np.allclose(rebuilt, fermion_dense(apply_cutoff(h, cutoff)), atol=1e-10)


def test_classify_drops_terms_that_cancel_exactly():
    # a_0^ a_1^ a_1 a_0 = n_0 n_1 = -a_0^ a_1^ a_0 a_1, so the four entries sum to 0
    two = np.zeros((2,) * 4)
    two[0, 1, 1, 0] = two[1, 0, 0, 1] = two[0, 1, 0, 1] = two[1, 0, 1, 0] = 0.25
    h = FermionHamiltonian(0.0, np.diag([0.5, 0.0]), two, 2)
    h.validate()
    assert [(t.kind, t.indices, t.coefficient) for t in classify(h)] == [(Kind.NUMBER, (0,), 0.5)]


def test_classification_does_not_depend_on_the_block_size(monkeypatch):
    h = general_hamiltonian(1)  # 557 two-body entries: one block, or 80 of 7
    whole = list(classify(h))
    monkeypatch.setattr("fermap.fermion._BLOCK", 7)
    assert list(classify(h)) == whole  # every sum still adds in input order


def test_classified_terms_round_trip_through_terms():
    terms = classify(general_hamiltonian(0))
    back = ClassifiedTerms.of(list(terms))
    assert len(back) == len(terms) and list(back) == list(terms)
    assert list(back.by_kind) == list(terms.by_kind) == [k for k in Kind if k in terms.by_kind]
    for kind, (indices, coefficients) in terms.by_kind.items():
        assert np.array_equal(back.by_kind[kind][0], indices)
        assert np.array_equal(back.by_kind[kind][1], coefficients)


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


@pytest.mark.parametrize("cutoff", [0.0, 0.2])
def test_classify_spatial_dense_and_packed_input_agree(cutoff):
    h1, eri = random_spatial_integrals(4, np.random.default_rng(3))
    dense = classify_spatial(h1, eri, cutoff=cutoff)
    packed = classify_spatial(h1, pack_eri(eri), cutoff=cutoff)
    assert list(dense.by_kind) == list(packed.by_kind)
    for kind, (indices, coefficients) in dense.by_kind.items():
        assert np.array_equal(packed.by_kind[kind][0], indices)
        assert np.array_equal(packed.by_kind[kind][1], coefficients)


def test_classify_spatial_rejects_an_asymmetric_tensor():
    # packing keeps one slot per orbit, so an asymmetric tensor would lose entries silently
    h1, eri = random_spatial_integrals(3, np.random.default_rng(4))
    eri[0, 1, 2, 2] += 1e-6
    with pytest.raises(ValueError, match="8-fold"):
        classify_spatial(h1, eri)
    with pytest.raises(ValueError, match="8-fold"):
        from_spatial_integrals(h1, eri)


def test_classify_spatial_rejects_a_packed_eri_of_the_wrong_size():
    with pytest.raises(ValueError):
        classify_spatial(np.eye(3), np.zeros(20))


def test_from_spatial_integrals_unpacks_a_packed_eri():
    h1, eri = random_spatial_integrals(3, np.random.default_rng(6))
    packed = from_spatial_integrals(h1, pack_eri(eri), 0.4)
    dense = from_spatial_integrals(h1, eri, 0.4)
    np.testing.assert_allclose(packed.two_body, dense.two_body, rtol=0, atol=1e-15)
    assert packed.constant == 0.4
