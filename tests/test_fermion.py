"""Second-quantized Hamiltonian construction and term classification against
the dense Fock-space oracle."""

import numpy as np
import pytest

from fermap.fermion import (
    FermionHamiltonian,
    Kind,
    apply_cutoff,
    classify,
    classify_spatial,
    from_spatial_integrals,
    spin_of,
)
from fermap.oracle import classified_dense, fermion_dense
from fermap.sampling import random_spatial_hamiltonian, random_spatial_integrals


def test_spin_of_blocked_and_interleaved():
    assert [spin_of(p, 6, "blocked") for p in range(6)] == [0, 0, 0, 1, 1, 1]
    assert [spin_of(p, 6, "interleaved") for p in range(6)] == [0, 1, 0, 1, 0, 1]


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


def test_classify_spatial_interleaved_is_relabelled_blocked():
    rng = np.random.default_rng(8)
    h1, eri = random_spatial_integrals(2, rng)
    blocked = classify_spatial(h1, eri, interleaving="blocked")
    inter = classify_spatial(h1, eri, interleaving="interleaved")
    # mode relabelling is a permutation of Fock space, so spectra must agree
    a = np.linalg.eigvalsh(classified_dense(blocked, 4))
    b = np.linalg.eigvalsh(classified_dense(inter, 4))
    assert np.allclose(np.sort(a), np.sort(b), atol=1e-10)


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
