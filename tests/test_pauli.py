"""Pauli algebra: symplectic representation against dense matrices."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.oracle import dense_matrix, dense_term
from fermap.pauli import (
    DimensionMismatchError,
    PauliOperatorSum,
    PauliTerm,
    coefficient_l1_norm,
    multiply,
    product,
    simplify,
)

PAULI_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_term(t: PauliTerm) -> np.ndarray:
    # basis index bit q corresponds to qubit q (little-endian)
    out = np.array([[t.coefficient]], dtype=complex)
    factors = t.factors
    for q in range(t.num_qubits):
        out = np.kron(PAULI_MATS[factors.get(q, "I")], out)
    return out


@st.composite
def pauli_terms(draw, max_qubits=3):
    n = draw(st.integers(1, max_qubits))
    factors = {
        q: draw(st.sampled_from("XYZ"))
        for q in range(n)
        if draw(st.booleans())
    }
    coeff = complex(
        draw(st.floats(-2, 2, allow_nan=False)), draw(st.floats(-2, 2, allow_nan=False))
    )
    return PauliTerm.from_factors(coeff, factors, n), n


@given(pauli_terms())
@settings(max_examples=150, deadline=None)
def test_dense_term_matches_independent_kron(term_n):
    term, _ = term_n
    assert np.allclose(dense_term(term), kron_term(term), atol=1e-12)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_multiply_matches_dense_product(data):
    n = data.draw(st.integers(1, 3))
    def draw_term():
        factors = {
            q: data.draw(st.sampled_from("XYZ")) for q in range(n) if data.draw(st.booleans())
        }
        c = complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
        return PauliTerm.from_factors(c, factors, n)
    a, b = draw_term(), draw_term()
    assert np.allclose(dense_term(multiply(a, b)), kron_term(a) @ kron_term(b), atol=1e-12)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_commutes_with_matches_dense_commutator(data):
    n = data.draw(st.integers(1, 3))
    def draw_term():
        factors = {
            q: data.draw(st.sampled_from("XYZ")) for q in range(n) if data.draw(st.booleans())
        }
        return PauliTerm.from_factors(1.0, factors, n)
    a, b = draw_term(), draw_term()
    comm = kron_term(a) @ kron_term(b) - kron_term(b) @ kron_term(a)
    assert a.commutes_with(b) == bool(np.allclose(comm, 0, atol=1e-12))


def test_identity_and_weight():
    ident = PauliTerm.identity(3, 2.5)
    assert ident.weight() == 0
    t = PauliTerm.from_factors(1.0, {0: "X", 2: "Z"}, 3)
    assert t.weight() == 2
    assert t.factors == {0: "X", 2: "Z"}


def test_multiply_self_inverse_up_to_coefficient():
    t = PauliTerm.from_factors(1.0, {0: "X", 1: "Y", 2: "Z"}, 3)
    sq = multiply(t, t)
    assert sq.weight() == 0
    assert sq.coefficient == pytest.approx(1.0)


def test_simplify_merges_and_drops():
    a = PauliTerm.from_factors(0.5, {0: "X"}, 2)
    b = PauliTerm.from_factors(0.5, {0: "X"}, 2)
    c = PauliTerm.from_factors(1e-15, {1: "Z"}, 2)
    s = simplify(PauliOperatorSum.from_terms([a, b, c], 2), eps=1e-12)
    assert len(s) == 1
    assert s.terms[0].coefficient == pytest.approx(1.0)


def test_simplify_cancellation_to_zero_operator():
    a = PauliTerm.from_factors(0.75, {0: "Z"}, 1)
    b = PauliTerm.from_factors(-0.75, {0: "Z"}, 1)
    s = simplify(PauliOperatorSum.from_terms([a, b], 1))
    assert len(s) == 0
    assert s.weights().sum() == 0
    assert len(simplify(PauliOperatorSum.from_terms([a, b], 1), eps=0.0)) == 0


def test_l1_norm_with_and_without_identity():
    s = PauliOperatorSum.from_terms(
        [PauliTerm.identity(2, 3.0), PauliTerm.from_factors(-4.0, {0: "Z"}, 2)], 2
    )
    assert coefficient_l1_norm(s) == pytest.approx(7.0)
    assert coefficient_l1_norm(s, include_identity=False) == pytest.approx(4.0)


def test_dimension_mismatch_raises():
    a = PauliTerm.from_factors(1.0, {0: "X"}, 2)
    b = PauliTerm.from_factors(1.0, {0: "X"}, 3)
    with pytest.raises((DimensionMismatchError, ValueError)):
        multiply(a, b)


# widths on both sides of the 64-bit word boundaries, so the phase and the
# merge key both span several words
PACKED_WIDTHS = (1, 5, 63, 64, 65, 130)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_and_merge_match_scalar_algebra(data):
    q = data.draw(st.sampled_from(PACKED_WIDTHS))
    bits = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # dense masks fill every word
    parts = st.sampled_from((-1.5, -1.0, 0.0, 1.0, 2.0))

    def term(x, z):
        return PauliTerm(complex(data.draw(parts), data.draw(parts)), x, z, q)

    def string():
        return bits.getrandbits(q), bits.getrandbits(q)

    pairs = [(term(*string()), term(*string())) for _ in range(data.draw(st.integers(1, 6)))]
    a, b = (PauliOperatorSum.from_terms(side, q) for side in zip(*pairs))
    rows = product((a.x, a.z, a.coefficients), (b.x, b.z, b.coefficients))
    got = PauliOperatorSum.from_packed([rows], q)
    assert got.terms == tuple(multiply(a, b) for a, b in pairs)

    # merge repeated strings, some differing in one bit, against a dictionary
    x, z = string()
    flip = 1 << data.draw(st.integers(0, q - 1))
    pool = st.sampled_from([(x, z), (x ^ flip, z), (x, z ^ flip), string()])
    terms = [term(*data.draw(pool)) for _ in range(data.draw(st.integers(0, 12)))]
    merged = simplify(PauliOperatorSum.from_terms(terms, q))
    expected = {}
    for t in terms:
        expected[t.x, t.z] = expected.get((t.x, t.z), 0) + t.coefficient
    expected = {key: c for key, c in expected.items() if abs(c) >= 1e-12}
    assert {(t.x, t.z): t.coefficient for t in merged.terms} == pytest.approx(expected)
    if q <= 12:
        dense = sum((kron_term(t) for t in terms), np.zeros((2**q, 2**q)))
        assert np.allclose(dense_matrix(merged), dense)
        assert np.allclose(dense_matrix(got), sum(kron_term(a) @ kron_term(b) for a, b in pairs))
