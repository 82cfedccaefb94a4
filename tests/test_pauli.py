"""Pauli algebra: packed symplectic rows against dense matrices."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap import pauli
from fermap.fermion import ClassifiedTerms, Kind
from fermap.jw import jw_transform_terms
from fermap.oracle import dense_matrix
from fermap.pauli import (
    _I_POW_ARRAY,
    DimensionMismatchError,
    Packed,
    PauliOperatorSum,
    _popcount,
    coefficient_l1_norm,
    commute,
    num_words,
    outer,
    set_bits,
)
from fermap.superfast import InteractionGraph, ose_transform_terms

PAULI_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
BITS = {letter: bits for bits, letter in LETTERS.items()}


def pack_masks(masks, num_qubits: int) -> np.ndarray:
    """Python-integer masks as uint64 words ``[n, num_words(num_qubits)]``; a
    negative mask or a bit at or above ``num_qubits`` raises ValueError."""
    masks = tuple(masks)
    if any(m >> num_qubits for m in masks):
        raise ValueError(f"mask with a bit outside qubits 0..{num_qubits - 1}")
    words = num_words(num_qubits)
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, words).astype(np.uint64)

# one-qubit products P Q = phase * R
SINGLE_PRODUCT = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


def letter(x: int, z: int, q: int) -> str:
    return LETTERS[(x >> q) & 1, (z >> q) & 1]


def letter_product(a: str, b: str):
    if a == b:
        return 1, "I"
    if "I" in (a, b):
        return 1, a if b == "I" else b
    return SINGLE_PRODUCT[a, b]


def string_product(a, b, q):
    """(x, z, c) of a*b for integer masks, taken qubit by qubit."""
    (ax, az, ac), (bx, bz, bc) = a, b
    phase, x, z = 1, 0, 0
    for k in range(q):
        p, r = letter_product(letter(ax, az, k), letter(bx, bz, k))
        phase *= p
        x |= BITS[r][0] << k
        z |= BITS[r][1] << k
    return x, z, ac * bc * phase


def product(a: Packed, b: Packed) -> Packed:
    """Row-wise product of two packed batches, broadcasting as numpy does.

    With each term written as ``c * i**|x&z| * X^x Z^z``, commuting the Z part
    of ``a`` through the X part of ``b`` contributes ``(-1)**|az & bx|`` and the
    Y bookkeeping an exact power of i; each bit count is summed across the
    words of a row before the phase is taken mod 4.  The reference for
    ``outer``, which reads the phase at its factors' X qubits alone.
    """
    ax, az, ac = a
    bx, bz, bc = b
    x = ax ^ bx
    z = az ^ bz
    phase = (
        _popcount(ax & az) + _popcount(bx & bz) - _popcount(x & z) + 2 * _popcount(az & bx)
    ) % 4
    return x, z, ac * bc * _I_POW_ARRAY[phase]


def kron_term(x: int, z: int, c: complex, q: int) -> np.ndarray:
    # basis index bit k corresponds to qubit k (little-endian)
    out = np.array([[c]], dtype=complex)
    for k in range(q):
        out = np.kron(PAULI_MATS[letter(x, z, k)], out)
    return out


def to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def pauli_sum(terms, q) -> PauliOperatorSum:
    """A sum from (x, z, c) integer-mask terms."""
    xs, zs, cs = zip(*terms) if terms else ((), (), ())
    return PauliOperatorSum(pack_masks(xs, q), pack_masks(zs, q), np.array(cs, complex), q)


def rows_of(s: PauliOperatorSum):
    return [(to_int(x), to_int(z), c) for x, z, c in zip(s.x, s.z, s.coefficients)]


@st.composite
def pauli_strings(draw, q, coefficient=True):
    x, z = (draw(st.integers(0, 2**q - 1)) for _ in range(2))
    if not coefficient:
        return x, z, 1.0
    parts = st.floats(-2, 2, allow_nan=False)
    return x, z, complex(draw(parts), draw(parts))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dense_matrix_matches_independent_kron(data):
    q = data.draw(st.integers(1, 3))
    terms = data.draw(st.lists(pauli_strings(q), max_size=3))
    expected = sum((kron_term(*t, q) for t in terms), np.zeros((2**q, 2**q)))
    assert np.allclose(dense_matrix(pauli_sum(terms, q)), expected, atol=1e-12)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_multiply_matches_dense_product(data):
    q = data.draw(st.integers(1, 3))
    a, b = (data.draw(pauli_strings(q)) for _ in range(2))
    sa, sb = pauli_sum([a], q), pauli_sum([b], q)
    x, z, c = product((sa.x, sa.z, sa.coefficients), (sb.x, sb.z, sb.coefficients))
    got = dense_matrix(PauliOperatorSum(x, z, c, q))
    assert np.allclose(got, kron_term(*a, q) @ kron_term(*b, q), atol=1e-12)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_commute_matches_dense_commutator(data):
    q = data.draw(st.integers(1, 3))
    a, b = (data.draw(pauli_strings(q, coefficient=False)) for _ in range(2))
    ka, kb = kron_term(*a, q), kron_term(*b, q)
    sa, sb = pauli_sum([a], q), pauli_sum([b], q)
    assert commute((sa.x, sa.z), (sb.x, sb.z)).tolist() == [np.allclose(ka @ kb, kb @ ka)]


def outer_by_product(a, b):
    """The per-group outer product through ``product``, whose phase counts
    bits over whole rows: the reference for ``outer``."""
    (ax, az, ac), (bx, bz, bc) = a, b
    x, z, c = product(
        (ax[:, :, None], az[:, :, None], ac[:, :, None]), (bx[:, None], bz[:, None], bc[:, None])
    )
    n, words = x.shape[0], x.shape[-1]
    return x.reshape(n, -1, words), z.reshape(n, -1, words), c.reshape(n, -1)


@pytest.mark.parametrize("q", [5, 64, 65, 130])
@pytest.mark.parametrize("a_count, b_count", [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (0, 1)])
def test_outer_reads_the_phase_at_the_x_qubits(q, a_count, b_count):
    # every row of a group has X on the same distinct qubits, and any Z bits,
    # the X qubits included, so each phase term's bits are exercised
    rng = np.random.default_rng([q, a_count, b_count])
    n, words = 60, num_words(q)
    qubits = np.stack([rng.choice(q, a_count + b_count, replace=False) for _ in range(n)])

    def side(count, at):
        x = set_bits(np.repeat(np.arange(n), at.shape[1]), at.ravel(), n, q)
        z = rng.integers(0, 1 << 63, size=(n, count, words), dtype=np.uint64) << np.uint64(1)
        z |= rng.integers(0, 2, size=(n, count, words), dtype=np.uint64)
        c = rng.normal(size=(n, count)) + 1j * rng.normal(size=(n, count))
        return np.repeat(x[:, None], count, axis=1), z, c

    a_at, b_at = qubits[:, :a_count], qubits[:, a_count:]
    a, b = side(3, a_at), side(4, b_at)
    got, expected = outer(a, b, tuple(a_at.T), tuple(b_at.T)), outer_by_product(a, b)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and np.array_equal(g, e)


@pytest.mark.parametrize("words", [1, 2, 4, 16, 17, 25, 63])
def test_popcount_counts_every_word(words):
    # from one word up to the 63 of the widest register a sweep cell reaches
    rng = np.random.default_rng(words)
    masks = rng.integers(0, 1 << 63, size=(30, words), dtype=np.uint64) << np.uint64(1)
    masks |= rng.integers(0, 2, size=(30, words), dtype=np.uint64)
    counts = pauli._popcount(masks)
    assert counts.dtype == np.int64
    assert counts.tolist() == [to_int(row).bit_count() for row in masks]


def test_identity_and_weight():
    # 2.5 I and X0 Z2
    assert pauli_sum([(0, 0, 2.5), (0b001, 0b100, 1.0)], 3).weights().tolist() == [0, 2]


def test_multiply_self_inverse_up_to_coefficient():
    s = pauli_sum([(0b011, 0b110, 1.0)], 3)  # X0 Y1 Z2
    x, z, c = product((s.x, s.z, s.coefficients), (s.x, s.z, s.coefficients))
    assert not x.any() and not z.any() and c.tolist() == [1.0]


def test_l1_norm_with_and_without_identity():
    s = pauli_sum([(0, 0, 3.0), (0, 1, -4.0)], 2)
    assert coefficient_l1_norm(s) == pytest.approx(7.0)
    assert coefficient_l1_norm(s, include_identity=False) == pytest.approx(4.0)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        PauliOperatorSum(pack_masks([1], 65), pack_masks([0], 65), np.ones(1, complex), 3)


@pytest.mark.parametrize("q, mask", [(3, 0b1000), (5, 1 << 63), (64, 1 << 64), (3, -1)])
def test_pack_masks_rejects_bits_outside_the_register(q, mask):
    with pytest.raises(ValueError):
        pack_masks([0, mask], q)
    assert pack_masks([(1 << q) - 1], q).sum() > 0


# widths on both sides of the 64-bit word boundaries, so the phase spans
# several words
PACKED_WIDTHS = (1, 5, 63, 64, 65, 130)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_matches_scalar_algebra(data):
    q = data.draw(st.sampled_from(PACKED_WIDTHS))
    bits = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # dense masks fill every word
    parts = st.sampled_from((-1.5, -1.0, 0.0, 1.0, 2.0))

    def term(x, z):
        return x, z, complex(data.draw(parts), data.draw(parts))

    def string():
        return bits.getrandbits(q), bits.getrandbits(q)

    pairs = [(term(*string()), term(*string())) for _ in range(data.draw(st.integers(1, 6)))]
    a, b = (pauli_sum(side, q) for side in zip(*pairs))
    x, z, c = product((a.x, a.z, a.coefficients), (b.x, b.z, b.coefficients))
    got = PauliOperatorSum(x, z, c, q)
    assert rows_of(got) == [string_product(a, b, q) for a, b in pairs]
    if q <= 12:
        products = (kron_term(*a, q) @ kron_term(*b, q) for a, b in pairs)
        assert np.allclose(dense_matrix(got), sum(products))


def test_merge_output_does_not_depend_on_the_input_order():
    # mapped rows are keyed by their terms and come out in key order, so
    # permuting the terms of every kind gives the same rows; the coefficients
    # are dyadic, so each string's rows sum exactly in any order
    rng = np.random.default_rng(1)
    arity = {Kind.NUMBER: 1, Kind.COULOMB_EXCHANGE: 2, Kind.EXCITATION: 2}
    arity |= {Kind.NUMBER_EXCITATION: 3, Kind.DOUBLE_EXCITATION: 4}
    by_kind = {}
    for kind, n in arity.items():
        idx = np.stack([rng.choice(8, n, replace=False) for _ in range(40)])
        by_kind[kind] = idx, rng.integers(-8, 8, 40) / 4
    orders = {kind: rng.permutation(40) for kind in arity}
    shuffled = {kind: (idx[orders[kind]], g[orders[kind]]) for kind, (idx, g) in by_kind.items()}
    k8 = InteractionGraph(8, [(p, q) for q in range(8) for p in range(q)])
    for transform in (
        lambda terms: jw_transform_terms(terms, 8, eps=0.0),
        lambda terms: ose_transform_terms(terms, k8, eps=0.0),
    ):
        merged, permuted = transform(ClassifiedTerms(by_kind)), transform(ClassifiedTerms(shuffled))
        assert 0 < len(merged) < 40 * 8 * len(arity)
        for part in ("x", "z", "coefficients"):
            assert getattr(permuted, part).tobytes() == getattr(merged, part).tobytes()
