"""Pauli algebra: packed symplectic rows against dense matrices."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap import pauli
from fermap.bench import run_cell
from fermap.oracle import dense_matrix
from fermap.pauli import (
    _I_POW_ARRAY,
    DimensionMismatchError,
    KeyCollisionError,
    Packed,
    PauliOperatorSum,
    _popcount,
    coefficient_l1_norm,
    commute,
    num_words,
    outer,
    set_bits,
    simplify,
)

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


def test_simplify_merges_and_drops():
    s = simplify(pauli_sum([(1, 0, 0.5), (1, 0, 0.5), (0, 2, 1e-15)], 2), eps=1e-12)
    assert rows_of(s) == [(1, 0, pytest.approx(1.0))]


def test_simplify_cancellation_to_zero_operator():
    s = pauli_sum([(0, 1, 0.75), (0, 1, -0.75)], 1)
    assert len(simplify(s)) == 0
    assert simplify(s).weights().sum() == 0
    assert len(simplify(s, eps=0.0)) == 0


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
        return x, z, complex(data.draw(parts), data.draw(parts))

    def string():
        return bits.getrandbits(q), bits.getrandbits(q)

    pairs = [(term(*string()), term(*string())) for _ in range(data.draw(st.integers(1, 6)))]
    a, b = (pauli_sum(side, q) for side in zip(*pairs))
    rows = product((a.x, a.z, a.coefficients), (b.x, b.z, b.coefficients))
    got = PauliOperatorSum.from_packed([rows], q)
    assert rows_of(got) == [string_product(a, b, q) for a, b in pairs]

    # merge repeated strings against a dictionary summed left to right: some
    # differ in one bit, and from 64 qubits on some only in bit 63 of two of
    # the 2W words, or have sparse high bits, as strings a weak key confused
    x, z = string()
    flip = 1 << data.draw(st.integers(0, q - 1))
    pool = [(x, z), (x ^ flip, z), (x, z ^ flip), string()]
    if q >= 64:
        tops = [(side, 1 << bit) for side in (0, 1) for bit in range(63, q, 64)]
        flips = data.draw(st.lists(st.sampled_from(tops), min_size=2, max_size=2, unique=True))
        masks = [x, z]
        for side, bit in flips:
            masks[side] ^= bit
        high_bits = {*range(q - 3, q), *(b for b in (62, 63, 126, 127) if b < q)}
        high = st.sampled_from(sorted(high_bits))

        def sparse():
            return (1 << data.draw(high)) | (1 << data.draw(high)), 1 << data.draw(high)

        pool += [tuple(masks), sparse(), sparse(), sparse()]
    values = st.floats(-2, 2, allow_nan=False)
    terms = [
        (*data.draw(st.sampled_from(pool)), complex(data.draw(values), data.draw(values)))
        for _ in range(data.draw(st.integers(0, 12)))
    ]
    merged = simplify(pauli_sum(terms, q))
    expected = {}
    for tx, tz, c in terms:
        expected[tx, tz] = expected.get((tx, tz), 0) + c
    expected = {key: c for key, c in expected.items() if abs(c) >= 1e-12}
    assert {(tx, tz): c for tx, tz, c in rows_of(merged)} == expected  # bitwise
    if q <= 12:
        dense = sum((kron_term(*t, q) for t in terms), np.zeros((2**q, 2**q)))
        assert np.allclose(dense_matrix(merged), dense)
        products = (kron_term(*a, q) @ kron_term(*b, q) for a, b in pairs)
        assert np.allclose(dense_matrix(got), sum(products))


def repeated_strings(seed: int, q: int = 130, n: int = 400):
    """A sum of n rows drawn from 60 strings with 1 to 3 set bits, so most
    strings repeat; coefficients are dyadic, so they sum exactly in any order."""
    rng = np.random.default_rng(seed)
    def mask():
        return sum(1 << int(b) for b in rng.choice(q, size=rng.integers(1, 4), replace=False))

    strings = [(mask(), mask()) for _ in range(60)]
    picks = rng.integers(0, len(strings), n)
    c = rng.choice([-1.5, -1.0, 0.5, 1.0, 2.0], n) + 1j * rng.choice([0.0, 0.25, -0.5], n)
    return pauli_sum([(*strings[k], v) for k, v in zip(picks, c)], q)


def test_merge_output_does_not_depend_on_the_input_order():
    s = repeated_strings(1)
    merged = rows_of(simplify(s))
    assert 0 < len(merged) < len(s)
    rng = np.random.default_rng(2)
    for p in (rng.permutation(len(s)) for _ in range(3)):
        permuted = PauliOperatorSum(s.x[p], s.z[p], s.coefficients[p], s.num_qubits)
        assert rows_of(simplify(permuted)) == merged


def colliding_keys(monkeypatch, collide):
    """Replace the row keys with one shared key on the attempts ``collide``
    picks; the attempts made are returned."""
    keys, attempts = pauli._row_keys, []

    def patched(x, z, attempt):
        attempts.append(attempt)
        return np.zeros(len(x), np.uint64) if collide(attempt) else keys(x, z, attempt)

    monkeypatch.setattr(pauli, "_row_keys", patched)
    return attempts


def test_merge_retries_after_a_key_collision(monkeypatch):
    s = pauli_sum([(t[0], t[1], t[2] * 0.3) for t in rows_of(repeated_strings(3))], 130)
    expected = {(x, z): c for x, z, c in rows_of(simplify(s))}
    attempts = colliding_keys(monkeypatch, lambda attempt: attempt == 0)
    assert {(x, z): c for x, z, c in rows_of(simplify(s))} == expected  # bitwise
    assert attempts == [0, 1]


def test_merge_gives_up_after_its_attempts(monkeypatch):
    attempts = colliding_keys(monkeypatch, lambda attempt: True)
    with pytest.raises(KeyCollisionError):
        simplify(repeated_strings(4))
    assert attempts == list(range(pauli.MERGE_ATTEMPTS))
    assert run_cell(1, 4, 1.0).error.startswith("KeyCollisionError")
