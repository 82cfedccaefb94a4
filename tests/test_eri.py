"""Pair-packed ERI storage: layout, round trips and the symmetric copies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.eri import (
    orbit_keys,
    pack_eri,
    packed_indices,
    packed_length,
    packed_pairs,
    tri_index,
    unpack_eri,
)
from fermap.sampling import random_spatial_integrals

PERMUTATIONS = [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_round_trip(m, seed):
    packed = np.random.default_rng(seed).normal(size=packed_length(m))
    dense = unpack_eri(packed, m)
    for perm in PERMUTATIONS:  # exactly symmetric, not just to rounding
        assert np.array_equal(dense, dense.transpose(perm))
    assert np.array_equal(pack_eri(dense), packed)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_unpack_of_pack_restores_a_symmetric_tensor(m, seed):
    _, dense = random_spatial_integrals(m, np.random.default_rng(seed))
    np.testing.assert_allclose(unpack_eri(pack_eri(dense), m), dense, rtol=0, atol=1e-15)


def test_layout_is_the_lower_pair_triangle():
    m = 3
    i, j, k, l = packed_indices(m)
    assert len(i) == packed_length(m) == 21
    assert ((i <= j) & (k <= l)).all()
    assert list(zip(i, j, k, l))[:4] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
    # each orbit packs the value at its lexicographically first slot
    dense = np.arange(m**4, dtype=float).reshape((m,) * 4)
    assert np.array_equal(pack_eri(dense), orbit_keys(i, j, k, l, m).min(axis=1))


def test_packed_length_does_not_wrap():
    # int64 arithmetic wrapped from m = 77 936 on
    assert packed_length(77936) == 4611833364311808636
    assert packed_length(100000) == 12500250003750025000


def test_packed_pairs_inverts_tri_index_at_scale():
    # pairs of a 125-orbital basis: positions up to 3.1e7 stress the float square root
    b = np.arange(7875)
    a = np.random.default_rng(0).integers(0, b + 1)
    for row, col in [(a, b), (b, b), (np.zeros_like(b), b)]:
        back = packed_pairs(tri_index(row, col))
        assert np.array_equal(back[0], row) and np.array_equal(back[1], col)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_copies_cover_every_slot_once(m):
    keys = orbit_keys(*packed_indices(m), m)
    distinct = [set(row) for row in keys.tolist()]
    assert sorted(x for copies in distinct for x in copies) == list(range(m**4))


def test_unpack_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        unpack_eri(np.zeros(7), 2)
