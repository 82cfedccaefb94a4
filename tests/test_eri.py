"""The ERI's survivors: packed layout, round trips and the symmetric copies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.eri import (
    Survivors,
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


def random_survivors(m, seed):
    """About half of the packed positions of m orbitals, with normal values."""
    rng = np.random.default_rng(seed)
    positions = np.flatnonzero(rng.random(packed_length(m)) < 0.5)
    return Survivors(positions, rng.normal(size=len(positions)))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_round_trip(m, seed):
    survivors = random_survivors(m, seed)
    dense = unpack_eri(survivors, m)
    for perm in PERMUTATIONS:  # exactly symmetric, not just to rounding
        assert np.array_equal(dense, dense.transpose(perm))
    # every slot of an orbit holds its survivor, or 0
    copies = np.unique(orbit_keys(*packed_indices(m, survivors.positions), m))
    assert np.count_nonzero(dense) == len(copies)
    packed = pack_eri(dense)
    assert packed.positions.dtype == np.int64
    assert np.array_equal(packed.positions, survivors.positions)
    assert np.array_equal(packed.values, survivors.values)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_unpack_of_pack_restores_a_symmetric_tensor(m, seed):
    _, dense = random_spatial_integrals(m, np.random.default_rng(seed))
    np.testing.assert_allclose(unpack_eri(pack_eri(dense), m), dense, rtol=0, atol=1e-15)


def test_layout_is_the_lower_pair_triangle():
    m = 3
    i, j, k, l = packed_indices(m, np.arange(packed_length(m)))
    assert len(i) == packed_length(m) == 21
    assert ((i <= j) & (k <= l)).all()
    assert list(zip(i, j, k, l))[:4] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
    # each orbit packs the value at its lexicographically first slot
    dense = np.arange(1, m**4 + 1, dtype=float).reshape((m,) * 4)
    packed = pack_eri(dense)
    assert np.array_equal(packed.positions, np.arange(21))
    assert np.array_equal(packed.values, orbit_keys(i, j, k, l, m).min(axis=1) + 1)
    # and leaves the orbits whose first slot is 0 out
    dense[0, 0, 0, 1] = dense[1, 1, 1, 0] = 0.0  # (00|01) is first; (11|10) is not, (01|11) is
    positions = pack_eri(dense).positions.tolist()
    assert positions == [0] + list(range(2, 21))  # (00|01) at 1, (01|11) at 4


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
    keys = orbit_keys(*packed_indices(m, np.arange(packed_length(m))), m)
    distinct = [set(row) for row in keys.tolist()]
    assert sorted(x for copies in distinct for x in copies) == list(range(m**4))


def test_unpack_rejects_a_wrong_length():
    # the ERI of 2 orbitals has packed positions 0 to 5
    with pytest.raises(ValueError, match="positions 0 to 5"):
        unpack_eri(Survivors(np.array([0, 6]), np.ones(2)), 2)
    with pytest.raises(ValueError, match="nonzero"):
        unpack_eri(Survivors(np.array([0, 5]), np.array([1.0, 0.0])), 2)
