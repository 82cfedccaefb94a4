"""Integral file (FCIDUMP-style) parsing and serialization."""

import tracemalloc

import numpy as np
import pytest

from fermap.eri import Survivors, pack_eri, packed_length, unpack_eri
from fermap.fcidump import (
    FcidumpParseError,
    FcidumpSymmetryError,
    IntegralFile,
    dumps,
    load,
    loads,
)
from fermap.lattice import LatticeSpec
from fermap.ortho import orthonormal_integrals
from fermap.sampling import random_spatial_hamiltonian


def random_integral_file(m, seed):
    h = random_spatial_hamiltonian(m, seed)
    return IntegralFile(m, m, h.one_body, h.eri, h.constant)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_round_trip(m):
    # .16e writes 17 significant digits, so every value reads back bitwise
    orig = random_integral_file(m, m)
    back = loads(dumps(orig))
    assert back.num_orbitals == m
    assert back.num_electrons == m
    assert np.array_equal(back.one_body, orig.one_body)
    assert np.array_equal(back.eri.positions, orig.eri.positions)
    assert np.array_equal(back.eri.values, orig.eri.values)
    assert back.constant == orig.constant


def test_round_trip_via_file(tmp_path):
    orig = random_integral_file(2, 9)
    path = tmp_path / "h.fcidump"
    path.write_text(dumps(orig))
    back = load(path)
    assert np.array_equal(back.eri.values, orig.eri.values)


def test_constant_only_file():
    text = "&FCI NORB=1,NELEC=1,MS2=1,\n&END\n -7.25 0 0 0 0\n"
    data = loads(text)
    assert data.constant == pytest.approx(-7.25)
    assert data.ms2 == 1
    assert np.allclose(data.one_body, 0)


def test_one_body_record_fills_both_symmetric_slots():
    text = "&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0 0\n"
    data = loads(text)
    assert data.one_body[0, 1] == pytest.approx(0.5)
    assert data.one_body[1, 0] == pytest.approx(0.5)


def test_eri_record_fills_full_orbit():
    text = "&FCI NORB=2,NELEC=2,\n&END\n 0.25 1 1 2 2\n"
    data = loads(text)
    assert data.eri.positions.tolist() == [3]  # (00|11): pair(0, 0) = 0, pair(1, 1) = 2
    eri = unpack_eri(data.eri, 2)
    assert eri[0, 0, 1, 1] == pytest.approx(0.25)
    assert eri[1, 1, 0, 0] == pytest.approx(0.25)


def test_fortran_d_exponent_accepted():
    text = "&FCI NORB=1,NELEC=1,\n&END\n 1.5D-01 1 1 0 0\n"
    assert loads(text).one_body[0, 0] == pytest.approx(0.15)


def test_slash_header_terminator():
    text = "&FCI NORB=1,NELEC=1\n/\n 1.0 1 1 0 0\n"
    assert loads(text).one_body[0, 0] == pytest.approx(1.0)


def test_a_header_name_starts_with_a_letter():
    # a number followed on the next line by '=' is NELEC's value, not a key
    data = loads("&FCI NORB=1,NELEC= 2\n =\n&END\n 1.0 1 1 0 0\n")
    assert data.num_electrons == 2 and data.num_orbitals == 1


def test_conflicting_duplicate_raises_symmetry_error():
    for records in (
        " 0.5 1 2 0 0\n 0.6 2 1 0 0\n",
        " 0.5 1 2 3 4\n 0.6 2 1 4 3\n",
        " 0.5 0 0 0 0\n 0.6 0 0 0 0\n",
        # the first conflict in the file is named, not the first slot's
        " 0.5 1 2 0 0\n 0.6 2 1 0 0\n 0.5 1 2 3 4\n 0.6 2 1 4 3\n",
    ):
        with pytest.raises(FcidumpSymmetryError, match="^line 4: "):
            loads("&FCI NORB=4,NELEC=2,\n&END\n" + records)


def test_consistent_duplicate_accepted():
    text = "&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0 0\n 0.5 2 1 0 0\n"
    assert loads(text).one_body[0, 1] == pytest.approx(0.5)
    text = "&FCI NORB=4,NELEC=2,\n&END\n 0.5 1 2 3 4\n 0.5 2 1 4 3\n"
    eri = unpack_eri(loads(text).eri, 4)
    assert eri[0, 1, 2, 3] == eri[3, 2, 1, 0] == 0.5
    assert np.count_nonzero(eri) == 8


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FcidumpParseError, match="line"):
        loads("&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0\n")
    with pytest.raises(FcidumpParseError):
        loads("no header here\n")
    with pytest.raises(FcidumpParseError):
        loads("&FCI NELEC=2,\n&END\n")  # missing NORB
    with pytest.raises(FcidumpParseError, match="line"):
        loads("&FCI NORB=1,NELEC=1,\n&END\n 1.0 5 1 0 0\n")  # index out of range


def test_a_norb_beyond_any_array_is_a_value_error():
    # 12 500 250 003 750 025 000 packed slots: more than an int64 slot index
    # holds, so int64 slot arithmetic would wrap
    with pytest.raises(FcidumpParseError, match="NORB=100000"):
        loads("&FCI NORB=100000,NELEC=2,\n&END\n 1.0 1 1 0 0\n")


def test_a_large_norb_with_few_records_holds_no_packed_array():
    # NORB=2000 has 2e12 packed slots; the file's two records take a few bytes
    # beside the 32 MB one-body matrix
    tracemalloc.start()
    try:
        data = loads("&FCI NORB=2000,NELEC=2,\n&END\n 1.0 1 1 0 0\n 0.5 2 1 2000 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2000**2 * 8
    assert data.one_body[0, 0] == 1.0 and np.count_nonzero(data.one_body) == 1
    assert data.eri.values.tolist() == [0.5]


def test_a_dumped_lattice_cell_loads_far_below_one_packed_eri():
    # d3 side-4 a8.75, m = 64: the rotation keeps 11 296 entries, a 0.6 MB
    # file that reads in about 3.3 MB; a packed ERI alone would take 17.3 MB
    h1, eri, _ = orthonormal_integrals(LatticeSpec(3, 4, 8.75))
    text = dumps(IntegralFile(64, 64, h1, eri))
    tracemalloc.start()
    try:
        data = loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * packed_length(64) * 8
    assert np.array_equal(data.one_body, h1)
    assert np.array_equal(data.eri.positions, eri.positions)
    assert np.array_equal(data.eri.values, eri.values)


@pytest.mark.parametrize(
    "record, lineno",
    [
        (" nan 1 1 2 2", 3),
        (" inf 1 2 0 0", 3),
        (" -Infinity 0 0 0 0", 3),
        (" 1.0 1 1 0 0\n NaN 2 2 0 0", 4),
    ],
)
def test_a_non_finite_record_is_a_parse_error(record, lineno):
    with pytest.raises(FcidumpParseError, match=f"^line {lineno}: integral .* is not finite"):
        loads(f"&FCI NORB=2,NELEC=2,\n&END\n{record}\n 0.5 1 2 0 0\n")


def test_zero_records_do_not_survive():
    # an exact 0, or -0, is no survivor, so a file reads to what a dense tensor packs to
    data = loads("&FCI NORB=2,NELEC=2,\n&END\n 0.0 1 1 2 2\n -0.0 1 2 1 2\n 0.5 2 2 2 2\n")
    assert data.eri.positions.tolist() == [5] and data.eri.values.tolist() == [0.5]


def test_shape_validation():
    asymmetric_eri = np.zeros((2,) * 4)
    asymmetric_eri[0, 0, 0, 1] = 1.0
    for m, h1, eri in (
        (2, np.zeros((3, 3)), np.zeros((2,) * 4)),
        (2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4)),
        (2, np.zeros((2, 2)), asymmetric_eri),
        (2, np.zeros((2, 2)), np.zeros(packed_length(2))),  # a packed array is neither form
        (3, np.zeros((2, 2)), np.zeros((2,) * 4)),
        (2, np.zeros((2, 2)), Survivors(np.array([0, 6]), np.ones(2))),
    ):
        with pytest.raises(ValueError):
            IntegralFile(m, m, h1, eri)
    survivors = Survivors(np.arange(1, packed_length(2)), np.arange(1.0, packed_length(2)))
    data = IntegralFile(2, 2, np.eye(2), unpack_eri(survivors, 2))
    assert np.array_equal(data.eri.positions, survivors.positions)
    assert np.array_equal(data.eri.values, survivors.values)


def reference_dumps(data):
    """The file text from a scan over all m^4 slots that writes each symmetry
    orbit once, at the first slot that reaches it; records that are exactly
    0 are left out."""
    m = data.num_orbitals
    eri = unpack_eri(data.eri, m)
    symmetry = (
        lambda i, j, k, l: (i, j, k, l), lambda i, j, k, l: (j, i, k, l),
        lambda i, j, k, l: (i, j, l, k), lambda i, j, k, l: (j, i, l, k),
        lambda i, j, k, l: (k, l, i, j), lambda i, j, k, l: (l, k, i, j),
        lambda i, j, k, l: (k, l, j, i), lambda i, j, k, l: (l, k, j, i),
    )

    def fmt(value, i, j, k, l):
        return f" {value: .16e} {i:4d} {j:4d} {k:4d} {l:4d}"

    lines = [f"&FCI NORB={m},NELEC={data.num_electrons},MS2={data.ms2},", " ISYM=1,", "&END"]
    seen = set()
    for slot in np.ndindex(*(m,) * 4):
        key = min(sym(*slot) for sym in symmetry)
        if key not in seen:
            seen.add(key)
            if eri[slot] != 0:
                lines.append(fmt(float(eri[slot]), *(x + 1 for x in slot)))
    for i in range(m):
        for j in range(i + 1):
            if data.one_body[i, j] != 0:
                lines.append(fmt(float(data.one_body[i, j]), i + 1, j + 1, 0, 0))
    lines.append(fmt(data.constant, 0, 0, 0, 0))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("zeroed", [0.0, 0.05])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dumps_matches_a_full_scan(m, zeroed):
    # integrals under ``zeroed`` in magnitude are set to 0, so their records are left out
    data = random_integral_file(m, 10 + m)
    dense = unpack_eri(data.eri, m)
    data.eri = pack_eri(np.where(np.abs(dense) < zeroed, 0.0, dense))
    data.one_body[np.abs(data.one_body) < zeroed] = 0.0
    assert dumps(data) == reference_dumps(data)
