"""Integral file (FCIDUMP-style) parsing and serialization."""

import numpy as np
import pytest

from fermap.eri import packed_length, unpack_eri
from fermap.fcidump import (
    FcidumpParseError,
    FcidumpSymmetryError,
    IntegralFile,
    dumps,
    load,
    loads,
)
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
    assert np.array_equal(back.eri, orig.eri)
    assert back.constant == orig.constant


def test_round_trip_via_file(tmp_path):
    orig = random_integral_file(2, 9)
    path = tmp_path / "h.fcidump"
    path.write_text(dumps(orig))
    back = load(path)
    assert np.array_equal(back.eri, orig.eri)


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
    assert data.eri.shape == (packed_length(2),)
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
    # holds, so int64 slot arithmetic would raise OverflowError
    with pytest.raises(FcidumpParseError, match="NORB=100000"):
        loads("&FCI NORB=100000,NELEC=2,\n&END\n 1.0 1 1 0 0\n")


def test_shape_validation():
    asymmetric_eri = np.zeros((2,) * 4)
    asymmetric_eri[0, 0, 0, 1] = 1.0
    for m, h1, eri in (
        (2, np.zeros((3, 3)), np.zeros((2,) * 4)),
        (2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4)),
        (2, np.zeros((2, 2)), asymmetric_eri),
        (2, np.zeros((2, 2)), np.zeros(packed_length(2) + 1)),
        (3, np.zeros((2, 2)), np.zeros(packed_length(2))),
    ):
        with pytest.raises(ValueError):
            IntegralFile(m, m, h1, eri)
    data = IntegralFile(2, 2, np.eye(2), unpack_eri(np.arange(packed_length(2)), 2))
    assert np.array_equal(data.eri, np.arange(packed_length(2)))


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
    data.eri[np.abs(data.eri) < zeroed] = 0.0
    data.one_body[np.abs(data.one_body) < zeroed] = 0.0
    assert dumps(data) == reference_dumps(data)
