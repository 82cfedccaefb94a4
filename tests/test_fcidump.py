"""Integral file (FCIDUMP-style) parsing and serialization."""

import numpy as np
import pytest

from fermap.fcidump import (
    FcidumpParseError,
    FcidumpSymmetryError,
    IntegralFile,
    dump,
    dumps,
    load,
    loads,
)


def random_integral_file(m, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, m))
    h = 0.5 * (h + h.T)
    eri = rng.normal(size=(m,) * 4)
    sym = np.zeros_like(eri)
    for perm in [
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
        (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
    ]:
        sym += eri.transpose(perm)
    return IntegralFile(m, m, h, sym / 8.0, constant=rng.normal(), ms2=0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_round_trip(m):
    orig = random_integral_file(m, m)
    back = loads(dumps(orig))
    assert back.num_orbitals == m
    assert back.num_electrons == m
    assert np.allclose(back.one_body, orig.one_body, atol=1e-12)
    assert np.allclose(back.eri, orig.eri, atol=1e-12)
    assert back.constant == pytest.approx(orig.constant, abs=1e-12)


def test_round_trip_via_file(tmp_path):
    orig = random_integral_file(2, 9)
    path = tmp_path / "h.fcidump"
    dump(orig, path)
    back = load(path)
    assert np.allclose(back.eri, orig.eri, atol=1e-12)


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
    assert data.eri[0, 0, 1, 1] == pytest.approx(0.25)
    assert data.eri[1, 1, 0, 0] == pytest.approx(0.25)


def test_fortran_d_exponent_accepted():
    text = "&FCI NORB=1,NELEC=1,\n&END\n 1.5D-01 1 1 0 0\n"
    assert loads(text).one_body[0, 0] == pytest.approx(0.15)


def test_slash_header_terminator():
    text = "&FCI NORB=1,NELEC=1\n/\n 1.0 1 1 0 0\n"
    assert loads(text).one_body[0, 0] == pytest.approx(1.0)


def test_conflicting_duplicate_raises_symmetry_error():
    text = "&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0 0\n 0.6 2 1 0 0\n"
    with pytest.raises(FcidumpSymmetryError):
        loads(text)


def test_consistent_duplicate_accepted():
    text = "&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0 0\n 0.5 2 1 0 0\n"
    assert loads(text).one_body[0, 1] == pytest.approx(0.5)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FcidumpParseError, match="line"):
        loads("&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 2 0\n")
    with pytest.raises(FcidumpParseError):
        loads("no header here\n")
    with pytest.raises(FcidumpParseError):
        loads("&FCI NELEC=2,\n&END\n")  # missing NORB
    with pytest.raises(FcidumpParseError, match="line"):
        loads("&FCI NORB=1,NELEC=1,\n&END\n 1.0 5 1 0 0\n")  # index out of range


def test_dumps_threshold_prunes_entries():
    data = random_integral_file(2, 3)
    full_lines = dumps(data).count("\n")
    pruned_lines = dumps(data, threshold=1.0).count("\n")
    assert pruned_lines < full_lines


def test_shape_validation():
    with pytest.raises(ValueError):
        IntegralFile(2, 2, np.zeros((3, 3)), np.zeros((2,) * 4))


def reference_dumps(data, threshold):
    """The file text from a scan over all m^4 slots that writes each symmetry
    orbit once, at the first slot that reaches it."""
    m = data.num_orbitals
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
            if abs(float(data.eri[slot])) > threshold:
                lines.append(fmt(float(data.eri[slot]), *(x + 1 for x in slot)))
    for i in range(m):
        for j in range(i + 1):
            if abs(float(data.one_body[i, j])) > threshold:
                lines.append(fmt(float(data.one_body[i, j]), i + 1, j + 1, 0, 0))
    lines.append(fmt(data.constant, 0, 0, 0, 0))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("threshold", [0.0, 0.05])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dumps_matches_a_full_scan(m, threshold):
    data = random_integral_file(m, 10 + m)
    data.eri[np.abs(data.eri) < 0.02] = 0.0  # some records fall under either threshold
    assert dumps(data, threshold) == reference_dumps(data, threshold)
