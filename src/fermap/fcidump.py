"""Plain-text integral files in the FCIDUMP style.

Layout: a namelist header carrying the orbital and electron counts, read as
one block from the ``&`` that opens the first non-blank line to the first
``&END`` or ``/``; then, from the next line on, one record per line,
``value i j k l`` with 1-based indices in the chemist convention (ij|kl).
``i j 0 0`` records populate the one-body matrix, ``0 0 0 0`` the scalar
constant.  Reading places each record at the one slot of its symmetry orbit:
two-body records become the ERI's survivors, by packed position
(``fermap.eri``), so a file needs memory for its records and its ``[m, m]``
one-body matrix, whatever its NORB; one-body records fill both triangles of
the symmetric one-body matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eri import (
    Survivors, orbit_keys, packed_indices, packed_length, packed_pairs, tri_index, triangular,
)
from .fermion import SYMMETRY_ATOL, from_spatial_integrals


class FcidumpParseError(ValueError):
    """Malformed header or record; carries the offending line number."""


class FcidumpSymmetryError(ValueError):
    """Two records assign conflicting values to symmetry-equivalent slots."""


@dataclass
class IntegralFile:
    """In-memory image of an integral file (spatial orbitals).  The integrals
    go through ``from_spatial_integrals``'s input check: ``one_body`` must be
    symmetric, and ``eri`` is survivors, or dense and 8-fold symmetric (then
    packed into survivors)."""

    num_orbitals: int
    num_electrons: int
    one_body: np.ndarray
    eri: Survivors  # chemist convention (ij|kl), the nonzero entries by packed position
    constant: float = 0.0
    ms2: int = 0

    def __post_init__(self):
        h = from_spatial_integrals(self.one_body, self.eri, self.constant)
        if h.num_modes != 2 * self.num_orbitals:
            raise ValueError(
                f"integrals of {h.num_modes // 2} orbitals in a file of {self.num_orbitals}"
            )
        self.one_body, self.eri = h.one_body, h.eri


_HEADER_INT = {
    "NORB": "num_orbitals",
    "NELEC": "num_electrons",
    "MS2": "ms2",
}


def _line_of(text: str, offset: int) -> int:
    """1-based number of the line that holds ``text[offset]``."""
    return len(text[: offset + 1].splitlines())


def _parse_header(text: str) -> Tuple[dict, int]:
    """Fields of the header block, from the ``&`` that opens the first
    non-blank line to the first ``&END`` or ``/``, and the number of the line
    that ends it."""
    header = re.match(r"\s*&(.*?)(?:&END|/)", text, re.IGNORECASE | re.DOTALL)
    if header is None:
        first = text.lstrip()
        if first and not first.startswith("&"):
            lineno, got = _line_of(text, len(text) - len(first)), first.splitlines()[0].strip()
            raise FcidumpParseError(f"line {lineno}: expected header start '&...', got {got!r}")
        raise FcidumpParseError("header never terminated with '&END' or '/'")
    fields = {"ms2": 0}
    for assign in re.finditer(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z][A-Za-z0-9_]*\s*=)|$)", header.group(1), re.M):
        key = assign.group(1).upper()
        if key in _HEADER_INT:
            raw = assign.group(2).strip().rstrip(",").strip()
            try:
                fields[_HEADER_INT[key]] = int(raw)
            except ValueError as exc:
                lineno = _line_of(text, header.start(1) + assign.start())
                raise FcidumpParseError(f"line {lineno}: {key} must be an integer, got {raw!r}") from exc
    return fields, _line_of(text, header.end() - 1)


def loads(text: str) -> IntegralFile:
    fields, header_end = _parse_header(text)
    if "num_orbitals" not in fields:
        raise FcidumpParseError("header is missing NORB")
    if "num_electrons" not in fields:
        raise FcidumpParseError("header is missing NELEC")
    m = fields["num_orbitals"]
    if m < 0:
        raise FcidumpParseError("NORB must be non-negative")

    records = []  # (value, lineno, i, j, k, l) in file order
    for lineno, line in enumerate(text.splitlines()[header_end:], start=header_end + 1):
        text_line = line.strip()
        if not text_line:
            continue
        parts = text_line.split()
        if len(parts) != 5:
            raise FcidumpParseError(
                f"line {lineno}: expected 'value i j k l', got {text_line!r}"
            )
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise FcidumpParseError(f"line {lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise FcidumpParseError(f"line {lineno}: integral {value!r} is not finite")
        for idx in (i, j, k, l):
            if idx < 0 or idx > m:
                raise FcidumpParseError(
                    f"line {lineno}: orbital index {idx} outside 0..{m}"
                )
        if k == 0 and l == 0:
            if (i == 0) != (j == 0):  # 0 0 0 0 is the constant
                raise FcidumpParseError(
                    f"line {lineno}: one-body record needs both i and j nonzero"
                )
        elif 0 in (i, j, k, l):
            raise FcidumpParseError(
                f"line {lineno}: two-body record with a zero index"
            )
        records.append((value, lineno, i, j, k, l))

    # every record has one slot: the packed position tri_index(pair(ij),
    # pair(kl)) of an ERI record, -1 for the constant and tri_index(i, j) - T - 1
    # of a one-body record, T = m (m + 1) / 2, so the ERI slots sort last.
    # tri_index forms p (p + 1) for pair indices p below P, about twice the slots
    if 2 * packed_length(m) > np.iinfo(np.int64).max:
        raise FcidumpParseError(f"NORB={m} has more ERI slots than int64 arithmetic holds")
    records = np.array(records, dtype=float).reshape(-1, 6)
    i, j, k, l = records[:, 2:].astype(np.int64).T - 1
    ij = tri_index(i, j)
    slots = np.select([i < 0, k < 0], [-1, ij - triangular(m) - 1], tri_index(ij, tri_index(k, l)))
    order = np.argsort(slots, kind="stable")
    slots, values, linenos = slots[order], records[order, 0], records[order, 1]
    first = np.diff(slots, prepend=-triangular(m) - 2) != 0
    earlier = values[first][np.cumsum(first) - 1]  # the first value at each record's slot
    conflicts = np.flatnonzero(np.abs(values - earlier) > SYMMETRY_ATOL)
    if len(conflicts):
        c = conflicts[np.argmin(linenos[conflicts])]
        raise FcidumpSymmetryError(
            f"line {int(linenos[c])}: duplicate record conflicts with earlier value "
            f"{float(earlier[c])!r} (new {float(values[c])!r})"
        )
    slots, values = slots[first], values[first]
    try:
        one_body = np.zeros((m, m))
    except MemoryError:
        raise FcidumpParseError(f"Unable to allocate {m * m} float64 slots for NORB={m}") from None
    one = slots < -1
    a, b = packed_pairs(slots[one] + triangular(m) + 1)
    one_body[a, b] = one_body[b, a] = values[one]
    constant = values[slots == -1]
    eri = (slots >= 0) & (values != 0)
    return IntegralFile(
        num_orbitals=m,
        num_electrons=fields["num_electrons"],
        one_body=one_body,
        eri=Survivors(slots[eri], values[eri]),
        constant=float(constant[0]) if len(constant) else 0.0,
        ms2=fields["ms2"],
    )


def load(path) -> IntegralFile:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def dumps(data: IntegralFile) -> str:
    """Serialize; each symmetry orbit is written once, at its
    lexicographically first slot, in that order, then the one-body triangle
    and the constant.  Only the ERI's survivors and the one-body entries that
    are not 0 are written; the constant always is."""
    m = data.num_orbitals
    positions, integrals = data.eri
    first = orbit_keys(*packed_indices(m, positions), m).min(axis=1)
    order = np.argsort(first)
    i, j = np.tril_indices(m)
    tri = np.flatnonzero(data.one_body[i, j])
    values = [integrals[order], data.one_body[i[tri], j[tri]], [data.constant]]
    # the base-m digits of a flat m^4 index are its 0-based (i, j, k, l)
    slots = [
        first[order, None] // m ** np.arange(3, -1, -1) % m + 1,
        np.stack([i[tri] + 1, j[tri] + 1, 0 * tri, 0 * tri], axis=1),
        [[0, 0, 0, 0]],
    ]
    out = [f"&FCI NORB={m},NELEC={data.num_electrons},MS2={data.ms2},", " ISYM=1,", "&END"]
    out.extend(
        f" {v: .16e} {a:4d} {b:4d} {c:4d} {d:4d}"
        for v, (a, b, c, d) in zip(np.concatenate(values).tolist(), np.concatenate(slots).tolist())
    )
    return "\n".join(out) + "\n"
