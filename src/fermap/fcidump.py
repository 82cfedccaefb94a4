"""Plain-text integral files in the FCIDUMP style.

Layout: a namelist-ish header carrying the orbital and electron counts,
followed by one record per line, ``value i j k l`` with 1-based indices in
the chemist convention (ij|kl).  ``i j 0 0`` records populate the one-body
matrix, ``0 0 0 0`` the scalar constant.  Reading places each record at the
one slot of its symmetry orbit: two-body records fill the pair-packed ERI
(``fermap.eri``), one-body records a triangle of the symmetric one-body
matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .eri import orbit_keys, packed_indices, packed_length, pair_table, tri_index, triangular
from .fermion import SYMMETRY_ATOL, from_spatial_integrals


class FcidumpParseError(ValueError):
    """Malformed header or record; carries the offending line number."""


class FcidumpSymmetryError(ValueError):
    """Two records assign conflicting values to symmetry-equivalent slots."""


@dataclass
class IntegralFile:
    """In-memory image of an integral file (spatial orbitals).  The integrals
    go through ``from_spatial_integrals``'s input check: ``one_body`` must be
    symmetric, and ``eri`` is pair-packed, or dense and 8-fold symmetric (then
    packed)."""

    num_orbitals: int
    num_electrons: int
    one_body: np.ndarray
    eri: np.ndarray  # chemist convention (ij|kl), pair-packed
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


def _parse_header(lines: Iterator[Tuple[int, str]]) -> Tuple[dict, int]:
    """Consume header lines up to ``&END`` (or ``/``); return fields and the
    line number where the records begin."""
    fields = {"ms2": 0}
    saw_start = False
    for lineno, line in lines:
        text = line.strip()
        if not text:
            continue
        if not saw_start:
            if not text.upper().startswith("&"):
                raise FcidumpParseError(
                    f"line {lineno}: expected header start '&...', got {text!r}"
                )
            saw_start = True
            text = text[text.index("&") + 1 :]
            # drop the namelist name (e.g. "FCI") if present
            parts = text.split(None, 1)
            if parts and "=" not in parts[0]:
                text = parts[1] if len(parts) > 1 else ""
        body = text
        done = False
        for stop in ("&END", "/"):
            idx = body.upper().find(stop)
            if idx >= 0:
                body = body[:idx]
                done = True
                break
        for assign in re.finditer(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z0-9_]+\s*=)|$)", body):
            key = assign.group(1).upper()
            if key in _HEADER_INT:
                raw = assign.group(2).strip().rstrip(",").strip()
                try:
                    fields[_HEADER_INT[key]] = int(raw)
                except ValueError as exc:
                    raise FcidumpParseError(
                        f"line {lineno}: {key} must be an integer, got {raw!r}"
                    ) from exc
        if done:
            return fields, lineno
    raise FcidumpParseError("header never terminated with '&END' or '/'")


def loads(text: str) -> IntegralFile:
    lines = iter(enumerate(text.splitlines(), start=1))
    fields, header_end = _parse_header(lines)
    if "num_orbitals" not in fields:
        raise FcidumpParseError("header is missing NORB")
    if "num_electrons" not in fields:
        raise FcidumpParseError("header is missing NELEC")
    m = fields["num_orbitals"]
    if m < 0:
        raise FcidumpParseError("NORB must be non-negative")

    records = []  # (value, lineno, i, j, k, l) in file order
    for lineno, line in lines:
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

    # every record has one slot: tri_index(pair(ij), pair(kl)) of the packed
    # ERI, then the constant, then tri_index(i, j) of the one-body triangle
    records = np.array(records, dtype=float).reshape(-1, 6)
    i, j, k, l = records[:, 2:].astype(np.int64).T - 1
    ij = tri_index(i, j)
    length = packed_length(m)
    slots = np.select([i < 0, k < 0], [length, length + 1 + ij], tri_index(ij, tri_index(k, l)))
    order = np.argsort(slots, kind="stable")
    slots, values, linenos = slots[order], records[order, 0], records[order, 1]
    first = np.diff(slots, prepend=-1) != 0
    earlier = values[first][np.cumsum(first) - 1]  # the first value at each record's slot
    conflicts = np.flatnonzero(np.abs(values - earlier) > SYMMETRY_ATOL)
    if len(conflicts):
        c = conflicts[np.argmin(linenos[conflicts])]
        raise FcidumpSymmetryError(
            f"line {int(linenos[c])}: duplicate record conflicts with earlier value "
            f"{float(earlier[c])!r} (new {float(values[c])!r})"
        )
    placed = np.zeros(length + 1 + int(triangular(m)))
    placed[slots[first]] = values[first]
    return IntegralFile(
        num_orbitals=m,
        num_electrons=fields["num_electrons"],
        one_body=placed[length + 1 :][pair_table(m)],
        eri=placed[:length],
        constant=float(placed[length]),
        ms2=fields["ms2"],
    )


def load(path) -> IntegralFile:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def dumps(data: IntegralFile) -> str:
    """Serialize; each symmetry orbit is written once, at its
    lexicographically first slot, in that order, then the one-body triangle
    and the constant.  Records that are exactly 0 are skipped (the constant is
    always written)."""
    m = data.num_orbitals
    out = [
        f"&FCI NORB={m},NELEC={data.num_electrons},MS2={data.ms2},",
        " ISYM=1,",
        "&END",
    ]

    def fmt(value: float, i: int, j: int, k: int, l: int) -> str:
        return f" {value: .16e} {i:4d} {j:4d} {k:4d} {l:4d}"

    first = orbit_keys(*packed_indices(m), m).min(axis=1)
    order = np.argsort(first)
    values = data.eri[order]
    kept = values != 0
    # the base-m digits of a flat m^4 index are its 0-based (i, j, k, l)
    slots = first[order][kept, None] // m ** np.arange(3, -1, -1) % m + 1
    out.extend(fmt(v, *slot) for v, slot in zip(values[kept].tolist(), slots.tolist()))
    for i in range(m):
        for j in range(i + 1):
            v = float(data.one_body[i, j])
            if v != 0:
                out.append(fmt(v, i + 1, j + 1, 0, 0))
    out.append(fmt(data.constant, 0, 0, 0, 0))
    return "\n".join(out) + "\n"
