"""Plain-text integral files in the FCIDUMP style.

Layout: a namelist-ish header carrying the orbital and electron counts,
followed by one record per line, ``value i j k l`` with 1-based indices in
the chemist convention (ij|kl).  ``i j 0 0`` records populate the one-body
matrix, ``0 0 0 0`` the scalar constant.  Reading reconstructs the full
8-fold-symmetric two-body tensor and the symmetric one-body matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from .eri import orbit_keys, packed_indices


class FcidumpParseError(ValueError):
    """Malformed header or record; carries the offending line number."""


class FcidumpSymmetryError(ValueError):
    """Two records assign conflicting values to symmetry-equivalent slots."""


@dataclass
class IntegralFile:
    """In-memory image of an integral file (spatial orbitals)."""

    num_orbitals: int
    num_electrons: int
    one_body: np.ndarray
    eri: np.ndarray  # chemist convention (ij|kl)
    constant: float = 0.0
    ms2: int = 0

    def __post_init__(self):
        m = self.num_orbitals
        if self.one_body.shape != (m, m):
            raise ValueError("one-body matrix shape mismatch")
        if self.eri.shape != (m, m, m, m):
            raise ValueError("two-body tensor shape mismatch")


_HEADER_INT = {
    "NORB": "num_orbitals",
    "NELEC": "num_electrons",
    "MS2": "ms2",
}

_ERI_SYMMETRY = (
    lambda i, j, k, l: (i, j, k, l),
    lambda i, j, k, l: (j, i, k, l),
    lambda i, j, k, l: (i, j, l, k),
    lambda i, j, k, l: (j, i, l, k),
    lambda i, j, k, l: (k, l, i, j),
    lambda i, j, k, l: (l, k, i, j),
    lambda i, j, k, l: (k, l, j, i),
    lambda i, j, k, l: (l, k, j, i),
)


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


def _assign(
    target: np.ndarray,
    slots: List[Tuple[int, ...]],
    value: float,
    lineno: int,
    filled: set,
    atol: float,
) -> None:
    canonical = min(slots)
    if canonical in filled:
        existing = float(target[slots[0]])
        if abs(existing - value) > atol:
            raise FcidumpSymmetryError(
                f"line {lineno}: duplicate record conflicts with earlier value "
                f"{existing!r} (new {value!r})"
            )
        return
    filled.add(canonical)
    for s in slots:
        target[s] = value


def loads(text: str, duplicate_atol: float = 1e-10) -> IntegralFile:
    lines = iter(enumerate(text.splitlines(), start=1))
    fields, header_end = _parse_header(lines)
    if "num_orbitals" not in fields:
        raise FcidumpParseError("header is missing NORB")
    if "num_electrons" not in fields:
        raise FcidumpParseError("header is missing NELEC")
    m = fields["num_orbitals"]
    if m < 0:
        raise FcidumpParseError("NORB must be non-negative")

    h1 = np.zeros((m, m))
    eri = np.zeros((m, m, m, m))
    constant = 0.0
    filled_one: set = set()
    filled_two: set = set()
    constant_seen = False

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
        if i == j == k == l == 0:
            if constant_seen and abs(constant - value) > duplicate_atol:
                raise FcidumpSymmetryError(
                    f"line {lineno}: conflicting constant records"
                )
            constant = value
            constant_seen = True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpParseError(
                    f"line {lineno}: one-body record needs both i and j nonzero"
                )
            a, b = i - 1, j - 1
            _assign(h1, [(a, b), (b, a)], value, lineno, filled_one, duplicate_atol)
        elif 0 in (i, j, k, l):
            raise FcidumpParseError(
                f"line {lineno}: two-body record with a zero index"
            )
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            slots = [sym(a, b, c, d) for sym in _ERI_SYMMETRY]
            _assign(eri, slots, value, lineno, filled_two, duplicate_atol)

    return IntegralFile(
        num_orbitals=m,
        num_electrons=fields["num_electrons"],
        one_body=h1,
        eri=eri,
        constant=constant,
        ms2=fields["ms2"],
    )


def load(path) -> IntegralFile:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def dumps(data: IntegralFile, threshold: float = 0.0) -> str:
    """Serialize; only the canonical representative of each symmetry orbit is
    written.  Entries with magnitude <= ``threshold`` are skipped (the
    constant is always written)."""
    m = data.num_orbitals
    out = [
        f"&FCI NORB={m},NELEC={data.num_electrons},MS2={data.ms2},",
        " ISYM=1,",
        "&END",
    ]

    def fmt(value: float, i: int, j: int, k: int, l: int) -> str:
        return f" {value: .16e} {i:4d} {j:4d} {k:4d} {l:4d}"

    # each orbit is written at its lexicographically first slot, in that order
    first = np.sort(orbit_keys(*packed_indices(m), m).min(axis=1))
    values = data.eri.reshape(-1)[first]
    kept = np.abs(values) > threshold
    slots = np.stack(np.unravel_index(first[kept], (m,) * 4), axis=1) + 1
    out.extend(fmt(v, *slot) for v, slot in zip(values[kept].tolist(), slots.tolist()))
    for i in range(m):
        for j in range(i + 1):
            v = float(data.one_body[i, j])
            if abs(v) > threshold:
                out.append(fmt(v, i + 1, j + 1, 0, 0))
    out.append(fmt(data.constant, 0, 0, 0, 0))
    return "\n".join(out) + "\n"


def dump(data: IntegralFile, path, threshold: float = 0.0) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(data, threshold))
