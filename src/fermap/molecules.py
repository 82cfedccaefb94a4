"""AE6 molecular test set: bundled geometries, minimal-basis orbital counts,
and qubit-bound helpers.

The geometries ship as plain ``.xyz`` files so externally computed STO-3G
integral files can be generated and fed back through the FCIDUMP reader; no
self-consistent-field code lives in this package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .bench import data_dir
from .metrics import qubit_bounds

#: Spatial orbitals per atom in a minimal (single-zeta) basis.
MINIMAL_BASIS_ORBITALS: Dict[str, int] = {
    "H": 1,
    "He": 1,
    "Li": 5,
    "Be": 5,
    "B": 5,
    "C": 5,
    "N": 5,
    "O": 5,
    "F": 5,
    "Ne": 5,
    "Na": 9,
    "Mg": 9,
    "Al": 9,
    "Si": 9,
    "P": 9,
    "S": 9,
    "Cl": 9,
    "Ar": 9,
}

AE6_NAMES: Tuple[str, ...] = (
    "silane",
    "sio",
    "s2",
    "propyne",
    "glyoxal",
    "cyclobutane",
)


@dataclass(frozen=True)
class Geometry:
    name: str
    symbols: Tuple[str, ...]
    coordinates: Tuple[Tuple[float, float, float], ...]  # Angstrom


def load_geometry(name: str) -> Geometry:
    path = data_dir() / "geometries" / f"{name.lower()}.xyz"
    lines = path.read_text(encoding="utf-8").splitlines()
    count = int(lines[0].strip())
    symbols: List[str] = []
    coords: List[Tuple[float, float, float]] = []
    for line in lines[2 : 2 + count]:
        parts = line.split()
        symbols.append(parts[0])
        coords.append((float(parts[1]), float(parts[2]), float(parts[3])))
    if len(symbols) != count:
        raise ValueError(f"{path}: expected {count} atoms, found {len(symbols)}")
    return Geometry(name.lower(), tuple(symbols), tuple(coords))


def minimal_orbitals_per_atom(geometry: Geometry) -> List[int]:
    return [MINIMAL_BASIS_ORBITALS[s] for s in geometry.symbols]


def molecule_bounds(name: str) -> Tuple[int, int, int]:
    """(Q_L, Q_U, Q_JW) for a bundled molecule in a minimal basis."""
    geometry = load_geometry(name)
    per_atom = minimal_orbitals_per_atom(geometry)
    return qubit_bounds(per_atom, sum(per_atom))


@dataclass(frozen=True)
class PublishedBounds:
    molecule: str
    q_u: int
    q_l: int
    q_jw: int


def published_bounds() -> List[PublishedBounds]:
    """The reported bounds table bundled alongside the lattice references.

    Note: the reported Q_L column does not follow the within-atom edge-count
    formula for most molecules (SiO is the exception, matching its worked
    example); the comparison tooling reports those rows with deltas instead
    of asserting equality.
    """
    rows = []
    with open(data_dir() / "reference" / "molecular_bounds.csv", newline="", encoding="utf-8") as f:
        for record in csv.DictReader(f):
            rows.append(
                PublishedBounds(
                    molecule=record["Molecule"],
                    q_u=int(record["Q_U"]),
                    q_l=int(record["Q_L"]),
                    q_jw=int(record["Q_JW"]),
                )
            )
    return rows
