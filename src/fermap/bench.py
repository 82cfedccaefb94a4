"""Lattice benchmark sweeps and comparison against the bundled reference
tables.

A sweep cell runs the full pipeline for one (dimension, size, exponent):
build the Hydrogen grid, evaluate the s-Gaussian integrals, orthogonalize the
basis, apply the integral cutoff, classify the surviving second-quantized
terms, and transform with the requested mappings.  Reference tables with the
published qubit counts and total tensor weights ship with the package as CSV
files; ``compare_reference`` diffs sweep output against them (exact on qubit
columns, toleranced on weight columns).
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .fermion import classify_spatial
from .jw import jw_transform_terms
from .lattice import LatticeSpec, lattice_integrals
from .metrics import ResourceReport, report
from .ortho import (
    canonical_orthogonalizer,
    rotate_integrals,
    symmetric_orthogonalizer,
)
from .superfast import build_interaction_graph, ose_transform_terms

CSV_COLUMNS = ("Dimension", "Basis", "Size", "JW_Qbts", "BKSF_Qbts", "JW_TWt", "BKSF_TWt")

DATA_DIR_ENV = "FERMAP_DATA_DIR"

#: (dimension, basis label) keys of the bundled reference tables.
REFERENCE_TABLES: Tuple[Tuple[int, str], ...] = tuple(
    (dim, basis) for dim in (1, 2, 3) for basis in ("8.75", "7.00", "5.00", "3.00", "1.00")
)


def basis_label(exponent: float) -> str:
    """Canonical two-decimal label used by the reference tables."""
    return f"{exponent:.2f}"


@dataclass(frozen=True)
class SweepConfig:
    """One lattice sweep: a grid of sizes and basis exponents at fixed
    dimension, cutoff and rotation."""

    dimension: int
    sizes: Tuple[int, ...]
    exponents: Tuple[float, ...]
    cutoff: float = 1e-7
    rotation: str = "aos"  # "aos" (symmetric) | "aoc" (canonical)
    mappings: Tuple[str, ...] = ("jw", "ose")
    spacing: float = 1.0
    output_format: str = "csv"  # "csv" | "json"
    jobs: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if self.rotation not in ("aos", "aoc"):
            raise ValueError("rotation must be 'aos' or 'aoc'")
        if not self.mappings or any(m not in ("jw", "ose") for m in self.mappings):
            raise ValueError("mappings must be a non-empty subset of {'jw', 'ose'}")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output format must be 'csv' or 'json'")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


@dataclass
class SweepRow:
    """Result of one sweep cell; per-cell failures land in ``error`` so the
    rest of the sweep still completes."""

    dimension: int
    basis: str
    size: int
    jw_qubits: Optional[int] = None
    bksf_qubits: Optional[int] = None
    jw_total_weight: Optional[int] = None
    bksf_total_weight: Optional[int] = None
    jw_report: Optional[ResourceReport] = None
    bksf_report: Optional[ResourceReport] = None
    error: Optional[str] = None


def run_cell(
    dimension: int,
    size: int,
    exponent: float,
    cutoff: float = 1e-7,
    rotation: str = "aos",
    mappings: Sequence[str] = ("jw", "ose"),
    spacing: float = 1.0,
) -> SweepRow:
    """Run the full pipeline for one lattice and return its result row.

    The final qubit operators are compressed at the same threshold as the
    integral cutoff, so term groups whose coefficients cancel below the
    cutoff after mapping do not contribute to the weight counts.

    ``size`` is the lattice side length; the emitted row records the atom
    count ``size ** dimension``, matching the reference-table "Size" column.
    """
    row = SweepRow(dimension=dimension, basis=basis_label(exponent), size=size**dimension)
    try:
        spec = LatticeSpec(dimension, size, exponent, spacing)
        raw = lattice_integrals(spec)
        if rotation == "aos":
            ortho = symmetric_orthogonalizer(raw.overlap)
        else:
            ortho = canonical_orthogonalizer(raw.overlap)
        h1, eri, _ = rotate_integrals(raw, ortho)
        terms = classify_spatial(h1, eri, cutoff=cutoff)
        num_modes = 2 * h1.shape[1]
        eps = max(cutoff, 0.0)
        if "jw" in mappings:
            op = jw_transform_terms(terms, num_modes, eps=eps)
            rep = report(op, f"jw-d{dimension}-n{size}-a{row.basis}")
            row.jw_report = rep
            row.jw_qubits = rep.qubits
            row.jw_total_weight = rep.total_weight
        if "ose" in mappings:
            graph = build_interaction_graph(terms, num_modes)
            op = ose_transform_terms(terms, graph, eps=eps)
            rep = report(op, f"ose-d{dimension}-n{size}-a{row.basis}")
            row.bksf_report = rep
            row.bksf_qubits = rep.qubits
            row.bksf_total_weight = rep.total_weight
    except Exception as exc:  # sweep robustness: report, do not abort
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _run_cell_args(args) -> SweepRow:
    return run_cell(*args)


def run_sweep(cfg: SweepConfig) -> List[SweepRow]:
    """Run every (size, exponent) cell; rows come back in table order
    (exponents as configured, sizes ascending within each), regardless of the
    order in which parallel cells finish."""
    keys = [
        (cfg.dimension, size, exponent, cfg.cutoff, cfg.rotation, cfg.mappings, cfg.spacing)
        for exponent in cfg.exponents
        for size in cfg.sizes
    ]
    if cfg.jobs > 1 and len(keys) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_run_cell_args, k) for k in keys]
            return [_result_or_error_row(f, k) for f, k in zip(futures, keys)]
    return [run_cell(*k) for k in keys]


def _result_or_error_row(future, key) -> SweepRow:
    """A worker that dies (say, killed for memory) breaks the pool and every
    cell it had not finished; those cells get error rows."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        dimension, size, exponent = key[:3]
        row = SweepRow(dimension, basis_label(exponent), size**dimension)
        row.error = f"BrokenProcessPool: {exc}"
        return row


def _cell(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.dimension,
                r.basis,
                r.size,
                _cell(r.jw_qubits),
                _cell(r.bksf_qubits),
                _cell(r.jw_total_weight),
                _cell(r.bksf_total_weight),
            ]
        )
    return buf.getvalue()


def rows_to_json(rows: Sequence[SweepRow]) -> str:
    payload = []
    for r in rows:
        d = asdict(r)
        payload.append(d)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- bundled reference tables ------------------------------------------------


@dataclass(frozen=True)
class ReferenceRow:
    """One published table row: exact integers for both mappings."""

    dimension: int
    basis: str
    size: int
    jw_qubits: int
    bksf_qubits: int
    jw_total_weight: int
    bksf_total_weight: int

    @property
    def key(self) -> Tuple[int, str, int]:
        return (self.dimension, self.basis, self.size)


def data_dir() -> Path:
    """Bundled data directory; overridable through the environment."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def reference_table_path(dimension: int, basis: str, base: Optional[Path] = None) -> Path:
    root = base if base is not None else data_dir()
    return root / "reference" / f"dim{dimension}_basis{basis}.csv"


def load_reference_table(
    dimension: int, basis: str, path: Optional[Path] = None
) -> List[ReferenceRow]:
    target = Path(path) if path is not None else reference_table_path(dimension, basis)
    rows = []
    with open(target, newline="", encoding="utf-8") as f:
        for record in csv.DictReader(f):
            rows.append(
                ReferenceRow(
                    dimension=dimension,
                    basis=basis,
                    size=int(record["Size"]),
                    jw_qubits=int(record["JW_Qbts"]),
                    bksf_qubits=int(record["BKSF_Qbts"]),
                    jw_total_weight=int(record["JW_TWt"]),
                    bksf_total_weight=int(record["BKSF_TWt"]),
                )
            )
    return rows


def load_reference(
    dimension: int, bases: Optional[Sequence[str]] = None, base: Optional[Path] = None
) -> List[ReferenceRow]:
    if bases is None:
        bases = [b for d, b in REFERENCE_TABLES if d == dimension]
    rows: List[ReferenceRow] = []
    for b in bases:
        rows.extend(load_reference_table(dimension, b, reference_table_path(dimension, b, base)))
    return rows


# --- diffing -----------------------------------------------------------------


@dataclass(frozen=True)
class RowDiff:
    """Comparison of one sweep row against its reference row."""

    key: Tuple[int, str, int]
    jw_qubits_match: bool
    bksf_qubits_match: bool
    jw_weight_delta: int
    bksf_weight_delta: int
    jw_weight_rel: float
    bksf_weight_rel: float
    passed: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class DiffReport:
    diffs: Tuple[RowDiff, ...]
    uncovered_results: Tuple[Tuple[int, str, int], ...]
    uncovered_reference: Tuple[Tuple[int, str, int], ...]
    passed: bool


def _rel(delta: int, reference: int) -> float:
    if reference == 0:
        return 0.0 if delta == 0 else float("inf")
    return abs(delta) / abs(reference)


def compare_reference(
    results: Sequence[SweepRow],
    reference: Sequence[ReferenceRow],
    weight_rtol: float = 0.10,
) -> DiffReport:
    """Diff sweep rows against reference rows keyed by (dimension, basis,
    size).  Qubit columns must match exactly; weight columns pass within the
    relative tolerance.  Keys present on only one side are reported as
    uncovered, not failed."""
    ref_by_key: Dict[Tuple[int, str, int], ReferenceRow] = {r.key: r for r in reference}
    diffs: List[RowDiff] = []
    uncovered_results = []
    seen = set()
    for row in results:
        key = (row.dimension, row.basis, row.size)
        ref = ref_by_key.get(key)
        if ref is None:
            uncovered_results.append(key)
            continue
        seen.add(key)
        if row.error is not None or None in (
            row.jw_qubits,
            row.bksf_qubits,
            row.jw_total_weight,
            row.bksf_total_weight,
        ):
            diffs.append(
                RowDiff(
                    key=key,
                    jw_qubits_match=False,
                    bksf_qubits_match=False,
                    jw_weight_delta=0,
                    bksf_weight_delta=0,
                    jw_weight_rel=float("inf"),
                    bksf_weight_rel=float("inf"),
                    passed=False,
                    error=row.error or "incomplete row (missing mapping results)",
                )
            )
            continue
        jw_delta = row.jw_total_weight - ref.jw_total_weight
        bksf_delta = row.bksf_total_weight - ref.bksf_total_weight
        jw_rel = _rel(jw_delta, ref.jw_total_weight)
        bksf_rel = _rel(bksf_delta, ref.bksf_total_weight)
        jw_q = row.jw_qubits == ref.jw_qubits
        bksf_q = row.bksf_qubits == ref.bksf_qubits
        passed = jw_q and bksf_q and jw_rel <= weight_rtol and bksf_rel <= weight_rtol
        diffs.append(
            RowDiff(
                key=key,
                jw_qubits_match=jw_q,
                bksf_qubits_match=bksf_q,
                jw_weight_delta=jw_delta,
                bksf_weight_delta=bksf_delta,
                jw_weight_rel=jw_rel,
                bksf_weight_rel=bksf_rel,
                passed=passed,
            )
        )
    uncovered_reference = tuple(sorted(k for k in ref_by_key if k not in seen))
    overall = all(d.passed for d in diffs) and bool(diffs)
    return DiffReport(
        diffs=tuple(diffs),
        uncovered_results=tuple(uncovered_results),
        uncovered_reference=uncovered_reference,
        passed=overall,
    )


def diff_report_text(report_: DiffReport) -> str:
    lines = []
    header = (
        f"{'key':>16}  {'JWq':>4} {'BKq':>4}  "
        f"{'dJW_TWt':>9} {'dBK_TWt':>9}  {'relJW':>7} {'relBK':>7}  status"
    )
    lines.append(header)
    for d in report_.diffs:
        dim, basis, size = d.key
        tag = f"d{dim} a{basis} n{size}"
        if d.error:
            lines.append(f"{tag:>16}  error: {d.error}")
            continue
        lines.append(
            f"{tag:>16}  {'ok' if d.jw_qubits_match else 'X':>4} "
            f"{'ok' if d.bksf_qubits_match else 'X':>4}  "
            f"{d.jw_weight_delta:>+9d} {d.bksf_weight_delta:>+9d}  "
            f"{d.jw_weight_rel:>7.2%} {d.bksf_weight_rel:>7.2%}  "
            f"{'pass' if d.passed else 'FAIL'}"
        )
    for key in report_.uncovered_results:
        lines.append(f"uncovered result (no reference row): {key}")
    for key in report_.uncovered_reference:
        lines.append(f"uncovered reference row: {key}")
    lines.append(f"overall: {'PASS' if report_.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
