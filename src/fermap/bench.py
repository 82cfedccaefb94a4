"""Lattice benchmark sweeps and comparison against the bundled reference
tables.

A sweep cell runs the two pipeline stages for one (dimension, size,
exponent): ``ortho.orthonormal_integrals`` (Hydrogen grid, s-Gaussian
integrals, orthogonalization, rotation) and ``metrics.map_integrals``
(cutoff, classification, the requested mappings, merge, report).  Reference
tables with the published qubit counts and total tensor weights ship with the
package as CSV files; ``compare_reference`` diffs sweep output against them
(exact on qubit columns, toleranced on weight columns).
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lattice import LatticeSpec
from .metrics import ResourceReport, map_integrals
from .ortho import orthonormal_integrals

CSV_COLUMNS = ("Dimension", "Basis", "Size", "JW_Qbts", "BKSF_Qbts", "JW_TWt", "BKSF_TWt")

DATA_DIR_ENV = "FERMAP_DATA_DIR"


def basis_label(exponent: float) -> str:
    """The reference tables' two-decimal label of the exponent, or, where two
    decimals do not give the exponent back, its ``repr``: no two exponents
    share a label, so no exponent is compared with another's table."""
    label = f"{exponent:.2f}"
    return label if float(label) == exponent else repr(float(exponent))


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
    jobs: int = 1

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("sizes must be positive")
        if not self.exponents:
            raise ValueError("exponents must be non-empty")
        for exponent in self.exponents:
            for size in self.sizes:
                LatticeSpec(self.dimension, size, exponent, self.spacing)
        if not 0 <= self.cutoff < math.inf:
            raise ValueError("cutoff must be non-negative and finite")
        if self.rotation not in ("aos", "aoc"):
            raise ValueError("rotation must be 'aos' or 'aoc'")
        if not self.mappings or any(m not in ("jw", "ose") for m in self.mappings):
            raise ValueError("mappings must be a non-empty subset of {'jw', 'ose'}")
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
    """Run both pipeline stages for one lattice and return its result row.

    The final qubit operators are compressed at the same threshold as the
    integral cutoff, so term groups whose coefficients cancel below the
    cutoff after mapping do not contribute to the weight counts.

    ``size`` is the lattice side length; the emitted row records the atom
    count ``size ** dimension``, matching the reference-table "Size" column.

    Sweep-row convention: the nuclear-repulsion constant is left out of the
    mapped operators, so a row's L1 norms cover the electronic terms only.
    ``fermap transform`` runs the same mapping stage but keeps an FCIDUMP
    file's constant as an identity term, so its ``l1_norm`` includes it.
    """
    row = SweepRow(dimension=dimension, basis=basis_label(exponent), size=size**dimension)
    try:
        spec = LatticeSpec(dimension, size, exponent, spacing)
        h1, eri, _ = orthonormal_integrals(spec, rotation)
        tag = f"-d{dimension}-n{size}-a{row.basis}"
        reports = map_integrals(h1, eri, cutoff, mappings, label=tag)
        if "jw" in reports:
            row.jw_report = rep = reports["jw"]
            row.jw_qubits, row.jw_total_weight = rep.qubits, rep.total_weight
        if "ose" in reports:
            row.bksf_report = rep = reports["ose"]
            row.bksf_qubits, row.bksf_total_weight = rep.qubits, rep.total_weight
    except Exception as exc:  # sweep robustness: report, do not abort
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _run_cell_args(args) -> SweepRow:
    return run_cell(*args)


def _openblas(name: str):
    """The function ``name`` of the OpenBLAS that numpy bundles, or None when
    numpy bundles none or that one lacks it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            function = getattr(ctypes.CDLL(str(path)), name, None)
        except OSError:
            continue
        if function is not None:
            return function
    return None


@contextmanager
def _blas_threads(threads: int):
    """Run the block with the bundled OpenBLAS at ``threads`` threads, then
    restore the count; do nothing when numpy bundles no such OpenBLAS.
    Forked workers inherit the count.  Setting it in a worker instead starts
    a BLAS thread there, which made the small reference cells 1.4x slower."""
    get, set_to = (_openblas(f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set"))
    if get is None or set_to is None:
        yield
        return
    was = get()
    set_to(threads)
    try:
        yield
    finally:
        set_to(was)


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
        # a forked pool starts all its workers at the first submit, and each
        # inherits the BLAS thread count: one thread per core in every worker
        # would oversubscribe the cores.  The pool's modules load only here:
        # they took a third of ``import fermap``
        from concurrent.futures import ProcessPoolExecutor

        workers = min(cfg.jobs, len(keys))
        threads = max(1, (os.cpu_count() or 1) // workers)
        with _blas_threads(threads), ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell_args, k) for k in keys]
            return [_result_or_error_row(f, k) for f, k in zip(futures, keys)]
    return [run_cell(*k) for k in keys]


def _result_or_error_row(future, key) -> SweepRow:
    """A worker that dies (say, killed for memory) breaks the pool and every
    cell it had not finished; those cells get error rows."""
    from concurrent.futures.process import BrokenProcessPool

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
    return json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True) + "\n"


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


@dataclass(frozen=True)
class KnownDiscrepancy:
    """A reference-table cell that our output is known to differ from: the
    row key, the CSV column, both values and the reason."""

    key: Tuple[int, str, int]
    column: str
    reference: int
    ours: int
    reason: str


#: ``SweepRow``/``ReferenceRow`` attribute of each compared CSV column.
_COLUMN_FIELDS = {
    "JW_Qbts": "jw_qubits",
    "BKSF_Qbts": "bksf_qubits",
    "JW_TWt": "jw_total_weight",
    "BKSF_TWt": "bksf_total_weight",
}


def load_known() -> List[KnownDiscrepancy]:
    """The known discrepancies in ``reference/known.csv`` under the data
    directory; none when the file does not exist."""
    path = data_dir() / "reference" / "known.csv"
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as f:
        return [
            KnownDiscrepancy(
                key=(int(r["Dimension"]), r["Basis"], int(r["Size"])),
                column=r["Column"],
                reference=int(r["Reference"]),
                ours=int(r["Ours"]),
                reason=r["Reason"],
            )
            for r in csv.DictReader(f)
        ]


def load_reference(dimension: int, bases: Sequence[str]) -> List[ReferenceRow]:
    """The reference rows of one dimension's tables for the given basis
    labels, each read from ``reference/dim<d>_basis<label>.csv`` under the
    data directory."""
    rows: List[ReferenceRow] = []
    for basis in bases:
        path = data_dir() / "reference" / f"dim{dimension}_basis{basis}.csv"
        with open(path, newline="", encoding="utf-8") as f:
            rows.extend(
                ReferenceRow(
                    dimension=dimension,
                    basis=basis,
                    size=int(record["Size"]),
                    jw_qubits=int(record["JW_Qbts"]),
                    bksf_qubits=int(record["BKSF_Qbts"]),
                    jw_total_weight=int(record["JW_TWt"]),
                    bksf_total_weight=int(record["BKSF_TWt"]),
                )
                for record in csv.DictReader(f)
            )
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
    known: Optional[str] = None  # the row's known discrepancies, or how they changed


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


def _known_status(
    row: SweepRow, ref: ReferenceRow, failing: Sequence[str], known: Sequence[KnownDiscrepancy]
) -> Tuple[bool, Optional[str]]:
    """Whether a row with these failing columns passes given its known
    discrepancies, and the text that says which ones apply or what changed.
    It passes when every failing column is known and every known column
    still holds both recorded values."""
    notes, holds = [], True
    for k in known:
        field = _COLUMN_FIELDS[k.column]
        ours, theirs = getattr(row, field), getattr(ref, field)
        if (ours, theirs) == (k.ours, k.reference):
            notes.append(f"{k.column} {ours} vs reference {theirs}: {k.reason}")
        else:
            holds = False
            notes.append(
                f"{k.column} is {ours} vs reference {theirs}, "
                f"but known.csv records {k.ours} vs {k.reference}"
            )
    passed = holds and set(failing) <= {k.column for k in known}
    return passed, "; ".join(notes) or None


def compare_reference(
    results: Sequence[SweepRow],
    reference: Sequence[ReferenceRow],
    weight_rtol: float = 0.10,
    known: Sequence[KnownDiscrepancy] = (),
) -> DiffReport:
    """Diff sweep rows against reference rows keyed by (dimension, basis,
    size).  Qubit columns must match exactly; weight columns pass within the
    relative tolerance.  A row also passes, as KNOWN, when its only failing
    columns are ``known`` discrepancies that still hold the recorded values;
    a known discrepancy whose values change fails its row.  Keys present on
    only one side are reported as uncovered, not failed."""
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
        ok = (jw_q, bksf_q, jw_rel <= weight_rtol, bksf_rel <= weight_rtol)
        failing = [column for column, good in zip(_COLUMN_FIELDS, ok) if not good]
        passed, note = _known_status(row, ref, failing, [k for k in known if k.key == key])
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
                known=note,
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
            f"{('KNOWN' if d.known else 'pass') if d.passed else 'FAIL'}"
        )
        if d.known:
            lines.append(f"{'':>16}  known: {d.known}")
    for key in report_.uncovered_results:
        lines.append(f"uncovered result (no reference row): {key}")
    for key in report_.uncovered_reference:
        lines.append(f"uncovered reference row: {key}")
    lines.append(f"overall: {'PASS' if report_.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
