"""Workloads, passes, correctness checks and tracing for the fermap benchmark.

The benchmark drives fermap from outside through its public functions only.
An untraced pass calls ``bench.run_cell`` / ``bench.run_sweep`` (plus the
oracle and FCIDUMP entry points for ``small-cells``); a traced pass calls the
per-module entry points one after another and records one span around each
call.  Every operation is checked: lattice cells against the bundled
reference tables (with the known discrepancies listed per row), oracle
deviations against the ``scripts/verify_spectra.py`` tolerances, and the
FCIDUMP file against its own generated integrals.
"""

from __future__ import annotations

import json
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fermap import fcidump, oracle
from fermap.bench import (
    ReferenceRow,
    SweepConfig,
    SweepRow,
    basis_label,
    compare_reference,
    load_reference,
    run_cell,
    run_sweep,
)
from fermap.fermion import FermionHamiltonian, classify_spatial, from_spatial_integrals
from fermap.jw import jw_transform_terms
from fermap.lattice import LatticeSpec, lattice_integrals
from fermap.metrics import ResourceReport, report
from fermap.ortho import rotate_integrals, symmetric_orthogonalizer
from fermap.sampling import random_spatial_hamiltonian, random_spatial_integrals
from fermap.superfast import build_interaction_graph, ose_transform_terms

CUTOFF = 1e-7
WEIGHT_RTOL = 0.10  # compare_reference's default, stated so the KNOWN rule uses the same value
L1_RTOL = 1e-12
EXPONENTS = (8.75, 7.00, 5.00, 3.00, 1.00)
SEED_OUTPUTS = Path(__file__).resolve().parent / "seed_outputs.json"
#: ``ResourceReport`` fields compared against the seed commit's outputs.
EXACT_FIELDS = ("qubits", "term_count", "total_weight", "max_weight")
L1_FIELDS = ("l1_norm", "l1_norm_no_identity")
#: Kinds a number-conserving lattice or FCIDUMP Hamiltonian can produce.
TERM_KINDS = ("number", "coulomb_exchange", "excitation", "number_excitation", "double_excitation")


@dataclass(frozen=True)
class Known:
    """A reference row that is known to differ, in one column only."""

    column: str
    reference: int
    observed: int
    reason: str


KNOWN: Dict[Tuple[int, str, int], Known] = {
    (3, "3.00", 8): Known(
        column="bksf_qubits",
        reference=24,
        observed=48,
        reason="the reference count leaves out face-diagonal edges whose amplitude exceeds "
        "smaller amplitudes it keeps in 1-D; the weight column is within tolerance",
    ),
}


@dataclass(frozen=True)
class Cell:
    dimension: int
    side: int
    exponent: float

    @property
    def label(self) -> str:
        return f"d{self.dimension} a{basis_label(self.exponent)} n{self.side ** self.dimension}"


@dataclass(frozen=True)
class OracleCase:
    """One lattice ``sector_spectra_match`` call of the ``verify_spectra.py``
    suite; its random 2-orbital calls are drawn from the workload seed."""

    cell: Cell
    tolerance: float
    ancilla: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Tuple[Cell, ...] = ()
    sweeps: Tuple[SweepConfig, ...] = ()  # when set, the cells run through run_sweep
    oracle_cases: Tuple[OracleCase, ...] = ()
    random_oracle_cases: int = 0
    fcidump_orbitals: int = 0

    @property
    def all_cells(self) -> Tuple[Cell, ...]:
        swept = tuple(
            Cell(cfg.dimension, side, exponent)
            for cfg in self.sweeps
            for exponent in cfg.exponents
            for side in cfg.sizes
        )
        return self.cells + swept


def _sweep(dimension: int, sides: Tuple[int, ...]) -> SweepConfig:
    return SweepConfig(dimension, sides, EXPONENTS, cutoff=CUTOFF, jobs=2)


# Why each workload is here:
# dense-2d: JW+OSE term generation and merge take ~90% of the pass; a Pauli-engine
#   change must show here.
# sparse-3d: 64 orbitals of mostly Coulomb terms on wide registers; integrals,
#   orthogonalization and rotation take ~60% and set the 1.1 GB peak RSS.
# small-cells: only small inputs, so per-call costs, the process pool and the
#   oracle dominate; a change that adds per-call overhead loses here.  The FCIDUMP
#   file has 6 orbitals because fcidump.dumps loops over m**4 slots in Python.
WORKLOADS: Dict[str, Workload] = {
    "dense-2d": Workload("dense-2d", cells=(Cell(2, 4, 1.00),)),
    "sparse-3d": Workload("sparse-3d", cells=(Cell(3, 4, 8.75),)),
    "small-cells": Workload(
        "small-cells",
        sweeps=(_sweep(1, (2, 4, 6, 8, 10)), _sweep(2, (2,)), _sweep(3, (2,))),
        oracle_cases=tuple(OracleCase(Cell(1, 2, e), 1e-9) for e in EXPONENTS)
        + (OracleCase(Cell(1, 3, 8.75), 1e-8, ancilla=True),),
        random_oracle_cases=20,
        fcidump_orbitals=6,
    ),
}
RANDOM_ORACLE_TOLERANCE = 1e-9


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up ------------------------------------------------------------------


@dataclass
class OracleInput:
    label: str
    hamiltonian: FermionHamiltonian
    ancilla_mode: Optional[int]
    tolerance: float


@dataclass
class Inputs:
    """Everything a pass needs, made once in set-up from the workload seed."""

    reference: List[ReferenceRow]
    seed_outputs: Dict[str, Dict[str, float]]
    oracle: List[OracleInput]
    fcidump_text: str = ""
    fcidump_expected: Optional[fcidump.IntegralFile] = None


def _lattice_hamiltonian(cell: Cell) -> FermionHamiltonian:
    raw = lattice_integrals(LatticeSpec(cell.dimension, cell.side, cell.exponent))
    h1, eri, constant = rotate_integrals(raw, symmetric_orthogonalizer(raw.overlap))
    return from_spatial_integrals(h1, eri, constant)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Load the reference rows and make the seeded inputs.

    The lattice cells are fixed by the paper's tables; the seed drives only
    the random oracle Hamiltonians and the random FCIDUMP file."""
    bases: Dict[int, set] = {}
    for cell in workload.all_cells:
        bases.setdefault(cell.dimension, set()).add(basis_label(cell.exponent))
    reference = [row for dim, b in sorted(bases.items()) for row in load_reference(dim, sorted(b))]
    seed_outputs = json.loads(SEED_OUTPUTS.read_text(encoding="utf-8"))

    rng = np.random.default_rng(seed)
    cases = []
    for case in workload.oracle_cases:
        h = _lattice_hamiltonian(case.cell)
        cases.append(
            OracleInput(
                f"lattice {case.cell.label}{' +ancilla' if case.ancilla else ''}",
                h,
                h.num_modes - 1 if case.ancilla else None,
                case.tolerance,
            )
        )
    for oracle_seed in rng.integers(0, 2**31, size=workload.random_oracle_cases):
        cases.append(
            OracleInput(
                f"random 2-orbital seed {oracle_seed}",
                random_spatial_hamiltonian(2, int(oracle_seed)),
                None,
                RANDOM_ORACLE_TOLERANCE,
            )
        )
    inputs = Inputs(reference, seed_outputs, cases)
    m = workload.fcidump_orbitals
    if m:
        h1, eri = random_spatial_integrals(m, rng)
        data = fcidump.IntegralFile(m, m, h1, eri, float(rng.uniform(-1.0, 1.0)))
        inputs.fcidump_text = fcidump.dumps(data)
        inputs.fcidump_expected = data
    return inputs


def warm_up() -> None:
    """Run every layer once on the smallest lattice cell."""
    row = run_cell(1, 2, 1.00, cutoff=CUTOFF)
    if row.error is not None:
        raise RuntimeError(f"warm-up cell failed: {row.error}")


# --- checks ------------------------------------------------------------------


@dataclass
class Checks:
    """Outcome of every checked operation; ``failed`` feeds ``error_rate``."""

    attempted: int = 0
    failed: int = 0
    known: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    seed_match: Dict[str, bool] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _row_label(row: SweepRow) -> str:
    return f"d{row.dimension} a{row.basis} n{row.size}"


def _is_known(row: SweepRow, diff, known: Optional[Known]) -> bool:
    """True when the row fails in the known column only, with the known value."""
    if known is None or diff.error is not None:
        return False
    columns_ok = {
        "jw_qubits": diff.jw_qubits_match,
        "bksf_qubits": diff.bksf_qubits_match,
        "jw_total_weight": diff.jw_weight_rel <= WEIGHT_RTOL,
        "bksf_total_weight": diff.bksf_weight_rel <= WEIGHT_RTOL,
    }
    failing = [c for c, ok in columns_ok.items() if not ok]
    return failing == [known.column] and getattr(row, known.column) == known.observed


def check_rows(rows: Sequence[SweepRow], reference: Sequence[ReferenceRow], checks: Checks) -> None:
    """Count one operation per row; a row fails on an error, on a reference
    mismatch other than its KNOWN one, or when it has no reference row."""
    diffs = {d.key: d for d in compare_reference(rows, reference, weight_rtol=WEIGHT_RTOL).diffs}
    for row in rows:
        checks.attempted += 1
        key = (row.dimension, row.basis, row.size)
        diff = diffs.get(key)
        if diff is None:
            checks.fail(f"{_row_label(row)}: no reference row")
        elif diff.error is not None:
            checks.fail(f"{_row_label(row)}: {diff.error}")
        elif not diff.passed:
            known = KNOWN.get(key)
            if _is_known(row, diff, known):
                checks.known[_row_label(row)] = (
                    f"{known.column} {known.observed} vs reference {known.reference}: {known.reason}"
                )
            else:
                checks.fail(
                    f"{_row_label(row)}: JW qubits {'ok' if diff.jw_qubits_match else 'X'}, "
                    f"BKSF qubits {'ok' if diff.bksf_qubits_match else 'X'}, "
                    f"weight rel {diff.jw_weight_rel:.2%} / {diff.bksf_weight_rel:.2%}"
                )


def _report_matches(rep: Optional[ResourceReport], expected: Optional[Dict[str, float]]) -> bool:
    if rep is None or expected is None:
        return False
    if any(getattr(rep, f) != expected[f] for f in EXACT_FIELDS):
        return False
    return all(
        abs(getattr(rep, f) - expected[f]) <= L1_RTOL * abs(expected[f]) for f in L1_FIELDS
    )


def check_seed_outputs(rows: Sequence[SweepRow], seed_outputs, checks: Checks) -> None:
    """Informational: a cell matches only if it matched on every pass."""
    for row in rows:
        label = _row_label(row)
        ok = _report_matches(row.jw_report, seed_outputs.get(f"{label} jw")) and _report_matches(
            row.bksf_report, seed_outputs.get(f"{label} ose")
        )
        checks.seed_match[label] = checks.seed_match.get(label, True) and ok


def check_oracle(results: Sequence[Tuple[OracleInput, object]], checks: Checks) -> None:
    for case, outcome in results:
        checks.attempted += 1
        if isinstance(outcome, Exception):
            checks.fail(f"oracle {case.label}: {type(outcome).__name__}: {outcome}")
            continue
        if not outcome < case.tolerance:
            checks.fail(f"oracle {case.label}: deviation {outcome:.3e} >= {case.tolerance:g}")


@dataclass
class FcidumpResult:
    data: Optional[fcidump.IntegralFile] = None
    jw: Optional[ResourceReport] = None
    ose: Optional[ResourceReport] = None
    error: Optional[Exception] = None


def check_fcidump(result: FcidumpResult, expected: fcidump.IntegralFile, checks: Checks) -> None:
    """The file must read back to the generated integrals; JW needs one qubit
    per spin orbital, the encoding one per edge of the two complete spin
    graphs, and both mappings must give the same identity coefficient."""
    checks.attempted += 1
    if result.error is not None:
        checks.fail(f"fcidump: {type(result.error).__name__}: {result.error}")
        return
    m = expected.num_orbitals
    data = result.data
    problems = []
    if data.num_orbitals != m or abs(data.constant - expected.constant) > 1e-15:
        problems.append("header or constant differs")
    elif not (
        np.allclose(data.one_body, expected.one_body, rtol=0, atol=1e-12)
        and np.allclose(data.eri, expected.eri, rtol=0, atol=1e-12)
    ):
        problems.append("integrals differ from the generated ones")
    if result.jw.qubits != 2 * m:
        problems.append(f"JW qubits {result.jw.qubits} != {2 * m}")
    if result.ose.qubits != m * (m - 1):
        problems.append(f"encoded qubits {result.ose.qubits} != {m * (m - 1)}")
    id_jw = result.jw.l1_norm - result.jw.l1_norm_no_identity
    id_ose = result.ose.l1_norm - result.ose.l1_norm_no_identity
    if abs(id_jw - id_ose) > 1e-9 * max(1.0, abs(id_jw)):
        problems.append(f"identity coefficients differ: {id_jw!r} vs {id_ose!r}")
    if problems:
        checks.fail("fcidump: " + "; ".join(problems))


# --- untraced pass -------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float
    rows: List[SweepRow]
    oracle: List[Tuple[OracleInput, object]]
    fcidump: Optional[FcidumpResult]


def _oracle_case(case: OracleInput):
    try:
        return oracle.sector_spectra_match(case.hamiltonian, parity_ancilla_mode=case.ancilla_mode)
    except Exception as exc:  # counted as a failed operation
        return exc


def _fcidump_case(text: str, span=None) -> FcidumpResult:
    """``fcidump.loads`` and both mappings, constant included."""
    span = span or _no_span
    result = FcidumpResult()
    try:
        with span("fcidump.loads"):
            data = fcidump.loads(text)
        with span("fermion.classify") as s:
            terms = classify_spatial(data.one_body, data.eri, cutoff=CUTOFF)
            _count_terms(s, terms)
        num_modes = 2 * data.num_orbitals
        with span("jw.transform") as s:
            op = jw_transform_terms(terms, num_modes, constant=data.constant, eps=CUTOFF)
        with span("metrics.report"):
            result.jw = report(op, "jw")
        _count_report(s, result.jw)
        with span("superfast.graph"):
            graph = build_interaction_graph(terms, num_modes)
        with span("superfast.transform") as s:
            op = ose_transform_terms(terms, graph, constant=data.constant, eps=CUTOFF)
        with span("metrics.report"):
            result.ose = report(op, "ose")
        _count_report(s, result.ose)
        result.data = data
    except Exception as exc:  # counted as a failed operation
        result.error = exc
    return result


def run_pass(workload: Workload, inputs: Inputs) -> PassResult:
    """One timed pass over the workload's operations, tracing off."""
    start = time.perf_counter()
    rows: List[SweepRow] = []
    for cfg in workload.sweeps:
        part = run_sweep(cfg)
        compare_reference(part, inputs.reference, weight_rtol=WEIGHT_RTOL)
        rows.extend(part)
    rows.extend(run_cell(c.dimension, c.side, c.exponent, cutoff=CUTOFF) for c in workload.cells)
    oracle_results = [(case, _oracle_case(case)) for case in inputs.oracle]
    fcid = _fcidump_case(inputs.fcidump_text) if inputs.fcidump_text else None
    return PassResult(time.perf_counter() - start, rows, oracle_results, fcid)


def check_pass(result: PassResult, inputs: Inputs, checks: Checks) -> None:
    check_rows(result.rows, inputs.reference, checks)
    check_seed_outputs(result.rows, inputs.seed_outputs, checks)
    check_oracle(result.oracle, checks)
    if result.fcidump is not None:
        check_fcidump(result.fcidump, inputs.fcidump_expected, checks)


# --- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and run id, plus
    ``ru_maxrss`` at each span's start and end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "rss_start_mb": maxrss_mb(),
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_mb"] = maxrss_mb()
            self._stack.pop()


@contextmanager
def _no_span(name: str, **attrs):
    yield None


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _count_terms(span_record: Optional[dict], terms) -> None:
    if span_record is None:
        return
    kinds = Counter(t.kind.value for t in terms)
    span_record["terms"] = len(terms)
    for kind in TERM_KINDS:
        span_record[f"terms.{kind}"] = kinds.get(kind, 0)


def _count_report(span_record: Optional[dict], rep: ResourceReport) -> None:
    if span_record is not None:
        span_record.update(qubits=rep.qubits, terms=rep.term_count, total_weight=rep.total_weight)


def traced_cell(cell: Cell, tracer: Tracer) -> SweepRow:
    """The ``run_cell`` pipeline, one public call per span."""
    span = tracer.span
    row = SweepRow(cell.dimension, basis_label(cell.exponent), cell.side**cell.dimension)
    tag = f"d{cell.dimension}-n{cell.side}-a{row.basis}"
    with span("cell", cell=cell.label):
        with span("lattice.integrals"):
            raw = lattice_integrals(LatticeSpec(cell.dimension, cell.side, cell.exponent))
        with span("ortho.orthogonalize"):
            ortho = symmetric_orthogonalizer(raw.overlap)
        with span("ortho.rotate"):
            h1, eri, _ = rotate_integrals(raw, ortho)
        with span("fermion.classify") as s:
            terms = classify_spatial(h1, eri, cutoff=CUTOFF)
            _count_terms(s, terms)
        num_modes = 2 * h1.shape[1]
        with span("jw.transform") as s:
            op = jw_transform_terms(terms, num_modes, eps=CUTOFF)
        with span("metrics.report"):
            row.jw_report = report(op, f"jw-{tag}")
        _count_report(s, row.jw_report)
        with span("superfast.graph"):
            graph = build_interaction_graph(terms, num_modes)
        with span("superfast.transform") as s:
            op = ose_transform_terms(terms, graph, eps=CUTOFF)
        with span("metrics.report"):
            row.bksf_report = report(op, f"ose-{tag}")
        _count_report(s, row.bksf_report)
    row.jw_qubits, row.jw_total_weight = row.jw_report.qubits, row.jw_report.total_weight
    row.bksf_qubits, row.bksf_total_weight = row.bksf_report.qubits, row.bksf_report.total_weight
    return row


@dataclass
class TraceIteration:
    untraced_s: float
    traced_s: float
    spans: List[dict]
    sweep_s: float = 0.0
    jobs: int = 0
    oracle_deviation: Optional[float] = None


def trace_iteration(
    workload: Workload, inputs: Inputs, tracer: Tracer, checks: Checks, traced_first: bool
) -> TraceIteration:
    """Run the workload's cells untraced through ``run_cell`` and traced
    through the layer functions, check that both give identical reports, and
    for ``small-cells`` also trace the sweep, the oracle and the FCIDUMP file."""
    first_span = len(tracer.spans)
    cells = workload.all_cells

    def untraced():
        start = time.perf_counter()
        rows = [run_cell(c.dimension, c.side, c.exponent, cutoff=CUTOFF) for c in cells]
        return time.perf_counter() - start, rows

    def traced():
        start = time.perf_counter()
        rows = []
        for c in cells:
            checks.attempted += 1
            try:
                rows.append(traced_cell(c, tracer))
            except Exception as exc:  # counted as a failed operation
                checks.fail(f"traced {c.label}: {type(exc).__name__}: {exc}")
                rows.append(None)
        return time.perf_counter() - start, rows

    if traced_first:
        traced_s, traced_rows = traced()
        untraced_s, rows = untraced()
    else:
        untraced_s, rows = untraced()
        traced_s, traced_rows = traced()
    check_rows(rows, inputs.reference, checks)
    check_seed_outputs(rows, inputs.seed_outputs, checks)
    for row, traced_row in zip(rows, traced_rows):
        if traced_row is None:
            continue
        with tracer.span("bench.compare"):
            compare_reference([traced_row], inputs.reference, weight_rtol=WEIGHT_RTOL)
        if (row.jw_report, row.bksf_report) != (traced_row.jw_report, traced_row.bksf_report):
            checks.fail(f"traced {_row_label(row)}: reports differ from run_cell")

    it = TraceIteration(untraced_s, traced_s, [])
    for cfg in workload.sweeps:
        checks.attempted += 1
        with tracer.span("bench.sweep", jobs=cfg.jobs) as s:
            part = run_sweep(cfg)
        it.sweep_s += s["end"] - s["start"]
        it.jobs = cfg.jobs
        with tracer.span("bench.compare"):
            compare_reference(part, inputs.reference, weight_rtol=WEIGHT_RTOL)
        by_key = {(r.dimension, r.basis, r.size): r for r in rows}
        for r in part:
            ref = by_key.get((r.dimension, r.basis, r.size))
            if ref is None or (r.jw_report, r.bksf_report) != (ref.jw_report, ref.bksf_report):
                checks.fail(f"sweep {_row_label(r)}: reports differ from run_cell")
                break
    oracle_results = []
    for case in inputs.oracle:
        with tracer.span("oracle.spectra", case=case.label):
            oracle_results.append((case, _oracle_case(case)))
    check_oracle(oracle_results, checks)
    it.oracle_deviation = max((d for _, d in oracle_results if not isinstance(d, Exception)), default=None)
    if inputs.fcidump_text:
        with tracer.span("fcidump", records=count_records(inputs.fcidump_text)):
            fcid = _fcidump_case(inputs.fcidump_text, tracer.span)
        check_fcidump(fcid, inputs.fcidump_expected, checks)
    it.spans = tracer.spans[first_span:]
    return it


def count_records(text: str) -> int:
    """Integral records after the ``&END`` header line."""
    lines = [line for line in text.splitlines() if line.strip()]
    end = next(i for i, line in enumerate(lines) if line.strip().upper().startswith("&END"))
    return len(lines) - end - 1


# --- per-layer metrics ----------------------------------------------------------

LAYERS = ("lattice", "ortho", "fermion", "jw", "superfast", "metrics", "bench")
#: name -> (unit, better); every workload reports these.
PER_LAYER = {
    "lattice.integrals_s": ("s", "lower"),
    "lattice.maxrss_mb": ("MB", "lower"),
    "ortho.orthogonalize_s": ("s", "lower"),
    "ortho.rotate_s": ("s", "lower"),
    "ortho.maxrss_mb": ("MB", "lower"),
    "fermion.classify_s": ("s", "lower"),
    "fermion.terms": ("count", "lower"),
    **{f"fermion.terms.{k}": ("count", "lower") for k in TERM_KINDS},
    "jw.transform_s": ("s", "lower"),
    "jw.qubits": ("count", "lower"),
    "jw.terms": ("count", "lower"),
    "jw.total_weight": ("count", "lower"),
    "jw.terms_per_s": ("1/s", "higher"),
    "superfast.graph_s": ("s", "lower"),
    "superfast.transform_s": ("s", "lower"),
    "superfast.qubits": ("count", "lower"),
    "superfast.terms": ("count", "lower"),
    "superfast.total_weight": ("count", "lower"),
    "superfast.terms_per_s": ("1/s", "higher"),
    "metrics.report_s": ("s", "lower"),
    "bench.compare_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "harness.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
#: Reported only by workloads that reach these layers (``small-cells``).
PER_LAYER_SMALL_CELLS = {
    "fcidump.loads_s": ("s", "lower"),
    "fcidump.records": ("count", "lower"),
    "fcidump.self_s": ("s", "lower"),
    "oracle.spectra_s": ("s", "lower"),
    "oracle.max_deviation": ("hartree", "lower"),
    "oracle.self_s": ("s", "lower"),
    "bench.sweep_s": ("s", "lower"),
    "bench.parallel_efficiency": ("ratio", "higher"),
}

UNITS = {name: unit for name, (unit, _) in {**PER_LAYER, **PER_LAYER_SMALL_CELLS}.items()}


def iteration_layer_values(it: TraceIteration) -> Dict[str, float]:
    """Per-layer sums over one trace iteration's spans."""
    spans = it.spans
    base = spans[0]["id"] if spans else 0
    local = [dict(s, parent=None if s["parent"] is None else s["parent"] - base) for s in spans]
    selfs = self_times(local)
    dur: Dict[str, float] = Counter()
    attrs: Dict[str, float] = Counter()
    self_by_layer: Dict[str, float] = Counter()
    for s, own in zip(spans, selfs):
        name = s["name"]
        dur[name] += s["end"] - s["start"]
        layer = "harness" if name == "cell" else name.split(".")[0]
        self_by_layer[layer] += own
        for key in ("terms", "qubits", "total_weight", *(f"terms.{k}" for k in TERM_KINDS)):
            if key in s:
                attrs[f"{name.split('.')[0]}.{key}"] += s[key]
    v = {
        "lattice.integrals_s": dur["lattice.integrals"],
        "ortho.orthogonalize_s": dur["ortho.orthogonalize"],
        "ortho.rotate_s": dur["ortho.rotate"],
        "fermion.classify_s": dur["fermion.classify"],
        "jw.transform_s": dur["jw.transform"],
        "superfast.graph_s": dur["superfast.graph"],
        "superfast.transform_s": dur["superfast.transform"],
        "metrics.report_s": dur["metrics.report"],
        "bench.compare_s": dur["bench.compare"],
        "fermion.terms": attrs["fermion.terms"],
        **{f"fermion.terms.{k}": attrs[f"fermion.terms.{k}"] for k in TERM_KINDS},
        **{f"{m}.{k}": attrs[f"{m}.{k}"] for m in ("jw", "superfast") for k in ("qubits", "terms", "total_weight")},
        **{f"{layer}.self_s": self_by_layer[layer] for layer in (*LAYERS, "harness")},
        "trace.overhead": it.traced_s / it.untraced_s,
        "lattice.maxrss_mb": max(s["rss_end_mb"] for s in spans if s["name"] == "lattice.integrals"),
        "ortho.maxrss_mb": max(s["rss_end_mb"] for s in spans if s["name"].startswith("ortho.")),
    }
    for m in ("jw", "superfast"):
        v[f"{m}.terms_per_s"] = v[f"{m}.terms"] / v[f"{m}.transform_s"]
    if it.jobs:
        serial = dur["cell"]
        v.update(
            {
                "fcidump.loads_s": dur["fcidump.loads"],
                "fcidump.self_s": self_by_layer["fcidump"],
                "oracle.self_s": self_by_layer["oracle"],
                "fcidump.records": sum(s.get("records", 0) for s in spans if s["name"] == "fcidump"),
                "oracle.spectra_s": dur["oracle.spectra"],
                "bench.sweep_s": it.sweep_s,
                "bench.parallel_efficiency": serial / (it.jobs * it.sweep_s),
            }
        )
    return v


def layer_metrics(iterations: Sequence[TraceIteration], checks: Checks) -> Dict[str, float]:
    """Medians over iterations for times; memory from the first iteration,
    which runs first in a fresh process so ``ru_maxrss`` steps show there."""
    per_it = [iteration_layer_values(it) for it in iterations]
    out = {}
    for name in per_it[0]:
        values = [v[name] for v in per_it]
        if UNITS[name] == "count" and len(set(values)) != 1:
            checks.fail(f"trace: {name} differs between iterations")
        if UNITS[name] == "count" or name.endswith("maxrss_mb"):
            out[name] = values[0]
        else:
            out[name] = median(values)
    if iterations[0].oracle_deviation is not None:
        out["oracle.max_deviation"] = max(it.oracle_deviation for it in iterations)
    return out


def rss_steps(iteration: TraceIteration) -> List[Tuple[str, float]]:
    """How far ``ru_maxrss`` rose inside each span name (leaf spans only)."""
    parents = {s["parent"] for s in iteration.spans}
    steps: Dict[str, float] = Counter()
    for s in iteration.spans:
        if s["id"] not in parents:
            steps[s["name"]] += s["rss_end_mb"] - s["rss_start_mb"]
    return sorted(steps.items(), key=lambda kv: -kv[1])
