"""Sweep harness: cell pipeline, serialization determinism, reference diffs."""

import json
import multiprocessing
import os
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from fermap import bench
from fermap.bench import (
    CSV_COLUMNS,
    ReferenceRow,
    SweepConfig,
    basis_label,
    compare_reference,
    SweepRow,
    diff_report_text,
    load_known,
    load_reference,
    run_cell,
    run_sweep,
    rows_to_csv,
    rows_to_json,
)
from fermap.cli import main as cli_main
from fermap.eri import packed_length


def small_config(**overrides):
    base = dict(
        dimension=1,
        sizes=(2, 4),
        exponents=(8.75,),
        cutoff=1e-7,
        rotation="aos",
        mappings=("jw", "ose"),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(dimension=4)
    with pytest.raises(ValueError):
        small_config(sizes=())
    with pytest.raises(ValueError):
        small_config(exponents=())
    with pytest.raises(ValueError):
        small_config(rotation="qr")
    with pytest.raises(ValueError):
        small_config(mappings=("bravyi",))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cutoff must be non-negative and finite"):
            small_config(cutoff=bad)
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            small_config(exponents=(bad,))
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            small_config(spacing=bad)


def test_basis_label_formatting():
    assert basis_label(8.75) == "8.75"
    assert basis_label(1.0) == "1.00"
    # two decimals would give 8.754 the 8.75 table and 0.001 the label 0.00
    assert basis_label(8.754) == "8.754"
    assert basis_label(0.001) == "0.001"


def test_run_cell_matches_reference_row():
    row = run_cell(1, 4, 8.75, cutoff=1e-7, rotation="aos", mappings=("jw", "ose"))
    assert row.size == 4
    assert row.jw_qubits == 8
    assert row.bksf_qubits == 6
    assert row.jw_total_weight == 88
    assert row.bksf_total_weight == 92
    assert row.error is None


def test_run_cell_counts_atoms_not_side_length():
    row = run_cell(2, 2, 8.75, cutoff=1e-7, rotation="aos", mappings=("jw",))
    assert row.size == 4  # 2x2 lattice


def test_run_sweep_deterministic_csv():
    cfg = small_config()
    a = rows_to_csv(run_sweep(cfg))
    b = rows_to_csv(run_sweep(cfg))
    assert a == b
    header = a.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


# d1 sides 16 and 17 sit on either side of the bound: 16 orbitals run in the
# caller and 17 in a worker, each in a few ms
INLINE_SIDE, POOLED_SIDE = 16, 17


class InProcessPool:
    """Stands in for ProcessPoolExecutor: runs each submitted call at once
    and records the worker count asked for and the submitted keys."""

    asked: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *key):
        self.submitted.append(key)
        future = Future()
        future.set_result(fn(*key))
        return future


@pytest.fixture
def in_process_pool(monkeypatch):
    monkeypatch.setattr(InProcessPool, "asked", [])
    monkeypatch.setattr(InProcessPool, "submitted", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return InProcessPool


def test_run_sweep_parallel_matches_serial():
    cfg = small_config(sizes=(INLINE_SIDE, POOLED_SIDE))
    serial = rows_to_csv(run_sweep(cfg))
    parallel = rows_to_csv(run_sweep(small_config(sizes=cfg.sizes, jobs=2)))
    assert serial == parallel


def test_run_sweep_starts_no_pool_for_cells_within_the_bound(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    rows = run_sweep(small_config(sizes=(2, INLINE_SIDE), jobs=2))
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(small_config(sizes=(2, INLINE_SIDE))))
    assert all(r.error is None for r in rows)


def test_run_sweep_pools_only_the_cells_above_the_bound(in_process_pool):
    sizes, exponents = (2, POOLED_SIDE, INLINE_SIDE, POOLED_SIDE + 1), (8.75, 7.0)
    rows = run_sweep(small_config(sizes=sizes, exponents=exponents, jobs=2))
    assert [key[1:3] for key in in_process_pool.submitted] == [
        (size, e) for e in exponents for size in (POOLED_SIDE, POOLED_SIDE + 1)
    ]
    assert in_process_pool.asked == [2]
    serial = run_sweep(small_config(sizes=sizes, exponents=exponents))
    assert rows_to_csv(rows) == rows_to_csv(serial)


def test_run_sweep_starts_no_more_workers_than_cells(in_process_pool):
    # a forked pool starts all max_workers processes at the first submit
    run_sweep(small_config(sizes=(2, INLINE_SIDE, POOLED_SIDE), jobs=64))
    run_sweep(small_config(sizes=(POOLED_SIDE, POOLED_SIDE + 1, POOLED_SIDE + 2), jobs=2))
    assert in_process_pool.asked == [1, 2]


def _needs_fork():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched cell reaches the workers only when they are forked")


# Stand-ins for ``bench.run_cell`` in forked workers.  The pool pickles the
# function it is given by name, so each is defined at module level.


def crash_on_the_pooled_side(dimension, size, *rest):
    """``run_cell``, but the process running a ``POOLED_SIDE`` cell dies."""
    if size == POOLED_SIDE:
        os._exit(1)
    return run_cell(dimension, size, *rest)


def _error_row(dimension, size, exponent, value):
    row = SweepRow(dimension, basis_label(exponent), size**dimension)
    row.error = str(value)
    return row


def report_the_pid(dimension, size, exponent, *rest):
    """A row whose error is the id of the process that ran the cell."""
    return _error_row(dimension, size, exponent, os.getpid())


def report_the_blas_threads(dimension, size, exponent, *rest):
    """A row whose error is the BLAS thread count of the process that ran the cell."""
    threads = bench._openblas("scipy_openblas_get_num_threads64_")()
    return _error_row(dimension, size, exponent, threads)


def test_run_sweep_survives_a_dead_worker(monkeypatch):
    _needs_fork()
    # the crashing side must be one that run_sweep sends to a worker: in the
    # caller it would end the test process
    assert INLINE_SIDE <= bench.POOL_ORBITALS < POOLED_SIDE
    monkeypatch.setattr(bench, "run_cell", crash_on_the_pooled_side)
    sizes = (2, INLINE_SIDE, POOLED_SIDE, POOLED_SIDE + 1)
    rows = run_sweep(small_config(sizes=sizes, jobs=2))
    assert [r.size for r in rows] == list(sizes)
    assert rows[2].error.startswith("BrokenProcessPool: ")
    # the caller's cells are complete; pooled cells the broken pool had not
    # finished are error rows too, and none is lost
    assert rows_to_csv(rows[:2]) == rows_to_csv(run_sweep(small_config(sizes=sizes[:2])))
    assert rows[3].error is None or rows[3].error.startswith("BrokenProcessPool: ")


def test_run_sweep_runs_a_lone_large_cell_in_a_worker(monkeypatch):
    _needs_fork()
    monkeypatch.setattr(bench, "run_cell", report_the_pid)
    rows = run_sweep(small_config(sizes=(POOLED_SIDE,), jobs=2))
    assert rows[0].error != str(os.getpid())
    assert run_sweep(small_config(sizes=(POOLED_SIDE,)))[0].error == str(os.getpid())


def test_sweep_workers_share_the_cores_as_blas_threads(monkeypatch):
    _needs_fork()
    get = bench._openblas("scipy_openblas_get_num_threads64_")
    if get is None:
        pytest.skip("numpy bundles no scipy-openblas")
    monkeypatch.setattr(bench, "run_cell", report_the_blas_threads)
    before = get()
    rows = run_sweep(small_config(sizes=(POOLED_SIDE, POOLED_SIDE + 1), jobs=2))
    assert [r.error for r in rows] == [str(max(1, os.cpu_count() // 2))] * 2
    assert get() == before  # restored


SEED_OUTPUTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "seed_outputs.json").read_text()
)
SMALL_CELLS = [(1, side, e) for side in (2, 4, 6, 8, 10) for e in (8.75, 7.0, 5.0, 3.0, 1.0)] + [
    (dim, 2, e) for dim in (2, 3) for e in (8.75, 7.0, 5.0, 3.0, 1.0)
]
SIDE_4_CELLS = [(2, 4, 1.0), (3, 4, 8.75)]  # the dense-2d and sparse-3d benchmark cells


@pytest.mark.parametrize("dimension,side,exponent", SMALL_CELLS + SIDE_4_CELLS)
def test_run_cell_matches_seed_outputs(dimension, side, exponent):
    row = run_cell(dimension, side, exponent, cutoff=1e-7)
    key = f"d{dimension} a{basis_label(exponent)} n{side ** dimension}"
    for mapping, rep in (("jw", row.jw_report), ("ose", row.bksf_report)):
        seed = SEED_OUTPUTS[f"{key} {mapping}"]
        for field in ("qubits", "term_count", "total_weight", "max_weight"):
            assert getattr(rep, field) == seed[field], (key, mapping, field)
        for field in ("l1_norm", "l1_norm_no_identity"):
            assert getattr(rep, field) == pytest.approx(seed[field], rel=1e-12, abs=0)


def test_run_cell_side_5_keeps_its_qubits_and_weights():
    # d3 side-5 a8.75, m = 125: the largest cell the screened rotation runs in tier-1
    row = run_cell(3, 5, 8.75)
    assert row.error is None
    assert (row.jw_qubits, row.bksf_qubits) == (250, 600)
    assert (row.jw_total_weight, row.bksf_total_weight) == (76_100, 304_740)


def test_run_cell_side_6_peaks_far_below_one_packed_eri():
    # d3 side-6 a8.75, m = 216: a packed rotated ERI would take 2.2 GB; the
    # rotation hands over 139 980 entries, and the cell's traced peak is
    # about 270 MB, set by the lattice integrals
    tracemalloc.start()
    try:
        row = run_cell(3, 6, 8.75)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.error is None
    assert (row.jw_qubits, row.bksf_qubits) == (432, 1080)
    assert (row.jw_total_weight, row.bksf_total_weight) == (219_744, 942_048)
    assert peak < 0.25 * packed_length(216) * 8


def test_rows_to_json_round_trips():
    rows = run_sweep(small_config(sizes=(2,)))
    decoded = json.loads(rows_to_json(rows))
    assert decoded[0]["size"] == 2
    assert decoded[0]["jw_qubits"] == 4


def test_load_reference_tables():
    ref = load_reference(1, bases=["8.75"])
    keys = {r.key for r in ref}
    assert (1, "8.75", 4) in keys
    lookup = {r.key: r for r in ref}
    assert lookup[(1, "8.75", 10)].bksf_total_weight == 752


def test_compare_reference_perfect_match():
    cfg = small_config()
    rows = run_sweep(cfg)
    ref = load_reference(1, bases=["8.75"])
    ref = [r for r in ref if r.size in (2, 4)]
    diff = compare_reference(rows, ref)
    assert diff.passed
    assert all(d.passed for d in diff.diffs)
    text = diff_report_text(diff)
    assert "PASS" in text


def test_compare_reference_flags_mismatch():
    rows = run_sweep(small_config(sizes=(2,)))
    bad = [
        ReferenceRow(
            dimension=1,
            basis="8.75",
            size=2,
            jw_qubits=4,
            bksf_qubits=2,
            jw_total_weight=999,
            bksf_total_weight=4,
        )
    ]
    diff = compare_reference(rows, bad)
    assert not diff.passed
    assert "FAIL" in diff_report_text(diff)


def test_compare_reference_reports_uncovered_keys():
    rows = run_sweep(small_config(sizes=(2,)))
    ref = [r for r in load_reference(1, bases=["8.75"]) if r.size in (2, 4)]
    diff = compare_reference(rows, ref)
    assert (1, "8.75", 4) in diff.uncovered_reference


def test_bundled_known_discrepancy_is_the_d3_face_diagonal_row():
    (known,) = load_known()
    assert (known.key, known.column) == ((3, "3.00", 8), "BKSF_Qbts")
    assert (known.reference, known.ours) == (24, 48)
    (ref,) = [r for r in load_reference(3, bases=["3.00"]) if r.size == 8]
    assert ref.bksf_qubits == known.reference


def _known_row(**changes):
    """The d3 a3.00 n8 reference row's values with BKSF qubits 48, as the cell gives."""
    (ref,) = [r for r in load_reference(3, bases=["3.00"]) if r.size == 8]
    values = dict(
        jw_qubits=ref.jw_qubits,
        bksf_qubits=48,
        jw_total_weight=ref.jw_total_weight,
        bksf_total_weight=ref.bksf_total_weight,
    )
    values.update(changes)
    return SweepRow(3, "3.00", 8, **values), ref


def test_compare_reference_passes_a_known_row_as_known():
    row, ref = _known_row()
    assert not compare_reference([row], [ref]).passed  # without the known file it fails
    diff = compare_reference([row], [ref], known=load_known())
    assert diff.passed
    text = diff_report_text(diff)
    assert "KNOWN" in text and "BKSF_Qbts 48 vs reference 24" in text


@pytest.mark.parametrize(
    "changes",
    [
        dict(bksf_qubits=40),  # the known value changed
        dict(bksf_qubits=24),  # fixed: the known entry is stale and must go
        dict(jw_qubits=18),  # a column that is not known fails
    ],
)
def test_compare_reference_fails_a_known_row_that_changes(changes):
    row, ref = _known_row(**changes)
    diff = compare_reference([row], [ref], known=load_known())
    assert not diff.passed
    assert "FAIL" in diff_report_text(diff)


def test_compare_cli_shows_the_known_row(capsys):
    code = cli_main(["compare", "--dim", "3", "--sizes", "2", "--exponents", "3.00"])
    out = capsys.readouterr().out
    assert code == 0
    assert "d3 a3.00 n8" in out and "KNOWN" in out and "overall: PASS" in out
