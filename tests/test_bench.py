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


def test_run_sweep_parallel_matches_serial():
    serial = rows_to_csv(run_sweep(small_config(jobs=1)))
    parallel = rows_to_csv(run_sweep(small_config(jobs=2)))
    assert serial == parallel


def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # a forked pool starts all max_workers processes at the first submit
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    rows = run_sweep(small_config(sizes=(2, 4), jobs=64))
    assert asked == [2]
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(small_config(sizes=(2, 4))))
    run_sweep(small_config(sizes=(2, 4, 6), jobs=2))
    assert asked == [2, 2]


def test_run_sweep_survives_a_dead_worker(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched cell reaches the workers only when they are forked")
    real = bench.run_cell

    def crash_on_side_4(dimension, size, *rest):
        if size == 4:
            os._exit(1)
        return real(dimension, size, *rest)

    monkeypatch.setattr(bench, "run_cell", crash_on_side_4)
    rows = run_sweep(small_config(sizes=(2, 4, 6), jobs=2))
    assert [r.size for r in rows] == [2, 4, 6]
    assert rows[1].error.startswith("BrokenProcessPool: ")
    # cells the broken pool had not finished are error rows too; none is lost
    assert all(r.error is None or r.error.startswith("BrokenProcessPool: ") for r in rows)


def test_sweep_workers_share_the_cores_as_blas_threads(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched cell reaches the workers only when they are forked")
    if bench._openblas("scipy_openblas_get_num_threads64_") is None:
        pytest.skip("numpy bundles no scipy-openblas")

    def report_threads(dimension, size, exponent, *rest):
        row = SweepRow(dimension, basis_label(exponent), size**dimension)
        row.error = str(bench._openblas("scipy_openblas_get_num_threads64_")())
        return row

    monkeypatch.setattr(bench, "run_cell", report_threads)
    before = bench._openblas("scipy_openblas_get_num_threads64_")()
    rows = run_sweep(small_config(sizes=(2, 4), jobs=2))
    assert [r.error for r in rows] == [str(max(1, os.cpu_count() // 2))] * 2
    assert bench._openblas("scipy_openblas_get_num_threads64_")() == before  # restored


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
