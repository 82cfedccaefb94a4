"""Sweep harness: cell pipeline, serialization determinism, reference diffs."""

import json
import multiprocessing
import os
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
    diff_report_text,
    load_reference,
    run_cell,
    run_sweep,
    rows_to_csv,
    rows_to_json,
)


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
        small_config(rotation="qr")
    with pytest.raises(ValueError):
        small_config(mappings=("bravyi",))


def test_basis_label_formatting():
    assert basis_label(8.75) == "8.75"
    assert basis_label(1.0) == "1.00"


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


SEED_OUTPUTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "seed_outputs.json").read_text()
)
SMALL_CELLS = [(1, side, e) for side in (2, 4, 6, 8, 10) for e in (8.75, 7.0, 5.0, 3.0, 1.0)] + [
    (dim, 2, e) for dim in (2, 3) for e in (8.75, 7.0, 5.0, 3.0, 1.0)
]


@pytest.mark.parametrize("dimension,side,exponent", SMALL_CELLS)
def test_run_cell_matches_seed_outputs(dimension, side, exponent):
    row = run_cell(dimension, side, exponent, cutoff=1e-7)
    key = f"d{dimension} a{basis_label(exponent)} n{side ** dimension}"
    for mapping, rep in (("jw", row.jw_report), ("ose", row.bksf_report)):
        seed = SEED_OUTPUTS[f"{key} {mapping}"]
        for field in ("qubits", "term_count", "total_weight", "max_weight"):
            assert getattr(rep, field) == seed[field], (key, mapping, field)
        for field in ("l1_norm", "l1_norm_no_identity"):
            assert getattr(rep, field) == pytest.approx(seed[field], rel=1e-12, abs=0)


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
