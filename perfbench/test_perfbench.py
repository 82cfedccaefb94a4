"""Self-tests of the benchmark harness; each runs in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from fermap.bench import SweepConfig, SweepRow, load_reference, run_cell  # noqa: E402

TINY_CELLS = harness.Workload("tiny-cells", cells=(harness.Cell(2, 2, 8.75), harness.Cell(3, 2, 8.75)))
TINY_SWEEP = harness.Workload(
    "tiny-sweep",
    sweeps=(SweepConfig(1, (2, 4), (8.75,), cutoff=harness.CUTOFF, jobs=2),),
    oracle_cases=(harness.OracleCase(harness.Cell(1, 2, 8.75), 1e-9),),
    random_oracle_cases=2,
    fcidump_orbitals=3,
)


@pytest.mark.parametrize("workload", [TINY_CELLS, TINY_SWEEP], ids=lambda w: w.name)
def test_untraced_pass_smoke(workload):
    inputs = harness.make_inputs(workload, seed=0)
    checks = harness.Checks()
    result = harness.run_pass(workload, inputs)
    harness.check_pass(result, inputs, checks)
    assert checks.failures == []
    cells = len(workload.all_cells)
    oracle_ops = len(workload.oracle_cases) + workload.random_oracle_cases
    assert checks.attempted == cells + oracle_ops + (1 if workload.fcidump_orbitals else 0)
    assert result.seconds > 0


@pytest.mark.parametrize("workload", [TINY_CELLS, TINY_SWEEP], ids=lambda w: w.name)
def test_traced_iteration_reports_every_layer(workload):
    inputs = harness.make_inputs(workload, seed=0)
    checks = harness.Checks()
    tracer = harness.Tracer("test")
    its = [harness.trace_iteration(workload, inputs, tracer, checks, traced_first=f) for f in (True, False)]
    assert checks.failures == []
    metrics = harness.layer_metrics(its, checks)
    expected = set(harness.PER_LAYER)
    if workload.sweeps:
        expected |= set(harness.PER_LAYER_SMALL_CELLS)
    assert set(metrics) == expected
    assert metrics["fermion.terms"] == sum(metrics[f"fermion.terms.{k}"] for k in harness.TERM_KINDS)
    assert {s["run"] for s in tracer.spans} == {"test"}


def test_span_self_times_are_within_parent():
    inputs = harness.make_inputs(TINY_SWEEP, seed=0)
    tracer = harness.Tracer("test")
    harness.trace_iteration(TINY_SWEEP, inputs, tracer, harness.Checks(), traced_first=True)
    spans = tracer.spans
    for span, own in zip(spans, harness.self_times(spans)):
        assert own >= -1e-12, span["name"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert own <= parent["end"] - parent["start"] + 1e-12, span["name"]


def _reference(dimension, basis):
    return load_reference(dimension, [basis])


def test_injected_error_row_counts_as_failure():
    checks = harness.Checks()
    harness.check_rows([SweepRow(1, "8.75", 2, error="RuntimeError: injected")], _reference(1, "8.75"), checks)
    assert (checks.attempted, checks.failed) == (1, 1)
    assert "injected" in checks.failures[0]


def test_wrong_expected_value_counts_as_failure():
    row = run_cell(1, 2, 8.75, cutoff=harness.CUTOFF)
    good = _reference(1, "8.75")
    bad = [dataclasses.replace(r, jw_qubits=r.jw_qubits + 1) for r in good]
    checks = harness.Checks()
    harness.check_rows([row], good, checks)
    harness.check_rows([row], bad, checks)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_row_without_reference_counts_as_failure():
    checks = harness.Checks()
    harness.check_rows([run_cell(1, 2, 8.75, cutoff=harness.CUTOFF)], [], checks)
    assert checks.failed == 1


def test_known_row_is_listed_not_failed():
    (ref,) = [r for r in _reference(3, "3.00") if r.size == 8]
    values = dict(
        jw_qubits=ref.jw_qubits,
        jw_total_weight=ref.jw_total_weight,
        bksf_total_weight=ref.bksf_total_weight,
    )
    checks = harness.Checks()
    harness.check_rows([SweepRow(3, "3.00", 8, bksf_qubits=48, **values)], [ref], checks)
    assert checks.failed == 0 and list(checks.known) == ["d3 a3.00 n8"]
    # any other deviation on the same row still fails
    harness.check_rows([SweepRow(3, "3.00", 8, bksf_qubits=47, **values)], [ref], checks)
    values["jw_qubits"] += 2
    harness.check_rows([SweepRow(3, "3.00", 8, bksf_qubits=48, **values)], [ref], checks)
    assert checks.failed == 2


def test_oracle_deviation_and_exception_count_as_failures():
    case = harness.OracleInput("case", None, None, 1e-9)
    checks = harness.Checks()
    harness.check_oracle([(case, 1e-12), (case, 1e-9), (case, ValueError("boom"))], checks)
    assert (checks.attempted, checks.failed) == (3, 2)


def test_seed_drives_only_the_random_inputs():
    a = harness.make_inputs(TINY_SWEEP, seed=1)
    b = harness.make_inputs(TINY_SWEEP, seed=1)
    c = harness.make_inputs(TINY_SWEEP, seed=2)
    assert a.fcidump_text == b.fcidump_text != c.fcidump_text
    assert [o.label for o in a.oracle] == [o.label for o in b.oracle] != [o.label for o in c.oracle]
    assert a.reference == c.reference


def test_seed_outputs_cover_every_cell():
    recorded = json.loads(harness.SEED_OUTPUTS.read_text(encoding="utf-8"))
    for workload in harness.WORKLOADS.values():
        for cell in workload.all_cells:
            assert f"{cell.label} jw" in recorded and f"{cell.label} ose" in recorded


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-2d", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
