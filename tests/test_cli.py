"""Command-line entry points exercised through main(argv)."""

import csv
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermap.bench import DATA_DIR_ENV, data_dir, run_cell
from fermap.cli import main
from fermap.fcidump import IntegralFile, dumps
from fermap.lattice import LatticeSpec
from fermap.ortho import orthonormal_integrals
from fermap.sampling import random_spatial_integrals


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_sweep_csv(capsys):
    code, out = run_cli(
        ["sweep", "--dim", "1", "--sizes", "2,4", "--exponents", "8.75"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["JW_Qbts"] == "4"
    assert rows[1]["BKSF_TWt"] == "92"


def test_sweep_json_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.json"
    code, _ = run_cli(
        [
            "sweep", "--dim", "1", "--sizes", "2", "--exponents", "8.75",
            "--format", "json", "--out", str(target),
        ],
        capsys,
    )
    assert code == 0
    decoded = json.loads(target.read_text())
    assert decoded[0]["bksf_qubits"] == 2


def test_transform_json(tmp_path, capsys):
    rng = np.random.default_rng(0)
    h = rng.normal(size=(2, 2))
    h = 0.5 * (h + h.T)
    eri = np.zeros((2,) * 4)
    eri[0, 0, 0, 0] = eri[1, 1, 1, 1] = 0.6
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 0.3
    path = tmp_path / "h2.fcidump"
    path.write_text(dumps(IntegralFile(2, 2, h, eri, constant=0.7)))
    code, out = run_cli(["transform", str(path), "--cutoff", "0"], capsys)
    assert code == 0
    reports = {r["label"]: r for r in json.loads(out)}
    assert reports["jw"]["qubits"] == 4
    assert reports["ose"]["qubits"] >= 1


def test_transform_constant_and_negative_cutoff(tmp_path, capsys):
    h1, eri = random_spatial_integrals(4, np.random.default_rng(1))
    path = tmp_path / "random.fcidump"
    path.write_text(dumps(IntegralFile(4, 4, h1, eri, constant=0.7)))
    code, out = run_cli(["transform", str(path)], capsys)
    assert code == 0
    # both carry the constant in the same identity coefficient, l1_norm - l1_norm_no_identity;
    # on two orbitals they would not, as a single-edge component has B_i B_j = 1
    jw, ose = (r["l1_norm"] - r["l1_norm_no_identity"] for r in json.loads(out))
    assert ose == pytest.approx(jw, rel=1e-12)
    assert main(["transform", str(path), "--cutoff", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("dim,side,exponent", [(1, 4, 1.00), (2, 2, 3.00), (3, 4, 8.75)])
def test_transform_of_a_dumped_cell_matches_the_sweep(dim, side, exponent, tmp_path, capsys):
    # both run the same mapping stage; the file has no constant, as sweep rows leave it out
    h1, eri, _ = orthonormal_integrals(LatticeSpec(dim, side, exponent))
    path = tmp_path / "cell.fcidump"
    path.write_text(dumps(IntegralFile(len(h1), len(h1), h1, eri, constant=0.0)))
    code, out = run_cli(["transform", str(path), "--cutoff", "1e-7"], capsys)
    assert code == 0
    row = run_cell(dim, side, exponent, cutoff=1e-7)
    for mapped, report in zip(json.loads(out), (row.jw_report, row.bksf_report), strict=True):
        # the file holds the integrals bitwise, so even the L1 norms agree exactly
        for field in (
            "qubits", "term_count", "total_weight", "max_weight", "l1_norm", "l1_norm_no_identity",
        ):
            assert mapped[field] == getattr(report, field), field


def test_bounds_listing(capsys):
    code, out = run_cli(["bounds", "--molecules", "sio"], capsys)
    assert code == 0
    assert "92" in out and "182" in out and "28" in out


def test_verify_random_passes(capsys):
    code, out = run_cli(["verify", "--random", "3"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_lattice_with_ancilla(capsys):
    code, out = run_cli(
        [
            "verify", "--dim", "1", "--sizes", "2", "--exponents", "8.75",
            "--ancilla", "--tolerance", "1e-8",
        ],
        capsys,
    )
    assert code == 0
    assert "ok" in out


def test_compare_subcommand(capsys):
    code, out = run_cli(
        ["compare", "--dim", "1", "--sizes", "2,4", "--exponents", "8.75"], capsys
    )
    assert code == 0
    assert "PASS" in out


def test_compare_of_an_exponent_without_a_table_does_not_pass(capsys):
    # 8.754 is no reference exponent: its rows are not diffed against the 8.75 table
    code = main(["compare", "--dim", "1", "--sizes", "2,4", "--exponents", "8.754"])
    captured = capsys.readouterr()
    assert code == 2 and "PASS" not in captured.out
    assert captured.err.startswith("fermap: error: ") and "dim1_basis8.754.csv" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--dim", "2", "--sizes", "4"],
        ["compare", "--dim", "3", "--sizes", "4", "--exponents", "7.00,5.00,3.00"],
    ],
)
def test_compare_passes_on_the_side_4_rows(argv, capsys):
    # with the seed-output test's d3 a8.75 cell, every side-4 row but the --full cell, d3 a1.00
    code, out = run_cli(argv, capsys)
    assert code == 0 and "overall: PASS" in out


def test_compare_reads_the_tables_of_the_data_directory_variable(tmp_path, monkeypatch, capsys):
    # a copy of the bundled data with the JW total weight of d1 a8.75 n2 changed
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    table = copy / "reference" / "dim1_basis8.75.csv"
    rows = list(csv.DictReader(io.StringIO(table.read_text(encoding="utf-8"))))
    assert rows[0]["Size"] == "2"
    rows[0]["JW_TWt"] = str(2 * int(rows[0]["JW_TWt"]))
    with open(table, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    argv = ["compare", "--dim", "1", "--sizes", "2", "--exponents", "8.75"]
    code, out = run_cli(argv, capsys)
    assert code == 0 and "overall: PASS" in out
    monkeypatch.setenv(DATA_DIR_ENV, str(copy))
    code, out = run_cli(argv, capsys)
    assert code == 1 and "overall: FAIL" in out


def test_probe_subcommand(capsys):
    code, out = run_cli(["probe", "--modes", "4,6,8"], capsys)
    assert code == 0
    assert "R^2" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["probe", "--modes", "4"], "two distinct mode counts"),
        (["transform", "missing.fcidump"], "No such file"),
        # verify without a lattice or a random check, and a grid without exponents
        (["verify"], "no check"),
        (["verify", "--dim", "1", "--exponents", ""], "no check"),
        (["sweep", "--exponents", ""], "exponents must be non-empty"),
        (["compare", "--exponents", ""], "exponents must be non-empty"),
        # an empty --sizes is an empty grid, not the default sides
        (["sweep", "--dim", "1", "--sizes", "", "--exponents", "8.75"], "sizes must be positive"),
        (["verify", "--dim", "1", "--sizes", "", "--exponents", "8.75"], "no check"),
        (["compare", "--dim", "1", "--sizes", "", "--exponents", "8.75"], "sizes must be positive"),
        # every cell of a grid is a valid lattice before any cell runs
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "-1"], "exponent must be positive"),
        (["sweep", "--dim", "1", "--sizes", "2", "--spacing", "0"], "spacing must be positive"),
        # non-finite numbers are errors, not an empty row
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "nan"], "exponent must be positive and finite"),
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "inf"], "exponent must be positive and finite"),
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "1.0", "--spacing", "nan"], "spacing must be positive and finite"),
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "1.0", "--cutoff", "nan"], "cutoff must be non-negative and finite"),
        (["sweep", "--dim", "1", "--sizes", "2", "--exponents", "1.0", "--cutoff", "inf"], "cutoff must be non-negative and finite"),
        (["transform", "one.fcidump", "--cutoff", "nan"], "cutoff must be non-negative and finite"),
        # a tolerance that no check can pass is an error before any cell runs
        (["compare", "--dim", "1", "--sizes", "2", "--exponents", "8.75", "--weight-tol", "nan"], "weight-tol must be non-negative and finite"),
        (["compare", "--dim", "1", "--sizes", "2", "--exponents", "8.75", "--weight-tol", "-1"], "weight-tol must be non-negative and finite"),
        (["verify", "--dim", "1", "--sizes", "2", "--exponents", "8.75", "--tolerance", "nan"], "tolerance must be positive and finite"),
        (["verify", "--dim", "1", "--sizes", "2", "--exponents", "8.75", "--tolerance", "0"], "tolerance must be positive and finite"),
    ],
)
def test_bad_input_prints_one_error_line(argv, message, tmp_path, monkeypatch, capsys):
    # a ValueError or OSError from a stage is one message and exit 2, as argparse's own errors
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.fcidump").write_text(dumps(IntegralFile(1, 2, np.ones((1, 1)), np.ones((1,) * 4))))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fermap: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def _transform_under_3_gib(path):
    """``fermap transform`` of ``path`` in a fresh process under a 3 GiB
    address-space limit, which fails a too-large allocation whatever the
    kernel's overcommit policy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        "OPENBLAS_NUM_THREADS": "1",
    }

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, "-m", "fermap.cli", "transform", str(path)],
        env=env, capture_output=True, text=True, preexec_fn=limit_address_space,
    )


def test_an_input_too_large_to_allocate_is_one_error_line(tmp_path):
    # NORB=30000 needs a 7.2 GB one-body matrix
    path = tmp_path / "large.fcidump"
    path.write_text("&FCI NORB=30000,NELEC=2,\n&END\n 1.0 1 1 0 0\n")
    out = _transform_under_3_gib(path)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("fermap: error: Unable to allocate") and out.stderr.count("\n") == 1
    assert "NORB=30000" in out.stderr


def test_a_large_norb_with_one_record_transforms(tmp_path):
    # NORB=2000 has 2e12 packed ERI slots, but the file holds one record: it
    # reads to a 32 MB one-body matrix and no ERI entry
    path = tmp_path / "large.fcidump"
    path.write_text("&FCI NORB=2000,NELEC=2,\n&END\n 1.0 1 1 0 0\n")
    out = _transform_under_3_gib(path)
    assert out.returncode == 0 and out.stderr == ""
    jw = json.loads(out.stdout)[0]
    assert (jw["qubits"], jw["term_count"], jw["total_weight"]) == (4000, 3, 2)


@pytest.mark.parametrize("record", [" nan 1 1 2 2", " inf 1 2 0 0"])
def test_a_non_finite_integral_is_one_error_line(record, tmp_path, capsys):
    # a NaN entry would pass no cutoff test and an infinite one would give an infinite L1 norm
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI NORB=2,NELEC=2,\n&END\n 0.5 1 1 0 0\n{record}\n")
    assert main(["transform", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = float(record.split()[0])
    assert captured.err == f"fermap: error: line 4: integral {value!r} is not finite\n"
