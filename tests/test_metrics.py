"""Resource reports, analytic qubit bounds, and the complete-graph probe."""

import numpy as np
import pytest

from fermap.metrics import (
    complete_graph_probe,
    lattice_scaling,
    probe_scaling,
    qubit_bounds,
    report,
)
from fermap.pauli import PauliOperatorSum, PauliTerm


def sample_sum():
    terms = [
        PauliTerm.identity(3, 2.0),
        PauliTerm.from_factors(-1.5, {0: "X", 1: "Z"}, 3),
        PauliTerm.from_factors(0.5, {0: "Y", 1: "Y", 2: "Y"}, 3),
    ]
    return PauliOperatorSum.from_terms(terms, 3)


def test_report_fields():
    r = report(sample_sum(), "sample")
    assert r.label == "sample"
    assert r.qubits == 3
    assert r.term_count == 3
    assert r.total_weight == 5
    assert r.max_weight == 3
    assert r.average_weight == pytest.approx(5 / 3)
    assert r.l1_norm == pytest.approx(4.0)
    assert r.l1_norm_no_identity == pytest.approx(2.0)


def test_qubit_bounds_examples():
    # five heavy atoms with 9 orbitals each plus hydrogens reproduce the
    # published silane/SiO-style bounds
    assert qubit_bounds([9, 1, 1, 1, 1], 13) == (72, 156, 26)
    assert qubit_bounds([9, 5], 14) == (92, 182, 28)
    assert qubit_bounds([1], 1) == (0, 0, 2)
    assert qubit_bounds([2, 2], 4) == (4, 12, 8)
    with pytest.raises(ValueError):
        qubit_bounds([1, 1], 3)


def test_lattice_scaling_formulas():
    assert lattice_scaling(1, 5) == (10, 8)
    assert lattice_scaling(2, 3) == (18, 24)
    assert lattice_scaling(3, 2) == (16, 24)
    with pytest.raises(ValueError):
        lattice_scaling(4, 2)
    with pytest.raises(ValueError):
        lattice_scaling(1, 1)


def test_probe_qubits_match_complete_graph_count():
    # for the all-ones synthetic Hamiltonian each spin sector is a complete
    # graph on m modes, so the register holds 2*C(m,2) edge qubits
    for num_modes in (4, 6, 8):
        probe = complete_graph_probe(num_modes)
        m = num_modes // 2
        assert probe["qubits"] == 2 * (m * (m - 1) // 2)
        assert probe["jw_max_weight"] <= num_modes
        assert probe["max_weight"] <= probe["qubits"]
        assert probe["total_weight"] > 0


def test_probe_rejects_bad_sizes():
    with pytest.raises(ValueError):
        complete_graph_probe(5)
    with pytest.raises(ValueError):
        complete_graph_probe(2)


def test_probe_scaling_fit_quality():
    samples, fits = probe_scaling([4, 6, 8, 10])
    assert len(samples) == 4
    assert 0.0 <= fits["max_weight_r2"] <= 1.0
    assert fits["jw_total_weight_slope"] > 3.0
    assert fits["total_weight_slope"] > 3.0


def test_probe_max_weight_grows_linearly_on_small_sizes():
    maxw = [complete_graph_probe(m)["max_weight"] for m in (6, 8, 10)]
    diffs = np.diff(maxw)
    assert np.all(diffs > 0)
    # near-constant increments indicate the linear trend
    assert abs(diffs[0] - diffs[1]) <= 2
