"""The mapping stage, resource reports, analytic qubit bounds, and the
complete-graph probe."""

import numpy as np
import pytest

from fermap.metrics import (
    complete_graph_probe,
    map_integrals,
    probe_scaling,
    qubit_bounds,
    report,
)
from fermap.pauli import PauliOperatorSum
from test_pauli import pack_masks


def sample_sum():
    # 2 I - 1.5 X0 Z1 + 0.5 Y0 Y1 Y2
    x, z = pack_masks([0, 0b001, 0b111], 3), pack_masks([0, 0b010, 0b111], 3)
    return PauliOperatorSum(x, z, np.array([2.0, -1.5, 0.5], complex), 3)


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


def test_report_does_not_depend_on_the_row_order():
    # a merge may return its rows in any order; the report must not see it
    rng = np.random.default_rng(7)
    n, q = 3000, 130
    x, z = (rng.integers(0, 2**63, (n, 3), dtype=np.uint64) & np.uint64(0x3FF) for _ in range(2))
    x[:5], z[:5] = 0, 0  # identity rows count in one norm only
    c = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, n)
    s = PauliOperatorSum(x, z, c.astype(complex), q)
    expected = report(s, "cell")
    perms = [rng.permutation(n) for _ in range(4)]
    # a plain sum of the permuted magnitudes moves in its last digits
    assert len({float(np.abs(c[p]).sum()) for p in perms}) > 1
    for p in perms:
        assert report(PauliOperatorSum(x[p], z[p], s.coefficients[p], q), "cell") == expected


def test_map_integrals_rejects_an_asymmetric_one_body_matrix():
    # [[0, 1], [0, 0]] is not a Hermitian a_0^ a_1; it must not be mapped as half of one
    eri = np.zeros((2,) * 4)
    with pytest.raises(ValueError, match="symmetric"):
        map_integrals(np.array([[0.0, 1.0], [0.0, 0.0]]), eri, cutoff=0.0, mappings=("jw",))
    reports = map_integrals(np.array([[0.0, 1.0], [1.0, 0.0]]), eri, cutoff=0.0, mappings=("jw",))
    assert reports["jw"].term_count == 4


def test_qubit_bounds_examples():
    # five heavy atoms with 9 orbitals each plus hydrogens reproduce the
    # published silane/SiO-style bounds
    assert qubit_bounds([9, 1, 1, 1, 1], 13) == (72, 156, 26)
    assert qubit_bounds([9, 5], 14) == (92, 182, 28)
    assert qubit_bounds([1], 1) == (0, 0, 2)
    assert qubit_bounds([2, 2], 4) == (4, 12, 8)
    with pytest.raises(ValueError):
        qubit_bounds([1, 1], 3)


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
    for modes in ([4], [6, 6, 6]):  # a fit through one point: refused before any probe runs
        with pytest.raises(ValueError, match="two distinct"):
            probe_scaling(modes)


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
