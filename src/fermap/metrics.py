"""Resource metrics, analytic qubit bounds, and scaling probes."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fermion import classify_spatial
from .jw import jw_transform_terms
from .pauli import PauliOperatorSum, coefficient_l1_norm
from .superfast import build_interaction_graph, ose_transform_terms


@dataclass(frozen=True)
class ResourceReport:
    """Per-Hamiltonian resource summary for one mapping."""

    label: str
    qubits: int
    term_count: int
    total_weight: int
    average_weight: float
    max_weight: int
    l1_norm: float
    l1_norm_no_identity: float


def report(s: PauliOperatorSum, label: str) -> ResourceReport:
    weights = s.weights()
    total = int(weights.sum())
    count = len(s)
    return ResourceReport(
        label=label,
        qubits=s.num_qubits,
        term_count=count,
        total_weight=total,
        average_weight=total / count if count else 0.0,
        max_weight=int(weights.max()) if count else 0,
        l1_norm=coefficient_l1_norm(s, include_identity=True),
        l1_norm_no_identity=coefficient_l1_norm(s, include_identity=False),
    )


def qubit_bounds(
    orbitals_per_atom: Sequence[int], total_spatial: int
) -> Tuple[int, int, int]:
    """(Q_L, Q_U, Q_JW) for an atom-centered basis with the given per-atom
    spatial orbital counts: Q_L counts within-atom edges only, Q_U assumes a
    complete graph per spin sector, Q_JW is one qubit per spin orbital."""
    if sum(orbitals_per_atom) != total_spatial:
        raise ValueError("per-atom orbital counts must sum to the total")
    q_l = 2 * sum(comb(m_a, 2) for m_a in orbitals_per_atom)
    q_u = 2 * comb(total_spatial, 2)
    q_jw = 2 * total_spatial
    return q_l, q_u, q_jw


def lattice_scaling(dimension: int, n: int) -> Tuple[int, int]:
    """Predicted (Q_JW, Q_encoded) for a tight-basis nearest-neighbor lattice
    of side n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if dimension == 1:
        return 2 * n, 2 * (n - 1)
    if dimension == 2:
        return 2 * n * n, 4 * (n * n - n)
    if dimension == 3:
        return 2 * n**3, 6 * (n**3 - n**2)
    raise ValueError("dimension must be 1, 2 or 3")


def complete_graph_probe(num_modes: int) -> Dict[str, int]:
    """Observed qubit-Hamiltonian weights for a synthetic all-ones fermionic
    Hamiltonian whose interaction graph is complete in each spin sector.

    Both mappings are reported: the encoded (edge/vertex) transform and the
    direct mode-per-qubit transform of the same synthetic Hamiltonian.
    """
    if num_modes % 2 or num_modes < 4:
        raise ValueError("num_modes must be an even integer >= 4")
    m = num_modes // 2
    h1 = np.ones((m, m))
    eri = np.ones((m, m, m, m))
    terms = classify_spatial(h1, eri, cutoff=0.0)
    graph = build_interaction_graph(terms, num_modes)
    encoded = report(
        ose_transform_terms(terms, graph), f"encoded-complete-M{num_modes}"
    )
    direct = report(
        jw_transform_terms(terms, num_modes), f"jw-complete-M{num_modes}"
    )
    return {
        "num_modes": num_modes,
        "qubits": encoded.qubits,
        "total_weight": encoded.total_weight,
        "max_weight": encoded.max_weight,
        "term_count": encoded.term_count,
        "jw_total_weight": direct.total_weight,
        "jw_max_weight": direct.max_weight,
    }


def probe_scaling(
    mode_counts: Sequence[int],
) -> Tuple[List[Dict[str, int]], Dict[str, float]]:
    """Run the complete-graph probe over several sizes and fit (a) a linear
    model to the encoded max weight (R^2 of the fit) and (b) the log-log
    slope of each mapping's total weight against the mode count."""
    samples = [complete_graph_probe(m) for m in mode_counts]
    ms = np.array([s["num_modes"] for s in samples], dtype=float)
    maxw = np.array([s["max_weight"] for s in samples], dtype=float)
    coef = np.polyfit(ms, maxw, 1)
    resid = maxw - np.polyval(coef, ms)
    ss_tot = np.sum((maxw - maxw.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2)) / float(ss_tot) if ss_tot > 0 else 1.0

    def slope(field: str) -> float:
        y = np.array([s[field] for s in samples], dtype=float)
        return float(np.polyfit(np.log(ms), np.log(y), 1)[0])

    fits = {
        "max_weight_r2": float(r2),
        "total_weight_slope": slope("total_weight"),
        "jw_total_weight_slope": slope("jw_total_weight"),
    }
    return samples, fits
