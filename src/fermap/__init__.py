"""fermap: fermion-to-qubit mapping resource estimation.

Transforms second-quantized electronic-structure Hamiltonians to qubit
Hamiltonians under the Jordan-Wigner and superfast (edge/vertex) encodings
and computes qubit counts, tensor weights and coefficient L1 norms.
"""

from .bench import (
    ReferenceRow,
    SweepConfig,
    SweepRow,
    compare_reference,
    load_reference,
    run_cell,
    run_sweep,
)
from .fermion import (
    ClassifiedTerm,
    FermionHamiltonian,
    Kind,
    apply_cutoff,
    classify,
    classify_spatial,
    from_spatial_integrals,
)
from .fcidump import IntegralFile
from .jw import jw_ladder, jw_transform, jw_transform_terms
from .lattice import LatticeSpec, RawIntegrals, boys_f0, build_lattice, compute_integrals
from .metrics import ResourceReport, lattice_scaling, qubit_bounds, report
from .ortho import canonical_orthogonalizer, rotate_integrals, symmetric_orthogonalizer
from .pauli import (
    NonHermitianError,
    PauliOperatorSum,
    PauliTerm,
    coefficient_l1_norm,
    multiply,
    simplify,
)
from .superfast import (
    InteractionGraph,
    add_parity_ancilla,
    build_interaction_graph,
    edge_operator,
    loop_stabilizers,
    ose_transform_terms,
    vertex_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
