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
from .eri import Survivors, pack_eri, unpack_eri
from .fermion import (
    ClassifiedTerm,
    ClassifiedTerms,
    FermionHamiltonian,
    Kind,
    classify_spatial,
    from_spatial_integrals,
    map_terms,
)
from .fcidump import IntegralFile
from .jw import jw_transform_terms
from .lattice import LatticeSpec, RawIntegrals, boys_f0, lattice_integrals
from .metrics import ResourceReport, map_integrals, qubit_bounds, report
from .ortho import (
    canonical_orthogonalizer,
    orthonormal_integrals,
    rotate_integrals,
    symmetric_orthogonalizer,
)
from .pauli import NonHermitianError, PauliOperatorSum, coefficient_l1_norm
from .superfast import (
    InteractionGraph,
    add_parity_ancilla,
    build_interaction_graph,
    loop_stabilizers,
    ose_transform_terms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
