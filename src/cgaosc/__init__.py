"""Exact differential-operator realizations of centrally extended
conformal Galilei algebras, their invariant operators, and the discrete
spectrum of the associated oscillator Hamiltonians.
"""

from .scalars import CScalar, HalfInt, Rational, check_half_odd
from .weyl import (Chart, NonHomogeneous, Substitution, WeylOp, conjugate,
                   degree_of, free_to_osc_substitution)
from .funcspace import GaussFunc, apply_op
from .realizations import (AlgebraElement, StructureTable, extract_structure,
                           free_generators, osc_generators)
from .enlarged import (EnlargedBasis, build_enlarged, check_jacobi,
                       closure_tables, duality_report)
from .onshell import (OnShellCertificate, certify_onshell, cross_relations,
                      offshell_centralizer, omega0_free, omega0_osc,
                      omega1_free, omega1_osc, solve_omega1)
# The functions spectrum() and transform() are not re-exported: their
# names would shadow the submodules cgaosc.spectrum and cgaosc.transform.
from .transform import TransformSpec, certify_transform
from .spectrum import (ExactMatrix, SpectrumRecord, hamiltonian,
                       harmonic_reduction, ladder_relations, ladder_state,
                       matrix_oracle, to_m_form, vacuum, vacuum_energy)

__all__ = [
    "AlgebraElement", "CScalar", "Chart", "EnlargedBasis", "ExactMatrix",
    "GaussFunc", "HalfInt", "NonHomogeneous", "OnShellCertificate", "Rational",
    "SpectrumRecord", "StructureTable", "Substitution", "TransformSpec",
    "WeylOp", "apply_op", "build_enlarged", "certify_onshell",
    "certify_transform", "check_half_odd", "check_jacobi", "closure_tables",
    "conjugate", "cross_relations", "degree_of", "duality_report",
    "extract_structure", "free_generators", "free_to_osc_substitution",
    "hamiltonian", "harmonic_reduction", "ladder_relations", "ladder_state",
    "matrix_oracle", "offshell_centralizer", "omega0_free", "omega0_osc",
    "omega1_free", "omega1_osc", "osc_generators", "solve_omega1", "to_m_form",
    "vacuum", "vacuum_energy",
]

__version__ = "0.1.0"
