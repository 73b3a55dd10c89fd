"""Realizability and angle solving for a family of hyperbolic simplices.

The package decides, for a pair of integer parameters, whether a
one-parameter family of simplices bounded by identified faces can be
realized in hyperbolic space with every vertex lying beyond the absolute,
and solves the two nonlinear edge conditions that pin down the four
dihedral angles.  Solutions are verified from closed forms of the
bilinear form: the sign of its determinant, the vertex minors, the signs of
the Gram cofactors, and the edge lengths.
"""

from .conditions import (
    AngleSlice,
    compute_bmax,
    corner_value,
    edge_condition1,
    edge_condition1_deriv,
    edge_condition2,
    edge_condition2_deriv,
    realizability_inequality,
    vertex_minor0,
    vertex_minor1,
)
from .errors import (
    AmbiguousSignature,
    DomainError,
    HypsimplexError,
    InvalidClass,
    InvalidParams,
    NoContraction,
    SingularMatrix,
)
from .matrices import (
    Geometry,
    MinorSpec,
    Signature,
    SymMatrix4,
    determinant,
    inverse,
    jacobi_minor_identity,
    minor,
    projective_distance,
    signature,
)
from .model import (
    DihedralAngles,
    RealizationClass,
    SimplexParams,
    VertexClass,
    build_coxeter_schlafli,
    classify_realization,
    classify_vertex,
    gram_sign_check,
    normalize_params,
)
from .solver import (
    ContractionEstimate,
    DomainBox,
    GridRoot,
    PropernessReport,
    SolveReport,
    SolveStatus,
    SolverConfig,
    check_properness,
    contraction_map,
    domain_for,
    estimate_contraction,
    grid_oracle,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSignature",
    "AngleSlice",
    "ContractionEstimate",
    "DihedralAngles",
    "DomainBox",
    "DomainError",
    "Geometry",
    "GridRoot",
    "HypsimplexError",
    "InvalidClass",
    "InvalidParams",
    "MinorSpec",
    "NoContraction",
    "PropernessReport",
    "RealizationClass",
    "Signature",
    "SimplexParams",
    "SingularMatrix",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "SymMatrix4",
    "VertexClass",
    "build_coxeter_schlafli",
    "check_properness",
    "classify_realization",
    "classify_vertex",
    "compute_bmax",
    "contraction_map",
    "corner_value",
    "determinant",
    "domain_for",
    "edge_condition1",
    "edge_condition1_deriv",
    "edge_condition2",
    "edge_condition2_deriv",
    "estimate_contraction",
    "grid_oracle",
    "gram_sign_check",
    "inverse",
    "jacobi_minor_identity",
    "minor",
    "normalize_params",
    "projective_distance",
    "realizability_inequality",
    "signature",
    "solve",
    "vertex_minor0",
    "vertex_minor1",
    "__version__",
]
