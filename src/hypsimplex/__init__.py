"""Realizability and angle solving for a family of hyperbolic simplices.

The package decides, for a pair of integer parameters, whether a
one-parameter family of simplices bounded by identified faces can be
realized in hyperbolic space with every vertex lying beyond the absolute,
and solves the two nonlinear edge conditions that pin down the four
dihedral angles.  Solutions are verified from closed forms of the
bilinear form: the sign of its determinant, the vertex minors, the signs of
the Gram cofactors, and the edge lengths.

Importing the package loads no module: each public name is resolved from
its defining module on first access, so code that only classifies pairs
loads neither the solver nor numpy.
"""

__version__ = "0.1.0"

# Name -> defining module, for every public name, resolved on first access.
_LAZY = {
    **dict.fromkeys((
        "AmbiguousSignature",
        "DomainError",
        "HypsimplexError",
        "InvalidClass",
        "InvalidParams",
        "NoContraction",
        "SingularMatrix",
    ), "errors"),
    **dict.fromkeys((
        "DihedralAngles",
        "RealizationClass",
        "Signature",
        "SimplexParams",
        "VertexClass",
        "build_coxeter_schlafli",
        "classify_realization",
        "classify_vertex",
        "gram_sign_check",
        "normalize_params",
    ), "model"),
    **dict.fromkeys((
        "AngleSlice",
        "DomainBox",
        "compute_bmax",
        "corner_value",
        "domain_for",
        "edge_condition1",
        "edge_condition1_deriv",
        "edge_condition2",
        "edge_condition2_deriv",
        "realizability_inequality",
        "vertex_minor0",
        "vertex_minor1",
    ), "conditions"),
    **dict.fromkeys((
        "ContractionEstimate",
        "GridRoot",
        "PropernessReport",
        "SolveReport",
        "SolveStatus",
        "SolverConfig",
        "check_properness",
        "contraction_map",
        "estimate_contraction",
        "grid_oracle",
        "solve",
    ), "solver"),
    **dict.fromkeys((
        "MinorSpec",
        "SymMatrix4",
        "determinant",
        "inverse",
        "jacobi_minor_identity",
        "minor",
        "projective_distance",
        "signature",
    ), "matrices"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [*_LAZY, "__version__"]
