"""Exception types shared across the package."""


class HypsimplexError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(HypsimplexError):
    """Matrix determinant is below the singularity threshold."""


class DomainError(HypsimplexError):
    """A distance-formula argument left its valid range; the configuration
    is not realizable in the requested geometry."""


class InvalidParams(HypsimplexError):
    """Integer parameters outside the admissible range."""


class InvalidClass(HypsimplexError):
    """Operation not defined for this realization class."""


class AmbiguousSignature(HypsimplexError):
    """A vertex submatrix signature matches none of the known vertex types."""


class NoContraction(HypsimplexError):
    """The damped iteration map is not provably contractive on the given
    box."""
