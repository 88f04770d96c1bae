"""Exception types shared across the package."""


class CgaError(Exception):
    """Base class for all package errors."""


class NotMonomial(CgaError):
    pass


class ZeroDivisor(CgaError):
    pass


class InputError(CgaError, ValueError):
    """Input the package cannot work with: a usage error (CLI exit 2),
    never a failed verification."""


class BadEll(InputError):
    pass


class ChartMismatch(CgaError):
    pass


class RelationViolation(CgaError):
    pass


class UnsupportedWeight(CgaError):
    pass


class NotClosed(CgaError):
    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(pair, residual)

    def __str__(self):
        return (f"bracket {self.pair} leaves the span; "
                f"{_residual_preview(self.residual)}")


class GradingViolation(CgaError):
    pass


class LinearlyDependent(CgaError):
    """Realized operators whose rank is below their number."""


class BadTableEntry(CgaError):
    """A structure-table entry out of label order or off the table."""


class JacobiFailure(CgaError):
    def __init__(self, triple, residual, structure):
        self.triple = triple
        self.residual = residual
        self.structure = structure
        super().__init__(triple, residual, structure)

    def __str__(self):
        return (f"{self.structure} Jacobi fails on {self.triple}; "
                f"{_residual_preview(self.residual)}")


class NoSolution(CgaError):
    pass


class NonUniqueSolution(CgaError):
    pass


class NotGraded(CgaError):
    """A linear system entry that is not a single power of c, or whose
    power conflicts with the row and column potentials of the others."""

    def __init__(self, key, column, entry):
        self.key = key
        self.column = column
        self.entry = entry
        super().__init__(key, column, entry)

    def __str__(self):
        return (f"system is not graded: entry {self.entry!r} at row "
                f"{self.key!r}, column {self.column}")


def _residual_preview(residual, limit: int = 3) -> str:
    """Term count and first `limit` sorted terms of a WeylOp, GaussFunc
    or AlgebraElement residual."""
    size = len(residual.sorted_terms())
    noun = "term" if size == 1 else "terms"
    shown = f", first {limit}" if size > limit else ""
    return f"residual ({size} {noun}{shown}): {residual.head(limit)!r}"


class NotProportional(CgaError):
    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(label, residual)

    def __str__(self):
        return (f"on-shell certificate fails for {self.label}; "
                f"{_residual_preview(self.residual)}")


class Mismatch(CgaError):
    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(label, residual)

    def __str__(self):
        return f"mismatch at {self.label}; {_residual_preview(self.residual)}"


class NotTriangular(CgaError):
    pass


class DiagonalDependsOnC(CgaError):
    pass


class NormalizationUnavailable(InputError):
    pass


class Inconsistent(CgaError):
    pass
