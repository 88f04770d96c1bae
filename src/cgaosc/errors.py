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
        super().__init__(f"bracket {pair} leaves the span; residual has "
                         f"{len(residual.terms)} terms")


class GradingViolation(CgaError):
    pass


class JacobiFailure(CgaError):
    def __init__(self, triple, residual, structure):
        self.triple = triple
        self.residual = residual
        super().__init__(f"{structure} Jacobi fails on {triple}; "
                         f"residual {residual!r}")


class NoSolution(CgaError):
    pass


class NonUniqueSolution(CgaError):
    pass


class NonLaurentSolution(CgaError):
    pass


class NotProportional(CgaError):
    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(f"on-shell certificate fails for {label}")


class Mismatch(CgaError):
    def __init__(self, label, residual):
        self.label = label
        self.residual = residual
        super().__init__(f"mismatch at {label}")


class NotTriangular(CgaError):
    pass


class DiagonalDependsOnC(CgaError):
    pass


class NormalizationUnavailable(InputError):
    pass


class Inconsistent(CgaError):
    pass
