"""Exception hierarchy shared across the package."""


class PtboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PtboundError):
    """Coordinate outside the open domain of a potential."""


class AdmissibilityError(PtboundError):
    """Polynomial parameters violate the admissibility window."""


class SingularParameterError(PtboundError):
    """A recursion denominator or Gamma argument hit a pole."""


class TraValidityError(PtboundError):
    """Energy or potential parameters outside the series-solution window, or
    a series that leaves the floating-point range where it is sampled."""


class NonSymmetricError(PtboundError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class SolverError(PtboundError):
    """Eigensolver failed to converge or to extract requested values."""
