"""Exception hierarchy shared across the package."""


class PtboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PtboundError):
    """Coordinate outside the open domain of a potential."""


class AdmissibilityError(PtboundError):
    """Polynomial parameters violate the admissibility window."""


class SingularParameterError(PtboundError):
    """A recursion denominator or Gamma argument hit a pole."""


class RecursionBreakdownError(PtboundError):
    """Leading coefficient of a three-term recursion step vanished."""


class TraValidityError(PtboundError):
    """Energy or potential parameters outside the series-solution window."""


class NoBranchError(TraValidityError):
    """Potential parameters fall in no series branch window."""


class BranchBoundaryError(TraValidityError):
    """Potential parameters sit exactly on a branch boundary."""


class NonSymmetricError(PtboundError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class SolverError(PtboundError):
    """Eigensolver failed to converge or to extract requested values."""


class ConfigError(PtboundError):
    """Inconsistent grid/stencil configuration."""
