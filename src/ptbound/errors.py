"""Exception hierarchy shared across the package."""


class PtboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PtboundError):
    """Coordinate outside the open domain of a potential."""


class TraValidityError(PtboundError):
    """Energy or potential parameters outside the series-solution window,
    a pole of the series recursion, or a series that leaves the
    floating-point range where it is sampled."""


class SolverError(PtboundError):
    """Eigensolver input that is not finite or not symmetric, or a solve
    that failed to converge or to extract the requested values."""
