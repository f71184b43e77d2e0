"""Exception and warning types shared across the package."""


class DcheunError(Exception):
    """Base class for all package-specific errors."""


class PoleError(DcheunError):
    """Evaluation requested exactly at a pole (e.g. gamma at 0, -1, -2, ...)."""


class BranchError(DcheunError):
    """Argument lies outside the principal branch / at a branch point."""


class DomainError(DcheunError):
    """Point outside the validity domain of the operation."""


class NotDegenerate(DcheunError):
    """Reduction requested for parameters that are not degenerate."""


class GenerationError(DcheunError):
    """Three-term recurrence cannot be advanced (vanishing leading coefficient)."""


class CFBreakdownError(DcheunError):
    """Continued-fraction evaluation broke down despite tiny-value rescue."""


class NoConvergence(DcheunError):
    """An iteration did not converge: a root search (try a different start
    point), a series or an integral that no evaluation route could finish."""


class DenominatorError(DcheunError):
    """A fractional recurrence coefficient has a vanishing denominator.

    The message suggests a remedy (sign rule or switching the companion
    solution pair) where one exists.
    """


class QuadratureError(DcheunError):
    """Quadrature did not converge, or its integrand does not decay."""


class ConditionError(DcheunError):
    """A validity precondition (half-plane / real-part condition) is violated."""


class MatchFailure(DcheunError):
    """Piecewise eigenfunction members do not match at the joining point."""


class NotQes(DcheunError):
    """Algebraic spectrum requested for a non-quasi-solvable parameter set."""


class NoRoots(DcheunError):
    """No characteristic-equation roots found in the requested bracket."""


class DegenerateError(DcheunError):
    """Potential parameters do not produce a genuine two-point confluent problem."""


class SectorWarning(UserWarning):
    """Evaluation point lies outside the uniqueness sector of the series."""


class TheoremViolation(UserWarning):
    """Positivity hypothesis of the real-distinct-eigenvalue theorem fails."""
