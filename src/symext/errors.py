"""Exception types shared across the toolkit."""


class SymextError(Exception):
    """Base class for toolkit errors."""


class DomainViolation(SymextError):
    """Vector is not in the operator's domain."""


class NotInvertible(SymextError):
    """Operator has a nontrivial kernel."""


class RealPoint(SymextError):
    """Spectral parameter is (numerically) on the real axis."""


class ParameterShapeViolation(SymextError):
    """Contraction parameter does not map the defect space at z into the one at zbar."""


class NotAdmissible(SymextError):
    """Parameter fails the fixed-point admissibility test.

    Carries a unit kernel witness in ``witness`` when one exists.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExpandingParameter(SymextError, ValueError):
    """Contraction parameter has a singular value above 1 + ``TOL.expanding``.

    Also a ValueError, the type this gate raised before it was typed.
    """


class NotAnExtension(SymextError):
    """Candidate operator does not extend the base operator."""


class NotInvertibleBase(SymextError):
    """Base operator of a construction must be injective but is not."""


class ChoiceExhausted(SymextError):
    """Deterministic retry budget for a constructive choice ran out."""


class SpectrumHit(SymextError):
    """Resolvent requested at (or too close to) an eigenvalue."""


class ProjectionDegenerate(SymextError):
    """Projection onto the original space is not injective where it must be."""


class ResolventSingular(SymextError):
    """Extension minus the spectral parameter is not invertible."""


class InsufficientSamples(SymextError):
    """Not enough radii or samples for a limit estimate."""


class SpecInfeasible(SymextError):
    """Requested instance parameters cannot be realized."""
