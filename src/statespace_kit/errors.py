"""Exception hierarchy for the toolkit.

Every domain error raised by the library is a ToolkitError subclass whose
class name is the stable identifier that the CLI serializes into error
reports.  Precondition violations that have no named error use ValueError.
"""


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


# --- matrix kit ---------------------------------------------------------


class NonSquare(ToolkitError):
    pass


class BackendFailure(ToolkitError):
    pass


class NotSymmetric(ToolkitError):
    pass


class Overflow(ToolkitError):
    pass


class WorkBudgetExceeded(ToolkitError):
    """A computation would take more steps than its documented budget."""


class SingularBasis(ToolkitError):
    pass


class IllConditioned(ToolkitError):
    pass


# --- models and linearization -------------------------------------------


class NoConvergence(ToolkitError):
    pass


class SingularJacobian(ToolkitError):
    pass


class StepTooSmall(ToolkitError):
    pass


class TrajectoryResidualTooLarge(ToolkitError):
    pass


class SingularTransform(ToolkitError):
    pass


# --- realizations --------------------------------------------------------


class ImproperTransferFunction(ToolkitError):
    pass


class RepeatedPoles(ToolkitError):
    pass


class RepeatedPoleUnsupported(ToolkitError):
    pass


class RankAmbiguous(ToolkitError):
    pass


# --- transition matrices --------------------------------------------------


class RepeatedEigenvalues(ToolkitError):
    pass


class IllConditionedVandermonde(ToolkitError):
    pass


class NotDiagonalizable(ToolkitError):
    pass


class SingularFundamental(ToolkitError):
    pass


# --- stability ------------------------------------------------------------


class SingularLyapunovOperator(ToolkitError):
    pass


# --- structure ------------------------------------------------------------


class NonSquarePlant(ToolkitError):
    pass


class DegeneratePencil(ToolkitError):
    pass


class SingularGrammian(ToolkitError):
    pass


# --- synthesis --------------------------------------------------------------


class Uncontrollable(ToolkitError):
    pass


class Unobservable(ToolkitError):
    pass


class ConjugacyViolation(ToolkitError):
    pass


class ProjectionFailed(ToolkitError):
    pass


class RankDeficientC(ToolkitError):
    pass


class SubpairUnobservable(ToolkitError):
    pass


class ZeroAtOrigin(ToolkitError):
    pass


class CommonFactor(ToolkitError):
    pass


class SingularSylvester(ToolkitError):
    pass


# --- quadratic regulation ----------------------------------------------------


class FiniteEscape(ToolkitError):
    pass


class RepeatedHamiltonianEigenvalues(ToolkitError):
    pass


class AxisEigenvalue(ToolkitError):
    pass


class NotStabilizable(ToolkitError):
    pass


class NotDetectable(ToolkitError):
    pass


class StableSpaceDefect(ToolkitError):
    pass


# --- boundary-value solvers ---------------------------------------------------


class SingularPsi12(ToolkitError):
    pass


class InvalidHorizon(ToolkitError):
    pass


# --- input handling -------------------------------------------------------


class SchemaError(ToolkitError):
    """Raised when an input file does not conform to the model schema.

    Carries a JSON-pointer style location of the offending field.
    """

    def __init__(self, message, location="/"):
        super().__init__(f"{location}: {message}")
        self.location = location
