"""Exception taxonomy shared across the package."""


class LevyDetectError(Exception):
    """Base class for all package errors."""


class SpecValidationError(LevyDetectError):
    """A process specification or configuration is malformed."""


class UnsupportedPairError(LevyDetectError):
    """The two specifications cannot be paired by this catalogue."""


class InadmissibleModelError(LevyDetectError):
    """A pre/post pair whose path laws are not mutually absolutely continuous;
    ``violated`` names the failed admissibility condition."""

    def __init__(self, message: str, violated: str):
        super().__init__(message)
        self.violated = violated

    def __reduce__(self):       # pickle rebuilds it from both arguments
        return type(self), (str(self), self.violated)


class AlignmentError(SpecValidationError):
    """A coarse grid is not an integer multiple of the simulation grid."""


class ContractError(LevyDetectError):
    """Detector rule and input type do not match."""


class SupportError(LevyDetectError):
    """A point lies outside the common support of the jump measures."""


class NumericalError(LevyDetectError):
    """A quadrature or estimator failed to converge."""


class DegenerateRuleError(NumericalError):
    """The monitored rule never accumulates mass in the ratio denominator."""


class InfeasibleTargetError(LevyDetectError):
    """The requested false-alarm budget is below one monitoring step."""


class SampleSizeError(LevyDetectError):
    """A run's replications do not fit in memory, or are too few (under
    two) for an estimator's standard error; ``purpose`` names the streams
    they were to run on (:data:`rng.PURPOSE`)."""

    def __init__(self, message: str, purpose: str):
        super().__init__(message)
        self.purpose = purpose

