"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constructor or operation received an out-of-range parameter."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class CollisionError(DomainError):
    """The configuration touches the binary-collision set (q1 == q2, i.e. Q1 == 0)."""


class StepFailure(RuntimeError):
    """The implicit solver failed to converge, or the state became non-finite.

    Carries the last residual norm and, when raised inside an integration
    loop, the partial trajectory up to the last good sample.
    """

    def __init__(self, message, residual=float("nan"), trajectory=None):
        super().__init__(message)
        self.residual = residual
        self.trajectory = trajectory


class AccuracyError(RuntimeError):
    """A numerical routine could not certify its accuracy target."""


class SchemaError(ValueError):
    """A run-configuration document failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
