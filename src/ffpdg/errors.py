"""Exception types shared across the pipeline."""


class FfpdgError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FfpdgError):
    """Schema declaration or schema/data mismatch problems."""


class DataError(FfpdgError):
    """Invalid values, unparseable cells, violated preconditions."""


class FeasibilityError(FfpdgError):
    """Constraint targets outside the reachable set of the support."""


class ConvergenceError(FfpdgError):
    """Iterative solve terminated without meeting its tolerance.

    Carries the partial solution (with its residual) in ``solution``.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class StageError(FfpdgError):
    """Failure inside one stage of the generation pipeline, tagged by stage."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause
