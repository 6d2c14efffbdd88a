"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse errors -> 2, regime errors -> 3,
budget/timeout errors -> 4, invariant failures -> 5.
"""


class SamplerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(SamplerError):
    """The instance violates a structural invariant (e.g. empty constraint)."""


class UnsatisfiableInstanceError(SamplerError):
    """Preprocessing or enumeration proved the instance has no solutions."""


class ParseError(SamplerError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RegimeError(SamplerError):
    """The main theorem's conditions cannot hold: for any marking the
    pipeline can build, or (``ConditionsError``) for the marking given."""


class ConditionsError(RegimeError):
    """e*alpha > 1, so beta and the dependent constants are undefined."""


class BudgetError(SamplerError):
    """A configured cost cap was exceeded (component size, rejection
    attempts, enumeration budget, coalescence horizon)."""


class ConstructionFailedError(SamplerError):
    """Marking construction exhausted its retry budget."""


class InvariantError(SamplerError):
    """An internal correctness invariant was violated; indicates a bug."""
