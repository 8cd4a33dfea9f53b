"""Exception hierarchy shared by all modules.

Every operational failure raises a subclass of :class:`FracCauchyError`,
so callers (and the CLI) can distinguish numeric failures from bad input.
"""


class FracCauchyError(Exception):
    """Base class for all library errors."""


class OrderDomainError(FracCauchyError):
    """A fractional order lies outside the admissible range of the operation."""


class GridMismatchError(FracCauchyError):
    """Two grid-indexed objects do not share the same time grid."""


class CapabilityError(FracCauchyError):
    """The input cannot supply what the operation needs (e.g. derivatives)."""


class BlowupError(FracCauchyError):
    """A non-finite value appeared at an interior node.

    Raised by a kernel, it carries the failing spectral point as `z`.
    """


class DomainError(FracCauchyError):
    """An argument lies outside the analyticity or transform domain."""


class InversionError(FracCauchyError):
    """The Laplace inversion contour is unreliable (characteristic zero nearby).

    It carries the failing spectral point as `z`.
    """


class FlavorError(FracCauchyError):
    """The problem flavor or order does not match the requested route."""


class PreconditionError(FracCauchyError):
    """A stated hypothesis of the solution route is violated."""


class StepSolveError(FracCauchyError):
    """A time-stepping linear solve failed; message carries the step index."""


class SchemaError(FracCauchyError):
    """A problem file violates the input schema.

    ``pointer`` is a JSON-pointer-style path to the offending entry.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
