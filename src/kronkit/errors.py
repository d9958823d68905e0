"""Exception types shared across the package."""


class KronkitError(Exception):
    """Base class for toolkit-specific failures."""


class Graph6Error(KronkitError, ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(KronkitError, ValueError):
    """Input outside the size range a format or guard supports."""


class PreconditionError(KronkitError, ValueError):
    """An operation was called outside its documented domain."""


class BudgetExceededError(KronkitError, RuntimeError):
    """An instance is larger than the configured budget allows.

    ``required`` is its size in the budget's unit: ``C(N, kappa)``, the
    number of vertex subsets of size kappa, for minimum-cut enumeration on
    an ``N``-vertex graph, and ``N ** 3`` for the formula-only check of an
    ``N``-vertex product.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class SamplingExhaustedError(KronkitError, RuntimeError):
    """Rejection sampling hit its cap without producing a valid sample."""
