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


class KernelBuildError(KronkitError, RuntimeError):
    """The C kernel could not be compiled into, or loaded from, its cache."""


class BudgetExceededError(KronkitError, RuntimeError):
    """An instance needs more residual searches than the budget allows.

    The flow network behind connectivity and minimum-cut enumeration
    charges one unit per search: each breadth-first search for an
    augmenting path and each reachability search over a residual network.
    ``budget`` is the number of searches that was allowed.
    """

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget
