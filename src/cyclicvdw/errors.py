"""Exception types shared across the package."""


class CyclicVdwError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CyclicVdwError, ValueError):
    """A precondition on arguments was violated."""


class BudgetExceededError(CyclicVdwError):
    """A search budget ran out; the search proves nothing either way."""


class InternalInconsistencyError(CyclicVdwError):
    """A result failed its own verification; signals an implementation bug."""
