"""Exception types shared across the package."""


class CyclicVdwError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CyclicVdwError, ValueError):
    """A precondition on arguments was violated."""


class DegenerateProgressionError(InvalidArgumentError):
    """A (base, diff) pair generates fewer than k distinct residues."""

    def __init__(self, modulus: int, base: int, diff: int, length: int, distinct: int):
        self.modulus = modulus
        self.base = base
        self.diff = diff
        self.length = length
        self.distinct = distinct
        super().__init__(
            f"(t={base}, d={diff}) generates only {distinct} distinct residues "
            f"mod {modulus}, need {length}"
        )


class BudgetExceededError(CyclicVdwError):
    """A search budget ran out; the search proves nothing either way."""


class InternalInconsistencyError(CyclicVdwError):
    """A result failed its own verification; signals an implementation bug."""
