"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed address, point literal or fraction text."""


class InfeasibleSequence(ArithmeticError):
    """No admissible branching-sequence entry exists at some index.

    For the built-in greedy rule this signals an internal bug (a valid
    entry always exists); for a user override it reports the first index
    whose entry violates the product bounds.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"entry {index}: {message}")
        self.index = index


class NotRepresentable(ValueError):
    """A point cannot be mapped onto a finite-depth approximation graph."""


class ResourceLimit(RuntimeError):
    """A construction would exceed its configured size budget."""


class InvariantViolation(RuntimeError):
    """An internal invariant of a construction failed: a library bug, not bad input."""
