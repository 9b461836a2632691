"""Exception types shared across the package."""


class DirlabError(Exception):
    """Base class for all errors raised by dirlab."""


class MixedMode(DirlabError):
    """Exact and floating point scalars were combined in one computation."""


class DegeneratePair(DirlabError):
    """Two identical points were given where a direction was required."""


class VerticalPair(DirlabError):
    """A slope was requested for a pair with equal final coordinates."""


class WrongDimension(DirlabError):
    """The operation is only defined in a specific ambient dimension."""


class SizeLimit(DirlabError):
    """A generator or kernel would exceed its stated size budget."""


class PreconditionFailed(DirlabError):
    """An argument violates a documented precondition."""


class FormatError(DirlabError):
    """A point set file could not be parsed."""


class NotSeparated(DirlabError):
    """A point set fails the separation requirement for its measure.

    Carries the offending pair so callers can report it.
    """

    def __init__(self, i: int, j: int, distance: float, required: float):
        self.pair = (i, j)
        self.distance = distance
        self.required = required
        super().__init__(
            f"points {i} and {j} are {distance:.6g} apart, "
            f"need at least {required:.6g}"
        )


class DepthExhausted(DirlabError):
    """The stopping time recursion hit max_depth without finding a split."""

    def __init__(self, max_depth: int, level: int | None = None):
        self.max_depth = max_depth
        self.level = level if level is not None else max_depth
        super().__init__(f"no qualifying split within {max_depth} levels")
