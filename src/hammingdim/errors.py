"""Exception types shared across the package."""


class HammingDimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertex(HammingDimError):
    """A vertex tuple has the wrong arity or an out-of-range coordinate."""


class InvalidPair(HammingDimError):
    """A pair operation received two copies of the same vertex."""


class InvalidBlock(HammingDimError):
    """A block index (color, value) is out of range."""


class IsLandmark(HammingDimError):
    """The queried vertex is itself a landmark, so it has no code."""


class Unreachable(HammingDimError):
    """Breadth-first search exhausted a component without reaching the target."""


class DisconnectedGraph(HammingDimError):
    """The graph is disconnected, so distances are not defined for all pairs."""


class Unsupported(HammingDimError):
    """The request is outside the range this implementation handles."""


class NotApplicable(HammingDimError):
    """The operation's structural precondition does not hold for this input."""


class InvalidOrder(HammingDimError):
    """A colored cubic graph has the wrong number of vertices for this use."""


class NotFound(HammingDimError):
    """No stored fixture matches the requested name."""


class ParseError(HammingDimError):
    """A landmark document failed to parse.

    Carries 1-based ``line`` and ``column`` attributes when the offending
    location is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class BudgetExceeded(HammingDimError):
    """A search hit its configured candidate budget.

    ``bound`` names the budget that tripped, ``"max_candidates"``;
    ``candidates_examined`` reports progress made before stopping.
    """

    def __init__(self, message: str, bound: str, candidates_examined: int):
        super().__init__(message)
        self.bound = bound
        self.candidates_examined = candidates_examined
