"""Exception types shared across the package.

Most of these are thin ValueError subclasses; they exist so callers can
catch a precise failure mode instead of string-matching messages.
"""


class NonPositiveWeight(ValueError):
    """A kernel weight was negative, NaN or infinite, or the kernel was
    asymmetric or had a nonzero diagonal."""


class UnknownNode(KeyError):
    """A node id is not present in the graph."""


class EmptyGraph(ValueError):
    """An operation needed at least one node."""


class DimensionMismatch(ValueError):
    """Array arguments disagree on dimensionality."""


class NonFiniteGradient(FloatingPointError):
    """A gradient contained NaN or +/-inf."""


class NonFiniteValue(FloatingPointError):
    """A scalar evaluation produced NaN or +/-inf. node names the node it
    was evaluated at, where the raiser knows one."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class ShapeMismatch(ValueError):
    """Feature/label arrays have incompatible shapes."""


class BadLabel(ValueError):
    """Labels a classifier cannot take: a non-integer dtype, a label outside
    [0, n_classes), or data with fewer than two classes."""


class NonIntegerLabel(ValueError):
    """A label column entry could not be parsed as an integer."""


class ConstraintViolated(ValueError):
    """A structural edit would leave the architecture outside its limits."""


class BadPosition(ValueError):
    """A layer/skip index is out of range for the given architecture."""


class BadParams(ValueError):
    """A parameter vector does not match the architecture's layout."""


class ParseError(ValueError):
    """A text input failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class MissingFile(FileNotFoundError):
    """A required input file does not exist."""


class SplitTooSmall(ValueError):
    """A dataset split has too few rows for the requested batch size."""


class Divergence(FloatingPointError):
    """Training produced non-finite loss or parameters."""


class RoundTimeout(RuntimeError):
    """A search round hit its epoch cap without meeting the doubling rule."""


class OutOfPeriod(ValueError):
    """A schedule was queried outside [0, period]."""


class BadConfig(ValueError):
    """A run configuration has an unknown key, a bad value, or a hole."""
