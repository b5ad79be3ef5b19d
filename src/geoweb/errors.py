"""Exception taxonomy shared by all geoweb modules."""


class GeowebError(Exception):
    """Base class for all errors raised by this package."""


class MixedContext(GeowebError):
    """Jet operands disagree on dimension or truncation order."""


class OrderExhausted(GeowebError):
    """A derivative was requested from a jet that has no orders left."""


class SingularSystem(GeowebError):
    """Linear system pivot fell below the conditioning floor."""


class DegenerateWebPoint(GeowebError):
    """The web is not in general position at the evaluation point."""


class DomainError(DegenerateWebPoint):
    """Elementary function evaluated outside its domain (log/sqrt/div/pow).

    At a sample point this excludes the point like any other degeneracy.
    """


class CoincidentInvariants(DegenerateWebPoint):
    """Two basis invariants coincide at the point; the skew invariant is undefined."""


class ZeroForm(GeowebError):
    """A 1-form that must be nonzero vanished at the evaluation point."""


class StepTooLarge(GeowebError):
    """Geodesic integration diverged; the step size is too coarse."""


class ExpressionError(GeowebError):
    """Base class for expression parsing/evaluation errors.

    ``offset`` is the byte offset into the source text, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    """Source text does not match the expression grammar."""


class UnknownIdentifier(ExpressionError):
    """Identifier is neither a variable x1..xn nor a known function."""


class ArityError(ExpressionError):
    """Function called with the wrong number of arguments."""


class VariableOutOfRange(ExpressionError):
    """Variable index exceeds the chart dimension."""


class WebFileError(GeowebError):
    """Web description file failed validation.

    ``field`` holds the dotted path of the offending field, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
