"""Exception taxonomy shared by all geoweb modules."""

import numpy as np


class GeowebError(Exception):
    """Base class for all errors raised by this package."""


class MixedContext(GeowebError):
    """Jet operands disagree on dimension or truncation order."""


class OrderExhausted(GeowebError):
    """A derivative was requested from a jet that has no orders left."""


class SingularSystem(GeowebError):
    """The matrix of a linear system over jets is exactly singular."""


class DegenerateWebPoint(GeowebError):
    """The web is not in general position at the evaluation point.

    Raised by a check over a batch of points (see `batch_error`), ``rows``
    is the boolean (B,) array of the points that fail it and ``detail(b)``
    the message point b raises on its own; both are None when not known.
    """

    rows = detail = None


class DomainError(DegenerateWebPoint):
    """Elementary function evaluated outside its domain (log/sqrt/div/pow).

    At a sample point this excludes the point like any other degeneracy.
    """


class CoincidentInvariants(DegenerateWebPoint):
    """Two basis invariants coincide at the point; the skew invariant is undefined."""


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


def batch_error(cls, rows, detail):
    """A `cls` error from a check that fails at the points `rows` marks.

    `rows` is a boolean array over the batch (a scalar for one point) and
    `detail(b)` the message of failing point b, the message of the error
    the check raises at that point alone; the error's own message is that
    of the first failing point, or `detail(None)` for a batch of no points
    (a check that fails whatever the point, met at load time).
    """
    rows = np.atleast_1d(rows)
    err = cls(detail(int(np.argmax(rows)) if rows.size else None))
    err.rows, err.detail = rows, detail
    return err
