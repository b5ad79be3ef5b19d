"""JSON web-file loading with field-path diagnostics.

A web file describes a chart: dimension, the list of defining expressions,
a domain ball for sampling, optionally a pointed foliation and labels.
Schema violations raise WebFileError naming the offending field; malformed
expressions keep their byte offset from the expression parser, and an
undefined constant subexpression such as 1/0 is rejected at load time.
"""

from __future__ import annotations

import json
import sys
from numbers import Real

# CPython's built-in sha256 (`_sha2` from 3.12 on): hashlib would load
# OpenSSL's libcrypto for the one digest a run takes
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import expr
from .errors import DomainError, ExpressionError, WebFileError
from .web import WebChart

_TOP_KEYS = {"dimension", "functions", "pointed", "domain", "labels"}
_DOMAIN_KEYS = {"center", "radius"}


def _require(cond: bool, message: str, field: str):
    if not cond:
        raise WebFileError(message, field)


def parse_webfile(text: str, name: str = "<webfile>") -> WebChart:
    """Build a WebChart from JSON text; `name` only decorates messages."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise WebFileError("%s is not valid JSON: %s" % (name, e), "") \
            from None
    _require(isinstance(data, dict), "top level must be a JSON object", "")
    for key in data:
        _require(key in _TOP_KEYS, "unknown key %r" % key, key)

    _require("dimension" in data, "missing key", "dimension")
    n = data["dimension"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 2,
             "dimension must be an integer >= 2", "dimension")

    _require("functions" in data, "missing key", "functions")
    funcs = data["functions"]
    _require(isinstance(funcs, list), "functions must be a list", "functions")
    _require(len(funcs) >= n + 2,
             "need at least n+2 = %d functions, got %d"
             % (n + 2, len(funcs)), "functions")
    for k, src in enumerate(funcs):
        _require(isinstance(src, str), "expression must be a string",
                 "functions[%d]" % k)

    pointed = data.get("pointed")
    if pointed is not None:
        _require(isinstance(pointed, int) and not isinstance(pointed, bool),
                 "pointed must be an integer", "pointed")
        _require(1 <= pointed <= len(funcs),
                 "pointed index %d out of range 1..%d"
                 % (pointed, len(funcs)), "pointed")

    _require("domain" in data, "missing key", "domain")
    dom = data["domain"]
    _require(isinstance(dom, dict), "domain must be an object", "domain")
    for key in dom:
        _require(key in _DOMAIN_KEYS, "unknown key %r" % key,
                 "domain.%s" % key)
    _require("center" in dom, "missing key", "domain.center")
    _require("radius" in dom, "missing key", "domain.radius")
    center, radius = dom["center"], dom["radius"]
    # the ball and its grid (axes 2 * radius / sqrt(n) long) need finite
    # float coordinates; the comparisons are exact for huge integers
    top = sys.float_info.max
    _require(isinstance(radius, Real) and not isinstance(radius, bool)
             and 0 < radius <= top / 2,
             "radius must be a number in (0, %g]" % (top / 2), "domain.radius")
    _require(isinstance(center, list) and len(center) == n
             and all(isinstance(x, Real) and not isinstance(x, bool)
                     and abs(x) <= top - radius for x in center),
             "center must be a list of %d numbers, |center| + radius "
             "finite in each" % n, "domain.center")

    labels = data.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and len(labels) == len(funcs)
                 and all(isinstance(s, str) for s in labels),
                 "labels must list one string per function", "labels")

    trees = []
    for k, src in enumerate(funcs):
        try:
            trees.append(expr.parse_expression(src, n))
            # compiling folds the constant subexpressions, and rejects one
            # with no finite value and a division by a constant 0
            expr.compile_program(trees[-1:])
        except ExpressionError as e:
            # the message ends in "(at offset N)"
            raise WebFileError("bad expression: %s" % e,
                               "functions[%d]" % k) from None
        except DomainError as e:
            raise WebFileError(str(e), "functions[%d]" % k) from None
    return WebChart(n, trees, [str(s) for s in funcs], pointed,
                    [float(x) for x in center], float(radius),
                    None if labels is None else list(labels))


def load_webfile(path) -> WebChart:
    """Load and validate a JSON web file.

    The chart's `digest` is the sha256 hex digest of the bytes parsed, for
    report headers.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise WebFileError("cannot read %s: %s" % (path, e), "") from None
    web = parse_webfile(data.decode("utf-8"), name=str(path))
    web.digest = sha256(data).hexdigest()
    return web
