"""Error contract under random input: every web file and expression gives a
verdict (exit 0, 2 or 3) or one line on stderr with exit 1, never an
escaping exception, and the same bytes when run again.

`test_error_contract` fixes f_1..f_3 to x1, x2, -(x1+x2) and fuzzes the
rest and the file's other fields; `test_error_contract_every_function`
draws every function at n = 2 and n = 3, so the frame is not the identity
and geodesic calls take `fastgamma`'s per-call path and the checks behind
its screen."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from geoweb import cli

CONSTANTS = ["0", "1", "2", "0.5", "1e300", "1e-300", "100"]
LEAVES = st.sampled_from(["x1", "x2"] + CONSTANTS)
FUNCTIONS = ["exp", "log", "sqrt", "sin", "cos", "atan"]


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(
            lambda t: "(%s%s%s)" % t),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(
            lambda t: "%s(%s)" % t),
        children.map(lambda c: "-" + c))


# well-formed trees, and raw text that is mostly not an expression
EXPRESSIONS = st.one_of(
    st.recursive(LEAVES, _extend, max_leaves=8),
    st.text(alphabet="x12+-*/^().e ", max_size=12))

# the web file's other fields, valid or not
DOMAINS = st.one_of(
    st.fixed_dictionaries({
        "center": st.lists(st.sampled_from([0.0, 0.1, -0.3, 1e300,
                                            float("nan"), float("inf")]),
                           min_size=2, max_size=2),
        "radius": st.sampled_from([0.1, 0.5, 2.0, 1e308, float("inf")])}),
    st.sampled_from([{"center": [0.0], "radius": 0.5},
                     {"center": [0.0, 0.0], "radius": -1.0},
                     {"center": [0.0, 0.0]}, [], None]))


def commands(n):
    """The command forms fuzzed on an n-web, with points and directions
    of n coordinates."""
    at = ",".join(["0.1", "0.2", "-0.1"][:n])
    direction = ",".join(["1"] + ["0"] * (n - 1))
    geodesic = ["geodesic", "--from", at, "--T", "0.01", "--h", "0.005"]
    return [
        ["check", "--grid", "2"],
        ["linearize", "--grid", "2"],
        ["invariants", "--random", "3", "--seed", "1", "--format", "json"],
        ["connection", "--at", at],
        geodesic[:3] + ["--leaf", str(n + 2)] + geodesic[3:],
        ["connection", "--at", at, "--gauge", "pointed"],
        geodesic[:3] + ["--leaf", "2", "--dir", direction] + geodesic[3:],
    ]


COMMANDS = commands(2)

DEEP = "(" * 3000 + "x1" + ")" * 3000
LONG = "+".join(["x1*x2"] * 3000)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(extra=st.lists(EXPRESSIONS, min_size=1, max_size=2), domain=DOMAINS,
       command=st.sampled_from(range(len(COMMANDS))))
@example(extra=["x1/0"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=0)
@example(extra=["x1*0/0"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=1)
@example(extra=["x1/(2-2)"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=2)
@example(extra=["x1+2*x2+x1^1e300"],
         domain={"center": [0.0, 0.0], "radius": 0.5}, command=1)
@example(extra=["x1^100000000"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=4)
@example(extra=[DEEP], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=1)
@example(extra=[LONG], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=0)
# a constant added to a product (a load-time crash), derivatives that
# divide by zero in the log series, a gradient whose square overflows
@example(extra=["1+x1*x2"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=0)
@example(extra=["x1+2*x2+1e-300^x1"],
         domain={"center": [0.0, 0.0], "radius": 0.5}, command=1)
@example(extra=["x1*1e300"], domain={"center": [0.0, 0.0], "radius": 0.5},
         command=4)
# jets that overflow in the connection code before a check fails
@example(extra=["x1+2*x2+x1*x2+1e308*x1*x1"],
         domain={"center": [0.0, 0.0], "radius": 0.5}, command=3)
# a fifth foliation whose exclusions the obstruction rows share
@example(extra=["x1+2*x2+x1*x2", "x1^2+3*x2"],
         domain={"center": [0.0, 0.0], "radius": 0.5}, command=1)
def test_error_contract(tmp_path_factory, extra, domain, command):
    assert_contract(tmp_path_factory, {
        "dimension": 2, "functions": ["x1", "x2", "-(x1+x2)"] + extra,
        "domain": domain}, COMMANDS[command])


def assert_contract(tmp_path_factory, web, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(web))
    argv = command[:1] + [str(path)] + command[1:]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err
    assert (code == 1) == bool(err), (code, err)
    assert run(argv) == (code, out, err)


def variables(n):
    return ["x%d" % (a + 1) for a in range(n)]


def _webs(n):
    """n-webs of n + 2 or n + 3 drawn functions, each a random tree or a
    web in general position at 0 plus a tenth of one; the pointed
    foliation absent, in range or not."""
    trees = st.recursive(st.sampled_from(variables(n) * 2 + CONSTANTS),
                         _extend, max_leaves=6)
    bases = variables(n) + ["-(%s)" % "+".join(variables(n)), "+".join(
        "%d*%s" % (a + 2, v) for a, v in enumerate(variables(n)))]
    functions = st.tuples(*[st.one_of(trees, trees.map(
        lambda t, b=b: "%s+0.1*%s" % (b, t))) for b in bases],
        st.lists(trees, max_size=1)).map(lambda t: [*t[:-1], *t[-1]])
    return st.fixed_dictionaries(
        {"dimension": st.just(n), "functions": functions,
         "domain": st.just({"center": [0.0] * n, "radius": 0.5})},
        optional={"pointed": st.integers(1, n + 3)})


@pytest.mark.parametrize("n, examples", [(2, 40), (3, 15)])
def test_error_contract_every_function(tmp_path_factory, n, examples):
    @settings(derandomize=True, database=None, max_examples=examples,
              deadline=None)
    @given(web=_webs(n), command=st.sampled_from(commands(n)[::-1]))
    # a curved frame, on the per-call path of `fastgamma`
    @example(web={"dimension": n, "functions": [
        "x1+0.1*x%d*x%d" % (n, n), *variables(n)[1:],
        "-(%s)" % "+".join(variables(n)), "x1*x2+exp(x%d)" % n],
        "domain": {"center": [0.0] * n, "radius": 0.5}, "pointed": 1},
        command=commands(n)[-1])
    def contract(web, command):
        assert_contract(tmp_path_factory, web, command)

    contract()
