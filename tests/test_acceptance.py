"""End-to-end acceptance gate for the toolkit.

Each numbered test exercises one acceptance item and prints a single
summary line; run `pytest tests/test_acceptance.py -v -s` to see the
full scoreboard.  The items cover: flat baselines, by-construction
geodesicity, hand-derived spot values, torsion-freeness, projective
uniqueness of the gauge family, the pointed affine structure, the
geodesicity criterion, the linearizability obstruction, the dynamical
(geodesic-integration) oracle, jet correctness against finite
differences, and CLI determinism.
"""

import json
import math

import numpy as np
import pytest

from geoweb import cli, connection, curvature, fastgamma, geodesics, \
    invariants, jets
from geoweb.expr import eval_field, parse_expression
from geoweb.sampling import random_points
from geoweb.web import WebChart

from conftest import CORPUS_SOURCES, coeff, make_web
from fdtools import partial_fd


def verdict_line(num: int, desc: str, ok: bool) -> bool:
    print("ACCEPTANCE %02d  %-58s %s" % (num, desc, "PASS" if ok else "FAIL"))
    return ok


def monomials(n: int):
    names = ["1"] + ["x%d" % (i + 1) for i in range(n)]
    out = list(names)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append("x%d*x%d" % (i, j))
    return out


def poly_text(coefs, monos):
    return "+".join("(%.17g)*%s" % (c, m) for c, m in zip(coefs, monos))


@pytest.fixture(scope="module")
def corpus_sweep():
    """Order-2 canonical structures over 100 random points per corpus web.

    Shared between the by-construction geodesicity item and the
    torsion-freeness item so the 700 structures are built once.
    """
    out = {}
    for idx, name in enumerate(CORPUS_SOURCES):
        web = make_web(name)
        pts = random_points(web, 100, seed=200 + idx)
        worst_resid = asym = 0.0
        for p in pts:
            st = connection.canonical_structure(web, p, order=2)
            g = st.conn.gamma_values()
            asym = max(asym, float(np.max(np.abs(g - g.transpose(0, 2, 1)))))
            for k in range(1, web.dim + 3):
                _, resid, _ = invariants.foliation_residual(web, k, st.conn)
                worst_resid = max(worst_resid, resid)
        out[name] = (worst_resid, asym)
    return out


def test_01_flat_webs_vanishing_connection_and_obstruction():
    worst_gamma = worst_obs = 0.0
    for name, order in (("parallel2", 4), ("parallel3", 3)):
        web = make_web(name)
        pts = random_points(web, 100, seed=1001)
        G = fastgamma.batched_gamma_evaluator(web)(np.asarray(pts))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(G))))
        for p in pts:
            st = connection.canonical_structure(web, p, order)
            worst_gamma = max(worst_gamma,
                              float(np.max(np.abs(st.conn.gamma_values()))))
            pack = curvature.projective_pack(st.conn)
            worst_obs = max(worst_obs, pack.obstruction_norm())
    ok = worst_gamma <= 1e-10 and worst_obs <= 1e-10
    assert verdict_line(1, "flat parallel webs: Gamma = 0 and W = Y = 0",
                        ok), (worst_gamma, worst_obs)


def test_02_defining_foliations_geodesic_by_construction(corpus_sweep):
    worst = max(resid for resid, _ in corpus_sweep.values())
    ok = worst <= 1e-8
    assert verdict_line(2, "defining foliations totally geodesic (<= 1e-8)",
                        ok), worst


def test_03_hand_derived_spot_values():
    st = connection.canonical_structure(make_web("xy4"), (0.0, 0.0), order=3)
    s12 = st.theta.s[0][1].value
    fg = st.conn.frame_gamma
    got = (s12, fg[0][0][1].value, fg[0][1][0].value,
           fg[1][0][1].value, fg[1][1][0].value)
    want = (2.0, -1.0, -1.0, 1.0, 1.0)
    ok = all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
    assert verdict_line(3, "spot values s_12 = 2, frame Gamma = -1/+1",
                        ok), got


def test_04_coordinate_christoffels_symmetric(corpus_sweep):
    worst = max(asym for _, asym in corpus_sweep.values())
    ok = worst <= 1e-12
    assert verdict_line(4, "torsion-free: coordinate Gamma symmetric",
                        ok), worst


def test_05_projective_uniqueness_over_gauges():
    rng = np.random.default_rng(55)
    worst_resid = worst_round = 0.0
    all_equivalent = True
    for name in ("xy4", "mixed3"):
        web = make_web(name)
        monos = monomials(web.dim)
        for p in random_points(web, 3, seed=56):
            coefs = rng.uniform(-0.5, 0.5, size=(web.dim, len(monos)))
            t_exprs = [poly_text(row, monos) for row in coefs]
            base = connection.canonical_structure(web, p, order=3).conn
            gauged = connection.canonical_structure(web, p, order=3,
                                                    t=t_exprs).conn
            eq, rho, resid = connection.projective_equivalence_check(
                base, gauged)
            all_equivalent = all_equivalent and eq
            worst_resid = max(worst_resid, resid)
            redo = connection.projective_gauge_change(base, rho)
            worst_round = max(worst_round, float(np.max(np.abs(
                redo.gamma_values() - gauged.gamma_values()))))
    ok = all_equivalent and worst_resid <= 1e-9 and worst_round <= 1e-12
    assert verdict_line(5, "gauge family projectively equivalent, rho "
                        "round-trips", ok), (worst_resid, worst_round)


def test_06_pointed_affine_structure():
    srcs = ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"]
    base = WebChart.from_strings(2, srcs, pointed=4, radius=0.5)
    rescaled = WebChart.from_strings(
        2, srcs[:3] + ["2.2*(x1+2*x2+x1*x2)-0.4"], pointed=4, radius=0.5)
    worst_aff = worst_inv = 0.0
    for p in random_points(base, 6, seed=61):
        st = connection.pointed_affine_connection(base, p)
        worst_aff = max(worst_aff, invariants.affine_function_residual(
            st.conn, srcs[3]))
        g2 = connection.pointed_affine_connection(rescaled, p)
        worst_inv = max(worst_inv, float(np.max(np.abs(
            g2.conn.gamma_values() - st.conn.gamma_values()))))
    ok = worst_aff <= 1e-9 and worst_inv <= 1e-12
    assert verdict_line(6, "pointed function affine, invariant under "
                        "f -> a f + b", ok), (worst_aff, worst_inv)


def test_07_geodesicity_criterion_with_residual_agreement():
    verdicts = {}
    for name in ("lin5", "pert5"):
        web = make_web(name)
        pts = random_points(web, 40, seed=71)
        rep = invariants.geodesicity_test(web, pts)
        worst = 0.0
        for p in pts[:10]:
            st = connection.canonical_structure(web, p, order=2)
            _, resid, scale = invariants.foliation_residual(web, 5, st.conn)
            worst = max(worst, resid / scale)
        by_residual = ("geodesic" if worst <= 1e-8 else
                       "not_geodesic" if worst >= 1e-3 else "inconclusive")
        verdicts[name] = (rep, by_residual)
    lin, lin_res = verdicts["lin5"]
    pert, pert_res = verdicts["pert5"]
    ok = (lin.verdict == "geodesic" and lin.max_value <= 1e-8
          and pert.verdict == "not_geodesic" and pert.max_value >= 1e-3
          and lin_res == lin.verdict and pert_res == pert.verdict)
    assert verdict_line(7, "5-web geodesicity criterion, agrees with "
                        "residual route", ok), \
        (lin.verdict, lin.max_value, pert.verdict, pert.max_value)


def pushed_linear_web(alphas, seed, radius=0.25):
    """Linear web composed with a random fractional-linear coordinate map.

    Every function becomes (linear)/(common linear denominator), so the
    result is a projective image of a web of parallel hyperplanes.
    """
    n = len(alphas[0])
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    b = 0.2 * rng.uniform(-1, 1, n)
    p = 0.25 * rng.uniform(-1, 1, n)
    var = ["x%d" % (c + 1) for c in range(n)]
    den = "+".join("(%.17g)*%s" % (p[c], var[c]) for c in range(n)) + "+1"
    funcs = []
    for al in alphas:
        al = np.asarray(al, dtype=float)
        lin = al @ A
        num = "+".join("(%.17g)*%s" % (lin[c], var[c]) for c in range(n))
        funcs.append("(%s+(%.17g))/(%s)" % (num, al @ b, den))
    return WebChart.from_strings(n, funcs, radius=radius)


def test_08_linearizability_obstruction():
    # obstruction vanishes across the projective class of a flat connection
    rng = np.random.default_rng(88)
    worst_obs = 0.0
    for name, order in (("parallel2", 4), ("parallel3", 3)):
        web = make_web(name)
        monos = monomials(web.dim)
        for p in random_points(web, 2, seed=89):
            st = connection.canonical_structure(web, p, order)
            for _ in range(10):
                coefs = rng.uniform(-0.5, 0.5, size=(web.dim, len(monos)))
                comps = [eval_field(parse_expression(poly_text(row, monos),
                                                     web.dim),
                                    p, st.conn.order)
                         for row in coefs]
                gauged = connection.projective_gauge_change(st.conn, comps)
                pack = curvature.projective_pack(gauged)
                worst_obs = max(worst_obs, pack.obstruction_norm())
    # projective images of linear webs are recognized as linearizable
    lin5 = [(1, 0), (0, 1), (-1, -1), (1, 2), (1, 3)]
    par3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
            (1, 2, 3), (1, 2, 4)]
    pushed_ok = True
    for alphas, seeds in ((lin5, (81, 82, 83)), (par3, (84, 85))):
        for seed in seeds:
            web = pushed_linear_web(alphas, seed)
            rep = curvature.linearizability_verdict(
                web, random_points(web, 6, seed=90 + seed))
            pushed_ok = pushed_ok and rep.verdict == "linearizable"
    ok = worst_obs <= 1e-8 and pushed_ok
    assert verdict_line(8, "obstruction gauge-invariant, projective images "
                        "linearizable", ok), (worst_obs, pushed_ok)


def test_09_dynamical_oracle():
    T, h, speed = 1.0, 1e-3, 0.25
    worst = 0.0
    control = None
    for name in CORPUS_SOURCES:
        web = make_web(name)
        n, d = web.dim, web.d
        x0 = np.asarray(web.center, dtype=float) \
            + (0.02 if n == 2 else 0.05) * np.ones(n)
        V = []
        for i in range(1, d + 1):
            direc = np.ones(n)
            direc[(i - 1) % n] += 0.7
            V.append(speed * geodesics.tangent_vector(web, i, x0, direc))
        gamma = fastgamma.batched_gamma_evaluator(web)
        traj = geodesics.integrate_geodesic(
            gamma, np.tile(x0, (d, 1)), np.asarray(V), T, h)
        for i in range(1, d + 1):
            drift = geodesics.leaf_drift(web, i, traj)[i - 1]
            if (name, i) == ("pert5", 5):
                control = drift
            else:
                worst = max(worst, drift)
    # RK4 endpoint error contracts ~16x under step halving
    web = make_web("curved4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0, v0 = np.array([0.05, -0.1]), np.array([0.6, -0.45])
    ref = geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1 / 1600).endpoint
    errs = [np.linalg.norm(
        geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1.0 / m).endpoint
        - ref) for m in (100, 200, 400)]
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    ok = (worst <= 1e-6 and control is not None and control >= 1e-3
          and all(12.0 < r < 20.0 for r in ratios))
    assert verdict_line(9, "leaf drift <= 1e-6, control >= 1e-3, RK4 "
                        "contraction ~16x", ok), (worst, control, ratios)


BATTERY = [
    ("exp(x1)*sin(x2)", (0.3, 0.7)),
    ("log(2+x1+x2*x2)", (0.1, -0.3)),
    ("sqrt(1+x1*x1+x2*x2)", (0.4, 0.2)),
    ("atan(x1-x2)/(2+x1)", (0.25, -0.2)),
    ("(1.2+x1)^2.5", (0.3, 0.1)),
    ("sin(x1*x2)+cos(x1-x2)", (0.5, 0.35)),
    ("exp(x1*x2)/(1+x1*x1)", (0.2, 0.4)),
    ("sin(x1+2*x2)*exp(x3*x1)", (0.2, -0.1, 0.3)),
]


def test_10_jet_derivatives_match_richardson_fd():
    worst = 0.0
    for source, point in BATTERY:
        dim = len(point)
        tree = parse_expression(source, dim)
        j = eval_field(tree, point, 4)
        f = lambda y: eval_field(tree, y, 0).value
        for alpha in jets.exponents(dim, 4)[1:]:
            fd = partial_fd(f, point, alpha)
            fact = 1.0
            for a in alpha:
                fact *= math.factorial(a)
            rel = abs(coeff(j, alpha) * fact - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    assert verdict_line(10, "jet derivatives (orders 1-4) match FD oracle",
                        ok), worst


def test_11_cli_determinism_and_exit_codes(tmp_path, capsys):
    files = {}
    for name in ("lin5", "pert5", "curved4"):
        dim, srcs = CORPUS_SOURCES[name]
        payload = {"dimension": dim, "functions": srcs,
                   "domain": {"center": [0.0] * dim, "radius": 0.5}}
        files[name] = tmp_path / (name + ".json")
        files[name].write_text(json.dumps(payload))
    files["coincident"] = tmp_path / "coincident.json"
    files["coincident"].write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"],
        "domain": {"center": [-0.5, 0.5], "radius": 0.4}}))
    identical = True
    for fmt in ("csv", "json"):
        args = ["linearize", str(files["curved4"]), "--random", "8",
                "--seed", "5", "--format", fmt]
        a, b = tmp_path / ("a." + fmt), tmp_path / ("b." + fmt)
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        identical = identical and a.read_bytes() == b.read_bytes()
    codes = (
        cli.main(["check", str(files["lin5"]),
                  "--out", str(tmp_path / "o1.csv")]),
        cli.main(["check", str(files["pert5"]),
                  "--out", str(tmp_path / "o2.csv")]),
        cli.main(["linearize", str(files["coincident"]), "--grid", "3",
                  "--out", str(tmp_path / "o3.csv")]),
        cli.main(["check", str(tmp_path / "absent.json")]),
    )
    capsys.readouterr()
    ok = identical and codes == (0, 2, 3, 1)
    assert verdict_line(11, "CLI reports byte-identical, exit codes "
                        "0/2/3/1", ok), (identical, codes)
