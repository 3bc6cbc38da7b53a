import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sexticlab import _seeds, unipoly as up
from sexticlab.classify import classify, ecform_normalize, f40_layers
from sexticlab.forms import decompose, real_roots
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly, _rat
from sexticlab.witness import (
    CertificateError,
    SearchBudgets,
    Witness,
    _eval_pm,
    _integral_images,
    _map_back,
    anisotropic_witness,
    dirichlet_witness,
    danilov_witness,
    growth_diagnostic,
    ray_witness,
    rouse_witness,
    weighted_cubic_sign_search,
    witness_for,
)

from corpus import CORPUS, ENGINELESS


# -- Witness container --------------------------------------------------------


def test_witness_verify_checks_values():
    F = parse("x^2 + y^2")
    good = Witness("small-core-sequence", "t", [(1, 2, Fraction(5))])
    assert good.verify(F)
    bad = Witness("small-core-sequence", "t", [(1, 2, Fraction(6))])
    assert not bad.verify(F)
    # negative-value kind additionally requires an actual negative
    nn = Witness("negative-value", "t", [(1, 2, Fraction(5))])
    assert not nn.verify(F)


def test_checked_rejects_false_certificate(monkeypatch):
    # F(1, 1) = 0 for x^6 - y^6: a wrong value, and for negative-value no
    # negative value either; the engine does not check, witness_for does
    import sexticlab.witness as witness_mod

    for kind, value in (("negative-value", 2), ("small-core-sequence", 3)):
        w = Witness(kind, "t", [(1, 1, Fraction(value))])
        monkeypatch.setattr(witness_mod, "ray_witness", lambda F, box, w=w: w)
        with pytest.raises(CertificateError, match="against the input"):
            witness_for(parse("x^6 - y^6"))


def test_certificate_gates_survive_optimize():
    # assert statements vanish under python -O; the gates must not
    code = (
        "from fractions import Fraction\n"
        "from sexticlab.classify import classify\n"
        "from sexticlab.density import _near_curve_values\n"
        "from sexticlab.parser import parse\n"
        "import sexticlab.witness as W\n"
        "from sexticlab.witness import CertificateError, Witness, witness_for\n"
        "def stubbed_engine():\n"
        "    W.ray_witness = lambda F, box: Witness('negative-value', 't', [(1, 2, Fraction(-1))])\n"
        "    return witness_for(parse('x^6 - y^6'))\n"
        "def stubbed_family():\n"
        "    F = parse('(y^2 - x^3 - x)^2 - y + 100')\n"
        "    if not classify(F).shape['ecform'].b1:\n"
        "        raise SystemExit('the family route is not the Rouse engine')\n"
        "    W.rouse_witness = lambda Fn, rec, rmax: Witness('small-core-sequence', 't', [(0, 0, Fraction(150))])\n"
        "    return _near_curve_values(F, 100, 200)\n"
        "for gate in (stubbed_engine, stubbed_family):\n"
        "    try:\n"
        "        gate()\n"
        "    except CertificateError:\n"
        "        continue\n"
        "    raise SystemExit('false certificate accepted')\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Each case is a true witness for some polynomial that an engine then
# changed or got wrong; the engine stub hands it to witness_for, which
# checks it against the input.
def _true_witness(F):
    return Witness("negative-value", "t", [(1, 2, Fraction(-63))])


def _changed_in_place(F):
    w = _true_witness(F)
    w.points[0] = (1, 2, Fraction(-1))
    return w


def _point_appended(F):
    w = _true_witness(F)
    w.points.append((1, 1, Fraction(-5)))
    return w


def _kind_changed(F):
    w = Witness("small-core-sequence", "t", [(1, 1, Fraction(0))])
    w.kind = "negative-value"  # the same point, but no negative value
    return w


def _replaced(F):
    return replace(_true_witness(F), points=[(1, 2, Fraction(-1))])


def _checked_against_another_polynomial(F):
    w = Witness("negative-value", "t", [(1, 1, Fraction(-1))])
    assert w.verify(parse("x^6 - 2*y^6")) and F.eval(1, 1) == 0
    return w


@pytest.mark.parametrize("engine", [
    _changed_in_place, _point_appended, _kind_changed, _replaced,
    _checked_against_another_polynomial,
])
def test_witness_for_rechecks_what_its_engine_did_not(monkeypatch, engine):
    import sexticlab.witness as witness_mod

    F = parse("x^6 - y^6")
    assert _true_witness(F).verify(F)
    monkeypatch.setattr(witness_mod, "ray_witness", lambda F, box: engine(F))
    with pytest.raises(CertificateError, match="against the input"):
        witness_for(F)


# acceptance-4 Dirichlet family and an indefinite leading form, searched on F
# itself; a Rouse family input and anisotropic and weighted-cubic inputs,
# searched on their normalized form Fn and mapped back to F.  The constants
# keep the first points of the last three searches positive.  Each case
# names its engine, lemma and the size of the searched polynomial's staircase
# i <= deg_x, j <= deg_y, i + j <= 6 (the 28 points of the triangle for
# deg_y = 6, 25 for deg_y = 4, 18 for deg_y = 2)
ONE_EVAL_PER_POINT = [
    *[(f"(x^2 - {k}*y^2)^2*(x^2 + y^2) + x^5", "dirichlet", "dirichlet-approximation", 28)
      for k in (2, 3, 5)],
    ("(y^2 - x^3 - x)^2 - y + 10", "family", "rouse-3p", 25),
    ("x^6 + x*y^4 + 1000000", "anisotropic", "anisotropic-schedule", 25),
    ("x^6 - y^6 + 1000000000", "ray", "indefinite-leading", 28),
    ("x^6 - x^2*y^2 + 1000", "weighted-cubic", "weighted-cubic", 18),
]


@pytest.mark.parametrize("expr,engine,lemma,stair", ONE_EVAL_PER_POINT,
                         ids=["2", "3", "5", "rouse-normalized", "anisotropic", "ray",
                              "weighted-cubic"])
def test_direct_route_evaluates_each_point_once(monkeypatch, expr, engine, lemma, stair):
    # the search runs on the kernel and witness_for checks each point once
    # in Fraction, against the input F, and nowhere else
    F = parse(expr)
    report = classify(F)
    assert report.engine[0] == engine
    searched = report.shape.get("normalized", F) if report.shape else F
    real = BivarPoly.eval
    calls = []

    def counting(self, x, y):
        calls.append((self, x, y))
        return real(self, x, y)

    monkeypatch.setattr(BivarPoly, "eval", counting)
    w = witness_for(F, report, SearchBudgets(convergents=20))
    # the kernel's compile check evaluates the searched polynomial on its
    # staircase, and witness_for each witness point against F
    dx, dy = searched.weighted_degree(1, 0), searched.weighted_degree(0, 1)
    assert sum(min(dy, 6 - i) + 1 for i in range(dx + 1)) == stair
    assert w.kind == "negative-value" and w.lemma == lemma
    assert len(calls) == len(w.points) + stair
    assert all(G is searched for G, _x, _y in calls[:stair])
    assert [(G is F, x, y) for G, x, y in calls[stair:]] == [(True, x, y) for x, y, _v in w.points]
    assert (searched is F) == (report.route not in ("MP2", "MP3"))


def test_witness_json_shape():
    w = Witness("negative-value", "t", [(1, -2, Fraction(-3))], note="n", extra={"k": 7})
    obj = w.to_json_obj()
    assert obj["points"] == [[1, -2, "-3"]]
    assert obj["extra"] == {"k": "7"}
    assert min(v for _, _, v in w.points) == -3


# -- Dirichlet convergent walk ------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_dirichlet_quadratic_fixtures(k):
    F = parse(f"(x^2 - {k}*y^2)^2*(x^2 + y^2) + x^5")
    w = dirichlet_witness(F, 20)
    assert w.kind == "negative-value"
    assert w.verify(F)


# rational coefficients, so the kernel's D is not 1
RATIONAL_SEXTICS = [
    "1/3*(x^2 - 2*y^2)^2*(x^2 + y^2) + 5/7*x^5 + 1/2*x*y - 3",
    "(2*x^2 - 3*y^2)^2*(x^2 + 1/5*y^2) - 3/4*x^4*y + 11/6*y^5 + 1/9",
    "7/2*(x^3 - 2*y^3)^2 + 1/4*x^5 - 2/3*x*y^4 + 5/11*y",
]


@pytest.mark.parametrize("expr", RATIONAL_SEXTICS)
def test_search_values_match_fraction_eval(expr):
    # the Dirichlet search values come from the kernel; at every convergent
    # point, negative or not, they must equal Fraction evaluation of F
    F = parse(expr)
    K = F.kernel()
    assert K.D > 1
    ivs, _ = real_roots(decompose(F)[6])
    assert ivs
    for iv in ivs:
        for u, v in up.convergents_of_root(iv, 64):
            negatives = []
            val = _eval_pm(K, u, v, negatives)
            a, b = F.eval(u, v), F.eval(-u, -v)
            assert type(val) is int and Fraction(val, K.D) == (a if abs(a) >= abs(b) else b)
            assert negatives == [(x, y, F.eval(x, y)) for x, y in ((u, v), (-u, -v))
                                 if F.eval(x, y) < 0]
    w = dirichlet_witness(F, 64)
    assert w.kind == "negative-value"
    assert all(F.eval(x, y) == v for x, y, v in w.points)


def test_dirichlet_requires_semidefinite():
    with pytest.raises(ValueError):
        dirichlet_witness(parse("x^6 + y^6 + 1"), 8)  # definite, no root direction
    with pytest.raises(ValueError):
        dirichlet_witness(parse("x^6 - y^6"), 8)


def test_dirichlet_requires_coprime_f5():
    # F5 = x^5 shares the factor x^2 - 2y^2? no; build an actual violation
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + (x^2 - 2*y^2)*x^3")
    with pytest.raises(ValueError):
        dirichlet_witness(F, 8)


def test_dirichlet_rational_direction():
    # F6 vanishes along y = 0 only; quintic term goes negative on one sign
    F = parse("x^4*y^2 + y^6 + x^5 + 1")
    # F6 = x^4 y^2 + y^6 is semi-definite with the rational root direction
    w = dirichlet_witness(F, 24)
    assert w.kind == "negative-value"
    assert all(F.eval(x, y) == v for x, y, v in w.points)


def test_dirichlet_rational_directions_come_from_the_walk():
    # F6 = (x^2 - 4y^2)^2 (x^2 + y^2) has the rational root directions
    # t = -2 and t = 2; each walks as +-(2^k b, 2^k c) for t = b/c, with
    # values from Fraction evaluation
    F = parse("(x^2 - 4*y^2)^2*(x^2 + y^2) + x^5")
    roots = [Fraction(-2), Fraction(2)]
    n = 12
    expected = []
    for t in roots:
        for k in range(n):
            for u, v in ((t.numerator << k, t.denominator << k),
                         (-t.numerator << k, -t.denominator << k)):
                if F.eval(u, v) < 0:
                    expected.append((u, v, F.eval(u, v)))
    w = dirichlet_witness(F, n)
    assert expected and w.kind == "negative-value"
    assert w.points == expected
    assert w.extra == {}  # no irrational direction, so no growth ratio


def test_dirichlet_large_coefficient_irrational_direction():
    # the root direction t = (10^12 + 1)^(1/3) is irrational; this engine once
    # found that by trial division up to 10^6, now the walk alone decides it.
    # The points are those the engine gave when it still used trial division
    F = parse("(x^3 - 1000000000001*y^3)^2 + x^5")
    w = dirichlet_witness(F, 6)
    assert w.kind == "negative-value"
    assert [(x, y) for x, y, _ in w.points] == [
        (-10000, -1),
        (-3000000000001, -300000000),
        (-30000000000020000, -3000000000001),
        (-13500000000012000000000001, -1350000000000750000000),
        (-108000000000126000000000028000, -10800000000009000000000001),
        (-57857142780080999999910026999999980001, -5785714278006171428565001285714285),
    ]
    assert all(F.eval(x, y) == v for x, y, v in w.points)
    assert w.extra == {"growth_ratio_min": "6.30957"}


def test_dirichlet_inconclusive_on_tiny_budget():
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5")
    w = dirichlet_witness(F, 1)
    # either it already found one or reports the exhausted budget honestly
    if w.kind == "inconclusive":
        assert "convergents" in w.note
        assert w.exhausted


# -- anisotropic schedule -----------------------------------------------------


def test_anisotropic_finds_negative():
    F = parse("x^6 + x^4*y + x*y^4")
    w = anisotropic_witness(F, Fraction(1, 2), 10**9)
    assert w.kind == "negative-value"
    assert w.verify(F)
    x, y, v = w.points[0]
    assert v < 0
    assert "|F6|" in w.extra and "|F5|" in w.extra


def test_anisotropic_theta_validation():
    F = parse("x^6 + y^6")
    with pytest.raises(ValueError):
        anisotropic_witness(F, Fraction(0), 100)
    with pytest.raises(ValueError):
        anisotropic_witness(F, Fraction(3, 2), 100)


def test_anisotropic_rejects_float_theta():
    with pytest.raises(TypeError):
        anisotropic_witness(parse("x^6 - y^6"), 0.5, 100)


def test_anisotropic_budget_exhaustion_note():
    w = anisotropic_witness(parse("x^6 + y^6"), Fraction(1, 2), 2**10)
    assert w.kind == "inconclusive"
    assert "T=1024" in w.note
    assert w.exhausted
    assert "exhausted" not in w.to_json_obj()


# -- weighted cubic -----------------------------------------------------------


def test_weighted_cubic_finds_negative():
    F = parse("x^6 - x^2*y^2")
    w = weighted_cubic_sign_search(F, 10**9)
    assert w.kind == "negative-value"
    assert w.verify(F)
    assert int(str(w.extra["lead_value"])) < 0


def test_weighted_cubic_rejects_a_term_above_weight_6():
    # x^3 y^2 has weight 7, so N^7 tops F(c1 N, c2 N^2) and the negative lead
    # value at (c1, c2) = (1, 2) says nothing about the sign for large N
    with pytest.raises(ValueError, match=r"weight i \+ 2j > 6"):
        weighted_cubic_sign_search(parse("x^6 - x^2*y^2 + x^3*y^2"), 10**6)


def test_weighted_cubic_nonnegative_lead_inconclusive():
    F = parse("x^6 + x^2*y^2 + y^4")
    w = weighted_cubic_sign_search(F, 10**6)
    assert w.kind == "inconclusive"
    assert "nonnegative" in w.note
    assert not w.exhausted  # a fixed scan, not a budget


def test_weighted_cubic_zero_lead_inconclusive():
    # neither is a sextic but the layers are all zero, so no scaling is
    # tried and the weight of x^5 y^40 is never looked at
    for F in (parse("x*y"), parse("x^5*y^40")):
        w = weighted_cubic_sign_search(F, 10**6)
        assert w.kind == "inconclusive" and "identically zero" in w.note


# -- growth diagnostic --------------------------------------------------------


def test_growth_diagnostic_reports_ratio():
    F = parse("x^4 + y^4 + 1")
    w = growth_diagnostic(F, Fraction(1, 2), box=12)
    assert w.kind == "dearth-diagnostic"
    assert "min_ratio" in w.extra
    with pytest.raises(ValueError):
        growth_diagnostic(F, Fraction(-1), box=4)


def test_growth_diagnostic_rejects_float_delta():
    with pytest.raises(TypeError):
        growth_diagnostic(parse("x^4 + y^4 + 1"), 0.5, box=4)


def test_growth_diagnostic_matches_fraction_scan():
    # the kernel scan against a Fraction scan: same point, value and ratio
    F = parse("1/2*x^4 - 1/3*x^2*y + 1/7*y^3 + 1/5")
    delta = Fraction(1, 3)
    w = growth_diagnostic(F, delta, box=9)
    expo = 1 + float(delta)
    ref = min(
        (float(F.eval(x, y)) / max(abs(x), abs(y)) ** expo, x, y)
        for x in range(-9, 10) for y in range(-9, 10) if x or y
    )
    assert w.points == [(ref[1], ref[2], F.eval(ref[1], ref[2]))]
    assert w.extra["min_ratio"] == f"{ref[0]:.6g}"


@pytest.mark.parametrize("expr,ratio", [
    ("x^174 + y^2", "1"),  # 60^174 > 2^1024: |x| >= 60 gives inf
    ("y^2 - 10^310*x^2", "-inf"),  # every x != 0 gives -inf
])
def test_growth_diagnostic_past_float_range(expr, ratio):
    # values beyond a float get ratio +-inf; the others keep theirs
    F = parse(expr)
    w = growth_diagnostic(F, Fraction(1), box=60)
    assert w.kind == "dearth-diagnostic"
    assert w.extra["min_ratio"] == ratio
    x, y, v = w.points[0]
    assert v == F.eval(x, y)


def _ref_growth_diagnostic(F, delta, box=200):
    """growth_diagnostic as a per-point loop, kept as the oracle of its
    column-by-column scan: the same float operations in the same order."""
    delta = _rat(delta)
    expo = 1 + float(delta)
    scale = _seeds.get("diagnostic_scale")
    K = F.kernel()
    D = K.D
    span = range(-box, box + 1)
    best = None
    for x in span:
        for y, v in zip(span, K.values(x, span)):
            if not x and not y:
                continue
            try:
                value = v / D
            except OverflowError:
                value = math.inf if v > 0 else -math.inf
            ratio = scale * value / (max(abs(x), abs(y)) ** expo)
            if best is None or ratio < best[0]:
                best = (ratio, x, y, v)
    ratio, x, y, v = best
    return Witness(
        "dearth-diagnostic",
        "growth-bound",
        [(x, y, Fraction(v, D))],
        note=f"min ratio {ratio:.6g} at ({x},{y}); empirical, not a proof",
        extra={"delta": delta, "min_ratio": f"{ratio:.6g}", "box": box},
    )


def _growth_cases():
    rng = random.Random(3412)
    texts = [
        "x^2 + y^2", "x^4 + y^4", "3", "0", "x*y",  # ties across and within columns
        "x^174 + y^2", "y^2 - 10^310*x^2",  # every |x| >= 60, or every x != 0, overflows
        "10^306*x^4 - y^2",  # only the wide columns overflow
        "x^2 - y",  # the least ratio at (0, 1), past the left-out origin
    ]
    for _ in range(8):  # seeded non-sextics with rational coefficients
        terms = {(rng.randint(0, 5), rng.randint(0, 5)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 6))}
        F = BivarPoly(terms)
        if F.degree() != 6:
            texts.append(F.format())
    return texts


@pytest.mark.parametrize("box", [1, 2, 60])
@pytest.mark.parametrize("expr", _growth_cases())
def test_growth_diagnostic_matches_point_loop(expr, box):
    F = parse(expr)
    for delta in (Fraction(1), Fraction(1, 3)):
        assert growth_diagnostic(F, delta, box=box) == _ref_growth_diagnostic(F, delta, box=box)
        with _seeds.perturbed():
            assert growth_diagnostic(F, delta, box=box) == _ref_growth_diagnostic(F, delta, box=box)


# -- elliptic families --------------------------------------------------------


def test_rouse_witness_negative_family():
    F = parse("(y^2 - x^3 - x)^2 - y + 100")
    rec = ecform_normalize(F)
    w = rouse_witness(F, rec, 25)
    assert w.kind == "negative-value"
    assert w.verify(F)
    assert min(v for _, _, v in w.points) < -10**6


def test_rouse_requires_nonzero_b1():
    F = parse("(y^2 - x^3)^2 - y + 10")
    rec = ecform_normalize(F)
    with pytest.raises(ValueError):
        rouse_witness(F, rec, 5)
    w = danilov_witness(F, rec, 12)
    assert w.kind == "negative-value"
    assert w.verify(F)


def test_danilov_requires_zero_b1():
    F = parse("(y^2 - x^3 - x)^2 - y + 100")
    rec = ecform_normalize(F)
    with pytest.raises(ValueError):
        danilov_witness(F, rec, 5)


def _fraction_images(sub, family):
    """The Fraction substitution x_cx X + x_c0, y_cy Y + y_cx X + y_c0 at
    (X, Y) and (X, -Y), kept where both images are integral: the oracle of
    the integer family map."""
    out = []
    for X, Y in family:
        for Ys in (Y, -Y):
            X, Ys = Fraction(X), Fraction(Ys)
            x = sub["x_cx"] * X + sub["x_c0"]
            y = sub["y_cy"] * Ys + sub["y_cx"] * X + sub["y_c0"]
            if x.denominator == 1 and y.denominator == 1:
                out.append((int(x), int(y)))
    return out


# small denominators, so that many images are integral and many are not
subst_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=4)
family_coords = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({k: subst_coeffs for k in ("x_cx", "x_c0", "y_cy", "y_cx", "y_c0")}),
       st.lists(st.tuples(family_coords, family_coords), max_size=8))
def test_integral_images_match_fraction_substitution(sub, family):
    assert _integral_images(sub, family) == _fraction_images(sub, family)


def test_integral_images_skip_non_integral_points():
    sub = {"x_cx": Fraction(1, 2), "x_c0": Fraction(0), "y_cy": Fraction(1),
           "y_cx": Fraction(0), "y_c0": Fraction(1, 3)}
    family = [(1, 5), (2, 5), (2, Fraction(2, 3)), (Fraction(4, 3), 1), (4, Fraction(-1, 3))]
    # x = X/2 is integral for X = 2 and 4 only, and y = +-Y + 1/3 is integral
    # for +Y = 2/3 (y = 1) and +Y = -1/3 (y = 0), never for -Y
    assert _integral_images(sub, family) == [(1, 1), (2, 0)]
    assert _fraction_images(sub, family) == [(1, 1), (2, 0)]


def test_integral_images_match_on_recorded_substitutions():
    # the recorded substitutions of EC normal forms, on the families that
    # rouse_witness and danilov_witness walk; rational b1 gives rational points
    from sexticlab.eclab import danilov_family, rouse_point

    kept = dropped = 0
    for expr in ("(y^2 - x^3 - x)^2 - y + 100", "(y^2 - x^3)^2 - y + 10",
                 "(2*y^2 - x^3 - x)^2 - y + 3", "(y^2 - 2*x^3 - x)^2 + x*y",
                 "(3*y^2 - x^3 + x*y + x^2)^2 - y + 5"):
        rec = ecform_normalize(parse(expr))
        b = rec.b1
        family = ([rouse_point(b, r) for r in range(1, 8)] if b
                  else [(X, Y) for X, Y, _g, _r in danilov_family(6)])
        images = _integral_images(rec.substitution, family)
        assert images == _fraction_images(rec.substitution, family), expr
        kept += len(images)
        dropped += 2 * len(family) - len(images)
    assert kept and dropped


def _half_shift(rec):
    """rec with x = ... + 1/2 in its substitution: no family point maps to integers."""
    return replace(rec, substitution={**rec.substitution, "x_c0": rec.substitution["x_c0"] + Fraction(1, 2)})


_NO_IMAGE = "no family point maps to integers under the recorded substitution"

# Every branch of both family engines, each with its witness JSON pinned.
# The sheared inputs have a substitution that is not the identity.
FAMILY_BRANCHES = [
    ("rouse", "(y^2 - x^3 - x)^2 - y + 100", None, 3, {
        "kind": "negative-value", "lemma": "rouse-3p",
        "points": [[72, 611, "-510"], [4128, 265222, "-265106"], [46728, 10101033, "-10100852"]],
        "note": "3P family on y^2 = x^3 + (1) x + r^2 (1)^2, r <= 3",
        "extra": {"b1": "1", "b0": "0", "a": "1"}}),
    ("rouse", "((y + x + 1)^2 - x^3 - x)^2 + 100", None, 3, {
        "kind": "small-core-sequence", "lemma": "rouse-3p", "points": [[72, 538, "101"]],
        "note": "no negative value on the 3P family with r <= 3; minimum 101 at (72,538)",
        "extra": {}}),
    ("rouse", "(y^2 - x^3 - x)^2 + 100", _half_shift, 3, {
        "kind": "inconclusive", "lemma": "rouse-3p", "points": [], "note": _NO_IMAGE, "extra": {}}),
    # rational b1: the closed form has denominators, and only even r is integral
    ("rouse", "(y^2 - x^3 - x)^2 + 100", lambda rec: replace(rec, b1=Fraction(1, 2)), 2, {
        "kind": "small-core-sequence", "lemma": "rouse-3p", "points": [[1040, 33539, "269461"]],
        "note": "no negative value on the 3P family with r <= 2; minimum 269461 at (1040,33539)",
        "extra": {}}),
    ("danilov", "((y - x)^2 - (x+1)^3)^2 - y + 10", None, 1, {
        "kind": "negative-value", "lemma": "danilov-gap", "points": [[93843, 28841984, "-28753765"]],
        "note": "small-gap family, first 1 members", "extra": {"b0": "0", "a": "1"}}),
    ("danilov", "(y^2 - x^3)^2 + 100", None, 1, {
        "kind": "small-core-sequence", "lemma": "danilov-gap", "points": [[93844, 28748141, "88309"]],
        "note": "no negative value among 2 mapped family points", "extra": {}}),
    ("danilov", "(y^2 - x^3)^2 + 100", _half_shift, 1, {
        "kind": "inconclusive", "lemma": "danilov-gap", "points": [], "note": _NO_IMAGE, "extra": {}}),
]


@pytest.mark.parametrize("engine,expr,edit,budget,expected", FAMILY_BRANCHES,
                         ids=[f"{e}-{w['kind']}" for e, _x, _d, _b, w in FAMILY_BRANCHES])
def test_family_walk_branches(engine, expr, edit, budget, expected):
    F = parse(expr)
    rec = ecform_normalize(F)
    if edit is not None:
        rec = edit(rec)
    w = (rouse_witness if engine == "rouse" else danilov_witness)(F, rec, budget)
    assert w.to_json_obj() == expected
    assert w.verify(F) and not w.exhausted


# -- indefinite leading form --------------------------------------------------


def test_ray_witness_negative():
    F = parse("x^6 - y^6 + x*y + 3")
    w = ray_witness(F)
    assert w.kind == "negative-value"
    assert w.verify(F)


def test_ray_witness_inconclusive_when_definite():
    w = ray_witness(parse("x^6 + y^6"), box=4)
    assert w.kind == "inconclusive"


# -- Fraction references of the first-negative engines -----------------------

# The anisotropic, weighted-cubic and ray searches with every scanned point
# evaluated by F.eval in Fraction: the oracles of the kernel engines, which
# must return the same Witness in every field.


def _ref_anisotropic_witness(F: BivarPoly, theta: Fraction, Tmax: int = 10**12) -> Witness:
    theta = _rat(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    parts = decompose(F)
    T = 2
    while T <= Tmax:
        r = up.iroot(T**theta.numerator, theta.denominator)
        if r >= 1:
            xlo, xhi = max(1, r - r // 2), 2 * r
            span = xhi - xlo + 1
            stride = max(1, span // 64)
            for ax in range(xlo, xhi + 1, stride):
                for x in (ax, -ax):
                    for y in (T, -T):
                        v = F.eval(x, y)
                        if v < 0:
                            decomp = {
                                f"|F{j}|": str(abs(parts[j].eval(x, y)))
                                for j in range(1, 7)
                            }
                            return Witness(
                                "negative-value",
                                "anisotropic-schedule",
                                [(x, y, v)],
                                note=f"theta={theta}, T={T}",
                                extra=decomp,
                            )
        T *= 2
    return Witness(
        kind="inconclusive",
        lemma="anisotropic-schedule",
        points=[],
        note=f"no negative value on the theta={theta} schedule up to T={Tmax}",
        exhausted=True,
    )


def _ref_weighted_cubic_sign_search(F: BivarPoly, Nmax: int = 10**9) -> Witness:
    lay = f40_layers(F)
    if lay.is_zero():
        return Witness(
            kind="inconclusive",
            lemma="weighted-cubic",
            points=[],
            note="weighted lead form is identically zero; degenerate, routed onward",
        )
    found = None
    for c1 in range(1, 9):
        for c2 in sorted(range(-16, 17), key=lambda t: (abs(t), -t)):
            if lay.eval(c1 * c1, c2) < 0:
                found = (c1, c2)
                break
        if found:
            break
    if not found:
        return Witness(
            kind="inconclusive",
            lemma="weighted-cubic",
            points=[],
            note="weighted lead form nonnegative on the scanned box; "
            "degenerate, routed onward",
        )
    c1, c2 = found
    gval = lay.eval(c1 * c1, c2)
    # symbolic scaling identity: substitute (x, y) -> (c1 N, c2 N^2); the
    # result is univariate in N and its N^6 coefficient must be G(c1^2, c2)
    N = BivarPoly.x()
    curve = F.subs(N * c1, N * N * c2)
    if curve.coeff(6, 0) != gval or curve.weighted_degree(0, 1) != 0:
        raise CertificateError(f"weighted-cubic: scaling identity fails at ({c1},{c2})")
    N_int = 1
    while N_int <= Nmax:
        x, y = c1 * N_int, c2 * N_int * N_int
        v = F.eval(x, y)
        if v < 0:
            return Witness(
                "negative-value",
                "weighted-cubic",
                [(x, y, v)],
                note=f"lead form at (c1,c2)=({c1},{c2}) is {gval}; scaled by N={N_int}",
                extra={"c1": c1, "c2": c2, "lead_value": gval},
            )
        N_int *= 2
    return Witness(
        kind="inconclusive",
        lemma="weighted-cubic",
        points=[],
        note=f"lead form negative at ({c1},{c2}) but budget Nmax={Nmax} exhausted",
        exhausted=True,
    )


def _ref_ray_witness(F: BivarPoly, box: int = 24, scale_max: int = 10**12) -> Witness:
    parts = decompose(F)
    F6 = parts[6]
    direction = None
    for u in range(-box, box + 1):
        for v in range(-box, box + 1):
            if not u and not v:
                continue
            if F6.eval(u, v) < 0:
                direction = (u, v)
                break
        if direction:
            break
    if direction is None:
        return Witness(
            kind="inconclusive",
            lemma="indefinite-leading",
            points=[],
            note=f"no negative leading-form direction in the |u|,|v| <= {box} box",
        )
    u, v = direction
    n = 1
    while n <= scale_max:
        val = F.eval(n * u, n * v)
        if val < 0:
            return Witness(
                "negative-value",
                "indefinite-leading",
                [(n * u, n * v, val)],
                note=f"ray ({u},{v}) scaled by {n}",
            )
        n *= 2
    return Witness(
        kind="inconclusive",
        lemma="indefinite-leading",
        points=[],
        note="scaling budget exhausted",
        exhausted=True,
    )


def _seeded(lead: str, seed: int, weight: int | None = None) -> BivarPoly:
    """lead plus random terms of degree 1 to 5, some with denominators so
    that the kernel's D is not always 1, and a constant up to 10^8 that keeps
    the first points of a search positive.  With a weight, only terms x^i y^j
    with i + 2j <= weight are drawn."""
    rng = random.Random(seed)
    lower = {(i, j): Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
             for i in range(6) for j in range(6 - i)
             if i + j and (weight is None or i + 2 * j <= weight) and rng.random() < 0.25}
    lower[0, 0] = 10 ** rng.randint(0, 8)
    return parse(lead) + BivarPoly(lower)


def _agree(pairs):
    """Asserts that each (engine, reference) pair of witnesses is equal in
    every field, and returns the witnesses."""
    out = []
    for new, ref in pairs:
        assert new == ref, (new, ref)  # kind, lemma, points, note, extra, exhausted
        out.append(new)
    return out


def test_anisotropic_matches_fraction_reference():
    ws = _agree(
        (anisotropic_witness(F, theta, Tmax), _ref_anisotropic_witness(F, theta, Tmax))
        for seed in range(12)
        for lead, theta in (("x^6 + x*y^4", Fraction(1, 2)), ("x^6 + x^2*y^3", Fraction(2, 3)),
                            ("x^6 + x*y^3", Fraction(1, 6)), ("x^6 + y^6", Fraction(7, 12)))
        for F in (_seeded(lead, seed),)
        for Tmax in (2**3, 2**12)
    )
    assert any(w.kind == "negative-value" for w in ws)
    assert any(w.exhausted for w in ws)


def test_weighted_cubic_matches_fraction_reference():
    # the reference scales whatever the weight of F, so the two agree on the
    # shape the engine takes: every term of weight i + 2j <= 6
    ws = _agree(
        (weighted_cubic_sign_search(F, Nmax), _ref_weighted_cubic_sign_search(F, Nmax))
        for seed in range(12)
        for lead in ("x^6 - 5*x^2*y^2", "x^6 + x^2*y^2", "x^6 + y^3")
        for F in (_seeded(lead, seed, weight=6),)
        for Nmax in (2, 10**9)
    )
    assert {w.kind for w in ws} == {"negative-value", "inconclusive"}
    assert any(w.exhausted for w in ws)
    assert any(w.kind == "inconclusive" and not w.exhausted for w in ws)
    # most seeds drawn from all of i + j <= 5 have heavier terms: once the
    # lead form is negative somewhere, the engine refuses to scale them
    rejected = 0
    for seed in range(12):
        for lead in ("x^6 - 5*x^2*y^2", "x^6 + x^2*y^2 + y^4", "x*y^5"):
            F = _seeded(lead, seed)
            ref = _ref_weighted_cubic_sign_search(F, 2)
            if F.weighted_degree(1, 2) <= 6 or (ref.kind == "inconclusive" and not ref.exhausted):
                assert weighted_cubic_sign_search(F, 2) == ref
            else:
                with pytest.raises(ValueError, match=r"weight i \+ 2j > 6"):
                    weighted_cubic_sign_search(F, 2)
                rejected += 1
    # 33 of the 36 seeds have a heavier term; 17 of those stop at a lead form
    # that is nonnegative or zero on the scanned box, before any scaling
    assert rejected == 16


def test_ray_matches_fraction_reference():
    # with box 2 the first direction of 100 x^6 - y^6 is (0, -2): the scale
    # comes from v there, as u = 0
    u0 = parse("100*x^6 - y^6 - 1000*y^5")
    w = ray_witness(u0, box=2)
    assert w == _ref_ray_witness(u0, box=2)
    assert w.points == [(0, -1024, u0.eval(0, -1024))] and w.note == "ray (0,-2) scaled by 512"
    ws = _agree(
        (ray_witness(F, box, scale_max), _ref_ray_witness(F, box, scale_max))
        for seed in range(12)
        for lead, box in (("x^6 - y^6", 24), ("100*x^6 - y^6", 2), ("-x^5*y", 3), ("x^6 + y^6", 4))
        for F in (_seeded(lead, seed),)
        for scale_max in (1, 10**12)
    )
    assert any(w.kind == "negative-value" and w.points[0][0] == 0 for w in ws)
    assert any(w.exhausted for w in ws)
    assert any(w.kind == "inconclusive" and not w.exhausted for w in ws)


# -- map back through a unimodular matrix -------------------------------------


def test_map_back_roundtrip():
    # witness in sheared coordinates (x, y) -> original via M
    F = parse("x^6 - y^6 + 1")
    M = [[1, 1], [0, 1]]
    # normalized polynomial G(x, y) = F(x + y, y)
    G = F.subs(BivarPoly.x() + BivarPoly.y(), BivarPoly.y())
    w = ray_witness(G)
    assert w.kind == "negative-value"
    back = _map_back(w, M)
    assert back.verify(F)


# -- dispatch -----------------------------------------------------------------


def test_dispatch_mp3_ec_family():
    F = parse("(y^2 - x^3 - x)^2 - y + 100")
    w = witness_for(F)
    assert w.kind == "negative-value"
    assert w.verify(F)


def test_dispatch_indefinite():
    w = witness_for(parse("x^6 - y^6 + x*y"))
    assert w.kind == "negative-value"


def test_dispatch_dirichlet_route():
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5")
    w = witness_for(F, budgets=SearchBudgets(convergents=24))
    assert w.kind == "negative-value"
    assert w.verify(F)


def test_dispatch_dirichlet_errors_propagate(monkeypatch):
    # the router checks the engine's preconditions itself, so a ValueError
    # from the engine is a fault to report, not an inconclusive result
    import sexticlab.witness as witness_mod

    def raising(F, max_convergents=64):
        raise ValueError("engine fault")

    monkeypatch.setattr(witness_mod, "dirichlet_witness", raising)
    with pytest.raises(ValueError, match="engine fault"):
        witness_for(parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5"))


def test_dispatch_mp2_completed_square_inconclusive():
    core = parse("y*(x^2 - y) + x*(x^2 - 2*y)")
    F = core * core + BivarPoly.const(3)
    w = witness_for(F)
    assert w.kind == "inconclusive"
    assert "density probe" in w.note


def test_dispatch_mp3_without_ecform():
    # the weighted lead form x^6 + y^4 is not a square: no ECRecord exists
    F = parse("x^6 + y^4")
    rep = classify(F)
    assert rep.route == "MP3" and "ecform" not in rep.shape
    w = witness_for(F, rep)
    assert (w.kind, w.lemma) == ("inconclusive", "mp3")
    assert w.note == rep.ecform_error and "perfect square" in w.note
    assert not w.exhausted
    assert "ecform_error" not in rep.to_json_obj()


def test_dispatch_not_a_sextic_diagnostic():
    w = witness_for(parse("x^4 + y^4"), budgets=SearchBudgets(box=10))
    assert w.kind == "dearth-diagnostic"


def test_dispatch_positive_definite_inconclusive():
    w = witness_for(parse("x^6 + y^6 + 1"))
    assert w.kind == "inconclusive"


def test_dispatch_respects_budgets():
    # tiny Tmax starves the anisotropic schedule on an MP3 shape with x^2 | F5
    # failing: the constant keeps its first points positive, so the engine
    # comes back inconclusive with its budget spent rather than loop, and
    # finds a negative value at the default budget
    F = parse("x^6 + x*y^4 + 1000000")
    rep = classify(F)
    assert (rep.route, rep.engine) == ("MP3", ("anisotropic", Fraction(1, 2)))
    w = witness_for(F, rep, SearchBudgets(Tmax=4))
    assert (w.kind, w.exhausted) == ("inconclusive", True)
    assert witness_for(F, rep).kind == "negative-value"


class _SealedConditions(dict):
    """A conditions dict that fails any read: the dispatch must take its
    engine from report.engine alone."""

    def _read(self, *args):
        pytest.fail(f"witness dispatch read report.conditions{list(args)[:1]}")

    __getitem__ = get = __contains__ = __iter__ = _read


@pytest.mark.parametrize("expr", [e for e, _ in CORPUS + ENGINELESS] + [
    "x^4*(x^2 + y^2) + x*y^4",  # MP2, x^2 does not divide F5
    "x^4*(x^2 + y^2) + x^2*y^3 + y^4",  # MP2, failed square check
    "x^6 + x*y^4",  # MP3, x^2 does not divide F5
    "x^6 + x*y^3",  # MP3, x^4 | F5 with x | F4 exactly
    "x^6 - x^2*y^2",  # MP3, weighted-cubic sign search
])
def test_dispatch_reads_only_the_engine(expr):
    F = parse(expr)
    rep = classify(F)
    budgets = SearchBudgets(Tmax=2**20)
    sealed = replace(rep, conditions=_SealedConditions())
    assert witness_for(F, sealed, budgets) == witness_for(F, rep, budgets)


@pytest.mark.parametrize("expr,engine", [
    ("x^4*(x^2 + y^2) + x*y^4", ("anisotropic", Fraction(7, 12))),
    ("x^4*(x^2 + y^2) + x^2*y^3 + y^4", ("mp2-fallback", Fraction(1, 2))),
    ("x^6 + x*y^4", ("anisotropic", Fraction(1, 2))),
    ("x^6 + x^2*y^3", ("anisotropic", Fraction(2, 3))),
    ("x^6 + x*y^3", ("anisotropic", Fraction(1, 6))),
])
def test_notes_name_the_theta_that_runs(monkeypatch, expr, engine):
    import sexticlab.witness as witness_mod

    thetas = []

    def recording(F, theta, Tmax=10**12):
        thetas.append(theta)
        return anisotropic_witness(F, theta, Tmax)

    monkeypatch.setattr(witness_mod, "anisotropic_witness", recording)
    F = parse(expr)
    rep = classify(F)
    assert rep.engine == engine
    assert rep.notes[-1].endswith(f"; anisotropic witness, theta = {engine[1]}")
    witness_for(F, rep, SearchBudgets(Tmax=2**20))
    assert thetas == [engine[1]]


@pytest.mark.parametrize("expr,engine", [
    ("(x^3 + x*y^2 + y^3)^2 + x^5", ("dirichlet", None)),  # MP1-cubic
    ("(x*(x^2+y^2))^2 + x^5", None),  # MP1-cubic, gcd(F6, F5) = x^2
    ("x^2*(x^4 + y^4) + x^5 + y^5", ("dirichlet", None)),  # MP1-linear
    ("x^2*y^4 + x^6 + 1", None),  # MP1-linear, F5 = 0
])
def test_mp1_notes_name_an_engine_only_when_it_runs(expr, engine):
    rep = classify(parse(expr))
    assert rep.engine == engine
    assert rep.notes[-1].endswith("so no negativity engine applies") == (engine is None)
