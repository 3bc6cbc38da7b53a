import dataclasses
import importlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sexticlab.classify import (
    ClassifyError,
    ECRecord,
    apply_matrix,
    classify,
    cubic_square_completion,
    ecform_normalize,
    f40_layers,
    gcd_condition,
    mp2_square_check,
    quadratic_case_analysis,
    unimodular_matrix_for,
    _detect_pell_k,
    _MP3_SLOTS,
    _require,
    _xpow_div,
)
from sexticlab import unipoly as up
from sexticlab.forms import (
    BinaryForm,
    decompose,
    definiteness,
    form_div,
    squarefree_factors,
    squarefree_profile,
)
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly, IdentityError
from sexticlab.quadext import QuadExt
from sexticlab.witness import witness_for

from corpus import CORPUS, ENGINELESS
from test_forms import form_of
from test_unipoly import monic

# the package exports the function classify under the module's name
classify_mod = importlib.import_module("sexticlab.classify")


# -- routing ------------------------------------------------------------------


@pytest.mark.parametrize("expr,route", CORPUS)
def test_corpus_routes(expr, route):
    rep = classify(parse(expr))
    assert rep.route == route, f"{expr}: got {rep.route}, want {route}"


@pytest.mark.parametrize("expr,route", CORPUS)
def test_report_shape_typed_and_serializable(expr, route):
    rep = classify(parse(expr))
    json.dumps(rep.to_json_obj())
    if route == "MP3":
        assert isinstance(rep.shape["normalized"], BivarPoly)
    if expr == "(y^2 - x^3 - x)^2 - y + 10":
        assert isinstance(rep.shape["ecform"], ECRecord)


def test_report_json_schema():
    rep = classify(parse("x^6 + y^6"))
    obj = rep.to_json_obj()
    assert obj["schema"] == "1"
    for key in ("degree", "profile", "definiteness", "route", "conditions"):
        assert key in obj


def test_classify_deterministic():
    F = parse("(y^2 - x^3 - x)^2 - y + 10")
    a = classify(F).to_json_obj()
    b = classify(F).to_json_obj()
    assert a == b


with open(os.path.join(os.path.dirname(__file__), "golden", "corpus_cli.json")) as fh:
    GOLDEN_ANALYZE = {row["poly"]: json.loads(row["analyze"]["stdout"]) for row in json.load(fh)}

# an MP1-cubic sextic whose f divides F5 and F4, so the square completion runs
CUBIC_COMPLETION = "(x^3 + x*y^2 + y^3)^2 + x^2*(x^3 + x*y^2 + y^3) + y*(x^3 + x*y^2 + y^3) + x*y + 7"


@pytest.mark.parametrize("expr,route", [
    ("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5", "MP1-quadratic"),  # runs the Q(sqrt 2) case
    (CUBIC_COMPLETION, "MP1-cubic"),
    ("x^4*(x^2 + y^2) + x^3*y^2", "MP2"),
    ("(y^2 - x^3 - x)^2 - y + 10", "MP3"),
])
def test_classify_runs_yun_once_on_f6(monkeypatch, expr, route):
    # profile, definiteness, factors and real roots of F6, the MP1 analyses
    # that take F6 apart again, and the witness engine run on the same F
    # (Dirichlet, for the MP1-quadratic input) all read one square-free
    # factorization: one Yun decomposition, and one root isolation per factor
    F6 = decompose(parse(expr))[6]
    p6 = up.trim(F6.coefficients[::-1])  # F6(t, 1)
    factors = [monic(up.trim(b.coefficients[::-1])) for _, b in squarefree_factors(F6)]
    args, isolated = [], []

    def counting(real, calls):
        def wrapper(p):
            calls.append(list(p))
            return real(p)
        return wrapper

    monkeypatch.setattr(up, "yun_decomposition", counting(up.yun_decomposition, args))
    monkeypatch.setattr(up, "isolate_real_roots", counting(up.isolate_real_roots, isolated))
    F = parse(expr)
    report = classify(F)
    obj = report.to_json_obj()
    assert obj["route"] == route
    assert args.count(p6) == 1
    w = witness_for(F, report)
    assert args.count(p6) == 1
    assert [monic(p) for p in isolated] == factors
    if route == "MP1-quadratic":
        assert w.lemma == "dirichlet-approximation" and w.kind == "negative-value"
    if expr in GOLDEN_ANALYZE:
        # the golden report, recorded before the decomposition was shared
        assert obj == GOLDEN_ANALYZE[expr]
    else:
        assert "completion" in obj["shape"]


@st.composite
def leading_forms(draw):
    """c * prod f_j^m_j for small integer forms f_j of degree 1-3, of total
    degree 6; equal or reducible f_j give every profile of a sextic."""
    deg, A = 0, BivarPoly.const(draw(st.sampled_from([-2, -1, 1, 3])))
    while deg < 6:
        d = draw(st.integers(1, min(3, 6 - deg)))
        m = draw(st.integers(1, (6 - deg) // d))
        cs = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any))
        A = A * BinaryForm(d, cs).to_poly() ** m
        deg += d * m
    return form_of(A)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(leading_forms())
@example(form_of(parse("x^6 + y^6")))
@example(form_of(parse("(x^2 + y^2)^3")))
@example(form_of(parse("x^5*y")))
@example(form_of(parse("x^3*(x^3 + y^3)")))
@example(form_of(parse("x^4*(x^2 + y^2)")))
@example(form_of(parse("-(x - 2*y)^6")))
def test_leading_form_facts_behind_the_routes(A):
    # classify offers Dirichlet (which needs F6 positive-semi) only on MP1:
    # an MP0 or paper-gap leading form is never positive-semi; and it
    # normalizes the 4th- or 6th-power factor of MP2 and MP3 as a linear form
    profile = squarefree_profile(A)
    maxmult = max(i for i, _ in profile)
    if profile == [(1, 6)] or maxmult in (3, 5):
        assert definiteness(A) != "positive-semi"
    for i, b in squarefree_factors(A):
        if i in (4, 6):
            assert b.degree == 1


# -- unimodular normalization -------------------------------------------------


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (2, 3), (-3, 5), (7, -11), (4, 9)])
def test_unimodular_matrix(a, b):
    ell = BinaryForm(1, [Fraction(a), Fraction(b)])
    M = unimodular_matrix_for(ell)
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert det == 1
    # the linear form becomes a multiple of x under the substitution
    Fn = apply_matrix(ell.to_poly(), M)
    assert Fn.coeff(0, 1) == 0
    assert Fn.coeff(1, 0) != 0


def matrix_inverse(M):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if abs(det) != 1:
        raise ClassifyError("matrix is not unimodular")
    return [[M[1][1] * det, -M[0][1] * det], [-M[1][0] * det, M[0][0] * det]]


def test_apply_matrix_inverse_roundtrip():
    F = parse("x^6 + x^2*y^3 - x*y + 4")
    M = [[2, 1], [1, 1]]
    G = apply_matrix(F, M)
    assert apply_matrix(G, matrix_inverse(M)) == F


# -- gcd condition ------------------------------------------------------------


def test_gcd_condition():
    parts = decompose(parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5"))
    ok, g = gcd_condition(parts[6], parts[5])
    assert ok
    parts = decompose(parse("x^6 + x^5 + x^3"))
    ok, g = gcd_condition(parts[6], parts[5])
    assert not ok and g.to_poly() == parse("x^5")
    parts = decompose(parse("x^6 + y^6 + x*y"))  # F5 = 0: the gcd is F6
    ok, g = gcd_condition(parts[6], parts[5])
    assert not ok and g == BinaryForm(6, [1, 0, 0, 0, 0, 0, 1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=7),
    st.integers(1, 7),
)
@example([0], 1)
@example([0, 0, 0, 0, 0, 0, 0], 7)
@example([1, 0, 0], 3)
@example([1, 2, 0, 0, 0], 3)
@example([1, 2, 0, 0, 0], 4)
def test_xpow_div_matches_form_div(coeffs, k):
    form = BinaryForm(len(coeffs) - 1, coeffs)
    xk = BinaryForm(k, [1] + [0] * k)
    assert _xpow_div(form, k) == (form_div(xk, form) is not None)


# -- MP1 cubic completion -----------------------------------------------------


def test_cubic_square_completion():
    f = parse("x^3 + x*y^2 + y^3")
    F = f * f + parse("x^2") * f + parse("y") * f + parse("x*y + 7")
    comp = cubic_square_completion(F)
    # core = f + (x^2 + y)/2, so the remainder is x y + 7 - (x^2 + y)^2/4
    assert comp.core == f + parse("x^2 + y") * Fraction(1, 2)
    assert comp.remainder == parse("x*y + 7") - parse("(x^2 + y)^2") * Fraction(1, 4)
    assert comp.remainder.degree() <= 4


def test_cubic_completion_requires_divisibility():
    F = parse("(x^3 + x*y^2 + y^3)^2 + x^5")
    with pytest.raises(ClassifyError):
        cubic_square_completion(F)


# -- MP1 quadratic case over Q(sqrt k) ----------------------------------------


def test_quadratic_case_not_square():
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + (x^2 - 2*y^2)*x^3 + x^4 + x*y + 1")
    rep = quadratic_case_analysis(F, 2)
    assert not rep.vk_is_square
    assert any("not a square" in n for n in rep.notes)


def test_quadratic_case_square_branch():
    # engineer v_k to be a perfect square: F4 = (x^2 - 2 y^2) * q + multiple
    # simplest: g = x^2 + y^2, h = 0, F4 chosen so disc = 0
    # v(z) = 4k g(rt,1) z^2 + 0 + F4(rt,1); square iff F4(rt,1) = 0
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + (x^2 - 2*y^2)*x^2*y + (x^2 - 2*y^2)*y^2 + y^3")
    rep = quadratic_case_analysis(F, 2)
    # F5 = (x^2 - 2y^2) x^2 y -> h = x^2 y evaluated... just check it ran and
    # produced a definite verdict with exact data
    assert isinstance(rep.vk_is_square, bool)
    assert len(rep.v_coeffs) == 3 and len(rep.w_coeffs) == 4


@pytest.mark.parametrize("expr", [
    "(2*x^2 - y^2)^2*(x^2 + y^2) + (2*x^2 - y^2)*x^3 + x*y + 1",
    "(x^2 - 8*y^2)^2*(x^2 + y^2) + (x^2 - 8*y^2)*x^3 + x*y + 1",
])
def test_quadratic_case_scales_the_doubled_factor_to_x2_minus_ky2(expr):
    # x = X + t*Y, y = s*Y takes the doubled factor p x^2 + q x y + r y^2
    # to p (X^2 - k Y^2): the report is that of F composed with the
    # recorded substitution, apart from the substitution itself
    F = parse(expr)
    rep = quadratic_case_analysis(F, 2).to_json_obj()
    sub = rep.pop("substitution")
    assert sub != {"x": "x", "y": "y"}
    G = F.subs(parse(sub["x"]), parse(sub["y"]))
    again = quadratic_case_analysis(G, 2).to_json_obj()
    again.pop("substitution")
    assert again == rep


def test_quadratic_case_rejects_wrong_k():
    F = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + (x^2 - 2*y^2)*x^3")
    with pytest.raises(ClassifyError):
        quadratic_case_analysis(F, 3)


# -- exact divisions on int-stored forms --------------------------------------
#
# Form coefficients are ints where integral, so int / int would be a float;
# each case below has a doubled factor that is not already x^2 - k y^2 and
# would fail on a float (no .numerator, or a "1.0" in the substitution).


@pytest.mark.parametrize("coeffs,k", [
    ([1, 0, -2], 2), ([2, 0, -1], 2), ([1, 2, -1], 2), ([2, 2, -3], 7), ([3, 0, -2], 6),
    ([Fraction(2, 3), 0, Fraction(-1, 3)], 2), ([1, 2, 1], None), ([1, 0, 2], None),
])
def test_detect_pell_k_is_exact(coeffs, k):
    got = _detect_pell_k(BinaryForm(2, coeffs))
    assert got == k and type(got) is type(k)


@pytest.mark.parametrize("f,k,substitution", [
    ("x^2 + 2*x*y - y^2", 2, {"x": "x + (-1)*y", "y": "(1)*y"}),
    ("2*x^2 + 2*x*y - 3*y^2", 7, {"x": "x + (-1)*y", "y": "(2)*y"}),
    ("2*x^2 - y^2", 2, {"x": "x + (0)*y", "y": "(2)*y"}),
])
def test_quadratic_case_substitution_is_exact(f, k, substitution):
    F = parse(f"({f})^2*(x^2 + y^2) + ({f})*x^3 + x*y + 1")
    factors = dict(squarefree_factors(decompose(F)[6]))
    assert all(type(c) is int for c in factors[2].coefficients)
    assert _detect_pell_k(factors[2]) == k
    rep = quadratic_case_analysis(F, k)
    assert rep.substitution == substitution
    _assert_no_float(rep)


def _assert_no_float(obj, path="report"):
    """No float anywhere in a report or the exact objects it holds."""
    assert not isinstance(obj, float), path
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _assert_no_float(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, v in obj.items():
            _assert_no_float(v, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_no_float(v, f"{path}[{i}]")
    elif isinstance(obj, BivarPoly):
        _assert_no_float(obj._terms, f"{path}._terms")
    elif isinstance(obj, BinaryForm):
        _assert_no_float(obj.coefficients, f"{path}.coefficients")
    elif isinstance(obj, QuadExt):
        _assert_no_float([obj.a, obj.b], path)


@pytest.mark.parametrize("expr", [e for e, _ in CORPUS + ENGINELESS] + [
    "(x^2 + 2*x*y - y^2)^2*(x^2 + y^2) + x^5",
    "(2*x^2 + 2*x*y - 3*y^2)^2*(x^2 + y^2) + (2*x^2 + 2*x*y - 3*y^2)*x^3 + 1",
    "(2*x^3 + x*y^2 + 3*y^3)^2 + (2*x^3 + x*y^2 + 3*y^3)*(x^2 + y^2) + x^4",
    "(3*y^2 - x^3 + x*y + x^2)^2 - y + 5",
    "(2*x - 3*y)^4*(x^2 + y^2) + (2*x - 3*y)^2*x^3",
])
def test_classify_reports_hold_no_float(expr):
    _assert_no_float(classify(parse(expr)))


# -- MP2 ----------------------------------------------------------------------


def test_mp2_layers_reassemble():
    F = parse(
        "y^2*(2*x^4 - 3*x^2*y + 5*y^2) + x*y*(7*x^4 + 11*x^2*y - 13*y^2)"
        " + x^4*(x^2 + y^2) + x^3*y^2 + x*y + 3"
    )
    # x^4*y^2 of the last line adds to a2, so the a-layer read off F is
    # (a2, a1, a0) = (3, -3, 5) with discriminant 9 - 60 = -51
    sq = mp2_square_check(F)
    assert not sq.ok
    assert sq.reason == "a-layer not a perfect square (discriminant -51)"


def test_mp2_square_fixture_values():
    # a2=1, a1=-2, a0=1 -> (x^2 - y)^2
    F = parse("y^2*(x^4 - 2*x^2*y + y^2)")
    sq = mp2_square_check(F)
    assert sq.ok and sq.alpha2_ratio == 1

    # a2=1, a1=0, a0=1 -> not a square
    F = parse("y^2*(x^4 + y^2)")
    sq = mp2_square_check(F)
    assert not sq.ok

    # a2=4, a1=-4, a0=1 -> (2x^2 - y)^2
    F = parse("y^2*(4*x^4 - 4*x^2*y + y^2)")
    sq = mp2_square_check(F)
    assert sq.ok and sq.alpha2_ratio == Fraction(1, 2)


def test_mp2_alpha2_zero_dearth():
    F = parse("y^2*x^4 + x^6")
    sq = mp2_square_check(F)
    assert sq.ok and sq.fixed_x_dearth


def test_mp2_completion_rejects_a_heavy_remainder(monkeypatch):
    # a core built on x + 1 squares to terms of weight 7 that F lacks
    class Shifted(BivarPoly):
        @staticmethod
        def x():
            return BivarPoly.x() + 1

    monkeypatch.setattr(classify_mod, "BivarPoly", Shifted)
    F = parse("(y*(x^2 - y) + x*(x^2 - 2*y))^2")
    with pytest.raises(IdentityError, match="^MP2 square check: remainder has a term"):
        mp2_square_check(F)


@pytest.mark.parametrize("normal_form, text", [
    # F6 = x^6 + x^5 y is not a2 x^6
    (ecform_normalize, "(y^2 - x^3)^2 + x^5*y"),
    (ecform_normalize, "(y^2 - x^3)^2 + x^7"),
    (ecform_normalize, "x^3*y^2 + y^4"),
    # F6 = x^3 y^2 (x + y) is not x^4 times a quadratic
    (mp2_square_check, "y^2*(x^4 - 2*x^2*y + y^2) + x^3*y^3"),
    # x y^4 in F5 has weight 9 and lies in no layer
    (mp2_square_check, "y^2*(x^4 - 2*x^2*y + y^2) + x*y^4"),
    (mp2_square_check, "y^2*(x^4 - 2*x^2*y + y^2) + x^7"),
])
def test_normal_forms_reject_inputs_outside_their_shape(normal_form, text):
    # outside its shape a normal form could not keep the weight it promises;
    # that is the caller's input, not an internal fault
    with pytest.raises(ClassifyError, match=r"^not an MP[23] normal form: need a sextic"):
        normal_form(parse(text))


def test_mp2_completion_identity():
    core = parse("y*(x^2 - y) + x*(x^2 - 2*y)")
    for extra in ("x^2*y + 3", "x^4 + x^3 + x*y + y + 5", "0"):
        F = core * core + parse(extra)
        sq = mp2_square_check(F)
        assert sq.ok and sq.completion is not None
        # every extra term has weight i + 2j <= 6, so it is the remainder
        assert sq.completion.core == core and sq.completion.remainder == parse(extra)
        assert sq.completion.remainder.weighted_degree(1, 2) <= 6


# -- MP3 ----------------------------------------------------------------------


def _ec_promise(rec: ECRecord) -> bool:
    """What an ECRecord promises of G (docs/schemas.md): every monomial has
    weight 2i + 3j < 8, with x of weight 2 and y of weight 3, and there is
    no y^2 term."""
    return rec.G.weighted_degree(2, 3) < 8 and not rec.G.coeff(0, 2)


def _ec_back(rec: ECRecord) -> BivarPoly:
    """a (Y^2 - X^3 - b1 X - b0)^2 + G taken back to the input's coordinates
    through the inverse of the recorded map x = x_cx X + x_c0,
    y = y_cy Y + y_cx X + y_c0: the input polynomial when the record is
    right."""
    s = rec.substitution
    x, y = BivarPoly.x(), BivarPoly.y()
    X = (x - s["x_c0"]) * (1 / Fraction(s["x_cx"]))
    Y = (y - X * s["y_cx"] - s["y_c0"]) * (1 / Fraction(s["y_cy"]))
    W = Y * Y - X**3 - X * rec.b1 - rec.b0
    return W * W * rec.a + rec.G.subs(X, Y)


def test_mp3_shape_trivial():
    F = parse("(y^2 - x^3)^2")
    # the y -> y + x shear moves F off the tao shape onto the layer reads
    for H in (F, F.subs(BivarPoly.x(), BivarPoly.y() + BivarPoly.x())):
        rec = ecform_normalize(H)
        assert (rec.a, rec.b1, rec.b0) == (1, 0, 0)
        assert rec.G.is_zero() and not rec.x_flipped and _ec_back(rec) == H


def test_mp3_shape_reassembly():
    F = parse("(y^2 - x^3 - x)^2 + 1")
    for H in (F, F.subs(BivarPoly.x(), BivarPoly.y() + BivarPoly.x())):
        rec = ecform_normalize(H)
        assert (rec.a, rec.b1, rec.b0) == (1, 1, 0)
        assert rec.G == BivarPoly.const(1) and _ec_back(rec) == H


def test_mp3_shape_requires_x3_divides_f5():
    F = parse("x^6 + x^2*y^3 + y^4")
    with pytest.raises(ClassifyError, match=r"^x\^3 does not divide F5 "):
        ecform_normalize(F)


def test_mp3_core_and_flip():
    F = parse("(y^2 - x^3 - x)^2 + 2")
    rec = ecform_normalize(F)
    assert not rec.x_flipped and _ec_promise(rec) and _ec_back(rec) == F
    # a1 > 0 forces the x flip; the recorded map lands on the input
    Fflip = F.subs(-BivarPoly.x(), BivarPoly.y())
    rec2 = ecform_normalize(Fflip)
    assert rec2.x_flipped and _ec_promise(rec2) and _ec_back(rec2) == Fflip
    assert (rec2.a, rec2.b1, rec2.b0) == (rec.a, rec.b1, rec.b0)


def test_ecform_rejects_a_shifted_map(monkeypatch):
    # with x_c0 off by 1 the composition keeps x^5, x^2 y^2 and x y^2 terms
    # of weight >= 8 that no choice of a, b1, b0 cancels, so G breaks the
    # record's promise
    real = classify_mod._affine
    monkeypatch.setattr(classify_mod, "_affine",
                        lambda s: real(dict(s, x_c0=s["x_c0"] + 1)))
    with pytest.raises(IdentityError, match="^EC normal form: G has a term of weight"):
        ecform_normalize(parse("(y^2 - x^3 - x)^2 - y + 10"))


def test_mp3_proportionality_failure():
    F = parse("(y^2 - x^3)^2 + x*y^3")
    with pytest.raises(ClassifyError, match=r"^layers are not proportional to x\^3 - 1 y\^2 "
                       r"\(residual monomials \[\(1, 3\)\]\)"):
        ecform_normalize(F)


def _ecform_reference(F: BivarPoly) -> ECRecord:
    """The general path of ecform_normalize in closed form: a, b1 and b0 from
    the shear, shift and scale formulas, F composed with x -> -x first and
    the flip folded back into the substitution at the end, and G composed
    again when its y^2 drift moves b0.  The differential oracle of the
    one-composition path."""
    if not _xpow_div(decompose(F)[5], 3):
        raise ClassifyError("x^3 does not divide F5 (anisotropic witness applies)")
    aprime, a1, a0 = F.coeff(6, 0), F.coeff(3, 2), F.coeff(0, 4)
    if not aprime:
        raise ClassifyError("a2 = 0: leading coefficient vanished")
    disc = a1 * a1 - 4 * aprime * a0
    if disc or aprime < 0 or a0 <= 0:
        raise ClassifyError(
            "weighted lead form is not a perfect square with nonzero alpha1; "
            f"discriminant {disc}, a0 = {a0} (not arithmetically positive route)"
        )
    # x -> -x flips the signs of a1 and of the odd-x layers
    x_flipped = a1 > 0
    X, Y = BivarPoly.x(), BivarPoly.y()
    work_F = F.subs(-X, Y) if x_flipped else F
    alpha1 = -work_F.coeff(3, 2) / (2 * aprime)
    _require(alpha1 > 0, "MP3 core: alpha1 is not positive after the flip")
    # solve the betas from the x-heavy slot of each layer; the layers mix the
    # betas triangularly because squaring the core feeds beta products back
    # into the lighter slots (e.g. (beta1 xy)^2 lands in the x^2 y^2 slot)
    beta1 = work_F.coeff(4, 1) / (2 * aprime)
    beta2 = work_F.coeff(5, 0) / (2 * aprime)
    beta4 = (work_F.coeff(3, 1) / aprime - 2 * beta1 * beta2) / 2
    beta3 = (work_F.coeff(4, 0) / aprime - beta2 * beta2) / 2
    core = X**3 - Y * Y * alpha1 + X * Y * beta1 + X * X * beta2 + X * beta3 + Y * beta4
    residual = work_F - core * core * aprime
    stuck = [m for m in _MP3_SLOTS if residual.coeff(*m)]
    if stuck:
        raise ClassifyError(
            f"layers are not proportional to x^3 - {alpha1} y^2 "
            f"(residual monomials {stuck}); size-comparison witness applies"
        )
    # shear: y = y1 + (beta1 x + beta4)/(2 alpha1) turns the core into
    # x^3 - alpha1 y1^2 + b2' x^2 + b1' x + b0'
    b2p = beta2 + beta1 * beta1 / (4 * alpha1)
    b1p = beta3 + beta1 * beta4 / (2 * alpha1)
    b0p = beta4 * beta4 / (4 * alpha1)
    # shift: x = x1 - b2'/3 kills the x^2 term
    sh = -b2p / 3
    c1 = b1p + 3 * sh * sh + 2 * b2p * sh
    c0 = b0p + sh**3 + b2p * sh * sh + b1p * sh
    # scale: x1 = mu2 X, y1 = mu3 Y with mu2 = mu3 = alpha1
    mu2 = mu3 = alpha1
    a_scale = alpha1**3
    b1_out = c1 * mu2 / a_scale
    b0_out = c0 / a_scale
    a_out = aprime * a_scale * a_scale

    # total substitution (X, Y) -> (x, y)
    x_cx = mu2
    x_c0 = sh
    y_cy = mu3
    y_cx = beta1 * x_cx / (2 * alpha1)
    y_c0 = (beta1 * x_c0 + beta4) / (2 * alpha1)
    subst = {"x_cx": x_cx, "x_c0": x_c0, "y_cy": y_cy, "y_cx": y_cx, "y_c0": y_c0}

    xe = X * x_cx + BivarPoly.const(x_c0)
    ye = Y * y_cy + X * y_cx + BivarPoly.const(y_c0)

    def compute_G(b0v):
        W = Y * Y - X**3 - X * b1_out - BivarPoly.const(b0v)
        return work_F.subs(xe, ye) - W * W * a_out

    G = compute_G(b0_out)
    # absorb the y^2 drift of G into b0 (adding a constant to the core)
    lam = G.coeff(0, 2)
    if lam:
        eps = lam / (2 * a_out)
        b0_out = b0_out - eps
        G = compute_G(b0_out)
    heavy = sorted((i, j) for (i, j) in G.terms if 2 * i + 3 * j >= 6)
    if x_flipped:
        # fold the x -> -x pre-composition into the substitution so that the
        # recorded map lands in the coordinates of the input polynomial
        subst["x_cx"] = -subst["x_cx"]
        subst["x_c0"] = -subst["x_c0"]
    rec = ECRecord(
        a=a_out,
        b1=b1_out,
        b0=b0_out,
        G=G,
        substitution=subst,
        heavy_monomials=heavy,
        x_flipped=x_flipped,
    )
    _require(_ec_promise(rec), "EC normal form: G has a term of weight >= 8 or a y^2 term")
    return rec


_LIGHT = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1))  # 2i + 3j < 8


def _mp3_case(rng: random.Random) -> BivarPoly:
    """A seeded MP3 polynomial: a Tao shape a (y^2 - x^3 - b1 x - b0)^2 + g
    with deg g <= 2, g with or without its y^2 term; or a' core^2 plus
    light terms, about 15 % of them with one term in a layer slot (or
    x^2 y^3, off x^3 | F5) that breaks proportionality.  Half are flipped
    x -> -x."""
    X, Y = BivarPoly.x(), BivarPoly.y()

    def rat(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    def nonzero():
        return rat(1, 9) * rng.choice((1, -1))

    if rng.random() < 0.15:
        g = sum((X**i * Y**j * nonzero() for i, j in _LIGHT[:6] if rng.random() < 0.5),
                BivarPoly())
        if rng.random() < 0.5:
            g = g + Y * Y * nonzero()
        W = Y * Y - X**3 - X * rat(-9, 9) - BivarPoly.const(rat(-9, 9))
        F = W * W * rat(1, 6) + g
    else:
        alpha1 = rat(1, 12)
        b1, b2, b3, b4 = (rat(-9, 9) for _ in range(4))
        core = X**3 - Y * Y * alpha1 + X * Y * b1 + X * X * b2 + X * b3 + Y * b4
        F = core * core * rat(1, 6)
        for i, j in _LIGHT:
            if rng.random() < 0.5:
                F = F + X**i * Y**j * nonzero()
        if rng.random() < 0.15:
            i, j = rng.choice(_MP3_SLOTS + ((2, 3),))
            F = F + X**i * Y**j * nonzero()
    return F.subs(-X, Y) if rng.random() < 0.5 else F


def _tao_g(F: BivarPoly) -> BivarPoly | None:
    """g when F = a (y^2 - x^3 - b1 x - b0)^2 + g with a > 0 and deg g <= 2,
    a, b1 and b0 read off the y^4, x^4 and x^3 coefficients; else None."""
    a = F.coeff(0, 4)
    if a <= 0:
        return None
    X, Y = BivarPoly.x(), BivarPoly.y()
    W = Y * Y - X**3 - X * (F.coeff(4, 0) / (2 * a)) - BivarPoly.const(F.coeff(3, 0) / (2 * a))
    g = F - W * W * a
    return g if g.degree() <= 2 else None


def test_ecform_matches_closed_form_reference():
    """The record of the one-composition path, or its ClassifyError text,
    equals the closed-form reference's on 500 seeded MP3 polynomials, and
    the seeds reach every kind of outcome, Tao shapes with and without a
    y^2 term in g among them."""

    def outcome(normalize, F):
        try:
            return normalize(F).to_json_obj()
        except ClassifyError as exc:
            return str(exc)

    rng = random.Random(20261020)
    kinds = set()
    for _ in range(500):
        F = _mp3_case(rng)
        got = outcome(ecform_normalize, F)
        assert got == outcome(_ecform_reference, F), F.format()
        if isinstance(got, str):
            kinds.add(" ".join(got.split()[:3]))  # the error, without its numbers
        elif (g := _tao_g(F)) is not None:
            kinds.add("tao, g with y^2" if g.coeff(0, 2) else "tao")
        else:
            kinds.add("flipped" if got["x_flipped"] else "general")
    assert kinds == {
        "tao", "tao, g with y^2", "general", "flipped",
        "x^3 does not", "weighted lead form", "layers are not",
    }, kinds


# -- ECform -------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,a,b1,b0",
    [
        ("(y^2 - x^3 - x)^2 - y + 10", 1, 1, 0),
        ("(y^2 - x^3 - x)^2 - y + 100", 1, 1, 0),
        ("(y^2 - x^3 - 2*x - 3)^2 - y + 10", 1, 2, 3),
        ("(y^2 - x^3)^2 - y + 10", 1, 0, 0),
        ("3*(y^2 - x^3 - x - 1)^2 + x + 1", 3, 1, 1),
    ],
)
def test_ecform_taoshape(expr, a, b1, b0):
    F = parse(expr)
    rec = ecform_normalize(F)
    assert _ec_promise(rec) and _ec_back(rec) == F
    assert (rec.a, rec.b1, rec.b0) == (a, b1, b0)


def test_ecform_moves_the_y2_term_of_a_tao_shape_into_b0():
    # W^2 + y^2 = (W + 1/2)^2 + x^3 - x - 21/4 for W = y^2 - x^3 + x + 5:
    # the y^2 term goes into b0, and G keeps the weight-6 monomial x^3
    F = parse("(y^2 - x^3 + x + 5)^2 + y^2")
    rec = ecform_normalize(F)
    assert _ec_promise(rec) and _ec_back(rec) == F
    assert (rec.a, rec.b1, rec.b0) == (1, -1, Fraction(-11, 2))
    assert rec.G == parse("x^3 - x") - Fraction(21, 4)
    assert not rec.G.coeff(0, 2) and rec.heavy_monomials == [(3, 0)]


def test_ecform_general_shear():
    # build a general MP3 polynomial via an invertible rational substitution
    # of the Weierstrass square and check normalization recovers it
    X, Y = BivarPoly.x(), BivarPoly.y()
    W = Y * Y - X**3 - X * 2 - BivarPoly.const(5)
    F = W * W  # plain square, then disturb coordinates: x -> x, y -> y + x
    G = F.subs(X, Y + X)
    rec = ecform_normalize(G)
    assert _ec_promise(rec) and _ec_back(rec) == G


def test_ecform_epsilon_absorption():
    # a linear-in-y tail shifts b0 by eps = g_y/(2a); the record must still
    # keep its promise and map back onto F
    F = parse("(y^2 - x^3 - 2*x - 3)^2 - y + 10")
    rec = ecform_normalize(F)
    assert _ec_promise(rec) and _ec_back(rec) == F
    assert rec.b1 == 2


# -- exact square predicate vs numeric double-root check ----------------------


def test_square_predicate_matches_numeric():
    rng = random.Random(20240817)
    agree = 0
    for _ in range(100):
        a2 = rng.randint(1, 9)
        r = rng.randint(-5, 5)
        if rng.random() < 0.5:
            a1, a0 = -2 * a2 * r, a2 * r * r  # perfect square a2 (x^2 - r y)^2
        else:
            a1, a0 = rng.randint(-9, 9), rng.randint(-9, 9)
        F = BivarPoly({(4, 2): Fraction(a2), (2, 3): Fraction(a1), (0, 4): Fraction(a0)})
        sq = mp2_square_check(F)
        disc = a1 * a1 - 4 * a2 * a0
        numeric_square = abs(disc) < 1e-9 and a2 > 0 and a0 >= 0
        assert sq.ok == numeric_square
        agree += 1
    assert agree == 100


# Each case corrupts a normal form at a point upstream of its check (a wrong
# input, or for MP2 a wrong core, since a wrong input fails its shape test),
# on an input whose route is unchanged, and names the error the check raises:
# IdentityError from classify, ValueError from the weighted-cubic search.
NORMAL_FORM_FAULTS = r"""
import importlib
from sexticlab.forms import BinaryForm
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly, IdentityError
C = importlib.import_module('sexticlab.classify')
W = importlib.import_module('sexticlab.witness')
form_div, affine, apply_matrix = C.form_div, C._affine, C.apply_matrix

def heavier(term):
    # the route reads F6 of the input and F5, F4 of the normalized form, so
    # an added degree-6 term of high weight keeps it
    C.apply_matrix = lambda F, M: apply_matrix(F, M) + parse(term)

def mp1_cubic():
    # F5 / f comes out zero, so the core misses (x^2)/2
    C.form_div = lambda A, B: form_div(A, BinaryForm(5, [0] * 6) if B.degree == 5 else B)
    C.classify(parse('(x^3 + x*y^2 + y^3)^2 + (x^2 + y)*(x^3 + x*y^2 + y^3) + x*y + 7'))

def mp2():
    # a core built on x + 1 squares to terms of weight 7 that F lacks
    class Shifted(BivarPoly):
        x = staticmethod(lambda: BivarPoly.x() + 1)
    C.BivarPoly = Shifted
    C.classify(parse('y^2*(x^4 - 2*x^2*y + y^2) + x^5'))

def mp3():
    C._affine = lambda s: affine(dict(s, x_c0=s['x_c0'] + 1))
    C.classify(parse('(y^2 - x^3 - x)^2 - y + 10'))

def weighted_cubic():
    heavier('x^5*y')
    W.witness_for(parse('x^6 - x^2*y^2'))

for case, error in ((mp1_cubic, IdentityError), (mp2, IdentityError), (mp3, IdentityError),
                    (weighted_cubic, ValueError)):
    try:
        case()
        raise SystemExit('unchecked normal form accepted: ' + case.__name__)
    except error as exc:
        if type(exc) is not error:
            raise
    finally:
        C.form_div, C._affine, C.apply_matrix = form_div, affine, apply_matrix
        C.BivarPoly = BivarPoly
"""


def test_normal_form_checks_survive_optimize():
    # assert statements vanish under python -O; the checks must not, and no
    # ClassifyError handler may turn a failure into a note
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", NORMAL_FORM_FAULTS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
