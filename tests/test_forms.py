import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sexticlab.classify import apply_matrix
from sexticlab.forms import (
    BinaryForm,
    decompose,
    definiteness,
    form_div,
    form_gcd,
    real_roots,
    squarefree_factors,
    squarefree_profile,
)
from sexticlab import unipoly as up
from sexticlab.parser import parse


def form_of(p):
    """The BinaryForm with the terms of the homogeneous BivarPoly p."""
    d = max(p.degree(), 0)
    if any(i + j != d for i, j in p._terms):
        raise ValueError("not homogeneous")
    return BinaryForm(d, [p._terms.get((d - k, k), 0) for k in range(d + 1)])


def form(text):
    return form_of(parse(text))


def test_roundtrip_poly():
    f = form("x^2 - 2*x*y + 3*y^2")
    assert f.degree == 2
    assert f.to_poly() == parse("x^2 - 2*x*y + 3*y^2")
    assert f.eval(2, 1) == 4 - 4 + 3


def test_decompose():
    F = parse("x^6 + x^2*y^3 + x*y + 4")
    parts = decompose(F)
    assert parts[6].to_poly() == parse("x^6")
    assert parts[5].to_poly() == parse("x^2*y^3")
    assert parts[2].to_poly() == parse("x*y")
    assert parts[0].to_poly() == parse("4")
    assert parts[4].is_zero() and parts[3].is_zero() and parts[1].is_zero()
    assert decompose(F) is parts  # kept on F
    # results of + and * and of a substitution skip BivarPoly.__init__
    G = parse("x^3") * parse("x^3 - y^3") + parse("y")
    assert [p.to_poly() for p in decompose(G)] == [
        parse("0"), parse("y"), parse("0"), parse("0"), parse("0"), parse("0"),
        parse("x^6 - x^3*y^3"),
    ]
    H = apply_matrix(F, [[2, 1], [1, 1]])
    assert sum((p.to_poly() for p in decompose(H)), parse("0")) == H
    # past degree 6 the parts run to the degree of F
    assert [p.to_poly() for p in decompose(parse("x^7 + y"))] == [
        parse("0"), parse("y"), *[parse("0")] * 5, parse("x^7"),
    ]


def test_form_gcd_simple():
    a = form("x^2 - y^2")
    b = form("x^2 + 2*x*y + y^2")
    g = form_gcd(a, b)
    assert g.to_poly() == parse("x + y")


def test_form_gcd_with_y_content():
    a = form("x^2*y - y^3")  # y (x-y)(x+y)
    b = form("x*y^2 + y^3")  # y^2 (x + y)
    g = form_gcd(a, b)
    assert g.to_poly() == parse("x*y + y^2")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_gcd_contains_common_factor(ca, cb, cg):
    fa, fb = BinaryForm(len(ca) - 1, ca), BinaryForm(len(cb) - 1, cb)
    fg = BinaryForm(len(cg) - 1, cg)
    if fa.is_zero() or fb.is_zero() or fg.is_zero():
        return
    A = form_of(fa.to_poly() * fg.to_poly())
    B = form_of(fb.to_poly() * fg.to_poly())
    g = form_gcd(A, B)
    assert form_div(g, A) is not None
    assert form_div(g, B) is not None
    assert form_div(fg, g) is not None or g.degree >= fg.degree  # gcd contains fg


def test_form_div_exact():
    A = form("x + y")
    B = form("x^2 + 2*x*y + y^2")
    q = form_div(A, B)
    assert q.to_poly() == parse("x + y")
    assert form_div(form("x - y"), B) is None


X, Y = sympy.symbols("x y")


def to_sympy(A):
    return sum(sympy.Rational(c) * X ** (A.degree - k) * Y**k for k, c in enumerate(A.coefficients))


def primitive_up_to_sign(expr):
    """The primitive integer polynomial of expr, with the sign of a fixed
    term order, so that two gcds compare exactly."""
    P = sympy.Poly(expr, X, Y).primitive()[1]
    return -P if P.LC() < 0 else P


SPECIAL_FORMS = (
    [BinaryForm(d, [0] * (d + 1)) for d in range(4)]
    + [BinaryForm(0, [c]) for c in (1, -2, 3)]
    + [BinaryForm(d, [1] + [0] * d) for d in range(1, 4)]  # x^d
    + [BinaryForm(d, [0] * d + [1]) for d in range(1, 4)]  # y^d
)
INT_FORMS = st.one_of(
    st.sampled_from(SPECIAL_FORMS),
    st.integers(0, 3)
    .flatmap(lambda d: st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    .map(lambda cs: BinaryForm(len(cs) - 1, cs)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(INT_FORMS, INT_FORMS)
@example(BinaryForm(0, [2]), BinaryForm(3, [0, 0, 0, 0]))  # zero by a constant
@example(BinaryForm(2, [1, 0, 0]), BinaryForm(3, [1, 0, 0, 0]))  # x^2 | x^3
@example(BinaryForm(2, [0, 0, 1]), BinaryForm(3, [0, 0, 0, 1]))  # y^2 | y^3
@example(BinaryForm(1, [1, 0]), BinaryForm(2, [0, 0, 1]))  # x does not divide y^2
@example(BinaryForm(3, [1, 0, 0, 0]), BinaryForm(1, [0, 0]))  # zero by x^3
@example(BinaryForm(1, [1, 1]), BinaryForm(3, [1, 2, 1, 0]))  # x + y | x^3 + 2x^2y + xy^2
def test_form_arithmetic_matches_sympy(A, B):
    a, b = to_sympy(A), to_sympy(B)
    P = A * B
    assert P.degree == A.degree + B.degree and sympy.expand(to_sympy(P) - a * b) == 0
    if not (A.is_zero() and B.is_zero()):
        g = form_gcd(A, B)
        want = primitive_up_to_sign(sympy.gcd(a, b))
        assert primitive_up_to_sign(to_sympy(g)) == want
        assert g.degree == want.total_degree()
    if A.is_zero():
        with pytest.raises(ZeroDivisionError):
            form_div(A, B)
        return
    q = form_div(A, B)
    quo, rem = sympy.div(b, a, X, Y)
    if B.is_zero():
        # zero is divisible by every form; the quotient keeps the degree
        # difference, and degree 0 below it
        assert q == BinaryForm(max(B.degree - A.degree, 0), [0] * (max(B.degree - A.degree, 0) + 1))
    elif rem != 0:
        assert q is None
    else:
        assert q is not None and q.degree == B.degree - A.degree
        assert sympy.expand(to_sympy(q) - quo) == 0
    assert form_div(A, A * B) == B


def test_squarefree_profile():
    # x^3 y (x^2 + y^2): multiplicity 3 part is x (deg 1), mult 1 part deg 3
    A = form("x^5*y + x^3*y^3")
    prof = squarefree_profile(A)
    assert prof == [(1, 3), (3, 1)]
    assert sum(d * m for d, m in prof) == 6

    assert squarefree_profile(form("x^6 + y^6")) == [(1, 6)]
    assert squarefree_profile(form("x^6")) == [(6, 1)]


def test_squarefree_factors():
    A = form("x^2*y^4")
    fac = dict(squarefree_factors(A))
    assert fac[2].to_poly() == parse("x")
    assert fac[4].to_poly() == parse("y")


X_FORM, Y_FORM = BinaryForm(1, [1, 0]), BinaryForm(1, [0, 1])


@st.composite
def factored_forms(draw):
    """c x^a y^b times small integer forms of degree 1-2, each to the power
    1 or 2, so that x | A, y | A and repeated factors all occur."""
    A = BinaryForm(0, [draw(st.sampled_from([-6, -1, 1, 4]))])
    factors = [X_FORM] * draw(st.integers(0, 3)) + [Y_FORM] * draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        cs = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda cs: any(cs[:-1])))
        factors += [BinaryForm(len(cs) - 1, cs)] * draw(st.integers(1, 2))
    for f in factors:
        A = A * f
    return A


@settings(max_examples=300, deadline=None, derandomize=True)
@given(factored_forms())
@example(form("x^3*y^2 + x^2*y^3"))  # x^2 y^2 (x + y)
@example(form("-2*y"))
@example(form("6*x^2*y - 4*x*y^2"))  # content 2, first coefficient positive
@example(form("-3*x*y^2 + 9*y^3"))  # content 3, first coefficient negative
def test_squarefree_factors_are_primitive_with_positive_lead(A):
    P = BinaryForm(0, [1])
    for i, B in squarefree_factors(A):
        cs = B.coefficients
        assert all(c.denominator == 1 for c in cs)
        assert math.gcd(*(c.numerator for c in cs)) == 1
        assert next(c for c in cs if c) > 0
        for _ in range(i):
            P = P * B
    lc = form_div(P, A)  # A = lc * prod B_i^i
    assert lc is not None and lc.degree == 0 and not lc.is_zero()
    assert lc * P == A


def test_real_roots_flags():
    ivs, at_inf = real_roots(form("x^2 - 2*y^2"))
    assert len(ivs) == 2 and not at_inf
    ivs, at_inf = real_roots(form("x*y"))
    assert len(ivs) == 1 and at_inf  # root t=0 plus the (1,0) direction
    ivs, at_inf = real_roots(form("x^2 + y^2"))
    assert not ivs and not at_inf
    # real slopes in the factors x (multiplicity 1) and x - y (multiplicity
    # 2), listed in that order, each isolated on its own factor; y^3 gives
    # the (1, 0) direction
    ivs, at_inf = real_roots(form("x*(x - y)^2*y^3"))
    slopes = [[t for t in (0, 1) if iv.lo < t < iv.hi and not up.peval(iv.poly, t)] for iv in ivs]
    assert slopes == [[0], [1]] and at_inf


def test_definiteness_cases():
    assert definiteness(form("x^2 + y^2")) == "positive-definite"
    assert definiteness(form("-x^2 - y^2")) == "negative-definite"
    assert definiteness(form("x^2 - y^2")) == "indefinite"
    assert definiteness(form("x^2")) == "positive-semi"
    assert definiteness(form("-x^2")) == "negative-semi"
    assert definiteness(form("x*y")) == "indefinite"
    assert definiteness(form("x^3 + y^3")) == "indefinite"  # odd degree
    assert definiteness(form("x^6 + y^6")) == "positive-definite"
    assert definiteness(form("x^2*y^4")) == "positive-semi"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=7))
def test_definiteness_matches_sampling(cs):
    A = BinaryForm(len(cs) - 1, cs)
    if A.is_zero():
        return
    d = definiteness(A)
    vals = [A.eval(x, y) for x in range(-6, 7) for y in range(-6, 7) if x or y]
    if d == "positive-definite":
        assert all(v > 0 for v in vals)
    elif d == "negative-definite":
        assert all(v < 0 for v in vals)
    elif d == "positive-semi":
        assert all(v >= 0 for v in vals)
    elif d == "negative-semi":
        assert all(v <= 0 for v in vals)
    # indefinite: a sign change exists somewhere, possibly outside the grid


def test_real_root_count_matches_sympy():
    t = sympy.Symbol("t")
    A = form("x^3 - 2*x*y^2 + y^3")
    p = up.trim(A.coefficients[::-1])  # A(t, 1)
    expected = sympy.polys.polytools.count_roots(
        sympy.Poly(sum(sympy.Rational(c) * t**i for i, c in enumerate(p)), t)
    )
    ivs, at_inf = real_roots(A)
    assert len(ivs) == expected and not at_inf
