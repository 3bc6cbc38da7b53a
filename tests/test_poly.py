import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sexticlab.poly import BivarPoly
from sexticlab.parser import parse


def test_constructors_and_coeff():
    x, y = BivarPoly.x(), BivarPoly.y()
    F = x * x * 3 + y * Fraction(1, 2) - 7
    assert F.coeff(2, 0) == 3
    assert F.coeff(0, 1) == Fraction(1, 2)
    assert F.coeff(0, 0) == -7
    assert F.coeff(5, 5) == 0
    assert F.degree() == 2


def test_zero_and_identity():
    z = BivarPoly.zero()
    assert z.is_zero()
    assert z.degree() == -1
    x = BivarPoly.x()
    assert x + z == x
    assert x * BivarPoly.const(1) == x
    assert x - x == z


def test_arithmetic_matches_eval():
    F = parse("x^2*y - 3*x + y^2")
    G = parse("x*y + 5")
    for a in (-3, 0, 2):
        for b in (-1, 1, 4):
            assert (F + G).eval(a, b) == F.eval(a, b) + G.eval(a, b)
            assert (F * G).eval(a, b) == F.eval(a, b) * G.eval(a, b)
            assert (F - G).eval(a, b) == F.eval(a, b) - G.eval(a, b)
            assert (F**3).eval(a, b) == F.eval(a, b) ** 3


def test_eval_x_eval_y():
    F = parse("x^2*y + x*y^2 + 1")
    # eval_x(2) leaves a polynomial in y: 4y + 2y^2 + 1
    coeffs = F.eval_x(2)
    assert coeffs == [Fraction(1), Fraction(4), Fraction(2)]
    coeffs = F.eval_y(3)
    assert coeffs == [Fraction(1), Fraction(9), Fraction(3)]


def test_subs_composition():
    F = parse("x^2 + y")
    x, y = BivarPoly.x(), BivarPoly.y()
    G = F.subs(x + y, x * y)
    assert G == parse("(x+y)^2 + x*y")
    for a in (-2, 0, 3):
        for b in (-1, 2):
            assert G.eval(a, b) == F.eval(a + b, a * b)


def test_homogeneous_parts_sum():
    F = parse("x^6 + x^2*y^3 + x*y + 4")
    total = BivarPoly.zero()
    for d in range(F.degree() + 1):
        total = total + F.homogeneous_part(d)
    assert total == F
    assert F.homogeneous_part(6) == parse("x^6")
    assert F.homogeneous_part(5) == parse("x^2*y^3")


def test_swap_and_valuations():
    F = parse("x^2*y^3 + x^3*y^4")
    assert F.swap_vars() == parse("y^2*x^3 + y^3*x^4")
    assert F.x_valuation() == 2
    assert F.y_valuation() == 3


def test_content_primitive():
    F = parse("6*x + 9*y")
    assert F.content() == 3
    assert F.primitive() == parse("2*x + 3*y")


def test_format_parses_back():
    F = parse("-3*x^2*y + 1/2*y^3 - x + 7")
    assert parse(F.format()) == F
    assert parse(BivarPoly.zero().format()) == BivarPoly.zero()


def test_json_roundtrip():
    F = parse("x^2*y - 1/3*y + 5")
    obj = F.to_json_obj()
    blob = json.dumps(obj)
    assert BivarPoly.from_json_obj(json.loads(blob)) == F


small_rats = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    small_rats,
    max_size=6,
).map(BivarPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(F, G, H):
    assert F + G == G + F
    assert F * G == G * F
    assert (F + G) * H == F * H + G * H
    assert (F * G) * H == F * (G * H)


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-5, 5), st.integers(-5, 5))
def test_format_eval_consistency(F, a, b):
    assert parse(F.format()) == F
    G = BivarPoly.from_json_obj(F.to_json_obj())
    assert G.eval(a, b) == F.eval(a, b)
