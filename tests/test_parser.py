from fractions import Fraction

import pytest
import sympy

from sexticlab.parser import ParseError, parse
from sexticlab.poly import BivarPoly


def test_basic_terms():
    assert parse("x") == BivarPoly.x()
    assert parse("y") == BivarPoly.y()
    assert parse("5") == BivarPoly.const(5)
    assert parse("-x") == -BivarPoly.x()


def test_precedence():
    assert parse("2*x + 3*y") == BivarPoly.x() * 2 + BivarPoly.y() * 3
    assert parse("x + y * y") == parse("x + y^2")
    assert parse("x * y ^ 2") == parse("x*(y^2)")
    assert parse("-x^2") == -parse("x^2")
    assert parse("(x + y)^2") == parse("x^2 + 2*x*y + y^2")


@pytest.mark.parametrize("text", [
    "x*-y^2", "x+-y^2", "-x^2*-y^2", "x*-2^2", "x - -y^2", "(x)*-(y)^2",
    "--x", "-(x + y)^3", "x^2*-y",
])
def test_unary_minus_binds_above_power_wherever_it_stands(text):
    # sympy, with ^ read as **, is the reference: -a^2 is -(a^2) in any position
    x, y = sympy.symbols("x y")
    ref = sympy.Poly(sympy.sympify(text.replace("^", "**")), x, y)
    assert parse(text) == BivarPoly({m: Fraction(str(c)) for m, c in ref.terms()})


def test_rational_literals():
    F = parse("1/2*x + 3/4")
    assert F.coeff(1, 0) == Fraction(1, 2)
    assert F.coeff(0, 0) == Fraction(3, 4)


def test_subtraction_chain():
    assert parse("x - y - 1") == BivarPoly.x() - BivarPoly.y() - 1


def test_nested_parens():
    assert parse("((x))") == BivarPoly.x()
    assert parse("(x - (y - 1))") == parse("x - y + 1")


def test_sextic_fixture():
    F = parse("(y^2-x^3-x)^2 - y + 10")
    assert F.degree() == 6
    assert F.eval(0, 0) == 10
    assert F.eval(1, 1) == 10  # (1-1-1)^2 - 1 + 10


def test_errors_have_positions():
    for bad in ("x y", "2x", "x^y", "x^(2)", "x^-2", "z + 1", "x +", "(x", "x^2^3"):
        with pytest.raises(ParseError):
            parse(bad)


def test_only_ascii_digits_are_numbers():
    # str.isdigit accepts '²' (which int() rejects) and '٣' (which int()
    # reads as 3); neither is a literal here
    for bad in ("x^²", "x^٣", "²", "٣*x", "x^2٣"):
        with pytest.raises(ParseError):
            parse(bad)


def test_error_mentions_position():
    try:
        parse("x + @")
    except ParseError as exc:
        assert "4" in str(exc) or "@" in str(exc)
    else:
        raise AssertionError("expected ParseError")


def test_whitespace_insensitive():
    assert parse(" x+y ") == parse("x + y")
