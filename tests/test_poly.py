import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sexticlab import poly as poly_mod
from sexticlab.classify import _affine, apply_matrix
from sexticlab.poly import BivarPoly, KernelMismatchError
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


def test_subs_composition():
    F = parse("x^2 + y")
    x, y = BivarPoly.x(), BivarPoly.y()
    G = F.subs(x + y, x * y)
    assert G == parse("(x+y)^2 + x*y")
    for a in (-2, 0, 3):
        for b in (-1, 2):
            assert G.eval(a, b) == F.eval(a + b, a * b)


def homogeneous_part(F, d):
    """The terms of F of total degree d."""
    return BivarPoly({t: c for t, c in F._terms.items() if t[0] + t[1] == d})


def test_homogeneous_parts_sum():
    F = parse("x^6 + x^2*y^3 + x*y + 4")
    total = BivarPoly.zero()
    for d in range(F.degree() + 1):
        total = total + homogeneous_part(F, d)
    assert total == F
    assert homogeneous_part(F, 6) == parse("x^6")
    assert homogeneous_part(F, 5) == parse("x^2*y^3")


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


# the kernel against Fraction evaluation: degree <= 6 in each term's total,
# rational coefficients, coordinates of either sign and beyond 2^64
sextic_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda t: t[0] + t[1] <= 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    max_size=10,
).map(BivarPoly)
coords = st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sextic_polys, coords, coords)
def test_kernel_matches_fraction_eval(F, a, b):
    K = F.kernel()
    assert K(a, b) == K.D * F.eval(a, b)
    assert Fraction(K(a, b), K.D) == F.eval(a, b)
    assert F.kernel() is K  # compiled once per polynomial object


def termwise_eval(terms, x, y):
    """The Fraction evaluation BivarPoly.eval replaced, kept as its oracle:
    c * x**i * y**j summed over a dict {(i, j): Fraction c}, with Fraction
    powers."""
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for (i, j), c in terms.items():
        total += c * x**i * y**j
    return total


# integral and rational coordinates up to |x| ~ 10^40, passed as int or Fraction
huge = st.one_of(
    st.integers(-40, 40),
    st.integers(-(10**40), 10**40),
    st.integers(-(10**40), 10**40).map(Fraction),
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sextic_polys, huge, huge)
def test_eval_matches_termwise_formula(F, a, b):
    v = F.eval(a, b)
    assert type(v) is Fraction
    assert v == termwise_eval(F.terms, a, b)


def test_kernel_denominator_and_integrality():
    F = parse("1/2*x^2 + 1/3*y + 1/6")
    K = F.kernel()
    assert K.D == 6
    for a in range(-4, 5):
        for b in range(-4, 5):
            v = K(a, b)
            assert (v % K.D == 0) == (F.eval(a, b).denominator == 1)


def test_kernel_compile_check_rejects_corrupted_coefficient(monkeypatch):
    rows_of = poly_mod._kernel_rows

    def corrupted(terms, D):
        rows = [list(r) for r in rows_of(terms, D)]
        rows[-1][-1] += 1  # the constant term of D*F
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(poly_mod, "_kernel_rows", corrupted)
    F = parse("x^6 + 3/2*x^2*y^3 + y^6 - 7")
    with pytest.raises(KernelMismatchError):
        F.kernel()
    assert F._kernel is None  # a rejected kernel is never cached


def test_kernel_compile_check_runs_the_column_horner(monkeypatch):
    # a Horner that density counting reads (values), wrong off the y = 0
    # row only, is caught when the kernel is compiled
    values = poly_mod.IntKernel.values

    def corrupted(self, x, ys):
        return [v + (y == 1) for y, v in zip(ys, values(self, x, ys))]

    monkeypatch.setattr(poly_mod.IntKernel, "values", corrupted)
    F = parse("x^6 + 3/2*x^2*y^3 + y^6 - 7")
    with pytest.raises(KernelMismatchError):
        F.kernel()
    assert F._kernel is None


def test_kernel_compile_check_rejects_excess_degree(monkeypatch):
    # x^2 + x(x-1)(x-2) agrees with x^2 on the grid 0..2, so only the
    # degree bound on the rows can reject it
    F = parse("x^2 + y^2")
    rows = F.kernel().rows
    assert rows[-1] == (1, 0, 0)
    bad = rows[:-1] + ((1, -2, 2, 0),)
    assert [poly_mod.IntKernel(1, bad)(x, y) for x in range(3) for y in range(3)] == [
        F.kernel()(x, y) for x in range(3) for y in range(3)
    ]
    monkeypatch.setattr(poly_mod, "_kernel_rows", lambda terms, D: bad)
    with pytest.raises(KernelMismatchError):
        parse("x^2 + y^2").kernel()


def test_kernel_compile_check_rejects_excess_total_degree(monkeypatch):
    # x(x-1)y(y-1) vanishes on the triangle i + j <= 2 and fits the 3 x 3
    # rectangle of x^2 + y^2, so only the total-degree bound can reject it
    F = parse("x^2 + y^2")
    bad = poly_mod._kernel_rows(parse("x^2 + y^2 + x*(x - 1)*y*(y - 1)").terms, 1)
    assert len(bad) == 3 and all(len(row) <= 3 for row in bad)
    triangle = [(x, y) for x in range(3) for y in range(3 - x)]
    assert [poly_mod.IntKernel(1, bad)(x, y) for x, y in triangle] == [
        F.kernel()(x, y) for x, y in triangle
    ]
    monkeypatch.setattr(poly_mod, "_kernel_rows", lambda terms, D: bad)
    G = parse("x^2 + y^2")
    with pytest.raises(KernelMismatchError):
        G.kernel()
    assert G._kernel is None


def test_kernel_checks_the_staircase_only(monkeypatch):
    # points (x, y) with x <= deg_x, y <= deg_y and x + y <= deg F
    real = BivarPoly.eval
    seen = []
    monkeypatch.setattr(BivarPoly, "eval", lambda self, x, y: seen.append((x, y)) or real(self, x, y))
    for expr, points in (("x^6 + y^6", 28), ("x^2*y^4 + x^6 + 1", 25), ("x^3*y^3", 16)):
        seen.clear()
        parse(expr).kernel()
        assert len(seen) == len(set(seen)) == points, expr


def _times(A, B):
    """(term, coefficient) pairs of the product A * B, not yet summed."""
    return [((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in A.terms.items() for (i2, j2), c2 in B.terms.items()]


def _like_public(result, pairs):
    """result equals the public constructor's polynomial of pairs in every
    respect: terms, no zero or non-Fraction coefficient, equality, hash."""
    ref = BivarPoly(pairs)
    assert type(result) is BivarPoly
    assert result.terms == ref.terms
    assert sorted(result.terms.items()) == sorted(ref.terms.items())
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert all(type(i) is int and type(j) is int for i, j in result.terms)
    assert result == ref and ref == result
    assert hash(result) == hash(ref)


# small integer coefficients, so sums and products cancel often
cancelling = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-2, 2).map(Fraction), small_rats),
    max_size=5,
).map(BivarPoly)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cancelling, cancelling, st.one_of(st.integers(-3, 3), small_rats), st.integers(0, 3))
def test_arithmetic_results_match_public_constructor(F, G, s, n):
    Ft, Gt = list(F.terms.items()), list(G.terms.items())
    neg = [(t, -c) for t, c in Gt]
    _like_public(F + G, Ft + Gt)
    _like_public(F - G, Ft + neg)
    _like_public((F + G) - G, Ft + Gt + neg)
    _like_public(-F, [(t, -c) for t, c in Ft])
    _like_public(F * G, _times(F, G))
    _like_public(F * s, [(t, c * s) for t, c in Ft])
    _like_public(s * F + F, [(t, c * s) for t, c in Ft] + Ft)
    power = BivarPoly.const(1)
    for _ in range(n):
        power = BivarPoly(_times(power, F))
    _like_public(F**n, power.terms.items())
    # full cancellation leaves the zero polynomial, equal and hashed as one
    _like_public(F - F, [])
    _like_public(F + (-F), [])
    assert (F - F).is_zero() and (F - F).degree() == -1
    assert hash(F - F) == hash(BivarPoly()) and F - F == 0


# -- int storage against a pure-Fraction reference ----------------------------
#
# The reference works on plain dicts {(i, j): Fraction}, never on BivarPoly,
# so it shares no code with the int-or-Fraction storage it checks.


def _ref_sum(*dicts):
    out = {}
    for d in dicts:
        for t, c in d.items():
            out[t] = out.get(t, Fraction(0)) + c
    return {t: c for t, c in out.items() if c}


def _ref_neg(A):
    return {t: -c for t, c in A.items()}


def _ref_mul(A, B):
    return _ref_sum(*({(i1 + i2, j1 + j2): c1 * c2} for (i1, j1), c1 in A.items()
                      for (i2, j2), c2 in B.items()))


def _ref_pow(A, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, A)
    return out


def _ref_subs(A, X, Y):
    return _ref_sum(*(_ref_mul(_ref_mul(_ref_pow(X, i), _ref_pow(Y, j)), {(0, 0): c})
                      for (i, j), c in A.items()))


def _matches_ref(P, ref):
    """P holds exactly ref: equal Fraction terms at the accessors, ints stored
    for the integral coefficients and Fractions for the rest, and the hash
    and equality of the public constructor's polynomial of ref."""
    assert P.terms == ref
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in P._terms.values())
    _like_public(P, ref.items())


def _ref_dicts(coeffs, top, size):
    return st.dictionaries(
        st.tuples(st.integers(0, top), st.integers(0, top)), coeffs, max_size=size
    ).map(lambda d: {t: c for t, c in d.items() if c})


# integral polynomials (all ints in storage) and rational ones (mixed)
integral_coeffs = st.integers(-6, 6).map(Fraction)
mixed_coeffs = st.one_of(integral_coeffs, small_rats)
ref_dicts = st.one_of(_ref_dicts(integral_coeffs, 3, 5), _ref_dicts(mixed_coeffs, 3, 5))
small_ref_dicts = st.one_of(_ref_dicts(integral_coeffs, 2, 3), _ref_dicts(mixed_coeffs, 2, 3))
points = st.one_of(st.integers(-9, 9), small_rats, st.integers(-(10**30), 10**30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ref_dicts, ref_dicts, small_ref_dicts, small_ref_dicts, st.integers(0, 3),
       points, points)
def test_int_storage_matches_fraction_reference(A, B, X, Y, n, a, b):
    F, G = BivarPoly(A), BivarPoly(B)
    _matches_ref(F, A)
    _matches_ref(F + G, _ref_sum(A, B))
    _matches_ref(F - G, _ref_sum(A, _ref_neg(B)))
    _matches_ref(F * G, _ref_mul(A, B))
    _matches_ref(F**n, _ref_pow(A, n))
    _matches_ref(F.subs(BivarPoly(X), BivarPoly(Y)), _ref_subs(A, X, Y))
    for P, ref in ((F, A), (F * G, _ref_mul(A, B))):
        v = P.eval(a, b)
        assert type(v) is Fraction and v == termwise_eval(ref, a, b)


def test_public_accessors_give_fractions_on_integral_input():
    from sexticlab.forms import BinaryForm, decompose

    F = parse("(2*x - y)^6 + 3")
    assert F._terms and all(type(c) is int for c in F._terms.values())
    assert type(F.coeff(6, 0)) is Fraction and F.coeff(6, 0) == 64
    assert type(F.coeff(5, 5)) is Fraction and F.coeff(5, 5) == 0
    assert all(type(c) is Fraction for c in F.terms.values())
    assert type(F.eval(1, 1)) is Fraction and F.eval(1, 1) == 4
    assert type(F.eval(Fraction(1, 2), 1)) is Fraction and F.eval(Fraction(1, 2), 1) == 3
    # int / int would be a float; the accessors keep such divisions exact
    assert F.coeff(6, 0) / 128 == Fraction(1, 2)
    # forms store their coefficients as BivarPoly does: int where integral,
    # else Fraction, never float
    G = F + BivarPoly.monomial(5, 0, Fraction(1, 3))
    for P in (F, G):
        for A in decompose(P):
            assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                       for c in A.coefficients)
    assert decompose(F)[6].coefficients[0] == 64 and decompose(F)[0].coefficients == [3]
    assert decompose(G)[5].coefficients == [Fraction(1, 3), 0, 0, 0, 0, 0]
    assert BinaryForm(1, [Fraction(4, 2), "1/3"]).coefficients == [2, Fraction(1, 3)]
    for bad in ([0.5, 1], [1, 2.0]):
        with pytest.raises(TypeError):
            BinaryForm(1, bad)
    with pytest.raises(TypeError):
        BivarPoly({(1, 0): 0.5})
    # an exponent is an int, never truncated from a float or read off a bool
    for bad in ({(1.5, 0): 1}, {(0, 2.0): 1}, {(True, 0): 1}, [((1, Fraction(2)), 1)]):
        with pytest.raises(TypeError):
            BivarPoly(bad)


# -- fast paths against their Fraction oracles --------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sextic_polys, coords, st.lists(coords, min_size=2, max_size=6))
def test_kernel_call_matches_column_values(F, a, ys):
    # a column of several points, as density counting reads it, against
    # point calls and exact evaluation, at +-y and at x = +-a
    K = F.kernel()
    ys = ys + [-y for y in ys]
    for x in (a, -a):
        col = K.values(x, ys)
        assert col == [K.D * F.eval(x, y) for y in ys]
        assert col == [K(x, y) for y in ys]


# columns whose degree in y drops at some x (the top row of
# x^2*y^4 + x^6 + 1 vanishes at x = 0), constants and the zero polynomial
column_polys = st.one_of(
    sextic_polys,
    st.sampled_from(["x^2*y^4 + x^6 + 1", "1/3*x*y^6 - 2*y + 3", "5", "-7/3", "0"]).map(parse),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(column_polys, st.integers(-6, 6), coords, st.sampled_from([1, 2, -1, -3]))
@example(parse("x^2*y^4 + x^6 + 1"), 0, -4, 1)
@example(parse("1/3*x*y^6 - 2*y + 3"), 0, 5, -1)
@example(parse("0"), 3, 0, 1)
def test_kernel_values_on_a_range_match_fraction_eval(F, x, a, step):
    # a range column takes Horner at its first d + 1 points and differences
    # after them; lengths 0..3 deg + 2 run both sides of that switch
    K = F.kernel()
    for n in range(3 * max(F.degree(), 0) + 3):
        ys = range(a, a + n * step, step)
        assert K.values(x, ys) == [K.D * F.eval(x, y) for y in ys], (F, x, ys)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(small_ref_dicts, ref_dicts),
       st.integers(-5, 5), st.integers(-5, 5), small_rats)
def test_pow_matches_repeated_multiplication(A, a, b, c):
    x, y = BivarPoly.x(), BivarPoly.y()
    for F in (BivarPoly(A), x * a + y * b, x * c + y * a + b):
        power = BivarPoly.const(1)
        for n in range(9):
            P = F**n
            assert P == power and P.terms == power.terms and hash(P) == hash(power)
            power = power * F


def test_degrees_are_kept_and_match_the_terms():
    x, y = BivarPoly.x(), BivarPoly.y()
    for F in [BivarPoly(), BivarPoly.const(3), x**3 * y + y**2, (x + y) ** 4 - x**4, x * y - x * y]:
        want = tuple(max((t[v] for t in F.terms), default=-1) for v in (0, 1))
        assert (F.weighted_degree(1, 0), F.weighted_degree(0, 1)) == want
        assert F.eval(2, 3) == sum(c * 2**i * 3**j for (i, j), c in F.terms.items())
        assert F._degs == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ref_dicts, st.integers(0, 4), st.integers(0, 4))
@example({}, 2, 3)
@example({(0, 0): Fraction(5)}, 0, 0)
def test_weighted_degree_is_the_largest_term_weight(A, wx, wy):
    F = BivarPoly(A)
    want = -1
    for i, j in A:
        want = max(want, wx * i + wy * j)
    assert F.weighted_degree(wx, wy) == want
    assert F.weighted_degree(1, 1) == F.degree()


# -- composition and evaluation at sextic size --------------------------------
#
# Every result is compared with the Fraction reference on plain dicts, so an
# edit to the dict product, the order in which terms are summed or the
# dropping of cancelled terms shows as a wrong term, a stored zero, a
# Fraction left where an int belongs or a changed hash or output text.


def _sextic_dicts(coeffs):
    return st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda t: t[0] + t[1] <= 6),
        coeffs, max_size=28,
    ).map(lambda d: {t: c for t, c in d.items() if c})


sextic_dicts = st.one_of(_sextic_dicts(integral_coeffs), _sextic_dicts(mixed_coeffs))


def _nonzero(pairs):
    return {t: Fraction(c) for t, c in pairs if c}


def _composes_like_ref(P, A, X, Y):
    ref = _ref_subs(A, X, Y)
    _matches_ref(P, ref)
    assert P.format() == BivarPoly(ref).format()
    assert P.to_json_obj() == BivarPoly(ref).to_json_obj()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sextic_dicts, st.lists(st.integers(-2, 2), min_size=4, max_size=4))
@example({}, [1, 2, -1, 0])
@example({(6, 0): Fraction(1), (0, 6): Fraction(1, 2), (0, 0): Fraction(-3)}, [0, 0, 1, 2])
@example({(6, 0): Fraction(1), (3, 3): Fraction(-2)}, [1, 1, 1, 1])
def test_apply_matrix_matches_fraction_reference(A, m):
    X = _nonzero((((1, 0), m[0]), ((0, 1), m[1])))
    Y = _nonzero((((1, 0), m[2]), ((0, 1), m[3])))
    _composes_like_ref(apply_matrix(BivarPoly(A), [m[:2], m[2:]]), A, X, Y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sextic_dicts, st.lists(small_rats, min_size=5, max_size=5),
       st.sampled_from(["affine", "constant x", "zero x"]))
@example({}, [Fraction(1, 2), 1, 3, Fraction(-1, 3), 2], "affine")
def test_affine_composition_matches_fraction_reference(A, coeffs, shape):
    # the shape of ECRecord's substitution: x = x_cx X + x_c0,
    # y = y_cy Y + y_cx X + y_c0, here with any small rational coefficients
    x_cx, x_c0, y_cy, y_cx, y_c0 = coeffs
    if shape != "affine":
        x_cx = 0
    if shape == "zero x":
        x_c0 = 0
    xe, ye = _affine({"x_cx": x_cx, "x_c0": x_c0, "y_cy": y_cy, "y_cx": y_cx, "y_c0": y_c0})
    X = _nonzero((((1, 0), x_cx), ((0, 0), x_c0)))
    Y = _nonzero((((0, 1), y_cy), ((1, 0), y_cx), ((0, 0), y_c0)))
    _composes_like_ref(BivarPoly(A).subs(xe, ye), A, X, Y)


# integers and Fractions of about 100 bits, of either sign
bits100 = st.integers(2**99, 2**100)
signed100 = st.one_of(bits100, bits100.map(lambda v: -v))
points100 = st.one_of(signed100, st.builds(Fraction, signed100, bits100))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sextic_dicts, points100, points100)
@example({}, 2**100, -(2**99))
def test_eval_matches_termwise_at_100_bit_points(A, a, b):
    F = BivarPoly(A)
    v = F.eval(a, b)
    assert type(v) is Fraction and v == termwise_eval(A, a, b)
    # the second call reads the scaled coefficients kept by the first
    assert F._scaled is not None and F.eval(a, b) == v
