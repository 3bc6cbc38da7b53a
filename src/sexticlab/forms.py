"""Binary forms: homogeneous bivariate polynomials of declared degree.

Coefficient convention: coefficients[k] multiplies x^(d-k) y^k, so the
coefficient list, read lowest power first, is the polynomial A(1, y).  A
coefficient is stored as BivarPoly stores one: an int when it is integral,
else a Fraction, never a float.  A caller that divides two coefficients
makes the division exact (Fraction(a, b)), since int / int is a float.  Form
arithmetic is arithmetic on these lists in `unipoly`: the product of two
forms is the product of their lists, the exact quotient is one division of
them, and the gcd is the gcd of the lists times the common power of x.
Provides the homogeneous decomposition of a BivarPoly and one square-free
factorization per form: the primitive factor B_i of each multiplicity i,
found by Yun's algorithm on the x-dehomogenization A(t, 1), with the
isolating intervals of its real roots (the slopes t = x/y).  The square-free
profile, the factors, the real root directions and the exact definiteness of
a form are all read off that one record.  A form is never changed after
construction, so the record is computed once per form object, on first use."""

from __future__ import annotations

from fractions import Fraction

from .poly import BivarPoly, IdentityError, _int_or_rat
from . import unipoly as up
from .unipoly import IsolatingInterval


class BinaryForm:
    """Homogeneous form of fixed degree; each coefficient an int where it is
    integral, else a Fraction (a float raises TypeError)."""

    __slots__ = ("degree", "coefficients", "_yun", "_floor")

    def __init__(self, degree: int, coefficients):
        coefficients = [c if type(c) is int else _int_or_rat(c) for c in coefficients]
        if len(coefficients) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        self.degree = degree
        self.coefficients = coefficients
        self._yun = None
        self._floor = None  # density.certified_form_floor's bound, on first use

    def to_poly(self) -> BivarPoly:
        d = self.degree
        return BivarPoly({(d - k, k): c for k, c in enumerate(self.coefficients) if c})

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def eval(self, x, y) -> Fraction:
        # the coefficient list is A(1, y), so A(x, y) is its homogenized sum
        return Fraction(up.hom_eval(self.coefficients, y, x))

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return _form(up.pmul(self.coefficients, other.coefficients), self.degree + other.degree)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"BinaryForm({self.degree}, {self.to_poly().format()})"


def decompose(F: BivarPoly) -> tuple[BinaryForm, ...]:
    """The homogeneous parts (F_0, ..., F_n) of F, n = max(6, deg F).

    Computed on first use and kept on F, so every caller handed the same
    polynomial shares one set of forms, and each form its one Yun
    decomposition.  The tuple and its forms are shared: do not change them."""
    if F._parts is None:
        terms = F._terms
        F._parts = tuple(
            BinaryForm(d, [terms.get((d - k, k), 0) for k in range(d + 1)])
            for d in range(max(6, F.degree()) + 1)
        )
    return F._parts


def _form(p: list, degree: int) -> BinaryForm:
    """The degree-`degree` form whose list A(1, y) is p (len(p) <= degree + 1)."""
    return BinaryForm(degree, p + [0] * (degree + 1 - len(p)))


def form_gcd(A: BinaryForm, B: BinaryForm) -> BinaryForm:
    """Primitive-integer gcd with positive leading coefficient.

    e = deg A - deg A(1, y) is the power of x dividing A, and gcd(A, B) is
    x^min(eA, eB) times the homogenized gcd of the lists A(1, y), B(1, y).
    """
    if A.is_zero() and B.is_zero():
        raise ValueError("gcd of two zero forms")
    if A.is_zero():
        return _canonical(B)
    if B.is_zero():
        return _canonical(A)
    pa, pb = up.trim(list(A.coefficients)), up.trim(list(B.coefficients))
    e = min(A.degree - up.pdeg(pa), B.degree - up.pdeg(pb))
    g = up.pgcd(pa, pb)
    return _canonical(_form(g, up.pdeg(g) + e))


def _canonical(A: BinaryForm) -> BinaryForm:
    """Primitive integer coefficients, first nonzero coefficient positive."""
    if A.is_zero():
        return A
    p = up.primitive(list(A.coefficients))
    lead = next(c for c in p if c)
    if lead < 0:
        p = [-c for c in p]
    return BinaryForm(A.degree, p)


def form_div(A: BinaryForm, B: BinaryForm):
    """Exact quotient B / A as a BinaryForm, or None if not divisible.

    A divides B when A(1, y) divides B(1, y) with a quotient of degree at
    most deg B - deg A, the rest of the quotient being a power of x.  The
    zero form is divisible by every form, with the zero quotient of degree
    max(deg B - deg A, 0)."""
    if A.is_zero():
        raise ZeroDivisionError("division by zero form")
    q, r = up.pdivmod(B.coefficients, up.trim(list(A.coefficients)))
    dq = B.degree - A.degree
    if r or (q and up.pdeg(q) > dq):
        return None
    return _form(q, max(dq, 0))


def _factorization(A: BinaryForm) -> list:
    """[(i, B_i, roots_i)] for the nonzero form A, sorted by multiplicity i:
    A = lc * prod B_i^i with each B_i a primitive square-free integer form
    whose first nonzero coefficient is positive, and roots_i the isolating
    intervals of the real roots of B_i(t, 1).

    Yun's algorithm runs in integers, on the primitive form of the
    x-dehomogenization.  Each factor is a primitive int list with a positive
    lead: the root isolation takes it as it is, and reversed it is the
    coefficient list of B_i.  When y^m || A, y joins the multiplicity-m
    factor.  Multiplicities computed over Q are valid over the algebraic
    closure in characteristic 0.  Computed on first use and kept on A."""
    if A._yun is None:
        p = up.trim(A.coefficients[::-1])  # A(t, 1), lowest power first
        m = A.degree - up.pdeg(p)  # y^m || A
        yun = {i: b for i, b in enumerate(up.yun_decomposition(p), start=1) if up.pdeg(b) >= 1}
        if m:
            yun.setdefault(m, [1])
        record = []
        for i, b in sorted(yun.items()):
            # the reversed list is B_i(1, y); a leading 0 multiplies by y
            B = BinaryForm(up.pdeg(b) + (i == m), [0] * (i == m) + b[::-1])
            record.append((i, B, up.isolate_real_roots(b) if up.pdeg(b) >= 1 else []))
        if sum(i * b.degree for i, b, _ in record) != A.degree:
            raise IdentityError("squarefree factors: multiplicities do not add up to the degree")
        A._yun = record
    return A._yun


def squarefree_profile(A: BinaryForm) -> list[tuple[int, int]]:
    """[(multiplicity i, degree of B_i)] of the square-free factorization,
    sorted by multiplicity."""
    if A.is_zero():
        raise ValueError("zero form")
    return [(i, b.degree) for i, b, _ in _factorization(A)]


def squarefree_factors(A: BinaryForm) -> list[tuple[int, BinaryForm]]:
    """[(multiplicity, B_i)] with A = lc * prod B_i^i, B_i primitive forms.

    The y factor (when y^m || A) is merged into the multiplicity-m factor.
    """
    if A.is_zero():
        raise ValueError("zero form")
    return [(i, b) for i, b, _ in _factorization(A)]


def real_roots(A: BinaryForm) -> tuple[list[IsolatingInterval], bool]:
    """Isolating intervals for the real slopes t = x/y of A(t, 1), plus a flag
    for the projective root (1:0) (i.e. y | A).

    The intervals are listed factor by factor in order of multiplicity, and
    by position within a factor; each isolates its root on that factor."""
    if A.is_zero():
        raise ValueError("zero form")
    ivs = [iv for _, _, roots in _factorization(A) for iv in roots]
    return ivs, not A.coefficients[0]


def definiteness(A: BinaryForm) -> str:
    """One of positive-definite, negative-definite, positive-semi,
    negative-semi, indefinite, zero.  Decided exactly.

    Odd total degree is always indefinite (sign flips under (x,y) -> (-x,-y)).
    Otherwise: a real root of odd multiplicity forces a sign change; only
    even multiplicities means semi-definite with the sign of a nonzero
    sample; no real roots at all means definite.  A factor has a real root
    when it has a real slope or y divides it.
    """
    if A.is_zero():
        return "zero"
    if A.degree % 2 == 1:
        return "indefinite"
    has_real_root = False
    for i, b, roots in _factorization(A):
        if roots or not b.coefficients[0]:
            if i % 2 == 1:
                return "indefinite"
            has_real_root = True
    # A nonzero form vanishes at no more than `degree` projective points, so
    # some A(1, n), n = 0..degree, is nonzero; off its roots A keeps one sign.
    sign = next(v for v in (A.eval(1, n) for n in range(A.degree + 1)) if v) > 0
    if has_real_root:
        return "positive-semi" if sign else "negative-semi"
    return "positive-definite" if sign else "negative-definite"
