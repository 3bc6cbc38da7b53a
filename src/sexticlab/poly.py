"""Exact bivariate polynomials over the rationals.

A BivarPoly is a canonical sparse map from exponent pairs (i, j) to nonzero
exact rational coefficients, representing  sum c_{ij} x^i y^j.  A coefficient
is stored as an int when it is integral and as a Fraction otherwise, so
arithmetic and evaluation on integer polynomials at integer points run in
plain integers.  A float is never a coefficient: the constructor raises
TypeError on one.  The public accessors coeff, terms and eval give
Fractions, so a caller may divide what they return.  The binary forms of
forms.decompose read _terms directly and store their coefficients the same
way as here (int or Fraction), so their callers make each division of two
coefficients exact themselves.  All arithmetic is exact; no floating point
anywhere in this module.

The public constructor validates and canonicalizes its input; the results of
+, -, *, ** and subs have int-pair keys already, so they are built without
that pass: they only drop the coefficients that cancelled and store the rest
as above.  Every product of two polynomials, in *, ** and subs, is one dict
product (_dmul) over the term dicts, and each result is canonicalized once:
** squares and multiplies plain dicts, and subs is Horner in y over the
powers of the x substitute.

BivarPoly.eval sums integer numerators: L * F has integer coefficients (L
the lcm of the coefficient denominators), so at an integer point the value
is one integer divided by L.  L and the scaled coefficients
(BivarPoly.scaled_terms) are kept on the object.

Enumeration loops and every witness search evaluate through
BivarPoly.kernel(), the same polynomial compiled once to integer rows of D*F
(D the lcm of the coefficient denominators).  A point call is Horner in x on
each row, then in y along the column.  IntKernel.values, one column of an
enumeration box, takes that Horner at the first d + 1 points of a range of
y (d the column's degree in y) and builds the rest from their forward
differences: the d-th difference of a degree-d polynomial is constant, so d
running sums rebuild the column in exact integers.  When the kernel is
built, IntKernel.values is checked against exact evaluation on the triangle
of points i + j <= deg F (within the x and y degrees of F), which fixes a
polynomial of those degrees; exact evaluation (BivarPoly.eval, which shares
no code with the kernel) stays the gate for every certificate.

A BivarPoly never changes, so the kernel, the scaled coefficients of eval,
the degrees in x and y and the homogeneous parts (the _parts slot, which
forms.decompose fills) are kept on the object.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from typing import Tuple

Term = Tuple[int, int]


def _rat(v) -> Fraction:
    """v as a Fraction, from a Fraction, an int or a string; a float raises
    TypeError instead of becoming its binary expansion."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _int_or_rat(v):
    """v as an int when it is integral, else as a Fraction: the form in
    which BivarPoly stores a coefficient.  A float raises TypeError."""
    if type(v) is int:
        return v
    v = _rat(v)
    return v.numerator if v.denominator == 1 else v


def _powers(b, n: int) -> list:
    """[b^0, b^1, ..., b^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * b)
    return out


def _horner(coeffs, t):
    """The polynomial with the given coefficients, highest power first, at t."""
    v = 0
    for c in coeffs:
        v = v * t + c
    return v


def _dmul(p: dict, q: dict) -> dict:
    """The product of two term dicts {(i, j): c}: like terms are summed but
    not canonicalized, so a sum that cancelled stays in as a zero and an
    integral Fraction stays a Fraction until BivarPoly._canonical."""
    d = {}
    get = d.get
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            t = (i1 + i2, j1 + j2)
            d[t] = get(t, 0) + c1 * c2
    return d


class IdentityError(RuntimeError):
    """An exact identity check failed.  Raised instead of assert, so the
    check also holds under python -O."""


class KernelMismatchError(IdentityError):
    """A compiled integer kernel disagrees with exact evaluation."""


class IntKernel:
    """D * F as integer coefficient rows, for exact evaluation in integers.

    D is the lcm of the coefficient denominators of F.  rows[k] holds the
    coefficients of y^(len(rows) - 1 - k) in D * F as a polynomial in x,
    highest power first.  For integers x, y the value D * F(x, y) is an
    integer, and F(x, y) is an integer iff D divides it.
    """

    __slots__ = ("D", "rows")

    def __init__(self, D: int, rows: tuple):
        self.D = D
        self.rows = rows

    def values(self, x: int, ys) -> list:
        """[D * F(x, y) for y in ys]: one column of an enumeration box.

        Horner in x on each row gives the column's coefficients in y, of
        degree d at this x.  When ys is a range longer than d + 1, Horner in
        y seeds the first d + 1 values and the rest come from their forward
        differences: the d-th difference of a degree-d polynomial along an
        arithmetic progression is constant, so d chained running sums of that
        constant rebuild the column in exact integers.  Other ys take Horner
        in y at every point."""
        col = [_horner(row, x) for row in self.rows]
        d = max(len(col) - 1, 0)
        while d > 0 and not col[-1 - d]:
            d -= 1
        if type(ys) is not range or len(ys) <= d + 1:
            return [_horner(col, y) for y in ys]
        table, heads = [_horner(col, y) for y in ys[: d + 1]], []
        for _ in range(d + 1):
            heads.append(table[0])
            table = [b - a for a, b in zip(table, table[1:])]
        out = repeat(heads[d], len(ys) - d)
        for h in reversed(heads[:d]):
            out = accumulate(out, initial=h)
        return list(out)

    def __call__(self, x: int, y: int) -> int:
        """D * F(x, y), by Horner in x on each row, then in y."""
        return _horner([_horner(row, x) for row in self.rows], y)


def _kernel_rows(terms: Mapping[Term, Fraction], D: int) -> tuple:
    """Integer rows of D * sum c_ij x^i y^j in the IntKernel layout."""
    if not terms:
        return ()
    dx = max(i for i, _ in terms)
    dy = max(j for _, j in terms)
    rows = [[0] * (dx + 1) for _ in range(dy + 1)]  # rows[j][i]
    for (i, j), c in terms.items():
        rows[j][i] = c.numerator * (D // c.denominator)
    out = []
    for row in reversed(rows):
        while row and not row[-1]:
            row.pop()
        out.append(tuple(reversed(row)))
    return tuple(out)


class BivarPoly:
    """Immutable sparse bivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash", "_kernel", "_parts", "_degs", "_scaled")

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        d = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"exponent ({i!r},{j!r}) is not a pair of ints")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i},{j})")
            c = _int_or_rat(c)
            if c:
                key = (i, j)
                if key in d:
                    c = _int_or_rat(d[key] + c)
                    if not c:
                        del d[key]
                        continue
                d[key] = c
        self._init(d)

    def _init(self, terms: dict) -> None:
        """Store canonical terms and empty every cache slot: the one list of
        those slots, which both constructors run."""
        self._terms = terms
        self._hash = None
        self._kernel = None
        self._parts = None
        self._degs = None
        self._scaled = None

    @classmethod
    def _canonical(cls, terms: dict) -> "BivarPoly":
        """Internal constructor for int-pair keys with nonnegative entries and
        int or Fraction values, as arithmetic on BivarPolys yields.  Zero
        coefficients are dropped and the rest stored as _int_or_rat gives."""
        p = object.__new__(cls)
        p._init({t: c if type(c) is int else _int_or_rat(c) for t, c in terms.items() if c})
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c=1) -> "BivarPoly":
        return BivarPoly({(i, j): c})

    @staticmethod
    def x() -> "BivarPoly":
        return BivarPoly.monomial(1, 0)

    @staticmethod
    def y() -> "BivarPoly":
        return BivarPoly.monomial(0, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        """{(i, j): c} with Fraction values."""
        return {t: Fraction(c) for t, c in self._terms.items()}

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._terms.get((i, j), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self.weighted_degree(1, 1)

    def weighted_degree(self, wx: int, wy: int) -> int:
        """The largest wx*i + wy*j over the terms x^i y^j; -1 for zero."""
        return max((wx * i + wy * j for i, j in self._terms), default=-1)

    def _degrees(self) -> tuple[int, int]:
        """(degree in x, degree in y), taken once."""
        if self._degs is None:
            self._degs = (max((i for i, _ in self._terms), default=-1),
                          max((j for _, j in self._terms), default=-1))
        return self._degs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        d = dict(self._terms)
        for t, c in other._terms.items():
            d[t] = d.get(t, 0) + c
        return BivarPoly._canonical(d)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return BivarPoly._canonical({t: -c for t, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return BivarPoly()
            return BivarPoly._canonical({t: c * other for t, c in self._terms.items()})
        return BivarPoly._canonical(_dmul(self._terms, self._coerce(other)._terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out, base = {(0, 0): 1}, self._terms
        while True:
            if n & 1:
                out = _dmul(out, base)
            n >>= 1
            if not n:
                return BivarPoly._canonical(out)
            base = _dmul(base, base)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.const(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    @staticmethod
    def _coerce(v) -> "BivarPoly":
        if isinstance(v, BivarPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return BivarPoly.const(v)
        raise TypeError(f"cannot coerce {v!r}")

    # -- evaluation and substitution --------------------------------------

    def eval(self, x, y) -> Fraction:
        """Exact F(x, y) as a Fraction: the gate every certificate passes
        through.

        L * F has integer coefficients, L the lcm of the coefficient
        denominators; L and those integers are taken on first use and kept.
        The powers of x and y are taken once per call, in integers where the
        argument is integral, so at an integer point the sum is taken in
        integers and divided by L once, at the end."""
        L, scaled = self.scaled_terms()
        dx, dy = self._degrees()
        xp = _powers(x if type(x) is int else _int_or_rat(x), dx)
        yp = _powers(y if type(y) is int else _int_or_rat(y), dy)
        total = 0
        for i, j, n in scaled:
            total += n * (xp[i] * yp[j])
        return Fraction(total, L)

    def scaled_terms(self) -> tuple[int, list]:
        """(L, [(i, j, n_ij)]): L the lcm of the coefficient denominators and
        n_ij = L * c_ij the integer coefficients of L * F, taken once."""
        if self._scaled is None:
            L = lcm(*(c.denominator for c in self._terms.values()))
            self._scaled = (L, [(i, j, c.numerator * (L // c.denominator))
                                for (i, j), c in self._terms.items()])
        return self._scaled

    def kernel(self) -> IntKernel:
        """The integer kernel of self, compiled and checked on first use.

        The rows are checked to have degree <= deg_x in x, <= deg_y in y and
        total degree <= deg F, as D * F has.  So the difference G of the rows
        and D * F has its exponents in the staircase S of (i, j) with i <= deg_x,
        j <= deg_y and i + j <= deg F, and IntKernel.values, one column x of S
        at a time, is compared with exact evaluation on the points of S: at
        most the 28 points of the triangle i + j <= 6 for a sextic.  A
        polynomial G with exponents in S that vanishes on S is zero: G(x, 0)
        has degree <= deg_x and vanishes at x = 0..deg_x, so y divides G, and
        G(x, y + 1) / (y + 1) has its exponents in the staircase of deg_x,
        deg_y - 1, deg F - 1 and vanishes on its points; induct on deg_y.  So
        agreement on S proves that the rows equal D * F."""
        if self._kernel is None:
            D = lcm(*(c.denominator for c in self._terms.values()))
            K = IntKernel(D, _kernel_rows(self._terms, D))
            d, (dx, dy) = self.degree(), self._degrees()
            top = len(K.rows) - 1  # the y-degree of rows[0]
            if len(K.rows) > dy + 1 or any(
                len(row) > dx + 1 or (row and len(row) - 1 + top - k > d)
                for k, row in enumerate(K.rows)
            ):
                raise KernelMismatchError(f"kernel rows exceed the degrees of {self.format()}")
            for x in range(dx + 1):
                ys = range(min(dy, d - x) + 1)
                for y, v in zip(ys, K.values(x, ys)):
                    e = self.eval(x, y)
                    if v * e.denominator != D * e.numerator:
                        raise KernelMismatchError(
                            f"kernel of {self.format()} disagrees at ({x}, {y})"
                        )
            self._kernel = K
        return self._kernel

    def subs(self, x_expr: "BivarPoly", y_expr: "BivarPoly") -> "BivarPoly":
        """Compose: substitute polynomials for x and y.

        Horner in y: row j of self, sum_i c_ij x_expr^i, is summed into one
        dict from the powers of x_expr, and the rows are folded by
        acc -> acc * y_expr + row."""
        xt, yt = self._coerce(x_expr)._terms, self._coerce(y_expr)._terms
        dx, dy = self._degrees()
        xp = [{(0, 0): 1}]
        for _ in range(dx):
            xp.append(_dmul(xp[-1], xt))
        rows = [{} for _ in range(dy + 1)]
        for (i, j), c in self._terms.items():
            row = rows[j]
            for t, a in xp[i].items():
                row[t] = row.get(t, 0) + c * a
        acc = {}
        for row in reversed(rows):
            acc = _dmul(acc, yt)
            for t, c in row.items():
                acc[t] = acc.get(t, 0) + c
        return BivarPoly._canonical(acc)

    # -- formatting and serialization --------------------------------------

    def __repr__(self):
        return f"BivarPoly({self.format()})"

    def format(self) -> str:
        """Canonical text form; parses back to an equal polynomial."""
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i == 1:
                factors.append("x")
            elif i > 1:
                factors.append(f"x^{i}")
            if j == 1:
                factors.append("y")
            elif j > 1:
                factors.append(f"y^{j}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        terms = [[i, j, str(c)] for (i, j), c in sorted(self._terms.items())]
        return {"terms": terms}

    @staticmethod
    def from_json_obj(obj: dict) -> "BivarPoly":
        """Reads the term list [[i, j, "coeff"], ...] exactly: exponents must
        be JSON integers and coefficients strings or JSON integers, so a
        float or a bool raises ValueError instead of being rounded or cast."""
        terms = {}
        for i, j, c in obj["terms"]:
            if type(i) is not int or type(j) is not int or type(c) not in (int, str):
                raise ValueError(f"term {[i, j, c]} is not [int, int, \"coeff\"]")
            terms[i, j] = Fraction(c)
        return BivarPoly(terms)
