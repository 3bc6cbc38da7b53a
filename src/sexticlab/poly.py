"""Exact bivariate polynomials over the rationals.

A BivarPoly is a canonical sparse map from exponent pairs (i, j) to nonzero
Fraction coefficients, representing  sum c_{ij} x^i y^j.  All arithmetic is
exact; no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

Term = Tuple[int, int]


def _rat(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


class BivarPoly:
    """Immutable sparse bivariate polynomial with Fraction coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        d = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i},{j})")
            c = _rat(c)
            if c:
                key = (int(i), int(j))
                d[key] = d.get(key, Fraction(0)) + c
                if not d[key]:
                    del d[key]
        self._terms = d
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): _rat(c)})

    @staticmethod
    def monomial(i: int, j: int, c=1) -> "BivarPoly":
        return BivarPoly({(i, j): _rat(c)})

    @staticmethod
    def x() -> "BivarPoly":
        return BivarPoly.monomial(1, 0)

    @staticmethod
    def y() -> "BivarPoly":
        return BivarPoly.monomial(0, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def degree_in(self, var: int) -> int:
        """Degree in variable 0 (x) or 1 (y); -1 for zero."""
        if not self._terms:
            return -1
        return max(t[var] for t in self._terms)

    def homogeneous_part(self, d: int) -> "BivarPoly":
        return BivarPoly({t: c for t, c in self._terms.items() if t[0] + t[1] == d})

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self._terms}
        return len(degs) <= 1

    def x_valuation(self) -> int | None:
        """Largest v with x^v dividing self; None for the zero polynomial."""
        if not self._terms:
            return None
        return min(i for i, _ in self._terms)

    def y_valuation(self) -> int | None:
        if not self._terms:
            return None
        return min(j for _, j in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        d = dict(self._terms)
        for t, c in other._terms.items():
            d[t] = d.get(t, Fraction(0)) + c
        return BivarPoly(d)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return BivarPoly({t: -c for t, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return BivarPoly()
            return BivarPoly({t: c * other for t, c in self._terms.items()})
        other = self._coerce(other)
        d = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                t = (i1 + i2, j1 + j2)
                d[t] = d.get(t, Fraction(0)) + c1 * c2
        return BivarPoly(d)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = BivarPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        x = _rat(x)
        y = _rat(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * x**i * y**j
        return total

    def eval_y(self, y) -> "list[Fraction]":
        """Coefficient list in x (index = power of x) after substituting y."""
        y = _rat(y)
        n = self.degree_in(0)
        out = [Fraction(0)] * (n + 1 if n >= 0 else 0)
        for (i, j), c in self._terms.items():
            out[i] += c * y**j
        return out

    def eval_x(self, x) -> "list[Fraction]":
        """Coefficient list in y after substituting x."""
        x = _rat(x)
        n = self.degree_in(1)
        out = [Fraction(0)] * (n + 1 if n >= 0 else 0)
        for (i, j), c in self._terms.items():
            out[j] += c * x**i
        return out

    def subs(self, x_expr: "BivarPoly", y_expr: "BivarPoly") -> "BivarPoly":
        """Compose: substitute polynomials for x and y."""
        out = BivarPoly()
        xp_cache = {0: BivarPoly.const(1)}
        yp_cache = {0: BivarPoly.const(1)}

        def power(cache, base, n):
            if n not in cache:
                cache[n] = power(cache, base, n - 1) * base
            return cache[n]

        for (i, j), c in sorted(self._terms.items()):
            out = out + power(xp_cache, x_expr, i) * power(yp_cache, y_expr, j) * c
        return out

    def swap_vars(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for (i, j), c in self._terms.items()})

    def content(self) -> Fraction:
        """Positive rational content; 0 for the zero polynomial."""
        if not self._terms:
            return Fraction(0)
        from math import gcd

        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "BivarPoly":
        c = self.content()
        if not c:
            return self
        return self * (1 / c)

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
        return BivarPoly({(int(i), int(j)): Fraction(c) for i, j, c in obj["terms"]})
