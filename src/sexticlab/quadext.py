"""Exact arithmetic in real quadratic fields Q(sqrt(k)).

Elements are a + b*sqrt(k) with rational a, b and a fixed square-free k > 1.
Supports the field operations, norm, and sign decisions (exact, via
rational comparisons against k*b^2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .poly import _rat

# trial division bound of squarefree_kernel
KERNEL_TRIAL_BOUND = 10**6


@lru_cache(maxsize=64)
def squarefree_kernel(n: int) -> int | None:
    """The square-free k with n = k s^2 (n >= 1), or None when trial division
    up to B = KERNEL_TRIAL_BOUND leaves it open.  The cofactor r left has no
    prime factor <= B, so its kernel is 1 when r is a square, and r itself
    when d^2 > r at the stop (r is 1 or a prime) or r < B^3 (r is a prime or
    a product of two distinct primes above B)."""
    k, d = 1, 2
    while d <= KERNEL_TRIAL_BOUND and d * d <= n:
        while not n % (d * d):
            n //= d * d
        if not n % d:
            n //= d
            k *= d
        d += 1 if d == 2 else 2
    if isqrt(n) ** 2 == n:
        return k
    return k * n if d * d > n or n < KERNEL_TRIAL_BOUND**3 else None


def is_squarefree(k: int) -> bool:
    return k >= 1 and squarefree_kernel(k) == k


class QuadExt:
    """a + b*sqrt(k) with exact Fraction components; a float component
    raises TypeError."""

    __slots__ = ("k", "a", "b")

    def __init__(self, k: int, a, b=0):
        if k <= 1 or not is_squarefree(k):
            raise ValueError(f"k must be a square-free integer > 1, got {k}")
        self.k = k
        self.a = _rat(a)
        self.b = _rat(b)

    def _check(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.k != self.k:
                raise ValueError("mixed fields")
            return other
        return QuadExt(self.k, other)

    def __add__(self, other):
        o = self._check(other)
        return QuadExt(self.k, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(self.k, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        o = self._check(other)
        return QuadExt(
            self.k,
            self.a * o.a + self.k * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a - self.k * self.b * self.b

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("zero element")
        return QuadExt(self.k, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.a == other and not self.b
        if isinstance(other, QuadExt):
            return self.k == other.k and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.a, self.b))

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(k) as a real number."""
        if not self.b:
            return 0 if not self.a else (1 if self.a > 0 else -1)
        if not self.a:
            return 1 if self.b > 0 else -1
        # compare a against -b*sqrt(k): same signs are easy, otherwise
        # compare a^2 vs k b^2 with the correct orientation
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs = self.a * self.a
        rhs = self.k * self.b * self.b
        if self.a > 0:  # b < 0: sign is sign(a^2 - k b^2)
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __gt__(self, other):
        return (self - self._check(other)).sign() > 0

    def __lt__(self, other):
        return (self - self._check(other)).sign() < 0

    def __repr__(self):
        if not self.b:
            return f"QuadExt({self.k}, {self.a})"
        return f"QuadExt({self.k}, {self.a} + {self.b}*sqrt({self.k}))"

    def __str__(self):
        if not self.b:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.k})"


def _rat_sqrt(r: Fraction):
    """Exact rational square root, or None."""
    if r < 0:
        return None
    n, d = r.numerator, r.denominator
    sn, sd = isqrt(n), isqrt(d)
    if sn * sn == n and sd * sd == d:
        return Fraction(sn, sd)
    return None
