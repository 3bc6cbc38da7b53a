"""Univariate polynomial helpers over the rationals.

Polynomials are coefficient lists [c0, c1, ...] of Fractions, lowest degree
first, with no trailing zeros (the zero polynomial is the empty list).  Used
for dehomogenized binary forms: gcds, Yun square-free decomposition, Sturm
real-root isolation, certified continued-fraction convergents, and the
integer k-th root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd

from .poly import IdentityError


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def pdeg(p: list) -> int:
    return len(p) - 1


def padd(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def pneg(p: list) -> list:
    return [-c for c in p]


def psub(p: list, q: list) -> list:
    return padd(p, pneg(q))


def pmul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def pdivmod(p: list, q: list) -> tuple[list, list]:
    """Exact rational division with remainder."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = pdeg(q)
    lead = q[-1]
    while pdeg(trim(r)) >= dq and r:
        dr = pdeg(r)
        c = r[-1] / lead
        quo[dr - dq] = c
        for i in range(len(q)):
            r[dr - dq + i] -= c * q[i]
        trim(r)
    return trim(quo), r


def peval(p: list, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: list) -> list:
    return trim([c * i for i, c in enumerate(p)][1:])


def primitive(p: list) -> list:
    """Scale by a positive rational so coefficients are coprime integers.

    The positive scalar preserves signs, which matters for Sturm chains.
    """
    if not p:
        return []
    num = 0
    den = 1
    for c in p:
        num = igcd(num, c.numerator)
        den = den * c.denominator // igcd(den, c.denominator)
    s = Fraction(den, num)
    return [c * s for c in p]


def monic(p: list) -> list:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def pgcd(p: list, q: list) -> list:
    """Monic gcd via the Euclidean algorithm with primitive-part rescaling."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        _, r = pdivmod(a, b)
        a, b = b, primitive(r) if r else []
    if not a:
        return []
    return monic(a)


def squarefree_part(p: list) -> list:
    d = pderiv(p)
    if not d:
        return monic(p) if p else []
    g = pgcd(p, d)
    q, r = pdivmod(p, g)
    if r:
        raise IdentityError("squarefree_part: the gcd with p' does not divide p")
    return monic(q)


def yun_decomposition(p: list) -> list:
    """Yun's algorithm: returns [B1, B2, ...] with p = lc * prod Bi^i.

    Each Bi is monic square-free; pairwise coprime.  Works in char 0.
    """
    p = trim(list(p))
    if not p or pdeg(p) == 0:
        return []
    dp = pderiv(p)
    g = pgcd(p, dp)
    if pdeg(g) == 0:
        return [monic(p)]
    w, _ = pdivmod(p, g)
    z, _ = pdivmod(dp, g)
    out = []
    while True:
        h = psub(z, pderiv(w))
        if not h:
            out.append(monic(w))
            break
        b = pgcd(w, h)
        out.append(monic(b))
        w, _ = pdivmod(w, b)
        z, _ = pdivmod(h, b)
    return out


# -- Sturm real-root isolation ------------------------------------------------


def sturm_chain(p: list) -> list:
    """Standard Sturm chain; remainders rescaled to primitive integer form.

    Rescaling uses positive scalars only (primitive does this), so the sign
    variation count is unchanged.
    """
    p = primitive(trim(list(p)))
    chain = [p, primitive(pderiv(p))]
    while chain[-1]:
        _, r = pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive(pneg(r)))
    return [c for c in chain if c]


def sign_variations(chain: list, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = peval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_bound(p: list) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    p = trim(list(p))
    if pdeg(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def count_roots_in(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


class IsolatingInterval:
    """Open rational interval containing exactly one real root of poly.

    poly is a square-free univariate coefficient list; the endpoints are never
    roots.  refine() halves the width; refine_to(w) iterates until hi-lo <= w.
    """

    def __init__(self, poly: list, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self):
        mid = (self.lo + self.hi) / 2
        vm = peval(self.poly, mid)
        if not vm:
            # nudge the split point; mid is the root, keep it strictly inside
            mid = self.lo + self.width() * Fraction(1, 3)
            vm = peval(self.poly, mid)
            if not vm:
                raise ArithmeticError("two roots in isolating interval")
        vl = peval(self.poly, self.lo)
        if (vl > 0) != (vm > 0):
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width: Fraction):
        width = Fraction(width)
        while self.width() > width:
            self.refine()

    def contains_rational(self, r: Fraction) -> bool:
        return self.lo < r < self.hi

    def __repr__(self):
        return f"IsolatingInterval({self.lo}, {self.hi})"


def isolate_real_roots(p: list) -> list[IsolatingInterval]:
    """Isolating intervals for the distinct real roots of p (any multiplicity).

    Isolation runs on the square-free part; each returned interval contains
    exactly one real root and neither endpoint is a root.
    """
    p = trim(list(p))
    if pdeg(p) < 1:
        return []
    sf = squarefree_part(p)
    if pdeg(sf) < 1:
        return []
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    out = []

    def split(lo, hi, nlo, nhi):
        n = nlo - nhi
        if n == 0:
            return
        if n == 1:
            # make the interval open at a root-free left endpoint
            out.append(IsolatingInterval(sf, lo, hi))
            return
        mid = (lo + hi) / 2
        while not peval(sf, mid):
            mid = (lo + mid) / 2
        nmid = sign_variations(chain, mid)
        split(lo, mid, nlo, nmid)
        split(mid, hi, nmid, nhi)

    lo, hi = -bound, bound
    while not peval(sf, lo):
        lo -= 1
    while not peval(sf, hi):
        hi += 1
    split(lo, hi, sign_variations(chain, lo), sign_variations(chain, hi))
    out.sort(key=lambda iv: iv.lo)
    # shrink so intervals are disjoint and endpoints are not roots
    for iv in out:
        iv.refine_to(Fraction(1, 4))
    return out


def rational_roots(p: list) -> list[Fraction]:
    """All rational roots, by the rational root theorem on the primitive form."""
    p = trim(list(p))
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    v = 0
    while not p[v]:
        v += 1
    if v:
        roots.append(Fraction(0))
        p = p[v:]
    if pdeg(p) < 1:
        return roots

    q = primitive(p)
    a0 = abs(int(q[0]))
    an = abs(int(q[-1]))

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for num in divisors(a0):
        for den in divisors(an):
            for s in (1, -1):
                r = Fraction(s * num, den)
                if not peval(q, r):
                    roots.append(r)
    return sorted(set(roots))


# -- certified continued-fraction convergents ---------------------------------


def _cf_expansion(r: Fraction) -> list[int]:
    """Floor-convention continued fraction of a rational."""
    out = []
    num, den = r.numerator, r.denominator
    while den:
        a, rem = divmod(num, den)
        out.append(a)
        num, den = den, rem
    return out


def convergents_of_root(iv: IsolatingInterval, n: int) -> list[tuple[int, int]]:
    """First n continued-fraction convergents (p, q) of the isolated root.

    The root must be irrational: rational roots of iv.poly are rejected.  Each
    returned pair is certified to satisfy |q*alpha - p| < 1/q via interval
    arithmetic on the refined isolating interval.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    for r in rational_roots(iv.poly):
        if iv.contains_rational(r):
            raise ValueError(
                f"root is rational ({r}); use the exact-root path instead"
            )

    poly = list(iv.poly)
    work = IsolatingInterval(poly, iv.lo, iv.hi)
    # Partial quotients of alpha are the common prefix of the continued
    # fractions of any two rationals bracketing it, excluding the (possibly
    # rewritable) final quotient of either expansion.  Refining the interval
    # lengthens the common prefix; ~log2(q_n^2) bisections suffice, so the
    # endpoints stay small and nothing exponential happens.
    quots: list[int] = []
    while len(quots) < n:
        work.refine()
        lo_cf = _cf_expansion(work.lo)
        hi_cf = _cf_expansion(work.hi)
        limit = min(len(lo_cf), len(hi_cf)) - 1  # drop each final quotient
        quots = []
        for i in range(limit):
            if lo_cf[i] != hi_cf[i]:
                break
            quots.append(lo_cf[i])

    pairs = []
    # convergent recurrence state: p_k = a_k p_{k-1} + p_{k-2}
    p_prev, p_cur = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_cur = 1, 0  # q_{-2}, q_{-1}
    for a in quots[:n]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pairs.append((p_cur, q_cur))

    # certify |q*alpha - p| < 1/q on the original interval
    orig = IsolatingInterval(poly, iv.lo, iv.hi)
    for p, q in pairs:
        while True:
            lo_v = q * orig.lo - p
            hi_v = q * orig.hi - p
            m = max(abs(lo_v), abs(hi_v))
            if m < Fraction(1, q):
                break
            if lo_v > 0 or hi_v < 0:
                # certified violation would mean a bug upstream
                if min(abs(lo_v), abs(hi_v)) >= Fraction(1, q):
                    raise ArithmeticError(f"convergent ({p},{q}) fails |q a - p| < 1/q")
            orig.refine()
    return pairs


# -- integer roots ------------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo
