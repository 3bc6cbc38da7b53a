"""Univariate polynomial helpers over the rationals.

Polynomials are coefficient lists [c0, c1, ...], lowest degree first, with
no trailing zeros (the zero polynomial is the empty list).  Used for binary
forms, whose coefficient lists are such polynomials.  The exact kernel works
on primitive integer lists (coprime int coefficients, from `primitive`):
gcds, Yun square-free decomposition, Sturm real-root isolation and the
continued-fraction convergents of an isolated root.  Where the rational
algorithms make a polynomial monic, these make it primitive with a positive
lead, a positive multiple of the monic one, and every division is an exact
integer quotient (`_exquo`) or a pseudo-remainder (`_prem`).  `pgcd` and
`sturm_chain` read one remainder sequence, `_remainders`.  `hom_eval` signs
an integer list at a rational point without a Fraction.  `peval` is the one
Horner evaluation in the ring of its argument, so it also evaluates at an
element of Q(sqrt k); `pdivmod` works on Fraction lists, and `pmul` in
the ring of its entries.  The convergents come from Lagrange's method on
integer polynomials and are certified by checking that consecutive ones
bracket the root; the walk keeps its interval ends as integer pairs and
compares them with the convergents by cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm

from .poly import IdentityError, _rat


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def pdeg(p: list) -> int:
    return len(p) - 1


def pneg(p: list) -> list:
    return [-c for c in p]


def psub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
    return trim([a - b for a, b in zip(p, q)])


def pmul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
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
    lead = Fraction(q[-1])
    while pdeg(trim(r)) >= dq and r:
        dr = pdeg(r)
        c = r[-1] / lead
        quo[dr - dq] = c
        for i in range(len(q)):
            r[dr - dq + i] -= c * q[i]
        trim(r)
    return trim(quo), r


def peval(p: list, x):
    """p(x) by Horner's rule, in the ring of x: a Fraction (or int) at a
    rational x, a QuadExt at an element of Q(sqrt k)."""
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def hom_eval(p: list, u, v):
    """The homogenized sum v^d p(u/v) = sum p[k] u^k v^(d-k), d = len(p) - 1,
    by Horner without division; exact for integer or Fraction u, v.  For
    v > 0 it has the sign of p(u/v)."""
    acc, vk = 0, 1
    for c in reversed(p):
        acc = acc * u + c * vk
        vk *= v
    return acc


def pderiv(p: list) -> list:
    return trim([c * i for i, c in enumerate(p)][1:])


def primitive(p: list) -> list:
    """The int list that is p times a positive rational, with coprime
    coefficients.  The positive scalar preserves signs, which matters for
    Sturm chains."""
    if not p:
        return []
    den = lcm(*(c.denominator for c in p))
    q = [c.numerator * (den // c.denominator) for c in p]
    g = igcd(*q)
    return [c // g for c in q]


def _positive(p: list) -> list:
    """p or -p, whichever has a positive lead."""
    return pneg(p) if p and p[-1] < 0 else p


def _prem(a: list, b: list) -> list:
    """A positive integer multiple of the remainder of a by b, for int lists:
    each step that cannot cancel the lead exactly first scales by |lc(b)|,
    never by a negative number, so signs are kept."""
    r = list(a)
    db, lead = pdeg(b), b[-1]
    while pdeg(r) >= db:
        c, m = divmod(r[-1], lead)
        if m:
            c = r[-1] if lead > 0 else -r[-1]
            r = [abs(lead) * x for x in r]
        k = pdeg(r) - db
        for i, y in enumerate(b):
            r[k + i] -= c * y
        trim(r)
    return r


def _exquo(a: list, b: list) -> list:
    """The exact quotient a / b of int lists.  It is integral when b is
    primitive and divides a (Gauss's lemma); any other b raises."""
    r = list(a)
    db, lead = pdeg(b), b[-1]
    quo = [0] * max(0, len(a) - len(b) + 1)
    while pdeg(r) >= db:
        c, m = divmod(r[-1], lead)
        if m:
            raise IdentityError("exact quotient: the divisor's lead does not divide")
        k = pdeg(r) - db
        quo[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        trim(r)
    if r:
        raise IdentityError("exact quotient: nonzero remainder")
    return quo


def _remainders(a: list, b: list) -> list:
    """[r_0, r_1, r_2, ...] for primitive int lists a and b: r_0 = a, r_1 = b
    and r_(i+1) the primitive form of -(r_(i-1) mod r_i), ending at its last
    nonzero member, a gcd of a and b (b = [] gives [a])."""
    seq = [a, b]
    while seq[-1]:
        seq.append(primitive(pneg(_prem(seq[-2], seq[-1]))))
    seq.pop()
    return seq


def pgcd(p: list, q: list) -> list:
    """Primitive integer gcd with a positive lead: the last member of the
    remainder sequence of the primitive forms of p and q."""
    return _positive(_remainders(primitive(trim(list(p))), primitive(trim(list(q))))[-1])


def yun_decomposition(p: list) -> list:
    """Yun's algorithm: returns [B1, B2, ...] with p = lc * prod Bi^i.

    p is any rational list; the algorithm runs on its primitive integer
    form.  Each Bi is a primitive square-free int list with a positive lead;
    they are pairwise coprime.  Works in char 0.
    """
    f = primitive(trim(list(p)))
    if pdeg(f) < 1:
        return []
    df = pderiv(f)
    g = pgcd(f, df)
    if pdeg(g) == 0:
        return [_positive(f)]
    # w and z are divided by the same gcds, so h = z - w' keeps Yun's scale
    w, z = _exquo(f, g), _exquo(df, g)
    out = []
    while True:
        h = psub(z, pderiv(w))
        if not h:
            out.append(_positive(w))
            break
        b = pgcd(w, h)
        out.append(b)
        w, z = _exquo(w, b), _exquo(h, b)
    return out


# -- Sturm real-root isolation ------------------------------------------------


def sturm_chain(p: list) -> list:
    """Standard Sturm chain p, p', ...: the remainder sequence of p and p',
    as primitive int lists.

    Rescaling uses positive scalars only (primitive and _prem do this), so
    the sign variation count is unchanged.  The last member is gcd(p, p').
    """
    p = primitive(trim(list(p)))
    return [c for c in _remainders(p, primitive(pderiv(p))) if c]


def sign_variations(chain: list, x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    signs = [v > 0 for v in (hom_eval(p, num, den) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_bound(p: list) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    p = trim(list(p))
    if pdeg(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


class IsolatingInterval:
    """Open rational interval containing exactly one real root of poly.

    poly is a square-free primitive int list with a positive lead; the
    endpoints are never roots.  Any rational list is scaled to that form
    here, so convergents_of_root can bound rational roots by its lead.
    """

    def __init__(self, poly: list, lo: Fraction, hi: Fraction):
        self.poly = _positive(primitive(poly))
        self.lo = _rat(lo)
        self.hi = _rat(hi)

    def __repr__(self):
        return f"IsolatingInterval({self.lo}, {self.hi})"


def isolate_real_roots(p: list) -> list[IsolatingInterval]:
    """Isolating intervals for the distinct real roots of p (any multiplicity).

    Each returned interval contains exactly one real root, neither endpoint
    is a root, and its poly is the square-free part of p, primitive with a
    positive lead.  The Sturm chain of p ends at gcd(p, p'), which divides p
    into that part; at points that are not roots of p, the chain counts
    distinct roots.
    """
    p = trim(list(p))
    if pdeg(p) < 1:
        return []
    chain = sturm_chain(p)
    sf = _positive(chain[0] if pdeg(chain[-1]) < 1 else _exquo(chain[0], chain[-1]))
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
        while not hom_eval(sf, mid.numerator, mid.denominator):
            mid = (lo + mid) / 2
        nmid = sign_variations(chain, mid)
        split(lo, mid, nlo, nmid)
        split(mid, hi, nmid, nhi)

    # Cauchy's bound is strict (every root has |r| < bound): +-bound are not roots
    split(-bound, bound, sign_variations(chain, -bound), sign_variations(chain, bound))
    out.sort(key=lambda iv: iv.lo)
    return out


# -- certified continued-fraction convergents ---------------------------------


def _sign_at(p: list, u: int, v: int) -> int:
    """Sign of p(u/v) for v > 0, from the homogenized sum in integers."""
    acc = hom_eval(p, u, v)
    return (acc > 0) - (acc < 0)


def _taylor_shift(p: list, a: int) -> list:
    """Coefficients of p(x + a)."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += a * q[j + 1]
    return q


def _root_floor(p: list, ln: int, ld: int, hn: int, hd: int) -> int:
    """Floor of the one root of p in (lo, hi) = (ln/ld, hn/hd), ld, hd > 0.
    p changes sign exactly once on the integers inside (lo, hi), so an
    exponential search and then a binary search find the last integer at or
    below the root."""
    s = _sign_at(p, ln, ld)

    def below(m):
        return m * hd < hn and _sign_at(p, m, 1) != -s

    a, step = ln // ld, 1
    while below(a + step):
        a += step
        step *= 2
    # a is at or below the root and a + step is above it
    while step > 1:
        step //= 2
        if below(a + step):
            a += step
    return a


class RationalRootError(ValueError):
    """The root walked by convergents_of_root is rational; `root` is its
    exact value."""

    def __init__(self, root: Fraction):
        super().__init__(f"root is rational ({root}); use the exact-root path instead")
        self.root = root


def convergents_of_root(iv: IsolatingInterval, n: int) -> list[tuple[int, int]]:
    """First n continued-fraction convergents (p, q) of the isolated root.

    The root must be irrational: a rational root of iv.poly raises
    RationalRootError, which carries the root.
    Lagrange's method walks the partial quotients in integers: take the
    floor a of the root, then replace p(x) by x^d p(a + 1/x) and the
    interval by its image under x -> 1/(x - a), which still isolates the one
    root.  At least one convergent more than asked is walked, and each is
    certified against iv.poly as it is walked: even ones below the root, odd
    ones above, and every quotient after the first at least 1.  Consecutive
    convergents then bracket the root, so each returned pair has
    |q*alpha - p| < 1/q.

    A rational root b/c ends the walk where a is itself a root of p, at the
    convergent with denominator c.  Since c divides the leading coefficient
    L of iv.poly, a primitive int list, walking on until q > |L| rejects
    every rational root for every n.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    f = iv.poly
    # the interval ends of the root, and of the walk, as integer pairs
    # (numerator, positive denominator) in lowest terms
    Ln, Ld, Hn, Hd = iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator
    s_lo = _sign_at(f, Ln, Ld)
    p, ln, ld, hn, hd = f, Ln, Ld, Hn, Hd
    pairs = []
    # convergent recurrence state: p_k = a_k p_{k-1} + p_{k-2}
    p_prev, p_cur = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_cur = 1, 0  # q_{-2}, q_{-1}
    while len(pairs) <= n or q_cur <= abs(f[-1]):
        a = _root_floor(p, ln, ld, hn, hd)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if a * ld > ln and not _sign_at(p, a, 1):
            raise RationalRootError(Fraction(p_cur, q_cur))
        # a quotient after the first below 1 fails before the sides are
        # read, so there q_cur > 0 and the convergent p_cur/q_cur compares
        # with an end n/d as p_cur*d with n*q_cur
        if (pairs and a < 1) or (
            p_cur * Ld <= Ln * q_cur
            or (p_cur * Hd < Hn * q_cur and _sign_at(f, p_cur, q_cur) == s_lo)
        ) != (len(pairs) % 2 == 0):
            raise ArithmeticError(f"convergent ({p_cur},{q_cur}) does not bracket the root")
        pairs.append((p_cur, q_cur))
        p_next = trim(_taylor_shift(p, a)[::-1])
        # x -> 1/(x - a) maps (max(lo, a), min(hi, a + 1)) onto the new
        # interval; where it would reach infinity, Cauchy's bound on the
        # roots of p_next closes it.  1/(n/d - a) = d/(n - a d) keeps lowest
        # terms, as gcd(d, n - a d) = gcd(d, n) = 1.
        (ln, ld), (hn, hd) = (
            (1, 1) if hn >= (a + 1) * hd else (hd, hn - a * hd),
            (2 + max(map(abs, p_next)) // abs(p_next[-1]), 1) if ln <= a * ld else (ld, ln - a * ld),
        )
        p = p_next
    return pairs[:n]


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
