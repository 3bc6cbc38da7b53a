"""Elliptic-curve machinery over Q: group law, the parametric 3P family on
y^2 = x^3 + b1 x + r^2 b1^2, Pell solvers, the Lucas/Fibonacci small-gap
family for b1 = 0, and an exhaustive near-cube scanner for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .poly import BivarPoly, IdentityError, _rat


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + A x + B over Q, nonsingular."""

    A: Fraction
    B: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", _rat(self.A))
        object.__setattr__(self, "B", _rat(self.B))
        if not self.discriminant():
            raise CurveError("singular curve (discriminant 0)")

    def discriminant(self) -> Fraction:
        return -16 * (4 * self.A**3 + 27 * self.B**2)

    def contains(self, P) -> bool:
        if P.infinite:
            return True
        x, y = P.x, P.y
        return y * y == x**3 + self.A * x + self.B


class CurvePoint:
    """Affine point or the point at infinity."""

    __slots__ = ("x", "y", "infinite")

    def __init__(self, x=None, y=None, infinite=False):
        self.infinite = infinite
        if infinite:
            self.x = self.y = None
        else:
            self.x = _rat(x)
            self.y = _rat(y)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y, self.infinite))

    def __repr__(self):
        if self.infinite:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x}, {self.y})"


INFINITY = CurvePoint(infinite=True)


def ec_add(E: EllipticCurve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition; inputs are checked to lie on E."""
    for pt in (P, Q):
        if not E.contains(pt):
            raise CurveError(f"point {pt} is not on the curve")
    if P.infinite:
        return Q
    if Q.infinite:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent (P == Q with y != 0)
        lam = (3 * P.x * P.x + E.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    R = CurvePoint(x3, y3)
    if not E.contains(R):
        raise IdentityError("ec_add: the sum is not on the curve")
    return R


def ec_neg(P: CurvePoint) -> CurvePoint:
    if P.infinite:
        return P
    return CurvePoint(P.x, -P.y)


def ec_mul(E: EllipticCurve, P: CurvePoint, n: int) -> CurvePoint:
    if n < 0:
        return ec_mul(E, ec_neg(P), -n)
    acc = INFINITY
    base = P
    while n:
        if n & 1:
            acc = ec_add(E, acc, base)
        base = ec_add(E, base, base)
        n >>= 1
    return acc


# -- the 3P family ------------------------------------------------------------


def rouse_point(b1, r: int) -> tuple:
    """Closed form for 3P on y^2 = x^3 + b1 x + r^2 b1^2 with P = (0, r b1).
    It is polynomial in b1, so a rational b1 gives the rational point."""
    x_r = 64 * b1 * b1 * r**6 + 8 * b1 * r * r
    y_r = 512 * b1**3 * r**9 + 96 * b1 * b1 * r**5 + 3 * b1 * r
    return x_r, y_r


def rouse_family(b1: int, b0: int, r_values) -> list[tuple[int, int, int, int]]:
    """(r, x_r, y_r, gap) for each r, where gap = y_r^2 - x_r^3 - b1 x_r - b0
    = b1^2 r^2 - b0.  The closed form is checked against generic group-law
    triplication (anti-drift), and the gap identity is checked exactly."""
    if b1 == 0:
        raise CurveError("b1 = 0: the 3P x-coordinate stays 0; use danilov_family")
    out = []
    for r in r_values:
        if r == 0:
            continue
        x_r, y_r = rouse_point(b1, r)
        E = EllipticCurve(b1, r * r * b1 * b1)
        P = CurvePoint(0, r * b1)
        T = ec_mul(E, P, 3)
        if T.infinite or T.x != x_r or T.y != y_r:
            raise IdentityError(f"rouse_family: closed-form 3P differs from 3*P at b1={b1}, r={r}")
        gap = y_r * y_r - x_r**3 - b1 * x_r - b0
        if gap != b1 * b1 * r * r - b0:
            raise IdentityError(f"rouse_family: gap identity fails at b1={b1}, r={r}")
        out.append((r, x_r, y_r, gap))
    return out


# -- Pell solver --------------------------------------------------------------


@dataclass
class PellSolution:
    d: int
    c: int
    solutions: list  # [(u, v)] ordered by u


# continued-fraction steps of sqrt(d) before pell_solve gives up
PELL_CF_STEPS = 10**5


class PellBudgetError(RuntimeError):
    """The period of the continued fraction of sqrt(d) is longer than
    PELL_CF_STEPS."""


def _sqrt_cf_fundamental(d: int) -> tuple[tuple[int, int], int]:
    """((u, v) with u^2 - d v^2 = +-1 from the continued fraction of sqrt(d),
    sign).  The returned solution is the first convergent hit, so it has
    sign -1 exactly when the period is odd.  The k-th convergent has
    p_k^2 - d q_k^2 = (-1)^(k+1) Q_(k+1), so the walk stops where the
    denominator Q reaches 1 and checks the norm once, on the result."""
    a0 = isqrt(d)
    m, den, a, sign = 0, 1, a0, -1
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for _ in range(PELL_CF_STEPS):
        m = den * a - m
        den = (d - m * m) // den
        if den == 1:
            if p * p - d * q * q != sign:
                raise IdentityError("pell: the convergent at Q = 1 is not a unit")
            return (p, q), sign
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        sign = -sign
    raise PellBudgetError(f"sqrt({d}) has no unit within {PELL_CF_STEPS} continued-fraction steps")


def _half_unit(d: int, x1: int, y1: int) -> tuple[int, int]:
    """Minimal (a, b) with a > 0, b > 0, a^2 - d b^2 = 4, given the
    fundamental norm-1 unit eps = x1 + y1 sqrt(d).

    The half units (a + b sqrt d)/2 of norm 1 with a, b > 0 are the powers of
    the minimal one, eta, and eps is one of them: eps = eta^k.  If k = 1 the
    answer is (2 x1, 2 y1).  If k >= 2 then b sqrt d < eta <= sqrt(eps) (as
    a > b sqrt d), and eps < 2 y1 sqrt d + 1 (as x1 < y1 sqrt d + 1), so
    b^2 < 2 y1 / sqrt d + 1 / d < 2 y1 // isqrt(d) + 2: the scan covers it."""
    for b in range(1, isqrt(2 * y1 // isqrt(d) + 2) + 2):
        a2 = d * b * b + 4
        a = isqrt(a2)
        if a * a == a2:
            return a, b
    return 2 * x1, 2 * y1


def pell_solve(d: int, c: int, count: int) -> PellSolution:
    """Solutions of u^2 - d v^2 = c for c in {1, -1, 4, -4}.

    Everything comes from the fundamental norm-1 unit eps = x1 + y1 sqrt d,
    found once from the continued fraction of sqrt d.  One step,
    (u, v) -> ((a u + d b v)/2, (a v + b u)/2), multiplies (u + v sqrt d)/2
    by the unit (a + b sqrt d)/2: eps itself, (a, b) = (2 x1, 2 y1), for
    c = +-1, and the minimal half unit eta for c = +-4, where the step stays
    integral because u - d v and a - d b are even.  The bases are eps (c = 1),
    the norm -1 convergent, present exactly when the period is odd (c = -1),
    eta (c = 4), and for c = -4 the minimal norm -1 half unit
    zeta = (r + s sqrt d)/2.  The half units are +- the powers of the least
    one above 1, so zeta, when it exists, squares to eta:
    a = (r^2 + d s^2)/2 with r^2 - d s^2 = -4, i.e. r^2 = a - 2 and
    d s^2 = a + 2.  Conversely such r, s solve c = -4, so when a - 2 and
    (a + 2)/d are not both squares, c = -4 has no solution."""
    if d <= 0 or isqrt(d) ** 2 == d:
        raise ValueError("d must be a positive nonsquare")
    if c not in (1, -1, 4, -4):
        raise ValueError("supported targets: c in {1, -1, 4, -4}")
    if count < 1:
        raise ValueError("count must be >= 1")
    (u1, v1), sgn = _sqrt_cf_fundamental(d)
    x1, y1 = (u1, v1) if sgn == 1 else (u1 * u1 + d * v1 * v1, 2 * u1 * v1)
    if c in (1, -1):
        a, b = 2 * x1, 2 * y1
    else:
        a, b = _half_unit(d, x1, y1)
        if a * a - d * b * b != 4:
            raise IdentityError(f"pell_solve: half unit ({a}, {b}) misses a^2 - {d} b^2 = 4")
    if c == 1:
        base = x1, y1
    elif c == 4:
        base = a, b
    elif c == -1 and sgn == -1:
        base = u1, v1
    else:
        r, s = isqrt(a - 2), isqrt((a + 2) // d)
        if c == -1 or r * r != a - 2 or d * s * s != a + 2:
            raise ValueError(f"u^2 - {d} v^2 = {c} has no integer solutions")
        base = r, s
    sols = []
    u, v = base
    for _ in range(count):
        if u * u - d * v * v != c:
            raise IdentityError(f"pell_solve: solution {len(sols)} misses u^2 - {d} v^2 = {c}")
        sols.append((u, v))
        u, v = (a * u + d * b * v) // 2, (a * v + b * u) // 2
    return PellSolution(d=d, c=c, solutions=sols)


# -- small-gap family for b1 = 0 ----------------------------------------------


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling."""
    if n == 0:
        return 0, 1
    fa, fb = _fib_pair(n >> 1)
    c = fa * (2 * fb - fa)
    t = fa * fa + fb * fb
    if n & 1:
        return t, c + t
    return c, t


def fibonacci(n: int) -> int:
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    fa, fb = _fib_pair(n)
    return 2 * fb - fa


def danilov_member(m: int) -> tuple[int, int, int]:
    """(x, y, gap) from the Pell-driven identity at odd Lucas index m.

    With L = L_m (m odd) the identity
        y^2 - x^3 = 27 (L + 11) / 125,
        x = (L^2 + 12 L + 16) / 20,
        y = (F_{3m} + 18 F_{2m} + 75 F_m) / 40
    holds exactly over Q; all three values are integers precisely when
    m = 15 mod 60.  (L_m, F_m) runs over solutions of u^2 - 5 v^2 = -4.
    """
    if m % 2 == 0:
        raise ValueError("m must be odd")
    L = lucas(m)
    x = Fraction(L * L + 12 * L + 16, 20)
    y = Fraction(fibonacci(3 * m) + 18 * fibonacci(2 * m) + 75 * fibonacci(m), 40)
    gap = y * y - x**3
    if gap != Fraction(27 * (L + 11), 125):
        raise IdentityError(f"danilov_member: gap identity fails at m={m}")
    if x.denominator != 1 or y.denominator != 1 or gap.denominator != 1:
        raise ValueError(f"member at m={m} is not integral")
    return int(x), int(y), int(gap)


def danilov_family(count: int) -> list[tuple[int, int, int, float]]:
    """First `count` integral members (x, y, gap, ratio), ratio = |gap|/sqrt(x).

    Members sit at m = 15, 75, 135, ... (step 60); every member satisfies
    0 < |gap| and gap^2 < x exactly.  The ratio tends to 54 * 5^(-5/2); it is
    a float for reporting only.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    m = 15
    while len(out) < count:
        x, y, gap = danilov_member(m)
        if not gap or gap * gap >= x:
            raise IdentityError(f"danilov_family: member at m={m} has no small nonzero gap")
        out.append((x, y, gap, _gap_ratio(gap, x)))
        m += 60
    return out


def _gap_ratio(gap: int, x: int) -> float:
    """|gap| / sqrt(x) as a float, x >= 1 (report use only); inf when the
    ratio itself is beyond the float range.  Up to 1000 bits, x**0.5 is the
    float square root; a larger x is shifted down by an even number of bits
    first, so that it converts to a float."""
    g = abs(gap)
    try:
        if x.bit_length() <= 1000:
            return g / x**0.5
        shift = (x.bit_length() - 900) // 2 * 2
        return g / ((x >> shift) ** 0.5 * 2.0 ** (shift / 2))
    except OverflowError:
        pass
    # gap or sqrt(x) is beyond the float range.  Scale gap by 2^64 and x by
    # 2^128: the integer quotient is correctly rounded, and isqrt's floor
    # moves it by a relative 2^-64 at most.
    try:
        return (g << 64) / isqrt(x << 128)
    except OverflowError:
        return float("inf")


# The longest block of hall_scan, a power of two: one packed evaluation
# tests up to this many x
_HALL_BLOCK = 1024
# per block length H: the packs (P0, P1, P2, Q3, P0 << w), built on first use
_HALL_PACKS: dict = {}


def _hall_layout(H: int) -> tuple[int, int]:
    """(w, F) for a block of H = 2^k x: w >= 3k + 17 fraction bits, so that
    the rounding error 2 H^3 is at most 2^(w-16), and fields of
    F >= w + k + 3 bits, which hold every field content with the carry
    constant added (see hall_scan).  Both are multiples of 8."""
    k = H.bit_length() - 1
    w = (3 * k + 24) // 8 * 8
    return w, (w + k + 10) // 8 * 8


def _hall_packs(H: int) -> tuple[int, int, int, int, int]:
    """(P0, P1, P2, Q3, P0 << w): P_i = sum of h^i 2^(F h) and
    Q3 = sum of (H^3 - h^3) 2^(F h) over 0 <= h < H."""
    packs = _HALL_PACKS.get(H)
    if packs is None:
        w, F = _hall_layout(H)

        def pack(fields):
            return int.from_bytes(b"".join(t.to_bytes(F // 8, "little") for t in fields),
                                  "little")

        P0 = pack([1] * H)
        packs = _HALL_PACKS[H] = (P0, pack(range(H)), pack(h * h for h in range(H)),
                                  pack(H**3 - h**3 for h in range(H)), P0 << w)
    return packs


def _hall_block_len(a: int, room: int) -> int:
    """The length of the block at a: the largest power of two
    H <= min(_HALL_BLOCK, room) that divides a and has 96 H^4 <= a^2 isqrt(a),
    which bounds the Taylor remainder by 2^-12.  Blocks shorter than 16 are
    not filtered."""
    H = min(_HALL_BLOCK, a & -a, 1 << (room.bit_length() - 1))
    bound = a * a * isqrt(a)
    while H >= 16 and 96 * H**4 > bound:
        H >>= 1
    return H


def _hall_slack(a: int, H: int, p: int, q: int) -> int:
    """E (see hall_scan) of a block of length H at a, for threshold p/q;
    each of its three terms decreases as a grows."""
    w = _hall_layout(H)[0]
    return (-(-(p << w) // (q * (2 * a - 1)))  # eta
            - (-(3 * H**4 << w) // (128 * a * a * isqrt(a)))  # Taylor remainder
            + 2 * H**3)  # coefficient rounding


def _hall_block(a: int, H: int, E: int, carry: int) -> list[int]:
    """The x = a + h in [a, a + H) whose S_h lies within E of a multiple of
    2^w (see hall_scan), found for all h at once; carry is (2^w - 2E - 1) P0."""
    w, F = _hall_layout(H)
    K = w + a.bit_length() + 1
    r = isqrt(a << 2 * K)
    m = (1 << w) - 1
    P0, P1, P2, Q3, Mw = _hall_packs(H)
    n3 = -(-(1 << (K + w)) // (16 * a * r))  # -A3
    S = ((((3 * r) >> (K + 1 - w)) & m) * P1
         + ((3 << (K + w)) // (8 * r)) * P2
         + n3 * Q3
         + ((((a * r) >> (K - w)) + E - n3 * H**3) & m) * P0)
    # field h of S is t = S_h + E mod 2^w plus a multiple of 2^w; adding
    # 2^w - 2E - 1 to it carries into bit w exactly when t > 2E, so the
    # set bits of kept sit at F h + w for the h that stay
    kept = (((S + carry) ^ S) & Mw) ^ Mw
    out = []
    while kept:
        top = kept.bit_length() - 1
        out.append(a + top // F)
        kept ^= 1 << top
    out.reverse()
    return out


def _hall_candidates(a: int, b: int, p: int, q: int):
    """The x in [a, b), in order, that the packed test of hall_scan keeps at
    threshold p/q: every x whose exact test can pass, and a few more."""
    # (H, bit length of a) -> (E at a0 = 2^(bitlen(a) - 1), carry constant),
    # the constant None when 2E >= 2^w
    slack = {}
    while a < b:
        H = _hall_block_len(a, b - a)
        if H < 16:
            yield from range(a, a + H)
        else:
            n = a.bit_length()
            if (H, n) not in slack:
                E = _hall_slack(1 << (n - 1), H, p, q)
                d = (1 << _hall_layout(H)[0]) - 2 * E - 1
                slack[H, n] = E, d * _hall_packs(H)[0] if d >= 0 else None
            E, carry = slack[H, n]
            yield from range(a, a + H) if carry is None else _hall_block(a, H, E, carry)
        a += H


def hall_scan(Xmax: int, threshold) -> list[tuple[int, int, int, float]]:
    """Exhaustive near-cube scan: for 2 <= x <= Xmax, y = nearest integer to
    x^(3/2); emit (x, y, gap, ratio), gap = y^2 - x^3, when 0 < |gap| and
    gap^2 <= threshold^2 x (exact integer comparison).

    x runs in blocks [a, a + H), H a power of two that divides a
    (`_hall_block_len`).  One packed integer evaluation per block
    (`_hall_block`) skips x that provably fail; the exact test runs on the
    rest and alone decides every row.  No float is involved.  Why no passing
    x is skipped, with s = x^(3/2), T = threshold = p/q, x = a + h and
    0 <= h < H:

    - y = y0 + 1 (y0 = isqrt(x^3)) only when s > y0 + 1/2, so y > s - 1 and
      y + s > 2s - 1.
    - A passing x then has |y - s| = |gap| / (y + s) <= T sqrt(x) / (2s - 1)
      <= T / (2x - 1) <= T / (2a - 1).
    - Taylor at a: s = c0 + c1 h + c2 h^2 + c3 h^3 + R with c0 = a^(3/2),
      c1 = (3/2) a^(1/2), c2 = (3/8) a^(-1/2), c3 = -(1/16) a^(-3/2) and
      R = (3/128) xi^(-5/2) h^4 for some xi in [a, x], so
      0 <= R <= (3/128) H^4 a^(-5/2) <= 3 H^4 / (128 a^2 isqrt(a)).
    - In units of 2^-w: with rho = 2^K sqrt(a), K = w + bitlen(a) + 1 and
      r = isqrt(a 4^K) (r <= rho < r + 1), the integer coefficients
      A0 = floor(a r 2^(w-K)), A1 = floor(3 r 2^(w-K-1)),
      A2 = floor(3 2^(K+w) / (8 r)) and A3 = floor(-2^(K+w) / (16 a r)) are
      each within 2 of C_i = 2^w c_i: a 2^(w-K) < 1/2 bounds the error of r
      in A0 and A1, and r rho > a 4^K / 2 bounds it in A2 and A3 by far
      less than 1.  So S_h = sum A_i h^i is within
      2 (1 + h + h^2 + h^3) < 2 H^3 of 2^w (s - R).
    - Hence a passing x has |S_h - 2^w y| <= E(a) with the integer
      E(a) = eta + ceil(2^w 3 H^4 / (128 a^2 isqrt(a))) + 2 H^3, where
      eta = ceil(p 2^w / (q (2a - 1))) (`_hall_slack`).  Each term
      decreases in a, so E(a) <= E = E(a0) at a0 = 2^(bitlen(a) - 1) <= a:
      a block uses E, the same for every block of its length whose start
      has the same bit length.  When 2E < 2^w this gives
      (S_h + E) mod 2^w <= 2E, and an x with (S_h + E) mod 2^w > 2E fails.
    - The test runs on all h at once.  As A3 < 0, write
      A3 h^3 = |A3| (H^3 - h^3) - |A3| H^3 and fold -|A3| H^3 into the
      constant: with P_i = sum h^i 2^(F h), Q3 = sum (H^3 - h^3) 2^(F h),
      c = (A0 + E - |A3| H^3) mod 2^w and A1' = A1 mod 2^w, the integer
      S = c P0 + A1' P1 + A2 P2 + |A3| Q3 holds in field h (bits F h to
      F h + F - 1) t_h = c + A1' h + A2 h^2 + |A3| (H^3 - h^3), a sum of
      nonnegative terms with t_h = S_h + E mod 2^w.
    - No field overflows.  With the carry constant 2^w - 2E - 1 added,
      field h holds less than 2^w (H + 1) + A2 H^2 + |A3| H^3.  The block
      rule 96 H^4 <= a^2 isqrt(a) gives sqrt(a) >= 96^(1/5) H^(4/5), so
      A2 <= (3/8) 2^w a^(-1/2) (1 + 2^(1-K)) makes A2 H^2 < 0.151 2^w H^1.2,
      and |A3| <= 2^w / (16 a^(3/2)) (1 + 2^(1-K)) + 1 makes
      |A3| H^3 < 2^w H^0.6 / 246 + H^3 with H^3 <= 2^(w-17).  The total is
      below 2^w (H + 1 + 0.151 H^1.2 + 0.01 H^0.6) < 2^(w + k + 3) <= 2^F for
      H = 2^k <= 2^20 (1644 2^w < 2^(w+11) at H = 1024).  So adding
      (2^w - 2E - 1) P0 to S carries into bit w of field h exactly when
      t_h mod 2^w > 2E and never out of a field, and the flipped bits
      F h + w of (S + (2^w - 2E - 1) P0) XOR S mark the x that stay.
    - When 2E >= 2^w (a large T) nothing is skipped and the block runs the
      exact test on every x; so do blocks shorter than 16 (x < 544, and the
      first few x after an unaligned start).  Blocks reach _HALL_BLOCK from
      x = 407552 on.
    """
    if Xmax < 2:
        raise ValueError("Xmax must be >= 2")
    threshold = _rat(threshold)
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    # gap^2 <= (p/q)^2 x  <=>  gap^2 q^2 <= p^2 x, all in integers
    p, q = threshold.numerator, threshold.denominator
    p2, q2 = p * p, q * q
    out = []
    for x in _hall_candidates(2, Xmax + 1, p, q):
        cube = x**3
        y0 = isqrt(cube)
        # nearest of y0, y0 + 1 by exact comparison
        if (y0 + 1) ** 2 - cube < cube - y0 * y0:
            y = y0 + 1
        else:
            y = y0
        gap = y * y - cube
        if gap and gap * gap * q2 <= p2 * x:
            out.append((x, y, gap, _gap_ratio(gap, x)))
    return out


def format_family_csv(rows, with_r=False) -> str:
    """CSV lines r,x,y,gap,ratio (or x,y,gap,ratio) with ratio to 12 digits."""
    lines = []
    if with_r:
        lines.append("r,x,y,gap,ratio")
        for r, x, y, gap in rows:
            ratio = _gap_ratio(gap, x) if x > 0 else float("nan")
            lines.append(f"{r},{x},{y},{gap},{ratio:.12g}")
    else:
        lines.append("x,y,gap,ratio")
        for x, y, gap, ratio in rows:
            lines.append(f"{x},{y},{gap},{ratio:.12g}")
    return "\n".join(lines) + "\n"
