from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from sexticlab import unipoly as up
from sexticlab.poly import IdentityError


# -- rational references the exact kernel is compared against -----------------


def monic(p: list) -> list:
    if not p:
        return []
    lead = Fraction(p[-1])
    return [c / lead for c in p]


def squarefree_part(p: list) -> list:
    d = up.pderiv(p)
    if not d:
        return monic(p) if p else []
    g = up.pgcd(p, d)
    q, r = up.pdivmod(p, g)
    if r:
        raise IdentityError("squarefree_part: the gcd with p' does not divide p")
    return monic(q)


def rational_roots(p: list) -> list[Fraction]:
    """All rational roots, by the rational root theorem on the primitive form."""
    p = up.trim(list(p))
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    v = 0
    while not p[v]:
        v += 1
    if v:
        roots.append(Fraction(0))
        p = p[v:]
    if up.pdeg(p) < 1:
        return roots

    q = up.primitive(p)
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
                if not up.peval(q, r):
                    roots.append(r)
    return sorted(set(roots))


def to_sympy(p):
    t = sympy.Symbol("t")
    return sum(sympy.Rational(c) * t**i for i, c in enumerate(p))


def test_divmod():
    # (t^2 - 1) = (t - 1)(t + 1)
    q, r = up.pdivmod([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)])
    assert q == [Fraction(1), Fraction(1)]
    assert r == []


def test_gcd_known():
    a = up.pmul([Fraction(-1), Fraction(1)], [Fraction(2), Fraction(1)])  # (t-1)(t+2)
    b = up.pmul([Fraction(-1), Fraction(1)], [Fraction(5), Fraction(1)])  # (t-1)(t+5)
    g = up.pgcd(a, b)
    assert monic(g) == [Fraction(-1), Fraction(1)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
)
def test_gcd_matches_sympy(ca, cb):
    a = [Fraction(c) for c in ca]
    b = [Fraction(c) for c in cb]
    if len(up.trim(a)) < 2 or len(up.trim(b)) < 2:
        return
    t = sympy.Symbol("t")
    ours = monic(up.pgcd(a, b))
    theirs = sympy.gcd(to_sympy(a), to_sympy(b), t)
    theirs = sympy.Poly(theirs, t, domain="QQ").monic()
    ours_sym = sympy.Poly(to_sympy(ours), t, domain="QQ")
    assert ours_sym == theirs


def test_yun_decomposition():
    # (t-1)^2 (t+2)^3
    f = [Fraction(1)]
    for _ in range(2):
        f = up.pmul(f, [Fraction(-1), Fraction(1)])
    for _ in range(3):
        f = up.pmul(f, [Fraction(2), Fraction(1)])
    parts = up.yun_decomposition(f)  # [B1, B2, B3] with f = lc * prod Bi^i
    assert len(parts) == 3
    assert monic(parts[0]) == [Fraction(1)]
    assert monic(parts[1]) == [Fraction(-1), Fraction(1)]
    assert monic(parts[2]) == [Fraction(2), Fraction(1)]


def test_sturm_count():
    # t^3 - 2t has roots -sqrt2, 0, sqrt2; V(lo) - V(hi) counts (lo, hi]
    p = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    chain = up.sturm_chain(p)

    def count(lo, hi):
        return up.sign_variations(chain, Fraction(lo)) - up.sign_variations(chain, Fraction(hi))

    assert count(-10, 10) == 3
    assert count(0, 10) == 1
    assert count(1, 2) == 1


def test_isolate_real_roots_count_matches_sympy():
    # x^4 - 5x^2 + 4 = (x-1)(x+1)(x-2)(x+2)
    p = [Fraction(4), Fraction(0), Fraction(-5), Fraction(0), Fraction(1)]
    ivs = up.isolate_real_roots(p)
    assert len(ivs) == 4
    roots = sorted([-2, -1, 1, 2])
    for iv, r in zip(ivs, roots):
        assert iv.lo < r < iv.hi


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=2, max_size=6))
def test_isolation_matches_sympy_root_count(cs):
    p = [Fraction(c) for c in cs]
    if len(up.trim(p)) < 2:
        return
    t = sympy.Symbol("t")
    expected = sympy.polys.polytools.count_roots(sympy.Poly(to_sympy(p), t))
    ivs = up.isolate_real_roots(p)
    assert len(ivs) == expected


def test_isolation_runs_on_the_square_free_part():
    sf = [Fraction(c) for c in (2, -1, -3, 1)]  # t^3 - 3t^2 - t + 2, square-free
    ivs = up.isolate_real_roots(sf)
    assert len(ivs) == 3
    # a negative leading coefficient changes no interval
    assert [(iv.lo, iv.hi, iv.poly) for iv in up.isolate_real_roots(up.pneg(sf))] == [
        (iv.lo, iv.hi, iv.poly) for iv in ivs
    ]
    # (t^2 - 2)^2 (t + 1)^3 (t - 3): the intervals and poly of its square-free part
    p = up.pmul(up.pmul(up.pmul([-2, 0, 1], [-2, 0, 1]), [-3, 1]), [1, 3, 3, 1])
    p = [Fraction(c) for c in p]
    for q in (p, up.pneg(p)):
        ivs = up.isolate_real_roots(q)
        want = up.isolate_real_roots(squarefree_part(q))
        assert len(ivs) == 4
        assert [(iv.lo, iv.hi, iv.poly) for iv in ivs] == [(iv.lo, iv.hi, iv.poly) for iv in want]
        # a positive multiple of the monic square-free part
        assert all(iv.poly[-1] > 0 and monic(iv.poly) == squarefree_part(q) for iv in ivs)


def test_isolation_keeps_the_primitive_integer_list():
    # 2t^2 - 1 is primitive with a positive lead already; its positive root
    # 1/sqrt(2) = [0; 1, 2, 2, 2, ...]
    ivs = up.isolate_real_roots([-1, 0, 2])
    assert [iv.poly for iv in ivs] == [[-1, 0, 2], [-1, 0, 2]]
    assert all(type(c) is int for iv in ivs for c in iv.poly)
    pos = [iv for iv in ivs if iv.lo >= 0][0]
    pairs = up.convergents_of_root(pos, 7)
    assert pairs == [(0, 1), (1, 1), (2, 3), (5, 7), (12, 17), (29, 41), (70, 99)]
    assert pairs == bisection_convergents(pos.poly, pos.lo, pos.hi, 7)


def test_monic_returns_fractions_on_integer_input():
    m = monic([2, 4])
    assert m == [Fraction(1, 2), Fraction(1)] and all(type(c) is Fraction for c in m)


# products c * prod f_j^e_j of small integer factors of degree 1 or 2, total
# degree at most 8, so that most draws have repeated factors
_factor = st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=2),
    st.integers(1, 4).filter(bool),
    st.integers(1, 3),
)


def _product(c, factors):
    p = [Fraction(c)]
    for low, lead, e in factors:
        for _ in range(e):
            p = up.pmul(p, [Fraction(a) for a in low + [lead]])
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-5, 5).filter(bool), st.lists(_factor, min_size=1, max_size=4))
def test_yun_matches_sympy_sqf_list(c, factors):
    assume(sum(len(low) * e for low, _, e in factors) <= 8)
    p = _product(c, factors)
    parts = up.yun_decomposition(p)
    assert all(type(x) is int for b in parts for x in b)
    assert all(b[-1] > 0 and up.primitive(b) == b for b in parts)
    # lc * prod B_i^i = p
    prod = _product(1, [(b[:-1], b[-1], i) for i, b in enumerate(parts, start=1)])
    lc = p[-1] / prod[-1]
    assert [lc * x for x in prod] == p
    # the same factors as sympy's, up to a positive scalar
    t = sympy.Symbol("t")
    _, theirs = sympy.sqf_list(sympy.Poly(to_sympy(p), t))
    ours = {i: b for i, b in enumerate(parts, start=1) if len(b) > 1}
    assert sorted(ours) == sorted(i for _, i in theirs)
    for f, i in theirs:
        coeffs = [int(x) for x in reversed(f.all_coeffs())]
        assert coeffs[-1] > 0 and monic(ours[i]) == monic(coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(-5, 5).filter(bool),
    st.lists(_factor, min_size=1, max_size=4),
    st.fractions(-6, 6, max_denominator=8),
    st.fractions(-6, 6, max_denominator=8),
)
def test_sturm_counts_match_sympy_on_repeated_roots(c, factors, a, b):
    assume(sum(len(low) * e for low, _, e in factors) <= 8 and a < b)
    p = _product(c, factors)
    assume(up.peval(p, a) and up.peval(p, b))
    chain = up.sturm_chain(p)
    t = sympy.Symbol("t")
    poly = sympy.Poly(to_sympy(p), t)
    count = up.sign_variations(chain, a) - up.sign_variations(chain, b)
    assert count == poly.count_roots(sympy.Rational(a), sympy.Rational(b))
    assert len(up.isolate_real_roots(p)) == poly.count_roots()


def test_rational_roots():
    # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
    p = [Fraction(1), Fraction(-3), Fraction(2)]
    assert rational_roots(p) == [Fraction(1, 2), Fraction(1)]


def test_convergents_of_sqrt2():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    pos = [iv for iv in up.isolate_real_roots(p) if iv.hi > 0][0]
    pairs = up.convergents_of_root(pos, 6)
    assert pairs == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]


def test_convergents_negative_root():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    neg = [iv for iv in up.isolate_real_roots(p) if iv.lo < 0][0]
    pairs = up.convergents_of_root(neg, 4)
    # -sqrt(2) = [-2; 1, 1, 2, 1, 1, 2, ...] -> -2, -1, -3/2, -7/5
    assert pairs[0] == (-2, 1)
    for pnum, q in pairs:
        assert q >= 1
        # |q a - p| < 1/q, loosely re-checked with floats
        assert abs(q * -(2**0.5) - pnum) < 1.0 / q + 1e-9


def test_convergents_reject_rational():
    p = [Fraction(-1), Fraction(0), Fraction(1)]  # t^2 - 1
    iv = [i for i in up.isolate_real_roots(p) if i.hi > 0][0]
    with pytest.raises(ValueError):
        up.convergents_of_root(iv, 3)


@pytest.mark.parametrize("num,den,n", [
    (3, 1, 4), (-7, 2, 4), (89, 55, 64), (355, 113, 64),
    # 355/113 = [3; 7, 16]: with n = 1 the walk meets it only by walking on
    # until the denominator passes the leading coefficient 113
    (355, 113, 1),
])
def test_convergents_reject_rational_at_any_depth(num, den, n):
    # (den*t - num)(t^2 - 2): the rational root is rejected at the step where
    # its continued fraction ends; the two irrational roots still walk
    p = [Fraction(c) for c in up.pmul([-num, den], [-2, 0, 1])]
    r = Fraction(num, den)
    ivs = up.isolate_real_roots(p)
    assert sum(iv.lo < r < iv.hi for iv in ivs) == 1
    for iv in ivs:
        if iv.lo < r < iv.hi:
            with pytest.raises(up.RationalRootError, match=f"rational \\({r}\\)") as exc:
                up.convergents_of_root(iv, n)
            assert exc.value.root == r and isinstance(exc.value, ValueError)
        else:
            assert len(up.convergents_of_root(iv, n)) == n


def test_convergents_floor_at_a_root_outside_the_interval():
    # (t - 1)(t^2 - 2) on (5/4, 3/2): the floor 1 of sqrt(2) is a root of
    # the polynomial but lies outside the interval, so it is no rational root
    p = [Fraction(c) for c in up.pmul([-1, 1], [-2, 0, 1])]
    iv = up.IsolatingInterval(p, Fraction(5, 4), Fraction(3, 2))
    assert up.convergents_of_root(iv, 4) == [(1, 1), (3, 2), (7, 5), (17, 12)]


def test_interval_poly_is_made_primitive():
    # (7t - 3)/100 on (2/5, 1/2): the lead 7/100 must not stop the walk at
    # q = 1 before the rational root 3/7 is reached
    iv = up.IsolatingInterval([Fraction(-3, 100), Fraction(7, 100)],
                              Fraction(2, 5), Fraction(1, 2))
    assert iv.poly == [-3, 7] and all(type(c) is int for c in iv.poly)
    with pytest.raises(up.RationalRootError) as exc:
        up.convergents_of_root(iv, 1)
    assert exc.value.root == Fraction(3, 7)
    assert up.IsolatingInterval([6, 0, -4], 1, 2).poly == [-3, 0, 2]


def test_interval_rejects_float_ends():
    for lo, hi in [(1.0, 2), (1, 1.5)]:
        with pytest.raises(TypeError):
            up.IsolatingInterval([-2, 0, 1], lo, hi)
    assert up.IsolatingInterval([-2, 0, 1], "7/5", 2).lo == Fraction(7, 5)


def test_cubic_root_convergents_certified():
    # real root of t^3 - t - 1 (the plastic number, ~1.3247)
    p = [Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)]
    iv = up.isolate_real_roots(p)[0]
    pairs = up.convergents_of_root(iv, 10)
    alpha = 1.3247179572447460
    for pnum, q in pairs:
        assert abs(q * alpha - pnum) < 1.0 / q + 1e-9


def bisection_convergents(poly, lo, hi, n):
    """The bisection routine the Lagrange walk replaced, kept as its oracle.

    Halves the isolating interval and takes the partial quotients as the
    common prefix of the endpoints' continued fractions, without either
    final quotient; it shares no code with the walk."""

    def value(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def expansion(r):
        out, num, den = [], r.numerator, r.denominator
        while den:
            a, rem = divmod(num, den)
            out.append(a)
            num, den = den, rem
        return out

    quots = []
    while len(quots) < n:
        mid = (lo + hi) / 2
        if (value(lo) > 0) != (value(mid) > 0):
            hi = mid
        else:
            lo = mid
        quots = []
        for a, b in zip(expansion(lo)[:-1], expansion(hi)[:-1]):
            if a != b:
                break
            quots.append(a)
    pairs = []
    p_prev, p_cur, q_prev, q_cur = 0, 1, 1, 0
    for a in quots[:n]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        pairs.append((p_cur, q_cur))
    return pairs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 4, 6]).flatmap(
        lambda d: st.lists(st.integers(-20, 20), min_size=d, max_size=d).map(
            lambda cs: cs + [d - 2]
        )
    )
)
def test_walk_matches_bisection(cs):
    # cubics, quartics and sextics with leading coefficient 1, 2 or 4; every
    # real root that sympy does not find rational is compared
    p = [Fraction(c) for c in cs]
    t = sympy.Symbol("t")
    rational = sympy.roots(sympy.Poly(to_sympy(p), t), filter="Q")
    irrational = [
        iv for iv in up.isolate_real_roots(p)
        if not any(iv.lo < r < iv.hi for r in rational)
    ]
    assume(irrational)
    for iv in irrational:
        walked = up.convergents_of_root(iv, 64)
        assert walked == bisection_convergents(iv.poly, iv.lo, iv.hi, 64)


@pytest.mark.parametrize("call,shift,n", [(4, 1, 6), (4, -1, 6), (3, -1, 2)])
def test_walk_certificate_catches_wrong_quotient(monkeypatch, call, shift, n):
    # 2^(1/3) = [1; 3, 1, 5, 1, 1, 4, ...].  The fourth floor off by one
    # (6 or 4 for 5) puts a convergent on the wrong side of the root.  The
    # extra third quotient walked as 0 repeats the first convergent, on its
    # right side, but would bound the second only by 1/q of the first
    p = [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)]
    iv = up.isolate_real_roots(p)[0]
    assert up.convergents_of_root(iv, 6)[:4] == [(1, 1), (4, 3), (5, 4), (29, 23)]
    real = up._root_floor
    calls = []

    def off_by_one(*args):
        calls.append(None)
        return real(*args) + (shift if len(calls) == call else 0)

    monkeypatch.setattr(up, "_root_floor", off_by_one)
    with pytest.raises(ArithmeticError, match="does not bracket the root"):
        up.convergents_of_root(iv, n)


@pytest.mark.parametrize("n,k,root", [
    (0, 3, 0), (26, 3, 2), (27, 3, 3), (10**18, 6, 1000), (10**18 - 1, 6, 999),
    (63, 6, 1), (64, 6, 2), (10**12, 6, 100),
])
def test_iroot(n, k, root):
    assert up.iroot(n, k) == root
