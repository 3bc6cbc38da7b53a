import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest

from sexticlab.eclab import (
    CurveError,
    CurvePoint,
    EllipticCurve,
    INFINITY,
    _HALL_BLOCK,
    _gap_ratio,
    _hall_block_len,
    _hall_candidates,
    _hall_layout,
    _hall_slack,
    danilov_family,
    danilov_member,
    ec_add,
    ec_mul,
    ec_neg,
    fibonacci,
    format_family_csv,
    hall_scan,
    lucas,
    pell_solve,
    rouse_family,
    rouse_point,
)
from sexticlab.poly import BivarPoly


def rouse_gap_identity() -> bool:
    """y_r^2 - x_r^3 - b1 x_r - r^2 b1^2 = 0 as a polynomial identity in
    (b1, r), checked by exact symbolic expansion."""
    b = BivarPoly.x()  # stands for b1
    r = BivarPoly.y()
    x_r = b * b * r**6 * 64 + b * r * r * 8
    y_r = b**3 * r**9 * 512 + b * b * r**5 * 96 + b * r * 3
    expr = y_r * y_r - x_r**3 - b * x_r - r * r * b * b
    return expr.is_zero()


def curve(b1, b0):
    return EllipticCurve(Fraction(b1), Fraction(b0))


def test_curve_rejects_singular():
    with pytest.raises(CurveError):
        EllipticCurve(Fraction(0), Fraction(0))  # y^2 = x^3 is singular
    with pytest.raises(CurveError):
        EllipticCurve(Fraction(-3), Fraction(2))  # disc = 0


def test_curve_rejects_float_coefficients():
    # Fraction(0.5) would silently become an exact binary fraction
    for A, B in [(0.5, 1), (1, 0.1)]:
        with pytest.raises(TypeError):
            EllipticCurve(A, B)
    assert EllipticCurve(1, "1/2").B == Fraction(1, 2)


def test_curve_point_rejects_float_coordinates():
    for x, y in [(0.1, 2), (0, 1.0)]:
        with pytest.raises(TypeError):
            CurvePoint(x, y)
    assert CurvePoint("1/3", 2).x == Fraction(1, 3)


def test_group_law_basics():
    E = curve(1, 1)
    P = CurvePoint(0, 1)
    assert E.contains(P)
    assert ec_add(E, P, INFINITY) == P
    assert ec_add(E, P, ec_neg(P)) == INFINITY
    Q = ec_add(E, P, P)
    assert E.contains(Q)
    assert ec_add(E, Q, ec_neg(P)) == P  # (2P) - P = P


def test_every_infinite_point_is_the_identity():
    # a point built with infinite=True, or copied from INFINITY, is equal to
    # INFINITY and must act as it does, not only the INFINITY object itself
    import copy

    E = curve(1, 1)
    P = CurvePoint(0, 1)
    for O in (CurvePoint(infinite=True), copy.copy(INFINITY), copy.deepcopy(INFINITY)):
        assert O is not INFINITY and O == INFINITY
        assert E.contains(O)
        assert ec_add(E, O, P) == P and ec_add(E, P, O) == P
        assert ec_add(E, O, O) == INFINITY
        assert ec_mul(E, O, 5) == INFINITY


def test_mul_consistency():
    E = curve(1, 1)
    P = CurvePoint(0, 1)
    acc = INFINITY
    for n in range(8):
        assert ec_mul(E, P, n) == acc
        acc = ec_add(E, acc, P)
    assert ec_mul(E, P, -3) == ec_neg(ec_mul(E, P, 3))


def test_associativity_samples():
    E = curve(-2, 5)  # contains (1, 2) and (2, ...)? pick points on the curve
    pts = []
    for x in range(-3, 30):
        rhs = Fraction(x) ** 3 - 2 * x + 5
        if rhs >= 0:
            from math import isqrt

            r = isqrt(rhs.numerator)
            if rhs.denominator == 1 and r * r == rhs.numerator:
                pts.append(CurvePoint(x, r))
    assert len(pts) >= 2
    P, Q = pts[0], pts[1]
    assert ec_add(E, ec_add(E, P, Q), P) == ec_add(E, P, ec_add(E, Q, P))


def test_rouse_point_closed_form():
    # r=1, b1=1: 3P = (72, 611)
    assert rouse_point(1, 1) == (72, 611)


def test_rouse_family_rows_and_gap():
    rows = rouse_family(1, 0, range(1, 6))
    assert rows[0] == (1, 72, 611, 1)
    for r, x, y, gap in rows:
        assert y * y - x**3 - x == r * r  # b1 = 1, gap vs b0 = 0
        assert gap == r * r


def test_rouse_gap_identity_symbolic():
    assert rouse_gap_identity()


def test_rouse_rejects_b1_zero():
    with pytest.raises(CurveError):
        rouse_family(0, 0, [1])


def test_rouse_family_rejects_float_b1():
    with pytest.raises(TypeError):
        rouse_family(0.5, 0, [1])


def test_fibonacci_lucas():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [lucas(n) for n in range(6)] == [2, 1, 3, 4, 7, 11]
    assert fibonacci(100) == 354224848179261915075


def test_danilov_member_identity():
    for m in (15, 75, 135):
        x, y, gap = danilov_member(m)
        assert y * y - x**3 == gap
        L = lucas(m)
        assert gap * 125 == 27 * (L + 11)


def test_danilov_family_contract():
    fam = danilov_family(10)
    assert len(fam) == 10
    for i, (x, y, gap, ratio) in enumerate(fam):
        assert gap != 0
        assert gap * gap < x  # exact comparison
        if i >= 4:
            assert abs(ratio - 0.965980) < 0.01


def _gap_ratio_two_step(gap, x):
    """The ratio as |gap| over a separately taken float sqrt(x), kept as the
    reference of _gap_ratio's one-step form."""
    def float_sqrt_big(x):
        if x.bit_length() <= 1000:
            return x**0.5
        shift = (x.bit_length() - 900) // 2 * 2
        return (x >> shift) ** 0.5 * 2.0 ** (shift / 2)

    try:
        return abs(gap) / float_sqrt_big(x)
    except OverflowError:
        pass
    try:
        return (abs(gap) << 64) / isqrt(x << 128)
    except OverflowError:
        return float("inf")


def test_gap_ratio_equals_two_step_reference():
    # x and gap on both sides of 1000 bits (the float square root) and of
    # 1024 bits (the float range), with the sign of gap both ways
    rng = random.Random(8)
    bits = (1, 2, 40, 999, 1000, 1001, 1023, 1024, 1025, 2100, 4000)
    for xb in bits:
        for gb in bits:
            for _ in range(3):
                x = rng.getrandbits(xb) | 1 << (xb - 1)
                gap = rng.choice((1, -1)) * (rng.getrandbits(gb) | 1 << (gb - 1))
                assert repr(_gap_ratio(gap, x)) == repr(_gap_ratio_two_step(gap, x))


def test_hall_scan_finds_known_small_gaps():
    rows = hall_scan(6000, 5)
    pts = {(x, y) for x, y, g, r in rows}
    assert (2, 3) in pts  # 9 - 8 = 1
    assert (5234, 378661) in pts  # classic gap 17
    for x, y, gap, ratio in rows:
        assert y * y - x**3 == gap
        assert gap * gap <= 25 * x


def _hall_scan_fraction(Xmax, threshold, start=2):
    # the pre-integer, unfiltered loop, kept as a differential oracle
    from math import isqrt

    t2 = Fraction(threshold) ** 2
    out = []
    for x in range(start, Xmax + 1):
        cube = x**3
        y0 = isqrt(cube)
        y = y0 + 1 if (y0 + 1) ** 2 - cube < cube - y0 * y0 else y0
        gap = y * y - cube
        if gap and Fraction(gap * gap) <= t2 * x:
            out.append((x, y, gap, abs(gap) / x**0.5))
    return out


def test_hall_scan_rejects_float_threshold():
    with pytest.raises(TypeError):
        hall_scan(20, 0.1)


@pytest.mark.parametrize("threshold", [0, 1, Fraction(5, 2), Fraction(7, 3)])
def test_hall_scan_matches_fraction_reference(threshold):
    rows = hall_scan(20000, threshold)
    assert rows == _hall_scan_fraction(20000, threshold)
    assert bool(rows) == (threshold > 0)


def test_hall_scan_matches_fraction_reference_random_thresholds():
    # Derandomized thresholds T from 0 to 2^15.  A block [a, a + H) has
    # 2E >= 2^w and runs the exact test on every x when T >= a - 1/2, about:
    # the blocks below x = 544 for all T (too short to filter), and those up
    # to x ~ T for the two T above 8192.  Multiples of _HALL_BLOCK are block
    # starts, so the Xmax values end one x before a block start, exactly on
    # one, and at 10^5.
    rng = random.Random(19)
    thresholds = [Fraction(rng.randrange(0, 400), rng.randrange(1, 60)) for _ in range(4)]
    thresholds += [Fraction(rng.randrange(8192, 2**15), rng.randrange(1, 3)) for _ in range(2)]
    top = 10**5
    ends = [12 * _HALL_BLOCK - 1, 12 * _HALL_BLOCK, top]
    a = 2
    while a < ends[1]:
        a += _hall_block_len(a, top + 1 - a)
    assert a == ends[1]
    for threshold in thresholds:
        ref = _hall_scan_fraction(top, threshold)
        for Xmax in ends:
            assert hall_scan(Xmax, threshold) == [row for row in ref if row[0] <= Xmax]


# Windows [a, a + 8 _HALL_BLOCK) at x near 1e8, 1e9, 3e9, 6e9, 2^34, 1e12 and
# 2^40, each several packed blocks, the first few short when a is not
# aligned.  With a tight threshold the window holds a near-cube whose ratio
# |gap|/sqrt(x) sits just below it (101727232: 54.66661, 101727560: 54.66672,
# 1002505096: 73.07525, 17179870208: 1024.000038, 1000000004000:
# 8000.00002); a loose one makes 1-3 % of the window pass.  Every window is
# filtered, as the packed test has no upper limit on x.
@pytest.mark.parametrize("a,threshold,filtered", [
    (101727232 - 4000, Fraction(54667, 1000), True),
    (10**8, 2 * 10**6, True),
    (1002505096 - 5000, Fraction(7308, 100), True),
    (10**9, 2 * 10**7, True),
    (3 * 10**9, 10**8, True),
    (6 * 10**9, 10**8, True),
    (2**34, Fraction(102400004, 10**5), True),
    (2**34, 3 * 10**8, True),
    (10**12, Fraction(800000003, 10**5), True),
    (10**12, 2 * 10**10, True),
    (2**40, 2**34, True),
    # just above a power of two, where E = E(a0) is tight, and just below the
    # next one, where E(a0) is about twice E(a)
    (2**30, 2 * 10**7, True),
    (2**31 - 8 * _HALL_BLOCK, 4 * 10**7, True),
    (2**37, 2**31, True),
    (2**38 - 8 * _HALL_BLOCK, 2**32, True),
])
def test_hall_candidates_keep_every_passing_x(a, threshold, filtered):
    b = a + 8 * _HALL_BLOCK
    t = Fraction(threshold)
    kept = list(_hall_candidates(a, b, t.numerator, t.denominator))
    passing = [row[0] for row in _hall_scan_fraction(b - 1, t, start=a)]
    assert passing and set(passing) <= set(kept)
    assert kept == sorted(set(kept)) and a <= kept[0] and kept[-1] < b
    assert (len(kept) < b - a) == filtered


def test_hall_candidates_keep_every_passing_x_random_blocks():
    # Derandomized starts a in [2, 2^48], log-uniform so that short blocks
    # with a large Taylor remainder are drawn too, aligned or not, with
    # thresholds 0, a small one, one near a/50 (a few % of x pass) and
    # 9 * 10^400 (2E >= 2^w: the whole window is kept).
    rng = random.Random(25)
    for _ in range(40):
        a = rng.randrange(2, 2 ** rng.randrange(2, 49) + 1)
        b = a + _HALL_BLOCK
        for t in (0, Fraction(rng.randrange(1, 10**4), rng.randrange(1, 100)),
                  Fraction(a, rng.randrange(20, 80)), 9 * 10**400):
            t = Fraction(t)
            kept = list(_hall_candidates(a, b, t.numerator, t.denominator))
            passing = [row[0] for row in _hall_scan_fraction(b - 1, t, start=a)]
            assert set(passing) <= set(kept)
            assert kept == sorted(set(kept)) and set(kept) <= set(range(a, b))
            if t >= b:
                assert kept == list(range(a, b))


def _hall_coefficients(a, w):
    """(A0, A1, A2, A3) of hall_scan's docstring: 2^w times the Taylor
    coefficients of x^(3/2) at a, each within 2."""
    K = w + a.bit_length() + 1
    r = isqrt(a << 2 * K)
    return ((a * r) >> (K - w), (3 * r) >> (K + 1 - w), (3 << (K + w)) // (8 * r),
            -(1 << (K + w)) // (16 * a * r))


def _hall_smallest_start(H):
    """The least multiple a of H with 96 H^4 <= a^2 isqrt(a)."""
    a = H
    while 96 * H**4 > a * a * isqrt(a):
        a += H
    return a


def test_hall_fields_hold_every_content():
    # The largest value a field of the packed block can hold, the carry
    # constant added, is below 2^F: the constant, A1 mod 2^w and the carry
    # constant are at most 2^w - 1, A2 h^2 at most A2 (H - 1)^2 and
    # |A3| (H^3 - h^3) at most |A3| H^3.  A2 and |A3| fall as a grows, so the
    # least a that gets a block of length H is the worst case; derandomized
    # larger a up to 2^48 are checked too.
    rng = random.Random(36)
    H = 16
    while H <= _HALL_BLOCK:
        w, F = _hall_layout(H)
        assert F % 8 == 0 and w < F
        a_min = _hall_smallest_start(H)
        assert _hall_block_len(a_min, H) == H and _hall_block_len(a_min - H, H) < H
        starts = [a_min] + [H * rng.randrange(a_min // H, 2 ** rng.randrange(20, 49) // H + 2)
                            for _ in range(20)]
        for a in starts:
            assert _hall_block_len(a, H) == H
            _, _, A2, A3 = _hall_coefficients(a, w)
            most = ((1 << w) - 1) * (H + 1) + A2 * (H - 1) ** 2 - A3 * H**3
            assert 0 < A2 < 1 << w and A3 < 0 and most < 1 << F
        H *= 2


def test_hall_slack_at_a0_bounds_the_block():
    # E(a) <= E(a0) for a in [a0, 2 a0), a0 = 2^(bitlen(a) - 1), which lets
    # every block whose start has the bit length of a use E(a0)
    rng = random.Random(37)
    for H in (16, 128, _HALL_BLOCK):
        for t in (Fraction(0), Fraction(5), Fraction(7, 3), Fraction(10**12, 7)):
            for bits in (10, 11, 19, 20, 33, 48):
                a0 = 1 << (bits - 1)
                E0 = _hall_slack(a0, H, t.numerator, t.denominator)
                for a in [a0 + 1, 2 * a0 - 1] + [rng.randrange(a0, 2 * a0) for _ in range(20)]:
                    assert a.bit_length() == bits
                    assert _hall_slack(a, H, t.numerator, t.denominator) <= E0


def _hall_filter_per_x(a, b, p, q):
    """The packed filter of hall_scan evaluated one x at a time: a block
    [a, a + H) of length H >= 16 keeps x = a + h when 2E >= 2^w or
    (S_h + E) mod 2^w <= 2E, with E = E(a0) and S_h = sum A_i h^i."""
    kept = []
    while a < b:
        H = _hall_block_len(a, b - a)
        w = _hall_layout(H)[0]
        E = _hall_slack(1 << (a.bit_length() - 1), H, p, q)
        if H < 16 or 2 * E >= 1 << w:
            kept += range(a, a + H)
        else:
            A0, A1, A2, A3 = _hall_coefficients(a, w)
            kept += [a + h for h in range(H)
                     if (A0 + A1 * h + A2 * h * h + A3 * h**3 + E) % (1 << w) <= 2 * E]
        a += H
    return kept


def test_hall_candidates_equal_the_per_x_filter():
    # the packed evaluation keeps exactly the x that the filter keeps when it
    # runs on each x alone: derandomized windows up to 2^48, windows just
    # above and just below a power of two, and the least start of each block
    # length, at thresholds that keep few x, a few % of x, or all of them
    rng = random.Random(38)
    starts = [_hall_smallest_start(1 << k) for k in range(4, 11)]
    starts += [2**30, 2**31 - _HALL_BLOCK, 2**40 + 3 * _HALL_BLOCK, 2**41 - 2 * _HALL_BLOCK]
    starts += [rng.randrange(2, 2 ** rng.randrange(10, 49)) for _ in range(12)]
    for a in starts:
        b = a + 2 * _HALL_BLOCK
        for t in (0, Fraction(rng.randrange(1, 10**4), rng.randrange(1, 100)),
                  Fraction(a, rng.randrange(20, 80)), 9 * 10**400):
            t = Fraction(t)
            p, q = t.numerator, t.denominator
            assert list(_hall_candidates(a, b, p, q)) == _hall_filter_per_x(a, b, p, q)


def test_pell_known_solutions():
    assert pell_solve(5, -4, 3).solutions == [(1, 1), (4, 2), (11, 5)]
    assert pell_solve(2, 1, 3).solutions == [(3, 2), (17, 12), (99, 70)]
    assert pell_solve(3, 1, 2).solutions == [(2, 1), (7, 4)]
    for x, y in pell_solve(13, 4, 4).solutions:
        assert x * x - 13 * y * y == 4
    for x, y in pell_solve(5, -1, 3).solutions:
        assert x * x - 5 * y * y == -1


@pytest.mark.parametrize("d, first", [(10, [(38, 12), (1442, 456)]), (41, [(4098, 640)])])
def test_pell_four_half_unit_regressions(d, first):
    # the minimal half unit can lie past twice the norm -1 unit's v
    assert pell_solve(d, 4, len(first)).solutions == first


def test_pell_four_large_unit_is_fast():
    # d = 151 has y1 = 140634693; the half-unit scan stops near sqrt(2 y1 / sqrt d)
    start = time.perf_counter()
    (a, b), = pell_solve(151, 4, 1).solutions
    assert time.perf_counter() - start < 1.0
    assert a * a - 151 * b * b == 4


def _least_v(d, c, vmax):
    return next((v for v in range(1, vmax + 1)
                 if d * v * v + c > 0 and isqrt(d * v * v + c) ** 2 == d * v * v + c), None)


@pytest.mark.parametrize("c", [1, -1, 4, -4])
def test_pell_small_d_against_brute_force(c):
    for d in range(2, 100):
        if isqrt(d) ** 2 == d:
            continue
        try:
            sols = pell_solve(d, c, 4).solutions
        except ValueError:
            assert c != 4
            assert _least_v(d, c, 10**3) is None
            continue
        assert all(u * u - d * v * v == c for u, v in sols)
        assert all(u2 > u1 and v2 > v1 for (u1, v1), (u2, v2) in zip(sols, sols[1:]))
        if sols[0][1] <= 10**5:
            assert _least_v(d, c, sols[0][1]) == sols[0][1]


def test_pell_minus_one_unsolvable():
    with pytest.raises(ValueError):
        pell_solve(3, -1, 1)  # x^2 - 3y^2 = -1 has no solution


def test_pell_rejects_square_d():
    with pytest.raises(ValueError):
        pell_solve(4, 1, 1)


def test_family_csv_format():
    rows = danilov_family(2)
    text = format_family_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,gap,ratio"
    assert len(lines) == 3


# Each case breaks one input of an exact identity check by patching what the
# checked code calls, then expects IdentityError.  Under python -O an assert
# would let the broken value through, so the case (and the test) fails.
OPTIMIZE_CASES = r"""
import importlib
from fractions import Fraction
E = importlib.import_module('sexticlab.eclab')
U = importlib.import_module('sexticlab.unipoly')
Fo = importlib.import_module('sexticlab.forms')
from sexticlab.poly import IdentityError

def ec_add_off_curve():
    C, P = E.EllipticCurve(1, 1), E.CurvePoint(0, 1)
    real = E.CurvePoint
    E.CurvePoint = lambda x, y: real(x, y + 1)
    E.ec_add(C, P, P)

def rouse_closed_form():
    E.ec_mul = lambda C, P, n: P
    E.rouse_family(1, 0, [1])

def rouse_gap():
    real = E.rouse_point
    E.rouse_point = lambda b1, r: (real(b1, r)[0] + 1, real(b1, r)[1])
    E.ec_mul = lambda C, P, n: E.CurvePoint(*E.rouse_point(1, 1))
    E.rouse_family(1, 0, [1])

def pell():
    real = E._half_unit
    E._half_unit = lambda d, x1, y1: (real(d, x1, y1)[0] + 2, real(d, x1, y1)[1])
    E.pell_solve(5, -4, 3)

def danilov_member():
    real = E.fibonacci
    E.fibonacci = lambda n: real(n) + 40
    E.danilov_member(15)

def danilov_family():
    real = E.danilov_member
    E.danilov_member = lambda m: real(m)[:2] + (0,)
    E.danilov_family(1)

def squarefree_profile():
    U.yun_decomposition = lambda p: [p, p]
    Fo.squarefree_profile(Fo.BinaryForm(2, [Fraction(1), Fraction(0), Fraction(1)]))

def yun_exact_quotient():
    # t + 1 does not divide t^2 + 1: Yun's exact integer quotient must refuse
    U.pgcd = lambda p, q: [1, 1]
    U.yun_decomposition([Fraction(1), Fraction(0), Fraction(1)])

for case in (ec_add_off_curve, rouse_closed_form, rouse_gap, pell, danilov_member,
             danilov_family, squarefree_profile, yun_exact_quotient):
    for m in (E, U, Fo):
        importlib.reload(m)
    try:
        case()
    except IdentityError:
        continue
    raise SystemExit('unchecked identity accepted: ' + case.__name__)
"""


def test_identity_checks_survive_optimize():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZE_CASES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
