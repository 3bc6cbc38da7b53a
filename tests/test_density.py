import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sexticlab.density as density_mod

from sexticlab.density import (
    DensityError,
    DensityReport,
    certified_box,
    certified_form_floor,
    count_range,
    distinct_values_up_to,
    growth_exponent,
    landau_baseline,
    stanley_probe,
)
from sexticlab import cli, unipoly as up
from sexticlab.forms import BinaryForm
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly

from test_forms import form_of
from test_poly import homogeneous_part


def two_squares_direct(Nmax: int) -> int:
    """Independent enumeration of sums of two squares in [1, Nmax]."""
    seen = set()
    x = 0
    while x * x <= Nmax:
        y = 0
        while x * x + y * y <= Nmax:
            if x or y:
                seen.add(x * x + y * y)
            y += 1
        x += 1
    return len(seen)


def window_values(F, N, M):
    vals = set()
    for x in range(-M, M + 1):
        for y in range(-M, M + 1):
            v = F.eval(x, y)
            if v.denominator == 1 and N <= v < 2 * N:
                vals.add(int(v))
    return vals


def brute_count(F, N, M):
    return len(window_values(F, N, M))


# -- certified floor and box --------------------------------------------------


def test_certified_floor_is_valid_bound():
    F = parse("x^6 + y^6")
    form = form_of(F)
    c = certified_form_floor(form)
    assert c > 0
    for x in range(-7, 8):
        for y in range(-7, 8):
            if x or y:
                assert F.eval(x, y) >= c * max(abs(x), abs(y)) ** 6


def test_certified_floor_rejects_semidefinite():
    with pytest.raises(DensityError):
        certified_form_floor(form_of(parse("x^6")))
    with pytest.raises(DensityError):
        certified_form_floor(form_of(parse("x^6 - y^6")))


def test_certified_floor_cross_term_form():
    F = parse("x^2 + x*y + y^2")
    c = certified_form_floor(form_of(F))
    # exact minimum of the normalized form on the boundary is 3/4
    assert 0 < c <= Fraction(3, 4)


# Unimodular changes of variable with entries in [-2, 2]
SL2 = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
    if a * d - b * c == 1
]


# -- Fraction reference for the integer branch and bound ----------------------
# The branch and bound as it ran on Fraction endpoints, kept as the
# differential oracle of density._interval_eval and _poly_min_lower_bound.


def _interval_eval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses p(t) for t in [lo, hi]."""
    vlo = vhi = Fraction(0)
    for c in reversed(coeffs):
        prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(prods) + c, max(prods) + c
    return vlo, vhi


def _poly_min_lower_bound(coeffs) -> Fraction:
    """A rational lower bound for min of p on [-1, 1] by branch and bound."""
    work = [(Fraction(-1), Fraction(1))]
    for _ in range(24):
        bounds = [(_interval_eval(coeffs, a, b), a, b) for a, b in work]
        best_point = min(
            min(up.peval(coeffs, a), up.peval(coeffs, b), up.peval(coeffs, (a + b) / 2))
            for _bd, a, b in bounds
        )
        floor_bound = min(bd[0] for bd, _a, _b in bounds)
        if floor_bound >= best_point * Fraction(1, 2) and floor_bound > 0:
            return floor_bound
        # subdivide the intervals whose lower bound is still slack
        work = []
        for (blo, _bhi), a, b in bounds:
            m = (a + b) / 2
            work += [(a, m), (m, b)] if blo < best_point else [(a, b)]
        if len(work) > 4096:
            break
    return min(_interval_eval(coeffs, a, b)[0] for a, b in work)


def four_edge_bounds(form):
    """The Fraction branch and bound on each of the four edges of the unit
    square: form(s, t), then form(t, s), for s = 1, -1 and t in [-1, 1]."""
    d, cs = form.degree, form.coefficients
    edges = [[cs[k] * s ** (d - k) for k in range(d + 1)] for s in (1, -1)]
    edges += [[cs[d - j] * s ** (d - j) for j in range(d + 1)] for s in (1, -1)]
    return [_poly_min_lower_bound(p) for p in edges]


def assert_edges_match_oracle(form):
    """On both edges of the form, form(1, t) and form(t, 1), the integer
    bound is the Fraction reference's, exactly.  Returns the two bounds."""
    out = []
    for p in (form.coefficients, form.coefficients[::-1]):
        ref = _poly_min_lower_bound(p)
        assert density_mod._poly_min_lower_bound(p) == ref
        out.append(ref)
    return out


def _quarter_turns(m):
    return all(0 in row for row in m)


# each form with those of its SL2 images whose four-edge reference takes
# under 0.1 s; the identity keeps the form itself
FLOOR_FORMS = (
    ("x^6+y^6", _quarter_turns),
    ("x^6+x^4*y^2+y^6", _quarter_turns),
    ("(x^2+y^2)^3", _quarter_turns),
    ("x^2+x*y+2*y^2", lambda m: True),
    ("x^4+y^4", lambda m: all(abs(e) <= 1 for row in m for e in row)),
    ("1/2*x^6+1/3*y^6", _quarter_turns),
)


@pytest.mark.parametrize("text, keep", FLOOR_FORMS, ids=[t for t, _keep in FLOOR_FORMS])
def test_two_edge_floor_equals_four_edge_reference(text, keep):
    F = parse(text)
    images = [m for m in SL2 if keep(m)]
    assert ((1, 0), (0, 1)) in images
    for (a, b), (c, d) in images:
        G = F.subs(BivarPoly({(1, 0): a, (0, 1): b}), BivarPoly({(1, 0): c, (0, 1): d}))
        form = form_of(G)
        refs = four_edge_bounds(form)
        assert min(refs) > 0
        # the integer search on the two edges it runs, form(1, t) and
        # form(t, 1), gives the Fraction bound exactly
        cs = form.coefficients
        assert density_mod._poly_min_lower_bound(cs) == refs[0]
        assert density_mod._poly_min_lower_bound(cs[::-1]) == refs[2]
        assert certified_form_floor(form) == min(refs)


def _random_form(rng):
    """A product of one to three definite rational quadratics, negated one
    time in ten: a rational form of degree 2, 4 or 6."""
    def rat(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    p = [1]
    for _ in range(rng.randint(1, 3)):
        a, b, c = rat(1, 6), rat(-6, 6), rat(1, 6)
        p = up.pmul(p, [a, b if b * b < 4 * a * c else 0, c])
    if rng.random() < 0.1:
        p = [-c for c in p]
    return BinaryForm(len(p) - 1, p)


def test_integer_floor_equals_fraction_oracle_on_random_forms():
    # a negated form ends both edges at a bound <= 0 after 24 rounds; an
    # edge whose minimum is inside (-1, 1) and negative would end at 4096
    # intervals, which takes the Fraction reference seconds per edge
    rng = random.Random(2026)
    bounds = []
    for _ in range(200):
        bounds += assert_edges_match_oracle(_random_form(rng))
    assert sum(b <= 0 for b in bounds) >= 20 and sum(b > 0 for b in bounds) >= 300


def test_integer_floor_equals_fraction_oracle_on_give_up_path():
    # an image of x^6 + x^4 y^2 + y^6 whose search passes 4096 intervals and
    # returns its least interval bound, <= 0, uncertified
    form = form_of(parse("(-x-y)^6 + (-x-y)^4*(2*x+y)^2 + (2*x+y)^6"))
    assert min(assert_edges_match_oracle(form)) <= 0
    with pytest.raises(DensityError, match="failed to certify"):
        certified_form_floor(form)


def _degree_sums(F):
    """[S_0, ..., S_d]: S_k the sum of the absolute coefficients of F's
    degree-k part, in Fraction."""
    S = [Fraction(0)] * (F.degree() + 1)
    for (i, j), c in F.terms.items():
        S[i + j] += abs(c)
    return S


def _margin(F, c, m):
    """c m^d - sum_{k<d} S_k m^k, in Fraction: a lower bound for F at every
    point with max(|x|, |y|) = m."""
    S = _degree_sums(F)
    d = len(S) - 1
    return c * Fraction(m) ** d - sum(S[k] * Fraction(m) ** k for k in range(d))


def _fraction_radius(F, bound):
    """certified_box's radius by its definition, in Fraction: the least
    m >= 1 with c m^d - sum_{k<d} S_k m^k > bound, counting up from 1."""
    d = F.degree()
    c = certified_form_floor(form_of(homogeneous_part(F, d)))
    M = 1
    while d and _margin(F, c, M) <= bound:
        M += 1
    return M, c


def _translate(F, a, b):
    """F(x + a, y + b)."""
    return F.subs(BivarPoly({(1, 0): 1, (0, 0): a}), BivarPoly({(0, 1): 1, (0, 0): b}))


def test_certified_box_radius_equals_fraction_reference():
    rng = random.Random(26)
    tops = ["x^2 + y^2", "x^2 + x*y + 2*y^2", "x^4 + y^4", "1/2*x^6 + 1/3*y^6",
            "x^6 + x^4*y^2 + y^6", "x^8 + 3*y^8"]
    cases = [(parse("5"), 10), (parse("7/2"), 1), (parse("x^2 + y^2"), 0)]
    for _ in range(60):
        F = parse(rng.choice(tops))
        d = F.degree()
        for _k in range(rng.randint(0, 3)):
            i = rng.randrange(d)
            j = rng.randrange(d - i)
            F = F + BivarPoly({(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))})
        # the reference counts up from 1, so keep M in the hundreds
        cases.append((F, rng.choice((1, 10, 10**3, 10**4 if d == 2 else 10**9))))
    # translates, whose lower terms sum to far more than any one degree needs
    for _ in range(12):
        F = _translate(parse(rng.choice(tops)), rng.randint(-3, 3), rng.randint(-3, 3))
        cases.append((F, rng.choice((1, 10, 10**3))))
    assert any(S.denominator > 1 for F, _b in cases for S in _degree_sums(F))
    for F, bound in cases:
        assert certified_box(F, bound) == _fraction_radius(F, bound)
    assert certified_box(parse("5"), 10**9) == (1, 5)


def _count_searches(monkeypatch):
    calls = []
    search = density_mod._poly_min_lower_bound

    def counted(coeffs):
        calls.append(list(coeffs))
        return search(coeffs)

    monkeypatch.setattr(density_mod, "_poly_min_lower_bound", counted)
    return calls


def test_ladder_searches_floor_once_per_edge(monkeypatch):
    calls = _count_searches(monkeypatch)
    stanley_probe(parse("x^6 + x^4*y^2 + y^6 + x*y"), [1000, 10**4, 10**5])
    assert len(calls) == 2
    growth_exponent(parse("x^4 + 2*y^4 + x"), [100, 1000, 10**4])
    assert len(calls) == 4
    assert calls[2] == [1, 0, 0, 0, 2] and calls[3] == [2, 0, 0, 0, 1]


def test_ladder_searches_octic_floor_once_per_edge(monkeypatch):
    # decompose gives every degree its leading form, so the floor of an
    # octic is kept on it as a sextic's is
    calls = _count_searches(monkeypatch)
    stanley_probe(parse("x^8 + y^8 + x*y"), [10**4, 10**5, 10**6])
    assert calls == [[1, 0, 0, 0, 0, 0, 0, 0, 1]] * 2


def test_certified_box_minimality():
    for text, bound, radius in (
        ("x^6 + y^6 + x - 3", 2 * 10**4, 6),
        ("(x-1)^6 + (y-2)^6", 10**4, 22),  # 792 under one bound on all lower terms
        ("(x+3)^6 + (y-3)^6", 10**4, 43),  # 8191 under it
    ):
        F = parse(text)
        M, c = certified_box(F, bound)
        assert M == radius
        # the per-degree bound clears the radius and not one less, and by
        # Descartes' rule stays clear beyond it
        assert _margin(F, c, M) > bound
        assert M == 1 or _margin(F, c, M - 1) <= bound
        assert all(_margin(F, c, m) > bound for m in range(M, 4 * M))


def test_certified_box_covers_all_representations():
    F = parse("x^2 + y^2")
    N = 50
    M, _c = certified_box(F, 2 * N)
    # any representation of a value < 2N must satisfy |x|, |y| <= M
    for x in range(-3 * M, 3 * M + 1):
        for y in range(-3 * M, 3 * M + 1):
            if max(abs(x), abs(y)) > M:
                assert F.eval(x, y) >= 2 * N


def _seeded_box_cases():
    """(F, bound): translates of definite forms by seeded (a, b) in
    [-3, 3]^2, some with a seeded rational lower term, and translates of
    rational forms."""
    rng = random.Random(1919)
    tops = ["x^2 + x*y + 2*y^2", "x^4 + y^4", "1/2*x^6 + 1/3*y^6", "x^6 + x^4*y^2 + y^6",
            "1/3*x^4 + 1/5*x^2*y^2 + 1/2*y^4"]
    cases = []
    for text in tops:
        F = _translate(parse(text), rng.randint(-3, 3), rng.randint(-3, 3))
        if rng.random() < 0.5:
            d = F.degree()
            i = rng.randrange(d)
            F = F + BivarPoly({(i, rng.randrange(d - i)): Fraction(rng.randint(-9, 9), 7)})
        cases.append((F, rng.choice((10, 100, 1000))))
    return cases


@pytest.mark.parametrize("F, bound", _seeded_box_cases())
def test_certified_box_holds_every_point_of_three_times_the_box(F, bound):
    # every point with F <= bound on the box three times the radius has
    # max(|x|, |y|) < M, so lies inside the box
    M, _c = certified_box(F, bound)
    r = range(-3 * M, 3 * M + 1)
    low = [(x, y) for x in r for y in r if F.eval(x, y) <= bound]
    assert low and all(max(abs(x), abs(y)) < M for x, y in low)


# -- count_range --------------------------------------------------------------


def test_count_matches_brute_oracle_quadratic():
    F = parse("x^2 + y^2")
    for N in (10, 50, 333):
        rep = count_range(F, N)
        assert rep.certified
        assert rep.count == brute_count(F, N, rep.box)


def test_count_matches_brute_oracle_sextic():
    F = parse("x^6 + y^6")
    rep = count_range(F, 10**4)
    assert rep.count == brute_count(F, 10**4, rep.box)


def test_count_rational_coefficients_match_fraction_oracle(monkeypatch):
    # D = 6: the kernel keeps a value only where 6 divides 6*F(x, y)
    F = parse("1/2*x^2 + 1/3*y^2 + 1/6*x*y + 1/2*x")
    for N in (20, 301):
        for max_bits in (10**6, 1):
            monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", max_bits)
            rep = count_range(F, N)
            assert rep.certified
            assert rep.count == brute_count(F, N, rep.box)


def test_count_frozen_value_sextic():
    rep = count_range(parse("x^6 + y^6"), 10**6)
    assert rep.count == 19
    assert rep.certified and rep.mode == "bitmap"


def test_count_rejects_tiny_n_and_zero_poly():
    with pytest.raises(DensityError):
        count_range(parse("x^2 + y^2"), 1)
    rep = count_range(parse("0"), 100)
    assert rep.count == 0 and "zero polynomial" in rep.notes


def test_bitmap_and_dedup_agree(monkeypatch):
    F = parse("x^2 + 2*y^2 + x")
    N = 400
    monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", 10**9)
    a = count_range(F, N)
    monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", 1)  # forces the set-based dedup store
    b = count_range(F, N)
    assert a.mode == "bitmap" and b.mode == "dedup"
    assert a.count == b.count


def test_mem_env_var(monkeypatch, capsys):
    # the store is picked from N alone: a bitmap up to 2^31 bits, a set above
    F = parse("x^6 + y^6")
    for N, mode, count, box in ((2**31, "bitmap", 178, 41), (2**31 + 1, "dedup", 177, 41)):
        rep = count_range(F, N)
        assert (rep.mode, rep.count, rep.box, rep.notes) == (mode, count, box, [])
        assert rep.count == len(window_values(F, N, rep.box))
    # SEXTIC_SIEVE_MEM once moved that switch; no value of it changes a byte
    outputs = []
    for value in ("1", "lots", None):
        if value is None:
            monkeypatch.delenv("SEXTIC_SIEVE_MEM", raising=False)
        else:
            monkeypatch.setenv("SEXTIC_SIEVE_MEM", value)
        assert cli.main(["density", "--poly", "x^2 + y^2", "--bound", "100"]) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["mode"] == "bitmap"
    assert outputs == outputs[:1] * 3


def test_bitmap_heap_does_not_grow_with_n(monkeypatch):
    # the bitmap is an anonymous mapping, not a Python object: at
    # N = 2e9 a 250 MB bytearray would sit on the heap, while the mapping
    # costs nothing there and its resident pages are the few that 153 values
    # land on
    import tracemalloc

    F = parse("x^6 + y^6")
    N = 2 * 10**9
    tracemalloc.start()
    try:
        rep = count_range(F, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mode == "bitmap" and peak < 10**6
    monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", 1)
    dedup = count_range(F, N)
    assert dedup.mode == "dedup" and dedup.count == rep.count == 153


def _seeded_polys(rng, n):
    """n polynomials a x^d + b y^d + lower terms, with a, b > 0 and a few
    lower coefficients, some of them non-integral."""
    out = []
    for _ in range(n):
        d = rng.choice((2, 4))
        terms = {(d, 0): rng.randint(1, 3), (0, d): Fraction(rng.randint(1, 5), rng.choice((1, 2)))}
        for _ in range(3):
            i = rng.randrange(d)
            j = rng.randrange(d - i)
            terms[(i, j)] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
        out.append(BivarPoly(terms))
    return out


def test_bitmap_and_dedup_agree_on_seeded_polynomials(monkeypatch):
    rng = random.Random(20261020)
    cases = [(F, 8 * rng.randint(6, 400) + rng.randint(1, 7)) for F in _seeded_polys(rng, 12)]
    # the window's two ends are values: 25 = 5^2, 49 = 7^2 and, with x and y
    # odd, (1 + 5^2)/2 = 13 and (1 + 7^2)/2 = 25; neither N is a multiple of 8
    ends = [(parse("x^2 + y^2"), 25), (parse("1/2*x^2 + 1/2*y^2"), 13)]
    for F, N in cases + ends:
        monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", N)
        a = count_range(F, N)
        monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", N - 1)
        b = count_range(F, N)
        assert (a.mode, b.mode) == ("bitmap", "dedup")
        assert a.count == b.count == brute_count(F, N, a.box), (F.format(), N)
    for F, N in ends:
        assert {N, 2 * N - 1} <= window_values(F, N, count_range(F, N).box)


def test_bitmap_that_cannot_be_mapped_is_a_density_error(monkeypatch):
    def no_mapping(fileno, length):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(density_mod.mmap, "mmap", no_mapping)
    F, N = parse("x^6 + y^6"), 10**8
    with pytest.raises(DensityError, match="cannot map a bitmap of N = 100000000 bits"):
        count_range(F, N)
    # the set counter maps nothing
    monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", 1)
    assert count_range(F, N).mode == "dedup"


def test_worker_determinism(monkeypatch):
    # with the pool threshold lowered below the 2,415 to 9,409 orbit points
    # of the quadratics and the quartic (the sextic keeps 36 and counts in
    # process), workers > 1 really runs the process pool; shards merge in
    # shard order in both modes.  Every shard of 2*x^2 + x + 2*y^2 at
    # N = 2000, for 2, 3 and 5 workers, holds a value no other shard has,
    # so a lost first, middle or last shard changes the count; so does
    # every shard of the orbit columns of x^4 + y^4 + x^2*y at N = 600000
    monkeypatch.setattr(density_mod, "POOL_MIN_POINTS", 1024)
    cases = (
        (parse("x^6 + y^6 + x*y"), 2000),
        (parse("x^2 + x*y + 2*y^2 + 3*x"), 500),
        (parse("2*x^2 + x + 2*y^2"), 2000),
        (parse("x^4 + y^4 + x^2*y"), 600000),
    )
    for max_bits, mode in ((10**6, "bitmap"), (1, "dedup")):
        monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", max_bits)
        for F, N in cases:
            base = count_range(F, N, workers=1).to_json_obj()
            assert base["mode"] == mode
            for w in (2, 3, 5):
                assert count_range(F, N, workers=w).to_json_obj() == base


class PoolStarted(Exception):
    pass


def test_pool_holds_no_more_processes_than_cpus(monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records max_workers and maps the shards in order, in process; no
        process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(density_mod, "POOL_MIN_POINTS", 16)
    monkeypatch.setattr(density_mod.os, "cpu_count", lambda: 3)
    F, N = parse("x^2 + x*y + 2*y^2 + 3*x"), 500
    base = count_range(F, N).to_json_obj()
    for workers in (2, 3, 4, 100000):
        # the shards stay workers * 4, so the report is the same for any cap
        assert count_range(F, N, workers=workers).to_json_obj() == base
    assert sizes == [2, 3, 3, 3]
    # a host that cannot count its CPUs gets one process
    monkeypatch.setattr(density_mod.os, "cpu_count", lambda: None)
    assert count_range(F, N, workers=8).to_json_obj() == base
    assert sizes[-1] == 1


def test_pool_starts_only_for_wide_boxes(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise PoolStarted

    def orbit_points(F, N):
        # box columns, points on the orbit columns less the skipped square, h
        M = certified_box(F, 2 * N)[0]
        columns = density_mod._orbit_columns(F, M, N)
        return 2 * M + 1, sum(y1 - y0 + 1 for _, y0, y1 in columns), \
            density_mod._below_window_radius(F, M, N)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    F = parse("x^2 + y^2")
    # the box of `density --bound 3000 --workers 2` counts in process
    rep = count_range(F, 3000, workers=2)
    assert 2 * rep.box + 1 == 157
    assert rep.to_json_obj() == count_range(F, 3000).to_json_obj()
    # the pool starts by the points of the orbit columns, not the box width:
    # F's group of order 8 and the square max(|x|, |y|) < 265 leave 106,001
    # of the 1061^2 points at N = 140000, and 1,052,947 of 3349^2 at 1400000
    columns, points, _h = orbit_points(F, 140000)
    assert columns >= 1024 and points < density_mod.POOL_MIN_POINTS
    assert count_range(F, 140000, workers=2).to_json_obj() == count_range(F, 140000).to_json_obj()
    assert orbit_points(F, 1400000)[1] >= density_mod.POOL_MIN_POINTS
    with pytest.raises(PoolStarted):
        count_range(F, 1400000, workers=2)
    # with a trivial group the columns are the whole box less the square of
    # side 2h - 1: 1067 columns start it at N = 70000, and 1051 do not at 68000
    G = parse("x^2 + x*y + 2*y^2 + 3*x")
    columns, points, h = orbit_points(G, 70000)
    assert points == columns**2 - (2 * h - 1) ** 2 >= density_mod.POOL_MIN_POINTS
    assert columns == 1067
    with pytest.raises(PoolStarted):
        count_range(G, 70000, workers=2)
    columns, points, h = orbit_points(G, 68000)
    assert points == columns**2 - (2 * h - 1) ** 2 < density_mod.POOL_MIN_POINTS <= columns**2


@pytest.mark.parametrize(
    "poly,count,up_to_100", [("1", 0, 1), ("60", 1, 1), ("1/2", 0, 0), ("x^0", 0, 1)]
)
def test_density_of_a_positive_constant_returns(poly, count, up_to_100):
    # a constant never grows past the bound, so its box has radius 1
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))

    def density(*argv):
        return subprocess.run(
            [sys.executable, "-m", "sexticlab.cli", "density", "--poly", poly, *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )

    proc = density("--bound", "50")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert (obj["count"], obj["box"]) == (count, 1)
    assert density("--ladder", "100,1000,10000").returncode == 0
    code = (
        "from sexticlab.density import distinct_values_up_to\n"
        "from sexticlab.parser import parse\n"
        f"print(distinct_values_up_to(parse({poly!r}), 100))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.stdout == f"{up_to_100}\n"


def test_curve_family_merge_counts_only_new_values(monkeypatch):
    F, N = parse("x^6 + x^2*y^3"), 1000
    box = count_range(F, N).box
    in_box = window_values(F, N, box)
    old = sorted(in_box)[:2]
    fresh = [v for v in range(N, 2 * N) if v not in in_box][:3]
    assert len(old) == 2 and len(fresh) == 3
    for extra in (old + fresh + fresh[:2] + old[:1], old + old, []):
        monkeypatch.setattr(density_mod, "_near_curve_values", lambda F, lo, hi: list(extra))
        added = len(set(extra) - in_box)
        notes = [f"{added} values added from curve-family points"] if added else []
        for max_bits in (10**6, 1):
            monkeypatch.setattr(density_mod, "BITMAP_MAX_BITS", max_bits)
            rep = count_range(F, N)
            assert not rep.certified and rep.box == box
            assert rep.count == len(in_box | set(extra))
            assert [n for n in rep.notes if "curve-family" in n] == notes


def test_curve_family_value_merges_end_to_end(capsys):
    # F's leading form (y^2 - x^3)^2 is not definite, so the box is the
    # best-effort 64; the Danilov family adds 182055, which no box point gives
    F, N = parse("(y^2 - x^3)^2 + x + 2"), 100000
    assert density_mod._near_curve_values(F, N, 2 * N) == [182055]
    in_box = window_values(F, N, 64)
    assert 182055 not in in_box and len(in_box) == 98
    assert cli.main(["density", "--poly", "(y^2 - x^3)^2 + x + 2", "--bound", "100000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["count"], out["box"], out["certified"]) == (99, 64, False)
    assert out["notes"] == ["box not certified: form is not positive definite",
                            "1 values added from curve-family points"]


def test_uncertified_box_notes():
    rep = count_range(parse("x^6 + x^2*y^3"), 1000)
    assert not rep.certified
    assert any("not certified" in n for n in rep.notes)


def test_report_json_and_csv():
    rep = count_range(parse("x^2 + y^2"), 128)
    obj = rep.to_json_obj()
    assert obj["schema"] == "1"
    assert obj["range"] == [128, 256]
    assert obj["count"] == rep.count
    row = rep.csv_row().split(",")
    assert int(row[0]) == 128 and int(row[1]) == rep.count


# -- enumeration by symmetry orbit ---------------------------------------------

# One input per subgroup of D4, with its order.  The order-2 groups other
# than {id, -id} are not normal in D4, so one octant per left coset gH would
# miss orbits there.
SYMMETRIC = (
    ("x^2 + y^2", 8),
    ("x^6 + y^6", 8),
    ("x^4 + y^4 + x^2*y", 2),  # x -> -x
    ("x^4 + y^4 + x*y^2", 2),  # y -> -y
    ("x^4 + x^2*y^2 + y^4 + x + y", 2),  # the swap
    ("x^6 + y^6 + x*y + x - y", 2),  # the anti-swap (x, y) -> (-y, -x)
    ("1/2*x^6 + 1/3*y^6 + x*y", 2),  # (x, y) -> (-x, -y)
    ("x^4 + y^4 + x^3*y - x*y^3", 4),  # the quarter turns
    ("x^4 + 2*y^4 + x^2", 4),  # the sign changes
    ("x^4 + y^4 + x*y", 4),  # -1 and the two swaps
    ("x^2 + x*y + 2*y^2 + 3*x", 1),
    ("x^6 + x^2*y^3", 2),  # x -> -x; the box is not certified
)


def act(g, x, y):
    swap, sx, sy = g
    return (sx * y, sy * x) if swap else (sx * x, sy * y)


def fixing(F):
    """The signed permutations g with F(g(p)) == F(p) on a 7 x 7 grid, which
    decides F o g == F for degrees up to 6 in each variable."""
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    return {
        (swap, sx, sy)
        for swap in (False, True) for sx in (1, -1) for sy in (1, -1)
        if all(F.eval(*act((swap, sx, sy), x, y)) == F.eval(x, y) for x, y in grid)
    }


def full_box_values(F, M, keep):
    K = F.kernel()
    span = range(-M, M + 1)
    return {v // K.D for x in span for v in K.values(x, span) if not v % K.D and keep(v // K.D)}


@pytest.mark.parametrize("text, order", SYMMETRIC)
def test_symmetry_group(text, order):
    F = parse(text)
    H = density_mod._symmetries(F)
    assert len(H) == order
    assert set(H) == fixing(F)


@pytest.mark.parametrize("text, changed, lost", [
    ("x^2 + y^2", "x^2 + 2*y^2", [(True, 1, 1), (True, -1, -1)]),
    ("x^4 + y^4 + x^2*y", "x^4 + y^4 + x^2*y + x", [(False, -1, 1)]),
    ("x^4 + y^4 + x*y^2", "x^4 + y^4 + x*y^2 + y^3", [(False, 1, -1)]),
    ("x^4 + x^2*y^2 + y^4 + x + y", "x^4 + x^2*y^2 + y^4 + x + 2*y", [(True, 1, 1)]),
    ("x^6 + y^6 + x*y + x - y", "x^6 + y^6 + x*y + x + y", [(True, -1, -1)]),
    ("1/2*x^6 + 1/3*y^6 + x*y", "1/2*x^6 + 1/3*y^6 + x*y + x", [(False, -1, -1)]),
    ("x^4 + y^4 + x^3*y - x*y^3", "x^4 + y^4 + x^3*y - 2*x*y^3", [(True, -1, 1)]),
])
def test_symmetry_broken_by_one_coefficient(text, changed, lost):
    before = set(density_mod._symmetries(parse(text)))
    after = set(density_mod._symmetries(parse(changed)))
    assert after == fixing(parse(changed))
    for g in lost:
        assert g in before and g not in after


@pytest.mark.parametrize("text", [t for t, _order in SYMMETRIC])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.integers(2, 300),
    st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
)
def test_orbit_domain_matches_full_box(text, N, extra):
    # with extra, one lower term c x^i y^j is added, which breaks some or
    # all of the symmetries of F
    F = parse(text)
    if extra is not None and extra[0] + extra[1] < F.degree():
        F = F + BivarPoly({extra[:2]: extra[2]})
    rep = count_range(F, N)
    ref = full_box_values(F, rep.box, lambda v: N <= v < 2 * N)
    if not rep.certified:
        ref |= set(density_mod._near_curve_values(F, N, 2 * N))
    assert rep.count == len(ref)
    if rep.certified:
        M, _c = certified_box(F, N)
        assert distinct_values_up_to(F, N) == len(full_box_values(F, M, lambda v: v <= N))


def _square_cases():
    """(F, N) with N at the edge of the skipped square: L * N at and just
    past the bound sum |n_ij| h^(i+j) for small h, on seeded definite
    polynomials with rational coefficients, on inputs whose box is not
    certified, and on constants below and in the window."""
    rng = random.Random(3434)
    polys = _seeded_polys(rng, 6) + [parse(t) for t in (
        "x^6 + y^6", "1/2*x^6 + 1/3*y^6 + x*y - 5", "x^6 + x^2*y^3", "x^4 - 2*y^4 + x*y")]
    cases = [(parse("7"), 50), (parse("7/2"), 2), (parse("60"), 50)]
    for F in polys:
        L, scaled = F.scaled_terms()
        for h in (1, 2, 3, 4, rng.randint(5, 9)):
            t = sum(abs(n) * h ** (i + j) for i, j, n in scaled)
            cases += [(F, max(2, t // L)), (F, t // L + 1)]
    return cases


@pytest.mark.parametrize("F, N", _square_cases())
def test_skipped_square_keeps_every_window_value(F, N):
    rep = count_range(F, N)
    M = rep.box
    h = density_mod._below_window_radius(F, M, N)
    assert 0 <= h <= M + 1
    # F < N at every point of the skipped square
    inner = range(1 - h, h)
    assert all(F.eval(x, y) < N for x in inner for y in inner)
    # the count is the whole box's
    ref = full_box_values(F, M, lambda v: N <= v < 2 * N)
    if not rep.certified:
        ref |= set(density_mod._near_curve_values(F, N, 2 * N))
    assert rep.count == len(ref)


def test_skipped_square_radius():
    # h is the least radius whose coefficient bound reaches L * N, capped at
    # M + 1, and 0 for a window at or below 0
    F = parse("x^6 + y^6")  # L = 1, sum |n_ij| h^(i+j) = 2 h^6
    assert [density_mod._below_window_radius(F, 100, N) for N in (2, 128, 129, 130)] == [1, 2, 3, 3]
    assert density_mod._below_window_radius(F, 10, 10**12) == 11
    assert density_mod._below_window_radius(F, 10, 0) == 0
    # a constant below the window: the bound never reaches it, so the cap
    # skips the whole box
    assert density_mod._below_window_radius(parse("7"), 1, 50) == 2
    assert density_mod._below_window_radius(parse("60"), 1, 50) == 0
    assert density_mod._orbit_columns(parse("7"), 1, 50) == []


# -- growth exponent ----------------------------------------------------------


def test_distinct_values_up_to_oracle():
    F = parse("x^2 + y^2")
    n = distinct_values_up_to(F, 100)
    # 0 plus the sums of two squares up to 100
    assert n == two_squares_direct(100) + 1


def test_distinct_values_up_to_counts_down_to_the_floor():
    # the floor -ceil(sum_{k<d} S_k M^k) is -S_0 = -50 here, F's minimum at
    # the origin, so a floor one higher would lose that value
    F = parse("x^2 + y^2 - 50")
    assert distinct_values_up_to(F, 100) == two_squares_direct(150) + 1


def test_distinct_values_up_to_rational_oracle():
    F = parse("1/2*x^4 + 1/3*y^4 + 1/6*x*y")
    M, _c = certified_box(F, 500)
    ref = {int(v) for x in range(-M, M + 1) for y in range(-M, M + 1)
           for v in [F.eval(x, y)] if v.denominator == 1 and v <= 500}
    assert distinct_values_up_to(F, 500) == len(ref)


def test_growth_exponent_sextic_diagonal():
    F = parse("x^6 + y^6")
    out = growth_exponent(F, [10**4, 10**5, 10**6, 10**7])
    assert abs(out["slope"] - 1 / 3) < 0.08
    counts = [c for _N, c in out["counts"]]
    assert counts == sorted(counts)


def test_growth_exponent_validation():
    with pytest.raises(DensityError):
        growth_exponent(parse("x^6 + y^6"), [10, 100])
    with pytest.raises(DensityError):
        growth_exponent(parse("x^6 - y^6"), [10, 100, 1000])


@pytest.mark.parametrize("poly,Ns", [
    ("x^2 + y^2 + 10", [5, 50, 500]),  # no value <= 5: log(0)
    ("x^6 + y^6", [100, 100, 100]),  # every log N equal: the slope divides by 0
    ("x^6 + y^6", [10, 10, 100]),  # repeated N, as stanley_probe rejects
    ("x^6 + y^6", [0, 10, 100]),  # log(0)
])
def test_growth_exponent_rejects_ladders_without_a_slope(poly, Ns):
    with pytest.raises(DensityError):
        growth_exponent(parse(poly), Ns)


# -- sums of two squares ------------------------------------------------------


def test_landau_sieve_matches_direct():
    count, ratio = landau_baseline(10**4)
    assert count == two_squares_direct(10**4)
    assert 0.5 < ratio < 1.2


# prime powers of 3 and 7, squares and primes as the last n in range
UNEVEN_BOUNDS = [100, 101, 243, 441, 997, 2187, 6561, 9409, 12345, 30001]


@pytest.mark.parametrize("N", UNEVEN_BOUNDS)
def test_landau_sieve_matches_direct_at_uneven_bounds(N):
    assert landau_baseline(N)[0] == two_squares_direct(N)


def _two_squares_by_theorem(n: int) -> bool:
    """n >= 1 is a sum of two squares iff every prime p = 3 (mod 4) divides
    it to an even power; the primes are found by trial division."""
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p % 4 == 3 and e % 2:
            return False
        p += 1
    return n % 4 != 3  # what is left is 1 or a prime to the first power


@pytest.mark.parametrize("N", UNEVEN_BOUNDS)
def test_landau_baseline_matches_two_squares_theorem(N):
    # an oracle that enumerates no pairs x^2 + y^2
    assert landau_baseline(N)[0] == sum(map(_two_squares_by_theorem, range(1, N + 1)))


def test_landau_ratio_near_constant():
    _count, ratio = landau_baseline(10**5)
    # Landau-Ramanujan constant is 0.76422; slow convergence from above
    assert abs(ratio - 0.76422) < 0.12


def test_landau_rejects_small():
    with pytest.raises(DensityError):
        landau_baseline(50)


class Allocated(Exception):
    pass


def test_landau_rejects_large_before_allocating(monkeypatch):
    # the bytearray of Nmax + 1 bytes is the baseline's one large
    # allocation: a stand-in that raises shows it is never reached past the
    # cap, and is reached at the cap
    def no_bytearray(n):
        raise Allocated(n)

    monkeypatch.setattr(density_mod, "bytearray", no_bytearray, raising=False)
    cap = density_mod.BASELINE_MAX_N
    assert cap == 2**28
    for Nmax in (cap + 1, 10**19):
        with pytest.raises(DensityError, match="Nmax must be <= 268435456"):
            landau_baseline(Nmax)
    with pytest.raises(Allocated):
        landau_baseline(cap)


def test_box_beyond_the_cap_is_refused_before_its_columns(monkeypatch):
    # the orbit columns are a box's one large allocation: a stand-in that
    # raises shows they are never built past the cap, for a certified box,
    # a best-effort one and the growth count, and are built below it
    def no_columns(*args):
        raise Allocated(args[1])

    monkeypatch.setattr(density_mod, "_orbit_columns", no_columns)
    assert density_mod.BOX_MAX_POINTS == 2**36
    F = parse("x^2 + y^2")
    assert certified_box(F, 2 * 10**30)[0] == 1414213562373096
    cases = (
        lambda: count_range(F, 10**30),
        lambda: count_range(parse("x^6 + x^2*y^3"), 10**40),
        lambda: distinct_values_up_to(F, 2 * 10**30),
    )
    for run in cases:
        with pytest.raises(DensityError, match=r"the box of radius M = \d+ holds more than"):
            run()
    # the largest radius within the cap, 131071, and one more
    assert (2 * 131071 + 1) ** 2 <= 2**36 < (2 * 131072 + 1) ** 2
    density_mod._check_box(131071)
    with pytest.raises(DensityError, match="M = 131072"):
        density_mod._check_box(131072)
    for run in (lambda: count_range(F, 10**6), lambda: distinct_values_up_to(F, 10**6)):
        with pytest.raises(Allocated):
            run()


# -- normalized ladder --------------------------------------------------------


def test_stanley_probe_rows():
    F = parse("x^2 + y^2")
    out = stanley_probe(F, [100, 200, 400, 800])
    assert len(out["rows"]) == 4
    for N, count, norm in out["rows"]:
        assert abs(norm - count * math.sqrt(math.log(N)) / N) < 1e-12
    assert isinstance(out["bounded_looking"], bool)


def test_stanley_probe_sextic_values_sparse():
    out = stanley_probe(parse("x^6 + y^6"), [10**4, 10**5, 10**6])
    # sextic value sets thin out much faster than N / sqrt(log N)
    norms = [r[2] for r in out["rows"]]
    assert norms[-1] < norms[0]
    assert out["bounded_looking"]
