"""Representation-density counting for polynomial value sets.

count_range enumerates F over a box and counts the distinct integer values
landing in [N, 2N).  When the leading form is positive definite the box is
certified complete: an exact rational lower bound c with
F_top(x,y) >= c * max(|x|,|y|)^d is computed by branch-and-bound interval
arithmetic on the boundary of the unit square, and the box radius M is the
smallest integer with c*M^d - S*M^(d-1) > 2N (S = sum of the absolute lower
coefficients).  Both run in integers: the interval ends are dyadic, so each
round holds them as integers over one power of two, and the radius test is
multiplied through by the denominators of c and S.  The floor is kept on
F's leading BinaryForm, so a ladder over one F finds it once.  Otherwise the
box is best-effort and the report says so.
Enumeration evaluates F through its integer kernel (BivarPoly.kernel), so
every count is exact without a Fraction per point.  It covers one point of
each orbit of F's symmetry group in the box, not the whole box: the group is
read exactly off the coefficients (sign changes and swaps of x and y that fix
F), and the value set, so every count, is the same as the full box's.  The
columns also leave out the square around the origin on which a bound on
|F| from its coefficients stays below the window.  The process pool starts
by the number of points those columns hold, so a symmetric F counts in
process on a box whose full width would start it.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import BivarPoly, IntKernel
from .forms import BinaryForm, decompose, definiteness
from . import unipoly as up

# count_range counts on a bitmap while N is at most this many bits (a
# mapping of at most 2^28 bytes, 256 MiB of address space), and with a set
# above it.
BITMAP_MAX_BITS = 2**31

# count_range runs its --workers process pool only when the orbit columns
# hold at least this many points; fewer count in process.  For F with a
# trivial symmetry group the columns are the whole (2M+1)^2 box less the
# square skipped below the window, so this is a box at least 1024 columns
# wide.  Measured on a 2-vCPU host,
# x^2 + x*y + 2*y^2 + 3*x (trivial group), best of 3, one worker against 2:
#   columns     97      227     573     1273    2537
#   1 worker    5.0 ms  14 ms   101 ms  573 ms  2.16 s
#   2 workers   15.3 ms 28 ms   124 ms  274 ms  1.33 s
POOL_MIN_POINTS = 1024**2


class DensityError(ValueError):
    pass


def _bitmap(N: int) -> mmap.mmap:
    """A zeroed bitmap of N bits: an anonymous mapping, to be unmapped by a
    with block.  The OS zero-fills a page only when it is first touched, so
    resident memory follows the pages values land on, not N."""
    try:
        return mmap.mmap(-1, (N + 7) // 8)
    except OSError as exc:
        raise DensityError(f"cannot map a bitmap of N = {N} bits ({exc})") from exc


@dataclass
class DensityReport:
    N: int
    count: int
    box: int
    certified: bool
    lower_bound: Fraction | None
    mode: str  # bitmap | dedup
    normalized_sqrtlog: float
    normalized_cuberoot: float
    notes: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "schema": "1",
            "N": self.N,
            "range": [self.N, 2 * self.N],
            "count": self.count,
            "box": self.box,
            "certified": self.certified,
            "lower_bound": None if self.lower_bound is None else str(self.lower_bound),
            "mode": self.mode,
            "normalized_sqrtlog": self.normalized_sqrtlog,
            "normalized_cuberoot": self.normalized_cuberoot,
            "notes": self.notes,
        }

    def csv_row(self) -> str:
        return f"{self.N},{self.count},{self.normalized_sqrtlog:.12g}"


# -- certified lower bound on a positive-definite form ------------------------


def _interval_eval(P: list, a: int, b: int, s: int) -> tuple[int, int]:
    """Interval Horner evaluation of the int list P on [a/s, b/s], s > 0:
    (lo, hi) with lo <= s^d P(t) <= hi there, d = len(P) - 1.  After k
    coefficients the enclosure of the Fraction Horner value v_k is held as
    s^(k-1) v_k, so each step is v -> v t + c with t s in [a, b] and c s^k."""
    lo = hi = 0
    sk = 1
    for c in reversed(P):
        prods = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(prods) + c * sk, max(prods) + c * sk
        sk *= s
    return lo, hi


def _poly_min_lower_bound(coeffs) -> Fraction:
    """A rational lower bound for min of p on [-1, 1] by branch and bound.

    Each round bisects every interval whose interval-Horner lower bound lies
    below the best of p at the ends and midpoints, and stops once the least
    lower bound is positive and at least half that best value.  Every
    endpoint after r rounds is a/s with s = 2^r, so the rounds run in
    integers: P = L p is an int list (L the lcm of the denominators), a
    lower bound is an integer over L s^d and a sample p(u / 2s) the integer
    hom_eval(P, u, 2s) over L (2s)^d, d = len(p) - 1.  The bound is the
    same Fraction as the same search on Fraction endpoints gives."""
    L = math.lcm(*(c.denominator for c in coeffs))
    P = [c.numerator * (L // c.denominator) for c in coeffs]
    d = len(P) - 1
    work, s = [(-1, 1)], 1
    for _ in range(24):
        lows = [_interval_eval(P, a, b, s)[0] for a, b in work]
        samples = {u for a, b in work for u in (2 * a, 2 * b, a + b)}  # over 2s
        best = min(up.hom_eval(P, u, 2 * s) for u in samples)
        floor = min(lows)
        # floor / (L s^d) >= best / (2 L (2s)^d)
        if floor > 0 and floor << (d + 1) >= best:
            return Fraction(floor, L * s**d)
        # subdivide the intervals whose lower bound is still slack; the rest
        # keep their ends, rescaled to 2s
        nxt = []
        for lo, (a, b) in zip(lows, work):
            nxt += [(2 * a, a + b), (a + b, 2 * b)] if lo << d < best else [(2 * a, 2 * b)]
        work, s = nxt, 2 * s
        if len(work) > 4096:
            break
    return Fraction(min(_interval_eval(P, a, b, s)[0] for a, b in work), L * s**d)


def certified_form_floor(form: BinaryForm) -> Fraction:
    """Rational c > 0 with form(x, y) >= c * max(|x|,|y|)^d everywhere, for a
    positive-definite form; the minimum over the unit-square boundary is
    bounded below on two edge restrictions, form(1, t) and form(t, 1) for
    t in [-1, 1], because the other two edges mirror them.  The bound,
    certified or not, is kept on the form, so it is searched once per form
    object."""
    if form._floor is None:
        if definiteness(form) != "positive-definite":
            raise DensityError("form is not positive definite")
        # A positive-definite form has even degree, so form(-x, -y) = form(x, y):
        # form(-1, t) = form(1, -t) and form(t, -1) = form(-t, 1).  Under
        # t -> -t, exact interval Horner gives mirrored enclosures on mirrored
        # intervals and the sample points are mirrored too, so the branch and
        # bound on a mirrored edge returns the same bound as on its partner.
        p = form.coefficients  # form(1, t); reversed, form(t, 1)
        form._floor = min(_poly_min_lower_bound(p), _poly_min_lower_bound(p[::-1]))
    if form._floor <= 0:
        raise DensityError("failed to certify a positive floor")
    return form._floor


# -- enumeration --------------------------------------------------------------


def _lower_abs_sum(F: BivarPoly, d: int) -> Fraction:
    return sum(
        (abs(c) for (i, j), c in F.terms.items() if i + j < d), Fraction(0)
    )


def certified_box(F: BivarPoly, bound: int) -> tuple[int, Fraction]:
    """(M, c): enumerating |x|,|y| <= M provably covers every representation
    of a value <= bound; requires a positive-definite leading form."""
    d = F.degree()
    # the leading form is the one decompose keeps on F, and with it its
    # floor, so a ladder over one F searches the floor once
    c = certified_form_floor(decompose(F)[max(d, 0)])
    M = 1
    # a constant (d = 0) never grows past the bound: radius 1 holds its value
    if d:
        S = _lower_abs_sum(F, d)
        # c M^d - S M^(d-1) <= bound, times c.den * S.den
        a, b = c.numerator * S.denominator, S.numerator * c.denominator
        t = bound * c.denominator * S.denominator

        def short(m: int) -> bool:
            return m ** (d - 1) * (a * m - b) <= t

        while short(M):
            M += max(1, M // 16)
        # M grew geometrically; walk back to the smallest sufficient radius
        while M > 1 and not short(M - 1):
            M -= 1
    return M, c


# The eight signed permutations of the plane, as (swap, sx, sy):
# (x, y) -> (sx*x, sy*y), or (sx*y, sy*x) when swap is set.
_D4 = tuple((swap, sx, sy) for swap in (False, True) for sx in (1, -1) for sy in (1, -1))


def _act(g, x: int, y: int) -> tuple[int, int]:
    swap, sx, sy = g
    return (sx * y, sy * x) if swap else (sx * x, sy * y)


def _symmetries(F: BivarPoly) -> list:
    """The g in D4 with F o g == F, read off the stored exact coefficients
    (int or Fraction): g sends c x^i y^j to c sx^i sy^j x^j y^i when it
    swaps, and to c sx^i sy^j x^i y^j otherwise."""
    terms = F._terms
    return [
        (swap, sx, sy) for swap, sx, sy in _D4
        if all(
            terms.get((j, i) if swap else (i, j)) == c * sx**i * sy**j
            for (i, j), c in terms.items()
        )
    ]


def _below_window_radius(F: BivarPoly, M: int, lo: int) -> int:
    """h in [0, M + 1] with F < lo on the square max(|x|, |y|) < h.

    With L * F = sum n_ij x^i y^j in integers (BivarPoly.scaled_terms), h is
    the least integer with sum |n_ij| h^(i+j) >= L * lo, capped at M + 1: at
    a point with max(|x|, |y|) <= h - 1, |L * F| <= sum |n_ij| (h - 1)^(i+j)
    < L * lo.  The sum does not decrease in h, so h is found by bisection,
    and the cap ends the search where the sum never reaches L * lo (a
    constant below the window).  h = 0 when lo <= 0."""
    if lo <= 0:
        return 0
    L, scaled = F.scaled_terms()
    return bisect_left(range(M + 1), True,
                       key=lambda h: sum(abs(n) * h ** (i + j) for i, j, n in scaled) >= L * lo)


def _orbit_columns(F: BivarPoly, M: int, lo: int = 0) -> list:
    """[(x, y0, y1)]: the columns of a fundamental domain of F's symmetry
    group H in the box |x|, |y| <= M, column x covering y0 <= y <= y1, less
    the square max(|x|, |y|) < h on which F < lo (h from
    _below_window_radius; a column through that square keeps its pieces
    below and above it).  When H is trivial and h = 0 these are the full box
    columns, (x, -M, M) for every x.

    H is the set of g in D4 (the signed permutations) with F o g == F.  The
    octants g(O0), with O0 = {0 <= y <= x} and g in D4, cover the plane, and
    the H-orbit of g(O0) is the set of h g(O0), h in H: one octant per
    element of the right coset Hg.  The domain is the union of g(O0) over one
    g per right coset, found as one octant per H-orbit of the interior points
    g(2, 1).  It meets every orbit of the box: the box is D4-invariant, and a
    box point p lies in some k(O0), k = h g with g chosen, so h^-1 p lies in
    g(O0) and in the box, and F(h^-1 p) = F(p).  A column keeps the hull of its octant intervals, a
    superset of the domain's points in it.  One orbit may keep two points (on
    octant edges), which the value set absorbs.  (One octant per left coset
    gH is not a domain when H is not normal in D4.)
    """
    h = _below_window_radius(F, M, lo)
    H = _symmetries(F)
    reps, seen = [], set()
    for g in _D4:
        q = _act(g, 2, 1)
        if q not in seen:
            reps.append(g)
            seen.update(_act(h, *q) for h in H)
    cols = []
    for x in range(-M, M + 1):
        y0, y1 = M + 1, -M - 1
        for swap, sx, sy in reps:
            t = sx * x  # g(O0) is {0 <= sy*y <= t}, or {0 <= t <= sy*y} if swap
            if t >= 0:
                a, b = (t, M) if swap else (0, t)
                if sy < 0:
                    a, b = -b, -a
                y0, y1 = min(y0, a), max(y1, b)
        pieces = [(y0, min(y1, -h)), (max(y0, h), y1)] if abs(x) < h else [(y0, y1)]
        cols += [(x, a, b) for a, b in pieces if a <= b]
    return cols


def _chunk_values(K: IntKernel, columns, lo: int, hi: int) -> set[int]:
    """The distinct integer values of F on the chunk's columns [(x, y0, y1)],
    restricted to [lo, hi); K is F's integer kernel, so F(x, y) = v / K.D.
    The window of D * F is the range of multiples of D in [D lo, D hi), so
    each column is filtered by that range and divided by D once, on the
    distinct set."""
    D = K.D
    window = range(D * lo, D * hi, D).__contains__
    vals = set()
    for x, y0, y1 in columns:
        vals.update(filter(window, K.values(x, range(y0, y1 + 1))))
    return vals if D == 1 else {v // D for v in vals}


def count_range(F: BivarPoly, N: int, workers: int = 1) -> DensityReport:
    """Count of distinct integer values of F in [N, 2N) on the box of radius
    M (certified or not), enumerated over the orbit columns of
    _orbit_columns.  Those skip the square max(|x|, |y|) < h, h <= M + 1 the
    least integer with sum |n_ij| h^(i+j) >= L * N for L * F = sum n_ij
    x^i y^j in integers, because F < N there.  While
    N <= BITMAP_MAX_BITS (2^31) the counter is a bitmap of N bits (mode
    bitmap) in an anonymous memory mapping of up to 256 MiB, unmapped when
    the call returns or raises.  Its pages are zero-filled as values first
    land on them, so resident memory and set-up follow the values, not N; a
    window dense with values pays one page fault per page it touches.  A
    mapping that cannot be made is a DensityError.  Above 2^31 a set counts
    the values (mode dedup)."""
    if N < 2:
        raise DensityError("N must be >= 2")
    if F.is_zero():
        return DensityReport(
            N=N, count=0, box=0, certified=True, lower_bound=None, mode="dedup",
            normalized_sqrtlog=0.0, normalized_cuberoot=0.0,
            notes=["zero polynomial"],
        )
    notes = []
    d = F.degree()
    certified = False
    c = None
    try:
        M, c = certified_box(F, 2 * N)
        certified = True
    except DensityError as exc:
        notes.append(f"box not certified: {exc}")
        M = max(64, 4 * up.iroot(2 * N, max(d, 1)))
    lo, hi = N, 2 * N

    # deterministic shards of the orbit columns; merge order is shard order,
    # so the result is identical for any worker count
    columns = _orbit_columns(F, M, lo)
    nshards = max(1, min(workers * 4, len(columns)))
    shards = [columns[i::nshards] for i in range(nshards)]

    K = F.kernel()

    def fill(absorb) -> int:
        # each absorb returns how many of its values were new, so the running
        # total is the count and the store is never recounted
        count = 0
        if workers > 1 and sum(y1 - y0 + 1 for _, y0, y1 in columns) >= POOL_MIN_POINTS:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
                futs = [ex.submit(_chunk_values, K, cols, lo, hi) for cols in shards]
                for fut in futs:  # shard order, not completion order
                    count += absorb(fut.result())
        else:
            for cols in shards:
                count += absorb(_chunk_values(K, cols, lo, hi))
        if not certified:
            added = absorb(_near_curve_values(F, lo, hi))
            count += added
            if added:
                notes.append(f"{added} values added from curve-family points")
        return count

    if N <= BITMAP_MAX_BITS:
        mode = "bitmap"
        with _bitmap(N) as bits:

            def absorb(values) -> int:
                added = 0
                for v in values:
                    k = v - lo
                    i, m = k >> 3, 1 << (k & 7)
                    if not bits[i] & m:
                        bits[i] |= m
                        added += 1
                return added

            count = fill(absorb)
    else:
        mode = "dedup"
        allvals = set()

        def absorb(values) -> int:
            before = len(allvals)
            allvals.update(values)
            return len(allvals) - before

        count = fill(absorb)

    logN = math.log(N)
    return DensityReport(
        N=N,
        count=count,
        box=M,
        certified=certified,
        lower_bound=c,
        mode=mode,
        normalized_sqrtlog=count * math.sqrt(logN) / N,
        normalized_cuberoot=count / N ** (1 / 3),
        notes=notes,
    )


def _near_curve_values(F: BivarPoly, lo: int, hi: int) -> list[int]:
    """For a box that is not certified, F's curve-family minimum if it is an
    integer in [lo, hi).  witness._family_walk returns the family's negative
    values, else its single minimum; negative values lie below lo = N >= 2,
    so this adds at most that minimum, and nothing when a negative exists."""
    if F.degree() != 6:
        return []
    from .classify import classify
    from .witness import CertificateError, rouse_witness, danilov_witness

    shape = classify(F).shape or {}
    rec = shape.get("ecform")
    if rec is None:
        return []
    Fn = shape["normalized"]
    w = rouse_witness(Fn, rec, 25) if rec.b1 else danilov_witness(Fn, rec, 10)
    if not w.verify(Fn):  # Fn = F o M with M unimodular: the same values
        raise CertificateError(f"{w.lemma}: family values fail verification")
    return sorted({int(v) for _x, _y, v in w.points if v.denominator == 1 and lo <= v < hi})


# -- growth exponent ----------------------------------------------------------


def distinct_values_up_to(F: BivarPoly, N: int) -> int:
    """Number of distinct integer values of F in (-inf, N], for a
    positive-definite leading form: those in [lo, N + 1) on the certified
    box of radius M >= 1.  With m = max(|x|, |y|) and S the sum of the
    absolute lower coefficients, F >= c m^d - S m^(d-1) >= -S M^(d-1) for
    m >= 1, and F(0, 0) >= -S >= -S M^(d-1) for d >= 1, so the integer
    lo = -ceil(S M^(d-1)) bounds F below on the box.  A constant
    (d = 0) is positive, so there lo = 0."""
    M, _c = certified_box(F, N)
    d = F.degree()
    lo = -math.ceil(_lower_abs_sum(F, d) * M ** (d - 1)) if d else 0
    return len(_chunk_values(F.kernel(), _orbit_columns(F, M), lo, N + 1))


def growth_exponent(F: BivarPoly, Ns: list) -> dict:
    """Least-squares slope of log(count of distinct values <= N) vs log N;
    certified_box rejects a leading form that is not positive definite.
    Both logs must exist and the log N must not all be equal, so an N below
    1, a repeated N and an N with no value of F up to it are errors."""
    if len(Ns) < 3:
        raise DensityError("need at least 3 ladder points")
    if len(set(Ns)) != len(Ns):
        raise DensityError(f"repeated N in the ladder: {sorted(Ns)}")
    if min(Ns) < 1:
        raise DensityError(f"every N in the ladder must be >= 1: {sorted(Ns)}")
    rows = [(N, distinct_values_up_to(F, N)) for N in sorted(Ns)]
    for N, cnt in rows:
        if not cnt:
            raise DensityError(f"F takes no value <= {N}, so log(count) is undefined")
    xs = [math.log(N) for N, _ in rows]
    ys = [math.log(cnt) for _, cnt in rows]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    return {"slope": slope, "counts": rows}


# -- sums of two squares baseline --------------------------------------------


def landau_baseline(Nmax: int) -> tuple[int, float]:
    """Count of n in [1, Nmax] that are sums of two squares, and the ratio to
    Nmax / sqrt(ln Nmax).  Marks x^2 + y^2 <= Nmax for 0 <= x <= y in one
    bytearray, then drops the mark at 0."""
    if Nmax < 100:
        raise DensityError("Nmax must be >= 100")
    squares = [x * x for x in range(math.isqrt(Nmax) + 1)]
    seen = bytearray(Nmax + 1)
    for x, xx in enumerate(squares):
        for yy in squares[x : math.isqrt(Nmax - xx) + 1]:
            seen[xx + yy] = 1
    count = seen.count(1) - 1
    ratio = count / (Nmax / math.sqrt(math.log(Nmax)))
    return count, ratio


# -- normalized ladder --------------------------------------------------------


def stanley_probe(F: BivarPoly, Ns: list, workers: int = 1) -> dict:
    """Table of count([N, 2N)) * sqrt(log N) / N over the ladder, flagged
    bounded-looking when nonincreasing beyond the first third.  A repeated N
    is an error: its rows would compare with each other and make the flag
    vacuous."""
    if len(set(Ns)) != len(Ns):
        raise DensityError(f"repeated N in the ladder: {sorted(Ns)}")
    rows = []
    for N in sorted(Ns):
        rep = count_range(F, N, workers=workers)
        rows.append((N, rep.count, rep.normalized_sqrtlog))
    if not rows:
        return {"rows": [], "bounded_looking": False}
    tail = rows[len(rows) // 3 :]
    bounded = all(a[2] >= b[2] - 1e-12 for a, b in zip(tail, tail[1:]))
    return {"rows": rows, "bounded_looking": bounded}
