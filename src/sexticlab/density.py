"""Representation-density counting for polynomial value sets.

count_range enumerates F over a box and counts the distinct integer values
landing in [N, 2N).  When the leading form is positive definite the box is
certified complete: an exact rational lower bound c with
F_top(x,y) >= c * max(|x|,|y|)^d is computed by branch-and-bound interval
arithmetic on the boundary of the unit square, and the box radius M is the
smallest integer with c*M^d - S*M^(d-1) > 2N (S = sum of the absolute lower
coefficients).  Otherwise the box is best-effort and the report says so.
Enumeration evaluates F through its integer kernel (BivarPoly.kernel), so
every count is exact without a Fraction per point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import BivarPoly, IntKernel
from .forms import BinaryForm, definiteness
from . import unipoly as up

DEFAULT_MEM_BITS = 2**31

# count_range runs its --workers process pool only for boxes at least this
# many columns wide; narrower boxes count in process.  Measured on a 2-vCPU
# host, x^2 + x*y + 2*y^2 + 3*x, best of 3, one worker against 2:
#   columns     97      227     573     1273    2537
#   1 worker    5.0 ms  14 ms   101 ms  573 ms  2.16 s
#   2 workers   15.3 ms 28 ms   124 ms  274 ms  1.33 s
POOL_MIN_COLUMNS = 1024


def _mem_bits() -> int:
    v = os.environ.get("SEXTIC_SIEVE_MEM")
    if not v:
        return DEFAULT_MEM_BITS
    try:
        return int(v)
    except ValueError:
        raise DensityError(f"SEXTIC_SIEVE_MEM must be an integer, got {v!r}") from None


class DensityError(ValueError):
    pass


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


def _interval_eval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses p(t) for t in [lo, hi]."""
    vlo = vhi = Fraction(0)
    for c in reversed(coeffs):
        prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(prods) + c, max(prods) + c
    return vlo, vhi


def _poly_min_lower_bound(coeffs, lo, hi, depth=24) -> Fraction:
    """A rational lower bound for min of p on [lo, hi] by branch and bound."""
    work = [(Fraction(lo), Fraction(hi))]
    for _ in range(depth):
        bounds = [(_interval_eval(coeffs, a, b), a, b) for a, b in work]
        best_point = min(
            min(up.peval(coeffs, a), up.peval(coeffs, b), up.peval(coeffs, (a + b) / 2))
            for _bd, a, b in bounds
        )
        floor_bound = min(bd[0] for bd, _a, _b in bounds)
        if floor_bound >= best_point * Fraction(1, 2) and floor_bound > 0:
            return floor_bound
        # subdivide the intervals whose lower bound is still slack
        thresh = best_point
        nxt = []
        for (blo, _bhi), a, b in bounds:
            if blo < thresh:
                m = (a + b) / 2
                nxt.append((a, m))
                nxt.append((m, b))
            else:
                nxt.append((a, b))
        work = nxt
        if len(work) > 4096:
            break
    return min(_interval_eval(coeffs, a, b)[0] for a, b in work)


def certified_form_floor(form: BinaryForm) -> Fraction:
    """Rational c > 0 with form(x, y) >= c * max(|x|,|y|)^d everywhere, for a
    positive-definite form; the minimum over the unit-square boundary is
    bounded below on the four edge restrictions."""
    if definiteness(form) != "positive-definite":
        raise DensityError("form is not positive definite")
    d = form.degree
    edges = []
    for sx in (1, -1):
        # p(t) = form(sx, t) = sum_k c_k sx^(d-k) t^k
        edges.append([form.coefficients[k] * Fraction(sx) ** (d - k) for k in range(d + 1)])
    for sy in (1, -1):
        # p(t) = form(t, sy) = sum over k of c_k t^(d-k) sy^k
        p = [Fraction(0)] * (d + 1)
        for k in range(d + 1):
            p[d - k] += form.coefficients[k] * Fraction(sy) ** k
        edges.append(p)
    c = None
    for p in edges:
        b = _poly_min_lower_bound(p, Fraction(-1), Fraction(1))
        c = b if c is None else min(c, b)
    if c <= 0:
        raise DensityError("failed to certify a positive floor")
    return c


# -- enumeration --------------------------------------------------------------


def _lower_abs_sum(F: BivarPoly, d: int) -> Fraction:
    return sum(
        (abs(c) for (i, j), c in F.terms.items() if i + j < d), Fraction(0)
    )


def certified_box(F: BivarPoly, bound: int) -> tuple[int, Fraction]:
    """(M, c): enumerating |x|,|y| <= M provably covers every representation
    of a value <= bound; requires a positive-definite leading form."""
    d = F.degree()
    top = BinaryForm.from_poly(F.homogeneous_part(d))
    c = certified_form_floor(top)
    S = _lower_abs_sum(F, d)
    M = 1
    while c * Fraction(M) ** d - S * Fraction(M) ** (d - 1) <= bound:
        M += max(1, M // 16)
    # M grew geometrically; walk back to the smallest sufficient radius
    while M > 1 and c * Fraction(M - 1) ** d - S * Fraction(M - 1) ** (d - 1) > bound:
        M -= 1
    return M, c


def _chunk_values(K: IntKernel, xs, ylimit: int, lo: int, hi: int) -> list[int]:
    """Sorted distinct integer values of F on the chunk, restricted to
    [lo, hi); K is F's integer kernel, so F(x, y) = v / K.D."""
    D = K.D
    Dlo, Dhi = D * lo, D * hi
    ys = range(-ylimit, ylimit + 1)
    vals = set()
    for x in xs:
        vals.update([v // D for v in K.values(x, ys) if Dlo <= v < Dhi and not v % D])
    return sorted(vals)


def count_range(
    F: BivarPoly,
    N: int,
    workers: int = 1,
    mem_bits: int | None = None,
) -> DensityReport:
    """Count of distinct integer values of F in [N, 2N)."""
    if N < 2:
        raise DensityError("N must be >= 2")
    if F.is_zero():
        return DensityReport(
            N=N, count=0, box=0, certified=True, lower_bound=None, mode="dedup",
            normalized_sqrtlog=0.0, normalized_cuberoot=0.0,
            notes=["zero polynomial"],
        )
    mem_bits = mem_bits if mem_bits is not None else _mem_bits()
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

    # deterministic shard decomposition by x; merge order is shard order, so
    # the result is identical for any worker count
    xs_all = list(range(-M, M + 1))
    nshards = max(1, min(workers * 4, len(xs_all)))
    shards = [xs_all[i::nshards] for i in range(nshards)]

    # each absorb returns how many of its values were new, so the running
    # total is the count and the store is never recounted
    use_bitmap = N <= mem_bits
    mode = "bitmap" if use_bitmap else "dedup"
    if use_bitmap:
        bits = bytearray((N + 7) // 8)

        def absorb(values) -> int:
            added = 0
            for v in values:
                k = v - lo
                i, m = k >> 3, 1 << (k & 7)
                if not bits[i] & m:
                    bits[i] |= m
                    added += 1
            return added

    else:
        notes.append("bitmap budget exceeded; sorted-dedup fallback")
        allvals = set()

        def absorb(values) -> int:
            before = len(allvals)
            allvals.update(values)
            return len(allvals) - before

    K = F.kernel()
    count = 0
    if workers > 1 and len(xs_all) >= POOL_MIN_COLUMNS:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futs = [ex.submit(_chunk_values, K, xs, M, lo, hi) for xs in shards]
            for fut in futs:  # shard order, not completion order
                count += absorb(fut.result())
    else:
        for xs in shards:
            count += absorb(_chunk_values(K, xs, M, lo, hi))

    if not certified:
        added = absorb(_near_curve_values(F, lo, hi))
        count += added
        if added:
            notes.append(f"{added} values added from curve-family points")

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
    """Best-effort extra values from curve-following families when the box is
    not certified (degenerate leading forms take bounded values far out)."""
    if F.degree() != 6:
        return []
    from .classify import classify
    from .witness import rouse_witness, danilov_witness

    shape = classify(F).shape or {}
    rec = shape.get("ecform")
    if rec is None:
        return []
    Fn = shape["normalized"]
    w = rouse_witness(Fn, rec, 25) if rec.b1 else danilov_witness(Fn, rec, 10)
    return sorted({int(v) for _x, _y, v in w.points if v.denominator == 1 and lo <= v < hi})


# -- growth exponent ----------------------------------------------------------


def distinct_values_up_to(F: BivarPoly, N: int) -> int:
    """Number of distinct integer values of F in (-inf, N], complete for a
    positive-definite leading form (values are then bounded below)."""
    M, _c = certified_box(F, N)
    K = F.kernel()
    D = K.D
    DN = D * N
    span = range(-M, M + 1)
    vals = set()
    for x in span:
        vals.update([v // D for v in K.values(x, span) if v <= DN and not v % D])
    return len(vals)


def growth_exponent(F: BivarPoly, Ns: list) -> dict:
    """Least-squares slope of log(count of distinct values <= N) vs log N."""
    if len(Ns) < 3:
        raise DensityError("need at least 3 ladder points")
    d = F.degree()
    top = BinaryForm.from_poly(F.homogeneous_part(d))
    if definiteness(top) != "positive-definite":
        raise DensityError("leading form must be positive definite")
    rows = []
    for N in sorted(Ns):
        cnt = distinct_values_up_to(F, N)
        rows.append((N, cnt))
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
    """Sieve count of n in [1, Nmax] that are sums of two squares, and the
    ratio to Nmax / sqrt(ln Nmax).

    n is a sum of two squares iff every prime p = 3 (mod 4) divides n to an
    even power.  odd[n] marks the n with an odd power of some such p: for
    each odd k it gets the multiples t * p^k with p not dividing t.
    """
    if Nmax < 100:
        raise DensityError("Nmax must be >= 100")
    size = Nmax + 1
    ones = memoryview(b"\x01" * (Nmax // 2 + 1))
    composite = bytearray(size)
    for p in range(2, math.isqrt(Nmax) + 1):
        if not composite[p]:
            composite[p * p :: p] = ones[: (Nmax - p * p) // p + 1]
    odd = bytearray(size)
    for p in range(3, size, 4):
        if composite[p]:
            continue
        q = p
        while q <= Nmax:
            m = Nmax // q  # multiples of q in [1, Nmax]
            if m < p:
                odd[q::q] = ones[:m]
            else:
                # OR in a 1 at every t not divisible by p, as ints over bytes
                skip_p = (b"\x01" * (p - 1) + b"\x00") * (m // p + 1)
                marked = int.from_bytes(odd[q::q], "little") | int.from_bytes(skip_p[:m], "little")
                odd[q::q] = marked.to_bytes(m, "little")
            q *= p * p
    count = Nmax - odd.count(1)
    ratio = count / (Nmax / math.sqrt(math.log(Nmax)))
    return count, ratio


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


# -- normalized ladder --------------------------------------------------------


def stanley_probe(F: BivarPoly, Ns: list, workers: int = 1) -> dict:
    """Table of count([N, 2N)) * sqrt(log N) / N over the ladder, flagged
    bounded-looking when nonincreasing beyond the first third."""
    rows = []
    for N in sorted(Ns):
        rep = count_range(F, N, workers=workers)
        rows.append((N, rep.count, rep.normalized_sqrtlog))
    if not rows:
        return {"rows": [], "bounded_looking": False}
    tail = rows[len(rows) // 3 :]
    bounded = all(a[2] >= b[2] - 1e-12 for a, b in zip(tail, tail[1:]))
    return {"rows": rows, "bounded_looking": bounded}
