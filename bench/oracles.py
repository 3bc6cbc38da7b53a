"""Output checks that share no code with `sexticlab`.

Polynomials are read by sympy and evaluated here with `fractions.Fraction`;
density counts come from this module's own integer enumeration over a radius
it derives from a hand-derived floor of the leading form; curve rows are
checked against their defining equations.  A check returns a list of
problems (empty when the output is right) and never uses `assert`, so the
checks also run under `python -O`.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from math import isqrt


@functools.cache
def poly_terms(expr: str) -> dict:
    """{(i, j): Fraction} for an expression string, expanded by sympy."""
    import sympy

    x, y = sympy.symbols("x y")
    e = sympy.sympify(expr.replace("^", "**"), locals={"x": x, "y": y}, rational=True)
    p = sympy.Poly(sympy.expand(e), x, y, domain="QQ")
    return {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}


def evaluate(terms: dict, x: int, y: int) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in terms.items()), Fraction(0))


def _radius(terms: dict, floor: Fraction, bound: int) -> int:
    """Largest max(|x|, |y|) at which a value below `bound` is possible, when
    F_top >= floor * m^d and each lower term is at most |c| * m^(d-1)."""
    d = max(i + j for i, j in terms)
    S = sum(abs(c) for (i, j), c in terms.items() if i + j < d)
    m = 0
    while floor * (m + 1) ** d - S * (m + 1) ** (d - 1) < bound:
        m += 1
    return m


def window_values(terms: dict, radius: int, lo: int, hi: int) -> set:
    """Distinct integer values in [lo, hi) over |x|, |y| <= radius, by
    integer row evaluation with the denominators cleared."""
    L = math.lcm(*(c.denominator for c in terms.values()))
    iterms = [(i, j, int(c * L)) for (i, j), c in terms.items()]
    dy = max(j for _i, j, _c in iterms)
    out = set()
    for x in range(-radius, radius + 1):
        row = [0] * (dy + 1)
        for i, j, c in iterms:
            row[j] += c * x**i
        for y in range(-radius, radius + 1):
            acc = 0
            for c in reversed(row):
                acc = acc * y + c
            if acc % L == 0:
                v = acc // L
                if lo <= v < hi:
                    out.add(v)
    return out


@functools.cache
def window_count(poly: str, floor: str, N: int, radius=None) -> int:
    """Distinct integer values of `poly` in [N, 2N), by enumeration over
    `radius`, or over the radius derived from `floor` when it is None."""
    terms = poly_terms(poly)
    r = radius if radius is not None else _radius(terms, Fraction(floor), 2 * N)
    return len(window_values(terms, r, N, 2 * N))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _normalized(count: int, N: int) -> float:
    return count * math.sqrt(math.log(N)) / N


# -- one check per job kind ---------------------------------------------------


def check_analyze(job, text: str) -> list:
    obj = json.loads(text)
    if obj.get("route") != job.expect["route"]:
        return [f"route {obj.get('route')!r}, label {job.expect['route']!r}"]
    return []


def check_witness(job, text: str) -> list:
    obj = json.loads(text)
    e = job.expect
    problems = []
    if obj.get("route") != e["route"]:
        problems.append(f"route {obj.get('route')!r}, label {e['route']!r}")
    terms = poly_terms(e["poly"])
    values = []
    for x, y, v in obj["points"]:
        v = Fraction(v)
        if evaluate(terms, x, y) != v:
            problems.append(f"F({x},{y}) reported {v}, oracle {evaluate(terms, x, y)}")
        values.append(v)
    kind = obj.get("kind")
    if e["outcome"] == "negative":
        if kind != "negative-value" or not any(v < 0 for v in values):
            problems.append(f"expected a negative value, got kind {kind!r}")
    elif e["outcome"] == "diagnostic":
        if kind != "dearth-diagnostic" or not values:
            problems.append(f"expected a dearth diagnostic, got kind {kind!r}")
    elif kind != "inconclusive":
        problems.append(f"expected inconclusive, got kind {kind!r}")
    return problems


def check_density(job, text: str) -> list:
    obj = json.loads(text)
    e = job.expect
    N = e["N"]
    problems = []
    want = window_count(e["poly"], e["floor"], N, e["radius"])
    if e["certified"]:
        if obj["count"] != want:
            problems.append(f"count {obj['count']}, oracle {want}")
    elif obj["count"] < want:
        problems.append(f"count {obj['count']} below the oracle's {want} on |x|,|y| <= {e['radius']}")
    if obj["certified"] is not e["certified"]:
        problems.append(f"certified is {obj['certified']}")
    if obj["N"] != N or obj["range"] != [N, 2 * N]:
        problems.append(f"window {obj['range']} for N = {N}")
    if obj["mode"] != e["mode"]:
        problems.append(f"mode {obj['mode']!r}, expected {e['mode']!r}")
    if not _close(obj["normalized_sqrtlog"], _normalized(obj["count"], N)):
        problems.append("normalized_sqrtlog != count*sqrt(log N)/N")
    return problems


def check_ladder(job, text: str) -> list:
    obj = json.loads(text)
    e = job.expect
    problems = []
    rows = obj["rows"]
    if [r[0] for r in rows] != sorted(e["ladder"]):
        return [f"ladder rows {[r[0] for r in rows]} for {e['ladder']}"]
    for N, count, norm in rows:
        want = window_count(e["poly"], e["floor"], N)
        if count != want:
            problems.append(f"N={N}: count {count}, oracle {want}")
        if not _close(norm, _normalized(count, N)):
            problems.append(f"N={N}: normalized != count*sqrt(log N)/N")
    return problems


def _csv_rows(text: str, header: str) -> tuple[list, list]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]}, expected {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def danilov_members(count: int) -> list:
    """(x, y, gap) of the small-gap family at Lucas indices m = 15 + 60k,
    from x = (L^2 + 12L + 16)/20, y = (F_3m + 18 F_2m + 75 F_m)/40."""
    top = 3 * (15 + 60 * (count - 1))
    fib = [0, 1]
    while len(fib) <= top + 1:
        fib.append(fib[-1] + fib[-2])
    out = []
    for k in range(count):
        m = 15 + 60 * k
        L = fib[m - 1] + fib[m + 1]
        x = (L * L + 12 * L + 16) // 20
        y = (fib[3 * m] + 18 * fib[2 * m] + 75 * fib[m]) // 40
        out.append((x, y, y * y - x**3))
    return out


def check_hall(job, text: str) -> list:
    rows, problems = _csv_rows(text, "x,y,gap,ratio")
    t2 = job.expect["threshold"] ** 2
    xmax = job.expect["xmax"]
    seen = set()
    for x, y, gap, _ratio in rows:
        x, y, gap = int(x), int(y), int(gap)
        if gap != y * y - x**3 or not 0 < gap * gap <= t2 * x or not 2 <= x <= xmax:
            problems.append(f"row {x},{y},{gap} breaks gap = y^2 - x^3, 0 < gap^2 <= t^2 x")
        seen.add((x, abs(y)))
    for x, y, _gap in danilov_members(3):
        if x <= xmax and (x, y) not in seen:
            problems.append(f"Danilov member x={x} missing from the scan")
    return problems


def check_danilov(job, text: str) -> list:
    rows, problems = _csv_rows(text, "x,y,gap,ratio")
    got = [(int(x), int(y), int(g)) for x, y, g, _r in rows]
    if got != danilov_members(job.expect["count"]):
        problems.append("rows differ from the Lucas/Fibonacci closed form")
    for x, y, g in got:
        if not 0 < g * g < x:
            problems.append(f"row x={x}: gap^2 < x fails")
    return problems


def check_rouse(job, text: str) -> list:
    rows, problems = _csv_rows(text, "r,x,y,gap,ratio")
    b1, b0 = job.expect["b1"], job.expect["b0"]
    if [int(r[0]) for r in rows] != job.expect["r"]:
        problems.append("r values differ from the requested range")
    for r, x, y, gap, _ratio in rows:
        r, x, y, gap = int(r), int(x), int(y), int(gap)
        # 3P lies on y^2 = x^3 + b1 x + r^2 b1^2
        if y * y - x**3 - b1 * x - r * r * b1 * b1 != 0 or gap != b1 * b1 * r * r - b0:
            problems.append(f"row r={r} is off the curve or has the wrong gap")
    return problems


def check_pell(job, text: str) -> list:
    rows, problems = _csv_rows(text, "x,y")
    e = job.expect
    sols = [(int(u), int(v)) for u, v in rows]
    if len(sols) != e["count"]:
        problems.append(f"{len(sols)} solutions, asked for {e['count']}")
    for u, v in sols:
        if u * u - e["d"] * v * v != e["c"] or u <= 0 or v <= 0:
            problems.append(f"({u},{v}) does not solve x^2 - {e['d']} y^2 = {e['c']}")
    if sols != sorted(set(sols)):
        problems.append("solutions not strictly increasing")
    return problems


def two_squares_count(nmax: int) -> int:
    """Count of n in [1, nmax] that are a sum of two squares."""
    marks = bytearray(nmax + 1)
    for a in range(isqrt(nmax) + 1):
        a2 = a * a
        for b in range(a, isqrt(nmax - a2) + 1):
            marks[a2 + b * b] = 1
    marks[0] = 0
    return sum(marks)


def check_baseline(job, text: str) -> list:
    obj = json.loads(text)
    nmax = job.expect["Nmax"]
    want = two_squares_count(nmax)
    problems = []
    if obj["Nmax"] != nmax or obj["count"] != want:
        problems.append(f"count {obj['count']}, oracle {want}")
    if not _close(obj["ratio"], want / (nmax / math.sqrt(math.log(nmax)))):
        problems.append("ratio != count / (N / sqrt(log N))")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "witness": check_witness,
    "density": check_density,
    "ladder": check_ladder,
    "hall": check_hall,
    "danilov": check_danilov,
    "rouse": check_rouse,
    "pell": check_pell,
    "baseline": check_baseline,
}


def judge(job, exit_code: int, text: str) -> list:
    """Problems with one job's exit code and output."""
    problems = []
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.exit_code}")
    if exit_code not in (0, 3, 4):
        return problems
    try:
        problems += CHECKS[job.check](job, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
