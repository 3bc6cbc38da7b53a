"""Search engines for integer-point certificates, and the one gate that checks them.

Every engine takes explicit budgets and returns a Witness; an exhausted
budget yields kind "inconclusive" with `exhausted` set instead of looping.
Every engine searches on F.kernel(), which is proved equal to D*F when it is
compiled, and reads signs off the integers D*F; the searches that stop at
their first negative value (anisotropic, weighted cubic, ray) share one walk,
_first_negative.  Engines search and record exact values; they do not certify.
witness_for runs the engine on the polynomial its route searches, maps the
points back to the input's coordinates once, and checks every point once in
Fraction against the input.  A failed check raises CertificateError, so it
holds under `python -O` too.  Floating point never decides a predicate here;
it only appears in reported ratios.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .poly import BivarPoly, _rat
from .forms import decompose, definiteness, real_roots
from .classify import (
    ClassificationReport,
    ECRecord,
    classify,
    f40_layers,
    gcd_condition,
)
from . import unipoly as up
from . import _seeds
from .eclab import danilov_family, rouse_point


@dataclass
class SearchBudgets:
    convergents: int = 64
    Tmax: int = 10**12
    box: int = 200
    rmax: int = 25
    Nmax: int = 10**9


@dataclass
class Witness:
    kind: str  # negative-value | small-core-sequence | dearth-diagnostic | inconclusive
    lemma: str
    points: list  # [(x: int, y: int, value: Fraction)]
    note: str = ""
    extra: dict = field(default_factory=dict)
    exhausted: bool = False  # an inconclusive search ran out of budget; not serialized

    def verify(self, F: BivarPoly) -> bool:
        for x, y, v in self.points:
            if F.eval(x, y) != v:
                return False
        if self.kind == "negative-value":
            return any(v < 0 for _, _, v in self.points)
        return True

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "lemma": self.lemma,
            "points": [[int(x), int(y), str(v)] for x, y, v in self.points],
            "note": self.note,
            "extra": {k: str(v) for k, v in self.extra.items()},
        }


class CertificateError(RuntimeError):
    """A witness failed exact verification against its polynomial."""


def _inconclusive(lemma: str, note: str, exhausted: bool = False) -> Witness:
    """A search that found no witness; exhausted when it ran out of budget."""
    return Witness("inconclusive", lemma, [], note=note, exhausted=exhausted)


def _first_negative(K, points):
    """(x, y, F(x, y)) at the first of points where the kernel K of F is
    negative, else None.  The sign is read off the integer D*F, as D > 0."""
    for x, y in points:
        v = K(x, y)
        if v < 0:
            return x, y, Fraction(v, K.D)
    return None


def _doubling(n: int, limit: int):
    """n, 2n, 4n, ... up to limit."""
    while n <= limit:
        yield n
        n *= 2


# -- Dirichlet convergent walk ------------------------------------------------


def dirichlet_witness(F: BivarPoly, max_convergents: int = 64) -> Witness:
    """Walks continued-fraction convergents of the real root directions of F6
    and evaluates F at +-(u, v).  Along each direction the quintic part
    dominates for good approximations, so one of the two signs goes negative.

    Requires F6 positive semi-definite (not definite) with gcd(F6, F5) = 1.
    Collects every negative value found within the budget; the growth ratio
    |F(u,v)| / (u^2+v^2)^(5/2 - 1/10) is recorded for reporting only, and is
    taken from logs of the exact integers so no budget overflows a float.
    """
    parts = decompose(F)
    F6, F5 = parts[6], parts[5]
    d = definiteness(F6)
    if d != "positive-semi":
        raise ValueError(f"F6 must be positive semi-definite, got {d}")
    ok, g = gcd_condition(F6, F5)
    if not ok:
        raise ValueError(f"gcd(F6, F5) = {g.to_poly().format()} is not constant")

    K = F.kernel()
    negatives = []
    best_log = None
    ivs, at_infinity = real_roots(F6)

    def walk_rational(u, v):
        """A rational root direction walks as scaled primitive vectors."""
        n = 1
        for _ in range(max_convergents):
            _eval_pm(K, u * n, v * n, negatives)
            n *= 2

    for iv in ivs:
        try:
            pairs = up.convergents_of_root(iv, max_convergents)
        except up.RationalRootError as exc:  # the walk found the root exactly
            walk_rational(exc.root.numerator, exc.root.denominator)
        else:
            for u, v in pairs:
                val = _eval_pm(K, u, v, negatives)
                expo = 2.5 - _seeds.get("growth_epsilon")
                g = math.gcd(val, K.D)
                log_ratio = (
                    math.log(abs(val) // g) - math.log(K.D // g)
                    if val else -math.inf
                ) - expo * math.log(u * u + v * v)
                if best_log is None or log_ratio < best_log:
                    best_log = log_ratio
    if at_infinity:
        walk_rational(1, 0)  # the (1, 0) direction

    extra = {}
    if best_log is not None:
        try:
            ratio = math.exp(best_log)
        except OverflowError:  # beyond the float range; report only
            ratio = math.inf
        extra["growth_ratio_min"] = f"{ratio:.6g}"
    if negatives:
        return Witness(
            "negative-value",
            "dirichlet-approximation",
            negatives,
            note="negative values along leading-form root directions",
            extra=extra,
        )
    note = (f"no negative value within {max_convergents} convergents "
            f"over {len(ivs) + at_infinity} directions")
    return replace(_inconclusive("dirichlet-approximation", note, exhausted=True), extra=extra)


def _eval_pm(K, u, v, negatives):
    """D*F at (u, v) and (-u, -v) from the kernel K of F; collects negatives
    and returns the one of larger size, as the integer D*F.  Sign and size
    are read off the integers D*F, as D > 0; only the negatives kept become
    Fractions."""
    a, b = K(u, v), K(-u, -v)
    if a < 0:
        negatives.append((u, v, Fraction(a, K.D)))
    if b < 0:
        negatives.append((-u, -v, Fraction(b, K.D)))
    return a if abs(a) >= abs(b) else b


# -- anisotropic schedule -----------------------------------------------------


def anisotropic_witness(F: BivarPoly, theta: Fraction, Tmax: int = 10**12) -> Witness:
    """Scans x within a factor 2 of T^theta and y = +-T on a doubling T
    schedule; returns the first negative value with the per-degree dominant
    term decomposition recorded at the witness point."""
    theta = _rat(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    parts = decompose(F)

    def schedule():
        for T in _doubling(2, Tmax):
            r = up.iroot(T**theta.numerator, theta.denominator)
            xlo, xhi = max(1, r - r // 2), 2 * r
            for ax in range(xlo, xhi + 1, max(1, (xhi - xlo + 1) // 64)):
                for x in (ax, -ax):
                    yield x, T
                    yield x, -T

    hit = _first_negative(F.kernel(), schedule())
    if hit is None:
        return _inconclusive(
            "anisotropic-schedule",
            f"no negative value on the theta={theta} schedule up to T={Tmax}",
            exhausted=True,
        )
    x, y, _v = hit
    return Witness(
        "negative-value",
        "anisotropic-schedule",
        [hit],
        note=f"theta={theta}, T={abs(y)}",
        extra={f"|F{j}|": str(abs(parts[j].eval(x, y))) for j in range(1, 7)},
    )


# -- weighted cubic sign search ----------------------------------------------


def weighted_cubic_sign_search(F: BivarPoly, Nmax: int = 10**9) -> Witness:
    """For the x^4 | F5, x^2 | F4 shape: finds small (c1, c2) with the
    weighted lead form G(c1^2, c2) < 0, then scales along (N c1, N^2 c2)
    until F itself is negative.  That needs N^6, whose coefficient in
    F(c1 N, c2 N^2) is G(c1^2, c2), to be the top power: a term of F of
    weight i + 2j > 6 raises ValueError instead of a scaling."""
    lay = f40_layers(F)
    if lay.is_zero():
        return _inconclusive(
            "weighted-cubic", "weighted lead form is identically zero; degenerate, routed onward"
        )
    found = next(
        ((c1, c2) for c1 in range(1, 9)
         for c2 in sorted(range(-16, 17), key=lambda t: (abs(t), -t))
         if lay.eval(c1 * c1, c2) < 0),
        None,
    )
    if not found:
        return _inconclusive(
            "weighted-cubic",
            "weighted lead form nonnegative on the scanned box; degenerate, routed onward",
        )
    c1, c2 = found
    gval = lay.eval(c1 * c1, c2)
    if F.weighted_degree(1, 2) > 6:
        raise ValueError("F has a term of weight i + 2j > 6, so N^6 is not the top "
                         "power of F(c1 N, c2 N^2)")
    hit = _first_negative(F.kernel(), ((c1 * n, c2 * n * n) for n in _doubling(1, Nmax)))
    if hit is None:
        return _inconclusive(
            "weighted-cubic",
            f"lead form negative at ({c1},{c2}) but budget Nmax={Nmax} exhausted",
            exhausted=True,
        )
    return Witness(
        "negative-value",
        "weighted-cubic",
        [hit],
        note=f"lead form at (c1,c2)=({c1},{c2}) is {gval}; scaled by N={hit[0] // c1}",
        extra={"c1": c1, "c2": c2, "lead_value": gval},
    )


# -- growth diagnostic --------------------------------------------------------


def growth_diagnostic(F: BivarPoly, delta: Fraction, box: int = 200) -> Witness:
    """Empirical box scan of F(x,y) / max(|x|,|y|)^(1+delta).  Diagnostic
    only: ratios are floats and nothing is certified.

    The scan runs column by column, x then y ascending, and keeps the first
    least ratio, leaving out the origin.  A column's ratios are
    scale * (v / D) / m^(1+delta), v / D the correctly rounded float of
    F(x, y) and m^(1+delta) read from a table over m = 0..box, taken by map
    over the column.  A column with a value beyond the float range takes it
    as +-inf, point by point."""
    delta = _rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    expo = 1 + float(delta)
    scale = _seeds.get("diagnostic_scale")
    K = F.kernel()
    D = K.D
    span = range(-box, box + 1)
    powers = [m ** expo for m in range(box + 1)]
    best = None
    for x in span:
        # the column's max(|x|, |y|)^expo for y in span
        tail = powers[abs(x) + 1 :]
        dens = tail[::-1] + [powers[abs(x)]] * (2 * abs(x) + 1) + tail
        vals, ys = K.values(x, span), span
        if not x:  # leave out the origin
            del vals[box], dens[box]
            ys = [*span[:box], *span[box + 1 :]]
        try:
            ratios = list(map(truediv, map(mul, repeat(scale), map(truediv, vals, repeat(D))), dens))
        except OverflowError:  # a value beyond the float range
            ratios = [scale * _float_or_inf(v, D) / p for v, p in zip(vals, dens)]
        k = ratios.index(min(ratios))
        if best is None or ratios[k] < best[0]:
            best = (ratios[k], x, ys[k], vals[k])
    ratio, x, y, v = best
    return Witness(
        "dearth-diagnostic",
        "growth-bound",
        [(x, y, Fraction(v, D))],
        note=f"min ratio {ratio:.6g} at ({x},{y}); empirical, not a proof",
        extra={"delta": delta, "min_ratio": f"{ratio:.6g}", "box": box},
    )


def _float_or_inf(v: int, D: int) -> float:
    """v / D as a float, +-inf beyond the float range (int / int is correctly
    rounded, so v / D == float(F(x, y)))."""
    try:
        return v / D
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# -- elliptic-curve point families against the completed square ---------------


def rouse_witness(F: BivarPoly, rec: ECRecord, rmax: int = 25) -> Witness:
    """Evaluates F at the integer images of the 3P family points of
    y^2 = x^3 + b1 x + r^2 b1^2 under the recorded change of coordinates.
    Exact integrality of the mapped points is required; the minimum value
    over the sweep is tracked and all negatives are collected."""
    b1 = rec.b1
    if not b1:
        raise ValueError("b1 = 0: use danilov_witness")
    b = int(b1) if b1.denominator == 1 else b1  # integer arithmetic where it can
    return _family_walk(
        F, rec, [rouse_point(b, r) for r in range(1, rmax + 1)], "rouse-3p",
        note=f"3P family on y^2 = x^3 + ({b1}) x + r^2 ({b1})^2, r <= {rmax}",
        extra={"b1": b1, "b0": rec.b0, "a": rec.a},
        min_note=lambda mn, n: f"no negative value on the 3P family with r <= {rmax}; "
        f"minimum {mn[2]} at ({mn[0]},{mn[1]})",
    )


def danilov_witness(F: BivarPoly, rec: ECRecord, count: int = 12) -> Witness:
    """b1 = 0 analogue of rouse_witness using the Lucas/Fibonacci small-gap
    family y^2 - x^3 = O(sqrt(x))."""
    if rec.b1:
        raise ValueError("b1 != 0: use rouse_witness")
    return _family_walk(
        F, rec, [(X, Y) for X, Y, _gap, _ratio in danilov_family(count)], "danilov-gap",
        note=f"small-gap family, first {count} members",
        extra={"b0": rec.b0, "a": rec.a},
        min_note=lambda mn, n: f"no negative value among {n} mapped family points",
    )


def _integral_images(substitution: dict, family) -> list:
    """[(x, y)]: the integral images of the family points (X, Y) and
    (X, -Y), in that order, under the recorded substitution
    x = x_cx X + x_c0, y = y_cy Y + y_cx X + y_c0; the others are skipped.

    Computed in integers: the coefficients over their common denominator D
    and each point over the lcm e of its own denominators, so an image is
    integral exactly when D e divides its numerator."""
    s = substitution
    coeffs = (s["x_cx"], s["x_c0"], s["y_cy"], s["y_cx"], s["y_c0"])
    D = math.lcm(*(c.denominator for c in coeffs))
    x_cx, x_c0, y_cy, y_cx, y_c0 = (c.numerator * (D // c.denominator) for c in coeffs)
    out = []
    for X, Y in family:
        e = math.lcm(X.denominator, Y.denominator)
        Xn, Yn = X.numerator * (e // X.denominator), Y.numerator * (e // Y.denominator)
        De = D * e
        x, r = divmod(x_cx * Xn + x_c0 * e, De)
        if r:
            continue
        y_rest = y_cx * Xn + y_c0 * e
        for Ys in (Yn, -Yn):
            y, r = divmod(y_cy * Ys + y_rest, De)
            if not r:
                out.append((x, y))
    return out


def _family_walk(F: BivarPoly, rec: ECRecord, family, lemma: str, note: str, extra: dict,
                 min_note) -> Witness:
    """Shared body of the curve-family engines: maps each family point
    (X, +-Y) through the recorded substitution and evaluates F at the
    integral images.  Returns every negative value, else the minimum worded
    by min_note(point, number of points evaluated), else inconclusive.
    Values are compared as the integers D*F (D > 0) and only the ones
    reported become Fractions."""
    K = F.kernel()
    evaluated = [(x, y, K(x, y)) for x, y in _integral_images(rec.substitution, family)]
    negatives = [(x, y, Fraction(v, K.D)) for x, y, v in evaluated if v < 0]
    if negatives:
        return Witness("negative-value", lemma, negatives, note=note, extra=extra)
    if evaluated:
        x, y, v = min(evaluated, key=lambda t: t[2])
        mn = (x, y, Fraction(v, K.D))
        return Witness("small-core-sequence", lemma, [mn], note=min_note(mn, len(evaluated)))
    return _inconclusive(lemma, "no family point maps to integers under the recorded substitution")


# -- indefinite leading form --------------------------------------------------


def ray_witness(F: BivarPoly, box: int = 24, scale_max: int = 10**12) -> Witness:
    """For F6 taking negative values: finds a small integer direction with
    F6 < 0 and scales along the ray until F itself is negative."""
    F6 = decompose(F)[6]
    span = range(-box, box + 1)
    direction = next(
        ((u, v) for u in span for v in span if (u or v) and F6.eval(u, v) < 0), None
    )
    if direction is None:
        return _inconclusive(
            "indefinite-leading", f"no negative leading-form direction in the |u|,|v| <= {box} box"
        )
    u, v = direction
    hit = _first_negative(F.kernel(), ((n * u, n * v) for n in _doubling(1, scale_max)))
    if hit is None:
        return _inconclusive("indefinite-leading", "scaling budget exhausted", exhausted=True)
    n = hit[0] // u if u else hit[1] // v
    return Witness(
        "negative-value", "indefinite-leading", [hit], note=f"ray ({u},{v}) scaled by {n}"
    )


# -- dispatch -----------------------------------------------------------------


def witness_for(
    F: BivarPoly,
    report: ClassificationReport | None = None,
    budgets: SearchBudgets | None = None,
) -> Witness:
    """Runs the engine that classify chose (report.engine) on the polynomial
    its route searches, maps the points back to the input's coordinates, and
    verifies the witness against F itself.  This is the one certificate
    check: every route passes it, and nothing skips it."""
    if report is None:
        report = classify(F)
    shape = report.shape or {}
    w = _route_witness(shape.get("normalized", F), report, budgets or SearchBudgets())
    w = _map_back(w, shape.get("matrix", [[1, 0], [0, 1]]))
    if not w.verify(F):
        raise CertificateError(f"{w.lemma}: witness fails verification against the input")
    return w


def _route_witness(F: BivarPoly, report: ClassificationReport, budgets: SearchBudgets) -> Witness:
    """The witness of the engine report.engine names, searched on F: the
    input, or its normalized form on the MP2 and MP3 routes."""
    name, theta = report.engine or (None, None)

    if name == "ray":
        return ray_witness(F, box=min(report.degree * 4, budgets.box))
    if name == "growth":
        return growth_diagnostic(F, Fraction(1), box=min(budgets.box, 60))
    if name == "dirichlet":
        return dirichlet_witness(F, budgets.convergents)
    if name in ("anisotropic", "mp2-fallback"):
        w = anisotropic_witness(F, theta, budgets.Tmax)
        if name == "anisotropic" or w.kind != "inconclusive":
            return w
        return _inconclusive(
            "mp2", "square check failed but no negative found on the schedule", w.exhausted
        )
    if name == "weighted-cubic":
        w = weighted_cubic_sign_search(F, budgets.Nmax)
        if w.kind != "inconclusive":
            return w
    rec = (report.shape or {}).get("ecform")
    if name in ("weighted-cubic", "family") and rec is not None:
        if rec.b1:
            return rouse_witness(F, rec, budgets.rmax)
        return danilov_witness(F, rec)

    # no engine applies, or the sign search found nothing and no ECRecord exists
    if report.route == "MP3":
        return _inconclusive("mp3", report.ecform_error)
    if report.route == "MP2":
        return _inconclusive(
            "mp2",
            "completed-square shape; representable values are sparse (density probe recommended)",
        )
    return _inconclusive(
        report.route.lower(), "no negativity engine applies; density probe recommended"
    )


def _map_back(w: Witness, M) -> Witness:
    """Rewrites witness points found in normalized coordinates as points of
    the input polynomial via the unimodular matrix M.  witness_for calls it
    once per witness, and then checks the mapped points against the input."""
    if M == [[1, 0], [0, 1]] or not w.points:
        return w
    pts = [
        (M[0][0] * x + M[0][1] * y, M[1][0] * x + M[1][1] * y, v)
        for x, y, v in w.points
    ]
    return replace(w, points=pts)
