"""Routing and normal forms for bivariate sextics by leading-form structure.

The router inspects the ramification profile of the leading form F6 and the
divisibility structure of F5/F4, assigns one of the routes

    MP0, MP1-cubic, MP1-quadratic, MP1-linear, MP2, MP3,
    paper-gap, not-positive-leading, not-a-sextic

and, where the route admits one, computes the associated normal form: the
MP1 square completions, the MP2 square check, the MP3 weighted cubic lead
form, and the (y^2 - x^3 - b1 x - b0)^2 shape with its rational change of
coordinates.  The MP2 and MP3 normal forms read their weighted layers
straight off the coefficients of F, one pass each; the MP3 shape then
composes F with its change of coordinates once, on every input, and reads
a, b1 and b0 off the result.  Every normal form checks the (weighted)
degree it promises of what is left beside its square and raises
poly.IdentityError (not a ClassifyError, so never a note) when it fails.

Route tokens are part of the stable report schema.  "paper-gap" marks the
two ramification profiles (max multiplicity exactly 3 on the linear part, or
exactly 5) that the case analysis implemented here does not cover; they are
reported honestly rather than forced into a neighboring route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as igcd

from .poly import BivarPoly, IdentityError, _int_or_rat
from .forms import (
    BinaryForm,
    decompose,
    definiteness,
    form_div,
    form_gcd,
    squarefree_factors,
    squarefree_profile,
)
from .quadext import KERNEL_TRIAL_BOUND, QuadExt, _rat_sqrt, squarefree_kernel
from . import unipoly as up

SCHEMA_VERSION = "1"


class ClassifyError(ValueError):
    pass


def _require(ok: bool, what: str) -> None:
    """An identity check that, unlike assert, also holds under python -O.
    IdentityError is not a ValueError, so the ClassifyError handlers never
    turn a failed check into a note."""
    if not ok:
        raise IdentityError(what)


@dataclass
class SquareCompletion:
    """scale * core^2 + remainder = F, the remainder being F - scale * core^2.
    Checked: the remainder has degree <= 4 (MP1-cubic) or only terms of
    weight i + 2j <= 6 (MP2)."""

    core: BivarPoly
    scale: Fraction | int
    remainder: BivarPoly
    substitution: dict | None = None

    def to_json_obj(self) -> dict:
        out = {
            "core": self.core.to_json_obj(),
            "scale": str(self.scale),
            "remainder": self.remainder.to_json_obj(),
        }
        if self.substitution is not None:
            out["substitution"] = {k: str(v) for k, v in self.substitution.items()}
        return out


@dataclass
class ClassificationReport:
    """`shape` holds the normal-form objects themselves (BivarPoly,
    SquareCompletion, QuadraticCaseReport, MP2SquareResult, ECRecord);
    to_json_obj is their only serializer.  `ecform_error` is the reason an
    MP3 input has no ECRecord.  `engine` is the witness engine classify
    chose: (name, theta), name one of ray, growth, dirichlet, anisotropic,
    mp2-fallback, weighted-cubic, family and theta the anisotropic exponent
    or None; None when no engine applies.  witness_for runs it, and a
    sextic's `recommended` follows from it.  Neither enters the JSON report."""

    degree: int
    profile: list
    definiteness: str
    route: str
    conditions: dict
    shape: dict | None = None
    notes: list = field(default_factory=list)
    recommended: list = field(default_factory=list)
    ecform_error: str | None = None
    engine: tuple | None = None

    def to_json_obj(self) -> dict:
        shape = None
        if self.shape is not None:
            shape = {
                k: v.to_json_obj() if hasattr(v, "to_json_obj") else v
                for k, v in self.shape.items()
            }
        return {
            "schema": SCHEMA_VERSION,
            "degree": self.degree,
            "profile": [list(p) for p in self.profile],
            "definiteness": self.definiteness,
            "route": self.route,
            "conditions": self.conditions,
            "shape": shape,
            "notes": self.notes,
            "recommended": self.recommended,
        }


# -- unimodular normalization -------------------------------------------------


def unimodular_matrix_for(ell: BinaryForm) -> list[list[int]]:
    """Integer matrix M with det 1 such that ell(M(x,y)) = x, for primitive
    integer linear ell = a x + b y.  Among the one-parameter family of valid
    completions the one with the smallest max-norm is chosen (ties by the
    smaller parameter), so the choice is deterministic."""
    if ell.degree != 1:
        raise ClassifyError("need a linear form")
    a, b = ell.coefficients
    if a.denominator != 1 or b.denominator != 1:
        raise ClassifyError("need integer coefficients")
    a, b = int(a), int(b)
    g = igcd(a, b)
    if g == 0:
        raise ClassifyError("zero form")
    if g != 1:
        raise ClassifyError("form is not primitive")
    # extended gcd: a*m11 + b*m21 = 1
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    m11, m21 = old_s, old_t
    # family: (m11 - t*b, m21 + t*a); minimize the max-norm
    best = None
    t0 = round((m11 * b - m21 * a) / (a * a + b * b))
    for dt in range(-3, 4):
        tt = t0 + dt
        c1, c2 = m11 - tt * b, m21 + tt * a
        key = (max(abs(c1), abs(c2), abs(a), abs(b)), abs(tt), tt)
        if best is None or key < best[0]:
            best = (key, c1, c2)
    m11, m21 = best[1], best[2]
    M = [[m11, -b], [m21, a]]
    _require(M[0][0] * M[1][1] - M[0][1] * M[1][0] == 1, "unimodular matrix: determinant is not 1")
    return M


def apply_matrix(F: BivarPoly, M) -> BivarPoly:
    """F composed with the linear map (x,y) -> (M00 x + M01 y, M10 x + M11 y)."""
    xe = BivarPoly({(1, 0): Fraction(M[0][0]), (0, 1): Fraction(M[0][1])})
    ye = BivarPoly({(1, 0): Fraction(M[1][0]), (0, 1): Fraction(M[1][1])})
    return F.subs(xe, ye)


# -- divisibility conditions --------------------------------------------------


def _xpow_div(form: BinaryForm, k: int) -> bool:
    """Does x^k divide the form (zero form counts as divisible)?  It does
    when every coefficient of x^i y^(d-i) with i < k is zero."""
    return not any(form.coefficients[max(form.degree - k + 1, 0):])


def gcd_condition(F6: BinaryForm, F5: BinaryForm):
    """(gcd is constant?, the gcd).  F5 = 0 reports gcd = F6."""
    if F6.is_zero():
        raise ClassifyError("F6 must be nonzero")
    g = form_gcd(F6, F5)
    return g.degree == 0, g


# -- MP1 ----------------------------------------------------------------------


def cubic_square_completion(F: BivarPoly) -> SquareCompletion:
    """For F6 = a f^2 with f a cubic form, reducible or not: requires f | F5
    and f | F4, writes F5 = f g5 and F4 = f g4, and returns
    F = a (f + (g5 + g4)/(2a))^2 + remainder with the remainder of degree
    <= 4."""
    parts = decompose(F)
    F6 = parts[6]
    factors = dict(squarefree_factors(F6))
    f_form = factors.get(2)
    if f_form is None or f_form.degree != 3 or len(factors) != 1:
        raise ClassifyError("leading form is not a constant times a cubic squared")
    aq = form_div(f_form * f_form, F6)
    if aq is None or aq.degree != 0:
        raise ClassifyError("leading form is not a constant times f^2")
    a = aq.coefficients[0]
    g5 = form_div(f_form, parts[5])
    g4 = form_div(f_form, parts[4])
    if g5 is None or g4 is None:
        missing = "F5" if g5 is None else "F4"
        raise ClassifyError(
            f"f does not divide {missing}; no completion (witness search applies)"
        )
    f = f_form.to_poly()
    g = g5.to_poly() + g4.to_poly()
    core = f + g * (Fraction(1, 2) / a)
    remainder = F - core * core * a
    _require(remainder.degree() <= 4, "cubic square completion: remainder degree exceeds 4")
    return SquareCompletion(core=core, scale=a, remainder=remainder)


@dataclass
class QuadraticCaseReport:
    k: int
    v_coeffs: list  # [c, b, a] lowest first, QuadExt
    w_coeffs: list  # [d0, d1, d2, d3] lowest first, QuadExt
    vk_is_square: bool
    beta: QuadExt | None
    wk_at_beta: QuadExt | None
    substitution: dict
    notes: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "v_coeffs": [str(c) for c in self.v_coeffs],
            "w_coeffs": [str(c) for c in self.w_coeffs],
            "vk_is_square": self.vk_is_square,
            "beta": None if self.beta is None else str(self.beta),
            "wk_at_beta": None if self.wk_at_beta is None else str(self.wk_at_beta),
            "substitution": {k: str(v) for k, v in self.substitution.items()},
            "notes": self.notes,
        }


def _at_sqrt(form: BinaryForm, k: int) -> tuple[QuadExt, QuadExt]:
    """(A(sqrt k, 1), dA/dx(sqrt k, 1)) in Q(sqrt k), for the form A."""
    p = up.trim(form.coefficients[::-1])  # A(t, 1)
    rt = QuadExt(k, 0, 1)
    return up.peval(p, rt), up.peval(up.pderiv(p), rt)


def quadratic_case_analysis(F: BivarPoly, k: int) -> QuadraticCaseReport:
    """Analysis over Q(sqrt(k)) when the doubled factor of F6 is equivalent
    to x^2 - k y^2: builds the quadratic v_k(z) and cubic w_k(z), decides
    whether v_k is a perfect square, and evaluates w_k at the double root."""
    if k <= 1:
        raise ClassifyError("k must be a positive square-free integer > 1")
    QuadExt(k, 0)  # validates square-freeness
    parts = decompose(F)
    F6 = parts[6]
    factors = dict(squarefree_factors(F6))
    f_form = factors.get(2)
    if f_form is None or f_form.degree != 2:
        raise ClassifyError("leading form has no doubled quadratic factor")
    p, q, r = f_form.coefficients
    substitution = {"x": "x", "y": "y"}
    work = F
    if (p, q, r) != (1, 0, -k):
        # bring p x^2 + q x y + r y^2 to p (X^2 - k Y^2) by a rational map
        if not p:
            raise ClassifyError("doubled factor has a rational root; not x^2 - k y^2")
        # p, q and r may be ints, so each division goes through a Fraction
        rprime = r - Fraction(q * q, 4 * p)
        # x = X + shift*Y, y = s*Y leaves s^2 r' on Y^2, which must be -p k
        tval = -p * k / rprime
        s = _rat_sqrt(tval)
        if s is None or not s:
            raise ClassifyError(
                f"doubled factor is not equivalent to x^2 - {k} y^2 over Q"
            )
        shift = Fraction(-q, 2 * p) * s
        xe = BivarPoly({(1, 0): Fraction(1), (0, 1): shift})
        ye = BivarPoly({(0, 1): s})
        work = F.subs(xe, ye)
        substitution = {"x": f"x + ({shift})*y", "y": f"({s})*y"}
        parts = decompose(work)
        F6 = parts[6]
    fk = BinaryForm(2, [1, 0, -k])
    g = form_div(fk * fk, F6)
    if g is None:
        raise ClassifyError("normalized leading form is not divisible by (x^2-ky^2)^2")
    h = form_div(fk, parts[5])
    if h is None:
        raise ClassifyError("F5 is not divisible by the doubled factor")

    g_v, gp_v = _at_sqrt(g, k)
    h_v, hp_v = _at_sqrt(h, k)
    f4_v, f4p_v = _at_sqrt(parts[4], k)
    f3_v, _ = _at_sqrt(parts[3], k)
    rt = QuadExt(k, 0, 1)

    va = g_v * (4 * k)
    vb = rt * h_v * 2
    vc = f4_v
    wa = gp_v * (4 * k) + rt * g_v * 4
    wb = h_v + rt * hp_v * 2
    wc = f4p_v
    wd = f3_v

    notes = []
    if not va.is_zero():
        disc = vb * vb - va * vc * 4
        vk_is_square = disc.is_zero() and va.sign() > 0
        beta = (-vb) / (va * 2) if vk_is_square else None
    else:
        vk_is_square = vb.is_zero() and vc.is_zero()
        beta = QuadExt(k, 0) if vk_is_square else None
        if vb.is_zero() and not vc.is_zero():
            notes.append("v_k degenerates to a nonzero constant; not a square")
    wk_at_beta = None
    if vk_is_square:
        wk_at_beta = up.peval([wd, wc, wb, wa], beta)
    else:
        notes.append("not arithmetically complete by sign change (v_k not a square)")
    return QuadraticCaseReport(
        k=k,
        v_coeffs=[vc, vb, va],
        w_coeffs=[wd, wc, wb, wa],
        vk_is_square=vk_is_square,
        beta=beta,
        wk_at_beta=wk_at_beta,
        substitution=substitution,
        notes=notes,
    )


# -- MP2 ----------------------------------------------------------------------


def _sqrt_pair(r: Fraction):
    """sqrt(r) as a (value, under-sqrt) pair: (v, False) when the root is
    rational, (r, True) meaning sqrt(r) otherwise."""
    s = _rat_sqrt(r)
    if s is not None:
        return (s, False)
    return (r, True)


@dataclass
class MP2SquareResult:
    ok: bool
    alpha1: tuple | None = None  # (value, under_sqrt)
    alpha2: tuple | None = None
    alpha2_ratio: Fraction | None = None  # alpha2/alpha1 as an exact rational
    completion: SquareCompletion | None = None
    fixed_x_dearth: bool = False
    reason: str | None = None

    def to_json_obj(self) -> dict:
        def pair(p):
            return None if p is None else {"value": str(p[0]), "sqrt": p[1]}

        return {
            "ok": self.ok,
            "alpha1": pair(self.alpha1),
            "alpha2": pair(self.alpha2),
            "alpha2_ratio": None if self.alpha2_ratio is None else str(self.alpha2_ratio),
            "completion": None if self.completion is None else self.completion.to_json_obj(),
            "fixed_x_dearth": self.fixed_x_dearth,
            "reason": self.reason,
        }


def mp2_square_check(F: BivarPoly) -> MP2SquareResult:
    """For F6 = x^4 f6 inputs (already normalized), read as
    F = y^2 (a2 x^4 + a1 x^2 y + a0 y^2) + xy (b2 x^4 + b1 x^2 y + b0 y^2)
      + x^2 (c2 x^4 + c1 x^2 y + c0 y^2) + G5,
    decides whether the weighted quadratic a2 x^4 + a1 x^2 y + a0 y^2 is a
    perfect square over R, and on success completes the square through the
    b-layer.  Internally the square is written a2 (x^2 - rho y)^2 with the
    rational rho = -a1/(2 a2); the (alpha1, alpha2) of the real factorization
    (alpha1 x^2 - alpha2 y)^2 are reported as exact (value, under-sqrt) pairs.
    F must be a sextic with x^4 | F6 and x^2 | F5, as the MP2 route
    normalizes it: outside that shape the remainder can keep a term of weight
    i + 2j > 6, so such an input is a ClassifyError.
    """
    parts = decompose(F)
    if F.degree() != 6 or not _xpow_div(parts[6], 4) or not _xpow_div(parts[5], 2):
        raise ClassifyError("not an MP2 normal form: need a sextic with x^4 | F6 and x^2 | F5")
    a2, a1, a0 = F.coeff(4, 2), F.coeff(2, 3), F.coeff(0, 4)
    if not a2:
        return MP2SquareResult(ok=False, reason="a2 = 0 (x^5 divides F6?)")
    disc = a1 * a1 - 4 * a2 * a0
    if disc or a2 < 0 or a0 < 0:
        return MP2SquareResult(
            ok=False,
            reason=f"a-layer not a perfect square (discriminant {disc})",
        )
    alpha1 = _sqrt_pair(a2)
    alpha2 = _sqrt_pair(a0)
    if not a0:
        # alpha2 = 0: values with |x| bounded dominate; dearth via the
        # one-variable specialization argument
        return MP2SquareResult(
            ok=True,
            alpha1=alpha1,
            alpha2=(Fraction(0), False),
            alpha2_ratio=Fraction(0),
            fixed_x_dearth=True,
            reason="alpha2 = 0: route to fixed-x dearth check",
        )
    rho = -a1 / (2 * a2)  # alpha2/alpha1, exactly rational when disc = 0
    A = a2
    b2, b1, b0 = F.coeff(5, 1), F.coeff(3, 2), F.coeff(1, 3)
    # b-layer must vanish on x^2 = rho y
    if b2 * rho * rho + b1 * rho + b0:
        return MP2SquareResult(
            ok=False,
            alpha1=alpha1,
            alpha2=alpha2,
            alpha2_ratio=rho,
            reason="b-layer not divisible by the square root factor",
        )
    beta1 = b2 / (2 * A)
    beta2 = -b1 / (2 * A) - rho * beta1
    x, y = BivarPoly.x(), BivarPoly.y()
    core = y * (x * x - y * rho) + x * (x * x * beta1 - y * beta2)
    remainder = F - core * core * A
    # the a- and b-layers of F are the terms of weight 8 and 7
    _require(remainder.weighted_degree(1, 2) <= 6,
             "MP2 square check: remainder has a term of weight i + 2j > 6")
    comp = SquareCompletion(
        core=core,
        scale=A,
        remainder=remainder,
        substitution={"rho": rho, "beta1": beta1, "beta2": beta2},
    )
    return MP2SquareResult(
        ok=True,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha2_ratio=rho,
        completion=comp,
    )


# -- MP3 ----------------------------------------------------------------------


def f40_layers(F: BivarPoly) -> BinaryForm:
    """Weighted (x:1, y:2) lead form for the x^4 | F5, x^2 | F4 case, as the
    cubic G(m, n) = u3 m^3 + u2 m^2 n + u1 m n^2 + u0 n^3 with
    G(x^2, y) = u3 x^6 + u2 x^4 y + u1 x^2 y^2 + u0 y^3."""
    return BinaryForm(3, [F.coeff(6, 0), F.coeff(4, 1), F.coeff(2, 2), F.coeff(0, 3)])


# the layer monomials of ecform_normalize: weight 2i + 3j >= 8, in the order
# the proportionality error lists them
_MP3_SLOTS = (
    (6, 0), (3, 2), (0, 4),
    (4, 1), (1, 3), (5, 0), (2, 2), (3, 1), (0, 3), (4, 0), (1, 2),
)


def _weierstrass(b1, b0) -> BivarPoly:
    """W = y^2 - x^3 - b1 x - b0, the core of the elliptic normal form."""
    return BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -b1, (0, 0): -b0})


def _affine(s: dict) -> tuple[BivarPoly, BivarPoly]:
    """The recorded substitution as the polynomials (x, y) in X, Y."""
    return (BivarPoly({(1, 0): s["x_cx"], (0, 0): s["x_c0"]}),
            BivarPoly({(0, 1): s["y_cy"], (1, 0): s["y_cx"], (0, 0): s["y_c0"]}))


@dataclass
class ECRecord:
    """F composed with the recorded substitution is a (y^2 - x^3 - b1 x - b0)^2
    + G, G being the difference.  Checked: every monomial x^i y^j of G has
    weight 2i + 3j < 8, and G has no y^2 term."""

    a: Fraction
    b1: Fraction
    b0: Fraction
    G: BivarPoly
    substitution: dict  # x = x_cx*X + x_c0 ; y = y_cy*Y + y_cx*X + y_c0
    heavy_monomials: list = field(default_factory=list)
    x_flipped: bool = False

    def to_json_obj(self) -> dict:
        return {
            "a": str(self.a),
            "b1": str(self.b1),
            "b0": str(self.b0),
            "G": self.G.to_json_obj(),
            "substitution": {k: str(v) for k, v in self.substitution.items()},
            "heavy_monomials": [list(m) for m in self.heavy_monomials],
            "x_flipped": self.x_flipped,
        }


def ecform_normalize(F: BivarPoly) -> ECRecord:
    """For F6 = a2 x^6 with x^3 | F5, read as the weighted layers
    F = a2 x^6 + a1 x^3 y^2 + a0 y^4 + xy L1(x^3,y^2) + x^2 L2(x^3,y^2)
      + y L3(x^3,y^2) + x L4(x^3,y^2) + G:
    requires a2 x^6 + a1 x^3 y^2 + a0 y^4 to be a perfect square over R and
    each L_i to be proportional to its square root factor, that is
    F(s x, y) = a2 core^2 + (terms of weight 2i + 3j < 8, x of weight 2 and
    y of weight 3) with the inner cubic core x^3 - alpha1 y^2 + beta1 xy
    + beta2 x^2 + beta3 x + beta4 y.  s = -1 (the x -> -x flip) exactly when
    a1 > 0, so alpha1 = -s a1/(2 a2) is positive and rational.  One rational
    affine map, written with the flip folded in, takes F to a multiple of
    the core in monic shape plus lighter terms: a shear in y removes xy and
    y from the core, a shift in x removes x^2, and a scaling by alpha1 makes
    the cubic monic.  F is composed with it once, and a, b1 and b0 are read
    off the y^4, x^4 and y^2 coefficients: the map raises no weight, so G
    has no x^4 or y^4 term, and b0 is chosen so that G has no y^2 term.
    Both claims on G are checked.  F must be a sextic with F6 = a2 x^6, as
    the MP3 route normalizes it; any other input is a ClassifyError.
    """
    parts = decompose(F)
    if F.degree() != 6 or not _xpow_div(parts[6], 6):
        raise ClassifyError("not an MP3 normal form: need a sextic with F6 = a2 x^6")
    if not _xpow_div(parts[5], 3):
        raise ClassifyError("x^3 does not divide F5 (anisotropic witness applies)")
    aprime, a1, a0 = F.coeff(6, 0), F.coeff(3, 2), F.coeff(0, 4)
    disc = a1 * a1 - 4 * aprime * a0
    if disc or aprime < 0 or a0 <= 0:
        raise ClassifyError(
            "weighted lead form is not a perfect square with nonzero alpha1; "
            f"discriminant {disc}, a0 = {a0} (not arithmetically positive route)"
        )
    x_flipped = a1 > 0
    s = -1 if x_flipped else 1

    def layer(i: int, j: int) -> Fraction:
        """The x^i y^j coefficient of F(s x, y)."""
        return F.coeff(i, j) * s**i

    alpha1 = -layer(3, 2) / (2 * aprime)
    _require(alpha1 > 0, "MP3 core: alpha1 is not positive after the flip")
    # solve the betas from the x-heavy slot of each layer; the layers mix the
    # betas triangularly because squaring the core feeds beta products back
    # into the lighter slots (e.g. (beta1 xy)^2 lands in the x^2 y^2 slot)
    beta1 = layer(4, 1) / (2 * aprime)
    beta2 = layer(5, 0) / (2 * aprime)
    beta4 = (layer(3, 1) / aprime - 2 * beta1 * beta2) / 2
    beta3 = (layer(4, 0) / aprime - beta2 * beta2) / 2
    core = BivarPoly({(3, 0): 1, (0, 2): -alpha1, (1, 1): beta1, (2, 0): beta2,
                      (1, 0): beta3, (0, 1): beta4})
    # an integral scale as an int keeps the scalar products off Fraction
    square = core * core * _int_or_rat(aprime)
    stuck = [m for m in _MP3_SLOTS if layer(*m) != square.coeff(*m)]
    if stuck:
        raise ClassifyError(
            f"layers are not proportional to x^3 - {alpha1} y^2 "
            f"(residual monomials {stuck}); size-comparison witness applies"
        )
    # the shear y = alpha1 Y + (beta1 x + beta4)/(2 alpha1), the shift
    # x = alpha1 X + sh and the flip, as one map
    sh = -(beta2 + beta1 * beta1 / (4 * alpha1)) / 3
    subst = {"x_cx": s * alpha1, "x_c0": s * sh, "y_cy": alpha1, "y_cx": beta1 / 2,
             "y_c0": (beta1 * sh + beta4) / (2 * alpha1)}
    Fs = F.subs(*_affine(subst))
    a = Fs.coeff(0, 4)
    b1, b0 = Fs.coeff(4, 0) / (2 * a), -Fs.coeff(0, 2) / (2 * a)
    W = _weierstrass(b1, b0)
    G = Fs - W * W * _int_or_rat(a)
    _require(G.weighted_degree(2, 3) < 8 and not G.coeff(0, 2),
             "EC normal form: G has a term of weight 2i + 3j >= 8 or a y^2 term")
    heavy = sorted((i, j) for (i, j) in G.terms if 2 * i + 3 * j >= 6)
    return ECRecord(a=a, b1=b1, b0=b0, G=G, substitution=subst,
                    heavy_monomials=heavy, x_flipped=x_flipped)


# -- the router ---------------------------------------------------------------


def classify(F: BivarPoly) -> ClassificationReport:
    """Deterministic route assignment for a degree-6 polynomial; inputs of
    other degrees get a degraded not-a-sextic report rather than an error."""
    deg = F.degree()
    if deg != 6:
        return ClassificationReport(
            degree=deg,
            profile=[],
            definiteness="",
            route="not-a-sextic",
            conditions={},
            notes=[f"degree is {deg}, not 6; density and witness tools still apply"],
            # the growth diagnostic certifies no negativity: density comes first
            recommended=["density"],
            engine=("growth", None),
        )
    parts = decompose(F)
    F6, F5, F4 = parts[6], parts[5], parts[4]
    profile = squarefree_profile(F6)
    defin = definiteness(F6)
    factors = dict(squarefree_factors(F6))
    maxmult = max(i for i, _ in profile)

    conditions: dict = {}
    gcd_ok, g = gcd_condition(F6, F5)
    conditions["gcd(F6,F5)=1"] = gcd_ok
    conditions["gcd(F6,F5)"] = g.to_poly().format()

    notes: list = []
    shape: dict | None = None
    ecform_error: str | None = None
    # the witness engine the route admits, decided here and nowhere else
    engine: tuple | None = None

    if maxmult in (3, 5):
        # taxonomy gap: no completeness analysis for these two profiles;
        # this takes precedence over the definiteness shortcut so that both
        # profiles always land here
        route = "paper-gap"
        notes.append(
            f"max multiplicity {maxmult}: no covering case analysis; "
            "witness search still offered, no completeness claim"
        )

    elif defin in ("negative-definite", "negative-semi", "indefinite"):
        route = "not-positive-leading"
        notes.append(
            "F6 takes negative values on integer rays, so F is unbounded below"
        )
        engine = ("ray", None)

    elif profile == [(1, 6)]:
        route = "MP0"

    elif maxmult == 2:
        f = factors[2]
        conditions["f"] = f.to_poly().format()
        conditions["f|F5"] = form_div(f, F5) is not None
        conditions["f|F4"] = form_div(f, F4) is not None
        route = {3: "MP1-cubic", 2: "MP1-quadratic", 1: "MP1-linear"}[f.degree]
        shape = {}
        # Dirichlet needs F6 positive-semi, which only this branch reaches:
        # MP0's F6 is square-free, so a real root of it is simple, and a
        # paper-gap F6 has a real factor of odd multiplicity or is the cube of
        # a definite quadratic.  MP1-cubic and MP1-linear are always
        # positive-semi, so there the engine turns on the gcd alone.
        if defin == "positive-semi" and gcd_ok:
            engine = ("dirichlet", None)
        no_engine = "gcd(F6,F5) is not constant, so no negativity engine applies"
        if route == "MP1-cubic":
            if conditions["f|F5"] and conditions["f|F4"]:
                shape["completion"] = cubic_square_completion(F)
            else:
                notes.append("f does not divide F5 and F4; "
                             + ("negativity witness applies" if engine else no_engine))
        elif route == "MP1-quadratic":
            try:
                k = _detect_pell_k(f)
                if k is None:
                    notes.append("doubled factor not equivalent to x^2 - k y^2 over Q")
                else:
                    shape["k"] = k
                    shape["quadratic_case"] = quadratic_case_analysis(F, k)
            except ClassifyError as exc:
                notes.append(str(exc))
        else:
            notes.append("doubled linear factor; "
                         + ("root-direction walk applies" if engine else no_engine))

    elif maxmult == 4:
        route = "MP2"
        # the multiplicities add up to 6, so the 4th-power factor is linear
        M = unimodular_matrix_for(factors[4])
        Fn = apply_matrix(F, M)
        shape = {"matrix": M, "normalized": Fn}
        partsn = decompose(Fn)
        conditions["x^2|F5"] = _xpow_div(partsn[5], 2)
        if not conditions["x^2|F5"]:
            engine = _anisotropic(notes, "x^2 does not divide F5", Fraction(7, 12))
        else:
            res = mp2_square_check(Fn)
            shape["square_check"] = res
            if not res.ok:
                engine = _anisotropic(notes, res.reason or "square check failed",
                                      Fraction(1, 2), "mp2-fallback")
            elif res.fixed_x_dearth:
                notes.append("alpha2 = 0: representable values come from O(1) many x")

    else:  # maxmult == 6
        route = "MP3"
        M = unimodular_matrix_for(factors[6])
        Fn = apply_matrix(F, M)
        shape = {"matrix": M, "normalized": Fn}
        partsn = decompose(Fn)
        F5n, F4n = partsn[5], partsn[4]
        conditions["x^2|F5"] = _xpow_div(F5n, 2)
        conditions["x^3|F5"] = _xpow_div(F5n, 3)
        conditions["x^4|F5"] = _xpow_div(F5n, 4)
        conditions["x^3|F5 exactly"] = conditions["x^3|F5"] and not conditions["x^4|F5"]
        conditions["x|F4"] = _xpow_div(F4n, 1)
        conditions["x^2|F4"] = _xpow_div(F4n, 2)
        conditions["x|F4 exactly"] = conditions["x|F4"] and not conditions["x^2|F4"]

        if not conditions["x^2|F5"]:
            engine = _anisotropic(notes, "x^2 does not divide F5", Fraction(1, 2))
        elif not conditions["x^3|F5"]:
            engine = _anisotropic(notes, "x^3 does not divide F5", Fraction(2, 3))
        elif conditions["x^4|F5"] and conditions["x|F4 exactly"]:
            engine = _anisotropic(notes, "x^4 | F5 with x | F4 exactly", Fraction(1, 6))
        else:
            if conditions["x^4|F5"] and conditions["x^2|F4"]:
                lay = f40_layers(Fn)
                shape["f40_lead"] = [str(u) for u in lay.coefficients]
                notes.append("x^4 | F5 and x^2 | F4; weighted-cubic sign search applies")
                # the families still run when the sign search is inconclusive
                engine = ("weighted-cubic", None)
            try:
                shape["ecform"] = ecform_normalize(Fn)
                engine = engine or ("family", None)
            except ClassifyError as exc:
                ecform_error = str(exc)
                notes.append(ecform_error)

    return ClassificationReport(
        degree=6, profile=profile, definiteness=defin, route=route,
        conditions=conditions, shape=shape, notes=notes,
        recommended=["witness"] if engine else ["density"],
        ecform_error=ecform_error, engine=engine,
    )


def _anisotropic(notes: list, why: str, theta: Fraction, name: str = "anisotropic") -> tuple:
    """The engine running the anisotropic schedule with exponent theta; the
    note it adds names theta."""
    notes.append(f"{why}; anisotropic witness, theta = {theta}")
    return (name, theta)


def _detect_pell_k(f: BinaryForm) -> int | None:
    """Square-free k > 1 with f equivalent to x^2 - k y^2 over Q, or None;
    ClassifyError when squarefree_kernel leaves k open."""
    p, q, r = f.coefficients
    if not p:
        return None
    disc = q * q - 4 * p * r
    if disc <= 0:
        return None
    # f ~ x^2 - k y^2 requires disc/4p^2 = k s^2 for square-free k
    val = Fraction(disc, 4 * p * p)
    num, den = val.numerator, val.denominator
    k = squarefree_kernel(num * den)
    if k is None:
        raise ClassifyError(f"square-free kernel k of {num * den} not resolved "
                            f"by trial division up to {KERNEL_TRIAL_BOUND}")
    return k if k > 1 else None
