"""Certified density counts do not depend on coordinates.

(x, y) -> (x + a, y + b) and the eight signed permutations of (x, y) are
bijections of Z^2, so F and its image take the same values and every
certified count must agree.  A translate breaks F's symmetry group, so its
orbit columns run on more of the box, and it moves the lower-order
coefficients on which certified_box's radius and the skipped square rest.
"""

import itertools
import random

import pytest

from sexticlab.density import _D4, count_range, distinct_values_up_to
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly

BASES = ["x^6+y^6", "x^6+x^4*y^2+y^6", "1/2*x^6+1/3*y^6", "x^4+y^4"]
SHIFTS = list(itertools.product(range(-2, 3), repeat=2))


def image(F, g, a, b):
    """F(g(x + a, y + b)) for the signed permutation g = (swap, sx, sy)."""
    swap, sx, sy = g
    u = BivarPoly({(1, 0): 1, (0, 0): a})
    v = BivarPoly({(0, 1): 1, (0, 0): b})
    if swap:
        u, v = v, u
    return F.subs(u * sx, v * sy)


def certified_count(F, N):
    rep = count_range(F, N)
    assert rep.certified
    return rep.count


@pytest.mark.parametrize("text", BASES)
@pytest.mark.parametrize("N", [10**4, 10**6])
def test_count_is_the_same_for_every_translate(text, N):
    F = parse(text)
    want = certified_count(F, N)
    assert want > 0
    for a, b in SHIFTS:
        assert certified_count(image(F, _D4[0], a, b), N) == want, (a, b)


@pytest.mark.parametrize("text", BASES)
@pytest.mark.parametrize("N", [10**4, 10**6])
def test_count_is_the_same_under_signed_permutations(text, N):
    # each signed permutation of F itself, and of a seeded translate
    F = parse(text)
    want = certified_count(F, N)
    rng = random.Random(f"{text} {N}")
    for g in _D4:
        a, b = rng.choice(SHIFTS)
        assert certified_count(image(F, g, 0, 0), N) == want, g
        assert certified_count(image(F, g, a, b), N) == want, (g, a, b)


@pytest.mark.parametrize("text", BASES)
def test_values_up_to_n_are_the_same_for_seeded_images(text):
    # distinct_values_up_to enumerates the whole box down to its floor
    # -ceil(sum_{k<d} S_k M^k), which a translate lowers
    F = parse(text)
    want = distinct_values_up_to(F, 10**4)
    assert want > 0
    rng = random.Random(text)
    for _ in range(6):
        g, (a, b) = rng.choice(_D4), rng.choice(SHIFTS)
        assert distinct_values_up_to(image(F, g, a, b), 10**4) == want, (g, a, b)
