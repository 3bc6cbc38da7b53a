import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sexticlab import unipoly as up
from sexticlab.quadext import KERNEL_TRIAL_BOUND, QuadExt, is_squarefree, squarefree_kernel, _rat_sqrt


def test_is_squarefree():
    assert is_squarefree(2) and is_squarefree(3) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(18)


def test_squarefree_kernel():
    # n = k s^2 by brute force for small n
    for n in range(1, 400):
        k = min(n // s**2 for s in range(1, math.isqrt(n) + 1) if n % s**2 == 0)
        assert squarefree_kernel(n) == k
    B = KERNEL_TRIAL_BOUND
    p, q, r = 1000003, 1000033, 1000037  # primes above B
    assert squarefree_kernel(12 * p * p) == 3  # a square cofactor
    assert squarefree_kernel(18 * p * q) == 2 * p * q  # cofactor below B^3
    assert p * q * r > B**3
    assert squarefree_kernel(p * q * r) is None  # left open
    assert squarefree_kernel(p**4 * q**2) == 1


def test_field_ops():
    a = QuadExt(2, 1, 1)   # 1 + sqrt2
    b = QuadExt(2, 3, -2)  # 3 - 2 sqrt2
    assert (a + b) == QuadExt(2, 4, -1)
    assert (a * b) == QuadExt(2, 3 - 4, 3 - 2)  # (1+r)(3-2r) = 3-2r+3r-2*2
    assert a * QuadExt(2, 1, -1) == QuadExt(2, a.norm())  # times its conjugate
    assert (a / a) == QuadExt(2, 1)
    assert (1 / a) * a == QuadExt(2, 1)


def test_invalid_k():
    with pytest.raises(ValueError):
        QuadExt(4, 1)
    with pytest.raises(ValueError):
        QuadExt(1, 1)


def test_float_components_rejected():
    # Fraction(0.1) would silently become 3602879701896397/36028797018963968
    for a, b in [(0.1, 0), (1, 0.5), (Fraction(1, 2), 2.0)]:
        with pytest.raises(TypeError):
            QuadExt(2, a, b)
    with pytest.raises(TypeError):
        QuadExt(2, 1, 1) * 0.5
    assert QuadExt(2, "1/2", 3).a == Fraction(1, 2)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        QuadExt(2, 1) + QuadExt(3, 1)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 10]),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
def test_sign_matches_float(k, a, b):
    z = QuadExt(k, a, b)
    approx = float(a) + float(b) * math.sqrt(k)
    if abs(approx) > 1e-9:
        assert z.sign() == (1 if approx > 0 else -1)
    else:
        # exactly zero only when a = b = 0 (sqrt k is irrational)
        assert (z.sign() == 0) == (a == 0 and b == 0)


def test_rat_sqrt():
    assert _rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert _rat_sqrt(Fraction(2)) is None
    assert _rat_sqrt(Fraction(-1)) is None


def test_quad_poly_eval():
    # p(z) = z^2 - 2 at z = sqrt(2) is 0
    z = QuadExt(2, 0, 1)
    assert up.peval([Fraction(-2), Fraction(0), Fraction(1)], z).is_zero()
    v = up.peval([Fraction(1), Fraction(1)], z)  # 1 + sqrt2
    assert v == QuadExt(2, 1, 1)
