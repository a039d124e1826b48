"""Differential tests of the tower arithmetic against sympy.

Seeded nested radicals are built twice, as tower elements and as sympy
expressions, and the tower's sign, enclosures and characteristic
polynomial are checked against sympy's 200-digit values and minimal
polynomials.
"""

import random
from fractions import Fraction

import pytest
import sympy

from euclid.field import Tower
from engine_checks import char_poly

X = sympy.Symbol("X")


def _q(rng, lo=-9, hi=9, dmax=5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def _sym(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _nested(t, rng, depth):
    """q0 + sum(c_i * sqrt(R_i)) with one or two roots; at depth 1 each
    radicand is y*y + s for a depth-0 element y and a rational s > 0."""
    q0 = _q(rng)
    x, e = t.from_rational(q0), _sym(q0)
    for _ in range(rng.randint(1, 2)):
        if depth == 0:
            r = Fraction(rng.randint(1, 30), rng.randint(1, 4))
            y, f = t.from_rational(r), _sym(r)
        else:
            y, f = _nested(t, rng, 0)
            s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            y, f = y * y + s, f * f + _sym(s)
        c = _q(rng, -5, 5, 3)
        x, e = x + c * y.sqrt(), e + _sym(c) * sympy.sqrt(f)
    return x, e


@pytest.mark.parametrize("seed", range(16))
def test_nested_radicals_agree_with_sympy(seed):
    rng = random.Random(seed)
    t = Tower(height_cap=8)
    x, e = _nested(t, rng, seed % 2)

    poly = sympy.Poly(list(reversed(char_poly(x))), X)
    minimal = sympy.Poly(sympy.minimal_polynomial(e, X), X)
    assert sympy.rem(poly, minimal).is_zero

    cases = [(x, e)]
    value = sympy.N(e, 200)
    for k in (8, 40, 100):
        lo, hi = x.approx(k)
        assert _sym(lo) <= value <= _sym(hi)
        # within 2**-k of zero: signs that need more than 64 bits
        cases += [(x - lo, e - _sym(lo)), (x - hi, e - _sym(hi))]
    for y, f in cases:
        assert y.sign() == sympy.sign(sympy.N(f, 200))
