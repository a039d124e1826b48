import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from euclid.errors import (
    NegativeRadicandError,
    ParseError,
    ResourceLimitError,
    SessionMismatchError,
)
from euclid.field import Tower


def test_rational_basics():
    t = Tower()
    a = t.from_rational(Fraction(3, 2))
    b = t.from_rational(-2)
    assert (a + b).as_rational() == Fraction(-1, 2)
    assert (a * b).as_rational() == -3
    assert (a / b).as_rational() == Fraction(-3, 4)
    assert a.sign() == 1 and b.sign() == -1 and t.zero.sign() == 0
    assert a.height == 0
    assert b < a < 2


def test_sqrt_extends_once_and_memoizes():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    assert t.height == 1
    assert r2.height == 1
    assert t.from_rational(2).sqrt() is r2
    # multiples of an existing radicand reuse it
    r8 = t.from_rational(8).sqrt()
    assert t.height == 1
    assert r8 == 2 * r2
    assert t.from_rational(Fraction(1, 2)).sqrt() == r2 / 2
    assert t.height == 1


def test_inverse_rationalizes():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    assert 1 / (1 + r2) == r2 - 1
    x = 3 - r2
    assert x * (1 / x) == 1
    assert (x + x) / 2 == x


def test_nested_sqrt_denests():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    s = (3 + 2 * r2).sqrt()
    assert s == 1 + r2
    assert t.height == 1


def test_sqrt6_factors_through_sqrt2_sqrt3():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    r6 = t.from_rational(6).sqrt()
    assert t.height == 2
    assert r6 == r2 * r3
    s = (5 + 2 * r6).sqrt()
    assert s == r2 + r3
    assert (r2 + r3 - (5 + 2 * r6).sqrt()).sign() == 0


def test_sqrt_of_negative_raises():
    t = Tower()
    with pytest.raises(NegativeRadicandError):
        t.from_rational(-1).sqrt()
    assert t.zero.sqrt() is t.zero


def test_char_poly_frozen_values():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    assert t.from_rational(Fraction(3, 2)).char_poly() == [-3, 2]
    assert r2.char_poly() == [-2, 0, 1]
    assert (r2 + r3).char_poly() == [1, 0, -10, 0, 1]
    assert t.zero.char_poly() == [0, 1]
    golden = t.parse("(1+sqrt(5))/2")
    assert golden.char_poly() == [-1, -1, 1]


def test_char_poly_degree_is_two_to_height():
    t = Tower()
    x = t.from_rational(2).sqrt()
    x = (x + 1).sqrt()
    x = (x + 3).sqrt()
    assert x.height == 3
    p = x.char_poly()
    assert len(p) - 1 == 8
    # the element really is a root
    acc = t.zero
    for c in reversed(p):
        acc = acc * x + c
    assert acc.sign() == 0


def test_height_counts_used_radicands_only():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    r5 = t.from_rational(5).sqrt()
    assert t.height == 3
    assert (r2 + r3 + r5).height == 3
    assert (r2 * r3 - r2 * r3 + r5).height == 1
    assert t.from_rational(7).height == 0
    nested = (1 + r2).sqrt()
    assert nested.height == 2


def test_height_cap():
    t = Tower(height_cap=2)
    x = t.from_rational(2).sqrt()
    x = (x + 1).sqrt()
    with pytest.raises(ResourceLimitError):
        (x + 1).sqrt()


def test_session_mismatch():
    t1, t2 = Tower(), Tower()
    a = t1.from_rational(2).sqrt()
    b = t2.from_rational(2).sqrt()
    with pytest.raises(SessionMismatchError):
        a + b
    with pytest.raises(SessionMismatchError):
        a < b
    assert (a == b) is False


def test_approx_width_and_nesting():
    t = Tower()
    x = t.from_rational(2).sqrt() + t.from_rational(3).sqrt()
    prev = None
    for k in (4, 10, 21, 40, 64):
        lo, hi = x.approx(k)
        assert hi - lo <= Fraction(1, 2 ** k)
        assert (lo.denominator & (lo.denominator - 1)) == 0
        assert (hi.denominator & (hi.denominator - 1)) == 0
        if prev is not None:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)
    # high-precision reference: sqrt2 + sqrt3 to 40 digits
    ref = Fraction(math.isqrt(2 * 10 ** 80) + math.isqrt(3 * 10 ** 80), 10 ** 40)
    lo, hi = x.approx(64)
    assert lo <= ref <= hi


def test_approx_of_exact_dyadic():
    t = Tower()
    x = t.from_rational(Fraction(3, 8))
    lo, hi = x.approx(10)
    assert lo <= Fraction(3, 8) <= hi
    assert hi - lo <= Fraction(1, 1024)
    lo, hi = t.zero.approx(50)
    assert lo <= 0 <= hi


def test_try_sqrt_in_field():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    assert t.from_rational(4).try_sqrt_in_field() == 2
    assert (3 + 2 * r2).try_sqrt_in_field() == 1 + r2
    assert t.from_rational(5).try_sqrt_in_field() is None
    # restricting the sub-tower hides later radicands
    assert t.from_rational(3).try_sqrt_in_field(max_index=1) is None
    assert t.from_rational(3).try_sqrt_in_field(max_index=2) == r3
    assert t.height == 2


def test_radicands_stay_canonical():
    # no radicand has a square root in the sub-tower below it
    t = Tower()
    t.from_rational(2).sqrt()
    t.from_rational(6).sqrt()
    x = (1 + t.from_rational(2).sqrt()).sqrt()
    (x + 5).sqrt()
    for i, r in enumerate(t.radicands(), start=1):
        assert r.try_sqrt_in_field(max_index=i - 1) is None


def _random_element(t, rng, pool):
    x = t.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for p in pool:
        if rng.random() < 0.5:
            x = x + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * p
    return x


def test_field_axioms_sampled():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    r7 = (3 + r2).sqrt()
    r11 = (r3 + r7 + 6).sqrt()
    pool = [r2, r3, r7, r11, r2 * r3, r3 * r7]
    rng = random.Random(20260823)
    start = time.monotonic()
    for _ in range(1000):
        a = _random_element(t, rng, pool)
        b = _random_element(t, rng, pool)
        c = _random_element(t, rng, pool)
        assert (a + b) - b == a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b.sign() != 0:
            assert (a / b) * b == a
        s = (a * a).sqrt()
        assert s == (a if a.sign() >= 0 else -a)
    assert time.monotonic() - start < 10.0


def test_sign_transitivity_sampled():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r5 = t.from_rational(5).sqrt()
    rng = random.Random(7)
    pool = [r2, r5, (1 + r2).sqrt()]
    xs = [_random_element(t, rng, pool) for _ in range(40)]
    xs.sort()
    for a, b in zip(xs, xs[1:]):
        assert a <= b
        lo_a, hi_a = a.approx(40)
        lo_b, hi_b = b.approx(40)
        assert lo_a <= hi_b


def test_parse_literals():
    t = Tower()
    assert t.parse("3/4").as_rational() == Fraction(3, 4)
    assert t.parse("-2").as_rational() == -2
    assert t.parse("sqrt(2)*sqrt(2)") == 2
    assert t.parse("(1+sqrt(5))/2") == (1 + t.from_rational(5).sqrt()) / 2
    assert t.parse("1 - sqrt(9)") == -2
    with pytest.raises(ParseError):
        t.parse("sqrt(2")
    with pytest.raises(ParseError):
        t.parse("2 +")
    with pytest.raises(ParseError):
        t.parse("1/0")
    with pytest.raises(NegativeRadicandError):
        t.parse("sqrt(1-2)")


def test_hash_consistency_for_identical_builds():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    a = 1 + r2
    b = r2 + 1
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_is_independent_of_the_tower():
    a = 1 + Tower().from_rational(2).sqrt()
    b = 1 + Tower().from_rational(2).sqrt()
    assert hash(a) == hash(b)
    assert a != b


def test_rational_element_hashes_as_the_number_it_equals():
    a = Tower().from_rational(3)
    assert a == 3
    assert len({a, 3}) == 1
    assert {3: "x"}[a] == "x"
    half = Tower().from_rational(Fraction(1, 2))
    assert {Fraction(1, 2): "h"}[half] == "h"
    # 2**61 - 1 is the hash modulus, which has no inverse modulo itself
    for q in (Fraction(-7, 3), Fraction(5, 2 ** 61 - 1),
              Fraction(-1, 2 ** 61 - 1), Fraction(3 ** 50, 2 ** 70 + 1), -1):
        assert hash(Tower().from_rational(q)) == hash(q)


def test_sqrt_budget_exhaustion_raises_instead_of_extending():
    # 5 + 2*sqrt(6) is (sqrt(2) + sqrt(3))**2, but a 3-step search cannot
    # find that root; a radicand added uncertified would give the value
    # sqrt(2) + sqrt(3) two term maps that compare equal and hash apart
    t = Tower(sqrt_search_budget=3)
    with pytest.raises(ResourceLimitError):
        (5 + 2 * t.from_rational(6).sqrt()).sqrt()
    assert t.height == 1
    with pytest.raises(ResourceLimitError,
                       match="square-root search budget exhausted"):
        (5 + 2 * t.from_rational(6).sqrt()).try_sqrt_in_field()
    assert t.height == 1
    t.from_rational(2).sqrt()
    assert t.height == 2


_small = st.integers(-3, 3)
# (kind, q, c, i, d, j): w = q + c*pool[i] + d*pool[j]; kind 0 takes the
# root of |w|, usually a new radicand; kind 1 the root of w*w, which is
# |w| again and must be found inside the field
_index = st.integers(0, 5)
_radicand = st.tuples(st.booleans(), st.sampled_from([2, 3, 5, 6, 7]),
                      _small, _index, _small, _index)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(budget=st.sampled_from([3, 12, 60, 50_000]),
       rads=st.lists(_radicand, min_size=1, max_size=4),
       coeffs=st.lists(_small, min_size=6, max_size=6))
def test_structural_equality_agrees_with_sign_descent(budget, rads, coeffs):
    t = Tower(sqrt_search_budget=budget, height_cap=3)
    pool = [t.one]
    elems = []
    try:
        for kind, q, c, i, d, j in rads:
            w = q + c * pool[i % len(pool)] + d * pool[j % len(pool)]
            if not w:
                continue
            w = w if w > 0 else -w
            root = (w * w if kind else w).sqrt()
            pool.append(root)
            if kind:
                elems.append(w)
        a = sum((k * p for k, p in zip(coeffs, pool)), t.zero)
        b = sum((k * p for k, p in zip(reversed(coeffs), pool)), t.zero)
        elems += pool + [a, b, (a * a).sqrt(), -a if a < 0 else a]
    except ResourceLimitError:
        return
    for x in elems:
        for y in elems:
            equal = x == y
            assert equal == (t._sign_t((x - y)._terms) == 0)
            if equal:
                assert hash(x) == hash(y)



# elements with denominators above 1 and numerators of 100+ bits
_big_coeff = st.tuples(st.integers(-(1 << 120), 1 << 120),
                       st.integers(1, 1 << 40))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(rads=st.lists(_radicand, min_size=1, max_size=4),
       coeffs=st.lists(_big_coeff, min_size=6, max_size=6),
       k=st.integers(1, 160))
def test_sign_filter_agrees_with_sign_descent(rads, coeffs, k):
    t = Tower(height_cap=3)
    pool = [t.one]
    try:
        for kind, q, c, i, d, j in rads:
            w = q + c * pool[i % len(pool)] + d * pool[j % len(pool)]
            if w:
                pool.append((w * w if kind else w * w + 1).sqrt())
    except ResourceLimitError:
        pass
    x = sum((Fraction(n, d) * p for (n, d), p in zip(coeffs, pool)), t.zero)
    lo, hi = x.approx(k)
    # x - lo and x - hi lie within 2**-k of 0: near-cancellations
    elems = [x, x - lo, x - hi, x * x - 2 * x, x - pool[-1], (x - lo) * 2 ** k - 1]
    for y in elems:
        assert y.sign() == t._sign_t(y._terms)
        assert (y < x) == (t._sign_t((y - x)._terms) < 0)
        assert (y >= 1) == (t._sign_t((y - 1)._terms) >= 0)


def test_coefficient_size_guard():
    t = Tower(max_coeff_bits=64)
    x = (1 + t.from_rational(2).sqrt()) / 3
    message = r"^coefficient size guard exceeded \(64 bits\)$"
    for _ in range(5):
        x = x * x               # denominator 3**32 has 51 bits
    assert (x + x) / 2 == x
    with pytest.raises(ResourceLimitError, match=message):
        x * x                   # denominator 3**64 has 102 bits
    big = t.from_rational(2 ** 63)
    assert (big + (big - 1)).as_rational() == 2 ** 64 - 1
    with pytest.raises(ResourceLimitError, match=message):
        big + big               # numerator 2**64 has 65 bits
    # the shared denominator is the lcm of the terms' denominators
    r3 = t.from_rational(3).sqrt()
    a = t.from_rational(Fraction(1, 2 ** 40 - 87))
    b = r3 / (2 ** 30 - 35)
    with pytest.raises(ResourceLimitError, match=message):
        a + b
    y = 1 + 2 ** 40 * r3
    assert 1 / (1 + r3) == (r3 - 1) / 2
    with pytest.raises(ResourceLimitError, match=message):
        1 / y                   # 1 - 3 * 2**80 in the denominator
