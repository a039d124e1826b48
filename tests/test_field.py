import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from euclid.errors import (
    NegativeRadicandError,
    ParseError,
    ResourceLimitError,
    SessionMismatchError,
)
from euclid import field
from euclid.field import (
    Constructible,
    Tower,
    _add_t,
    _attach,
    _half,
    _neg_t,
    _norm,
    _split,
    _sub_t,
    _top,
)
from engine_checks import char_poly, sign_t


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
    assert char_poly(t.from_rational(Fraction(3, 2))) == [-3, 2]
    assert char_poly(r2) == [-2, 0, 1]
    assert char_poly(r2 + r3) == [1, 0, -10, 0, 1]
    assert char_poly(t.zero) == [0, 1]
    golden = t.parse("(1+sqrt(5))/2")
    assert char_poly(golden) == [-1, -1, 1]


def test_char_poly_degree_is_two_to_height():
    t = Tower()
    x = t.from_rational(2).sqrt()
    x = (x + 1).sqrt()
    x = (x + 3).sqrt()
    assert x.height == 3
    p = char_poly(x)
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


def _root_in(x, m):
    """The engine's in-field root search over the first m radicands."""
    return x.tower._try_sqrt_t(x._terms, m, [field.SQRT_SEARCH_BUDGET])


def test_try_sqrt_in_field():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    assert _root_in(t.from_rational(4), 2) == t.from_rational(2)._terms
    assert _root_in(3 + 2 * r2, 2) == (1 + r2)._terms
    assert _root_in(t.from_rational(5), 2) is None
    # restricting the sub-tower hides later radicands
    assert _root_in(t.from_rational(3), 1) is None
    assert _root_in(t.from_rational(3), 2) == r3._terms
    assert t.height == 2


def test_radicands_stay_canonical():
    # no radicand has a square root in the sub-tower below it
    t = Tower()
    t.from_rational(2).sqrt()
    t.from_rational(6).sqrt()
    x = (1 + t.from_rational(2).sqrt()).sqrt()
    (x + 5).sqrt()
    for i in range(1, t.height + 1):
        assert _root_in(t.radicand(i), i - 1) is None


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


def _hash_formula(x):
    num, den = x._num, x._den
    if _top(num) == 0:
        return hash(Fraction(num.get(0, 0), den))
    return hash((den, frozenset(num.items())))


def test_hash_is_computed_once_by_the_structural_formula():
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    r3 = t.from_rational(3).sqrt()
    for x in (t.zero, t.one, t.from_rational(-7), t.from_rational(Fraction(5, 6)),
              r2, -r2 / 3, 1 + r2, (r2 + r3) / 7, r2 * r3 - Fraction(1, 2)):
        assert x._hash is None
        assert hash(x) == _hash_formula(x)
        assert x._hash == hash(x)
    # the second call reads the kept value and computes nothing
    x = (1 + r2) / 5
    hash(x)
    x._hash = 12345
    assert hash(x) == 12345


def test_sqrt_memo_is_keyed_by_elements(monkeypatch):
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    s = (3 + r2).sqrt()
    assert t.height == 2
    assert all(type(k) is Constructible for k in t._sqrt_memo)
    signs = []
    sign = Tower._sign
    monkeypatch.setattr(Tower, "_sign",
                        lambda self, num: signs.append(num) or sign(self, num))
    # fresh elements equal to memoised radicands get the same roots back,
    # and a hit decides no sign
    fresh = t.from_rational(2)
    assert all(k is not fresh for k in t._sqrt_memo)
    assert fresh.sqrt() is r2
    assert (r2 + 3).sqrt() is s
    assert signs == []
    assert t.height == 2


def test_sqrt_budget_exhaustion_raises_instead_of_extending(monkeypatch):
    # 5 + 2*sqrt(6) is (sqrt(2) + sqrt(3))**2, but a 3-step search cannot
    # find that root; a radicand added uncertified would give the value
    # sqrt(2) + sqrt(3) two term maps that compare equal and hash apart
    monkeypatch.setattr(field, "SQRT_SEARCH_BUDGET", 3)
    t = Tower()
    with pytest.raises(ResourceLimitError):
        (5 + 2 * t.from_rational(6).sqrt()).sqrt()
    assert t.height == 1
    with pytest.raises(ResourceLimitError,
                       match="square-root search budget exhausted") as ei:
        _root_in(5 + 2 * t.from_rational(6).sqrt(), t.height)
    assert "(3 steps)" in str(ei.value)
    assert t.height == 1
    t.from_rational(2).sqrt()
    assert t.height == 2


def test_sqrt_search_tries_the_cheapest_branch_first(monkeypatch):
    # roots in the input's own subfield, or under a low radicand, are
    # found before any division by a higher radicand is searched
    t = Tower()
    r2 = t.from_rational(2).sqrt()
    for p in (3, 5, 7, 11, 13):
        t.from_rational(p).sqrt()
    monkeypatch.setattr(field, "SQRT_SEARCH_BUDGET", 8)
    assert t.from_rational(8).sqrt() == 2 * r2
    assert (3 + 2 * r2).sqrt() == 1 + r2
    assert t.height == 6


def _ref_try_sqrt_t(tw, t, m, budget):
    """The same search with the divisions first, from r_m down, and the
    descent at the input's top index last.  Any order must return the
    same positive root."""
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceLimitError("square-root search budget exhausted")
    num, den = t
    if not num:
        return t
    h = _top(num)
    if h == 0:
        q = num[0]
        if q > 0:
            rn = math.isqrt(q)
            rd = math.isqrt(den)
            if rn * rn == q and rd * rd == den:
                return {0: rn}, rd
    for j in range(m, h, -1):
        z = tw._mul_t(t, tw._rad_inv[j - 1])
        u = _ref_try_sqrt_t(tw, z, j - 1, budget)
        if u is not None:
            return _attach(u, j)
    if h == 0:
        return None
    a, b = _split(t, h)
    s = tw._radicands[h - 1]
    ab2 = _sub_t(tw._mul_t(a, a), tw._mul_t(tw._mul_t(b, b), s))
    n = _ref_try_sqrt_t(tw, ab2, h - 1, budget)
    if n is None:
        return None
    for nn in (n, _neg_t(n)):
        u = _ref_try_sqrt_t(tw, _half(_add_t(a, nn)), h - 1, budget)
        if u is not None and u[0]:
            v = tw._mul_t(b, _half(tw._inv_t(u)))
            w = _add_t(u, _attach(v, h))
            if tw._mul_t(w, w) == t:
                if tw._sign(w[0]) < 0:
                    w = _neg_t(w)
                return w
    return None


# (p, c, i): the next radicand is p + c*pool[i], a prime shifted by an
# earlier root, so towers mix independent and nested radicands
_tower_spec = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-2, 2),
              st.integers(0, 4)),
    min_size=1, max_size=5)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(spec=_tower_spec, data=st.data())
def test_sqrt_search_agrees_with_divisions_first_reference(spec, data):
    t = Tower(height_cap=5)
    pool = [t.one]
    for p, c, i in spec:
        w = p + c * pool[i % len(pool)]
        if w > 0:
            pool.append(w.sqrt())
    m = t.height
    assume(m >= 1)
    # w = u * prod(sqrt r_i for i in S) with S above u's top index
    k = data.draw(st.integers(0, m), label="top of u")
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=1 << k,
                                max_size=1 << k), label="u")
    u = _norm({mask: c for mask, c in enumerate(coeffs) if c},
              data.draw(st.integers(1, 4), label="den"))
    assume(u[0])
    top = _top(u[0])
    above = data.draw(st.sets(st.integers(top + 1, m), min_size=1),
                      label="S") if top < m else set()
    w = u
    for i in sorted(above):
        w = _attach(w, i)
    r = data.draw(st.sampled_from([2, 3, 6, 7]), label="r")
    ww = t._mul_t(w, w)
    wwr = t._mul_t(ww, ({0: r}, 1))
    values = [ww, _neg_t(ww), wwr, _add_t(wwr, ({0: 1}, 1)), w]
    radicands = list(t._radicands)
    for x in values:
        got = t._try_sqrt_t(x, m, [10 ** 6])
        want = _ref_try_sqrt_t(t, x, m, [10 ** 6])
        assert got == want
        assert t._radicands == radicands
    assert t._try_sqrt_t(ww, m, [10 ** 6]) is not None


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
    # a function-scoped fixture would outlive the examples, so each
    # example undoes its own patch
    patch = pytest.MonkeyPatch()
    patch.setattr(field, "SQRT_SEARCH_BUDGET", budget)
    t = Tower(height_cap=3)
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
    finally:
        patch.undo()
    for x in elems:
        for y in elems:
            equal = x == y
            assert equal == (sign_t(t, (x - y)._terms) == 0)
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
        assert y.sign() == sign_t(t, y._terms)
        assert (y < x) == (sign_t(t, (y - x)._terms) < 0)
        assert (y >= 1) == (sign_t(t, (y - 1)._terms) >= 0)


def test_coefficient_size_guard(monkeypatch):
    monkeypatch.setattr(field, "MAX_COEFF_BITS", 64)
    t = Tower()
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


def test_scalar_operands_are_guarded_in_the_result():
    # an int or Fraction operand is a term pair, so only what the
    # operator makes passes the coefficient guard
    t = Tower()
    x = t.from_rational(2).sqrt()
    message = r"^coefficient size guard exceeded"
    for big in (2 ** 70000, Fraction(1, 2 ** 70000)):
        with pytest.raises(ResourceLimitError, match=message):
            x * big
        with pytest.raises(ResourceLimitError, match=message):
            big - x
        assert x != big and not x == big
    assert (x * 2) / Fraction(2) == x == 2 / x
    assert x - 1 < 1 < x and x + Fraction(1, 2) > 1
    assert t.from_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert t.zero == 0 == Fraction(0) and t.one == 1
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        1 / t.zero


# The term kernels' bodies before their one-term paths: the reference
# the direct paths must reproduce exactly.

def _ref_norm(num, den):
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return num, den


def _ref_add_t(u, v, s=1):
    (un, ud), (vn, vd) = u, v
    if ud == vd:
        out = dict(un)
        den = ud
    else:
        g = math.gcd(ud, vd)
        f = vd // g
        out = {k: c * f for k, c in un.items()}
        s *= ud // g
        den = ud * f
    get = out.get
    for k, c in vn.items():
        out[k] = get(k, 0) + s * c
    return _ref_norm(out, den)


def _ref_mono(tw, common, sym):
    m = ({sym: 1}, 1)
    rest = common
    while rest:
        low = rest & -rest
        m = _ref_mul_t(tw, m, tw._radicands[low.bit_length() - 1])
        rest ^= low
    return m


def _ref_mul_t(tw, u, v):
    out = {}
    get = out.get
    scale = 1
    for ku, cu in u[0].items():
        for kv, cv in v[0].items():
            common = ku & kv
            if not common:
                k = ku ^ kv
                out[k] = get(k, 0) + cu * cv * scale
                continue
            mn, md = _ref_mono(tw, common, ku ^ kv)
            if scale % md:
                f = md // math.gcd(scale, md)
                scale *= f
                for k in out:
                    out[k] *= f
            c = cu * cv * (scale // md)
            for k, c2 in mn.items():
                out[k] = get(k, 0) + c * c2
    return _ref_norm(out, u[1] * v[1] * scale)


_kernel_coeff = st.integers(-12, 12)


@st.composite
def _kernel_terms(draw, height):
    """A normalized term pair: one term or several, or zero."""
    masks = st.integers(0, (1 << height) - 1)
    size = draw(st.sampled_from([0, 1, 1, 1, 2, 3]), label="terms")
    num = draw(st.dictionaries(masks, _kernel_coeff.filter(bool),
                               min_size=min(size, 1 << height),
                               max_size=size), label="num")
    # common factors of numerators and denominator, so results reduce
    f = draw(st.sampled_from([1, 1, 2, 3, 6]), label="factor")
    den = draw(st.integers(1, 8), label="den") * f
    return _ref_norm({k: c * f for k, c in num.items()}, den)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(spec=st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]),
                               st.integers(0, 1), st.integers(0, 3)),
                     max_size=3),
       data=st.data())
def test_term_kernels_agree_with_generic_reference(spec, data):
    t = Tower(height_cap=3)
    pool = [t.one]
    for p, c, i in spec:
        pool.append((p + c * pool[i % len(pool)]).sqrt())
    m = t.height
    u = data.draw(_kernel_terms(m), label="u")
    v = data.draw(_kernel_terms(m), label="v")
    s = data.draw(st.sampled_from([1, -1]), label="s")
    if data.draw(st.booleans(), label="cancel"):
        v = u if s == -1 else _neg_t(u)         # u + s*v == 0
    assert t._mul_t(u, v) == _ref_mul_t(t, u, v)
    assert t._mul_t(v, u) == _ref_mul_t(t, v, u)
    got = _add_t(u, v, s)
    assert got == _ref_add_t(u, v, s)
    assert _add_t(v, u, s) == _ref_add_t(v, u, s)
    # raw maps, zero numerators included, over any denominator
    raw = data.draw(st.dictionaries(st.integers(0, (1 << m) - 1),
                                    _kernel_coeff, max_size=3), label="raw")
    den = data.draw(st.integers(1, 24), label="raw den")
    assert _norm(dict(raw), den) == _ref_norm(dict(raw), den)
