import math
from fractions import Fraction

import pytest

from euclid.algebra import (
    IntPoly,
    NecessaryConditionHolds,
    NotConstructible,
    PRESETS,
    preset,
    rational_roots,
    trisection_poly,
    wantzel_check,
)
from euclid.errors import (ParseError, ReduciblePolynomialError,
                           ResourceLimitError, ScopeError)
from euclid.field import Tower
from engine_checks import char_poly


def test_parse_standard_literals():
    assert IntPoly.parse("8x^3 - 6x - 1").coeffs == (-1, -6, 0, 8)
    assert IntPoly.parse("x^4+1").coeffs == (1, 0, 0, 0, 1)
    assert IntPoly.parse("2x-3").coeffs == (-3, 2)
    assert IntPoly.parse("x^2-x").coeffs == (0, -1, 1)
    assert IntPoly.parse("-x").coeffs == (0, -1)
    assert IntPoly.parse("7").coeffs == (7,)
    assert IntPoly.parse("x+x").coeffs == (0, 2)
    assert IntPoly.parse("5-5").is_zero


def test_parse_rejects_malformed_literals():
    for bad in ("", "  ", "x^", "3y", "x**2", "^2", "+"):
        with pytest.raises(ParseError):
            IntPoly.parse(bad)


def test_str_round_trips_through_parse():
    for text in ("8x^3 - 6x - 1", "x^4 + 1", "x^3 - 2", "2x - 3",
                 "x^2 - x", "4x^3 - 3x + 1"):
        p = IntPoly.parse(text)
        assert str(p) == text
        assert IntPoly.parse(str(p)) == p


def test_rational_roots_examples():
    assert rational_roots(IntPoly.parse("x^3-2")) == []
    assert rational_roots(IntPoly.parse("2x-3")) == [Fraction(3, 2)]
    assert rational_roots(IntPoly.parse("x^2-x")) == [0, 1]
    assert rational_roots(IntPoly.parse("6x^2-5x+1")) == [
        Fraction(1, 3), Fraction(1, 2)]
    with pytest.raises(ValueError):
        rational_roots(IntPoly((0,)))


def test_rational_root_search_names_its_bound():
    # 720720 has 240 divisors, so 2 * 240 * 240 = 115,200 candidates;
    # x^3 - 10000000019 needs 100,001 trial divisions before any
    # candidate
    for text in ("720720x^3 + x + 720720", "x^3 - 10000000019"):
        with pytest.raises(ResourceLimitError,
                           match=r"^rational root search exceeds "
                                 r"ROOT_SEARCH_BUDGET=100000 steps$"):
            rational_roots(IntPoly.parse(text))


def test_parse_names_its_degree_bound():
    assert IntPoly.parse("x^64 + 1").degree == 64
    with pytest.raises(ScopeError,
                       match=r"^degree 65 exceeds MAX_DEGREE=64$"):
        IntPoly.parse("x^65 + 1")


def test_rational_roots_divide_exactly():
    p = IntPoly.parse("6x^3 - 5x^2 - 2x + 1")
    for r in rational_roots(p):
        coeffs = list(reversed(p.coeffs))
        carry = Fraction(0)
        out = []
        for c in coeffs:
            carry = carry * r + c
            out.append(carry)
        assert out[-1] == 0


def test_wantzel_verdicts():
    assert wantzel_check(IntPoly.parse("x^3-2")) == NotConstructible(3)
    assert wantzel_check(IntPoly.parse("8x^3-6x-1")) == NotConstructible(3)
    assert wantzel_check(IntPoly.parse("x^2-2")) == NecessaryConditionHolds(2)
    assert wantzel_check(IntPoly.parse("x-5")) == NecessaryConditionHolds(1)
    verdict = wantzel_check(IntPoly.parse("x^3-2"))
    assert "not a power of two" in verdict.reason


def test_wantzel_rejects_reducible_with_named_factor():
    with pytest.raises(ReduciblePolynomialError) as err:
        wantzel_check(IntPoly.parse("x^2-1"))
    assert "(x + 1)" in str(err.value)
    assert err.value.root == -1
    with pytest.raises(ReduciblePolynomialError) as err:
        wantzel_check(trisection_poly(1))
    assert err.value.root in rational_roots(trisection_poly(1))


def test_wantzel_scope_errors():
    with pytest.raises(ScopeError):
        wantzel_check(IntPoly.parse("x^4+1"))
    with pytest.raises(ScopeError):
        wantzel_check(IntPoly.parse("7"))
    with pytest.raises(ScopeError):
        wantzel_check(IntPoly((0,)))


def test_trisection_poly():
    assert trisection_poly(Fraction(1, 2)) == IntPoly.parse("8x^3-6x-1")
    assert rational_roots(trisection_poly(1)) == [
        Fraction(-1, 2), Fraction(1)]
    assert Fraction(-1) in rational_roots(trisection_poly(-1))
    with pytest.raises(ValueError):
        trisection_poly(Fraction(3, 2))


def test_trisection_poly_has_the_cosine_as_root():
    for c in (Fraction(1, 2), Fraction(1, 4), Fraction(-3, 5)):
        p = trisection_poly(c)
        x = math.cos(math.acos(float(c)) / 3)
        value = sum(k * x ** i for i, k in enumerate(p.coeffs))
        assert abs(value) < 1e-9


def test_presets():
    assert preset("cube-doubling") == IntPoly.parse("x^3-2")
    assert preset("trisect-60") == IntPoly.parse("8x^3-6x-1")
    assert preset("heptagon") == IntPoly.parse("x^3+x^2-2x-1")
    for name, poly in PRESETS.items():
        assert wantzel_check(poly) == NotConstructible(3)
    with pytest.raises(ValueError):
        preset("squaring-the-circle")


def test_engine_elements_are_never_roots_of_impossible_polys():
    tw = Tower()
    cube = IntPoly.parse("x^3-2")
    cos20 = IntPoly.parse("8x^3-6x-1")
    samples = [
        tw.from_rational(1),
        tw.from_rational(Fraction(7, 5)),
        tw.from_rational(2).sqrt(),
        tw.from_rational(3).sqrt() / tw.from_rational(2),
        (tw.from_rational(2).sqrt() + tw.from_rational(3).sqrt()),
    ]
    for x in samples:
        assert cube.evaluate(x).sign() != 0
        assert cos20.evaluate(x).sign() != 0


def test_height_degree_report():
    # an element's rational polynomial has degree 2 to its height
    tw = Tower()
    s3 = tw.from_rational(3).sqrt() / tw.from_rational(2)
    mixed = tw.from_rational(2).sqrt() + tw.from_rational(3).sqrt()
    for x, height in ((tw.from_rational(1), 0), (s3, 1), (mixed, 2)):
        assert x.height == height
        assert len(char_poly(x)) - 1 == 2 ** height
    assert char_poly(mixed) == [1, 0, -10, 0, 1]
