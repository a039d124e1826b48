"""Degree-based impossibility checks for constructibility targets.

Every coordinate the engine can produce satisfies a rational polynomial
of degree a power of two, so an algebraic target whose irreducible
polynomial has any other degree is out of reach.  This module parses
integer polynomials, finds their rational roots exactly, decides
irreducibility in the cubic range, and reports the verdict; it also
builds the classical reduction polynomials for angle trisection and
ships the stock impossibility presets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ParseError, ReduciblePolynomialError, ResourceLimitError,
                     ScopeError)

_PIECES = re.compile(r"[+-]?[^+-]+")
_TERM = re.compile(r"([+-]?)(\d+)?(?:(x)(?:\^(\d+))?)?")

MAX_DEGREE = 64                 # highest degree `IntPoly.parse` accepts
ROOT_SEARCH_BUDGET = 100_000    # trial divisions plus candidate checks


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial, ascending degree order.

    The leading coefficient is nonzero except for the zero polynomial,
    which is stored as the single coefficient 0.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse a literal such as `8x^3 - 6x - 1`."""
        compact = text.replace(" ", "")
        if not compact:
            raise ParseError("empty polynomial")
        terms: dict[int, int] = {}
        pieces = _PIECES.findall(compact)
        if "".join(pieces) != compact:
            raise ParseError(f"bad polynomial {text!r}")
        for piece in pieces:
            m = _TERM.fullmatch(piece)
            if m is None or (m.group(2) is None and m.group(3) is None):
                raise ParseError(f"bad polynomial term {piece!r}")
            coef = -1 if m.group(1) == "-" else 1
            if m.group(2) is not None:
                coef *= int(m.group(2))
            if m.group(3) is None:
                power = 0
            elif m.group(4) is not None:
                power = int(m.group(4))
            else:
                power = 1
            terms[power] = terms.get(power, 0) + coef
        degree = max((p for p, c in terms.items() if c != 0), default=0)
        if degree > MAX_DEGREE:
            raise ScopeError(
                f"degree {degree} exceeds MAX_DEGREE={MAX_DEGREE}")
        return cls(tuple(terms.get(p, 0) for p in range(degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def evaluate(self, x):
        """Exact Horner evaluation; works for rationals and elements."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0 and not (power == 0 and not parts):
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" if power == 1 else f"{head}x^{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: IntPoly) -> list[Fraction]:
    """All rational roots, exactly, sorted ascending.

    Candidates are num/den with num dividing the trailing coefficient
    and den dividing the leading one; each is checked by exact
    evaluation.  Zero roots are stripped first.  Raises
    ResourceLimitError when the search would pass ROOT_SEARCH_BUDGET.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every rational as a root")
    coeffs = list(p.coeffs)
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) > 1:
        body = IntPoly(tuple(coeffs))
        # trial divisions up to each square root, two candidates per pair
        left = ROOT_SEARCH_BUDGET - math.isqrt(abs(coeffs[0])) \
            - math.isqrt(abs(coeffs[-1]))
        if left >= 0:
            nums, dens = _divisors(coeffs[0]), _divisors(coeffs[-1])
            left -= 2 * len(nums) * len(dens)
        if left < 0:
            raise ResourceLimitError(
                "rational root search exceeds "
                f"ROOT_SEARCH_BUDGET={ROOT_SEARCH_BUDGET} steps")
        for num in nums:
            for den in dens:
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if body.evaluate(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


@dataclass(frozen=True)
class NotConstructible:
    """The irreducible degree is not a power of two: no root is
    reachable by field operations and square roots."""

    degree: int

    @property
    def reason(self) -> str:
        return (f"irreducible of degree {self.degree}, "
                "which is not a power of two")


@dataclass(frozen=True)
class NecessaryConditionHolds:
    """The degree is a power of two; constructibility is not ruled out
    (and is not asserted either)."""

    degree: int


def wantzel_check(p: IntPoly):
    """Degree criterion for an irreducible integer polynomial.

    Degrees 2 and 3 are checked for irreducibility first; a rational
    root makes the input invalid and the error names a linear factor.
    Degree 1 is trivially irreducible; higher degrees are out of scope.
    """
    if p.is_zero or p.degree == 0:
        raise ScopeError("a constant polynomial has no roots to check")
    if p.degree in (2, 3):
        roots = rational_roots(p)
        if roots:
            r = roots[0]
            head = "x" if r.denominator == 1 else f"{r.denominator}x"
            sign = "-" if r.numerator >= 0 else "+"
            factor = f"({head} {sign} {abs(r.numerator)})"
            raise ReduciblePolynomialError(
                f"{p} is reducible: root {r}, factor {factor}", root=r)
    elif p.degree != 1:
        raise ScopeError(
            f"cannot verify irreducibility at degree {p.degree} "
            "(degrees 2-3 are supported)")
    if p.degree & (p.degree - 1) == 0:
        return NecessaryConditionHolds(p.degree)
    return NotConstructible(p.degree)


def trisection_poly(c) -> IntPoly:
    """Integer-cleared 4x^3 - 3x - c for c = cos of the full angle.

    The cosine of the trisected angle is a root.
    """
    c = Fraction(c)
    if abs(c) > 1:
        raise ValueError(f"{c} is not the cosine of an angle")
    den = c.denominator
    return IntPoly((-c.numerator, -3 * den, 0, 4 * den))


PRESETS = {
    "cube-doubling": IntPoly((-2, 0, 0, 1)),
    "trisect-60": trisection_poly(Fraction(1, 2)),
    "heptagon": IntPoly((-1, -2, 1, 1)),
}


def preset(name: str) -> IntPoly:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    return PRESETS[name]
