"""Exact arithmetic in towers of real quadratic extensions.

A `Tower` is a session that owns an append-only list of radicands
r_1, r_2, ... where each r_i is a positive element using only earlier
radicands.  A `Constructible` is an element of the field
Q(sqrt(r_1), ..., sqrt(r_n)), stored sparsely as a map from sorted
tuples of radicand indices to nonzero Fraction coefficients: the key
(i, j) carries the coefficient of sqrt(r_i)*sqrt(r_j).  An element's
height is the number of radicands it transitively depends on, i.e. the
length of the smallest sub-tower containing it.

Canonicity invariant: a radicand is appended only after the square-root
search has certified that its root lies outside the whole field built so
far.  The field then has degree 2**n over Q and the radical products form
a basis, so each element has exactly one term map.  When the search runs
out of `sqrt_search_budget` it cannot certify that, and `sqrt` raises
ResourceLimitError instead of extending the tower.  Equality and hashing
are therefore structural: two elements of one tower are equal exactly
when their term maps are.

All predicates (sign, equality, comparisons) are exact.  `approx`
returns dyadic enclosing intervals and never feeds back into decisions.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction

from .errors import (
    NegativeRadicandError,
    ParseError,
    ResourceLimitError,
    SessionMismatchError,
)

Key = tuple[int, ...]
Terms = dict[Key, Fraction]

DEFAULT_HEIGHT_CAP = 6
_ZERO = Fraction(0)


def _acc(out: Terms, k: Key, c: Fraction) -> None:
    # c is nonzero, like every stored coefficient, so a new key keeps it
    v = out.get(k)
    if v is None:
        out[k] = c
        return
    v += c
    if v:
        out[k] = v
    else:
        del out[k]


def _maxidx(terms: Terms) -> int:
    h = 0
    for k in terms:
        if k and k[-1] > h:
            h = k[-1]
    return h


def _split(terms: Terms, h: int) -> tuple[Terms, Terms]:
    """terms == a + b*sqrt(r_h) with h the top index; returns (a, b)."""
    a: Terms = {}
    b: Terms = {}
    for k, c in terms.items():
        if k and k[-1] == h:
            b[k[:-1]] = c
        else:
            a[k] = c
    return a, b


def _attach(terms: Terms, h: int) -> Terms:
    """Multiply by sqrt(r_h) where every key index is < h."""
    return {k + (h,): c for k, c in terms.items()}


def _add_t(u: Terms, v: Terms) -> Terms:
    out = dict(u)
    for k, c in v.items():
        _acc(out, k, c)
    return out


def _neg_t(u: Terms) -> Terms:
    return {k: -c for k, c in u.items()}


def _sub_t(u: Terms, v: Terms) -> Terms:
    out = dict(u)
    for k, c in v.items():
        _acc(out, k, -c)
    return out


def _scale_t(u: Terms, q: Fraction) -> Terms:
    if not q:
        return {}
    return {k: c * q for k, c in u.items()}


class Tower:
    """A session of quadratic extensions; all elements are tied to one."""

    def __init__(self, height_cap: int | None = None,
                 sqrt_search_budget: int = 50_000,
                 max_coeff_bits: int = 1 << 16):
        if height_cap is None:
            height_cap = int(os.environ.get("EUCLID_HEIGHT_CAP", DEFAULT_HEIGHT_CAP))
        self.height_cap = height_cap
        self.sqrt_search_budget = sqrt_search_budget
        self.max_coeff_bits = max_coeff_bits
        self._radicands: list[Terms] = []       # r_i at slot i-1
        self._rad_used: list[frozenset[int]] = []
        self._rad_inv: list[Terms] = []
        self._sqrt_memo: dict[tuple, Constructible] = {}
        self._iv_cache: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        self._monos: dict[tuple[Key, Key], Key | Terms] = {}   # see _mono
        self._lock = threading.RLock()
        self.zero = self._make({})
        self.one = self._make({(): Fraction(1)})

    # -- element construction ------------------------------------------------

    def _make(self, terms: Terms) -> "Constructible":
        if self.max_coeff_bits:
            for c in terms.values():
                if (c.numerator.bit_length() > self.max_coeff_bits
                        or c.denominator.bit_length() > self.max_coeff_bits):
                    raise ResourceLimitError(
                        "coefficient size guard exceeded "
                        f"({self.max_coeff_bits} bits)")
        return Constructible(self, terms)

    def from_rational(self, q) -> "Constructible":
        q = Fraction(q)
        return self._make({(): q} if q else {})

    def parse(self, text: str) -> "Constructible":
        return parse_real(text, self)

    @property
    def height(self) -> int:
        return len(self._radicands)

    def radicand(self, i: int) -> "Constructible":
        """The i-th radicand (1-based) as an element."""
        return self._make(dict(self._radicands[i - 1]))

    def radicands(self) -> list["Constructible"]:
        return [self.radicand(i) for i in range(1, len(self._radicands) + 1)]

    def _used_of(self, terms: Terms) -> frozenset[int]:
        out: set[int] = set()
        stack = [i for k in terms for i in k]
        while stack:
            i = stack.pop()
            if i not in out:
                out.add(i)
                out |= self._rad_used[i - 1]
        return frozenset(out)

    # -- core term arithmetic ------------------------------------------------

    def _mul_t(self, u: Terms, v: Terms) -> Terms:
        out: Terms = {}
        monos = self._monos
        for ku, cu in u.items():
            for kv, cv in v.items():
                c = cu * cv
                m = monos.get((ku, kv))
                if m is None:
                    m = self._mono(ku, kv)
                if type(m) is tuple:
                    _acc(out, m, c)
                else:
                    for k2, c2 in m.items():
                        _acc(out, k2, c * c2)
        return out

    def _mono(self, ku: Key, kv: Key) -> "Key | Terms":
        """sqrt(ku)*sqrt(kv) in the basis: a key when ku and kv share no
        index, else the term map of the radicand product times a key."""
        su, sv = set(ku), set(kv)
        common = su & sv
        m: Key | Terms = tuple(sorted(su ^ sv))
        if common:
            m = {m: Fraction(1)}
            for i in common:
                m = self._mul_t(m, self._radicands[i - 1])
        self._monos[(ku, kv)] = m
        return m

    def _sign_t(self, terms: Terms) -> int:
        if not terms:
            return 0
        h = _maxidx(terms)
        if h == 0:
            q = terms[()]
            return (q > 0) - (q < 0)
        a, b = _split(terms, h)
        sa = self._sign_t(a)
        sb = self._sign_t(b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 * r_h
        d = _sub_t(self._mul_t(a, a),
                   self._mul_t(self._mul_t(b, b), self._radicands[h - 1]))
        return sa * self._sign_t(d)

    def _inv_t(self, terms: Terms) -> Terms:
        if not terms:
            raise ZeroDivisionError("division by zero")
        h = _maxidx(terms)
        if h == 0:
            return {(): 1 / terms[()]}
        a, b = _split(terms, h)
        # 1/(a + b*s) = (a - b*s) / (a^2 - b^2 r), with the denominator in
        # the subfield; it is nonzero because sqrt(r_h) is not in the subfield.
        n = _sub_t(self._mul_t(a, a),
                   self._mul_t(self._mul_t(b, b), self._radicands[h - 1]))
        if not n:
            raise ZeroDivisionError("division by zero")
        ninv = self._inv_t(n)
        out = self._mul_t(a, ninv)
        for k, c in _attach(self._mul_t(b, ninv), h).items():
            _acc(out, k, -c)
        return out

    # -- square roots --------------------------------------------------------

    def _try_sqrt_t(self, terms: Terms, m: int, budget: list[int]) -> Terms | None:
        """Square root of `terms` within Q(sqrt r_1 .. sqrt r_m), or None.

        Any in-field root has the shape u * prod(sqrt(r_i) for i in S) with
        u below min(S); since squaring kills the sqrt(r_i) factors, the top
        index of the input is always below max(S).  So division branches are
        only needed for indices above the input's top index, and below that
        the classic a + b*sqrt(s) descent is complete.
        """
        budget[0] -= 1
        if budget[0] < 0:
            raise _SearchBudget()
        if not terms:
            return {}
        h = _maxidx(terms)
        if h == 0:
            q = terms[()]
            if q > 0:
                rn = math.isqrt(q.numerator)
                rd = math.isqrt(q.denominator)
                if rn * rn == q.numerator and rd * rd == q.denominator:
                    return {(): Fraction(rn, rd)}
            # fall through: q may still be a square times a radicand product
        for j in range(m, h, -1):
            z = self._mul_t(terms, self._rad_inv[j - 1])
            u = self._try_sqrt_t(z, j - 1, budget)
            if u is not None:
                return _attach(u, j)
        if h == 0:
            return None
        a, b = _split(terms, h)
        s = self._radicands[h - 1]
        ab2 = _sub_t(self._mul_t(a, a), self._mul_t(self._mul_t(b, b), s))
        n = self._try_sqrt_t(ab2, h - 1, budget)
        if n is None:
            return None
        for nn in (n, _neg_t(n)):
            cand = _scale_t(_add_t(a, nn), Fraction(1, 2))
            u = self._try_sqrt_t(cand, h - 1, budget)
            if u:
                v = self._mul_t(b, _scale_t(self._inv_t(u), Fraction(1, 2)))
                w = _add_t(u, _attach(v, h))
                if not _sub_t(self._mul_t(w, w), terms):
                    if self._sign_t(w) < 0:
                        w = _neg_t(w)
                    return w
        return None

    def _sqrt(self, x: "Constructible") -> "Constructible":
        with self._lock:
            s = self._sign_t(x._terms)
            if s < 0:
                raise NegativeRadicandError("sqrt of negative value")
            if s == 0:
                return self.zero
            key = x._key()
            hit = self._sqrt_memo.get(key)
            if hit is not None:
                return hit
            try:
                budget = [self.sqrt_search_budget]
                w = self._try_sqrt_t(x._terms, len(self._radicands), budget)
            except _SearchBudget:
                # an uncertified radicand would break canonicity
                raise ResourceLimitError("square-root search budget exhausted")
            if w is None:
                new_height = len(self._used_of(x._terms)) + 1
                if new_height > self.height_cap:
                    raise ResourceLimitError(
                        f"tower height cap {self.height_cap} exceeded")
                idx = len(self._radicands) + 1
                self._radicands.append(dict(x._terms))
                self._rad_used.append(self._used_of(x._terms))
                self._rad_inv.append(self._inv_t(x._terms))
                w = {(idx,): Fraction(1)}
            res = self._make(w)
            self._sqrt_memo[key] = res
            return res

    def _try_sqrt(self, x: "Constructible", max_index: int | None) -> "Constructible | None":
        with self._lock:
            if max_index is None:
                max_index = len(self._radicands)
            if _maxidx(x._terms) > max_index:
                raise ValueError("element is outside the requested sub-tower")
            if self._sign_t(x._terms) < 0:
                return None
            try:
                budget = [self.sqrt_search_budget]
                w = self._try_sqrt_t(x._terms, max_index, budget)
            except _SearchBudget:
                raise ResourceLimitError("square-root search budget exhausted")
            return None if w is None else self._make(w)

    # -- numeric enclosures --------------------------------------------------

    def _sqrt_interval(self, i: int, prec: int) -> tuple[Fraction, Fraction]:
        hit = self._iv_cache.get((i, prec))
        if hit is not None:
            return hit
        rlo, rhi = self._eval_interval(self._radicands[i - 1], prec)
        if rlo < 0:
            rlo = _ZERO
        out = (_rat_sqrt_lower(rlo, prec), _rat_sqrt_upper(rhi, prec))
        self._iv_cache[(i, prec)] = out
        return out

    def _eval_interval(self, terms: Terms, prec: int) -> tuple[Fraction, Fraction]:
        lo = hi = _ZERO
        for k, c in terms.items():
            tlo = thi = Fraction(c)
            for i in k:
                slo, shi = self._sqrt_interval(i, prec)
                tlo, thi = _iv_mul(tlo, thi, slo, shi)
            lo += tlo
            hi += thi
        return lo, hi


class _SearchBudget(Exception):
    pass


def _iv_mul(alo, ahi, blo, bhi):
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps)


def _rat_sqrt_lower(q: Fraction, prec: int) -> Fraction:
    if q <= 0:
        return _ZERO
    n, d = q.numerator, q.denominator
    s = math.isqrt(n * d << (2 * prec))
    return Fraction(s, d << prec)


def _rat_sqrt_upper(q: Fraction, prec: int) -> Fraction:
    if q <= 0:
        return _ZERO
    n, d = q.numerator, q.denominator
    s = math.isqrt(n * d << (2 * prec))
    return Fraction(s + 1, d << prec)


class Constructible:
    """An element of a tower session.  Immutable; arithmetic via operators."""

    __slots__ = ("tower", "_terms", "_height", "_iv", "_keyc")

    def __init__(self, tower: Tower, terms: Terms):
        self.tower = tower
        self._terms = terms
        self._height: int | None = None
        self._iv: tuple[int, Fraction, Fraction] | None = None
        self._keyc = None

    # -- basics --------------------------------------------------------------

    def _key(self):
        if self._keyc is None:
            self._keyc = tuple(sorted(self._terms.items()))
        return self._keyc

    @property
    def height(self) -> int:
        if self._height is None:
            self._height = len(self.tower._used_of(self._terms))
        return self._height

    def is_rational(self) -> bool:
        return _maxidx(self._terms) == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return self._terms.get((), _ZERO)

    def sign(self) -> int:
        return self.tower._sign_t(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Constructible | None":
        if isinstance(other, Constructible):
            if other.tower is not self.tower:
                raise SessionMismatchError("operands from different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_add_t(self._terms, o._terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_sub_t(self._terms, o._terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_sub_t(o._terms, self._terms))

    def __neg__(self):
        return self.tower._make(_neg_t(self._terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(self.tower._mul_t(self._terms, o._terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._terms:
            raise ZeroDivisionError("division by zero")
        return self.tower._make(
            self.tower._mul_t(self._terms, self.tower._inv_t(o._terms)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except SessionMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._sign_t(_sub_t(self._terms, o._terms)) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._sign_t(_sub_t(self._terms, o._terms)) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._sign_t(_sub_t(self._terms, o._terms)) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._sign_t(_sub_t(self._terms, o._terms)) >= 0

    def __hash__(self):
        # structural, like __eq__; elements of different towers may collide
        return hash(self._key())

    # -- roots, polynomials, enclosures --------------------------------------

    def sqrt(self) -> "Constructible":
        """Exact square root; extends the tower only when it has to.

        Raises ResourceLimitError when the search budget or the height
        cap runs out before the root is found or adjoined."""
        return self.tower._sqrt(self)

    def try_sqrt_in_field(self, max_index: int | None = None) -> "Constructible | None":
        """Square root within the first `max_index` radicands, else None."""
        return self.tower._try_sqrt(self, max_index)

    def char_poly(self) -> list[int]:
        """Integer coefficients (ascending) of the product of X - x over all
        2^height sign flips of the radicals x uses.  The element is a root."""
        tw = self.tower
        used = sorted(tw._used_of(self._terms))
        if len(used) > tw.height_cap:
            raise ResourceLimitError(
                f"char_poly on height {len(used)} exceeds cap {tw.height_cap}")
        poly: list[Terms] = [_neg_t(self._terms), {(): Fraction(1)}]
        for h in reversed(used):
            a_poly = []
            b_poly = []
            for coeff in poly:
                a, b = _split(coeff, h)
                a_poly.append(a)
                b_poly.append(b)
            aa = _poly_mul(tw, a_poly, a_poly)
            bb = _poly_mul(tw, b_poly, b_poly)
            rbb = [tw._mul_t(c, tw._radicands[h - 1]) for c in bb]
            poly = _poly_sub(aa, rbb)
        coeffs = []
        for t in poly:
            if _maxidx(t) != 0:
                raise AssertionError("descent left a radical coefficient")
            coeffs.append(t.get((), _ZERO))
        denom = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * denom) for c in coeffs]
        g = math.gcd(*ints)
        if g:
            ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return ints

    def approx(self, k: int) -> tuple[Fraction, Fraction]:
        """Dyadic interval of width <= 2**-k containing the exact value.

        Repeated calls with growing k return nested intervals.
        """
        target = Fraction(1, 1 << (k + 2))
        cached = self._iv
        if cached is not None and cached[2] - cached[1] <= target:
            lo, hi = cached[1], cached[2]
        else:
            prec = max(k + 4, cached[0] * 2 if cached else 0)
            lo, hi = (cached[1], cached[2]) if cached else (None, None)
            while True:
                nlo, nhi = self.tower._eval_interval(self._terms, prec)
                if lo is not None:
                    nlo, nhi = max(nlo, lo), min(nhi, hi)
                lo, hi = nlo, nhi
                self._iv = (prec, lo, hi)
                if hi - lo <= target:
                    break
                prec *= 2
        scale = 1 << (k + 2)
        dlo = Fraction(math.floor(lo * scale), scale)
        dhi = Fraction(math.ceil(hi * scale), scale)
        return dlo, dhi

    def to_float(self) -> float:
        lo, hi = self.approx(60)
        return float((lo + hi) / 2)

    # -- display -------------------------------------------------------------

    def _expr(self, depth: int = 0) -> str:
        if not self._terms:
            return "0"
        tw = self.tower
        parts = []
        for k, c in sorted(self._terms.items()):
            factors = []
            if c != 1 or not k:
                factors.append(str(c))
            for i in k:
                if depth > 8:
                    factors.append(f"sqrt(r{i})")
                else:
                    factors.append(
                        "sqrt(" + tw._make(dict(tw._radicands[i - 1]))._expr(depth + 1) + ")")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self._expr()} ~ {self.to_float():.6g}>"


# -- literal parser ----------------------------------------------------------

class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return self.text[self.pos:j]
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return self.text[self.pos:j]
        return ch

    def take(self) -> str:
        t = self.peek()
        self.pos += len(t)
        return t


def parse_real(text: str, tower: Tower) -> Constructible:
    """Parse a literal like `(1+sqrt(5))/2` into an exact element."""
    lx = _Lexer(text)
    val = _parse_sum(lx, tower)
    if lx.peek():
        raise ParseError(f"unexpected {lx.peek()!r} in number literal", col=lx.pos)
    return val


def _parse_sum(lx: _Lexer, tw: Tower) -> Constructible:
    v = _parse_product(lx, tw)
    while lx.peek() in ("+", "-"):
        op = lx.take()
        rhs = _parse_product(lx, tw)
        v = v + rhs if op == "+" else v - rhs
    return v


def _parse_product(lx: _Lexer, tw: Tower) -> Constructible:
    v = _parse_atom(lx, tw)
    while lx.peek() in ("*", "/"):
        op = lx.take()
        rhs = _parse_atom(lx, tw)
        if op == "*":
            v = v * rhs
        else:
            if rhs.sign() == 0:
                raise ParseError("division by zero in number literal", col=lx.pos)
            v = v / rhs
    return v


def _parse_atom(lx: _Lexer, tw: Tower) -> Constructible:
    t = lx.peek()
    if t == "-":
        lx.take()
        return -_parse_atom(lx, tw)
    if t == "(":
        lx.take()
        v = _parse_sum(lx, tw)
        if lx.take() != ")":
            raise ParseError("expected ')' in number literal", col=lx.pos)
        return v
    if t == "sqrt":
        lx.take()
        if lx.take() != "(":
            raise ParseError("expected '(' after sqrt", col=lx.pos)
        v = _parse_sum(lx, tw)
        if lx.take() != ")":
            raise ParseError("expected ')' in number literal", col=lx.pos)
        return v.sqrt()
    if t.isdigit():
        lx.take()
        return tw.from_rational(int(t))
    raise ParseError(f"unexpected {t!r} in number literal", col=lx.pos)


# -- polynomial helpers over term dicts --------------------------------------

def _poly_mul(tw: Tower, p: list[Terms], q: list[Terms]) -> list[Terms]:
    out: list[Terms] = [{} for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if not b:
                continue
            for k, c in tw._mul_t(a, b).items():
                _acc(out[i + j], k, c)
    return out


def _poly_sub(p: list[Terms], q: list[Terms]) -> list[Terms]:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else {}
        b = q[i] if i < len(q) else {}
        out.append(_sub_t(a, b))
    return out
