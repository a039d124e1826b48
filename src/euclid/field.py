"""Exact arithmetic in towers of real quadratic extensions.

A `Tower` is a session that owns an append-only list of radicands
r_1, r_2, ... where each r_i is a positive element using only earlier
radicands.  A `Constructible` is an element of the field
Q(sqrt(r_1), ..., sqrt(r_n)), stored sparsely as integer numerators over
one shared positive denominator.  `_num` maps a basis bitmask to a
nonzero integer: bit i-1 of the mask stands for sqrt(r_i), so the mask
0b101 carries the numerator of sqrt(r_1)*sqrt(r_3).  `_den` is the
denominator of every term, and the pair is kept in lowest terms.  An
element's height is the number of radicands it transitively depends on,
i.e. the length of the smallest sub-tower containing it.

Canonicity invariant: `sqrt` searches the field built so far for the
root first, and appends a radicand only when that search has certified
that the root lies outside it.  The field then has degree 2**n over Q
and the radical products form a basis, so each element has exactly one
term map.  The search is the denesting descent at the value's own top
radicand, then one division branch per higher radicand, cheapest first.
When it runs out of `SQRT_SEARCH_BUDGET` steps it cannot certify absence,
and `sqrt` raises ResourceLimitError instead of extending the tower.
Equality and hashing are therefore structural: two elements of one
tower are equal exactly when their numerator maps and denominators are.
Each element computes its hash once, on the first call, and keeps it;
the sqrt memo is keyed by the elements themselves.

All predicates (sign, equality, comparisons) are exact.  Signs are read
from certified integer enclosures L <= x * 2**p <= H: every radicand is
positive, so each basis monomial is a positive real bounded by rounded
integer square roots of its radicands' own enclosures.  The precision p
doubles from 64 until the enclosure excludes 0, which it must do, since
a nonempty term map in a canonical tower is a nonzero real.  `enclose`
gives an element's enclosure at one precision, and `approx` reads its
dyadic intervals from it.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

from .errors import (
    NegativeRadicandError,
    ResourceLimitError,
    SessionMismatchError,
)

Num = dict[int, int]
Terms = tuple[Num, int]         # (numerators by basis mask, denominator)

DEFAULT_HEIGHT_CAP = 6          # radicands a Tower() may adjoin by default
SQRT_SEARCH_BUDGET = 50_000     # steps one square-root search may take
MAX_COEFF_BITS = 1 << 16        # bits a numerator or denominator may reach
_START_PREC = 64
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _norm(num: Num, den: int) -> Terms:
    """(num, den) in lowest terms, with zero numerators dropped."""
    if len(num) == 1:
        ((k, c),) = num.items()
        if not c:
            return {}, 1
        g = math.gcd(den, c)
        return (num, den) if g == 1 else ({k: c // g}, den // g)
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return num, den


def _rational_t(q: int | Fraction) -> Terms:
    """The term pair of an int or Fraction."""
    n = q.numerator
    return ({0: n} if n else {}), q.denominator


def _top(num: Num) -> int:
    """The highest radicand index the map uses; 0 for a rational."""
    return max(num, default=0).bit_length()


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _split(t: Terms, h: int) -> tuple[Terms, Terms]:
    """t == a + b*sqrt(r_h) with h the top index; returns (a, b)."""
    bit = 1 << (h - 1)
    a: Num = {}
    b: Num = {}
    for k, c in t[0].items():
        if k & bit:
            b[k ^ bit] = c
        else:
            a[k] = c
    return _norm(a, t[1]), _norm(b, t[1])


def _attach(t: Terms, h: int) -> Terms:
    """Multiply by sqrt(r_h) where every key index is < h."""
    bit = 1 << (h - 1)
    return {k | bit: c for k, c in t[0].items()}, t[1]


def _add_t(u: Terms, v: Terms, s: int = 1) -> Terms:
    """u + s*v for s = 1 or -1, over the lcm of the denominators."""
    (un, ud), (vn, vd) = u, v
    if len(un) == 1 == len(vn):
        ((ku, cu),) = un.items()
        ((kv, cv),) = vn.items()
        if ku == kv:
            # one coefficient, reduced by one gcd
            if ud == vd:
                c = cu + s * cv
                den = ud
            else:
                g = math.gcd(ud, vd)
                c = cu * (vd // g) + s * cv * (ud // g)
                den = ud * (vd // g)
            if not c:
                return {}, 1
            g = math.gcd(den, c)
            return {ku: c // g}, den // g
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
    return _norm(out, den)


def _sub_t(u: Terms, v: Terms) -> Terms:
    return _add_t(u, v, -1)


def _neg_t(u: Terms) -> Terms:
    return {k: -c for k, c in u[0].items()}, u[1]


def _half(u: Terms) -> Terms:
    return _norm(u[0], 2 * u[1])


def _scale(u: Terms, n: int) -> Terms:
    """n*u for an integer n."""
    return _norm({k: n * c for k, c in u[0].items()}, u[1])


def _hash_ratio(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for n/d in lowest terms with d > 1, by the
    rule of Python's numeric hash, without making the Fraction."""
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    except ValueError:          # d is a multiple of the modulus
        h = _HASH_INF
    if n < 0:
        h = -h
    return -2 if h == -1 else h


class Tower:
    """A session of quadratic extensions; all elements are tied to one.

    Its bounds each raise ResourceLimitError when they trip:
    `height_cap` radicands (default: the environment variable
    EUCLID_HEIGHT_CAP, else DEFAULT_HEIGHT_CAP; 0 allows rationals
    only), SQRT_SEARCH_BUDGET steps per square-root search, and
    MAX_COEFF_BITS bits per numerator or denominator.

    A tower is single-threaded: its radicands and caches grow unguarded.
    """

    def __init__(self, height_cap: int | None = None):
        if height_cap is None:
            text = os.environ.get("EUCLID_HEIGHT_CAP", str(DEFAULT_HEIGHT_CAP))
            if not text.strip().isdecimal():
                raise ValueError("EUCLID_HEIGHT_CAP must be a nonnegative "
                                 f"integer, got {text!r}")
            height_cap = int(text)
        self.height_cap = height_cap
        self._radicands: list[Terms] = []       # r_i at slot i-1
        self._rad_used: list[int] = []          # mask of the radicands r_i uses
        self._rad_inv: list[Terms] = []
        self._sqrt_memo: dict[Constructible, Constructible] = {}
        self._monos: dict[tuple[int, int], Terms] = {}          # see _mono
        self._bounds: dict[tuple[int, int], tuple[int, int]] = {}   # see _bound
        self.zero = self._make(({}, 1))
        self.one = self._make(({0: 1}, 1))

    # -- element construction ------------------------------------------------

    def _make(self, t: Terms) -> "Constructible":
        num, den = t
        # the shared denominator and the largest numerator bound every
        # reduced coefficient's numerator and denominator
        cap = MAX_COEFF_BITS
        if len(num) == 1:
            (c,) = num.values()
            big = den.bit_length() > cap or c.bit_length() > cap
        else:
            big = num and (den.bit_length() > cap
                           or max(num.values()).bit_length() > cap
                           or min(num.values()).bit_length() > cap)
        if big:
            raise ResourceLimitError(
                f"coefficient size guard exceeded ({cap} bits)")
        return Constructible(self, num, den)

    def from_rational(self, q) -> "Constructible":
        if type(q) is not int and type(q) is not Fraction:
            q = Fraction(q)
        return self._make(_rational_t(q))

    @property
    def height(self) -> int:
        return len(self._radicands)

    def radicand(self, i: int) -> "Constructible":
        """The i-th radicand (1-based) as an element."""
        # it passed the coefficient guard before `_sqrt` stored it
        return Constructible(self, *self._radicands[i - 1])

    def _used_of(self, num: Num) -> int:
        """Mask of the radicands the map uses, directly or inside others."""
        m = 0
        for k in num:
            m |= k
        out = m
        while m:
            low = m & -m
            out |= self._rad_used[low.bit_length() - 1]
            m ^= low
        return out

    # -- core term arithmetic ------------------------------------------------

    def _mul_t(self, u: Terms, v: Terms) -> Terms:
        un, vn = u[0], v[0]
        if len(un) == 1 == len(vn):
            ((ku, cu),) = un.items()
            ((kv, cv),) = vn.items()
            if not ku & kv:
                # one coefficient, reduced by one gcd
                c = cu * cv
                den = u[1] * v[1]
                g = math.gcd(den, c)
                return {ku | kv: c // g}, den // g
        out: Num = {}
        get = out.get
        scale = 1       # out holds the product's numerators times `scale`
        monos = self._monos
        vitems = vn.items()
        for ku, cu in un.items():
            for kv, cv in vitems:
                common = ku & kv
                if not common:
                    k = ku ^ kv
                    out[k] = get(k, 0) + cu * cv * scale
                    continue
                m = monos.get((common, ku ^ kv))
                if m is None:
                    m = self._mono(common, ku ^ kv)
                mn, md = m
                if scale % md:
                    f = md // math.gcd(scale, md)
                    scale *= f
                    for k in out:
                        out[k] *= f
                c = cu * cv * (scale // md)
                for k, c2 in mn.items():
                    out[k] = get(k, 0) + c * c2
        return _norm(out, u[1] * v[1] * scale)

    def _mono(self, common: int, sym: int) -> Terms:
        """The product of the radicands in `common` times the basis
        monomial `sym`, in the basis: sqrt(ku)*sqrt(kv) for
        ku & kv == common and ku ^ kv == sym."""
        m: Terms = ({sym: 1}, 1)
        rest = common
        while rest:
            low = rest & -rest
            m = self._mul_t(m, self._radicands[low.bit_length() - 1])
            rest ^= low
        self._monos[(common, sym)] = m
        return m

    def _inv_t(self, t: Terms) -> Terms:
        num, den = t
        if not num:
            raise ZeroDivisionError("division by zero")
        h = _top(num)
        if h == 0:
            c = num[0]
            return {0: den if c > 0 else -den}, abs(c)
        a, b = _split(t, h)
        # 1/(a + b*s) = (a - b*s) / (a^2 - b^2 r), with the denominator in
        # the subfield; it is nonzero because sqrt(r_h) is not in the subfield.
        n = _sub_t(self._mul_t(a, a),
                   self._mul_t(self._mul_t(b, b), self._radicands[h - 1]))
        if not n[0]:
            raise ZeroDivisionError("division by zero")
        ninv = self._inv_t(n)
        return _sub_t(self._mul_t(a, ninv), _attach(self._mul_t(b, ninv), h))

    # -- certified enclosures ------------------------------------------------

    def _sign(self, num: Num) -> int:
        """Sign of the element with numerators `num` (the denominator is
        positive), from enclosures at doubling precision."""
        if len(num) <= 1:
            if not num:
                return 0
            (c,) = num.values()
            return 1 if c > 0 else -1
        p = _START_PREC
        while True:
            lo, hi = self._enclose(num, p)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            p *= 2

    def _enclose(self, num: Num, p: int) -> tuple[int, int]:
        """Integers lo <= hi bounding sum(c * sqrt(mask)) * 2**p."""
        lo = hi = 0
        one = 1 << p
        bounds = self._bounds
        for k, c in num.items():
            if k:
                b = bounds.get((k, p))
                if b is None:
                    b = self._bound(k, p)
                ml, mh = b
            else:
                ml = mh = one
            if c > 0:
                lo += c * ml
                hi += c * mh
            else:
                lo += c * mh
                hi += c * ml
        return lo, hi

    def _bound(self, k: int, p: int) -> tuple[int, int]:
        """Integers lo <= hi bounding the basis monomial sqrt(k) * 2**p,
        cached per (k, p); all factors are positive."""
        hit = self._bounds.get((k, p))
        if hit is not None:
            return hit
        low = k & -k
        if k == low:
            rn, rd = self._radicands[k.bit_length() - 1]
            lo, hi = self._enclose(rn, p)
            lo = max(lo, 0) // rd
            hi = -(-hi // rd)
            out = math.isqrt(lo << p), math.isqrt(hi << p) + 1
        else:
            al, ah = self._bound(low, p)
            bl, bh = self._bound(k ^ low, p)
            out = (al * bl) >> p, -((-ah * bh) >> p)
        self._bounds[(k, p)] = out
        return out

    # -- square roots --------------------------------------------------------

    def _try_sqrt_t(self, t: Terms, m: int, budget: list[int]) -> Terms | None:
        """Nonnegative square root of `t` in Q(sqrt r_1 .. sqrt r_m), or None.

        Any in-field root has the shape u * prod(sqrt(r_i) for i in S) with
        u below min(S); since squaring kills the sqrt(r_i) factors, the top
        index h of the input is always below max(S).  So division branches
        are only needed for indices j above h, and below that the classic
        a + b*sqrt(r_h) descent is complete.

        The search runs the descent at h first, then divides by r_j for
        j = h+1 .. m upward: branch j searches the subfield below r_j,
        at most half the size of branch j+1's, so the cheapest subtree
        comes first.  The order cannot change the result: the field holds
        at most one positive root of `t`, and every return path is
        sign-normalized.
        """
        budget[0] -= 1
        if budget[0] < 0:
            # an uncertified radicand would break canonicity
            raise ResourceLimitError(
                "square-root search budget exhausted "
                f"({SQRT_SEARCH_BUDGET} steps)")
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
            # fall through: q may still be a square times a radicand product
        else:
            w = self._descend_sqrt_t(t, h, budget)
            if w is not None:
                return w
        for j in range(h + 1, m + 1):
            z = self._mul_t(t, self._rad_inv[j - 1])
            u = self._try_sqrt_t(z, j - 1, budget)
            if u is not None:
                return _attach(u, j)
        return None

    def _descend_sqrt_t(self, t: Terms, h: int, budget: list[int]) -> Terms | None:
        """Positive root a' + b'*sqrt(r_h) of `t` with a', b' below r_h, or
        None; h is the top index of `t`."""
        a, b = _split(t, h)
        s = self._radicands[h - 1]
        ab2 = _sub_t(self._mul_t(a, a), self._mul_t(self._mul_t(b, b), s))
        n = self._try_sqrt_t(ab2, h - 1, budget)
        if n is None:
            return None
        for nn in (n, _neg_t(n)):
            u = self._try_sqrt_t(_half(_add_t(a, nn)), h - 1, budget)
            if u is not None and u[0]:
                v = self._mul_t(b, _half(self._inv_t(u)))
                w = _add_t(u, _attach(v, h))
                if self._mul_t(w, w) == t:
                    if self._sign(w[0]) < 0:
                        w = _neg_t(w)
                    return w
        return None

    def _sqrt(self, x: "Constructible") -> "Constructible":
        # only positive values are stored, so a hit needs no sign
        hit = self._sqrt_memo.get(x)
        if hit is not None:
            return hit
        s = self._sign(x._num)
        if s < 0:
            raise NegativeRadicandError("sqrt of negative value")
        if s == 0:
            return self.zero
        t = x._terms
        w = self._try_sqrt_t(t, len(self._radicands), [SQRT_SEARCH_BUDGET])
        if w is None:
            used = self._used_of(x._num)
            if used.bit_count() + 1 > self.height_cap:
                raise ResourceLimitError(
                    f"tower height cap {self.height_cap} exceeded")
            self._radicands.append(t)
            self._rad_used.append(used)
            self._rad_inv.append(self._inv_t(t))
            w = {1 << (len(self._radicands) - 1): 1}, 1
        res = self._make(w)
        self._sqrt_memo[x] = res
        return res


class Constructible:
    """An element of a tower session.  Immutable; arithmetic via operators."""

    __slots__ = ("tower", "_num", "_den", "_height", "_iv", "_hash")

    def __init__(self, tower: Tower, num: Num, den: int):
        self.tower = tower
        self._num = num
        self._den = den
        self._height: int | None = None
        self._iv: tuple[int, int, int] | None = None     # (p, lo, hi)
        self._hash: int | None = None

    # -- basics --------------------------------------------------------------

    @property
    def _terms(self) -> Terms:
        return self._num, self._den

    @property
    def height(self) -> int:
        if self._height is None:
            self._height = self.tower._used_of(self._num).bit_count()
        return self._height

    def is_rational(self) -> bool:
        return _top(self._num) == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self._num.get(0, 0), self._den)

    def sign(self) -> int:
        return self.tower._sign(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> Terms | None:
        """The term pair of an element of this tower, int or Fraction;
        None for other types.  The operators guard what they make."""
        if isinstance(other, Constructible):
            if other.tower is not self.tower:
                raise SessionMismatchError("operands from different towers")
            return other._terms
        if isinstance(other, (int, Fraction)):
            return _rational_t(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_add_t(self._terms, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_sub_t(self._terms, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(_sub_t(o, self._terms))

    def __neg__(self):
        # same magnitudes, so nothing for the coefficient guard to catch
        return Constructible(self.tower, *_neg_t(self._terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.tower._make(self.tower._mul_t(self._terms, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        tw = self.tower
        return tw._make(tw._mul_t(self._terms, tw._inv_t(o)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        tw = self.tower
        return tw._make(tw._mul_t(o, tw._inv_t(self._terms)))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except SessionMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self._den == o[1] and self._num == o[0]

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def _cmp(self, o: Terms) -> int:
        return self.tower._sign(_sub_t(self._terms, o)[0])

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def __hash__(self):
        # structural, like __eq__; elements of different towers may
        # collide, and a rational hashes as the Fraction it equals.
        # Computed on the first call and kept: elements are immutable.
        h = self._hash
        if h is None:
            num, d = self._num, self._den
            if not any(num):            # only the rational key 0
                n = num.get(0, 0)
                h = hash(n) if d == 1 else _hash_ratio(n, d)
            else:
                h = hash((d, frozenset(num.items())))
            self._hash = h
        return h

    # -- roots and enclosures ------------------------------------------------

    def sqrt(self) -> "Constructible":
        """Exact square root; extends the tower only when it has to.

        Raises ResourceLimitError when the search budget or the height
        cap runs out before the root is found or adjoined."""
        return self.tower._sqrt(self)

    def enclose(self, p: int) -> tuple[int, int]:
        """Integers lo <= hi with lo <= self * 2**p <= hi."""
        lo, hi = self.tower._enclose(self._num, p)
        return lo // self._den, -(-hi // self._den)

    def approx(self, k: int) -> tuple[Fraction, Fraction]:
        """Dyadic interval of width <= 2**-k containing the exact value.

        Repeated calls with growing k return nested intervals.
        """
        s = k + 2
        iv = self._iv
        if iv is None or iv[0] < s or iv[2] - iv[1] > 1 << (iv[0] - s):
            p = 2 * iv[0] if iv else _START_PREC
            while p < s + 16:
                p *= 2
            while True:
                lo, hi = self.enclose(p)
                if iv is not None:
                    # keep the intervals nested across calls
                    lo = max(lo, iv[1] << (p - iv[0]))
                    hi = min(hi, iv[2] << (p - iv[0]))
                iv = self._iv = (p, lo, hi)
                if hi - lo <= 1 << (p - s):
                    break
                p *= 2
        p, lo, hi = iv
        return (Fraction(lo >> (p - s), 1 << s),
                Fraction(-(-hi >> (p - s)), 1 << s))

    def mid(self, k: int) -> Fraction:
        """Midpoint of the `approx(k)` interval, within 2**-k of the value."""
        lo, hi = self.approx(k)
        return (lo + hi) / 2

    def to_float(self) -> float:
        return float(self.mid(60))

    # -- display -------------------------------------------------------------

    def _expr(self, depth: int = 0) -> str:
        if not self._num:
            return "0"
        tw = self.tower
        parts = []
        for idx, c in sorted((_indices(k), c) for k, c in self._num.items()):
            q = Fraction(c, self._den)
            factors = []
            if q != 1 or not idx:
                factors.append(str(q))
            for i in idx:
                if depth > 8:
                    factors.append(f"sqrt(r{i})")
                else:
                    factors.append(
                        "sqrt(" + tw.radicand(i)._expr(depth + 1) + ")")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self._expr()} ~ {self.to_float():.6g}>"
