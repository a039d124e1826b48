"""Exact plane geometry over a tower session.

Points carry exact coordinates; lines are a*x + b*y + c = 0 with the
first nonzero of (a, b) normalized to 1; circles store center and
squared radius.  `intersect` returns the (0, 1 or 2) intersection
points sorted by (x, y); `intersects` answers the same question as a
predicate without taking any square roots, so it never grows the tower.
Both check and reduce a pair of curves once, in `_pair`, to a line and
a curve: two lines meet by `_line_line`, and every other pair by the
quadratic of a line and a circle, which `_line_circle` solves and
`intersects` only reads the discriminant of.  These kernels compute on
the (numerators, denominator) term pairs of `field` with one inverse
per call, and make field elements, each checked by the coefficient
guard, only for the coordinates and line coefficients they return and
for the discriminant they take the root of.  Lines have a rational
lane: when every coordinate or coefficient a join (`Line.through`), a
normalization (`Line`), a meet (`_line_line`) or a value
(`Line._value`) reads is rational, it computes with integer cross
products of homogeneous coordinates over one common denominator, and
reduces each result by one gcd to a positive denominator (`_ratio`).
A rational has one such pair, the one `field._norm` gives, so the
lane's elements equal the general path's term for term, and each
still passes the guard in `Tower._make`.  `second_meet` finds the
other meet of a circle and a curve through a point they share as that
point's mirror image, with no root.  The predicates `side` and
`contains` run on term pairs too and make no element at all; `eval`
makes one, the value they read.  `cross(p, q, r)` is the one signed
area formula: `orientation` reads its sign, and `net` its ratios.
`Step` records one construction step in the traces of every engine,
and `RULES` spells each construction rule once, with the builder
`Step.build` calls.  `TESTS` spells each exact test a strategy may ask
once: its operands' classes, its decider, and whether projective maps
keep its answer.  A `Position` is what every engine knows: the objects
built so far.  A class's `kind` is its construction-language name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    DegenerateInputError,
    IdenticalCurvesError,
    RangeError,
    SessionMismatchError,
)
from .field import (
    Constructible,
    Terms,
    Tower,
    _add_t,
    _half,
    _neg_t,
    _scale,
    _sub_t,
)


def _coerce(tw: Tower, v) -> Constructible:
    if isinstance(v, Constructible):
        if v.tower is not tw:
            raise SessionMismatchError("value from a different tower")
        return v
    return tw.from_rational(v)


def point(tw: Tower, x, y) -> "Point":
    return Point(_coerce(tw, x), _coerce(tw, y))


class Point:
    __slots__ = ("x", "y")
    kind = "point"      # the class's name in construction programs

    def __init__(self, x: Constructible, y: Constructible):
        if x.tower is not y.tower:
            raise SessionMismatchError("point coordinates from different towers")
        self.x = x
        self.y = y

    @property
    def tower(self) -> Tower:
        return self.x.tower

    @property
    def height(self) -> int:
        return max(self.x.height, self.y.height)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash(("P", self.x, self.y))

    def __repr__(self):
        return f"Point({self.x!r}, {self.y!r})"


class Line:
    """a*x + b*y + c = 0, scaled so the first nonzero of (a, b) is 1."""

    __slots__ = ("a", "b", "c")
    kind = "line"

    def __init__(self, a: Constructible, b: Constructible, c: Constructible):
        tw = a.tower
        if b.tower is not tw or c.tower is not tw:
            raise SessionMismatchError("line coefficients from different towers")
        if not (any(a._num) or any(b._num) or any(c._num)):
            ad, bd, cd = a._den, b._den, c._den
            self.a, self.b, self.c = _normal_q(
                tw, _n(a) * bd * cd, _n(b) * ad * cd, _n(c) * ad * bd)
            return
        if a:
            inv = tw._inv_t(a._terms)
            a, b = tw.one, tw._make(tw._mul_t(b._terms, inv))
        elif b:
            inv = tw._inv_t(b._terms)
            a, b = tw.zero, tw.one
        else:
            raise DegenerateInputError("line with zero normal vector")
        self.a = a
        self.b = b
        self.c = tw._make(tw._mul_t(c._terms, inv))

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        tw = _tower_of(p, q)
        if p == q:
            raise DegenerateInputError("line through two identical points")
        px, py, qx, qy = p.x, p.y, q.x, q.y
        if not (any(px._num) or any(py._num) or any(qx._num)
                or any(qy._num)):
            # the join of (x1 : y1 : z1) and (x2 : y2 : z2)
            z1, z2 = px._den * py._den, qx._den * qy._den
            x1, y1 = _n(px) * py._den, _n(py) * px._den
            x2, y2 = _n(qx) * qy._den, _n(qy) * qx._den
            line = object.__new__(cls)
            line.a, line.b, line.c = _normal_q(
                tw, y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
            return line
        a = _sub_t(q.y._terms, p.y._terms)
        b = _sub_t(p.x._terms, q.x._terms)
        c = _neg_t(_add_t(tw._mul_t(a, p.x._terms), tw._mul_t(b, p.y._terms)))
        return cls(tw._make(a), tw._make(b), tw._make(c))

    @property
    def tower(self) -> Tower:
        return self.b.tower

    @property
    def height(self) -> int:
        return max(self.a.height, self.b.height, self.c.height)

    def _value(self, p: Point) -> Terms:
        """a*x + b*y + c at p, as a term pair."""
        tw = _tower_of(self, p)
        b, c, x, y = self.b, self.c, p.x, p.y
        if not (any(b._num) or any(c._num) or any(x._num) or any(y._num)):
            byd = b._den * y._den
            n = (_n(b) * _n(y) * c._den + _n(c) * byd) * x._den
            if self.a:
                n += _n(x) * byd * c._den
            return _ratio(n, byd * c._den * x._den)
        v = tw._mul_t(self.b._terms, p.y._terms)
        if self.a:                      # normalized: a is 1 or 0
            v = _add_t(p.x._terms, v)
        return _add_t(v, self.c._terms)

    def eval(self, p: Point) -> Constructible:
        return self.tower._make(self._value(p))

    def side(self, p: Point) -> int:
        return self.tower._sign(self._value(p)[0])

    def contains(self, p: Point) -> bool:
        return not self._value(p)[0]

    def direction(self) -> tuple[Constructible, Constructible]:
        return self.b, -self.a

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self):
        return hash(("L", self.a, self.b, self.c))

    def __repr__(self):
        return f"Line({self.a!r}, {self.b!r}, {self.c!r})"


class Circle:
    __slots__ = ("center", "r2")
    kind = "circle"

    def __init__(self, center: Point, r2: Constructible):
        if r2.tower is not center.tower:
            raise SessionMismatchError("circle data from different towers")
        if r2.sign() <= 0:
            raise DegenerateInputError("circle needs a positive squared radius")
        self.center = center
        self.r2 = r2

    @classmethod
    def centered(cls, o: Point, p: Point) -> "Circle":
        """Circle with center o through p."""
        return cls(o, dist2(o, p))

    @property
    def tower(self) -> Tower:
        return self.r2.tower

    @property
    def height(self) -> int:
        return max(self.center.height, self.r2.height)

    def _value(self, p: Point) -> Terms:
        """|p - center|^2 - r2, as a term pair."""
        tw = _tower_of(self, p)
        o = self.center
        return _sub_t(_norm2(tw, _sub_t(p.x._terms, o.x._terms),
                             _sub_t(p.y._terms, o.y._terms)),
                      self.r2._terms)

    def eval(self, p: Point) -> Constructible:
        return self.tower._make(self._value(p))

    def side(self, p: Point) -> int:
        return self.tower._sign(self._value(p)[0])

    def contains(self, p: Point) -> bool:
        return not self._value(p)[0]

    def __eq__(self, other):
        if not isinstance(other, Circle):
            return NotImplemented
        return self.center == other.center and self.r2 == other.r2

    def __hash__(self):
        return hash(("C", self.center, self.r2))

    def __repr__(self):
        return f"Circle({self.center!r}, r2={self.r2!r})"


Curve = Line | Circle


def fmt(obj) -> str:
    """Text of an object for traces and transcripts."""
    if isinstance(obj, Point):
        return f"({obj.x!r}, {obj.y!r})"
    return repr(obj)


# -- construction steps ------------------------------------------------------

@dataclass(slots=True)
class Step:
    """One recorded step of a run, a closure, a densify or a game play.

    `made` is what the step produced and `parents` its operands; `round`
    is the closure round, or in a play the move number.  A request is a
    step whose `made` is still empty.  A line, circle or intersect step
    has its `RULES` entry's operands as parents and what the entry's
    builder returns as `made`.  The other layouts, made / parents:
      input, given, choose:  (obj,) / ()
      arbitrary:  (point,) / (region,)
      test:       (value, kind, negated) / argument objects
      abort:      () / (), the reason in the label
      stop:       () / (), a play's last move when Alice gives up

    A closure records one step per admitted object, a densify one point
    per intersect step.  `text` is built when it is read: the label,
    followed for input and arbitrary steps by the text of their object.
    That text costs an `approx` call, which runs that never read it skip.
    """

    rule: str
    made: tuple = ()
    parents: tuple = ()
    round: int = 0
    label: str = ""

    @property
    def text(self) -> str:
        if self.rule in ("input", "arbitrary"):
            return self.label + fmt(self.made[0])
        return self.label

    def build(self) -> tuple:
        """What a line, circle or intersect step makes from its parents,
        by its rule's builder.  A degenerate step raises the builder's
        DegenerateInputError."""
        rule = RULES.get(self.rule)
        if rule is None:
            raise ValueError(f"a {self.rule} step builds nothing")
        return rule.build(*self.parents)


class Rule(NamedTuple):
    """A construction rule, as the game's referee carries it out."""

    arity: int          # the number of operands
    operands: tuple     # the classes every operand must be one of
    role: str           # an operand's name in a referee message
    text: str           # the move text, formatted over each operand's `fmt`
    build: Callable     # the tuple of objects a step makes from its operands


# A builder looks `intersect` up when it runs, so a wrapper bound over
# the module's `intersect` (a profiler's) sees every step's meets.
RULES = {
    "line": Rule(2, (Point,), "line endpoint", "line {} {}",
                 lambda p, q: (Line.through(p, q),)),
    "circle": Rule(3, (Point,), "circle reference",
                   "circle center {} radius |{} {}|",
                   lambda center, a, b: (Circle(center, dist2(a, b)),)),
    "intersect": Rule(2, (Line, Circle), "intersection operand",
                      "intersect {} with {}",
                      lambda g, h: tuple(intersect(g, h))),
}


class Predicate(NamedTuple):
    """An exact test a strategy may ask about the position."""

    operands: tuple     # the classes each operand may be, in order
    decide: Callable    # the unnegated answer on the operand objects
    projective: bool    # whether projective maps keep the answer on
                        # points and lines


def _meets(g: Curve, h: Curve) -> bool:
    """Whether two curves share a point; a curve shares its own."""
    try:
        return intersects(g, h)
    except IdenticalCurvesError:
        return True


# A decider looks its `geom` predicate up when it runs, so a wrapper
# bound over the module's name (a profiler's) sees every call.
_P, _C = (Point,), (Line, Circle)
TESTS = {
    "equal": Predicate(((Point, *_C),) * 2, lambda u, v: u == v, True),
    "on": Predicate((_P, _C), lambda p, c: c.contains(p), True),
    "intersects": Predicate((_C, _C), _meets, False),
    "between": Predicate((_P,) * 3, lambda *a: between(*a), False),
    "dist_le": Predicate((_P,) * 4, lambda *a: dist_compare(*a) <= 0, False),
    "dist_eq": Predicate((_P,) * 4, lambda *a: dist_compare(*a) == 0, False),
    "ccw": Predicate((_P,) * 3, lambda *a: orientation(*a) > 0, False),
}


class Position:
    """What a strategy knows: the objects built so far, the points and
    the curves each in arrival order.

    `index` maps each object to its arrival index among the points or
    among the curves.  Towers keep every element canonical, so equal
    objects hash alike and one dict probe finds or admits an object.
    """

    def __init__(self, objects=()):
        self.points: list[Point] = []
        self.curves: list[Curve] = []
        self.index: dict = {}
        for obj in objects:
            self.add(obj)

    @property
    def tower(self) -> Tower | None:
        """The session of the position's objects; None while it is empty."""
        for objs in (self.points, self.curves):
            if objs:
                return objs[0].tower
        return None

    def admit(self, obj) -> tuple[int, bool]:
        """obj's arrival index, admitting it if new; and whether it was."""
        k = self.index.get(obj)
        if k is not None:
            return k, False
        objs = self.points if isinstance(obj, Point) else self.curves
        self.index[obj] = k = len(objs)
        objs.append(obj)
        return k, True

    def add(self, obj) -> bool:
        """Admit obj; True when the position grew."""
        return self.admit(obj)[1]

    def contains(self, obj) -> bool:
        return obj in self.index

    @property
    def size(self) -> int:
        return len(self.points) + len(self.curves)


# -- scalar helpers ----------------------------------------------------------

def _n(x: Constructible) -> int:
    """The numerator of a rational element."""
    return x._num.get(0, 0)


def _ratio(n: int, d: int) -> Terms:
    """n/d for integers n and d != 0, as `_norm` gives it: in lowest
    terms, with a positive denominator."""
    if not n:
        return {}, 1
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return {0: n // g}, d // g


def _normal_q(tw: Tower, a: int, b: int, c: int) -> tuple:
    """The coefficients `Line` keeps for a*x + b*y + c = 0, from
    integers a, b, c: the rational lane of its normalization."""
    if a:
        return tw.one, tw._make(_ratio(b, a)), tw._make(_ratio(c, a))
    if b:
        return tw.zero, tw.one, tw._make(_ratio(c, b))
    raise DegenerateInputError("line with zero normal vector")


def _tower_of(u, v) -> Tower:
    """The tower of two points, or of a curve and a point."""
    tw = u.tower
    if v.tower is not tw:
        raise SessionMismatchError("operands from different towers")
    return tw


def dist2(p: Point, q: Point) -> Constructible:
    tw = _tower_of(p, q)
    return tw._make(_norm2(tw, _sub_t(p.x._terms, q.x._terms),
                           _sub_t(p.y._terms, q.y._terms)))


def _norm2(tw: Tower, x: Terms, y: Terms) -> Terms:
    """x*x + y*y on term pairs."""
    return _add_t(tw._mul_t(x, x), tw._mul_t(y, y))


def dist_compare(p: Point, q: Point, r: Point, s: Point) -> int:
    """Sign of |pq| - |rs|, decided on squared distances."""
    return (dist2(p, q) - dist2(r, s)).sign()


def cross(p: Point, q: Point, r: Point) -> Constructible:
    """(q - p) x (r - p): twice the signed area of the triangle p, q, r."""
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def orientation(p: Point, q: Point, r: Point) -> int:
    """+1 if p->q->r turns left, -1 right, 0 collinear."""
    return cross(p, q, r).sign()


def between(p: Point, q: Point, r: Point) -> bool:
    """q strictly inside the segment p..r."""
    if orientation(p, q, r) != 0 or q == p or q == r:
        return False
    return ((p.x - q.x) * (r.x - q.x) + (p.y - q.y) * (r.y - q.y)).sign() < 0


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


# -- intersections -----------------------------------------------------------

def intersect(u: Curve, v: Curve) -> list[Point]:
    """All intersection points, sorted by (x, y).

    Identical curves raise IdenticalCurvesError; disjoint curves give [].
    May extend the tower when the points need a fresh square root.
    """
    l, c = _pair(u, v, "intersect")
    if isinstance(c, Line):
        return _line_line(l, c)
    return [] if l is None else _line_circle(l, c)


def intersects(u: Curve, v: Curve) -> bool:
    """Whether the curves share at least one point; never takes roots."""
    l, c = _pair(u, v, "intersects")
    if isinstance(c, Line):
        return bool(_det(l, c)[0])
    return l is not None and l.tower._sign(_quadratic(l, c)[-1][0]) >= 0


def _pair(u: Curve, v: Curve, what: str) -> tuple[Line | None, Curve]:
    """Check two operands and reduce them to (line, curve), line first.

    Two circles reduce to (radical line, u), or (None, u) when they are
    concentric and so share no point.
    """
    if isinstance(u, Point) or isinstance(v, Point):
        raise TypeError(f"{what} expects lines or circles, not points")
    if u.tower is not v.tower:
        raise SessionMismatchError("curves from different towers")
    if isinstance(u, Line):
        if isinstance(v, Line) and u == v:
            raise IdenticalCurvesError("identical lines")
        return u, v
    if isinstance(v, Line):
        return v, u
    if u == v:
        raise IdenticalCurvesError("identical circles")
    return _radical_line(u, v), u


def _det(u: Line, v: Line) -> Terms:
    mul = u.tower._mul_t
    return _sub_t(mul(u.a._terms, v.b._terms), mul(v.a._terms, u.b._terms))


def _line_line(u: Line, v: Line) -> list[Point]:
    tw = u.tower
    ub, uc, vb, vc = u.b, u.c, v.b, v.c
    if not (any(ub._num) or any(uc._num) or any(vb._num) or any(vc._num)):
        # the meet of (u1 : u2 : u3) and (v1 : v2 : v3); a is 0 or 1
        u1 = ub._den * uc._den if u.a else 0
        u2, u3 = _n(ub) * uc._den, _n(uc) * ub._den
        v1 = vb._den * vc._den if v.a else 0
        v2, v3 = _n(vb) * vc._den, _n(vc) * vb._den
        w = u1 * v2 - u2 * v1
        if not w:
            return []
        return [Point(tw._make(_ratio(u2 * v3 - u3 * v2, w)),
                      tw._make(_ratio(u3 * v1 - u1 * v3, w)))]
    det = _det(u, v)
    if not det[0]:
        return []
    mul = tw._mul_t
    inv = tw._inv_t(det)
    ua, ub, uc = u.a._terms, u.b._terms, u.c._terms
    va, vb, vc = v.a._terms, v.b._terms, v.c._terms
    x = mul(_sub_t(mul(ub, vc), mul(vb, uc)), inv)
    y = mul(_sub_t(mul(va, uc), mul(ua, vc)), inv)
    return [Point(tw._make(x), tw._make(y))]


_ZERO: Terms = ({}, 1)
_ONE: Terms = ({0: 1}, 1)


def _quadratic(l: Line, c: Circle) -> tuple:
    """l as p0 + t*(dx, dy) from its normalized form, and the quadratic
    qa*t^2 + 2*hb*t + qc whose roots are the meets with c, as term pairs.

    Returns (x0, y0, dx, dy, qa, hb, disc), where disc is the
    discriminant (2*hb)^2 - 4*qa*qc.
    """
    mul = l.tower._mul_t
    if l.a:
        x0, y0, dx, dy = _neg_t(l.c._terms), _ZERO, _neg_t(l.b._terms), _ONE
    else:
        x0, y0, dx, dy = _ZERO, _neg_t(l.c._terms), _ONE, _ZERO
    ex = _sub_t(x0, c.center.x._terms)
    ey = _sub_t(y0, c.center.y._terms)
    qa = _add_t(mul(dx, dx), mul(dy, dy))
    hb = _add_t(mul(dx, ex), mul(dy, ey))
    qc = _sub_t(_add_t(mul(ex, ex), mul(ey, ey)), c.r2._terms)
    disc = _scale(_sub_t(mul(hb, hb), mul(qa, qc)), 4)
    return x0, y0, dx, dy, qa, hb, disc


def _line_circle(l: Line, c: Circle) -> list[Point]:
    x0, y0, dx, dy, qa, hb, disc = _quadratic(l, c)
    tw = l.tower
    s = tw._sign(disc[0])
    if s < 0:
        return []
    mul = tw._mul_t
    inv = tw._inv_t(qa)
    mid = _neg_t(mul(hb, inv))          # the roots are mid -+ w
    if s == 0:
        ts = [mid]
    else:
        w = mul(tw._make(disc).sqrt()._terms, _half(inv))
        ts = [_sub_t(mid, w), _add_t(mid, w)]
    out = [Point(tw._make(_add_t(x0, mul(t, dx))),
                 tw._make(_add_t(y0, mul(t, dy)))) for t in ts]
    # w > 0 since qa > 0, so t grows along `ts`; dy >= 0, and dy = 1
    # where dx = 0, so the points come sorted by (x, y) unless dx < 0
    if tw._sign(dx[0]) < 0:
        out.reverse()
    return out


def second_meet(u: Curve, v: Curve, p: Point) -> Point:
    """The other meet of a circle and a line or circle through their
    common point p; p itself where they touch.  Takes no root.

    The pair is symmetric about the line through the circle's center
    perpendicular to the line, or about the line of the two centers, so
    the other meet is p's mirror image in that axis.  p must lie on
    both curves: the result is unspecified otherwise.
    """
    if not isinstance(u, Circle):
        u, v = v, u
    if not isinstance(u, Circle) or not isinstance(v, (Line, Circle)):
        raise TypeError("second_meet expects a circle and a line or circle")
    tw = _tower_of(u, p)
    if v.tower is not tw:
        raise SessionMismatchError("curves from different towers")
    if u == v:
        raise IdenticalCurvesError("identical circles")
    o = u.center
    ox, oy = o.x._terms, o.y._terms
    # (nx, ny): the axis's normal, which is the line's direction or
    # perpendicular to the line of centers
    if isinstance(v, Line):
        nx, ny = v.b._terms, _neg_t(v.a._terms)
    else:
        nx, ny = _sub_t(oy, v.center.y._terms), _sub_t(v.center.x._terms, ox)
    mul = tw._mul_t
    px, py = p.x._terms, p.y._terms
    k = _add_t(mul(nx, _sub_t(px, ox)), mul(ny, _sub_t(py, oy)))
    if not k[0]:
        return p
    f = _scale(mul(k, tw._inv_t(_norm2(tw, nx, ny))), 2)
    return Point(tw._make(_sub_t(px, mul(f, nx))),
                 tw._make(_sub_t(py, mul(f, ny))))


def _radical_line(u: Circle, v: Circle) -> Line | None:
    """The line through the meets of two circles: their equations'
    difference, halved, which `Line` normalizes to the same line."""
    tw = u.tower
    ux, uy = u.center.x._terms, u.center.y._terms
    vx, vy = v.center.x._terms, v.center.y._terms
    a = _sub_t(vx, ux)
    b = _sub_t(vy, uy)
    if not a[0] and not b[0]:
        return None
    c = _half(_sub_t(_sub_t(_norm2(tw, ux, uy), u.r2._terms),
                     _sub_t(_norm2(tw, vx, vy), v.r2._terms)))
    return Line(tw._make(a), tw._make(b), tw._make(c))


# -- rational projective maps ------------------------------------------------

def _mat_mul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
        for i in range(3))


def _mat_det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _mat_inv(m):
    d = _mat_det(m)
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [[m[r][c] for c in range(3) if c != j]
                   for r in range(3) if r != i]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            cof[j][i] = (-1) ** (i + j) * minor / d
    return tuple(tuple(row) for row in cof)


class ProjectiveMap:
    """An invertible 3x3 rational matrix acting on the projective plane."""

    __slots__ = ("m", "_inv")

    def __init__(self, rows):
        m = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("expected a 3x3 matrix")
        if _mat_det(m) == 0:
            raise DegenerateInputError("projective map must be invertible")
        self.m = m
        self._inv = None

    def inverse(self) -> "ProjectiveMap":
        if self._inv is None:
            self._inv = ProjectiveMap(_mat_inv(self.m))
        return self._inv

    def apply_point(self, p: Point) -> Point:
        m = self.m
        x = m[0][0] * p.x + m[0][1] * p.y + m[0][2]
        y = m[1][0] * p.x + m[1][1] * p.y + m[1][2]
        z = m[2][0] * p.x + m[2][1] * p.y + m[2][2]
        if not z:
            raise RangeError("point maps to the line at infinity")
        return Point(x / z, y / z)

    def apply_line(self, l: Line) -> Line:
        inv = self.inverse().m
        coeffs = (l.a, l.b, l.c)
        a = sum((coeffs[k] * inv[k][0] for k in range(3)), l.tower.zero)
        b = sum((coeffs[k] * inv[k][1] for k in range(3)), l.tower.zero)
        c = sum((coeffs[k] * inv[k][2] for k in range(3)), l.tower.zero)
        return Line(a, b, c)

    def preserves_circle(self, c: Circle) -> bool:
        """Whether the image of c is c itself (as a point set)."""
        tw = c.tower
        cx, cy, r2 = c.center.x, c.center.y, c.r2
        one = tw.one
        q = ((one, tw.zero, -cx),
             (tw.zero, one, -cy),
             (-cx, -cy, cx * cx + cy * cy - r2))
        inv = self.inverse().m
        inv_t = tuple(tuple(inv[j][i] for j in range(3)) for i in range(3))
        qp = _mat_mul(_mat_mul(inv_t, q), inv)
        lam = qp[0][0]
        if not lam:
            return False
        for i in range(3):
            for j in range(3):
                if qp[i][j] != lam * q[i][j]:
                    return False
        return True
