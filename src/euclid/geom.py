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
for the discriminant they take the root of.
`Step` records one construction step in the traces of runs, closures
and densification alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def __init__(self, a: Constructible, b: Constructible, c: Constructible):
        tw = a.tower
        if b.tower is not tw or c.tower is not tw:
            raise SessionMismatchError("line coefficients from different towers")
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

    def eval(self, p: Point) -> Constructible:
        return self.a * p.x + self.b * p.y + self.c

    def side(self, p: Point) -> int:
        return self.eval(p).sign()

    def contains(self, p: Point) -> bool:
        return not self.eval(p)

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

    def eval(self, p: Point) -> Constructible:
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        return dx * dx + dy * dy - self.r2

    def side(self, p: Point) -> int:
        return self.eval(p).sign()

    def contains(self, p: Point) -> bool:
        return not self.eval(p)

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
    """One recorded construction step of a run, a closure or a densify.

    `made` is what the step produced and `parents` its operands; `round`
    is the closure round.  Layouts by rule, made / parents:
      input, given, arbitrary, choose:  (obj,) / ()
      line:       (line,) / (p, q)
      circle:     (circle,) / (center, a, b)
      intersect:  (*points) / (g, h)
      test:       (value, kind, negated) / argument objects
      abort:      () / (), the reason in the label

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


# -- scalar helpers ----------------------------------------------------------

def _tower_of(p: Point, q: Point) -> Tower:
    tw = p.tower
    if q.tower is not tw:
        raise SessionMismatchError("points from different towers")
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


def orientation(p: Point, q: Point, r: Point) -> int:
    """+1 if p->q->r turns left, -1 right, 0 collinear."""
    return ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)).sign()


def between(p: Point, q: Point, r: Point) -> bool:
    """q strictly inside the segment p..r."""
    if orientation(p, q, r) != 0 or q == p or q == r:
        return False
    return ((p.x - q.x) * (r.x - q.x) + (p.y - q.y) * (r.y - q.y)).sign() < 0


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def sign_vector(p: Point, curves) -> tuple[int, ...]:
    return tuple(c.side(p) for c in curves)


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
    det = _det(u, v)
    if not det[0]:
        return []
    tw = u.tower
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

    @classmethod
    def identity(cls) -> "ProjectiveMap":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def inverse(self) -> "ProjectiveMap":
        if self._inv is None:
            self._inv = ProjectiveMap(_mat_inv(self.m))
        return self._inv

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """The map applying `other` first, then self."""
        return ProjectiveMap(_mat_mul(self.m, other.m))

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

    def __eq__(self, other):
        if not isinstance(other, ProjectiveMap):
            return NotImplemented
        return self.m == other.m

    def __repr__(self):
        return f"ProjectiveMap({self.m!r})"
