"""Exact plane geometry over a tower session.

Points carry exact coordinates; lines are a*x + b*y + c = 0 with the
first nonzero of (a, b) normalized to 1; circles store center and
squared radius.  `intersect` returns the (0, 1 or 2) intersection
points sorted by (x, y); `intersects` answers the same question as a
predicate without taking any square roots, so it never grows the tower.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateInputError,
    IdenticalCurvesError,
    RangeError,
    SessionMismatchError,
)
from .field import Constructible, Tower


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
        if a:
            inv = 1 / a
            a, b, c = a.tower.one, b * inv, c * inv
        elif b:
            inv = 1 / b
            a, b, c = a.tower.zero, a.tower.one, c * inv
        else:
            raise DegenerateInputError("line with zero normal vector")
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        if p == q:
            raise DegenerateInputError("line through two identical points")
        a = q.y - p.y
        b = p.x - q.x
        c = -(a * p.x + b * p.y)
        return cls(a, b, c)

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


# -- scalar helpers ----------------------------------------------------------

def dist2(p: Point, q: Point) -> Constructible:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


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


def _sort_points(pts: list[Point]) -> list[Point]:
    pts = list(pts)
    pts.sort(key=lambda p: (p.x, p.y))
    return pts


# -- intersections -----------------------------------------------------------

def intersect(u: Curve, v: Curve) -> list[Point]:
    """All intersection points, sorted by (x, y).

    Identical curves raise IdenticalCurvesError; disjoint curves give [].
    May extend the tower when the points need a fresh square root.
    """
    if isinstance(u, Point) or isinstance(v, Point):
        raise TypeError("intersect expects lines or circles, not points")
    if u.tower is not v.tower:
        raise SessionMismatchError("curves from different towers")
    if isinstance(u, Line) and isinstance(v, Line):
        return _line_line(u, v)
    if isinstance(u, Line):
        return _line_circle(u, v)
    if isinstance(v, Line):
        return _line_circle(v, u)
    return _circle_circle(u, v)


def intersects(u: Curve, v: Curve) -> bool:
    """Whether the curves share at least one point; never takes roots."""
    if isinstance(u, Point) or isinstance(v, Point):
        raise TypeError("intersects expects lines or circles, not points")
    if u.tower is not v.tower:
        raise SessionMismatchError("curves from different towers")
    if isinstance(u, Line) and isinstance(v, Line):
        if u == v:
            raise IdenticalCurvesError("identical lines")
        return bool(u.a * v.b - v.a * u.b)
    if isinstance(u, Line):
        return _quadratic_disc(u, v).sign() >= 0
    if isinstance(v, Line):
        return _quadratic_disc(v, u).sign() >= 0
    if u == v:
        raise IdenticalCurvesError("identical circles")
    rad = _radical_line(u, v)
    if rad is None:
        return False
    return _quadratic_disc(rad, u).sign() >= 0


def _line_line(u: Line, v: Line) -> list[Point]:
    if u == v:
        raise IdenticalCurvesError("identical lines")
    det = u.a * v.b - v.a * u.b
    if not det:
        return []
    x = (u.b * v.c - v.b * u.c) / det
    y = (v.a * u.c - u.a * v.c) / det
    return [Point(x, y)]


def _param(l: Line) -> tuple[Point, Constructible, Constructible]:
    """A point on l and a direction vector, from the normalized form."""
    tw = l.tower
    if l.a:
        return Point(-l.c, tw.zero), -l.b, tw.one
    return Point(tw.zero, -l.c), tw.one, tw.zero


def _quadratic_disc(l: Line, c: Circle) -> Constructible:
    p0, dx, dy = _param(l)
    ex = p0.x - c.center.x
    ey = p0.y - c.center.y
    qa = dx * dx + dy * dy
    qb = 2 * (dx * ex + dy * ey)
    qc = ex * ex + ey * ey - c.r2
    return qb * qb - 4 * qa * qc


def _line_circle(l: Line, c: Circle) -> list[Point]:
    p0, dx, dy = _param(l)
    ex = p0.x - c.center.x
    ey = p0.y - c.center.y
    qa = dx * dx + dy * dy
    qb = 2 * (dx * ex + dy * ey)
    qc = ex * ex + ey * ey - c.r2
    disc = qb * qb - 4 * qa * qc
    s = disc.sign()
    if s < 0:
        return []
    if s == 0:
        t = -qb / (2 * qa)
        return [Point(p0.x + t * dx, p0.y + t * dy)]
    root = disc.sqrt()
    out = []
    for t in ((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)):
        out.append(Point(p0.x + t * dx, p0.y + t * dy))
    return _sort_points(out)


def _radical_line(u: Circle, v: Circle) -> Line | None:
    a = 2 * (v.center.x - u.center.x)
    b = 2 * (v.center.y - u.center.y)
    if not a and not b:
        return None
    c = (u.center.x * u.center.x + u.center.y * u.center.y - u.r2
         - v.center.x * v.center.x - v.center.y * v.center.y + v.r2)
    return Line(a, b, c)


def _circle_circle(u: Circle, v: Circle) -> list[Point]:
    if u == v:
        raise IdenticalCurvesError("identical circles")
    rad = _radical_line(u, v)
    if rad is None:
        return []
    return _line_circle(rad, u)


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


def apply_projective(t: ProjectiveMap, obj):
    """Image of a point or a line under a projective map."""
    if isinstance(obj, Point):
        return t.apply_point(obj)
    if isinstance(obj, Line):
        return t.apply_line(obj)
    raise TypeError(f"cannot transport {type(obj).__name__} objects")


def preserves_circle(t: ProjectiveMap, c: Circle) -> bool:
    """Whether the map sends the circle onto itself as a point set."""
    return t.preserves_circle(c)
