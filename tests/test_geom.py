from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from euclid.errors import (
    DegenerateInputError,
    IdenticalCurvesError,
    RangeError,
    SessionMismatchError,
)
from euclid.field import Tower
from euclid.geom import (
    Circle,
    Line,
    Point,
    ProjectiveMap,
    between,
    dist2,
    dist_compare,
    intersect,
    intersects,
    midpoint,
    orientation,
    point,
    sign_vector,
)


@pytest.fixture
def tw():
    return Tower()


def test_line_normalization(tw):
    l1 = Line.through(point(tw, 0, 0), point(tw, 2, 2))
    l2 = Line.through(point(tw, 5, 5), point(tw, -1, -1))
    assert l1 == l2
    assert hash(l1) == hash(l2)
    horiz = Line.through(point(tw, 0, 3), point(tw, 7, 3))
    assert horiz.a.sign() == 0 and horiz.b == 1 and horiz.c == -3
    with pytest.raises(DegenerateInputError):
        Line.through(point(tw, 1, 1), point(tw, 1, 1))


def test_circle_needs_positive_radius(tw):
    with pytest.raises(DegenerateInputError):
        Circle.centered(point(tw, 0, 0), point(tw, 0, 0))
    c = Circle.centered(point(tw, 0, 0), point(tw, 3, 4))
    assert c.r2 == 25
    assert c.contains(point(tw, 5, 0))
    assert c.side(point(tw, 1, 1)) < 0
    assert c.side(point(tw, 5, 5)) > 0


def test_line_line_intersection(tw):
    l1 = Line.through(point(tw, 0, 0), point(tw, 1, 1))
    l2 = Line.through(point(tw, 0, 2), point(tw, 2, 0))
    pts = intersect(l1, l2)
    assert pts == [point(tw, 1, 1)]
    par = Line.through(point(tw, 0, 1), point(tw, 1, 2))
    assert intersect(l1, par) == []
    assert intersects(l1, l2)
    assert not intersects(l1, par)
    with pytest.raises(IdenticalCurvesError):
        intersect(l1, Line.through(point(tw, 2, 2), point(tw, 3, 3)))


def test_unit_circles_give_hexagon_chord(tw):
    c1 = Circle.centered(point(tw, 0, 0), point(tw, 1, 0))
    c2 = Circle.centered(point(tw, 1, 0), point(tw, 0, 0))
    pts = intersect(c1, c2)
    assert len(pts) == 2
    half = tw.from_rational(Fraction(1, 2))
    assert pts[0].x == half and pts[1].x == half
    assert pts[0].y == -pts[1].y
    assert pts[0].y < 0 < pts[1].y
    assert pts[1].y * pts[1].y == Fraction(3, 4)
    assert dist2(pts[0], pts[1]) == 3
    for p in pts:
        assert c1.contains(p) and c2.contains(p)


def test_line_circle_tangent_and_miss(tw):
    c = Circle.centered(point(tw, 0, 0), point(tw, 2, 0))
    tangent = Line.through(point(tw, 2, -1), point(tw, 2, 5))
    pts = intersect(tangent, c)
    assert pts == [point(tw, 2, 0)]
    assert intersects(tangent, c)
    miss = Line.through(point(tw, 3, 0), point(tw, 3, 1))
    assert intersect(miss, c) == []
    assert not intersects(miss, c)
    secant = Line.through(point(tw, 0, 1), point(tw, 1, 1))
    pts = intersect(secant, c)
    assert len(pts) == 2
    assert pts[0].x < pts[1].x
    assert pts[0].x * pts[0].x == 3


def test_concentric_and_identical_circles(tw):
    c1 = Circle.centered(point(tw, 0, 0), point(tw, 1, 0))
    c2 = Circle.centered(point(tw, 0, 0), point(tw, 2, 0))
    assert intersect(c1, c2) == []
    assert not intersects(c1, c2)
    with pytest.raises(IdenticalCurvesError):
        intersect(c1, Circle.centered(point(tw, 0, 0), point(tw, 0, 1)))
    with pytest.raises(IdenticalCurvesError):
        intersects(c1, Circle.centered(point(tw, 0, 0), point(tw, 0, 1)))


def test_intersects_never_grows_tower(tw):
    c1 = Circle.centered(point(tw, 0, 0), point(tw, 3, 0))
    c2 = Circle.centered(point(tw, 1, 1), point(tw, 2, 0))
    l = Line.through(point(tw, 0, 1), point(tw, 1, 3))
    h0 = tw.height
    intersects(c1, c2)
    intersects(l, c1)
    intersects(l, Line.through(point(tw, 0, 0), point(tw, 1, 3)))
    assert tw.height == h0


_half = st.integers(-6, 6).map(lambda n: Fraction(n, 2))
_spot = st.tuples(_half, _half, st.integers(0, 4))   # x shifted by _nested
_curve = st.tuples(st.sampled_from(("line", "circle")), _spot, _spot) \
    .filter(lambda spec: spec[1] != spec[2])


def _nested(tw, h):
    """s_h with s_0 = 0 and s_h = sqrt(2 + s_(h-1)), an element of height h."""
    s = tw.zero
    for _ in range(h):
        s = (s + 2).sqrt()
    return s


def _build(tw, spec):
    """A line through, or a circle centered at the first through the
    second, of two half-integer points, each with x shifted by s_h."""
    kind, *spots = spec
    p, q = (Point(tw.from_rational(x) + _nested(tw, h), tw.from_rational(y))
            for x, y, h in spots)
    return Line.through(p, q) if kind == "line" else Circle.centered(p, q)


def _spots(*xys):
    return tuple((x, y, 0) for x, y in xys)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_curve, _curve)
@example(("line", *_spots((2, -1), (2, 5))),              # tangent line
         ("circle", *_spots((0, 0), (2, 0))))
@example(("circle", *_spots((0, 0), (2, 0))),             # internally tangent
         ("circle", *_spots((1, 0), (2, 0))))
@example(("circle", *_spots((0, 0), (1, 0))),             # concentric
         ("circle", *_spots((0, 0), (2, 0))))
@example(("line", *_spots((0, 0), (1, 1))),               # parallel
         ("line", *_spots((0, 1), (1, 2))))
@example(("circle", *_spots((0, 0), (1, 0))),             # disjoint
         ("circle", *_spots((3, 0), (3, Fraction(1, 2)))))
@example(("line", *_spots((0, 0), (1, 1))),               # identical
         ("line", *_spots((2, 2), (3, 3))))
def test_intersects_agrees_with_intersect(u_spec, v_spec):
    tw = Tower()
    u, v = _build(tw, u_spec), _build(tw, v_spec)
    for g, h in ((u, u), (u, v)):
        if g == h:
            with pytest.raises(IdenticalCurvesError):
                intersects(g, h)
            with pytest.raises(IdenticalCurvesError):
                intersect(g, h)
    if u == v:
        return
    h0 = tw.height
    meets = intersects(u, v)
    assert tw.height == h0
    pts = intersect(u, v)
    assert meets == bool(pts)
    assert len(pts) <= (1 if isinstance(u, Line) and isinstance(v, Line)
                        else 2)
    for p in pts:
        assert u.contains(p) and v.contains(p)
    keys = [(p.x, p.y) for p in pts]
    assert keys == sorted(keys) and len(set(pts)) == len(pts)
    assert intersect(v, u) == pts


# The intersection formulas written with the field's operators: the
# reference for the term-pair kernels in `geom`.

def _ref_line_line(u, v):
    det = u.a * v.b - v.a * u.b
    if not det:
        return []
    x = (u.b * v.c - v.b * u.c) / det
    y = (v.a * u.c - u.a * v.c) / det
    return [Point(x, y)]


def _ref_line_circle(l, c):
    tw = l.tower
    if l.a:
        p0, dx, dy = Point(-l.c, tw.zero), -l.b, tw.one
    else:
        p0, dx, dy = Point(tw.zero, -l.c), tw.one, tw.zero
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
    return sorted(out, key=lambda p: (p.x, p.y))


def _ref_radical_line(u, v):
    a = 2 * (v.center.x - u.center.x)
    b = 2 * (v.center.y - u.center.y)
    if not a and not b:
        return None
    c = (u.center.x * u.center.x + u.center.y * u.center.y - u.r2
         - v.center.x * v.center.x - v.center.y * v.center.y + v.r2)
    n = a if a else b
    return Line(a / n, b / n, c / n)


def _ref_intersect(u, v):
    if isinstance(u, Line):
        return (_ref_line_line(u, v) if isinstance(v, Line)
                else _ref_line_circle(u, v))
    if isinstance(v, Line):
        return _ref_line_circle(v, u)
    l = _ref_radical_line(u, v)
    return [] if l is None else _ref_line_circle(l, u)


def _terms(p):
    return p.x._terms, p.y._terms


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_curve, _curve)
def test_kernels_match_operator_reference(u_spec, v_spec):
    # one tower per side: the reference must adjoin the same radicands
    # in the same order, and give the same elements in the same order
    mine, ref = Tower(), Tower()
    u, v = _build(mine, u_spec), _build(mine, v_spec)
    ru, rv = _build(ref, u_spec), _build(ref, v_spec)
    if u == v:
        return
    for g, h, rg, rh in ((u, v, ru, rv), (v, u, rv, ru)):
        assert [_terms(p) for p in intersect(g, h)] == \
            [_terms(p) for p in _ref_intersect(rg, rh)]
        assert mine._radicands == ref._radicands


def test_intersect_rejects_points(tw):
    l = Line.through(point(tw, 0, 0), point(tw, 1, 0))
    with pytest.raises(TypeError):
        intersect(point(tw, 0, 0), l)
    with pytest.raises(TypeError):
        intersects(l, point(tw, 0, 0))


def test_session_mismatch():
    t1, t2 = Tower(), Tower()
    l1 = Line.through(point(t1, 0, 0), point(t1, 1, 0))
    l2 = Line.through(point(t2, 0, 1), point(t2, 1, 2))
    with pytest.raises(SessionMismatchError):
        intersect(l1, l2)
    with pytest.raises(SessionMismatchError):
        Point(t1.from_rational(0), t2.from_rational(0))
    with pytest.raises(SessionMismatchError):
        Line.through(point(t1, 0, 0), point(t2, 0, 0))
    with pytest.raises(SessionMismatchError):
        dist2(point(t1, 0, 0), point(t2, 1, 0))
    with pytest.raises(SessionMismatchError):
        Line(t1.one, t2.one, t1.zero)


def test_orientation_between_distcompare(tw):
    a, b, c = point(tw, 0, 0), point(tw, 2, 0), point(tw, 1, 1)
    assert orientation(a, b, c) == 1
    assert orientation(b, a, c) == -1
    assert orientation(a, b, point(tw, 7, 0)) == 0
    m = midpoint(a, b)
    assert m == point(tw, 1, 0)
    assert between(a, m, b)
    assert not between(a, b, m)
    assert not between(a, a, b)
    assert not between(a, c, b)
    assert dist_compare(a, b, a, c) > 0
    assert dist_compare(a, c, b, c) == 0
    assert sign_vector(c, [Line.through(a, b), Circle.centered(a, b)]) == (1, -1)


def test_between_with_irrational_coordinates(tw):
    r2 = tw.from_rational(2).sqrt()
    a = point(tw, 0, 0)
    b = Point(r2, r2)
    c = Point(3 * r2, 3 * r2)
    assert between(a, b, c)
    assert not between(b, a, c)


def test_projective_map_point_and_line(tw):
    t = ProjectiveMap(((1, 0, 3), (0, 1, -2), (0, 0, 1)))
    p = t.apply_point(point(tw, 1, 1))
    assert p == point(tw, 4, -1)
    l = Line.through(point(tw, 0, 0), point(tw, 1, 1))
    li = t.apply_line(l)
    assert li.contains(t.apply_point(point(tw, 0, 0)))
    assert li.contains(t.apply_point(point(tw, 5, 5)))
    back = t.inverse().apply_point(p)
    assert back == point(tw, 1, 1)


def test_projective_map_to_infinity(tw):
    t = ProjectiveMap(((1, 0, 0), (0, 1, 0), (1, 0, -1)))
    with pytest.raises(RangeError):
        t.apply_point(point(tw, 1, 0))


def test_projective_map_preserving_unit_circle(tw):
    t = ProjectiveMap(((Fraction(5, 4), 0, Fraction(3, 4)),
                       (0, 1, 0),
                       (Fraction(3, 4), 0, Fraction(5, 4))))
    unit = Circle.centered(point(tw, 0, 0), point(tw, 1, 0))
    assert t.preserves_circle(unit)
    assert t.apply_point(point(tw, 0, 0)) == point(tw, Fraction(3, 5), 0)
    assert t.apply_point(point(tw, 1, 0)) == point(tw, 1, 0)
    assert t.apply_point(point(tw, -1, 0)) == point(tw, -1, 0)
    other = Circle.centered(point(tw, 0, 0), point(tw, 2, 0))
    assert not t.preserves_circle(other)
    shift = ProjectiveMap(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    assert not shift.preserves_circle(unit)
    assert shift.preserves_circle(Circle.centered(point(tw, 1, 0), point(tw, 0, 0))) is False


def test_projective_map_on_irrational_points(tw):
    r3 = tw.from_rational(3).sqrt()
    t = ProjectiveMap(((2, 0, 1), (0, 2, 0), (0, 0, 1)))
    p = Point(r3, 1 + r3)
    q = t.apply_point(p)
    assert q.x == 2 * r3 + 1 and q.y == 2 + 2 * r3
    assert t.compose(t.inverse()).apply_point(p) == p


def test_degenerate_projective_map():
    with pytest.raises(DegenerateInputError):
        ProjectiveMap(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
