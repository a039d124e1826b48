from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from euclid import field, geom
from euclid.errors import (
    DegenerateInputError,
    IdenticalCurvesError,
    RangeError,
    ResourceLimitError,
    SessionMismatchError,
)
from euclid.field import MAX_COEFF_BITS, Tower
from euclid.geom import (
    _det,
    _line_line,
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
    second_meet,
)
from engine_checks import (ref_det, ref_line, ref_line_line, ref_through,
                           ref_value)


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


def _at(tw, spot):
    x, y, h = spot
    return Point(tw.from_rational(x) + _nested(tw, h), tw.from_rational(y))


def _build(tw, spec):
    """A line through, or a circle centered at the first through the
    second, of two half-integer points, each with x shifted by s_h."""
    kind, *spots = spec
    p, q = (_at(tw, spot) for spot in spots)
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


# second_meet against intersect, on pairs drawn through a shared point p:
# a circle centered at o through p, and a line through p and w, a circle
# centered at w through p, or a line or circle tangent to it at p.

_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_xy = st.tuples(_q, _q, _q, _q)         # (a, b, c, d): (a + b*s, c + d*s)


def _surd_point(tw, xy, s):
    a, b, c, d = xy
    return Point(a + b * s, c + d * s)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.sampled_from(("line", "circle", "tangent line", "tangent circle")),
       st.booleans(), _xy, _xy, _xy, _q.filter(lambda t: t not in (0, 1)))
def test_second_meet_agrees_with_intersect(kind, root2, p_xy, o_xy, w_xy, t):
    # data in Q, or in Q(sqrt 2) when root2 is set
    tw = Tower()
    s = tw.from_rational(2).sqrt() if root2 else tw.zero
    p, o, w = (_surd_point(tw, xy, s) for xy in (p_xy, o_xy, w_xy))
    assume(o != p and w != p)
    u = Circle.centered(o, p)
    if kind == "line":
        v = Line.through(p, w)
    elif kind == "circle":
        assume(w != o)
        v = Circle.centered(w, p)
    elif kind == "tangent line":
        v = Line.through(p, Point(p.x + o.y - p.y, p.y + p.x - o.x))
    else:
        v = Circle.centered(Point(o.x + t * (p.x - o.x),
                                  o.y + t * (p.y - o.y)), p)
    h0 = tw.height
    q = second_meet(u, v, p)
    assert second_meet(v, u, p) == q
    assert tw.height == h0
    assert u.contains(q) and v.contains(q)
    assert set(intersect(u, v)) == {p, q}
    if kind.startswith("tangent"):
        assert q is p


def test_second_meet_needs_a_circle_of_the_same_tower(tw):
    p, q = point(tw, 0, 0), point(tw, 1, 0)
    c = Circle.centered(q, p)
    l = Line.through(p, q)
    assert second_meet(l, c, p) == point(tw, 2, 0)
    with pytest.raises(TypeError):
        second_meet(l, Line.through(p, point(tw, 0, 1)), p)
    with pytest.raises(IdenticalCurvesError):
        second_meet(c, Circle.centered(q, p), p)
    other = Tower()
    with pytest.raises(SessionMismatchError):
        second_meet(c, l, point(other, 0, 0))
    with pytest.raises(SessionMismatchError):
        second_meet(c, Line.through(point(other, 0, 0), point(other, 1, 0)),
                    p)


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


# The rational lane of `Line` and `_line_line`, and `_det`, against the
# general term-pair path of `engine_checks`.  Each coordinate is a
# rational, or in Q(sqrt 2) one time in eight, which sends every call it
# takes part in down the general path.

_lane_q = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 7))
_lane_x = st.tuples(_lane_q, st.integers(0, 7), _lane_q)
_lane_pt = st.tuples(_lane_x, _lane_x)
# how the second point of u sits, how v sits against u, and which of
# the coefficients handed to `Line` are zero
_u_kinds = ("free", "horizontal", "vertical", "origin", "same")
_v_kinds = ("free", "parallel", "identical")
_abc_kinds = ("free", "a=0", "c=0", "a=b=0")
F = Fraction


def _lane_elt(tw, s, x):
    """q + r*sqrt(2) for x = (q, 0, r); the rational q otherwise."""
    q, k, r = x
    return tw.from_rational(q) + (r * s if k == 0 else 0)


def _lane_key(line):
    return (line.a._terms, line.b._terms, line.c._terms), hash(line)


def _lane_outcome(f, *args):
    """What f gives, its key for a line and its points' term pairs for
    a meet, or the type of the engine error it raises."""
    try:
        out = f(*args)
    except (DegenerateInputError, IdenticalCurvesError) as e:
        return type(e)
    if isinstance(out, Line):
        return _lane_key(out)
    return [(_terms(p), hash(p)) for p in out]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.tuples(_lane_pt, _lane_pt, _lane_pt, _lane_pt),
       st.sampled_from(_u_kinds), st.sampled_from(_v_kinds),
       st.sampled_from(_abc_kinds), _lane_q.filter(lambda t: t not in (0, 1)))
@example((((F(-1, 3), 1, 0), (2, 1, 0)), ((5, 1, 0), (F(7, 2), 1, 0)),
          ((0, 1, 0), (-4, 1, 0)), ((F(2, 5), 1, 0), (F(-3, 4), 1, 0))),
         "horizontal", "free", "a=0", F(-2, 3))        # a = 0, unequal dens
@example((((F(3, 2), 1, 0), (F(-5, 7), 1, 0)), ((1, 1, 0), (1, 1, 0)),
          ((1, 1, 0), (0, 1, 0)), ((0, 1, 0), (1, 1, 0))),
         "origin", "parallel", "c=0", F(5, 3))         # c = 0, parallel
@example((((F(1, 2), 1, 0), (F(1, 3), 1, 0)), ((-2, 1, 0), (3, 1, 0)),
          ((1, 1, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 0))),
         "vertical", "identical", "a=b=0", F(-1, 2))   # b = 0, identical
@example((((1, 0, 1), (0, 1, 0)), ((2, 1, 0), (1, 1, 0)),
          ((0, 1, 0), (3, 0, F(-1, 2))), ((1, 1, 0), (2, 1, 0))),
         "free", "free", "free", F(2))                 # mixed operands
def test_rational_lane_matches_term_pair_reference(pts, u_kind, v_kind,
                                                    abc_kind, t):
    tw = Tower()
    s = tw.from_rational(2).sqrt()
    p, q, r, w = (Point(_lane_elt(tw, s, x), _lane_elt(tw, s, y))
                  for x, y in pts)
    if u_kind == "horizontal":
        q = Point(q.x, p.y)
    elif u_kind == "vertical":
        q = Point(p.x, q.y)
    elif u_kind == "origin":
        q = Point(t * p.x, t * p.y)
    elif u_kind == "same":
        q = p
    if v_kind == "parallel":
        r, w = Point(p.x + r.x, p.y + r.y), Point(q.x + r.x, q.y + r.y)
    elif v_kind == "identical":
        r = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        w = Point(p.x + (t + 1) * (q.x - p.x), p.y + (t + 1) * (q.y - p.y))
    a, b, c = p.x, q.y, r.x
    if abc_kind != "free":
        a = tw.zero
        b = tw.zero if abc_kind == "a=b=0" else b
        c = tw.zero if abc_kind == "c=0" else c
    assert _lane_outcome(Line, a, b, c) == _lane_outcome(ref_line, a, b, c)
    lines = []
    for g, h in ((p, q), (r, w)):
        got = _lane_outcome(Line.through, g, h)
        assert got == _lane_outcome(ref_through, g, h)
        if got is not DegenerateInputError:
            lines.append(Line.through(g, h))
    for line in lines:
        for x in (p, q, r, w):
            assert line._value(x) == ref_value(line, x)
    if len(lines) < 2:
        return
    u, v = lines
    for g, h in ((u, v), (v, u)):
        assert _det(g, h) == ref_det(g, h)
        meet = _lane_outcome(_line_line, g, h)
        assert meet == _lane_outcome(ref_line_line, g, h)
        if u == v:
            assert meet == []
            assert _lane_outcome(intersect, g, h) is IdenticalCurvesError
        else:
            assert _lane_outcome(intersect, g, h) == meet
        for x in _line_line(g, h):
            assert g._value(x) == ref_value(g, x) == ({}, 1)


def test_rational_lane_keeps_the_coefficient_guard(tw):
    # both raise in `Tower._make`: 1 - x*(x + 1) over x, and a meet at
    # y = -x*(x + 1), each numerator past the guard's bits
    guard = rf"^coefficient size guard exceeded \({MAX_COEFF_BITS} bits\)$"
    x = 2 ** 35000
    with pytest.raises(ResourceLimitError, match=guard):
        Line.through(point(tw, x, 1), point(tw, 1, x + 1))
    u = Line(tw.one, tw.from_rational(Fraction(1, x)), tw.one)
    v = Line(tw.one, tw.from_rational(Fraction(1, x + 1)), tw.zero)
    with pytest.raises(ResourceLimitError, match=guard):
        intersect(u, v)
    with pytest.raises(ResourceLimitError, match=guard):
        ref_line_line(u, v)
    # the guard bounds what the lane keeps: the general path also made
    # the unnormalized coefficients, here past the guard, of y = x
    m = Fraction(1, 2 ** 40000)
    g, h = point(tw, m, m), point(tw, m / (1 + m), m / (1 + m))
    with pytest.raises(ResourceLimitError, match=guard):
        ref_through(g, h)
    assert Line.through(g, h) == Line(tw.one, -tw.one, tw.zero)


def test_rational_lines_join_and_meet_without_term_kernels(tw, monkeypatch):
    r2 = tw.from_rational(2).sqrt()
    calls = []
    mul, add = Tower._mul_t, field._add_t
    monkeypatch.setattr(
        Tower, "_mul_t",
        lambda self, u, v: calls.append("_mul_t") or mul(self, u, v))
    monkeypatch.setattr(
        field, "_add_t",
        lambda u, v, s=1: calls.append("_add_t") or add(u, v, s))
    monkeypatch.setattr(geom, "_add_t", field._add_t)
    g = Line.through(point(tw, Fraction(-1, 3), 2),
                     point(tw, 5, Fraction(7, 2)))
    h = Line.through(point(tw, 0, 0), point(tw, 1, Fraction(-2, 5)))
    (x,) = intersect(g, h)
    assert g.contains(x) and h.contains(x)
    assert calls == []
    # `intersects` of two lines reads `_det`, which has no rational lane
    assert intersects(g, h)
    # an irrational operand takes the general path, which the patch sees
    Line.through(point(tw, 0, 0), Point(tw.one, r2))
    assert "_mul_t" in calls and "_add_t" in calls


def _ref_eval(c, p):
    """The curve's equation at p, written with the field's operators."""
    if isinstance(c, Line):
        return c.a * p.x + c.b * p.y + c.c
    dx = p.x - c.center.x
    dy = p.y - c.center.y
    return dx * dx + dy * dy - c.r2


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_curve, _curve)
def test_predicates_agree_with_eval(u_spec, v_spec):
    tw = Tower()
    u, v = _build(tw, u_spec), _build(tw, v_spec)
    # the defining points, on or off the other curve, and the meets
    pts = [_at(tw, spot) for spot in u_spec[1:] + v_spec[1:]]
    if u != v:
        pts += intersect(u, v)
    for c in (u, v):
        for p in pts:
            value = c.eval(p)
            assert value == _ref_eval(c, p)
            assert c.side(p) == value.sign()
            assert c.contains(p) == (not value)


def test_predicates_make_no_elements(tw, monkeypatch):
    r2 = tw.from_rational(2).sqrt()
    slanted = Line.through(point(tw, 0, 0), Point(r2, tw.one))
    level = Line.through(Point(tw.zero, r2), Point(tw.one, r2))
    c = Circle.centered(Point(r2, tw.zero), point(tw, 1, 3))
    pts = [point(tw, 1, 2), Point(r2, r2), *intersect(slanted, c)]
    made = []
    make = Tower._make
    monkeypatch.setattr(Tower, "_make",
                        lambda self, t: made.append(t) or make(self, t))
    for curve in (slanted, level, c):
        for p in pts:
            curve.side(p)
            curve.contains(p)
    assert made == []
    c.eval(pts[0])
    assert len(made) == 1


def test_predicates_reject_points_of_other_towers():
    t1, t2 = Tower(), Tower()
    o, p = point(t1, 0, 0), point(t1, 1, 0)
    q = point(t2, 0, 0)
    for curve in (Line.through(o, p), Circle.centered(o, p)):
        for predicate in (curve.side, curve.contains, curve.eval):
            with pytest.raises(SessionMismatchError):
                predicate(q)


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
    assert Line.through(a, b).side(c) == 1
    assert Circle.centered(a, b).side(c) == -1


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
    assert t.inverse().apply_point(t.apply_point(p)) == p


def test_degenerate_projective_map():
    with pytest.raises(DegenerateInputError):
        ProjectiveMap(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
