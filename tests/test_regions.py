"""`contains_closed_disk` against the two circle formulas it replaced,
and `sample_point` against the scan it replaced.

A closed disk of squared radius rho2 around q fits inside a circle of
squared radius r2 around o when sqrt(d2) + sqrt(rho2) < sqrt(r2), with
d2 = |q - o|^2, and outside it when sqrt(r2) + sqrt(rho2) < sqrt(d2).
`regions._sqrt_sum_below` decides both.  The `_ref_*` functions below
are the earlier separate inside/outside formulas and the earlier
`contains_closed_disk` built on them; every answer must agree exactly.
`sample_point` skips grid draws on integer sign bounds; the bounds must
never contradict the exact sign, and the answers and the rng state must
equal those of `engine_checks.ref_sample_point`, which tests every draw
exactly.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import assume, example, given, settings, strategies as st

from euclid import corpus, regions
from euclid.dsl.interp import SamplingOracle, run
from euclid.field import Tower
from euclid.geom import Circle, Line, Point, dist2, point
from euclid.regions import INSIDE, Cell, Disk, _enclosed, _hint, \
    _sign_bound, _sqrt_sum_below, contains_closed_disk, sample_point
from engine_checks import ref_sample_point


def _ref_closed_disk_inside_circle(d2, r2, rho2) -> bool:
    """dist(q,o) + rho < r, all quantities squared and exact."""
    if (d2 - r2).sign() >= 0:
        return False
    slack = r2 + d2 - rho2
    if slack.sign() <= 0:
        return False
    return (slack * slack - 4 * r2 * d2).sign() > 0


def _ref_closed_disk_outside_circle(d2, r2, rho2) -> bool:
    """dist(q,o) - rho > r, i.e. the disk clears the circle outside."""
    if (d2 - r2).sign() <= 0:
        return False
    slack = d2 - r2 - rho2
    if slack.sign() <= 0:
        return False
    return (slack * slack - 4 * r2 * rho2).sign() > 0


def _ref_contains_closed_disk(region, q: Point, rho2) -> bool:
    if isinstance(region, Disk):
        d2 = dist2(q, region.center)
        return _ref_closed_disk_inside_circle(d2, region.r2, rho2)
    for curve, sign in region.conds:
        if isinstance(curve, Line):
            v = curve.eval(q)
            if (sign * v).sign() <= 0:
                return False
            margin = v * v - rho2 * (curve.a * curve.a + curve.b * curve.b)
            if margin.sign() <= 0:
                return False
        else:
            d2 = dist2(q, curve.center)
            if sign == INSIDE:
                if not _ref_closed_disk_inside_circle(d2, curve.r2, rho2):
                    return False
            else:
                if not _ref_closed_disk_outside_circle(d2, curve.r2, rho2):
                    return False
    return True


# An element p + q*sqrt(2): rational when q = 0, at height 1 otherwise.
Q = st.fractions(min_value=-6, max_value=6, max_denominator=8)
ELEMENT = st.tuples(Q, Q)
POINT = st.tuples(ELEMENT, ELEMENT)
ZERO = (Fraction(0), Fraction(0))
SMALL_Q = st.fractions(min_value=-1, max_value=1, max_denominator=16)
# rho2, or the root of it: zero, small, or as large as the other values
RHO = st.one_of(st.just(ZERO), st.tuples(SMALL_Q, SMALL_Q), ELEMENT)


def _el(tw, pq):
    p, q = pq
    root2 = tw.from_rational(2).sqrt()
    return tw.from_rational(p) + tw.from_rational(q) * root2


def _nonneg(tw, pq):
    x = _el(tw, pq)
    return -x if x.sign() < 0 else x


def _pos(tw, pq):
    x = _nonneg(tw, pq)
    assume(x.sign() > 0)
    return x


def _pt(tw, xy) -> Point:
    return Point(_el(tw, xy[0]), _el(tw, xy[1]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(a=ELEMENT, b=RHO, c=ELEMENT,
       mode=st.sampled_from(("free", "roots", "inside", "outside")))
@example(a=(Fraction(1), Fraction(0)), b=ZERO, c=(Fraction(4), Fraction(0)),
         mode="free")
@example(a=(Fraction(1), Fraction(1)), b=ZERO, c=(Fraction(1), Fraction(1)),
         mode="inside")
@example(a=(Fraction(2), Fraction(-1)), b=(Fraction(1, 2), Fraction(1)),
         c=ZERO, mode="outside")
def test_sqrt_sum_below_agrees_with_both_reference_formulas(a, b, c, mode):
    """d2, r2 > 0 and rho2 >= 0.  "free" draws the three values, which
    are mostly not squares; "roots" draws x, y, z and squares them, so
    that both answers are often true; "inside" and "outside" build exact
    tangency (sqrt(d2) + sqrt(rho2) = sqrt(r2), or the outside
    counterpart) as x^2, y^2 and (x + y)^2."""
    tw = Tower()
    if mode == "free":
        d2, rho2, r2 = _pos(tw, a), _nonneg(tw, b), _pos(tw, c)
    elif mode == "roots":
        x, y, z = _pos(tw, a), _nonneg(tw, b), _pos(tw, c)
        d2, rho2, r2 = x * x, y * y, z * z
    else:
        x, y = _pos(tw, a), _nonneg(tw, b)
        near, rho2, far = x * x, y * y, (x + y) * (x + y)
        d2, r2 = (near, far) if mode == "inside" else (far, near)
    inside = _sqrt_sum_below(d2, rho2, r2)
    outside = _sqrt_sum_below(r2, rho2, d2)
    assert inside == _ref_closed_disk_inside_circle(d2, r2, rho2)
    assert outside == _ref_closed_disk_outside_circle(d2, r2, rho2)
    if mode in ("inside", "outside"):
        assert not inside and not outside


CURVE = st.one_of(st.tuples(st.just("line"), POINT, POINT),
                  st.tuples(st.just("circle"), POINT, ELEMENT))
REGION = st.one_of(
    st.tuples(st.just("disk"), POINT, ELEMENT),
    st.lists(st.tuples(CURVE, st.sampled_from((-1, 1))),
             min_size=1, max_size=3))


def _region(tw, spec):
    if isinstance(spec, tuple):
        _, center, r2 = spec
        return Disk(_pt(tw, center), _pos(tw, r2))
    conds = []
    for (kind, u, v), sign in spec:
        if kind == "line":
            p, q = _pt(tw, u), _pt(tw, v)
            assume(p != q)
            conds.append((Line.through(p, q), sign))
        else:
            conds.append((Circle(_pt(tw, u), _pos(tw, v)), sign))
    return Cell(tuple(conds))


_ONE = (Fraction(1), Fraction(0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(spec=REGION, q=POINT, rho2=RHO)
@example(spec=("disk", (ZERO, ZERO), (Fraction(4), Fraction(0))),
         q=(_ONE, ZERO), rho2=_ONE)
@example(spec=[(("circle", (ZERO, ZERO), _ONE), 1)],
         q=((Fraction(3), Fraction(0)), ZERO), rho2=(Fraction(4), Fraction(0)))
@example(spec=[(("circle", (ZERO, ZERO), (Fraction(4), Fraction(0))), -1),
               (("line", (ZERO, ZERO), (_ONE, ZERO)), 1)],
         q=(ZERO, (Fraction(1, 2), Fraction(0))), rho2=ZERO)
def test_contains_closed_disk_agrees_with_reference(spec, q, rho2):
    tw = Tower()
    region = _region(tw, spec)
    centre, r2 = _pt(tw, q), _nonneg(tw, rho2)
    assert contains_closed_disk(region, centre, r2) == \
        _ref_contains_closed_disk(region, centre, r2)


# -- the integer sign bound of sample_point -----------------------------------

DYADIC = st.tuples(st.integers(-200, 200), st.integers(-200, 200),
                   st.integers(0, 13))


def _dyadic(xy, p):
    """(X, Y) with the point (X / 2**p, Y / 2**p), from i, j and e: the
    point (i / 2**e, j / 2**e), or (i / 2**p, j / 2**p) when e > p."""
    i, j, e = xy
    e = min(e, p)
    return i << (p - e), j << (p - e)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(("line", "circle")), u=POINT, v=POINT,
       d=DYADIC, mode=st.sampled_from(("free", "on", "near")),
       p=st.sampled_from((2, 13, 64, 100)))
@example(kind="line", u=(ZERO, ZERO), v=(_ONE, _ONE), d=(3, 3, 2),
         mode="free", p=64)
@example(kind="circle", u=(ZERO, ZERO), v=(_ONE, ZERO), d=(-4, 0, 2),
         mode="free", p=64)
@example(kind="line", u=((Fraction(1), Fraction(1)), ZERO),
         v=(ZERO, _ONE), d=(0, 0, 0), mode="near", p=64)
@example(kind="circle", d=(28, 0, 2), mode="free", p=2,
         u=((Fraction(0), Fraction(5)), (Fraction(1, 4), Fraction(0))),
         v=((Fraction(0), Fraction(5)), ZERO))
def test_sign_bound_is_zero_or_the_exact_sign(kind, u, v, d, mode, p):
    """A dyadic point drawn free, on the curve, or the floor of an
    (often irrational) point of the curve at p bits, so within 2**-p of
    it; the curve is the line through u and v or the circle centered at
    v through u, with the dyadic point in place of u for "on".  The last
    example puts x = 7 inside the enclosure [25, 30] / 4 of the center's
    5*sqrt(2), where the square of x - 5*sqrt(2) is bounded below by 0
    alone."""
    tw = Tower()
    X, Y = _dyadic(d, p)
    if mode == "near":
        a = _pt(tw, u)
        X, Y = a.x.enclose(p)[0], a.y.enclose(p)[0]
    q = point(tw, Fraction(X, 1 << p), Fraction(Y, 1 << p))
    a = q if mode == "on" else _pt(tw, u)
    b = _pt(tw, v)
    assume(a != b)
    if kind == "line":
        curves = [Line.through(a, b)]
    else:
        curves = [Circle.centered(b, a), Disk(b, dist2(a, b))]
    exact = curves[0].side(q)
    if mode == "on":
        assert exact == 0
    for curve in curves:        # a disk is read as its circle
        assert _sign_bound(_enclosed(curve, p), X, Y) in (0, exact)
    if kind == "circle":
        assert curves[1].contains(q) == (exact < 0)


# -- sample_point against the scan that tests every draw exactly --------------

GRID = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
STEP = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def _grid_point(tw, hint, ij, k=2):
    """The point hint + (i, j) / 2**k of the first stages' grids."""
    return point(tw, hint[0] + Fraction(ij[0], 1 << k),
                 hint[1] + Fraction(ij[1], 1 << k))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(spec=REGION, holes=st.integers(-1, 4),
       lines=st.lists(st.tuples(GRID, STEP), max_size=3),
       rings=st.lists(st.tuples(st.one_of(GRID, POINT), GRID), max_size=2),
       seed=st.integers(0, 2 ** 32))
@example(spec=("disk", (ZERO, ZERO), (Fraction(4), Fraction(0))),
         holes=1,
         lines=[((0, 0), (1, 0)), ((0, 0), (1, -1))],
         rings=[((0, 0), (3, 4)), (((1, 1), (0, 1)), (1, 1))],
         seed=0)
@example(spec=[(("line", (ZERO, ZERO), (_ONE, ZERO)), 1),
               (("line", (ZERO, ZERO), (_ONE, ZERO)), -1)],
         holes=-1, lines=[], rings=[], seed=1)
def test_sample_point_agrees_with_reference(spec, holes, lines, rings, seed):
    """Avoided points fill a square of the first stage's grid around the
    anchor (none for holes = -1).  Avoided lines run through a grid point
    in a short grid step's direction.  Avoided circles are centered on a
    grid point or on a point with sqrt(2) data and run through a grid
    point.  So draws often hit them.  The second example is the empty
    cell y > 0 > y, which exhausts the scan."""
    tw = Tower()
    region = _region(tw, spec)
    hint = _hint(region)
    curves = []
    for g, (di, dj) in lines:
        assume((di, dj) != (0, 0))
        curves.append(Line.through(
            _grid_point(tw, hint, g),
            _grid_point(tw, hint, (g[0] + di, g[1] + dj))))
    for c, g in rings:
        center = _grid_point(tw, hint, c) if isinstance(c[0], int) \
            else _pt(tw, c)
        on = _grid_point(tw, hint, g)
        assume(center != on)
        curves.append(Circle.centered(center, on))
    points = [_grid_point(tw, hint, (i, j)) for i in range(-holes, holes + 1)
              for j in range(-holes, holes + 1)]
    state = SimpleNamespace(tower=tw, points=points, curves=curves)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = sample_point(region, rng, state)
    want = ref_sample_point(region, ref_rng, state)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


def test_circle_center_sampling_point_count(monkeypatch):
    # the count is exact and box-independent: 148 Points while every
    # grid draw became a Point and was tested exactly, 8 since integer
    # sign bounds skip the draws that are outside the region
    made = [0]
    make = regions.point

    def counted(*args):
        made[0] += 1
        return make(*args)

    monkeypatch.setattr(regions, "point", counted)
    e = corpus.entry("circle_center")
    inputs = e.canonical_inputs(Tower())
    result = run(e.program(), inputs, oracle=SamplingOracle(0))
    assert e.postcondition(inputs, result.outputs) is None
    assert made[0] <= 8
