"""`contains_closed_disk` against the two circle formulas it replaced.

A closed disk of squared radius rho2 around q fits inside a circle of
squared radius r2 around o when sqrt(d2) + sqrt(rho2) < sqrt(r2), with
d2 = |q - o|^2, and outside it when sqrt(r2) + sqrt(rho2) < sqrt(d2).
`regions._sqrt_sum_below` decides both.  The `_ref_*` functions below
are the earlier separate inside/outside formulas and the earlier
`contains_closed_disk` built on them; every answer must agree exactly.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from euclid.field import Tower
from euclid.geom import Circle, Line, Point, dist2
from euclid.regions import INSIDE, Cell, Disk, _sqrt_sum_below, \
    contains_closed_disk


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
