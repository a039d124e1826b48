import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from euclid.closure import (
    Budget,
    ClosureResult,
    Derivability,
    closure,
    derivable,
    expand_once,
)
from euclid.errors import ResourceLimitError
from euclid.field import Tower
from euclid.geom import Circle, Line, Point, point


@pytest.fixture
def tw():
    return Tower()


def test_single_point_is_already_closed(tw):
    res = closure([point(tw, 0, 0)])
    assert res.complete
    assert res.rounds == 0
    assert len(res.points) == 1
    assert res.curves == []


def test_two_points_straightedge_only_fixed_point(tw):
    a, b = point(tw, 0, 0), point(tw, 1, 0)
    res = closure([a, b], ops={"line", "intersect"})
    assert res.complete
    assert res.rounds == 1
    assert len(res.points) == 2
    assert len(res.curves) == 1
    assert isinstance(res.curves[0], Line)


def test_first_round_from_two_points(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = expand_once([a, b])
    lines = [c for c in res.curves if isinstance(c, Line)]
    circles = [c for c in res.curves if isinstance(c, Circle)]
    assert len(lines) == 1 and len(circles) == 2
    assert {c.r2.as_rational() for c in circles} == {4}
    got = {(p.x, p.y) for p in res.points}
    r3 = tw.from_rational(3).sqrt()
    expected = {
        (tw.from_rational(0), tw.from_rational(0)),
        (tw.from_rational(2), tw.from_rational(0)),
        (tw.from_rational(-2), tw.from_rational(0)),
        (tw.from_rational(4), tw.from_rational(0)),
        (tw.from_rational(1), r3),
        (tw.from_rational(1), -r3),
    }
    assert got == expected


def test_midpoint_derivable_in_two_rounds(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = derivable(point(tw, 1, 0), [a, b])
    assert res.derivable
    assert res.rounds == 2
    assert res.state.size <= 5000


def test_given_target_is_round_zero(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = derivable(point(tw, 0, 0), [a, b])
    assert res.derivable and res.rounds == 0


def test_midpoint_not_derivable_by_straightedge(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = derivable(point(tw, 1, 0), [a, b], ops={"line", "intersect"})
    assert not res.derivable
    assert res.rounds is None
    assert res.state.complete


def test_circles_only_reaches_fixed_point(tw):
    pts = [point(tw, 0, 0), point(tw, 1, 0), point(tw, 0, 1)]
    res = closure(pts, ops={"circle"})
    assert res.complete
    assert len(res.points) == 3
    assert all(isinstance(c, Circle) for c in res.curves)
    # 3 centers x 3 distinct squared radii (1, 1, 2 collapse to 2 values)
    assert len(res.curves) == 6


def test_budget_exhaustion_carries_partial(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    with pytest.raises(ResourceLimitError) as ei:
        closure([a, b], budget=Budget(max_rounds=3, max_objects=300))
    partial = ei.value.partial
    assert isinstance(partial, ClosureResult)
    assert not partial.complete
    assert partial.size >= 300


def test_round_budget_exhaustion_is_a_verdict_not_an_error(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = derivable(point(tw, Fraction(1, 3), 0), [a, b],
                    budget=Budget(max_rounds=2, max_objects=100000))
    assert not res.derivable
    assert res.rounds is None
    assert not res.state.complete


def test_curve_targets(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    bisector = Line(tw.one, tw.zero, tw.from_rational(-1))
    res = derivable(bisector, [a, b])
    assert res.derivable and res.rounds == 2
    res = derivable(Circle(a, tw.from_rational(4)), [a, b])
    assert res.derivable and res.rounds == 1
    res = derivable(Circle(a, tw.from_rational(9)), [a, b],
                    budget=Budget(max_rounds=1))
    assert not res.derivable


def test_expand_once_order_independent(tw):
    pts = [point(tw, 0, 0), point(tw, 1, 0), point(tw, 0, 2)]
    first = expand_once(pts)
    second = expand_once(list(reversed(pts)))
    assert {(p.x, p.y) for p in first.points} == \
        {(p.x, p.y) for p in second.points}
    assert len(first.curves) == len(second.curves)


def test_trace_provenance_and_height_bound(tw):
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = derivable(point(tw, 1, 0), [a, b])
    seen = set()
    for e in res.state.trace:
        for parent in e.parents:
            assert id(parent) in seen or parent in (a, b)
        seen.add(id(e.made[0]))
        if e.rule == "given":
            assert e.round == 0 and e.parents == ()
        else:
            assert e.round >= 1 and len(e.parents) >= 2
        if isinstance(e.made[0], Point):
            assert e.made[0].height <= e.round
    rules = {e.rule for e in res.state.trace}
    assert rules == {"given", "line", "circle", "intersect"}


def test_curves_in_input_participate(tw):
    l = Line.through(point(tw, 0, 0), point(tw, 1, 0))
    c = Circle.centered(point(tw, 0, 0), point(tw, 1, 0))
    res = expand_once([point(tw, 0, 0), point(tw, 1, 0)], [l, c],
                      ops={"intersect"})
    got = {(p.x, p.y) for p in res.points}
    assert (tw.from_rational(-1), tw.from_rational(0)) in got


def test_duplicate_suppression(tw):
    a = point(tw, 0, 0)
    b = point(tw, 1, 0)
    same_a = point(tw, Fraction(0, 5), 0)
    res = expand_once([a, b, same_a], ops={"line"})
    assert len(res.points) == 2
    assert len(res.curves) == 1


def test_unknown_op_rejected(tw):
    with pytest.raises(ValueError):
        closure([point(tw, 0, 0)], ops={"fold"})


def test_midpoint_runs_quickly(tw):
    start = time.monotonic()
    res = derivable(point(tw, 1, 0), [point(tw, 0, 0), point(tw, 2, 0)])
    elapsed = time.monotonic() - start
    assert res.derivable and res.rounds == 2
    assert elapsed < 30.0


# OEIS A333944: from two points, drawing every line through two known
# points and every circle centered at one through another, then adding
# every meet, gives 2, 6, 203 points.  The circles go in as given curves,
# since the closure's own compass takes any known distance as radius.

def _a333944(p, q, rounds=2):
    pts, counts = [p, q], [2]
    for _ in range(rounds):
        circles = [Circle.centered(o, r) for o in pts for r in pts if o != r]
        pts = expand_once(pts, circles, ops={"line", "intersect"}).points
        counts.append(len(pts))
    return counts


@pytest.mark.parametrize("seeds", [
    ((0, 0), (1, 0)),
    ((Fraction(1, 3), -2), (5, Fraction(7, 2))),
    ((0, 0), (1, "sqrt(2)")),
    (("sqrt(3)", 1), (0, "sqrt(5)")),
])
def test_two_point_closure_counts_match_a333944(tw, seeds):
    p, q = (Point(*(tw.parse(str(v)) for v in xy)) for xy in seeds)
    assert _a333944(p, q) == [2, 6, 203]


_coord = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(_coord, _coord, _coord, _coord, st.sampled_from((0, 2, 3, 5)),
       st.integers(0, 3))
def test_two_point_closure_count_is_203_from_any_seed_pair(x1, y1, x2, y2,
                                                           radicand, slot):
    # one of the four coordinates may carry sqrt(radicand)
    tw = Tower()
    xs = [tw.from_rational(v) for v in (x1, y1, x2, y2)]
    if radicand:
        xs[slot] += tw.from_rational(radicand).sqrt()
    p, q = Point(xs[0], xs[1]), Point(xs[2], xs[3])
    assume(p != q)
    assert _a333944(p, q)[-1] == 203
