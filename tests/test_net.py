from dataclasses import replace
from fractions import Fraction

import pytest

from euclid import corpus
from euclid.closure import Budget, closure
from euclid.dsl.interp import run
from euclid.errors import DegenerateInputError, ResourceLimitError, ScopeError
from euclid.field import Tower
from euclid.game import (
    STOP,
    AliceWins,
    RPointInDisk,
    SamplingBob,
    Timeout,
    play,
    scripted_alice,
)
from euclid.geom import Circle, Line, Point, Step, dist2, point
from euclid.net import (
    RestrictedAlice,
    densify,
    grid_gaps,
    replay_trace,
    restricted_alice,
    straightedge_only,
)
from euclid.regions import Disk, triangle_cell
from euclid.render import auto_viewport, render_svg


def scaffold(tower):
    return (point(tower, 0, 0), point(tower, 4, 0), point(tower, 0, 4),
            point(tower, 1, 1))


def within(p: Point, q: Point, eps: Fraction) -> bool:
    bound = p.tower.from_rational(eps * eps)
    return (dist2(p, q) - bound).sign() <= 0


def test_densify_scaffold_point_is_returned_unchanged():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    result = densify(a, b, c, d, b, Fraction(1, 64))
    assert result.point == b
    assert result.iterations == 0
    assert result.trace == []


def test_densify_reaches_rational_target():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    target = point(tw, Fraction(7, 5), Fraction(9, 7))
    result = densify(a, b, c, d, target, Fraction(1, 64))
    assert within(result.point, target, Fraction(1, 64))
    assert straightedge_only(result.trace)
    assert replay_trace(result.trace, [a, b, c, d])


def test_densify_reaches_irrational_target():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    target = Point(tw.from_rational(2).sqrt(),
                   tw.from_rational(3).sqrt() / tw.from_rational(2))
    result = densify(a, b, c, d, target, Fraction(1, 64))
    assert within(result.point, target, Fraction(1, 64))
    assert replay_trace(result.trace, [a, b, c, d])


@pytest.mark.parametrize("x, y, eps, pinned", [
    (Fraction(3, 2), Fraction(5, 4), Fraction(1, 64),
     (229, 2, (Fraction(4, 9), Fraction(10, 27)))),
    (Fraction(1, 3), Fraction(2, 7), Fraction(1, 256),
     (778, 3, (Fraction(8, 55), Fraction(6, 49)))),
    ("sqrt2", 1, Fraction(1, 128),
     (342, 2, (Fraction(15, 34), Fraction(5, 16)))),
    (Fraction(7, 2), Fraction(1, 4), Fraction(1, 32),
     (485, 4, (Fraction(28, 31), Fraction(2, 31)))),
])
def test_densify_trace_length_iterations_and_frame_coords_are_pinned(
        x, y, eps, pinned):
    tw = Tower()
    a, b, c, d = scaffold(tw)
    tx = tw.from_rational(2).sqrt() if x == "sqrt2" else tw.from_rational(x)
    result = densify(a, b, c, d, Point(tx, tw.from_rational(y)), eps)
    assert (len(result.trace), result.iterations,
            result.frame_coords) == pinned


def test_triangle_cell_is_the_open_interior():
    tw = Tower()
    a, b, c = point(tw, 0, 0), point(tw, 4, 0), point(tw, 0, 4)
    for tri in ((a, b, c), (a, c, b)):
        cell = triangle_cell(*tri)
        assert cell.contains(point(tw, 1, 1))
        for excluded in (b, point(tw, 2, 2), point(tw, 2, 0),
                         point(tw, 3, 3), point(tw, -1, 1)):
            assert not cell.contains(excluded)
    with pytest.raises(DegenerateInputError):
        triangle_cell(a, b, point(tw, 8, 0))


def test_densify_iterations_grow_as_eps_shrinks():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    target = Point(tw.from_rational(2).sqrt(),
                   tw.from_rational(3).sqrt() / tw.from_rational(2))
    iters = [densify(a, b, c, d, target, Fraction(1, 2 ** k)).iterations
             for k in (3, 6, 9)]
    assert iters == sorted(iters)
    assert iters[-1] > iters[0] or iters[0] == iters[-1] == 1


def test_densify_rejects_bad_scaffolds_and_targets():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    with pytest.raises(DegenerateInputError,
                       match="scaffold triangle is degenerate"):
        densify(a, b, point(tw, 8, 0), d, point(tw, 1, 1), Fraction(1, 8))
    with pytest.raises(DegenerateInputError,
                       match="companion point is not strictly inside"):
        densify(a, b, c, point(tw, 3, 3), point(tw, 1, 1), Fraction(1, 8))
    with pytest.raises(ScopeError):
        densify(a, b, c, d, point(tw, 10, 10), Fraction(1, 8))
    with pytest.raises(ValueError):
        densify(a, b, c, d, point(tw, 1, 2), 0)


def test_densify_iteration_cap_raises():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    target = Point(tw.from_rational(2).sqrt(), tw.from_rational(1))
    with pytest.raises(ResourceLimitError):
        densify(a, b, c, d, target, Fraction(1, 2 ** 40), max_iterations=2)


def test_grid_gaps_start_exact_and_shrink_monotonically():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    gaps = grid_gaps(a, b, c, d, 4)
    assert len(gaps) == 5
    assert (gaps[0] - tw.from_rational(32)).sign() == 0
    for coarse, fine in zip(gaps, gaps[1:]):
        assert (fine - coarse).sign() <= 0
    assert (gaps[-1] - tw.from_rational(1)).sign() < 0


def test_replay_trace_rejects_tampered_steps():
    tw = Tower()
    a, b, c, d = scaffold(tw)
    target = point(tw, Fraction(3, 2), Fraction(3, 2))
    result = densify(a, b, c, d, target, Fraction(1, 8))
    assert replay_trace(result.trace, [a, b, c, d])
    last = result.trace[-1]
    forged = result.trace[:-1] + [Step(last.rule, (point(tw, 17, 17),),
                                       last.parents)]
    assert not replay_trace(forged, [a, b, c, d])
    assert not straightedge_only(result.trace
                                 + [Step("circle", (), (a, b))])


def _engine_trace(source: str, tw: Tower):
    """A recorded trace and the objects it starts from, per engine."""
    if source == "closure":
        state = closure([point(tw, 0, 0), point(tw, 2, 0)],
                        budget=Budget(max_rounds=2))
        return state.trace, []
    if source == "densify":
        a, b, c, d = scaffold(tw)
        target = point(tw, Fraction(3, 2), Fraction(3, 2))
        return densify(a, b, c, d, target, Fraction(1, 8)).trace, \
            [a, b, c, d]
    e = corpus.entry(source)
    return run(e.program(), e.canonical_inputs(tw)).trace, []


def _stranger(obj):
    """An object of the same type that no trace here ever makes."""
    far, farther = point(obj.tower, 17, 17), point(obj.tower, 18, 19)
    if isinstance(obj, Point):
        return far
    if isinstance(obj, Line):
        return Line.through(far, farther)
    return Circle.centered(far, farther)


@pytest.mark.parametrize("source", [
    *(e.name for e in corpus.entries() if e.name != "incenter_broken"),
    "closure", "densify"])
def test_replay_trace_rederives_every_engine(source):
    tw = Tower()
    trace, start = _engine_trace(source, tw)
    assert replay_trace(trace, start)
    assert render_svg(trace, auto_viewport(trace)).startswith("<?xml")
    built = [i for i, step in enumerate(trace)
             if step.rule in ("line", "circle", "intersect") and step.made]
    # a wrong made object, in the first step of each construction rule
    for rule in sorted({trace[i].rule for i in built}):
        i = next(i for i in built if trace[i].rule == rule)
        made = (_stranger(trace[i].made[0]),) + trace[i].made[1:]
        forged = trace[:i] + [replace(trace[i], made=made)]
        assert not replay_trace(forged, start), rule
    # operands that are not known yet
    assert not replay_trace([trace[built[-1]]] + trace, start)
    # a choice of an object that was never made
    chosen = Step("choose", (_stranger(trace[0].made[0]),))
    assert not replay_trace(trace + [chosen], start)
    # degenerate steps on known operands
    p = next(m for step in trace for m in step.made if isinstance(m, Point))
    curve = next(step.made[0] for step in trace
                 if step.rule in ("line", "circle") and step.made)
    for forged in (Step("line", (), (p, p)), Step("circle", (), (p, p, p)),
                   Step("intersect", (), (curve, curve))):
        assert not replay_trace(trace + [forged], start), forged.rule


def test_restricted_alice_translates_disk_requests():
    tw = Tower()
    p0, p1 = point(tw, 0, 0), point(tw, 1, 0)
    center = point(tw, Fraction(1, 2), Fraction(1, 4))
    r2 = tw.from_rational(Fraction(1, 16))

    def inner(position, moves):
        if any(isinstance(m.request, RPointInDisk) for m in moves):
            assert (dist2(moves[-1].made[0], center) - r2).sign() < 0
            return STOP
        return RPointInDisk(Disk(center, r2))

    alice = RestrictedAlice(inner)
    record = play([p0, p1], [], point(tw, 99, 99), alice, SamplingBob(1),
                  max_moves=1500)
    assert isinstance(record.outcome, Timeout)
    assert all(not isinstance(m.request, RPointInDisk)
               for m in record.moves)
    assert any((dist2(p, center) - r2).sign() < 0
               for p in record.position.points)


def test_restricted_alice_passes_through_disk_free_strategies():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    target = point(tw, 1, 0)
    program = corpus.load_program("midpoint")
    plain = play([a, b], [], target,
                 scripted_alice(program, [a, b]), SamplingBob(0))
    wrapped = play([a, b], [], target,
                   restricted_alice(scripted_alice(program, [a, b])),
                   SamplingBob(0))
    assert plain.outcome == wrapped.outcome == AliceWins(6)
    assert len(plain.moves) == len(wrapped.moves)


def test_restricted_alice_translation_budget_error():
    tw = Tower()
    p0, p1 = point(tw, 0, 0), point(tw, 1, 0)

    def inner(position, moves):
        return RPointInDisk(Disk(point(tw, Fraction(1, 2), Fraction(1, 4)),
                                 tw.from_rational(Fraction(1, 16))))

    alice = RestrictedAlice(inner, translation_budget=3)
    with pytest.raises(ResourceLimitError):
        play([p0, p1], [], point(tw, 99, 99), alice, SamplingBob(1),
             max_moves=50)
