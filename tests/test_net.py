from dataclasses import replace
from fractions import Fraction

import pytest

from euclid import corpus, net
from euclid.closure import Budget, closure
from euclid.dsl.interp import run
from euclid.errors import DegenerateInputError, ResourceLimitError, ScopeError
from euclid.field import Tower
from euclid.game import (
    STOP,
    AliceWins,
    SamplingBob,
    Timeout,
    play,
    scripted_alice,
)
from euclid.geom import Circle, Line, Point, Step, dist2, point
from euclid.net import (
    RestrictedAlice,
    _Frame,
    densify,
    replay_trace,
    straightedge_only,
)
from euclid.regions import Cell, Disk, contains_closed_disk, triangle_cell
from euclid.render import auto_viewport, render_svg
from engine_checks import grid_gaps


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


def test_axis_point_names_its_mediant_bound(monkeypatch):
    monkeypatch.setattr(net, "MEDIANT_STEPS", 1)
    frame = _Frame(*scaffold(Tower()))
    with pytest.raises(ResourceLimitError,
                       match=r"^mediant descent to 5/13 did not land "
                             r"after MEDIANT_STEPS=1 mediants$"):
        frame.axis_point("ab", Fraction(5, 13))


def _operator_from_frame(frame, u, v):
    """`_Frame.from_frame` written with the field's operators."""
    tw = frame.tower
    wa = frame.alpha * (1 - u - v)
    wb = frame.beta * u
    wc = frame.gamma * v
    s = wa + wb + wc
    x = (wa * frame.a.x + wb * frame.b.x + wc * frame.c.x) / s
    y = (wa * frame.a.y + wb * frame.b.y + wc * frame.c.y) / s
    return Point(x, y)


@pytest.mark.parametrize("surd", [False, True])
def test_from_frame_on_term_pairs_matches_the_operators(surd):
    tw = Tower()
    a, b, c, d = scaffold(tw)
    if surd:        # D = (1, sqrt(2)/2), still inside the triangle
        d = Point(tw.one, tw.from_rational(2).sqrt() / 2)
    frame = _Frame(a, b, c, d)
    for u, v in ((0, 0), (1, 0), (0, 1), (Fraction(1, 3), Fraction(2, 5)),
                 (Fraction(-3, 7), Fraction(5, 4)), (Fraction(1, 2), 0)):
        got = frame.from_frame(u, v)
        want = _operator_from_frame(frame, u, v)
        assert (got.x._terms, got.y._terms) == \
            (want.x._terms, want.y._terms)
        assert frame.to_frame(got) == (u, v)
    if not surd:
        # alpha = 1/2 and beta = gamma = 1/4: u + v = 2 is critical
        with pytest.raises(DegenerateInputError, match="critical line"):
            frame.from_frame(1, 1)


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
    # steps of the wrong shape are rejected, not raised on
    disk = Disk(a, tw.from_rational(1))
    ab = Line.through(a, b)
    for bad in (Step("choose"), Step("arbitrary", (), (disk,)),
                Step("arbitrary", (a,), ()), Step("arbitrary", (a,), (a,)),
                Step("line", (ab,), (a, b, c)), Step("line", (ab,), (a,)),
                Step("intersect", (a,), (a, b))):
        assert not replay_trace([bad], [a, b, c, d]), bad
    # a point answer before anything is known has no session to be in
    assert not replay_trace([Step("arbitrary", (a,), (disk,))], [])
    # a cell over a line that no step made, though the point is inside
    never = Line.through(point(tw, 17, 17), point(tw, 18, 19))
    inside = point(tw, 2, 1)
    cell = Cell(((never, never.side(inside)),))
    assert cell.contains(inside)
    assert not replay_trace([Step("arbitrary", (inside,), (cell,))],
                            [a, b, c, d])
    assert not straightedge_only(result.trace
                                 + [Step("circle", (), (a, b))])


def _engine_trace(source: str, tw: Tower):
    """A recorded trace and the objects it starts from, per engine: a
    game source is a corpus program played by scripted Alice against
    SamplingBob(0) toward a target it never makes, so the play ends
    with a stop move."""
    if source.startswith("game:"):
        e = corpus.entry(source[len("game:"):])
        inputs = e.canonical_inputs(tw)
        record = play([o for o in inputs if isinstance(o, Point)],
                      [o for o in inputs if not isinstance(o, Point)],
                      point(tw, 17, 17),
                      scripted_alice(e.program(), inputs), SamplingBob(0),
                      max_moves=1000)
        assert record.moves[-1].rule == "stop"
        return record.moves, inputs
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


_PASSING = [e.name for e in corpus.entries() if e.name != "incenter_broken"]


@pytest.mark.parametrize("source", [
    *_PASSING, "closure", "densify", *(f"game:{name}" for name in _PASSING)])
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
    late = next(trace[i] for i in reversed(built)
                if not set(trace[i].parents) <= set(start))
    assert not replay_trace([late] + trace, start)
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
    # an answer moved outside its region
    points = [m for step in trace for m in step.made if isinstance(m, Point)]
    far = [point(tw, x, y) for x in (17, -17) for y in (17, -17)]
    for i, step in enumerate(trace):
        if step.rule == "arbitrary":
            region, = step.parents
            outside = next(q for q in [*points, *far]
                           if not region.contains(q))
            forged = trace[:i] + [replace(step, made=(outside,))]
            assert not replay_trace(forged, start), i


def test_replay_of_a_play_with_a_disk_move():
    # a disk request around a centre nobody constructed, then a line to
    # Bob's answer: replay accepts the play, and no other point
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    disk = Disk(point(tw, Fraction(3, 2), Fraction(1, 4)),
                tw.from_rational(1))

    def alice(position, moves):
        if not moves:
            return Step("arbitrary", (), (disk,))
        if len(moves) == 1:
            return Step("line", (), (a, moves[0].made[0]))
        return STOP

    record = play([a, b], [], point(tw, 9, 9), alice, SamplingBob(0))
    assert record.transcript() == "\n".join((
        "move 1: ALICE point in Disk(center=Point(<3/2 ~ 1.5>, "
        "<1/4 ~ 0.25>), r2=<1 ~ 1>) / BOB (<2 ~ 2>, <-1/4 ~ -0.25>) / "
        "POSITION +(<2 ~ 2>, <-1/4 ~ -0.25>)",
        "move 2: ALICE line (<0 ~ 0>, <0 ~ 0>) (<2 ~ 2>, <-1/4 ~ -0.25>) / "
        "BOB - / POSITION +Line(<1 ~ 1>, <8 ~ 8>, <0 ~ 0>)",
        "move 3: ALICE stop / BOB - / POSITION +nothing",
        "outcome: Timeout(move_budget=50)"))
    assert replay_trace(record.moves, [a, b])
    moved = replace(record.moves[0], made=(point(tw, 9, 9),))
    assert not replay_trace([moved, *record.moves[1:]], [a, b])
    assert not replay_trace([moved], [a, b])     # outside the disk


def test_restricted_alice_translates_disk_requests():
    tw = Tower()
    p0, p1 = point(tw, 0, 0), point(tw, 1, 0)
    center = point(tw, Fraction(1, 2), Fraction(1, 4))
    r2 = tw.from_rational(Fraction(1, 16))

    def inner(position, moves):
        if any(m.rule == "arbitrary" for m in moves):
            assert (dist2(moves[-1].made[0], center) - r2).sign() < 0
            return STOP
        return Step("arbitrary", (), (Disk(center, r2),))

    alice = RestrictedAlice(inner)
    record = play([p0, p1], [], point(tw, 99, 99), alice, SamplingBob(1),
                  max_moves=1500)
    assert isinstance(record.outcome, Timeout)
    assert all(isinstance(m.parents[0], Cell)
               for m in record.moves if m.rule == "arbitrary")
    assert any((dist2(p, center) - r2).sign() < 0
               for p in record.position.points)


def test_restricted_alice_tries_each_triangle_once(monkeypatch):
    from euclid import net
    tried = []

    def recorded(cell, q, rho2):
        tried.append(frozenset(curve for curve, _ in cell.conds))
        return contains_closed_disk(cell, q, rho2)

    monkeypatch.setattr(net, "contains_closed_disk", recorded)
    tw = Tower()
    p0, p1 = point(tw, 0, 0), point(tw, 1, 0)
    center = point(tw, Fraction(1, 2), Fraction(1, 4))
    r2 = tw.from_rational(Fraction(1, 16))

    def inner(position, moves):
        if moves:
            return STOP
        return Step("arbitrary", (), (Disk(center, r2),))

    play([p0, p1], [], point(tw, 99, 99), RestrictedAlice(inner),
         SamplingBob(1), max_moves=1500)
    assert tried
    assert len(set(tried)) == len(tried)


def test_restricted_alice_passes_through_disk_free_strategies():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    target = point(tw, 1, 0)
    program = corpus.load_program("midpoint")
    plain = play([a, b], [], target,
                 scripted_alice(program, [a, b]), SamplingBob(0))
    wrapped = play([a, b], [], target,
                   RestrictedAlice(scripted_alice(program, [a, b])),
                   SamplingBob(0))
    assert plain.outcome == wrapped.outcome == AliceWins(6)
    assert len(plain.moves) == len(wrapped.moves)


def test_restricted_alice_translation_budget_error(monkeypatch):
    monkeypatch.setattr(net, "TRANSLATION_BUDGET", 3)
    tw = Tower()
    p0, p1 = point(tw, 0, 0), point(tw, 1, 0)

    def inner(position, moves):
        disk = Disk(point(tw, Fraction(1, 2), Fraction(1, 4)),
                    tw.from_rational(Fraction(1, 16)))
        return Step("arbitrary", (), (disk,))

    alice = RestrictedAlice(inner)
    with pytest.raises(ResourceLimitError,
                       match=r"^translation budget exceeded "
                             r"\(TRANSLATION_BUDGET=3\)$"):
        play([p0, p1], [], point(tw, 99, 99), alice, SamplingBob(1),
             max_moves=50)
