import random
from fractions import Fraction

import pytest

from euclid import corpus
from euclid.closure import ALL_OPS
from euclid.dsl import ReplayOracle, SamplingOracle, parse_program, run
from euclid.dsl.interp import answer_problem
from euclid.errors import RunAbort
from euclid.field import Tower
from euclid.game import (
    STOP,
    AliceWins,
    Aborted,
    CertificateBob,
    Position,
    SamplingBob,
    Timeout,
    certificate_bob,
    check_certificate,
    play,
    rational_certificate,
    sampling_bob,
    scripted_alice,
)
from euclid.geom import Circle, Line, Point, Step, point
from euclid.net import replay_trace
from euclid.regions import Cell, Disk


def unit_circle(tower) -> Circle:
    return Circle(point(tower, 0, 0), tower.from_rational(1))


def test_target_already_present_wins_in_zero_moves():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 1, 0)
    record = play([a, b], [], b, None, None)
    assert record.outcome == AliceWins(0)
    assert record.moves == []


def test_scripted_midpoint_wins_in_six_moves():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    target = point(tw, 1, 0)
    for bob in (sampling_bob(0), certificate_bob(rational_certificate())):
        alice = scripted_alice(corpus.load_program("midpoint"), [a, b])
        record = play([a, b], [], target, alice, bob)
        assert record.outcome == AliceWins(6)
        assert record.position.contains(target)


def test_transcript_format():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    alice = scripted_alice(corpus.load_program("midpoint"), [a, b])
    record = play([a, b], [], point(tw, 1, 0), alice, sampling_bob(0))
    lines = record.transcript().splitlines()
    assert lines[0].startswith("move 1: ALICE circle center ")
    assert all(" / BOB " in line and " / POSITION +" in line
               for line in lines[:-1])
    assert lines[-1] == "outcome: AliceWins(moves=6)"


def test_referee_soundness_every_object_from_one_request():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    alice = scripted_alice(corpus.load_program("midpoint"), [a, b])
    record = play([a, b], [], point(tw, 1, 0), alice, sampling_bob(0))
    added = [obj for made in record.added for obj in made]
    assert record.position.size == 2 + len(added)
    assert all(record.position.contains(obj) for obj in added)


def test_never_stop_strategy_times_out():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)

    def harmless(position, moves):
        return Step("line", (), (a, b))

    record = play([a, b], [], point(tw, 5, 5), harmless, None, max_moves=7)
    assert record.outcome == Timeout(7)
    assert len(record.moves) == 7


def test_scripted_alice_stops_after_script_without_win():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    alice = scripted_alice(corpus.load_program("midpoint"), [a, b])
    record = play([a, b], [], point(tw, 9, 9), alice, sampling_bob(0),
                  max_moves=20)
    assert record.outcome == Timeout(20)
    assert record.moves[-1].rule == "stop"
    assert record.move_text(-1).endswith("ALICE stop / BOB - / "
                                         "POSITION +nothing")


def _corpus_inputs(e, tower, index):
    if index == 0:
        return e.canonical_inputs(tower)
    return e.sample_inputs(random.Random(f"game:{e.name}:{index}"), tower)


@pytest.mark.parametrize("name", [e.name for e in corpus.entries()
                                  if not e.expect_fail])
def test_game_play_equals_run_with_bobs_answers(name):
    e = corpus.entry(name)
    program = e.program()
    for index, seed in ((0, 0), (0, 1), (1, 2), (2, 3)):
        tw = Tower(height_cap=corpus.DEFAULT_HEIGHT_CAP)
        inputs = _corpus_inputs(e, tw, index)
        target = run(program, inputs, SamplingOracle(seed + 100)).outputs[-1]
        points = [o for o in inputs if isinstance(o, Point)]
        curves = [o for o in inputs if not isinstance(o, Point)]
        record = play(points, curves, target, scripted_alice(program, inputs),
                      sampling_bob(seed), max_moves=1000)
        assert isinstance(record.outcome, AliceWins), (index, seed)
        answers = [m.made[0] for m in record.moves if m.rule == "arbitrary"]
        result = run(program, inputs, ReplayOracle(answers))
        # the referee and `run` make the same steps, move for step
        assert [(m.rule, m.made, m.parents) for m in record.moves] == \
            [(s.rule, s.made, s.parents) for s in result.trace
             if s.rule in ("line", "circle", "intersect", "arbitrary")]
        assert [m.round for m in record.moves] == \
            list(range(1, len(record.moves) + 1))
        assert all(record.position.contains(o) for o in result.outputs)


def test_scripted_play_builds_each_intersection_once(monkeypatch):
    # Every intersect runs exactly one of these two kernels; only the
    # referee builds, so there is one call per intersect move.
    from euclid import geom
    calls = []
    for name in ("_line_line", "_line_circle"):
        def counted(*args, kernel=getattr(geom, name)):
            calls.append(kernel)
            return kernel(*args)
        monkeypatch.setattr(geom, name, counted)
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    alice = scripted_alice(corpus.load_program("midpoint"), [a, b])
    record = play([a, b], [], point(tw, 1, 0), alice, sampling_bob(0))
    assert record.outcome == AliceWins(6)
    crossings = [m for m in record.moves if m.rule == "intersect"]
    assert len(crossings) == 2
    assert len(calls) == len(crossings)


def test_scripted_intersection_count_mismatch_stops_after_the_request():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    c, d = point(tw, 0, 1), point(tw, 2, 1)
    program = parse_program("""
        construction parallels(point A, point B, point C, point D) {
            let g = line(A, B);
            let h = line(C, D);
            let [X] = intersect(g, h);
            return X;
        }
    """)
    record = play([a, b, c, d], [], point(tw, 9, 9),
                  scripted_alice(program, [a, b, c, d]), None)
    assert [m.rule for m in record.moves] == ["line", "line", "intersect"]
    assert record.moves[2].made == record.added[2] == ()
    assert record.outcome == Aborted(
        "intersection-count-mismatch",
        "intersect(g, h) gave 0 points, statement binds 1")


# (body, inputs, statement, geom's message, line moves before the step)
@pytest.mark.parametrize("body, inputs, statement, problem, lines", [
    ("let g = line(A, B); return g;", ((1, 1), (1, 1), (0, 0)),
     "line g", "line through two identical points", 0),
    ("let c = circle(A; B, C); return c;", ((0, 0), (1, 1), (1, 1)),
     "circle c", "circle needs a positive squared radius", 0),
    ("let g = line(A, B); let h = line(A, B); let [X] = intersect(g, h);"
     " return X;", ((0, 0), (1, 1), (0, 0)),
     "intersect(g, h)", "identical lines", 2),
], ids=["line", "circle", "intersect"])
def test_scripted_degenerate_step_stops_before_any_request(
        body, inputs, statement, problem, lines):
    tw = Tower()
    inputs = [point(tw, *xy) for xy in inputs]
    program = parse_program("construction degenerate(point A, point B, "
                            f"point C) {{ {body} }}")
    with pytest.raises(RunAbort) as ei:
        run(program, inputs)
    assert ei.value.reason == "degenerate-step"
    assert ei.value.message == f"{statement}: {problem}"
    record = play(inputs, [], point(tw, 9, 9),
                  scripted_alice(program, inputs), None)
    # the degenerate step itself is never a move
    assert [m.rule for m in record.moves] == ["line"] * lines
    assert record.outcome == Aborted("malformed-request", problem)


def test_malformed_requests_abort():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    stranger = point(tw, 7, 7)

    def alice(position, moves):
        return Step("line", (), (a, stranger))

    record = play([a, b], [], point(tw, 1, 0), alice, None)
    assert record.outcome == Aborted(
        "malformed-request",
        "line endpoint (<7 ~ 7>, <7 ~ 7>) is not in the position")

    def alice2(position, moves):
        return Step("line", (), (a, a))

    record = play([a, b], [], point(tw, 1, 0), alice2, None)
    assert record.outcome.reason == "malformed-request"

    l = Line.through(a, b)
    far = Line.through(a, stranger)
    for request, problem in (
            (Step("circle", (), (a, b, b)),
             "circle needs a positive squared radius"),
            (Step("intersect", (), (l, l)), "identical lines"),
            (Step("circle", (), (a, b, stranger)),
             "circle reference (<7 ~ 7>, <7 ~ 7>) is not in the position"),
            (Step("intersect", (), (l, far)),
             "intersection operand Line(<1 ~ 1>, <-1 ~ -1>, <0 ~ 0>) is not "
             "in the position"),
            (Step("arbitrary", (), (l,)),
             "point request in Line(<0 ~ 0>, <1 ~ 1>, <0 ~ 0>), neither a "
             "disk nor a cell"),
            (Step("line", (), (a,)), "line request with 1 operands"),
            (Step("line", (), (a, l)),
             "line endpoint Line(<0 ~ 0>, <1 ~ 1>, <0 ~ 0>) is not in the "
             "position"),
            (Step("arbitrary", (), (Cell(((far, 1),)),)),
             "cell condition on Line(<1 ~ 1>, <-1 ~ -1>, <0 ~ 0>) outside "
             "the position"),
            (Step("intersect", (), (l, a)),
             "intersection operand (<0 ~ 0>, <0 ~ 0>) is not in the position"),
            (Step("circle", (), (a, b)), "circle request with 2 operands"),
            (Step("intersect", (), (l, l, l)),
             "intersect request with 3 operands"),
            (Step("arbitrary", (), (Cell(()), Cell(()))),
             "arbitrary request with 2 operands"),
            ("stop", "unknown request 'stop'")):
        record = play([a, b], [l], point(tw, 1, 1),
                      lambda position, moves: request, None)
        assert record.outcome == Aborted("malformed-request", problem)
        assert record.moves == []
        # replay judges a recorded step as the referee judges a request
        if request != "stop":
            assert not replay_trace([request], [a, b, l]), problem


def test_disk_request_from_another_session_aborts():
    tw, other = Tower(), Tower()
    a = point(tw, 0, 0)
    for disk in (Disk(point(other, 0, 0), tw.from_rational(1)),
                 Disk(point(tw, 0, 0), other.from_rational(1))):
        record = play([a], [], point(tw, 1, 1),
                      lambda position, moves: Step("arbitrary", (), (disk,)),
                      sampling_bob(0))
        assert record.outcome == Aborted(
            "malformed-request", "disk request from another session")
        assert record.moves == []


def test_bob_violation_aborts():
    tw = Tower()
    a = point(tw, 0, 0)

    class LiarBob:
        def answer(self, region, position):
            return point(position.tower, 100, 100)

    def alice(position, moves):
        return Step("arbitrary", (), (Disk(a, tw.from_rational(1)),))

    record = play([a], [], point(tw, 1, 0), alice, LiarBob())
    assert record.outcome.reason == "bob-violation"


def test_run_and_referee_judge_point_answers_alike():
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    program = parse_program("""
        construction pick(point A, point B) {
            let X = arbitrary in_disk(A, 1/4);
            return X;
        }
    """)
    region = Disk(a, tw.from_rational(Fraction(1, 4)))
    bad_answers = (None, point(Tower(), 0, 0), Line.through(a, b),
                   point(tw, 1, 0))

    class FixedBob:
        def __init__(self, given):
            self.given = given

        def answer(self, region, position):
            return self.given

    for bad in bad_answers:
        problem = answer_problem(region, bad, tw)
        assert problem is not None
        with pytest.raises(RunAbort) as ei:
            run(program, [a, b], ReplayOracle([bad]))
        record = play([a, b], [], point(tw, 9, 9),
                      lambda position, moves: Step("arbitrary", (), (region,)),
                      FixedBob(bad))
        exhausted = bad is None
        assert ei.value.reason == ("region-scan-exhausted" if exhausted
                                   else "oracle-violation")
        assert record.outcome.reason == ("region-scan-exhausted" if exhausted
                                         else "bob-violation")
        assert record.outcome.message == problem
        assert ei.value.message == f"arbitrary X: {problem}"
    assert answer_problem(region, point(tw, Fraction(1, 8), 0), tw) is None


def test_empty_cell_request_exhausts_the_scan():
    tw = Tower()
    inner = unit_circle(tw)
    outer = Circle(point(tw, 0, 0), tw.from_rational(4))

    def alice(position, moves):
        return Step("arbitrary", (), (Cell(((inner, -1), (outer, 1))),))

    record = play([], [inner, outer], point(tw, 5, 5), alice, sampling_bob(0))
    assert record.outcome.reason == "region-scan-exhausted"


def test_sampling_bob_is_deterministic_and_conforming():
    tw = Tower()
    k = unit_circle(tw)
    axis = Line.through(point(tw, 0, 0), point(tw, 1, 0))
    cell = Cell(((k, -1), (axis, 1)))
    answers = []
    for _ in range(2):
        bob = sampling_bob(5)
        pos = Position([k, axis])
        p = bob.answer(cell, pos)
        assert cell.contains(p)
        answers.append(p)
    assert answers[0] == answers[1]


def test_certificate_bob_answers_as_the_sampling_scan():
    # the scan only finds rational points, and the rational plane keeps
    # them all, so the certificate adversary answers as the sampler does
    tw = Tower()
    k = unit_circle(tw)
    axis = Line.through(point(tw, 0, 0), point(tw, 1, 0))
    half = tw.from_rational(Fraction(1, 2))
    regions = (Disk(point(tw, Fraction(1, 3), 0), tw.from_rational(1)),
               Cell(((k, -1), (axis, 1))),
               Disk(Point(tw.from_rational(2).sqrt() * half, half), half),
               Cell(((k, 1), (axis, -1))),
               Cell(((k, -1), (Circle(k.center, tw.from_rational(4)), 1))))
    for seed in range(4):
        bobs = (CertificateBob(rational_certificate(), seed),
                SamplingBob(seed))
        positions = [Position([point(tw, 0, 0), k, axis]) for _ in bobs]
        for region in regions * 2:
            p, q = (bob.answer(region, pos)
                    for bob, pos in zip(bobs, positions))
            assert p == q
            assert (p is None) == (region is regions[-1])
            for pos in positions:
                if p is not None:
                    pos.add(p)


def test_chord_line_game_from_a_bare_circle():
    tw = Tower()
    k = unit_circle(tw)

    def chord(position, moves):
        n = len(moves)
        if n == 0:
            return Step("arbitrary", (), (Cell(((k, -1),)),))
        if n == 1:
            return Step("arbitrary", (), (Cell(((k, 1),)),))
        if n == 2:
            return Step("line", (), (position.points[0], position.points[1]))
        return STOP

    probe = play([], [k], point(tw, 9, 9), chord, sampling_bob(11))
    secant = probe.position.curves[1]
    assert isinstance(secant, Line)
    replay = play([], [k], secant, chord, sampling_bob(11))
    assert replay.outcome == AliceWins(3)


def test_scripted_perpendicular_wins_for_the_unique_target_line():
    tw = Tower()
    l = Line.through(point(tw, 0, 0), point(tw, 4, 0))
    p = point(tw, 1, 2)
    dx, dy = l.direction()
    target = Line(dx, dy, -(dx * p.x + dy * p.y))
    alice = scripted_alice(corpus.load_program("perp_from_point"), [l, p])
    record = play([p], [l], target, alice, sampling_bob(2))
    assert isinstance(record.outcome, AliceWins)


def test_scripted_circle_center_wins_vs_sampling_bob():
    for seed in range(3):
        tw = Tower(height_cap=16)
        k = Circle(point(tw, Fraction(1, 2), -1), tw.from_rational(2))
        alice = scripted_alice(corpus.load_program("circle_center"), [k])
        record = play([], [k], k.center, alice, sampling_bob(seed))
        assert isinstance(record.outcome, AliceWins)


def test_intersect_request_of_disjoint_curves_adds_nothing():
    tw = Tower()
    c1 = unit_circle(tw)
    c2 = Circle(point(tw, 10, 0), tw.from_rational(1))

    def alice(position, moves):
        return Step("intersect", (), (c1, c2)) if not moves else STOP

    record = play([], [c1, c2], point(tw, 1, 1), alice, None, max_moves=3)
    assert record.added[0] == ()
    assert record.outcome == Timeout(3)


def test_check_certificate_input_and_target_conditions():
    cert = rational_certificate()
    tw = Tower()
    sqrt2 = Point(tw.from_rational(2).sqrt(), tw.zero)
    rational = point(tw, 1, 2)
    bad_input = check_certificate(cert, [sqrt2], [], rational)
    assert not bad_input.passed and bad_input.condition == "input-not-member"
    assert bad_input.witness == sqrt2
    bad_target = check_certificate(cert, [rational], [], point(tw, 3, 4))
    assert not bad_target.passed and bad_target.condition == "target-member"


def test_rational_certificate_passes_straightedge_fails_compass():
    cert = rational_certificate()
    tw = Tower()
    e = [point(tw, 0, 0), point(tw, 2, 0)]
    target = Point(tw.from_rational(2).sqrt(), tw.zero)
    assert check_certificate(cert, e, [], target).passed
    failed = check_certificate(cert, e, [], target, ops=ALL_OPS)
    assert not failed.passed and failed.condition == "closure-violation"
    half = tw.from_rational(Fraction(1, 2))
    root3_half = tw.from_rational(3).sqrt() * half
    assert failed.witness in (Point(half, -root3_half),
                              Point(half, root3_half))


def test_certificate_bob_excludes_target_at_several_budgets():
    cert = rational_certificate()
    tw = Tower()
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    target = Point(tw.from_rational(2).sqrt(), tw.zero)

    def alice(position, moves):
        n = len(moves)
        pts = position.points
        if n % 2 == 0 or pts[-1] == pts[-2]:
            center = point(tw, Fraction(3, 2) + Fraction(n, 8),
                           Fraction(n % 3, 4))
            return Step("arbitrary", (), (Disk(center, tw.from_rational(1)),))
        return Step("line", (), (pts[-1], pts[-2]))

    for budget in (8, 24):
        record = play([a, b], [], target, alice,
                      certificate_bob(cert, 3), max_moves=budget)
        assert record.outcome == Timeout(budget)
        assert not record.position.contains(target)
        heights = {p.height for p in record.position.points}
        heights |= {c.height for c in record.position.curves}
        assert heights == {0}
