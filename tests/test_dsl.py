from fractions import Fraction

import pytest

from euclid.dsl import (
    ReplayOracle,
    SamplingOracle,
    parse_program,
    recorded_answers,
    run,
)
from euclid.dsl import interp
from euclid.dsl.interp import requests
from euclid.errors import CheckError, ParseError, RunAbort
from euclid.field import Tower
from euclid.geom import Circle, Line, dist2, point
from euclid.geom import intersect as geom_intersect

MIDPOINT = """
construction midpoint(point A, point B) {
  let c1 = circle(A; A, B);
  let c2 = circle(B; A, B);
  let [P, Q] = intersect(c1, c2);
  let l = line(P, Q);
  let ab = line(A, B);
  let [M] = intersect(l, ab);
  return M;
}
"""

HALVER = """
construction halver(point A, point B, point T) {{
  let lab = line(A, B);
  let cb = circle(A; A, B);
  let [Mneg, M] = intersect(lab, cb);
  while not dist_le(A, M, A, T) budget {budget} {{
    let c1 = circle(A; A, M);
    let c2 = circle(M; A, M);
    let [P, Q] = intersect(c1, c2);
    let lm = line(P, Q);
    let [M] = intersect(lm, lab);
  }}
  return M;
}}
"""


@pytest.fixture
def tw():
    return Tower()


def test_midpoint_parses_to_six_statements():
    prog = parse_program(MIDPOINT)
    assert prog.name == "midpoint"
    assert len(prog.body) == 6
    assert prog.returns == ("M",)


def test_midpoint_runs_exactly(tw):
    prog = parse_program(MIDPOINT)
    res = run(prog, [point(tw, 0, 0), point(tw, 2, 0)])
    m, = res.outputs
    assert m == point(tw, 1, 0)
    assert m.x == 1 and m.y == 0
    # comments and squeezed whitespace parse to the same program
    squeezed = MIDPOINT.replace("\n", " ") + "  # trailing comment\n"
    assert parse_program(squeezed) == prog


def test_requests_bind_the_objects_sent_back(tw):
    # Each construction request is answered with objects built here; the
    # interpreter builds none itself, so later requests take these very
    # objects as operands, and each request step is filled with them.
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    steps = requests(parse_program(MIDPOINT), [a, b])
    first = steps.send(None)
    assert (first.rule, first.made, first.parents) == ("circle", (), (a, a, b))
    k1 = Circle(a, dist2(a, b))
    second = steps.send((k1,))
    assert first.made == (k1,)
    assert (second.rule, second.parents) == ("circle", (b, a, b))
    k2 = Circle(b, dist2(a, b))
    cross = steps.send((k2,))
    assert cross.rule == "intersect"
    assert cross.parents[0] is k1 and cross.parents[1] is k2
    pq = tuple(geom_intersect(k1, k2))
    chord = steps.send(pq)
    assert cross.made == pq
    assert chord.rule == "line"
    assert chord.parents[0] is pq[0] and chord.parents[1] is pq[1]
    l = Line.through(*pq)
    assert steps.send((l,)).parents == (a, b)
    ab = Line.through(a, b)
    last = steps.send((ab,))
    assert last.parents[0] is l and last.parents[1] is ab
    with pytest.raises(StopIteration):
        steps.send(tuple(geom_intersect(l, ab)))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as ei:
        parse_program("construction x() { return A }")   # missing semicolon
    assert ei.value.line == 1
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program("construction x() { let a = 3 % 4; return a; }")
    with pytest.raises(ParseError, match="trailing"):
        parse_program(MIDPOINT + "extra")
    with pytest.raises(ParseError, match="one or two"):
        parse_program("""
            construction x(line g, line h) {
              let [A, B, C] = intersect(g, h);
              return A;
            }""")
    with pytest.raises(ParseError, match="positive"):
        parse_program("""
            construction x(point A) {
              let P = arbitrary in_disk(A, 0);
              return P;
            }""")


def test_check_errors():
    with pytest.raises(CheckError, match="unknown name"):
        parse_program("construction x(point A) { let l = line(A, B); return l; }")
    with pytest.raises(CheckError, match="already bound"):
        parse_program("""
            construction x(point A, point B) {
              let l = line(A, B);
              let l = line(B, A);
              return l;
            }""")
    with pytest.raises(CheckError, match="needs point"):
        parse_program("construction x(line g, line h) { let l = line(g, h); return l; }")
    with pytest.raises(CheckError, match="itself"):
        parse_program("construction x(line g) { let [P] = intersect(g, g); return P; }")
    with pytest.raises(CheckError, match="takes 3 arguments"):
        parse_program("""
            construction x(point A, point B) {
              let l = line(A, B);
              if between(A, B) { }
              return l;
            }""")
    with pytest.raises(CheckError, match="not always bound"):
        parse_program("construction x(point A, point B) { return C; }")
    with pytest.raises(CheckError, match="zero radius"):
        parse_program("construction x(point A, point B) { let c = circle(A; B, B); return c; }")
    with pytest.raises(CheckError, match="share one kind"):
        parse_program("""
            construction x(point A, line g) {
              let c = choose(A, g | on(c, g));
              return c;
            }""")


# Malformed statements and tests and the full message each gives,
# position included.  Each body sits on line 2 of a program whose
# parameters are points A, B and lines g, h.
STATEMENT_ERRORS = [
    ('let c = circle(A, A, B);', ParseError,
     "expected ';', found ',' at line 2, col 19"),
    ('let [P] = line(A, B);', ParseError,
     "expected 'intersect', found 'line' at line 2, col 13"),
    ('let P = intersect(g, h);', ParseError,
     'intersect bindings use let [N] = intersect(...) at line 2, col 11'),
    ('let [P, Q, R] = intersect(g, h);', ParseError,
     'intersect binds one or two names at line 2, col 3'),
    ('let l = line(A; B);', ParseError,
     "expected ',', found ';' at line 2, col 17"),
    ('let c = circle(A; B; A);', ParseError,
     "expected ',', found ';' at line 2, col 22"),
    ('let l = line(A);', ParseError,
     "expected ',', found ')' at line 2, col 17"),
    ('let l = line A, B;', ParseError,
     "expected '(', found 'A' at line 2, col 16"),
    ('let [P] = intersect(g, h, g);', ParseError,
     "expected ')', found ',' at line 2, col 27"),
    ('let [] = intersect(g, h);', ParseError,
     "expected 'NAME', found ']' at line 2, col 8"),
    ('let l = segment(A, B);', ParseError,
     "unknown statement head 'segment' at line 2, col 11"),
    ('let l = line(A, A);', CheckError,
     'line 2, col 3: line through a point and itself'),
    ('let c = circle(A; B, B);', CheckError,
     'line 2, col 3: circle with zero radius pair'),
    ('let [P] = intersect(g, g);', CheckError,
     'line 2, col 3: intersect of a curve with itself'),
    ('let [P] = intersect(A, g);', CheckError,
     "line 2, col 3: intersect needs line or circle, but 'A' is a point"),
    ('let l = line(g, A);', CheckError,
     "line 2, col 3: line needs point, but 'g' is a line"),
    ('let c = circle(A; A, g);', CheckError,
     "line 2, col 3: circle needs point, but 'g' is a line"),
    ('let [P, P] = intersect(g, h);', CheckError,
     'line 2, col 3: duplicate intersection binding names'),
    ('let l = line(A, Z);', CheckError,
     "line 2, col 3: unknown name 'Z'"),
    ('let A = line(A, B);', CheckError,
     "line 2, col 3: 'A' is already bound; rebinding is only allowed inside while bodies"),
    ('while ccw(A, B, A) budget 1 { let x = line(A, B); let x = circle(A; A, B); }', CheckError,
     "line 2, col 53: rebinding 'x' changes its kind from line to circle"),
    ('while ccw(A, B, A) budget 1 { let [g] = intersect(g, h); }', CheckError,
     "line 2, col 33: rebinding 'g' changes its kind from line to point"),
    # tests: arity, each test's operand kinds, unknown tests and names
    ('if ccw(A, B) { }', CheckError,
     'line 2, col 6: ccw takes 3 arguments, got 2'),
    ('if equal(A, g) { }', CheckError,
     'line 2, col 6: equal compares same-kind objects, got point and line'),
    ('if equal(g, A) { }', CheckError,
     'line 2, col 6: equal compares same-kind objects, got line and point'),
    ('if on(g, A) { }', CheckError,
     "line 2, col 6: on needs point, but 'g' is a line"),
    ('if on(A, B) { }', CheckError,
     "line 2, col 6: on needs line or circle, but 'B' is a point"),
    ('if intersects(A, g) { }', CheckError,
     "line 2, col 6: intersects needs line or circle, but 'A' is a point"),
    ('if intersects(g, A) { }', CheckError,
     "line 2, col 6: intersects needs line or circle, but 'A' is a point"),
    ('if between(A, B, g) { }', CheckError,
     "line 2, col 6: between needs point, but 'g' is a line"),
    ('if dist_le(A, B, A, g) { }', CheckError,
     "line 2, col 6: dist_le needs point, but 'g' is a line"),
    ('if dist_eq(g, B, A, B) { }', CheckError,
     "line 2, col 6: dist_eq needs point, but 'g' is a line"),
    ('if ccw(A, g, B) { }', CheckError,
     "line 2, col 6: ccw needs point, but 'g' is a line"),
    ('if side(A) { }', ParseError,
     "unknown test 'side' at line 2, col 6"),
    ('if ccw(A, B, Z) { }', CheckError,
     "line 2, col 6: unknown name 'Z'"),
    ('if equal(Z, A) { }', CheckError,
     "line 2, col 6: unknown name 'Z'"),
    ('if on(A, Z) { }', CheckError,
     "line 2, col 6: unknown name 'Z'"),
    ('while not between(A, Z, B) budget 1 { }', CheckError,
     "line 2, col 9: unknown name 'Z'"),
    ('let P = choose(A, B | on(P, A));', CheckError,
     "line 2, col 25: on needs line or circle, but 'A' is a point"),
    ('let P = choose(A, B | dist_le(P, A, B));', CheckError,
     'line 2, col 25: dist_le takes 4 arguments, got 3'),
]


@pytest.mark.parametrize("body, kind, message", STATEMENT_ERRORS)
def test_statement_error_messages(body, kind, message):
    text = ("construction x(point A, point B, line g, line h) {\n"
            f"  {body}\n  return A;\n}}")
    with pytest.raises(kind) as ei:
        parse_program(text)
    assert type(ei.value) is kind
    assert str(ei.value) == message


def test_branch_bindings_must_merge():
    text = """
        construction x(point A, point B, point C) {{
          let l = line(A, B);
          if ccw(A, B, C) {{
            let m = line(A, C);
          }} {}
          return m;
        }}
    """
    with pytest.raises(CheckError, match="not always bound"):
        parse_program(text.format(""))
    prog = parse_program(text.format("else { let m = line(B, C); }"))
    assert len(prog.body) == 2


def test_rebinding_allowed_only_in_while(tw):
    prog = parse_program(HALVER.format(budget=3))
    res = run(prog, [point(tw, 0, 0), point(tw, 8, 0), point(tw, 1, 0)])
    m, = res.outputs
    assert m == point(tw, 1, 0)


def test_while_budget_exhausted_aborts(tw):
    prog = parse_program(HALVER.format(budget=2))
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 8, 0), point(tw, 1, 0)])
    assert ei.value.reason == "while-budget-exhausted"
    assert ei.value.trace


def test_while_budget_zero_with_true_test_aborts(tw):
    prog = parse_program("""
        construction x(point A, point B, point C) {
          while ccw(A, B, C) budget 0 { }
          return A;
        }""")
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 1, 0), point(tw, 0, 1)])
    assert ei.value.reason == "while-budget-exhausted"
    # with a false test the loop is skipped entirely
    res = run(prog, [point(tw, 0, 0), point(tw, 0, 1), point(tw, 1, 0)])
    assert res.outputs[0] == point(tw, 0, 0)


def test_intersection_count_mismatch(tw):
    prog = parse_program("""
        construction x(point A, point B, point C, point D) {
          let g = line(A, B);
          let h = line(C, D);
          let [P, Q] = intersect(g, h);
          return P;
        }""")
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 1, 0),
                   point(tw, 0, 1), point(tw, 1, 1)])
    assert ei.value.reason == "intersection-count-mismatch"


def test_parallels_give_empty_intersection_mismatch(tw):
    prog = parse_program("""
        construction x(point A, point B, point C, point D) {
          let g = line(A, B);
          let h = line(C, D);
          let [P] = intersect(g, h);
          return P;
        }""")
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 1, 0),
                   point(tw, 0, 1), point(tw, 1, 1)])
    assert ei.value.reason == "intersection-count-mismatch"
    res = run(prog, [point(tw, 0, 0), point(tw, 1, 0),
                     point(tw, 1, 1), point(tw, 1, 2)])
    assert res.outputs[0] == point(tw, 1, 0)


def test_choose_selects_unique_candidate(tw):
    prog = parse_program("""
        construction upper(point A, point B) {
          let c1 = circle(A; A, B);
          let c2 = circle(B; A, B);
          let [P, Q] = intersect(c1, c2);
          let ab = line(A, B);
          let U = choose(P, Q | ccw(A, B, U));
          return U;
        }""")
    res = run(prog, [point(tw, 0, 0), point(tw, 2, 0)])
    u, = res.outputs
    assert u.x == 1 and u.y.sign() > 0
    assert (u.y * u.y) == 3


def test_choose_ambiguous_aborts(tw):
    both_pass = parse_program("""
        construction x(point A, point B) {
          let c1 = circle(A; A, B);
          let c2 = circle(B; A, B);
          let [P, Q] = intersect(c1, c2);
          let U = choose(P, Q | on(U, c1));
          return U;
        }""")
    none_pass = parse_program("""
        construction x(point A, point B) {
          let c1 = circle(A; A, B);
          let c2 = circle(B; A, B);
          let [P, Q] = intersect(c1, c2);
          let U = choose(P, Q | not on(U, c1));
          return U;
        }""")
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    with pytest.raises(RunAbort) as ei:
        run(both_pass, [a, b])        # both candidates lie on c1
    assert ei.value.reason == "choose-ambiguous"
    with pytest.raises(RunAbort) as ei:
        run(none_pass, [a, b])
    assert ei.value.reason == "choose-ambiguous"


def test_degenerate_step_aborts(tw):
    prog = parse_program("""
        construction x(point A, point B) {
          let l = line(A, B);
          return l;
        }""")
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 1, 1), point(tw, 1, 1)])
    assert ei.value.reason == "degenerate-step"


# A run's abort names the statement whose request failed.
RUN_ABORTS = [
    ("let l = line(A, B);", [(1, 1), (1, 1), (0, 0), (0, 0)],
     "degenerate-step: line l: line through two identical points"),
    ("let c = circle(A; B, C);", [(0, 0), (1, 1), (1, 1), (0, 0)],
     "degenerate-step: circle c: circle needs a positive squared radius"),
    ("let g = line(A, B); let h = line(C, D); let [P] = intersect(g, h);",
     [(0, 0), (1, 0), (2, 0), (3, 0)],
     "degenerate-step: intersect(g, h): identical lines"),
    ("let g = line(A, B); let h = line(C, D); let [P, Q] = intersect(g, h);",
     [(0, 0), (1, 0), (0, 1), (1, 1)],
     "intersection-count-mismatch: intersect(g, h) gave 0 points, "
     "statement binds 2"),
    ("let X = arbitrary in_disk(A, 1);", [(0, 0), (1, 0), (2, 0), (3, 0)],
     "oracle-violation: arbitrary X: answer (<5 ~ 5>, <5 ~ 5>) is outside "
     "the requested region"),
]


@pytest.mark.parametrize("body, coords, message", RUN_ABORTS)
def test_run_abort_messages(tw, body, coords, message):
    prog = parse_program("construction x(point A, point B, point C, "
                         f"point D) {{ {body} return A; }}")
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, x, y) for x, y in coords],
            ReplayOracle([point(tw, 5, 5)]))
    assert str(ei.value) == message
    assert ei.value.trace[-1].label == message


def test_step_budget(tw, monkeypatch):
    monkeypatch.setattr(interp, "MAX_STEPS", 3)
    prog = parse_program(MIDPOINT)
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 2, 0)])
    assert ei.value.reason == "step-budget-exhausted"


ARBITRARY = """
construction arb(point A, point B) {
  let c = circle(A; A, B);
  let X = arbitrary in_disk(A, 1/4);
  let Y = arbitrary in_cell(inside(c));
  return X, Y;
}
"""


def test_arbitrary_in_disk_and_cell(tw):
    prog = parse_program(ARBITRARY)
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    res = run(prog, [a, b], oracle=SamplingOracle(5))
    x, y = res.outputs
    assert dist2(x, a) < tw.from_rational(Fraction(1, 4))
    assert dist2(y, a) < tw.from_rational(4)
    assert x != y                      # answers avoid existing objects
    assert x.height == 0 and y.height == 0


def test_runs_are_deterministic_and_replayable(tw):
    prog = parse_program(ARBITRARY)
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    first = run(prog, [a, b], oracle=SamplingOracle(9))
    second = run(prog, [a, b], oracle=SamplingOracle(9))
    assert [e.text for e in first.trace] == [e.text for e in second.trace]
    assert first.outputs == second.outputs
    replay = run(prog, [a, b],
                 oracle=ReplayOracle(recorded_answers(first.trace)))
    assert replay.outputs == first.outputs


def test_oracle_violation_aborts(tw):
    prog = parse_program(ARBITRARY)
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    with pytest.raises(RunAbort) as ei:
        run(prog, [a, b], oracle=ReplayOracle([point(tw, 5, 5), point(tw, 5, 5)]))
    assert ei.value.reason == "oracle-violation"


def test_region_scan_exhausted(tw):
    prog = parse_program("""
        construction x(point A, point B, point C) {
          let c1 = circle(A; A, C);
          let c2 = circle(B; A, C);
          let X = arbitrary in_cell(inside(c1), inside(c2));
          return X;
        }""")
    # unit disks around (0,0) and (9,0) share no interior point
    with pytest.raises(RunAbort) as ei:
        run(prog, [point(tw, 0, 0), point(tw, 9, 0), point(tw, 1, 0)],
            oracle=SamplingOracle(0))
    assert ei.value.reason == "region-scan-exhausted"


def test_intersects_test_is_total(tw):
    prog = parse_program("""
        construction x(point A, point B) {
          let c1 = circle(A; A, B);
          let c2 = circle(A; B, A);
          if intersects(c1, c2) { } else { let zz = line(A, B); }
          return A;
        }""")
    # c1 and c2 are the same circle under two names; the test still answers
    res = run(prog, [point(tw, 0, 0), point(tw, 1, 0)])
    assert any("intersects(c1, c2) -> True" in e.text for e in res.trace)


def test_input_binding_styles(tw):
    prog = parse_program(MIDPOINT)
    a, b = point(tw, 0, 0), point(tw, 2, 0)
    by_name = run(prog, {"A": a, "B": b})
    assert by_name.outputs[0] == point(tw, 1, 0)
    with pytest.raises(ValueError, match="missing inputs"):
        run(prog, {"A": a})
    with pytest.raises(ValueError, match="must be a point"):
        run(prog, [a, Line.through(a, b)])
