import re

import pytest

from euclid import corpus
from euclid.closure import Budget, derivable
from euclid.dsl import parse_program, run
from euclid.dsl.ast import If, LetArbitrary, LetChoose, While
from euclid.errors import RunAbort
from euclid.field import Tower
from euclid.geom import Line, intersect, point

ALL_NAMES = {
    "midpoint", "perp_bisector", "perp_from_point", "angle_bisector",
    "incenter", "incenter_broken", "circle_center", "point_reflection",
    "compass_midpoint", "compass_line_line", "sqrt3",
}


def test_registry_names_and_flags():
    names = {e.name for e in corpus.entries()}
    assert names == ALL_NAMES
    compass_only = {e.name for e in corpus.entries() if e.compass_only}
    assert compass_only == {"point_reflection", "compass_midpoint",
                            "compass_line_line", "sqrt3"}
    test_free = {e.name for e in corpus.entries() if e.test_free}
    assert test_free == {"midpoint", "perp_bisector", "circle_center",
                         "sqrt3"}
    broken = [e.name for e in corpus.entries() if e.expect_fail]
    assert broken == ["incenter_broken"]
    with pytest.raises(ValueError, match="unknown corpus entry"):
        corpus.entry("nonagon")


def test_all_programs_parse_and_match_their_flags():
    for e in corpus.entries():
        program = e.program()
        assert program.name == e.name


def test_sqrt3_entry_is_test_free_and_compass_only():
    e = corpus.entry("sqrt3")
    assert e.test_free and e.compass_only
    program = e.program()
    assert not corpus.uses(program, If, While, LetChoose, LetArbitrary)


def test_loop_and_arbitrary_classification():
    loops = {e.name for e in corpus.entries()
             if corpus.uses(e.program(), While)}
    assert loops == {"compass_line_line"}
    oracles = {e.name for e in corpus.entries()
               if corpus.uses(e.program(), LetArbitrary)}
    assert oracles == {"perp_from_point", "angle_bisector", "circle_center"}


@pytest.mark.parametrize("name", sorted(ALL_NAMES))
def test_entry_verifies_as_expected(name):
    e = corpus.entry(name)
    report = corpus.verify_entry(e, input_samples=5, oracle_seeds=3)
    assert report.ok, [f.message for f in report.failures[:3]]
    assert report.trials == 18


@pytest.mark.parametrize("input_samples, oracle_seeds",
                         [(2, 0), (2, -1), (-1, 2)])
def test_verify_entry_rejects_counts_that_run_nothing(input_samples,
                                                      oracle_seeds):
    with pytest.raises(ValueError, match="oracle_seeds >= 1"):
        corpus.verify_entry(corpus.entry("midpoint"), input_samples,
                            oracle_seeds)


def test_midpoint_canonical_output_is_exact():
    e = corpus.entry("midpoint")
    tower = Tower()
    inputs = e.canonical_inputs(tower)
    result = run(e.program(), inputs)
    m, = result.outputs
    assert m == point(tower, 1, 0)


def test_broken_entry_fails_on_canonical_input_with_witness():
    e = corpus.entry("incenter_broken")
    report = corpus.verify_entry(e, input_samples=2, oracle_seeds=1)
    assert not report.passed and report.ok
    first = report.failures[0]
    assert first.input_index == 0
    assert first.kind == "postcondition"
    assert "interior" in first.message
    picks = [ev.text for ev in first.trace if ev.rule == "choose"]
    assert picks[0] == "X = choose -> X1"


def test_verification_is_deterministic():
    e = corpus.entry("circle_center")
    def summary():
        report = corpus.verify_entry(e, input_samples=4, oracle_seeds=2)
        return [(f.input_index, f.oracle_seed, f.kind, f.message,
                 [ev.text for ev in f.trace])
                for f in report.failures], report.trials
    assert summary() == summary()


def test_compass_line_line_matches_line_intersection_exactly():
    e = corpus.entry("compass_line_line")
    tower = Tower(height_cap=32)
    inputs = e.canonical_inputs(tower)
    result = run(e.program(), inputs)
    a, b, c, d = inputs
    expected, = intersect(Line.through(a, b), Line.through(c, d))
    assert result.outputs[0] == expected


def test_compass_line_line_fails_honestly_with_insufficient_budget():
    text = corpus.program_text("compass_line_line")
    starved = parse_program(re.sub(r"budget \d+", "budget 0", text))
    tower = Tower(height_cap=32)
    inputs = corpus.entry("compass_line_line").canonical_inputs(tower)
    with pytest.raises(RunAbort) as info:
        run(starved, inputs)
    assert info.value.reason == "while-budget-exhausted"


def test_midpoint_output_is_closure_derivable_within_program_length():
    e = corpus.entry("midpoint")
    tower = Tower()
    a, b = e.canonical_inputs(tower)
    result = run(e.program(), (a, b))
    length = len(e.program().body)
    verdict = derivable(result.outputs[0], [a, b],
                        budget=Budget(max_rounds=length, max_objects=5000))
    assert verdict.derivable and verdict.rounds <= length


def test_verify_corpus_respects_selection_order():
    reports = corpus.verify_corpus(input_samples=1, oracle_seeds=1,
                                   names=["sqrt3", "midpoint"])
    assert list(reports) == ["sqrt3", "midpoint"]
    assert all(r.passed for r in reports.values())
