"""End-to-end acceptance: one test per headline capability.

Each test prints a single PASS or FAIL line naming the capability, so
a verbose run reads as a checklist.  Timing bounds are asserted inside
the tests; every numeric claim is checked exactly unless the check is
explicitly about an approximation.
"""

import random
import time
from fractions import Fraction

from euclid import algebra, corpus
from euclid.closure import Budget, closure, derivable, expand_once
from euclid.dsl import SamplingOracle, run
from euclid.dsl.ast import If, While
from euclid.field import Tower
from euclid.game import (ALL_OPS, AliceWins, CertificateBob, Disk, RLine,
                         RPointInDisk, Timeout, certificate_bob,
                         check_certificate, play, rational_certificate,
                         sampling_bob, scripted_alice)
from euclid.geom import Circle, Point, dist2, intersect, point
from euclid.net import densify, grid_gaps, replay_trace, straightedge_only
from euclid.replay import GAP_MAP, transport


class _report:
    """Prints `label: PASS` or `label: FAIL` when the block exits."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.monotonic() - self.start
        print(f"{self.label}: {status} ({elapsed:.2f}s)")
        return False


def _random_element(t, rng, pool):
    x = t.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for p in pool:
        if rng.random() < 0.5:
            x = x + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * p
    return x


def test_exact_tower_arithmetic_at_scale():
    with _report("exact tower arithmetic, 1000 sampled elements"):
        start = time.monotonic()
        t = Tower()
        r2 = t.from_rational(2).sqrt()
        r3 = t.from_rational(3).sqrt()
        nested = (3 + r2).sqrt()
        deep = (r3 + nested + 6).sqrt()
        pool = [r2, r3, nested, deep, r2 * r3]
        assert max(p.height for p in pool) <= 4
        rng = random.Random(1)
        for _ in range(1000):
            a = _random_element(t, rng, pool)
            b = _random_element(t, rng, pool)
            c = _random_element(t, rng, pool)
            assert (a + b) - b == a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if b.sign() != 0:
                assert (a / b) * b == a

        denested = (5 + 2 * (t.from_rational(6).sqrt())).sqrt()
        assert (r2 + r3 - denested).sign() == 0
        assert (r2 + r3).char_poly() == [1, 0, -10, 0, 1]
        assert time.monotonic() - start < 10.0


def test_sqrt3_chord_exact_and_test_free():
    with _report("chord of two unit circles has squared length 3"):
        t = Tower()
        c1 = Circle(point(t, 0, 0), t.one)
        c2 = Circle(point(t, 1, 0), t.one)
        p, q = intersect(c1, c2)
        assert dist2(p, q).as_rational() == 3

        entry = corpus.entry("sqrt3")
        program = entry.program()
        assert corpus.is_test_free(program)
        assert not any(isinstance(st, (If, While))
                       for st in program.body)
        inputs = entry.canonical_inputs(Tower())
        result = run(program, inputs)
        assert entry.postcondition(inputs, result.outputs) is None
        a, b = inputs
        p, q = result.outputs
        assert dist2(p, q) == 3 * dist2(a, b)


def test_degree_criterion_classics():
    with _report("degree criterion on the classical impossibilities"):
        start = time.monotonic()
        for text in ("x^3 - 2", "8x^3 - 6x - 1"):
            verdict = algebra.wantzel_check(algebra.IntPoly.parse(text))
            assert isinstance(verdict, algebra.NotConstructible)
            assert verdict.degree == 3
        verdict = algebra.wantzel_check(algebra.preset("heptagon"))
        assert isinstance(verdict, algebra.NotConstructible)
        verdict = algebra.wantzel_check(algebra.IntPoly.parse("x^2 - 2"))
        assert isinstance(verdict, algebra.NecessaryConditionHolds)
        assert time.monotonic() - start < 1.0


def test_closure_fixed_point_and_midpoint_budget():
    with _report("closure: lone-circle fixed point, midpoint in 3 rounds"):
        start = time.monotonic()
        t = Tower()
        lone = Circle(point(t, 0, 0), t.one)
        res = expand_once([], [lone])
        assert res.complete
        assert res.points == [] and res.curves == [lone]

        t = Tower()
        a, b = point(t, 0, 0), point(t, 2, 0)
        budget = Budget(max_rounds=3, max_objects=5000)
        verdict = derivable(point(t, 1, 0), [a, b], budget=budget)
        assert verdict.derivable and verdict.rounds <= 3
        for entry in verdict.state.trace:
            assert entry.made[0].height <= entry.round
        assert time.monotonic() - start < 30.0


def _statement_count(block) -> int:
    total = 0
    for st in block:
        total += 1
        if isinstance(st, If):
            total += _statement_count(st.then) + _statement_count(st.orelse)
        elif isinstance(st, While):
            total += _statement_count(st.body)
    return total


def test_loop_free_programs_confirmed_by_closure():
    with _report("every loop-free program's outputs appear in the closure"):
        confirmed = 0
        for entry in corpus.entries():
            if entry.expect_fail:
                continue
            program = entry.program()
            if not (corpus.is_loop_free(program)
                    and corpus.is_arbitrary_free(program)):
                continue
            tower = Tower(height_cap=32)
            inputs = entry.canonical_inputs(tower)
            result = run(program, inputs)
            points = [o for o in inputs if isinstance(o, Point)]
            curves = [o for o in inputs if not isinstance(o, Point)]
            budget = Budget(max_rounds=_statement_count(program.body),
                            max_objects=5000)
            for output in result.outputs:
                verdict = derivable(output, points, curves, budget)
                assert verdict.derivable, (entry.name, output)
                confirmed += 1
        assert confirmed >= 6


def test_corpus_passes_for_all_sampled_oracles():
    with _report("corpus verification over 21 inputs x 5 oracle seeds"):
        start = time.monotonic()
        reports = corpus.verify_corpus()
        for report in reports.values():
            assert report.trials >= 100
            assert report.ok, report.verdict()
        broken = reports["incenter_broken"]
        assert not broken.passed
        witness = broken.failures[0]
        assert witness.trace, "witness failure carries its trace"
        assert time.monotonic() - start < 120.0


def test_game_suite_wins_timeouts_and_certificates():
    with _report("game suite: wins, certificate timeout, compass witness"):
        start = time.monotonic()
        midpoint = corpus.load_program("midpoint")
        for bob in (sampling_bob(0), CertificateBob(rational_certificate())):
            t = Tower()
            a, b = point(t, 0, 0), point(t, 2, 0)
            alice = scripted_alice(midpoint, [a, b])
            record = play([a, b], [], point(t, 1, 0), alice, bob)
            assert isinstance(record.outcome, AliceWins)

        center_finder = corpus.load_program("circle_center")
        rng = random.Random(9)
        for seed in range(10):
            t = Tower(height_cap=16)
            cx = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            cy = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            r2 = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            k = Circle(point(t, cx, cy), t.from_rational(r2))
            alice = scripted_alice(center_finder, [k])
            record = play([], [k], k.center, alice, sampling_bob(seed))
            assert isinstance(record.outcome, AliceWins), (seed, cx, cy, r2)

        cert = rational_certificate()
        t = Tower()
        a, b = point(t, 0, 0), point(t, 2, 0)
        root2 = Point(t.from_rational(2).sqrt(), t.zero)
        assert check_certificate(cert, [a, b], [], root2).passed

        def alice(position, moves):
            pts = position.points
            if len(moves) % 2 == 0 or pts[-1] == pts[-2]:
                center = point(t, Fraction(3, 2) + Fraction(len(moves), 8),
                               Fraction(len(moves) % 3, 4))
                return RPointInDisk(Disk(center, t.from_rational(1)))
            return RLine(pts[-1], pts[-2])

        record = play([a, b], [], root2, alice, certificate_bob(cert, 3),
                      max_moves=24)
        assert record.outcome == Timeout(24)
        heights = {p.height for p in record.position.points}
        heights |= {c.height for c in record.position.curves}
        assert heights == {0}

        failed = check_certificate(cert, [a, b], [], root2, ops=ALL_OPS)
        assert not failed.passed and failed.condition == "closure-violation"
        half = t.from_rational(Fraction(1, 2))
        root3_half = t.from_rational(3).sqrt() * half
        assert failed.witness in (Point(half, root3_half),
                                  Point(half, -root3_half))
        assert time.monotonic() - start < 120.0


def _interior_point(t, rng, corners):
    weights = [rng.randint(1, 9) for _ in corners]
    total = sum(weights)
    x = sum(Fraction(w) * c.x.as_rational()
            for w, c in zip(weights, corners)) / total
    y = sum(Fraction(w) * c.y.as_rational()
            for w, c in zip(weights, corners)) / total
    return point(t, x, y)


def test_straightedge_densification_reaches_sampled_targets():
    with _report("straightedge densification to eps=1/64 on 10 targets"):
        start = time.monotonic()
        rng = random.Random(17)
        t = Tower()
        while True:
            corners = [point(t, Fraction(rng.randint(-12, 12), 4),
                             Fraction(rng.randint(-12, 12), 4))
                       for _ in range(3)]
            area2 = (corners[1].x - corners[0].x) * \
                (corners[2].y - corners[0].y) - \
                (corners[1].y - corners[0].y) * (corners[2].x - corners[0].x)
            if area2.sign() != 0 and (area2 * area2 - 4).sign() > 0:
                break
        a, b, c = corners
        d = _interior_point(t, rng, corners)
        eps = Fraction(1, 64)
        for _ in range(10):
            target = _interior_point(t, rng, corners)
            result = densify(a, b, c, d, target, eps)
            gap = dist2(result.point, target) - t.from_rational(eps * eps)
            assert gap.sign() <= 0
            assert straightedge_only(result.trace)
            assert replay_trace(result.trace, [a, b, c, d])
        gaps = grid_gaps(a, b, c, d, 5)
        for tighter, wider in zip(gaps[1:], gaps):
            assert (tighter - wider).sign() <= 0
        assert time.monotonic() - start < 60.0


def test_projective_transport_locates_a_breakpoint():
    with _report("projective gap demo: incidences survive, a fact breaks"):
        start = time.monotonic()
        t = Tower()
        unit = Circle(point(t, 0, 0), t.one)
        assert GAP_MAP.preserves_circle(unit)
        origin = point(t, 0, 0)
        moved = GAP_MAP.apply_point(origin)
        assert moved == point(t, Fraction(3, 5), 0)
        assert moved != origin

        program = corpus.load_program("circle_center")
        result = run(program, [unit], oracle=SamplingOracle(0))
        assert result.outputs[0] == origin
        report = transport(result.trace)
        assert report.incidence_sound
        assert report.breakpoint is not None
        assert report.breakpoint.kind in ("compass", "ordering")
        assert "transported" in report.summary()
        assert time.monotonic() - start < 10.0
