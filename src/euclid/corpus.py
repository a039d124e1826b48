"""Verified library of classical construction programs.

Each entry couples a program shipped as a `.construct` file with an
exact postcondition, a sampler of valid inputs, and a canonical input
for demos.  `verify_entry` replays the program over sampled inputs
crossed with seeded sampling oracles; a trial fails when the run aborts
or the postcondition is violated, and the report keeps the trace of
every failing trial.  One entry is deliberately broken and is expected
to fail; `verify_corpus` checks that expectations hold across the whole
registry.  `_program_statements` is the one walk over a program's
statements, nested ones included: `uses(program, *kinds)` reads it for
given statement kinds (an entry's `test_free` flag asks for tests), and
`compass_only` reads it for a statement of the line rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .dsl import SamplingOracle, parse_program, run
from .dsl.ast import If, LetChoose, LetStep, Program, While
from .errors import RunAbort
from .field import Tower
from .geom import (
    Circle,
    Line,
    Point,
    dist2,
    intersect,
    midpoint,
    point,
)
from .regions import triangle_cell

DEFAULT_INPUT_SAMPLES = 20
DEFAULT_ORACLE_SEEDS = 5
DEFAULT_HEIGHT_CAP = 32


def _program_statements(block):
    for st in block:
        yield st
        if isinstance(st, If):
            yield from _program_statements(st.then)
            yield from _program_statements(st.orelse)
        elif isinstance(st, While):
            yield from _program_statements(st.body)


def uses(program: Program, *kinds) -> bool:
    """Whether any statement of the program, nested ones included, is an
    instance of one of the given statement classes."""
    return any(isinstance(st, kinds)
               for st in _program_statements(program.body))


_programs: dict[str, Program] = {}


def program_text(name: str) -> str:
    """Source text of a shipped construction program."""
    path = resources.files("euclid") / "corpus_programs" / f"{name}.construct"
    return path.read_text(encoding="utf-8")


def load_program(name: str) -> Program:
    """Parsed and checked program for a corpus entry, cached by name."""
    if name not in _programs:
        _programs[name] = parse_program(program_text(name))
    return _programs[name]


@dataclass(frozen=True)
class CorpusEntry:
    """A shipped construction with its contract.

    `postcondition(inputs, outputs)` returns None when the contract
    holds and a violation message otherwise; it must decide with exact
    predicates only.  `sample_inputs(rng, tower)` draws one valid input
    tuple; `canonical_inputs(tower)` builds a fixed well-known one.
    `compass_only` and `test_free` are read off the program text.
    """

    name: str
    summary: str
    postcondition: object
    sample_inputs: object
    canonical_inputs: object
    expect_fail: bool = False

    def program(self) -> Program:
        return load_program(self.name)

    @property
    def compass_only(self) -> bool:
        """Whether the program never draws a line."""
        return not any(isinstance(st, LetStep) and st.rule == "line"
                       for st in _program_statements(self.program().body))

    @property
    def test_free(self) -> bool:
        """Whether the program runs without evaluating any predicate."""
        return not uses(self.program(), If, While, LetChoose)


@dataclass(frozen=True)
class TrialFailure:
    """One failing verification run and the trace to study it."""

    input_index: int
    oracle_seed: int
    kind: str               # "abort" or "postcondition"
    message: str
    trace: tuple


@dataclass(frozen=True)
class EntryReport:
    name: str
    trials: int
    failures: tuple
    expect_fail: bool

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def ok(self) -> bool:
        """Whether the verification outcome matches the expectation."""
        return self.passed != self.expect_fail

    def verdict(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        note = " (expected failure)" if self.expect_fail and not self.passed \
            else ""
        return f"{word}: {self.name} ({self.trials} trials){note}"


# ---------------------------------------------------------------------------
# Input samplers.  All draws are plain rationals so that replaying the
# rng state rebuilds identical inputs inside any tower session.

def _coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))


def _distinct_pairs(rng: random.Random, count: int):
    while True:
        pts = [(_coord(rng), _coord(rng)) for _ in range(count)]
        if len(set(pts)) == count:
            return pts


def _sample_two_points(rng, tower):
    (ax, ay), (bx, by) = _distinct_pairs(rng, 2)
    return point(tower, ax, ay), point(tower, bx, by)


def _canon_two_points(tower):
    return point(tower, 0, 0), point(tower, 2, 0)


def _sample_triangle(rng, tower):
    while True:
        (ax, ay), (bx, by), (cx, cy) = _distinct_pairs(rng, 3)
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0:
            a = point(tower, ax, ay)
            b = point(tower, bx, by)
            c = point(tower, cx, cy)
            return a, b, c


def _canon_triangle(tower):
    a = point(tower, 0, 0)
    b = point(tower, 2, 0)
    c = Point(tower.from_rational(1), tower.from_rational(3).sqrt())
    return a, b, c


def _sample_line_and_point(rng, tower):
    (x1, y1), (x2, y2) = _distinct_pairs(rng, 2)
    l = Line.through(point(tower, x1, y1), point(tower, x2, y2))
    if rng.random() < 0.25:
        t = Fraction(rng.randint(-8, 8), 4)
        px = x1 + t * (x2 - x1)
        py = y1 + t * (y2 - y1)
    else:
        px, py = _coord(rng), _coord(rng)
    return l, point(tower, px, py)


def _canon_line_and_point(tower):
    l = Line.through(point(tower, 0, 0), point(tower, 1, 0))
    return l, point(tower, 1, 2)


def _sample_crossing_lines(rng, tower):
    ox, oy = _coord(rng), _coord(rng)
    while True:
        d1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        d2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        if d1 == (0, 0) or d2 == (0, 0):
            continue
        if d1[0] * d2[1] - d1[1] * d2[0] == 0:
            continue
        o = point(tower, ox, oy)
        l1 = Line.through(o, point(tower, ox + d1[0], oy + d1[1]))
        l2 = Line.through(o, point(tower, ox + d2[0], oy + d2[1]))
        return l1, l2, o


def _canon_crossing_lines(tower):
    o = point(tower, 0, 0)
    l1 = Line.through(o, point(tower, 1, 0))
    l2 = Line.through(o, point(tower, 0, 1))
    return l1, l2, o


def _sample_circle(rng, tower):
    cx, cy = _coord(rng), _coord(rng)
    r2 = Fraction(rng.randint(1, 16), rng.choice((1, 2, 4)))
    return (Circle(point(tower, cx, cy), tower.from_rational(r2)),)


def _canon_circle(tower):
    return (Circle(point(tower, 0, 0), tower.from_rational(1)),)


def _sample_two_crossing_segment_lines(rng, tower):
    while True:
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = _distinct_pairs(rng, 4)
        if (bx - ax) * (dy - cy) - (by - ay) * (dx - cx) == 0:
            continue       # parallel or coincident carrier lines
        if (bx - ax) * (dy - ay) - (by - ay) * (dx - ax) == 0:
            continue       # D on line AB
        if (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx) == 0:
            continue       # A on line CD
        return (point(tower, ax, ay), point(tower, bx, by),
                point(tower, cx, cy), point(tower, dx, dy))


def _canon_two_crossing_segment_lines(tower):
    return (point(tower, 0, 0), point(tower, 1, 0),
            point(tower, 3, 1), point(tower, 3, -2))


# ---------------------------------------------------------------------------
# Postconditions.  Each returns None on success or a violation message.

def _post_midpoint(inputs, outputs):
    a, b = inputs
    m, = outputs
    if m != midpoint(a, b):
        return "output is not the midpoint of AB"
    return None


def _post_perp_bisector(inputs, outputs):
    a, b = inputs
    pb, = outputs
    if not pb.contains(midpoint(a, b)):
        return "bisector misses the midpoint of AB"
    dx, dy = pb.direction()
    if (b.x - a.x) * dx + (b.y - a.y) * dy:
        return "bisector is not perpendicular to AB"
    return None


def _post_perp_from_point(inputs, outputs):
    l, p = inputs
    perp, = outputs
    if not perp.contains(p):
        return "perpendicular misses the given point"
    lx, ly = l.direction()
    px, py = perp.direction()
    if lx * px + ly * py:
        return "output is not perpendicular to the given line"
    return None


def _post_angle_bisector(inputs, outputs):
    l1, l2, o = inputs
    bis, = outputs
    if not bis.contains(o):
        return "bisector misses the vertex"
    dx, dy = bis.direction()
    w = Point(o.x + dx, o.y + dy)
    e1, e2 = l1.eval(w), l2.eval(w)
    n1 = l1.a * l1.a + l1.b * l1.b
    n2 = l2.a * l2.a + l2.b * l2.b
    if e1 * e1 * n2 - e2 * e2 * n1:
        return "bisector points are not equidistant from the two lines"
    return None


def _post_incenter(inputs, outputs):
    i, = outputs
    cell = triangle_cell(*inputs)
    if not cell.contains(i):
        return "center is not strictly interior to the triangle"
    (lab, _), (lbc, _), (lca, _) = cell.conds
    nab = lab.a * lab.a + lab.b * lab.b
    nbc = lbc.a * lbc.a + lbc.b * lbc.b
    nca = lca.a * lca.a + lca.b * lca.b
    eab, ebc, eca = lab.eval(i), lbc.eval(i), lca.eval(i)
    if eab * eab * nbc - ebc * ebc * nab:
        return "center is not equidistant from sides AB and BC"
    if ebc * ebc * nca - eca * eca * nbc:
        return "center is not equidistant from sides BC and CA"
    return None


def _post_circle_center(inputs, outputs):
    k, = inputs
    o, = outputs
    if o != k.center:
        return "output differs from the circle's center"
    return None


def _post_point_reflection(inputs, outputs):
    a, b = inputs
    r, = outputs
    if r != Point(b.x + b.x - a.x, b.y + b.y - a.y):
        return "output is not the reflection of A through B"
    return None


def _post_compass_line_line(inputs, outputs):
    a, b, c, d = inputs
    x, = outputs
    expected = intersect(Line.through(a, b), Line.through(c, d))
    if len(expected) != 1 or x != expected[0]:
        return "output is not the crossing of lines AB and CD"
    return None


def _post_sqrt3(inputs, outputs):
    a, b = inputs
    p, q = outputs
    if dist2(p, q) - 3 * dist2(a, b):
        return "chord squared length is not three times the base"
    return None


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "midpoint",
        "Midpoint of a segment via the equal-circle chord.",
        _post_midpoint, _sample_two_points, _canon_two_points),
    CorpusEntry(
        "perp_bisector",
        "Perpendicular bisector of a segment.",
        _post_perp_bisector, _sample_two_points, _canon_two_points),
    CorpusEntry(
        "perp_from_point",
        "Perpendicular to a line through a point, on or off the line.",
        _post_perp_from_point, _sample_line_and_point,
        _canon_line_and_point),
    CorpusEntry(
        "angle_bisector",
        "Bisector of the angle of two lines at their crossing.",
        _post_angle_bisector, _sample_crossing_lines,
        _canon_crossing_lines),
    CorpusEntry(
        "incenter",
        "Incenter of a triangle from two internal angle bisectors.",
        _post_incenter, _sample_triangle, _canon_triangle),
    CorpusEntry(
        "incenter_broken",
        "Broken incenter that skips a ray test and drifts to an excenter.",
        _post_incenter, _sample_triangle, _canon_triangle,
        expect_fail=True),
    CorpusEntry(
        "circle_center",
        "Center of a circle from two chords' perpendicular bisectors.",
        _post_circle_center, _sample_circle, _canon_circle),
    CorpusEntry(
        "point_reflection",
        "Compass-only reflection of a point through another.",
        _post_point_reflection, _sample_two_points, _canon_two_points),
    CorpusEntry(
        "compass_midpoint",
        "Compass-only midpoint of a segment.",
        _post_midpoint, _sample_two_points, _canon_two_points),
    CorpusEntry(
        "compass_line_line",
        "Compass-only crossing of two lines given by point pairs.",
        _post_compass_line_line, _sample_two_crossing_segment_lines,
        _canon_two_crossing_segment_lines),
    CorpusEntry(
        "sqrt3",
        "Segment of squared length three times the base, with no tests.",
        _post_sqrt3, _sample_two_points, _canon_two_points),
)

_BY_NAME = {e.name: e for e in CORPUS}


def entries() -> tuple[CorpusEntry, ...]:
    return CORPUS


def entry(name: str) -> CorpusEntry:
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown corpus entry {name!r} (known: {known})")
    return _BY_NAME[name]


def verify_entry(e: CorpusEntry,
                 input_samples: int = DEFAULT_INPUT_SAMPLES,
                 oracle_seeds: int = DEFAULT_ORACLE_SEEDS,
                 base_seed: int = 0) -> EntryReport:
    """Replay an entry over sampled inputs crossed with oracle seeds.

    Input 0 is always the canonical input; the rest are drawn from the
    entry's sampler.  Every trial runs in a fresh tower session capped
    at DEFAULT_HEIGHT_CAP.  A trial fails when the run aborts or the
    postcondition returns a violation; all failures are collected with
    their traces.  Raises ValueError when oracle_seeds < 1 or
    input_samples < 0, since either would run no trial and report a
    vacuous pass.
    """
    if oracle_seeds < 1 or input_samples < 0:
        raise ValueError(f"verify needs oracle_seeds >= 1 and "
                         f"input_samples >= 0, got {oracle_seeds} and "
                         f"{input_samples}")
    program = e.program()
    rng = random.Random(f"{base_seed}:{e.name}")
    failures = []
    trials = 0
    for index in range(input_samples + 1):
        state = rng.getstate()
        for seed in range(oracle_seeds):
            rng.setstate(state)
            tower = Tower(height_cap=DEFAULT_HEIGHT_CAP)
            if index == 0:
                inputs = e.canonical_inputs(tower)
            else:
                inputs = e.sample_inputs(rng, tower)
            trials += 1
            try:
                result = run(program, inputs, oracle=SamplingOracle(seed))
            except RunAbort as exc:
                failures.append(TrialFailure(
                    index, seed, "abort", str(exc),
                    tuple(exc.trace or ())))
                continue
            message = e.postcondition(inputs, result.outputs)
            if message is not None:
                failures.append(TrialFailure(
                    index, seed, "postcondition", message,
                    tuple(result.trace)))
    return EntryReport(e.name, trials, tuple(failures), e.expect_fail)


def verify_corpus(input_samples: int = DEFAULT_INPUT_SAMPLES,
                  oracle_seeds: int = DEFAULT_ORACLE_SEEDS,
                  names=None) -> dict[str, EntryReport]:
    """Verify selected entries (default all), in registry order."""
    selected = CORPUS if names is None else tuple(entry(n) for n in names)
    return {e.name: verify_entry(e, input_samples, oracle_seeds)
            for e in selected}
