"""The four benchmark workloads: seeded inputs, timed ops, output checks.

A workload builds one *pass*: a fixed list of ops made from the seed
during set-up.  The runner repeats the pass, so every pass does exactly
the same work and per-pass counts repeat.  A pass is a sequence of
blocks of `block` ops, each block holding the workload's mix of op
kinds; timed runs stop at a block boundary.  The mix is chosen so that
the median and 90th-percentile latencies land inside one kind of op
rather than on the edge between two kinds.

Each op builds its inputs in a fresh tower from plain rationals, calls
the public `euclid` API and returns what it needs for its check.  A
check compares the result with a reference the benchmark derives on
its own: closed forms in exact rationals or floats, hand counts, an
independent rational straightedge closure, and `sympy` for densify
distances.  A check returns None when the answer is right and a message
when it is wrong.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from euclid import corpus
from euclid.closure import ALL_OPS, Budget, closure, derivable
from euclid.configfile import parse_scene
from euclid.dsl import SamplingOracle, run
from euclid.field import Tower
from euclid.game import (STRAIGHTEDGE_OPS, AliceWins, CertificateBob, RLine,
                         RPointInDisk, Timeout, certificate_bob,
                         check_certificate, play, rational_certificate,
                         sampling_bob, scripted_alice)
from euclid.geom import Circle, Line, Point, point
from euclid.net import densify, replay_trace, straightedge_only
from euclid.regions import Disk
from euclid.render import auto_viewport, render_svg
from euclid.replay import GAP_MAP, transport

CONFIGS = Path("configs")
TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    """A pass of ops; `observe` sees each checked output, `finish`
    returns the problems found across the whole run."""

    name: str
    block: int
    ops: list

    def observe(self, op: Op, out) -> None:
        pass

    def finish(self) -> list[str]:
        return []


def _q(x) -> Fraction:
    return x.as_rational()


def _rational_point(p: Point):
    if not (p.x.is_rational() and p.y.is_rational()):
        return None
    return (_q(p.x), _q(p.y))


def _rational_line(line: Line):
    coeffs = (line.a, line.b, line.c)
    if not all(v.is_rational() for v in coeffs):
        return None
    return tuple(_q(v) for v in coeffs)


def _fpt(p: Point) -> tuple[float, float]:
    return (p.x.to_float(), p.y.to_float())


def _close(u, v, scale=1.0) -> bool:
    return all(abs(a - b) <= TOL * max(1.0, scale, abs(a), abs(b))
               for a, b in zip(u, v))


def _norm_line(a: Fraction, b: Fraction, c: Fraction):
    """Line coefficients scaled so the first nonzero of (a, b) is 1."""
    k = a if a != 0 else b
    return (a / k, b / k, c / k)


def _line_through(p, q):
    (px, py), (qx, qy) = p, q
    a, b = qy - py, px - qx
    return (a, b, -(a * px + b * py))


def _cramer(a, b, c, d):
    """Crossing of lines AB and CD from rational coordinates."""
    a1, b1 = b[1] - a[1], a[0] - b[0]
    c1 = a1 * a[0] + b1 * a[1]
    a2, b2 = d[1] - c[1], c[0] - d[0]
    c2 = a2 * c[0] + b2 * c[1]
    det = a1 * b2 - a2 * b1
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def _incenter_f(a, b, c):
    la, lb, lc = math.dist(b, c), math.dist(c, a), math.dist(a, b)
    s = la + lb + lc
    return ((la * a[0] + lb * b[0] + lc * c[0]) / s,
            (la * a[1] + lb * b[1] + lc * c[1]) / s)


def _line_f(line: Line):
    return (line.a.to_float(), line.b.to_float(), line.c.to_float())


# ---------------------------------------------------------------------------
# Independent references for corpus outputs.

def _reference_problem(name: str, inputs, outputs) -> str | None:
    """Compare a corpus entry's outputs with its closed form."""
    if name in ("midpoint", "compass_midpoint", "point_reflection",
                "compass_line_line", "circle_center"):
        got = _rational_point(outputs[0])
        if got is None:
            return "output point is not rational"
        if name == "circle_center":
            want = _rational_point(inputs[0].center)
        else:
            pts = [_rational_point(p) for p in inputs]
            if name == "point_reflection":
                (ax, ay), (bx, by) = pts
                want = (2 * bx - ax, 2 * by - ay)
            elif name == "compass_line_line":
                want = _cramer(*pts)
            else:
                (ax, ay), (bx, by) = pts
                want = ((ax + bx) / 2, (ay + by) / 2)
        return None if got == want else f"expected {want}, got {got}"
    if name in ("perp_bisector", "perp_from_point"):
        got = _rational_line(outputs[0])
        if got is None:
            return "output line is not rational"
        if name == "perp_bisector":
            (ax, ay), (bx, by) = (_rational_point(p) for p in inputs)
            a, b = bx - ax, by - ay
            want = _norm_line(a, b, -(a * (ax + bx) + b * (ay + by)) / 2)
        else:
            l, p = inputs
            la, lb = _q(l.a), _q(l.b)
            px, py = _rational_point(p)
            want = _norm_line(lb, -la, la * py - lb * px)
        return None if got == want else f"expected line {want}, got {got}"
    if name == "angle_bisector":
        l1, l2, o = inputs
        a, b, c = _line_f(outputs[0])
        ox, oy = _fpt(o)
        if abs(a * ox + b * oy + c) > TOL * (1 + abs(c)):
            return "bisector misses the vertex"
        n = math.hypot(a, b)
        cos1 = abs(a * l1.b.to_float() - b * l1.a.to_float()) / \
            (n * math.hypot(l1.a.to_float(), l1.b.to_float()))
        cos2 = abs(a * l2.b.to_float() - b * l2.a.to_float()) / \
            (n * math.hypot(l2.a.to_float(), l2.b.to_float()))
        return None if abs(cos1 - cos2) <= TOL else "angles differ"
    if name in ("incenter", "incenter_broken"):
        want = _incenter_f(*(_fpt(p) for p in inputs))
        got = _fpt(outputs[0])
        return None if _close(got, want) else f"expected {want}, got {got}"
    if name == "sqrt3":
        (ax, ay), (bx, by) = (_fpt(p) for p in inputs)
        (px, py), (qx, qy) = (_fpt(p) for p in outputs)
        base = (bx - ax) ** 2 + (by - ay) ** 2
        chord = (qx - px) ** 2 + (qy - py) ** 2
        return None if _close((chord,), (3 * base,)) else \
            f"chord {chord} is not 3 x base {base}"
    raise ValueError(f"no reference for corpus entry {name}")


# ---------------------------------------------------------------------------
# corpus: the trials of `euclid verify-corpus`.

INPUT_SAMPLES = corpus.DEFAULT_INPUT_SAMPLES
ORACLE_SEEDS = corpus.DEFAULT_ORACLE_SEEDS


def _verify_corpus_trials():
    """Every (entry, input index, oracle seed, sampler state) that
    `euclid verify-corpus` runs, drawn the way `corpus.verify_entry`
    draws them with its default base seed."""
    trials = {}
    for e in corpus.entries():
        rng = random.Random(f"0:{e.name}")
        rows = []
        for index in range(INPUT_SAMPLES + 1):
            state = rng.getstate()
            for seed in range(ORACLE_SEEDS):
                rows.append((index, seed, state))
            if index > 0:
                e.sample_inputs(rng, Tower())
        trials[e.name] = rows
    return trials


def _corpus_op(e, program, index, oracle_seed, state) -> Op:
    canonical = index == 0

    def op():
        tower = Tower(height_cap=corpus.DEFAULT_HEIGHT_CAP)
        if canonical:
            inputs = e.canonical_inputs(tower)
        else:
            rng = random.Random()
            rng.setstate(state)
            inputs = e.sample_inputs(rng, tower)
        result = run(program, inputs, oracle=SamplingOracle(oracle_seed))
        verdict = e.postcondition(inputs, result.outputs)
        svg = report = None
        if canonical:
            svg = render_svg(result.trace, auto_viewport(result.trace))
            report = transport(result.trace, GAP_MAP)
        return inputs, result, verdict, svg, report

    def check(out):
        inputs, result, verdict, svg, report = out
        problem = _reference_problem(e.name, inputs, result.outputs)
        if e.expect_fail:
            if (verdict is None) != (problem is None):
                return (f"{e.name}: postcondition says {verdict!r}, "
                        f"closed form says {problem!r}")
        elif verdict is not None or problem is not None:
            return f"{e.name}: {verdict or problem}"
        if canonical:
            if "<svg " not in svg or not svg.rstrip().endswith("</svg>"):
                return f"{e.name}: render_svg returned no SVG document"
            if not report.incidence_sound:
                return f"{e.name}: an incidence broke under transport"
        return None

    return Op(e.name + (":canonical" if canonical else ""), op, check)


class CorpusWorkload(Workload):
    """All 1155 trials of `euclid verify-corpus`, entries interleaved.

    The trial set is the command's own: the seed only orders each
    entry's trials, so every pass holds the same work.
    """

    name = "corpus"
    block = len(corpus.entries())

    def __init__(self, seed: int):
        rng = random.Random(f"corpus:{seed}")
        trials = _verify_corpus_trials()
        columns = []
        for e in corpus.entries():
            program = e.program()
            rows = list(trials[e.name])
            rng.shuffle(rows)
            columns.append([_corpus_op(e, program, *row) for row in rows])
        self.ops = [op for group in zip(*columns) for op in group]
        self._failed_entries: set[str] = set()

    def observe(self, op: Op, out) -> None:
        if out[2] is not None:
            self._failed_entries.add(op.kind.split(":")[0])

    def finish(self) -> list[str]:
        """Each entry's verdict over the trials run equals its declared
        expectation."""
        problems = []
        for e in corpus.entries():
            if e.expect_fail != (e.name in self._failed_entries):
                problems.append(f"{e.name}: verdict differs from the "
                                f"declared expect_fail={e.expect_fail}")
        return problems


# ---------------------------------------------------------------------------
# closure: saturation and derivability queries.

def _coord(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2)))


def _distinct_pair(rng):
    while True:
        a = (_coord(rng), _coord(rng))
        b = (_coord(rng), _coord(rng))
        if a != b:
            return a, b


def _rational_meet(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)


def straightedge_closure_reference(pts, rounds: int):
    """Points and lines of a straightedge closure over the rationals,
    computed with plain fractions and sets."""
    points = set(pts)
    lines = set()
    done = set()
    for _ in range(rounds):
        ordered = sorted(points)
        for i, p in enumerate(ordered):
            for q in ordered[i + 1:]:
                lines.add(_norm_line(*_line_through(p, q)))
        new = set()
        ordered_lines = sorted(lines)
        for i, u in enumerate(ordered_lines):
            for v in ordered_lines[i + 1:]:
                if (u, v) in done:
                    continue
                done.add((u, v))
                x = _rational_meet(u, v)
                if x is not None:
                    new.add(x)
        if new <= points:
            break
        points |= new
    return points, lines


def _general_points(rng, n: int):
    """n rational points whose first straightedge round is generic: no
    three collinear, no two joining lines parallel, and the crossings
    of disjoint joining lines all distinct and new."""
    while True:
        pts = [(_coord(rng), _coord(rng)) for _ in range(n)]
        if len(set(pts)) < n:
            continue
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        lines = {pr: _norm_line(*_line_through(pts[pr[0]], pts[pr[1]]))
                 for pr in pairs}
        if len(set(lines.values())) < len(pairs):
            continue
        crossings = set()
        ok = True
        for x, u in enumerate(pairs):
            for v in pairs[x + 1:]:
                m = _rational_meet(lines[u], lines[v])
                if m is None:
                    ok = False
                elif not set(u) & set(v):
                    crossings.add(m)
        disjoint = len(pairs) * (len(pairs) - 2 * (n - 2) - 1) // 2
        if ok and len(crossings) == disjoint and not crossings & set(pts):
            return pts


ROUND2_POINTS, ROUND2_CURVES = 391, 34    # every pair: pairs are similar


def _pts(tower, coords):
    return [point(tower, x, y) for x, y in coords]


def _full_closure_op(pair, rounds, want) -> Op:
    def op():
        tower = Tower()
        return closure(_pts(tower, pair),
                       budget=Budget(max_rounds=rounds, max_objects=10**6))

    def check(res):
        got = (len(res.points), len(res.curves))
        return None if got == want else \
            f"closure from two points to round {rounds}: {got}, want {want}"
    return Op(f"closure.r{rounds}", op, check)


def _straightedge_op(coords, rounds) -> Op:
    def op():
        tower = Tower()
        return closure(_pts(tower, coords), ops=STRAIGHTEDGE_OPS,
                       budget=Budget(max_rounds=rounds, max_objects=10**5))

    def check(res):
        want_pts, want_lines = straightedge_closure_reference(coords, rounds)
        got_pts = {_rational_point(p) for p in res.points}
        got_lines = {_rational_line(c) for c in res.curves}
        if len(res.points) != len(got_pts):
            return "straightedge closure holds duplicate points"
        if got_pts != want_pts or got_lines != want_lines:
            return (f"straightedge closure of {len(coords)} points: "
                    f"{len(got_pts)} points / {len(got_lines)} lines, want "
                    f"{len(want_pts)} / {len(want_lines)}")
        return None
    return Op(f"straightedge.{len(coords)}p.r{rounds}", op, check)


def _derivable_op(pair, which) -> Op:
    """Midpoint at round 2, or the equilateral apex at round 1."""
    want_round = 2 if which == "midpoint" else 1

    def op():
        tower = Tower()
        a, b = _pts(tower, pair)
        if which == "midpoint":
            target = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
        else:
            h = tower.from_rational(3).sqrt() / 2
            target = Point((a.x + b.x) / 2 - h * (b.y - a.y),
                           (a.y + b.y) / 2 + h * (b.x - a.x))
        return derivable(target, [a, b],
                         budget=Budget(max_rounds=2, max_objects=10**6))

    def check(res):
        if not res.derivable or res.rounds != want_round:
            return (f"{which} derivable={res.derivable} at round "
                    f"{res.rounds}, want round {want_round}")
        return None
    return Op(f"derivable.{which}", op, check)


def _circle_only_op(text) -> Op:
    def op():
        scene = parse_scene(text)
        return derivable(scene.target_point, [],
                         list(scene.curves.values()),
                         budget=Budget(max_rounds=5))

    def check(res):
        if res.derivable or res.rounds is not None \
                or not res.state.complete or res.state.rounds != 0:
            return "circle-only center is not NoWithinBudget at round 0"
        return None
    return Op("derivable.circle_only", op, check)


CLOSURE_UNITS = 10


class ClosureWorkload(Workload):
    """Closures and derivability queries on seeded configurations.

    One unit of twelve ops: three full round-2 closures from a point
    pair, three straightedge closures of five points to round 1, two of
    four points to round 2, a midpoint and an apex derivability query,
    a round-1 closure and the circle-only fixed point.  Full closures
    are a quarter of the ops, so the 90th percentile falls among them
    and the median among the straightedge ones.
    """

    name = "closure"
    block = 12

    def __init__(self, seed: int):
        rng = random.Random(f"closure:{seed}")
        text = (CONFIGS / "circle-only.cfg").read_text()
        self.ops = []
        for k in range(CLOSURE_UNITS):
            pairs = [_distinct_pair(rng) for _ in range(6)]
            if k == 0:
                pairs[3] = pairs[4] = ((0, 0), (1, 0))
            unit = [
                _full_closure_op(pairs[0], 2, (ROUND2_POINTS, ROUND2_CURVES)),
                _straightedge_op(_general_points(rng, 5), 1),
                _straightedge_op(_general_points(rng, 4), 2),
                _full_closure_op(pairs[1], 2, (ROUND2_POINTS, ROUND2_CURVES)),
                _straightedge_op(_general_points(rng, 5), 1),
                _derivable_op(pairs[3], "midpoint"),
                _full_closure_op(pairs[2], 2, (ROUND2_POINTS, ROUND2_CURVES)),
                _straightedge_op(_general_points(rng, 5), 1),
                _straightedge_op(_general_points(rng, 4), 2),
                _derivable_op(pairs[4], "apex"),
                _full_closure_op(pairs[5], 1, (6, 3)),
                _circle_only_op(text),
            ]
            self.ops.extend(unit)


# ---------------------------------------------------------------------------
# game: refereed plays of the corpus programs, and certificates.

def _gcoord(rng) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))


def _collinear(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0


def _game_inputs(name: str, rng):
    """Rational input data for a corpus program, as plain fractions."""
    if name in ("midpoint", "perp_bisector", "point_reflection",
                "compass_midpoint", "sqrt3"):
        while True:
            a, b = ((_gcoord(rng), _gcoord(rng)) for _ in range(2))
            if a != b:
                return ("points", a, b)
    if name == "incenter":
        while True:
            a, b, c = ((_gcoord(rng), _gcoord(rng)) for _ in range(3))
            if not _collinear(a, b, c):
                return ("points", a, b, c)
    if name == "compass_line_line":
        while True:
            a, b, c, d = ((_gcoord(rng), _gcoord(rng)) for _ in range(4))
            if len({a, b, c, d}) < 4:
                continue
            if (b[0] - a[0]) * (d[1] - c[1]) == (b[1] - a[1]) * (d[0] - c[0]):
                continue
            if _collinear(a, b, d) or _collinear(c, d, a):
                continue
            return ("points", a, b, c, d)
    if name == "perp_from_point":
        while True:
            p, q = ((_gcoord(rng), _gcoord(rng)) for _ in range(2))
            if p != q:
                break
        if rng.random() < 0.25:
            t = Fraction(rng.randint(-8, 8), 4)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        else:
            x = (_gcoord(rng), _gcoord(rng))
        return ("line_point", p, q, x)
    if name == "angle_bisector":
        o = (_gcoord(rng), _gcoord(rng))
        while True:
            d1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            d2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            if d1 != (0, 0) and d2 != (0, 0) \
                    and d1[0] * d2[1] - d1[1] * d2[0] != 0:
                return ("crossing", o, d1, d2)
    if name == "circle_center":
        return ("circle", (_gcoord(rng), _gcoord(rng)),
                Fraction(rng.randint(1, 9), rng.randint(1, 3)))
    raise ValueError(f"no game inputs for {name}")


def _build_inputs(tower, spec):
    kind, *data = spec
    if kind == "points":
        return [point(tower, x, y) for x, y in data]
    if kind == "line_point":
        p, q, x = data
        return [Line.through(point(tower, *p), point(tower, *q)),
                point(tower, *x)]
    if kind == "crossing":
        o, d1, d2 = data
        po = point(tower, *o)
        return [Line.through(po, point(tower, o[0] + d1[0], o[1] + d1[1])),
                Line.through(po, point(tower, o[0] + d2[0], o[1] + d2[1])),
                po]
    center, r2 = data
    return [Circle(point(tower, *center), tower.from_rational(r2))]


def _unit_direction(tower, dx: Fraction, dy: Fraction):
    """(dx, dy) over its length, turned to sort first by (x, y)."""
    if dx > 0 or (dx == 0 and dy > 0):
        dx, dy = -dx, -dy
    n = tower.from_rational(dx * dx + dy * dy).sqrt()
    return dx / n, dy / n


def _game_target(name: str, tower, spec):
    """The program's output in closed form, built exactly in the tower."""
    kind, *data = spec
    if name in ("midpoint", "compass_midpoint"):
        (ax, ay), (bx, by) = data
        return point(tower, (ax + bx) / 2, (ay + by) / 2)
    if name == "point_reflection":
        (ax, ay), (bx, by) = data
        return point(tower, 2 * bx - ax, 2 * by - ay)
    if name == "compass_line_line":
        return point(tower, *_cramer(*data))
    if name == "circle_center":
        return point(tower, *data[0])
    if name == "perp_bisector":
        (ax, ay), (bx, by) = data
        a, b = bx - ax, by - ay
        coeffs = (a, b, -(a * (ax + bx) + b * (ay + by)) / 2)
        return Line(*(tower.from_rational(v) for v in coeffs))
    if name == "perp_from_point":
        p, q, (px, py) = data
        la, lb, _ = _line_through(p, q)
        coeffs = (lb, -la, la * py - lb * px)
        return Line(*(tower.from_rational(v) for v in coeffs))
    if name == "angle_bisector":
        # The program walks from O along each line to the crossing with
        # a circle around O that sorts first, then bisects the rhombus.
        o, d1, d2 = data
        u1x, u1y = _unit_direction(tower, Fraction(d1[0]), Fraction(d1[1]))
        u2x, u2y = _unit_direction(tower, Fraction(d2[0]), Fraction(d2[1]))
        dx, dy = u1x + u2x, u1y + u2y
        ox, oy = (tower.from_rational(v) for v in o)
        return Line(-dy, dx, dy * ox - dx * oy)
    if name == "incenter":
        pts = [point(tower, x, y) for x, y in data]
        a, b, c = pts
        la, lb, lc = (tower.from_rational(
            (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2).sqrt()
            for p, q in ((data[1], data[2]), (data[2], data[0]),
                         (data[0], data[1])))
        s = la + lb + lc
        return Point((la * a.x + lb * b.x + lc * c.x) / s,
                     (la * a.y + lb * b.y + lc * c.y) / s)
    if name == "sqrt3":
        (ax, ay), (bx, by) = data
        h = tower.from_rational(3).sqrt() / 2
        return Point((ax + bx) / 2 - h * (by - ay),
                     (ay + by) / 2 + h * (bx - ax))
    raise ValueError(f"no closed form for {name}")


def _split(objs):
    return ([o for o in objs if isinstance(o, Point)],
            [o for o in objs if not isinstance(o, Point)])


PLAY_MOVES = 1000        # compass_line_line needs more than the default 50


def _play_op(name, program, spec, bob_seed) -> Op:
    def op():
        tower = Tower(height_cap=corpus.DEFAULT_HEIGHT_CAP)
        inputs = _build_inputs(tower, spec)
        target = _game_target(name, tower, spec)
        points, curves = _split(inputs)
        return play(points, curves, target, scripted_alice(program, inputs),
                    sampling_bob(bob_seed), max_moves=PLAY_MOVES)

    def check(record):
        if not isinstance(record.outcome, AliceWins):
            return f"{name} play {spec}: {record.outcome}, want AliceWins"
        return None
    return Op(f"play.{name}", op, check)


def _certificate_op(seed: int) -> Op:
    """The rational certificate survives straightedge steps and fails
    under compass steps, as in tests/test_acceptance.py."""
    def op():
        tower = Tower()
        a, b = point(tower, 0, 0), point(tower, 2, 0)
        root2 = Point(tower.from_rational(2).sqrt(), tower.zero)
        cert = rational_certificate()
        return (check_certificate(cert, [a, b], [], root2,
                                  ops=STRAIGHTEDGE_OPS, seed=seed),
                check_certificate(cert, [a, b], [], root2, ops=ALL_OPS,
                                  seed=seed))

    def check(out):
        straight, compass = out
        if not straight.passed:
            return f"certificate fails straightedge checks: {straight}"
        if compass.passed or compass.condition != "closure-violation":
            return f"certificate survives compass checks: {compass}"
        w = compass.witness
        if not (isinstance(w, Point) and w.x.is_rational()
                and _q(w.x) == Fraction(1, 2) and w.y.height > 0
                and _close((abs(w.y.to_float()),), (math.sqrt(3) / 2,))):
            return f"certificate witness {w!r} is not (1/2, +-sqrt(3)/2)"
        return None
    return Op("certificate", op, check)


def _certbob_midpoint_op(program, seed: int) -> Op:
    def op():
        tower = Tower()
        a, b = point(tower, 0, 0), point(tower, 2, 0)
        return play([a, b], [], point(tower, 1, 0),
                    scripted_alice(program, [a, b]),
                    CertificateBob(rational_certificate(), seed))

    def check(record):
        return None if isinstance(record.outcome, AliceWins) else \
            f"midpoint against the certificate adversary: {record.outcome}"
    return Op("certbob.midpoint", op, check)


def _certbob_timeout_op(seed: int) -> Op:
    moves_cap = 24

    def op():
        tower = Tower()
        a, b = point(tower, 0, 0), point(tower, 2, 0)
        root2 = Point(tower.from_rational(2).sqrt(), tower.zero)

        def alice(position, moves):
            pts = position.points
            if len(moves) % 2 == 0 or pts[-1] == pts[-2]:
                center = point(tower,
                               Fraction(3, 2) + Fraction(len(moves), 8),
                               Fraction(len(moves) % 3, 4))
                return RPointInDisk(Disk(center, tower.from_rational(1)))
            return RLine(pts[-1], pts[-2])
        return play([a, b], [], root2, alice,
                    certificate_bob(rational_certificate(), seed),
                    max_moves=moves_cap)

    def check(record):
        if record.outcome != Timeout(moves_cap):
            return f"certificate adversary game: {record.outcome}"
        heights = {o.height for o in record.position.points}
        heights |= {c.height for c in record.position.curves}
        return None if heights == {0} else \
            "certificate adversary handed over an irrational object"
    return Op("certbob.timeout", op, check)


GAME_PROGRAMS = tuple(e.name for e in corpus.entries() if not e.expect_fail)
GAME_SHAPES = 5
GAME_UNITS = 4 * GAME_SHAPES


def _translated(spec, dx: Fraction, dy: Fraction):
    """The same input data moved by (dx, dy)."""
    kind, *data = spec
    if kind == "crossing":
        (ox, oy), d1, d2 = data
        return (kind, (ox + dx, oy + dy), d1, d2)
    if kind == "circle":
        (cx, cy), r2 = data
        return (kind, (cx + dx, cy + dy), r2)
    return (kind, *((x + dx, y + dy) for x, y in data))


def _game_shapes():
    """Input shapes and adversary seeds, the same for every seed.

    A program's tests, and the (x, y) order of intersection points,
    do not change under translation, and neither do the sampling
    adversary's answers inside disks around a rational center.  So a
    translated shape plays the same moves, while a new shape can need
    many more (compass_line_line's loops halve and double distances
    until a test holds).  Each seed moves the shapes instead of drawing
    new ones, which keeps a pass's cost the same across seeds.
    """
    rng = random.Random("game:shapes")
    return {name: [(_game_inputs(name, rng), rng.randrange(1 << 16))
                   for _ in range(GAME_SHAPES)]
            for name in GAME_PROGRAMS}


class GameWorkload(Workload):
    """Every corpus program but the broken one plays as Alice against the
    sampling adversary, with certificate checks and certificate-adversary
    games mixed in.

    Of 25 ops in two units, eight take 1-3 ms, twelve 5-25 ms, four
    30-40 ms, and one, compass_line_line, which plays in every other
    unit, up to seconds.  So the median falls inside the middle group
    and the 90th percentile inside the 30-40 ms group.
    """

    name = "game"
    block = 2 * GAME_SHAPES * (len(GAME_PROGRAMS) + 2) + GAME_SHAPES

    def __init__(self, seed: int):
        rng = random.Random(f"game:{seed}")
        programs = {n: corpus.load_program(n) for n in GAME_PROGRAMS}
        shapes = _game_shapes()
        self.ops = []
        for k in range(GAME_UNITS):
            for name in GAME_PROGRAMS:
                shape = k % GAME_SHAPES
                if name == "compass_line_line":
                    if k % 2:
                        continue
                    shape = k // 2 % GAME_SHAPES
                spec, bob_seed = shapes[name][shape]
                dx, dy = (Fraction(rng.randint(-16, 16), 4)
                          for _ in range(2))
                self.ops.append(_play_op(name, programs[name],
                                         _translated(spec, dx, dy), bob_seed))
            s = rng.randrange(1 << 16)
            self.ops += [_certificate_op(s),
                         _certbob_midpoint_op(programs["midpoint"], s),
                         _certbob_timeout_op(s)]


# ---------------------------------------------------------------------------
# densify: straightedge approach inside the scaffold of configs/densify.cfg.

DENSIFY_EPS = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
DENSIFY_SHAPES = 42
JITTER = Fraction(1, 1 << 20)
RADICANDS = (2, 3)         # under the x and the y jitter


def _densify_menu():
    """Base targets and eps values, the same for every seed.

    Trace length, and with it the cost of replay, depends on where the
    target sits relative to the Stern-Brocot mediants of the frame, so
    a target drawn anew per seed would change a pass's cost far more
    than a code change does.  The menu is fixed; each seed moves every
    target by a small jitter instead (`DensifyWorkload`).
    """
    rng = random.Random("densify:menu")
    menu = []
    for k in range(DENSIFY_SHAPES):
        while True:
            x, y = (Fraction(rng.randint(2, 30), 8) for _ in range(2))
            if x + y <= Fraction(30, 8):
                break
        menu.append(((x, y), DENSIFY_EPS[k % len(DENSIFY_EPS)], k % 2 == 1))
    return menu


def _target_coords(spec):
    """Exact target coordinates as (rational part, (k, radicand)) pairs:
    value = rational + k * sqrt(radicand) * JITTER."""
    (x, y), (jx, jy), irr = spec
    if not irr:
        return ((x + jx * JITTER, None), (y + jy * JITTER, None))
    (dx, kx), (dy, ky) = irr
    return ((x + jx * JITTER, (kx, dx)), (y + jy * JITTER, (ky, dy)))


def _tower_coord(tower, coord):
    rational, irr = coord
    value = tower.from_rational(rational)
    if irr is not None:
        k, d = irr
        value = value + tower.from_rational(d).sqrt() * (k * JITTER)
    return value


def _densify_op(scaffold_text, spec, eps) -> Op:
    coords = _target_coords(spec)

    def op():
        scene = parse_scene(scaffold_text)
        a, b, c, d = list(scene.points.values())[:4]
        tower = scene.tower
        target = Point(*(_tower_coord(tower, v) for v in coords))
        result = densify(a, b, c, d, target, eps)
        return (result, replay_trace(result.trace, [a, b, c, d]),
                straightedge_only(result.trace))

    def check(out):
        result, replayed, plain = out
        if not replayed:
            return "densify trace does not replay from the scaffold"
        if not plain:
            return "densify trace uses a compass step"
        if _rational_point(result.point) is None:
            return "straightedge construction left the rationals"
        return None
    return Op(f"densify.eps{eps.denominator}", op, check)


class DensifyWorkload(Workload):
    """Densify calls toward rational and irrational targets at several
    eps values, each followed by replay and the straightedge check."""

    name = "densify"
    block = DENSIFY_SHAPES

    def __init__(self, seed: int):
        rng = random.Random(f"densify:{seed}")
        text = (CONFIGS / "densify.cfg").read_text()
        self.ops = []
        self._deferred = []
        for base, eps, irrational in _densify_menu():
            jitter = (rng.randint(-64, 64), rng.randint(-64, 64))
            irr = None
            if irrational:
                irr = tuple((d, rng.choice((-1, 1)) * rng.randint(1, 64))
                            for d in RADICANDS)
            spec = (base, jitter, irr)
            self.ops.append(_densify_op(text, spec, eps))
            self._deferred.append((spec, eps))
        self._points = [None] * len(self.ops)
        self._index = {id(op): i for i, op in enumerate(self.ops)}

    def observe(self, op, out) -> None:
        i = self._index[id(op)]
        got = _rational_point(out[0].point)
        if self._points[i] is None:
            self._points[i] = got
        elif self._points[i] != got:
            self._points[i] = "nondeterministic"

    def finish(self) -> list[str]:
        """Exact distance checks in sympy, independent of the tower."""
        import sympy

        problems = []
        def exact(q: Fraction):
            return sympy.Rational(q.numerator, q.denominator)

        def coord(c):
            rational, irr = c
            if irr is None:
                return exact(rational)
            k, d = irr
            return exact(rational) + exact(k * JITTER) * sympy.sqrt(d)

        for (spec, eps), got in zip(self._deferred, self._points):
            if got is None:
                continue
            if got == "nondeterministic":
                problems.append(f"densify toward {spec} changed between "
                                "passes")
                continue
            tx, ty = (coord(c) for c in _target_coords(spec))
            px, py = (exact(v) for v in got)
            gap = sympy.expand((px - tx) ** 2 + (py - ty) ** 2
                               - exact(eps) ** 2)
            value = gap.evalf(60)
            if value > 0 and not (abs(value) < sympy.Float("1e-50", 60)
                                  and sympy.simplify(gap) == 0):
                problems.append(f"densify toward {spec} ended {value} "
                                "beyond eps squared")
        return problems


WORKLOADS = {w.name: w for w in (CorpusWorkload, ClosureWorkload,
                                 GameWorkload, DensifyWorkload)}
