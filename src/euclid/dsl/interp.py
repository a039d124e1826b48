"""Interpreter for construction programs.

Runs a parsed program over exact geometric inputs.  Every predicate is
decided with exact sign tests.  The statement executor is a generator:
it yields one request per construction or arbitrary-point statement
(`RLine`, `RCircle`, `RIntersect`, `RPointInDisk`, `RPointInCell`) and
builds the object only after the yield, and an arbitrary-point
statement binds whatever answer is sent back.  The driver verifies that
answer: `run` asks an oracle and checks that the point lies strictly
inside the requested region, and the game's scripted Alice forwards
requests to the referee, which checks Bob's answer.  Runs abort with a
stable machine-readable reason when a choose is not uniquely satisfied,
an intersection has a different cardinality than declared, a while
budget runs dry with its test still true, an oracle misbehaves, a step
budget is exceeded, or a geometric step degenerates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import DegenerateInputError, IdenticalCurvesError, RunAbort
from ..geom import (
    Circle,
    Line,
    Point,
    between,
    dist2,
    dist_compare,
    intersect,
    intersects,
    orientation,
)
from ..regions import Cell, Disk, sample_point
from .ast import (
    CellExpr,
    DiskExpr,
    If,
    LetArbitrary,
    LetChoose,
    LetCircle,
    LetIntersect,
    LetLine,
    Program,
    Test,
    While,
)

_COND_SIGN = {"inside": -1, "outside": 1, "pos": 1, "neg": -1}

DEFAULT_MAX_STEPS = 10_000


# ---------------------------------------------------------------------------
# Requests a run makes of its driver.

@dataclass(frozen=True)
class RLine:
    p: Point
    q: Point


@dataclass(frozen=True)
class RCircle:
    """Circle centered at o with the distance from a to b as radius."""

    o: Point
    a: Point
    b: Point


@dataclass(frozen=True)
class RIntersect:
    g: object
    h: object


@dataclass(frozen=True)
class RPointInDisk:
    disk: Disk


@dataclass(frozen=True)
class RPointInCell:
    cell: Cell


Request = RLine | RCircle | RIntersect | RPointInDisk | RPointInCell


@dataclass
class TraceEvent:
    """One recorded step of a run.

    `objs` layout by kind:
      input:     (value,)
      line:      (line, p, q)
      circle:    (circle, center, a, b)
      intersect: (g, h, *points)
      choose:    (chosen,)
      arbitrary: (answer,)
      test:      (value, kind, negated, *argument objects)
    """

    kind: str                   # input/line/circle/intersect/choose/arbitrary/test
    text: str
    objs: tuple = ()


@dataclass
class RunResult:
    outputs: tuple
    env: dict
    trace: list[TraceEvent] = field(default_factory=list)
    steps: int = 0


class SamplingOracle:
    """Deterministic seed-driven oracle scanning dyadic grids.

    Answers avoid every object already present in the run, so repeated
    requests yield fresh points.  Returns None when the bounded scan
    finds nothing.
    """

    def __init__(self, seed: int = 0, tries_per_stage: int = 64,
                 max_stage: int = 12):
        self.seed = seed
        self.tries_per_stage = tries_per_stage
        self.max_stage = max_stage
        self._rng = random.Random(seed)

    def answer(self, region, state) -> Point | None:
        return sample_point(state.tower, region, self._rng,
                            avoid_points=state.points(),
                            avoid_curves=state.curves(),
                            tries_per_stage=self.tries_per_stage,
                            max_stage=self.max_stage)


class ReplayOracle:
    """Plays back a fixed list of points, e.g. from a recorded trace."""

    def __init__(self, points):
        self._points = list(points)
        self._next = 0

    def answer(self, region, state) -> Point:
        if self._next >= len(self._points):
            raise ValueError("replay oracle ran out of recorded answers")
        p = self._points[self._next]
        self._next += 1
        return p


class _State:
    """What an oracle may see: the tower and current objects."""

    def __init__(self, tower, env: dict):
        self.tower = tower
        self._env = env

    def points(self) -> list[Point]:
        return [v for v in self._env.values() if isinstance(v, Point)]

    def curves(self) -> list:
        return [v for v in self._env.values() if isinstance(v, (Line, Circle))]


def fmt(obj) -> str:
    """Text of an object for traces and transcripts."""
    if isinstance(obj, Point):
        return f"({obj.x!r}, {obj.y!r})"
    return repr(obj)


def evaluate_test(env: dict, test: Test) -> bool:
    """Decide a test against an environment with exact predicates."""
    a = [env[n] for n in test.args]
    if test.kind == "equal":
        value = a[0] == a[1]
    elif test.kind == "on":
        value = a[1].contains(a[0])
    elif test.kind == "intersects":
        try:
            value = intersects(a[0], a[1])
        except IdenticalCurvesError:
            value = True
    elif test.kind == "between":
        value = between(a[0], a[1], a[2])
    elif test.kind == "ccw":
        value = orientation(a[0], a[1], a[2]) > 0
    elif test.kind == "dist_le":
        value = dist_compare(a[0], a[1], a[2], a[3]) <= 0
    else:   # dist_eq
        value = dist_compare(a[0], a[1], a[2], a[3]) == 0
    if test.negated:
        value = not value
    return value


def build_region(env: dict, tower, expr):
    """Materialize a disk or cell expression against an environment."""
    if isinstance(expr, DiskExpr):
        return Disk(env[expr.center], tower.from_rational(expr.r2))
    conds = tuple((env[name], _COND_SIGN[kind]) for kind, name in expr.conds)
    return Cell(conds)


class _Run:
    def __init__(self, env: dict, tower, max_steps: int):
        self.env = env
        self.tower = tower
        self.max_steps = max_steps
        self.steps = 0
        self.trace: list[TraceEvent] = []
        self.asking = None      # name the pending point request binds

    def abort(self, reason: str, message: str):
        self.trace.append(TraceEvent("abort", f"{reason}: {message}"))
        raise RunAbort(reason, message, trace=self.trace)

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            self.abort("step-budget-exhausted",
                       f"more than {self.max_steps} statements executed")

    def exec_block(self, stmts):
        for st in stmts:
            yield from self.exec_stmt(st)

    def exec_stmt(self, st):
        """Execute one statement, yielding its requests.

        Degeneracy is checked before the yield and the object is built
        after it, so a driver that stops on a request builds nothing.
        """
        self.tick()
        if isinstance(st, LetLine):
            p, q = self.env[st.p], self.env[st.q]
            if p == q:
                self.abort("degenerate-step", f"line {st.name}: "
                           "line through two identical points")
            yield RLine(p, q)
            obj = Line.through(p, q)
            self.env[st.name] = obj
            self.trace.append(TraceEvent("line", f"{st.name} = line({st.p}, {st.q})",
                                         (obj, p, q)))
        elif isinstance(st, LetCircle):
            center, a, b = (self.env[st.center], self.env[st.a],
                            self.env[st.b])
            if a == b:
                self.abort("degenerate-step", f"circle {st.name}: "
                           "circle needs a positive squared radius")
            yield RCircle(center, a, b)
            obj = Circle(center, dist2(a, b))
            self.env[st.name] = obj
            self.trace.append(TraceEvent(
                "circle", f"{st.name} = circle({st.center}; {st.a}, {st.b})",
                (obj, center, a, b)))
        elif isinstance(st, LetIntersect):
            g, h = self.env[st.g], self.env[st.h]
            if g == h:
                self.abort("degenerate-step",
                           f"intersect({st.g}, {st.h}) of identical curves")
            yield RIntersect(g, h)
            pts = intersect(g, h)
            if len(pts) != len(st.names):
                self.abort("intersection-count-mismatch",
                           f"intersect({st.g}, {st.h}) gave {len(pts)} "
                           f"points, statement binds {len(st.names)}")
            for name, p in zip(st.names, pts):
                self.env[name] = p
            self.trace.append(TraceEvent(
                "intersect",
                f"[{', '.join(st.names)}] = intersect({st.g}, {st.h})",
                (g, h, *pts)))
        elif isinstance(st, LetChoose):
            passing = []
            for cand in st.candidates:
                obj = self.env[cand]
                saved = self.env.get(st.name, _MISSING)
                self.env[st.name] = obj
                ok = self.eval_test(st.test, record=False)
                if saved is _MISSING:
                    del self.env[st.name]
                else:
                    self.env[st.name] = saved
                if ok:
                    passing.append((cand, obj))
            if len(passing) != 1:
                names = [c for c, _ in passing] or ["none"]
                self.abort("choose-ambiguous",
                           f"choose {st.name}: {len(passing)} of "
                           f"{len(st.candidates)} candidates pass "
                           f"({', '.join(names)})")
            cand, obj = passing[0]
            self.env[st.name] = obj
            self.trace.append(TraceEvent(
                "choose", f"{st.name} = choose -> {cand}", (obj,)))
        elif isinstance(st, LetArbitrary):
            region = build_region(self.env, self.tower, st.region)
            self.asking = st.name
            answer = yield (RPointInDisk(region) if isinstance(region, Disk)
                            else RPointInCell(region))
            self.env[st.name] = answer
            self.trace.append(TraceEvent(
                "arbitrary", f"{st.name} = arbitrary -> {fmt(answer)}",
                (answer,)))
        elif isinstance(st, If):
            if self.eval_test(st.test):
                yield from self.exec_block(st.then)
            else:
                yield from self.exec_block(st.orelse)
        elif isinstance(st, While):
            count = 0
            while self.eval_test(st.test):
                if count == st.budget:
                    self.abort("while-budget-exhausted",
                               f"test still true after {st.budget} iterations")
                yield from self.exec_block(st.body)
                count += 1
        else:       # pragma: no cover - checker admits no other nodes
            raise TypeError(f"unexpected statement {st!r}")

    def ask(self, oracle, request):
        """The oracle's verified answer to a point request, else None."""
        if isinstance(request, RPointInDisk):
            region = request.disk
        elif isinstance(request, RPointInCell):
            region = request.cell
        else:
            return None
        answer = oracle.answer(region, _State(self.tower, self.env))
        if answer is None:
            self.abort("region-scan-exhausted",
                       f"oracle found no point for {self.asking}")
        if not isinstance(answer, Point) or answer.tower is not self.tower:
            self.abort("oracle-violation",
                       f"oracle answer for {self.asking} is not a point "
                       "of this session")
        if not region.contains(answer):
            self.abort("oracle-violation",
                       f"oracle answer {fmt(answer)} for {self.asking} "
                       "is outside the requested region")
        return answer

    def eval_test(self, test: Test, record: bool = True) -> bool:
        value = evaluate_test(self.env, test)
        if record:
            neg = "not " if test.negated else ""
            self.trace.append(TraceEvent(
                "test", f"{neg}{test.kind}({', '.join(test.args)}) -> {value}",
                (value, test.kind, test.negated,
                 *(self.env[n] for n in test.args))))
        return value


class _Missing:
    pass


_MISSING = _Missing()

_KIND_TYPES = {"point": Point, "line": Line, "circle": Circle}


def bind_inputs(program: Program, inputs) -> dict:
    """Environment mapping parameter names to type-checked input objects."""
    if isinstance(inputs, dict):
        missing = [p.name for p in program.params if p.name not in inputs]
        if missing:
            raise ValueError(f"missing inputs: {', '.join(missing)}")
        values = [inputs[p.name] for p in program.params]
    else:
        values = list(inputs)
        if len(values) != len(program.params):
            raise ValueError(f"program {program.name} takes "
                             f"{len(program.params)} inputs, got {len(values)}")
    env = {}
    for param, value in zip(program.params, values):
        if not isinstance(value, _KIND_TYPES[param.kind]):
            raise ValueError(f"input {param.name!r} must be a {param.kind}, "
                             f"got {type(value).__name__}")
        env[param.name] = value
    return env


def _tower_of(env: dict, tower):
    for value in env.values():
        t = value.tower
        if tower is None:
            tower = t
        elif t is not tower:
            raise ValueError("inputs from different tower sessions")
    if tower is None:
        raise ValueError("no inputs; pass tower= explicitly")
    return tower


def run(program: Program, inputs, oracle=None, tower=None,
        max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
    """Execute a checked program on exact inputs.

    inputs is a sequence in parameter order or a dict by parameter name.
    oracle answers arbitrary-point statements; the default is a
    SamplingOracle with seed 0.  Raises RunAbort (with .reason and the
    trace so far) when the run cannot complete.
    """
    env = bind_inputs(program, inputs)
    state = _Run(env, _tower_of(env, tower), max_steps)
    if oracle is None:
        oracle = SamplingOracle(0)
    for name, value in env.items():
        state.trace.append(TraceEvent("input", f"{name} = {fmt(value)}",
                                      (value,)))
    steps = state.exec_block(program.body)
    answer = None
    while True:
        try:
            request = steps.send(answer)
        except StopIteration:
            break
        answer = state.ask(oracle, request)
    outputs = tuple(env[name] for name in program.returns)
    return RunResult(outputs, dict(env), state.trace, state.steps)


def requests(program: Program, inputs):
    """A run of a checked program as a generator of its requests.

    Send each point request's answer back in, unverified; send None
    after a construction request.  Raises RunAbort as `run` does.
    """
    env = bind_inputs(program, inputs)
    return _Run(env, _tower_of(env, None),
                DEFAULT_MAX_STEPS).exec_block(program.body)


def recorded_answers(trace) -> list[Point]:
    """Oracle answers of a run trace, for ReplayOracle."""
    return [ev.objs[0] for ev in trace if ev.kind == "arbitrary"]


def other_intersection(p: Point, g, h) -> Point:
    """The intersection point of g and h different from p.

    Raises DegenerateInputError when p is not an intersection point or
    the curves meet only tangentially at p.
    """
    pts = intersect(g, h)
    if p not in pts:
        raise DegenerateInputError("point is not an intersection of the curves")
    others = [q for q in pts if q != p]
    if not others:
        raise DegenerateInputError("curves meet only at the given point")
    return others[0]
