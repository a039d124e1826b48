"""Interpreter for construction programs.

Runs a parsed program over exact geometric inputs.  Every test is
decided exactly, by its `geom.TESTS` entry.  A run keeps what it knows
in its environment, and shows an oracle the tower, points and curves a
`geom.Position` would.  The statement executor is a generator:
it yields one request per construction or arbitrary-point statement, a
`geom.Step` whose `made` is still empty.  A construction statement (a
`LetStep`) gives the step its rule and the objects its operands name;
an arbitrary step has the statement's region as its one parent.  The
executor binds the tuple of objects sent back, which it then records
as that step's `made` in the run trace; it constructs and checks
nothing itself.  The caller builds a construction with the step's
`build()`, whose `geom` constructors are the one test for degenerate
steps, and answers a point request with one point that
`answer_problem` accepts: `run` asks an oracle, and the game's scripted
Alice forwards requests to the referee, which builds the objects and
checks Bob's answer.  Runs abort with a stable machine-readable reason
when a choose is not uniquely satisfied, an intersection has a
different cardinality than declared, a while budget runs dry with its
test still true, an oracle misbehaves, a step budget is exceeded, or a
geometric step degenerates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import DegenerateInputError, RunAbort
from ..geom import TESTS, Circle, Line, Point, Step, fmt
from ..regions import Cell, Disk, sample_point
from .ast import (
    CELL_CONDS,
    DiskExpr,
    If,
    LetArbitrary,
    LetChoose,
    LetStep,
    Program,
    Test,
    While,
)

MAX_STEPS = 10_000      # statements one run may execute


def answer_problem(region, answer, tower) -> str | None:
    """Why `answer` may not answer a point request for `region` in
    `tower`, or None when it is a point of the tower strictly inside."""
    if answer is None:
        return "no point found in the requested region"
    if not isinstance(answer, Point) or answer.tower is not tower:
        return f"answer {fmt(answer)} is not a point of this session"
    if not region.contains(answer):
        return f"answer {fmt(answer)} is outside the requested region"
    return None


@dataclass
class RunResult:
    outputs: tuple
    env: dict
    trace: list[Step] = field(default_factory=list)
    steps: int = 0


class SamplingOracle:
    """Deterministic seed-driven oracle scanning dyadic grids.

    Answers avoid every object of `state` (a run's objects, or the game
    position when this class plays `game.SamplingBob`), so repeated
    requests yield fresh points.  Returns None when the bounded scan
    finds nothing.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def answer(self, region, state) -> Point | None:
        return sample_point(region, self._rng, state)


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


def build_region(env: dict, tower, expr):
    """Materialize a disk or cell expression against an environment."""
    if isinstance(expr, DiskExpr):
        return Disk(env[expr.center], tower.from_rational(expr.r2))
    conds = tuple((env[name], CELL_CONDS[kind][1])
                  for kind, name in expr.conds)
    return Cell(conds)


class _Run:
    """One run's state; an oracle sees its tower, points and curves."""

    def __init__(self, env: dict):
        self.env = env
        self.tower = _tower_of(env)
        self.steps = 0
        self.trace: list[Step] = []
        self.asking = None      # the statement the pending request is for

    @property
    def points(self) -> list[Point]:
        return [v for v in self.env.values() if isinstance(v, Point)]

    @property
    def curves(self) -> list:
        return [v for v in self.env.values() if isinstance(v, (Line, Circle))]

    def abort(self, reason: str, message: str):
        self.trace.append(Step("abort", label=f"{reason}: {message}"))
        raise RunAbort(reason, message, trace=self.trace)

    def tick(self):
        self.steps += 1
        if self.steps > MAX_STEPS:
            self.abort("step-budget-exhausted",
                       f"more than {MAX_STEPS} statements executed")

    def exec_block(self, stmts):
        for st in stmts:
            yield from self.exec_stmt(st)

    def exec_stmt(self, st):
        """Execute one statement, yielding its request if it makes one.

        A construction or arbitrary-point statement yields its request
        step, binds what the caller sends back and traces the filled
        step; `asking` holds the statement while its request is pending.
        """
        self.tick()
        env = self.env
        if isinstance(st, LetStep):
            step = Step(st.rule, (), tuple([env[n] for n in st.args]),
                        label=st.text)
            names = st.names
        elif isinstance(st, LetArbitrary):
            step = Step("arbitrary", (),
                        (build_region(env, self.tower, st.region),),
                        label=f"{st.name} = arbitrary -> ")
            names = (st.name,)
        elif isinstance(st, LetChoose):
            passing = []
            decide = TESTS[st.test.kind].decide
            for cand in st.candidates:
                obj = env[cand]
                args = [obj if n == st.name else env[n]
                        for n in st.test.args]
                if decide(*args) != st.test.negated:
                    passing.append((cand, obj))
            if len(passing) != 1:
                names = [c for c, _ in passing] or ["none"]
                self.abort("choose-ambiguous",
                           f"choose {st.name}: {len(passing)} of "
                           f"{len(st.candidates)} candidates pass "
                           f"({', '.join(names)})")
            cand, obj = passing[0]
            env[st.name] = obj
            self.trace.append(Step(
                "choose", (obj,), label=f"{st.name} = choose -> {cand}"))
            return
        elif isinstance(st, If):
            if self.eval_test(st.test):
                yield from self.exec_block(st.then)
            else:
                yield from self.exec_block(st.orelse)
            return
        elif isinstance(st, While):
            count = 0
            while self.eval_test(st.test):
                if count == st.budget:
                    self.abort("while-budget-exhausted",
                               f"test still true after {st.budget} iterations")
                yield from self.exec_block(st.body)
                count += 1
            return
        else:       # pragma: no cover - checker admits no other nodes
            raise TypeError(f"unexpected statement {st!r}")
        self.asking = st
        step.made = yield step
        if len(step.made) != len(names):
            self.abort("intersection-count-mismatch",
                       f"{self.asked()} gave {len(step.made)} points, "
                       f"statement binds {len(names)}")
        env.update(zip(names, step.made))
        self.trace.append(step)

    def asked(self) -> str:
        """How an abort names the statement of the pending request."""
        st = self.asking
        if isinstance(st, LetArbitrary):
            return f"arbitrary {st.name}"
        if st.rule == "intersect":
            return f"intersect({', '.join(st.args)})"
        return f"{st.rule} {st.names[0]}"

    def ask(self, oracle, request: Step) -> tuple:
        """What a request made: a construction's built objects, or the
        oracle's verified answer to a point request as a 1-tuple."""
        if request.rule != "arbitrary":
            try:
                return request.build()
            except DegenerateInputError as exc:
                self.abort("degenerate-step", f"{self.asked()}: {exc}")
        region, = request.parents
        answer = oracle.answer(region, self)
        problem = answer_problem(region, answer, self.tower)
        if problem is not None:
            self.abort("region-scan-exhausted" if answer is None
                       else "oracle-violation", f"{self.asked()}: {problem}")
        return (answer,)

    def eval_test(self, test: Test) -> bool:
        args = [self.env[n] for n in test.args]
        value = TESTS[test.kind].decide(*args) != test.negated
        neg = "not " if test.negated else ""
        self.trace.append(Step(
            "test", (value, test.kind, test.negated), tuple(args),
            label=f"{neg}{test.kind}({', '.join(test.args)}) -> {value}"))
        return value


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
        if getattr(value, "kind", None) != param.kind:
            raise ValueError(f"input {param.name!r} must be a {param.kind}, "
                             f"got {type(value).__name__}")
        env[param.name] = value
    return env


def _tower_of(env: dict):
    """The one tower of the inputs; a checked program has at least one,
    since what it returns must be bound."""
    towers = {value.tower for value in env.values()}
    if len(towers) != 1:
        raise ValueError("inputs from different tower sessions")
    return towers.pop()


def run(program: Program, inputs, oracle=None) -> RunResult:
    """Execute a checked program on exact inputs.

    inputs is a sequence in parameter order or a dict by parameter name.
    oracle answers arbitrary-point statements; the default is a
    SamplingOracle with seed 0.  Raises RunAbort (with .reason and the
    trace so far) when the run cannot complete, e.g. after MAX_STEPS
    statements.
    """
    env = bind_inputs(program, inputs)
    state = _Run(env)
    if oracle is None:
        oracle = SamplingOracle(0)
    for name, value in env.items():
        state.trace.append(Step("input", (value,), label=f"{name} = "))
    steps = state.exec_block(program.body)
    made = None
    while True:
        try:
            request = steps.send(made)
        except StopIteration:
            break
        made = state.ask(oracle, request)
    outputs = tuple(env[name] for name in program.returns)
    return RunResult(outputs, dict(env), state.trace, state.steps)


def requests(program: Program, inputs):
    """A run of a checked program as a generator of its request steps.

    Send back in the tuple each request made: a construction step's
    objects as its `build()` gives them, a point request's answer as a
    1-tuple.  The generator checks neither: the caller meets a
    degenerate step as the DegenerateInputError of `build()` and judges
    an answer with `answer_problem`.  Raises RunAbort as `run` does for
    the other reasons, the MAX_STEPS step budget included.
    """
    return _Run(bind_inputs(program, inputs)).exec_block(program.body)


def recorded_answers(trace) -> list[Point]:
    """Oracle answers of a run trace, for ReplayOracle."""
    return [step.made[0] for step in trace if step.rule == "arbitrary"]
