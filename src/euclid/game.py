"""Full-information construction game between Alice and Bob.

Alice tries to make a target object appear in the position by issuing
requests; construction requests (line, circle, intersection) are
executed deterministically by the referee, while point requests name an
open region and are answered by Bob, whose answer is verified exactly
before it is admitted; `judge` decides one move, by the request's
`geom.RULES` entry for a construction.  A request is a `geom.Step`
whose `made` is still empty, and a play's record is the list of filled
steps, one per move, which `net.replay_trace` judges again.  The
position is a `geom.Position`.  Adversaries
include a benign seeded sampler and a certificate player that answers
only with members of a prescribed dense closed set; `check_certificate`
probes such a set for the falsifiable consequences of being a valid
negative certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .closure import Budget, expand_once
from .dsl.ast import Program
from .dsl.interp import SamplingOracle, answer_problem, requests
from .errors import DegenerateInputError, RunAbort
from .geom import RULES, Point, Position, Step, fmt, point
from .regions import Cell, Disk

STRAIGHTEDGE_OPS = frozenset({"line", "intersect"})

DEFAULT_MAX_MOVES = 50
SUBSET_SAMPLES = 4      # member sets check_certificate closes once
SUBSET_SIZE = 2         # points in each of those sets


# ---------------------------------------------------------------------------
# Requests and outcomes.

STOP = Step("stop")     # the request of a strategy that gives up


# Shorthands the benchmark's workloads import; other code writes the
# request `Step` itself.
def RLine(p: Point, q: Point) -> Step:
    return Step("line", (), (p, q))


def RPointInDisk(region) -> Step:
    return Step("arbitrary", (), (region,))


@dataclass(frozen=True)
class AliceWins:
    moves: int


@dataclass(frozen=True)
class Timeout:
    move_budget: int


@dataclass(frozen=True)
class Aborted:
    reason: str
    message: str = ""


def _request_text(step: Step) -> str:
    rule = RULES.get(step.rule)
    if rule is not None:
        return rule.text.format(*map(fmt, step.parents))
    if step.rule == "arbitrary":
        return f"point in {step.parents[0]!r}"
    return step.rule


# ---------------------------------------------------------------------------
# Game record.

@dataclass
class GameRecord:
    """A play: one filled request step per move, `round` its number,
    and beside each what it added to the position."""

    outcome: object
    moves: list[Step]
    position: Position
    added: list[tuple] = field(default_factory=list)

    def move_text(self, i: int) -> str:
        step = self.moves[i]
        bob = fmt(step.made[0]) if step.rule == "arbitrary" else "-"
        grew = "; ".join(fmt(o) for o in self.added[i]) or "nothing"
        return f"move {step.round}: ALICE {_request_text(step)} / " \
               f"BOB {bob} / POSITION +{grew}"

    def transcript(self) -> str:
        lines = [self.move_text(i) for i in range(len(self.moves))]
        lines.append(f"outcome: {self.outcome}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Referee.

def request_problem(request, position: Position) -> str | None:
    """A malformed-request message, or None.  A construction request
    needs as many operands as its `RULES` entry, each of the entry's
    classes and in the position; a point request needs one region, a
    disk of this session, centred anywhere, or a cell whose curves are
    in the position.  Degenerate constructions are left to the step's
    `build()`."""
    name = getattr(request, "rule", None)
    rule = RULES.get(name)
    if rule is None and name != "arbitrary":
        return f"unknown request {request!r}"
    if len(request.parents) != (1 if rule is None else rule.arity):
        return f"{name} request with {len(request.parents)} operands"
    if rule is not None:
        kinds = rule.operands
        for obj in request.parents:
            if not isinstance(obj, kinds) or not position.contains(obj):
                return f"{rule.role} {fmt(obj)} is not in the position"
        return None
    region, = request.parents
    if isinstance(region, Disk):
        tower = position.tower
        if region.center.tower is not tower or region.r2.tower is not tower:
            return "disk request from another session"
        return None
    if isinstance(region, Cell):
        for curve, _ in region.conds:
            if not position.contains(curve):
                return f"cell condition on {fmt(curve)} outside the position"
        return None
    return f"point request in {region!r}, neither a disk nor a cell"


def judge(request, position: Position, answer) -> tuple | Aborted:
    """One move: what a request makes in the position, or the Aborted
    outcome that ends the game.  A construction is built by `build()`; a
    point request's region goes to `answer(region, position)`, and the
    point counts when `answer_problem` accepts it."""
    problem = request_problem(request, position)
    if problem is not None:
        return Aborted("malformed-request", problem)
    if request.rule != "arbitrary":
        try:
            return request.build()
        except DegenerateInputError as exc:
            return Aborted("malformed-request", str(exc))
    region, = request.parents
    found = answer(region, position)
    problem = answer_problem(region, found, position.tower)
    if problem is not None:
        return Aborted("region-scan-exhausted" if found is None
                       else "bob-violation", problem)
    return (found,)


def play(points, curves, target, alice, bob,
         max_moves: int = DEFAULT_MAX_MOVES) -> GameRecord:
    """Referee a game from the configuration (points, curves).

    Alice is a callable (position, moves_so_far) -> request step or
    STOP.  Each request is judged by `judge`, with Bob's
    `answer(region, position)` answering point requests, and each move
    is recorded as `Step(rule, made, parents, round=move)`.
    The game ends with AliceWins when the target is in the position,
    Timeout at the move budget or when Alice stops, and Aborted with its
    reason when Alice raises RunAbort (a scripted Alice's run aborted),
    a request is malformed or degenerate, or Bob misbehaves.
    """
    position = Position([*points, *curves])
    record = GameRecord(None, [], position)
    answer = getattr(bob, "answer", None)   # a play may need no Bob
    if position.contains(target):
        record.outcome = AliceWins(0)
        return record
    for index in range(1, max_moves + 1):
        try:
            request = alice(position, record.moves)
        except RunAbort as exc:
            record.outcome = Aborted(exc.reason, exc.message)
            return record
        if getattr(request, "rule", None) == "stop":
            record.moves.append(Step("stop", round=index))
            record.added.append(())
            record.outcome = Timeout(max_moves)
            return record
        made = judge(request, position, answer)
        if isinstance(made, Aborted):
            record.outcome = made
            return record
        record.moves.append(Step(request.rule, made, request.parents,
                                 round=index))
        record.added.append(tuple(obj for obj in made if position.add(obj)))
        if position.contains(target):
            record.outcome = AliceWins(index)
            return record
    record.outcome = Timeout(max_moves)
    return record


# ---------------------------------------------------------------------------
# Strategies.

class ScriptedAlice:
    """Plays a checked construction program as a request strategy.

    Drives the construction-program interpreter as a request generator:
    each request step it yields goes to the referee, and what the last
    move made is sent back in (the referee's objects after a
    construction request, Bob's verified point after a point request).
    choose, if, and while run privately on the interpreter's mirror of
    the position, which holds the referee's own objects, so Alice never
    constructs anything herself.  When the program ends the strategy
    stops; when the run aborts, its RunAbort reaches `play`, which ends
    the game Aborted with the run's reason.
    """

    def __init__(self, program: Program, inputs):
        self._requests = requests(program, inputs)

    def __call__(self, position, moves):
        # a game's first call has no moves yet
        made = moves[-1].made if moves else None
        try:
            return self._requests.send(made)
        except StopIteration:
            return STOP


def scripted_alice(program: Program, inputs) -> ScriptedAlice:
    return ScriptedAlice(program, inputs)


# ---------------------------------------------------------------------------
# Bobs.

SamplingBob = SamplingOracle    # the benign adversary is the run oracle


def sampling_bob(seed: int = 0) -> SamplingBob:
    return SamplingBob(seed)


class RationalPlane:
    """All objects with rational data: points, lines, and circles.

    A candidate dense closed superset excluding a target: dense, closed
    under straightedge steps, but not under compass crossings, whose
    coordinates can need a square root.  `contains` decides membership
    exactly on tower objects; `enumerate_in_disk` returns the center of
    a disk when it is rational, a member strictly inside, else None.
    """

    def contains(self, obj) -> bool:
        return obj.height == 0

    def enumerate_in_disk(self, disk: Disk) -> Point | None:
        return disk.center if disk.center.height == 0 else None


def rational_certificate() -> RationalPlane:
    return RationalPlane()


class CertificateBob(SamplingOracle):
    """Adversary answering every point request with a cert member.

    It runs the sampling scan from its seed and answers the point found
    when the certificate contains it, else None.  The scan's points are
    rational, so the rational plane keeps every one of them.
    """

    def __init__(self, cert: RationalPlane, seed: int = 0):
        super().__init__(seed)
        self.cert = cert

    def answer(self, region, position: Position) -> Point | None:
        p = super().answer(region, position)
        return p if p is not None and self.cert.contains(p) else None


def certificate_bob(cert: RationalPlane, seed: int = 0) \
        -> CertificateBob:
    return CertificateBob(cert, seed)


# ---------------------------------------------------------------------------
# Certificate checking.

@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    condition: str | None       # failing condition when not passed
    witness: object
    samples: int

    def __repr__(self) -> str:
        if self.passed:
            return f"CertificateCheck(PASS, samples={self.samples})"
        return (f"CertificateCheck(FAIL, condition={self.condition!r}, "
                f"witness={self.witness!r})")


def _lattice_centers():
    """Small integer centers in a fixed order, origin then unit steps."""
    first = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
    rest = sorted(((x, y) for x in range(-2, 3) for y in range(-2, 3)
                   if (x, y) not in first),
                  key=lambda c: (abs(c[0]) + abs(c[1]), c))
    return first + rest


def check_certificate(cert: RationalPlane, points, curves, target,
                      ops=STRAIGHTEDGE_OPS, seed: int = 0) -> CertificateCheck:
    """Probe the falsifiable consequences of a negative certificate.

    Checks, in order: every configuration object is a member; the
    target is not; for SUBSET_SAMPLES sampled member sets of
    SUBSET_SIZE points, one closure round under `ops` stays inside the
    certificate; the enumerator hits a grid of small disks.  The first
    violation is returned as a witness; a PASS is sampled evidence, not
    a proof.
    """
    checked = 0
    for p in points:
        checked += 1
        if not cert.contains(p):
            return CertificateCheck(False, "input-not-member", p, checked)
    for c in curves:
        checked += 1
        if not cert.contains(c):
            return CertificateCheck(False, "input-not-member", c, checked)
    checked += 1
    if cert.contains(target):
        return CertificateCheck(False, "target-member", target, checked)

    tower = [*points, *curves, target][0].tower
    rng = random.Random(seed)
    centers = _lattice_centers()
    quarter = Fraction(1, 4)
    for trial in range(SUBSET_SAMPLES):
        sample = []
        for slot in range(SUBSET_SIZE):
            cx, cy = centers[(trial + slot) % len(centers)]
            if trial > 0:
                cx = cx + Fraction(rng.randint(-2, 2), 4)
                cy = cy + Fraction(rng.randint(-2, 2), 4)
            disk = Disk(point(tower, cx, cy), tower.from_rational(quarter))
            member = cert.enumerate_in_disk(disk)
            if member is None:
                return CertificateCheck(False, "not-dense", disk, checked)
            sample.append(member)
        result = expand_once(sample, (), ops=ops,
                             budget=Budget(max_objects=20000))
        for obj in result.points + result.curves:
            checked += 1
            if not cert.contains(obj):
                return CertificateCheck(False, "closure-violation", obj,
                                        checked)
    small = tower.from_rational(Fraction(1, 64))
    for cx, cy in centers:
        checked += 1
        disk = Disk(point(tower, cx, cy), small)
        member = cert.enumerate_in_disk(disk)
        if member is None or not disk.contains(member) \
                or not cert.contains(member):
            return CertificateCheck(False, "not-dense", disk, checked)
    return CertificateCheck(True, None, None, checked)
