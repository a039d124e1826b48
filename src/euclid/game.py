"""Full-information construction game between Alice and Bob.

Alice tries to make a target object appear in the position by issuing
requests; construction requests (line, circle, intersection) are
executed deterministically by the referee, while point requests name an
open region and are answered by Bob, whose answer is verified exactly
before it is admitted.  Adversaries include a benign seeded sampler and
a certificate player that answers only with members of a prescribed
dense closed set; `check_certificate` probes such a set for the
falsifiable consequences of being a valid negative certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .closure import ALL_OPS, Budget, expand_once
from .dsl.ast import Program
from .dsl.interp import (
    RCircle,
    Request,
    RIntersect,
    RLine,
    RPointInCell,
    RPointInDisk,
    SamplingOracle,
    answer_problem,
    requests,
)
from .errors import DegenerateInputError, RunAbort
from .geom import Circle, Line, Point, fmt, point
from .regions import Cell, Disk, inscribe_disk, sample_point

STRAIGHTEDGE_OPS = frozenset({"line", "intersect"})

DEFAULT_MAX_MOVES = 50
BOB_TRIES = 32          # sub-disks a CertificateBob draws per request
SUBSET_SAMPLES = 4      # member sets check_certificate closes once
SUBSET_SIZE = 2         # points in each of those sets


# ---------------------------------------------------------------------------
# Outcomes.  The requests (RLine, RCircle, RIntersect, RPointInDisk,
# RPointInCell) are the interpreter's, re-exported here.

class _Stop:
    def __repr__(self) -> str:
        return "Stop"


STOP = _Stop()


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


def _request_text(request) -> str:
    if isinstance(request, RLine):
        return f"line {fmt(request.p)} {fmt(request.q)}"
    if isinstance(request, RCircle):
        return (f"circle center {fmt(request.o)} "
                f"radius |{fmt(request.a)} {fmt(request.b)}|")
    if isinstance(request, RIntersect):
        return f"intersect {fmt(request.g)} with {fmt(request.h)}"
    return f"point in {request.region!r}"


# ---------------------------------------------------------------------------
# Position and game record.

class Position:
    """Monotonically growing exact configuration, in arrival order."""

    def __init__(self, points=(), curves=()):
        self.points: list[Point] = []
        self.curves: list = []
        self._members: set = set()
        for p in points:
            self.add(p)
        for c in curves:
            self.add(c)

    @property
    def tower(self):
        for obj in self.points + self.curves:
            return obj.tower
        raise ValueError("empty position has no tower")

    def add(self, obj) -> bool:
        """Append if new; True when the position grew."""
        if obj in self._members:
            return False
        self._members.add(obj)
        (self.points if isinstance(obj, Point) else self.curves).append(obj)
        return True

    def contains(self, obj) -> bool:
        return obj in self._members

    @property
    def size(self) -> int:
        return len(self.points) + len(self.curves)


@dataclass
class GameMove:
    index: int
    request: object
    made: tuple     # all the referee built, new or not, or Bob's one point
    added: tuple

    def text(self) -> str:
        bob = fmt(self.made[0]) \
            if isinstance(self.request, (RPointInDisk, RPointInCell)) else "-"
        if self.request is STOP:
            alice = "stop"
        else:
            alice = _request_text(self.request)
        grew = "; ".join(fmt(o) for o in self.added) or "nothing"
        return f"move {self.index}: ALICE {alice} / BOB {bob} / " \
               f"POSITION +{grew}"


@dataclass
class GameRecord:
    outcome: object
    moves: list[GameMove]
    position: Position

    def transcript(self) -> str:
        lines = [m.text() for m in self.moves]
        lines.append(f"outcome: {self.outcome}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Referee.

def _validate(request, position: Position) -> str | None:
    """A malformed-request message when the request names anything
    outside the position, or a disk from another tower, or None.
    Degenerate constructions are left to the request's `build()`."""
    if isinstance(request, RLine):
        for p in (request.p, request.q):
            if not position.contains(p):
                return f"line endpoint {fmt(p)} is not in the position"
        return None
    if isinstance(request, RCircle):
        for p in (request.o, request.a, request.b):
            if not position.contains(p):
                return f"circle reference {fmt(p)} is not in the position"
        return None
    if isinstance(request, RIntersect):
        for c in (request.g, request.h):
            if not isinstance(c, (Line, Circle)) or not position.contains(c):
                return f"intersection operand {fmt(c)} is not in the position"
        return None
    if isinstance(request, RPointInDisk):
        disk = request.region
        if not isinstance(disk, Disk):
            return "disk request without a disk"
        tower = position.tower
        if disk.center.tower is not tower or disk.r2.tower is not tower:
            return "disk request from another session"
        return None
    if isinstance(request, RPointInCell):
        if not isinstance(request.region, Cell):
            return "cell request without a cell"
        for curve, _ in request.region.conds:
            if not position.contains(curve):
                return f"cell condition on {fmt(curve)} outside the position"
        return None
    return f"unknown request {request!r}"


def play(points, curves, target, alice, bob,
         max_moves: int = DEFAULT_MAX_MOVES) -> GameRecord:
    """Referee a game from the configuration (points, curves).

    Alice is a callable (position, moves_so_far) -> Request or STOP.
    The referee builds construction requests with their `build()`, and
    Bob answers point requests via `answer(region, position)`; the
    answer counts when `answer_problem` accepts it.  The game ends with
    AliceWins when the target is in the position, Timeout at the move
    budget or when Alice stops, and Aborted with its reason when Alice
    raises RunAbort (a scripted Alice's run aborted), a request is
    malformed or degenerate, or Bob misbehaves.
    """
    position = Position(points, curves)
    record = GameRecord(None, [], position)
    if position.contains(target):
        record.outcome = AliceWins(0)
        return record
    for index in range(1, max_moves + 1):
        try:
            request = alice(position, record.moves)
        except RunAbort as exc:
            record.outcome = Aborted(exc.reason, exc.message)
            return record
        if request is STOP:
            record.moves.append(GameMove(index, STOP, (), ()))
            record.outcome = Timeout(max_moves)
            return record
        problem = _validate(request, position)
        if problem is not None:
            record.outcome = Aborted("malformed-request", problem)
            return record
        if isinstance(request, (RPointInDisk, RPointInCell)):
            answer = bob.answer(request.region, position)
            problem = answer_problem(request.region, answer, position.tower)
            if problem is not None:
                record.outcome = Aborted(
                    "region-scan-exhausted" if answer is None
                    else "bob-violation", problem)
                return record
            made = (answer,)
        else:
            try:
                made = request.build()
            except DegenerateInputError as exc:
                record.outcome = Aborted("malformed-request", str(exc))
                return record
        added = tuple(obj for obj in made if position.add(obj))
        record.moves.append(GameMove(index, request, made, added))
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
    each construction or point request goes to the referee, and what
    the last move made is sent back in (the referee's objects after a
    construction request, Bob's verified point after a point request).
    choose, if, and while run privately on the interpreter's mirror of
    the position, which holds the referee's own objects, so Alice never
    constructs anything herself.  When the program ends the strategy
    stops; when the run aborts, its RunAbort reaches `play`, which ends
    the game Aborted with the run's reason.
    """

    def __init__(self, program: Program, inputs):
        self.program = program
        self._requests = requests(program, inputs)
        self._started = False

    def __call__(self, position, moves):
        made = moves[-1].made if self._started else None
        self._started = True
        try:
            return self._requests.send(made)
        except StopIteration:
            return STOP


def scripted_alice(program: Program, inputs) -> ScriptedAlice:
    return ScriptedAlice(program, inputs)


class UniformView:
    """Predicate-only view of a position for uniform strategies.

    Objects are addressed by kind and arrival index; only exact test
    answers are exposed, never coordinates.
    """

    def __init__(self, position: Position):
        self._position = position

    def counts(self) -> tuple[int, int]:
        return len(self._position.points), len(self._position.curves)

    def _point(self, i: int) -> Point:
        return self._position.points[i]

    def _curve(self, i: int):
        return self._position.curves[i]

    def equal_points(self, i: int, j: int) -> bool:
        return self._point(i) == self._point(j)

    def on(self, i: int, j: int) -> bool:
        return self._curve(j).contains(self._point(i))

    def side(self, i: int, j: int) -> int:
        return self._curve(j).side(self._point(i))


# ---------------------------------------------------------------------------
# Bobs.

SamplingBob = SamplingOracle    # the benign adversary is the run oracle


def sampling_bob(seed: int = 0) -> SamplingBob:
    return SamplingBob(seed)


@dataclass(frozen=True)
class CertificateDescriptor:
    """A candidate dense closed superset excluding a target.

    `contains_point` and `contains_curve` decide membership exactly on
    tower objects; `enumerate_in_disk` returns a member point strictly
    inside any given disk, or None when it fails.
    """

    name: str
    contains_point: object
    contains_curve: object
    enumerate_in_disk: object

    def contains(self, obj) -> bool:
        if isinstance(obj, Point):
            return self.contains_point(obj)
        return self.contains_curve(obj)


def rational_certificate() -> CertificateDescriptor:
    """All objects with rational data: points, lines, and circles.

    Dense, closed under straightedge steps, but not under compass
    crossings, whose coordinates can need a square root.
    """
    def contains_point(p: Point) -> bool:
        return p.height == 0

    def contains_curve(c) -> bool:
        return c.height == 0

    def enumerate_in_disk(disk: Disk) -> Point | None:
        center = disk.center
        if center.height == 0:
            return center
        tower = center.tower
        for k in (4, 8, 16, 24, 32, 48, 64):
            lo_x, hi_x = center.x.approx(k)
            lo_y, hi_y = center.y.approx(k)
            p = point(tower, (lo_x + hi_x) / 2, (lo_y + hi_y) / 2)
            if disk.contains(p):
                return p
        return None

    return CertificateDescriptor("rational-plane", contains_point,
                                 contains_curve, enumerate_in_disk)


class CertificateBob:
    """Adversary answering every point request with a cert member.

    A disk inscribed in the requested region is found by seeded
    sampling, then the certificate's enumerator picks a member inside
    it; sub-disks are re-drawn, up to BOB_TRIES times, until the member
    is new to the position.
    """

    def __init__(self, cert: CertificateDescriptor, seed: int = 0):
        self.cert = cert
        self.seed = seed
        self._rng = random.Random(seed)

    def answer(self, region, position: Position) -> Point | None:
        tower = position.tower
        for _ in range(BOB_TRIES):
            q = sample_point(tower, region, self._rng,
                             avoid_points=position.points,
                             avoid_curves=position.curves)
            if q is None:
                return None
            rho2 = inscribe_disk(region, q)
            if rho2 is None:
                continue
            p = self.cert.enumerate_in_disk(Disk(q, rho2))
            if p is None:
                continue
            if position.contains(p):
                continue
            if any(c.contains(p) for c in position.curves):
                continue
            return p
        return None


def certificate_bob(cert: CertificateDescriptor, seed: int = 0) \
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


def check_certificate(cert: CertificateDescriptor, points, curves, target,
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
        if not cert.contains_point(p):
            return CertificateCheck(False, "input-not-member", p, checked)
    for c in curves:
        checked += 1
        if not cert.contains_curve(c):
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
                or not cert.contains_point(member):
            return CertificateCheck(False, "not-dense", disk, checked)
    return CertificateCheck(True, None, None, checked)
