"""Saturation of a configuration under straightedge and compass steps.

One round first draws every line through two known points and every
circle centered at a known point with a known point-pair distance as
radius, then intersects every not-yet-processed pair among the enlarged
curve set.  `closure` runs rounds to a fixed point, `derivable` stops as
soon as a target point appears, `expand_once` runs a single round.

Duplicate detection hashes the objects themselves: towers keep every
element in canonical form, so equal points and curves have equal
coordinates term by term, and an insertion-ordered dict both drops
exact duplicates and keeps arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ResourceLimitError
from .geom import Circle, Curve, Line, Point, Step, dist2, intersect

ALL_OPS = frozenset({"line", "circle", "intersect"})


@dataclass
class Budget:
    max_rounds: int = 8
    max_objects: int = 5000


@dataclass
class ClosureResult:
    points: list[Point]
    curves: list[Curve]
    rounds: int
    complete: bool
    trace: list[Step] = dc_field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.points) + len(self.curves)


@dataclass
class Derivability:
    derivable: bool
    rounds: int | None
    state: ClosureResult


def _admit(seen: dict, obj) -> bool:
    """Add obj to an insertion-ordered set; True if it was new."""
    if obj in seen:
        return False
    seen[obj] = None
    return True


class _Run:
    def __init__(self, points, curves, budget: Budget, ops,
                 target: Point | Curve | None):
        self.budget = budget
        self.ops = frozenset(ops)
        bad = self.ops - ALL_OPS
        if bad:
            raise ValueError(f"unknown closure ops: {sorted(bad)}")
        self.target = target
        self.points: dict[Point, None] = {}     # insertion-ordered sets
        self.curves: dict[Curve, None] = {}
        # curves only append, so the pairs already intersected are those
        # among the first `intersected` curves
        self.intersected = 0
        self.trace: list[Step] = []
        self.rounds = 0
        self.found_round: int | None = None
        for p in points:
            if _admit(self.points, p):
                self.trace.append(Step("given", (p,)))
        for c in curves:
            if _admit(self.curves, c):
                self.trace.append(Step("given", (c,)))
        if target is not None and (target in self.points
                                   or target in self.curves):
            self.found_round = 0

    @property
    def size(self) -> int:
        return len(self.points) + len(self.curves)

    def result(self, complete: bool) -> ClosureResult:
        return ClosureResult(list(self.points), list(self.curves),
                             self.rounds, complete, self.trace)

    def _check_budget(self):
        if self.size > self.budget.max_objects:
            raise ResourceLimitError(
                f"closure exceeded {self.budget.max_objects} objects",
                partial=self.result(False))

    def _add(self, obj: Point | Curve, rule: str, parents: tuple) -> bool:
        seen = self.points if isinstance(obj, Point) else self.curves
        if not _admit(seen, obj):
            return False
        self.trace.append(Step(rule, (obj,), parents, self.rounds))
        self._check_budget()
        if self.found_round is None and obj == self.target:
            self.found_round = self.rounds
        return True

    def round(self) -> bool:
        """One saturation round; returns True if anything new appeared."""
        self.rounds += 1
        grew = False
        pts = list(self.points)
        if "line" in self.ops:
            for j in range(len(pts)):
                for i in range(j):
                    grew |= self._add(Line.through(pts[i], pts[j]),
                                      "line", (pts[i], pts[j]))
                    if self.found_round is not None:
                        return grew
        if "circle" in self.ops:
            radii = []
            for j in range(len(pts)):
                for i in range(j):
                    radii.append((dist2(pts[i], pts[j]), pts[i], pts[j]))
            for o in pts:
                for r2, a, b in radii:
                    grew |= self._add(Circle(o, r2), "circle", (o, a, b))
                    if self.found_round is not None:
                        return grew
        if "intersect" in self.ops:
            curves = list(self.curves)      # stable: dicts keep arrival order
            for j in range(self.intersected, len(curves)):
                for i in range(j):
                    u, v = curves[i], curves[j]
                    for p in intersect(u, v):
                        grew |= self._add(p, "intersect", (u, v))
                    if self.found_round is not None:
                        return grew
            self.intersected = len(curves)
        return grew

    def run(self) -> bool:
        """Rounds until fixed point, target hit, or round budget; True
        means a fixed point was confirmed."""
        while self.rounds < self.budget.max_rounds:
            grew = self.round()
            if self.found_round is not None:
                return False
            if not grew:
                self.rounds -= 1     # the empty round does not count
                return True
        return False


def closure(points, curves=(), budget: Budget | None = None,
            ops=ALL_OPS) -> ClosureResult:
    """Saturate to a fixed point, or as far as the round budget allows.

    The result's `complete` flag records whether a fixed point was
    confirmed.  Exceeding `max_objects` raises ResourceLimitError with a
    `.partial` result.
    """
    run = _Run(points, curves, budget or Budget(), ops, None)
    complete = run.run()
    return run.result(complete)


def derivable(target: Point | Curve, points, curves=(),
              budget: Budget | None = None, ops=ALL_OPS) -> Derivability:
    """Whether target appears within the round budget, and at which round.

    A negative answer is always budget-relative: it reports that the
    target did not appear, never that it cannot.  The state's `complete`
    flag tells whether a fixed point happened to confirm more.
    """
    run = _Run(points, curves, budget or Budget(), ops, target)
    complete = False
    if run.found_round is None:
        complete = run.run()
    found = run.found_round
    return Derivability(found is not None, found, run.result(complete))


def expand_once(points, curves=(), ops=ALL_OPS,
                budget: Budget | None = None) -> ClosureResult:
    """A single saturation round over the given configuration."""
    run = _Run(points, curves, budget or Budget(), ops, None)
    grew = run.round()
    return run.result(not grew)
