"""Saturation of a configuration under straightedge and compass steps.

One round first draws every line through two known points and every
circle centered at a known point with a known point-pair distance as
radius, then decides every not-yet-processed pair among the enlarged
curve set.  `closure` runs rounds to a fixed point, `derivable` stops as
soon as a target point appears, `expand_once` runs a single round.

The run records which known points lie on which curves, from facts
exact by construction: a line passes through the two points it was
drawn through, a circle through the point its radius was measured to
from its own center, and both curves of a pair through every meet
found for it.  Each new curve collects, from the curves through its own
points, the known points it shares with every earlier curve, and adds
each meet it finds.  A pair that shares two known points, or two lines
sharing one, can meet nowhere new and is skipped.  Any other pair
sharing one known point holds a circle, and `geom.second_meet` mirrors
that point to the pair's other meet without a root.  Only pairs sharing
no known point are intersected.  Every meet a skipped or mirrored pair
would have given is known already or lies in the field of the known
point and the curves, so the objects, their order and the trace are
those of intersecting every pair.

The run keeps what it knows in a `geom.Position`, whose one dict maps
each object to its arrival index: towers keep every element in
canonical form, so equal points and curves have equal coordinates term
by term, and one probe of that dict both drops an exact duplicate and
gives the arrival index the incidence lists are kept by.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field

from .errors import ResourceLimitError
from .geom import (
    RULES,
    Circle,
    Curve,
    Line,
    Point,
    Position,
    Step,
    dist2,
    intersect,
    second_meet,
)

ALL_OPS = frozenset(RULES)


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


class _Run:
    def __init__(self, points, curves, budget: Budget, ops,
                 target: Point | Curve | None):
        self.budget = budget
        self.ops = frozenset(ops)
        bad = self.ops - ALL_OPS
        if bad:
            raise ValueError(f"unknown closure ops: {sorted(bad)}")
        self.target = target
        self.position = Position()
        # incidences known by construction, as arrival indices: the
        # curves through each point, and the points each curve was drawn
        # through, which is all a curve's own intersect pass reads of it
        self.through: list[list[int]] = []
        self.on: list[list[int]] = []
        # curves only append, so the pairs already decided are those
        # among the first `intersected` curves
        self.intersected = 0
        self.trace: list[Step] = []
        self.rounds = 0
        self.found_round: int | None = None
        for obj in (*points, *curves):
            if self._index(obj)[1]:
                self.trace.append(Step("given", (obj,)))
        if target is not None and target in self.position.index:
            self.found_round = 0

    def result(self, complete: bool) -> ClosureResult:
        position = self.position
        return ClosureResult(position.points[:], position.curves[:],
                             self.rounds, complete, self.trace)

    def _check_budget(self):
        if self.position.size > self.budget.max_objects:
            raise ResourceLimitError(
                f"closure exceeded {self.budget.max_objects} objects",
                partial=self.result(False))

    def _index(self, obj: Point | Curve) -> tuple[int, bool]:
        """obj's arrival index, admitting it if new; and whether it was."""
        k, new = self.position.admit(obj)
        if new:
            (self.through if isinstance(obj, Point) else self.on).append([])
        return k, new

    def _add(self, obj: Point | Curve, rule: str, parents: tuple) -> int:
        """obj's arrival index; a new obj is traced and budgeted first."""
        k, new = self._index(obj)
        if new:
            self.trace.append(Step(rule, (obj,), parents, self.rounds))
            self._check_budget()
            if self.found_round is None and obj == self.target:
                self.found_round = self.rounds
        return k

    def _drawn(self, c: int, k: int):
        """Record that curve c was drawn through point k."""
        if c not in self.through[k]:
            self.through[k].append(c)
            self.on[c].append(k)

    def round(self) -> bool:
        """One saturation round; returns True if anything new appeared."""
        self.rounds += 1
        known = self.position
        start = known.size
        pts = known.points[:]           # pts[i] has arrival index i
        if "line" in self.ops:
            for j in range(len(pts)):
                for i in range(j):
                    k = self._add(Line.through(pts[i], pts[j]),
                                  "line", (pts[i], pts[j]))
                    self._drawn(k, i)
                    self._drawn(k, j)
                    if self.found_round is not None:
                        return True
        if "circle" in self.ops:
            radii = []
            for j in range(len(pts)):
                for i in range(j):
                    radii.append((dist2(pts[i], pts[j]), i, j))
            for o in range(len(pts)):
                for r2, a, b in radii:
                    k = self._add(Circle(pts[o], r2), "circle",
                                  (pts[o], pts[a], pts[b]))
                    if o == a:
                        self._drawn(k, b)
                    elif o == b:
                        self._drawn(k, a)
                    if self.found_round is not None:
                        return True
        if "intersect" in self.ops:
            curves = known.curves[:]        # curves[i] has arrival index i
            through = self.through
            for j in range(self.intersected, len(curves)):
                v = curves[j]
                # the known points v shares with each curve, kept up to
                # date as meets on v are found
                shared: defaultdict[int, list[int]] = defaultdict(list)
                for k in self.on[j]:
                    for c in through[k]:
                        shared[c].append(k)
                for i in range(j):
                    u = curves[i]
                    common = shared.get(i)
                    if common is None:
                        meets = intersect(u, v)
                    elif len(common) > 1 or (isinstance(u, Line)
                                             and isinstance(v, Line)):
                        # distinct curves meet at most twice, lines once
                        continue
                    else:
                        meets = (second_meet(u, v, known.points[common[0]]),)
                    for p in meets:
                        k = self._add(p, "intersect", (u, v))
                        at = through[k]
                        if i not in at:
                            at.append(i)
                        if j not in at:
                            at.append(j)
                            for c in at:
                                shared[c].append(k)
                    if self.found_round is not None:
                        return True
            self.intersected = len(curves)
        return known.size > start

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
