"""Transport of recorded runs under projective maps.

A projective map can fix a circle as a point set while moving its
center, so copying a recorded construction through such a map keeps
every line-incidence fact true yet breaks compass facts and ordering
tests.  `transport` replays a run trace under a map, re-checks each
recorded fact on the transported objects, and reports the first broken
non-incidence fact.  This is why "copy the construction across the
map" is not a sound argument: the copied run is no longer a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInputError, RangeError
from .geom import (
    Circle,
    Line,
    Point,
    ProjectiveMap,
    between,
    dist2,
    dist_compare,
    intersects,
    orientation,
)

GAP_MAP = ProjectiveMap((("5/4", 0, "3/4"), (0, 1, 0), ("3/4", 0, "5/4")))


@dataclass(frozen=True)
class Fact:
    """One recorded fact re-checked after transport.

    kind is "incidence" for facts a projective map must preserve
    (collinearity, intersection membership, point equality), "compass"
    for equidistance facts of circle steps, and "ordering" for
    betweenness, orientation, and distance-comparison tests.
    """

    index: int
    kind: str
    text: str
    before: bool
    after: bool

    @property
    def broken(self) -> bool:
        return self.after != self.before


@dataclass
class TransportReport:
    facts: list
    incidence_sound: bool
    breakpoint: Fact | None

    def summary(self) -> str:
        checked = len(self.facts)
        held = sum(1 for f in self.facts if not f.broken)
        lines = [f"facts checked: {checked}, held: {held}",
                 f"line incidence sound: {self.incidence_sound}"]
        if self.breakpoint is None:
            lines.append("breakpoint: none")
        else:
            b = self.breakpoint
            lines.append(
                f"breakpoint: trace[{b.index}] {b.kind} fact '{b.text}' "
                f"was {b.before}, transported {b.after}")
        return "\n".join(lines)


class _CompassRecord:
    """Transported center plus the expected squared radius, if any."""

    def __init__(self, center: Point, expected=None):
        self.center = center
        self.expected = expected


class _Transport:
    def __init__(self, tmap: ProjectiveMap):
        self.tmap = tmap
        self.points: dict[Point, Point] = {}
        self.lines: dict[Line, Line] = {}
        self.circles: dict[Circle, _CompassRecord] = {}
        self.facts: list[Fact] = []

    def point(self, p: Point) -> Point:
        if p not in self.points:
            self.points[p] = self.tmap.apply_point(p)
        return self.points[p]

    def line(self, l: Line) -> Line:
        if l not in self.lines:
            self.lines[l] = self.tmap.apply_line(l)
        return self.lines[l]

    def fact(self, index, kind, text, before, after):
        self.facts.append(Fact(index, kind, text, bool(before), bool(after)))

    def membership(self, index: int, text: str, p: Point, curve) -> None:
        """Record the fact that p lies on the curve, re-checked."""
        image = self.point(p)
        if isinstance(curve, Line):
            self.fact(index, "incidence", f"{text}: point on line", True,
                      self.line(curve).contains(image))
            return
        rec = self.circles[curve]
        d = dist2(image, rec.center)
        if rec.expected is None:
            rec.expected = d
            self.fact(index, "compass", f"{text}: first point on circle",
                      True, True)
        else:
            self.fact(index, "compass",
                      f"{text}: point equidistant from center", True,
                      d == rec.expected)

    def visit(self, index: int, ev) -> None:
        if ev.kind == "input":
            obj = ev.objs[0]
            if isinstance(obj, Point):
                self.point(obj)
            elif isinstance(obj, Line):
                self.line(obj)
            elif isinstance(obj, Circle):
                self.circles[obj] = _CompassRecord(self.point(obj.center))
        elif ev.kind == "line":
            obj, p, q = ev.objs
            image = Line.through(self.point(p), self.point(q))
            self.lines[obj] = image
            self.fact(index, "incidence", f"{ev.text}: endpoints collinear",
                      True, image.contains(self.point(p))
                      and image.contains(self.point(q)))
        elif ev.kind == "circle":
            obj, center, a, b = ev.objs
            self.circles[obj] = _CompassRecord(
                self.point(center), dist2(self.point(a), self.point(b)))
        elif ev.kind == "intersect":
            g, h = ev.objs[0], ev.objs[1]
            for p in ev.objs[2:]:
                self.membership(index, ev.text, p, g)
                self.membership(index, ev.text, p, h)
        elif ev.kind in ("choose", "arbitrary"):
            obj = ev.objs[0]
            if isinstance(obj, Point):
                self.point(obj)
        elif ev.kind == "test":
            self.visit_test(index, ev)

    def visit_test(self, index: int, ev) -> None:
        before, kind, negated = ev.objs[0], ev.objs[1], ev.objs[2]
        args = ev.objs[3:]
        if any(isinstance(a, Circle) for a in args) and kind != "on":
            return
        if kind == "equal":
            after = self.image(args[0]) == self.image(args[1])
            klass = "incidence"
        elif kind == "on":
            if isinstance(args[1], Circle):
                self.membership(index, ev.text, args[0], args[1])
                return
            after = self.line(args[1]).contains(self.point(args[0]))
            klass = "incidence"
        elif kind == "intersects":
            after = intersects(self.image(args[0]), self.image(args[1]))
            klass = "ordering"
        elif kind == "between":
            after = between(*(self.point(a) for a in args))
            klass = "ordering"
        elif kind == "ccw":
            after = orientation(*(self.point(a) for a in args)) > 0
            klass = "ordering"
        elif kind == "dist_le":
            after = dist_compare(*(self.point(a) for a in args)) <= 0
            klass = "ordering"
        else:       # dist_eq
            after = dist_compare(*(self.point(a) for a in args)) == 0
            klass = "ordering"
        if negated:
            after = not after
        self.fact(index, klass, ev.text, before, after)

    def image(self, obj):
        if isinstance(obj, Point):
            return self.point(obj)
        if isinstance(obj, Line):
            return self.line(obj)
        raise TypeError(f"no transported image for {type(obj).__name__}")


def transport(trace, tmap: ProjectiveMap = GAP_MAP) -> TransportReport:
    """Re-check a recorded run's facts under a projective map.

    Walks trace events in order, transporting points by the map and
    lines by joining transported endpoints.  Returns the fact list, a
    flag whether all incidence facts survived (they must, this is the
    projective guarantee), and the first broken compass or ordering
    fact, or None when nothing broke.  A point or line that the map
    sends to infinity is reported as a broken compass fact.
    """
    state = _Transport(tmap)
    for index, ev in enumerate(trace):
        try:
            state.visit(index, ev)
        except (RangeError, DegenerateInputError) as exc:
            state.fact(index, "compass", f"{ev.text}: {exc}", True, False)
    incidence_sound = all(not f.broken for f in state.facts
                          if f.kind == "incidence")
    breakpoint_ = next((f for f in state.facts
                        if f.broken and f.kind != "incidence"), None)
    return TransportReport(state.facts, incidence_sound, breakpoint_)
