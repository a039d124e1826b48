"""Densification of the plane by straightedge steps alone, and trace replay.

Four points in general position (a triangle and an interior companion)
form a projective frame.  Reading the companion as the image of the
standard simplex center, every rational point of the frame is reachable
by iterated harmonic conjugates, each built from lines and
intersections only.  One mediant descent (`_MediantWalk`) reaches every
axis point: `densify` walks it on the two frame axes toward a target and
assembles a derivable point within a requested distance, returning the
full construction trace; `grid_gaps` measures the exact mesh of the
derivable grid per refinement level; and `RestrictedAlice` uses the same
machinery to translate disk requests of a game strategy into cell
requests (a triangle's interior is `regions.triangle_cell`) plus
construction moves.

`replay_trace` re-derives a trace of `geom.Step` records from its
initial objects, whichever engine wrote it: a run, a closure or a
densify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DegenerateInputError, ResourceLimitError, ScopeError
from .game import (STOP, GameMove, RCircle, RIntersect, RLine, RPointInCell,
                   RPointInDisk)
from .geom import Line, Point, Step, dist2, intersect, orientation
from .regions import Cell, contains_closed_disk, triangle_cell

DEFAULT_MAX_ITERATIONS = 96
WALK_STEPS_PER_ITERATION = 4
SCAFFOLD_TRIES = 24     # cell requests RestrictedAlice makes per disk


@dataclass
class DensifyResult:
    point: Point
    iterations: int
    trace: list
    frame_coords: tuple


def _cross(p: Point, q: Point, r: Point):
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def straightedge_only(trace) -> bool:
    """Whether every step of a trace is a line or intersection step."""
    return all(step.rule in ("line", "intersect") for step in trace)


# A construction step's request: its parents are the request's fields.
_REQUEST = {"line": RLine, "circle": RCircle, "intersect": RIntersect}


def replay_trace(trace, objects) -> bool:
    """Re-derive a run, closure or densify trace, checking every step.

    `objects` are known from the start.  Input, given and arbitrary
    steps make their object known; test and abort steps are skipped.
    A line, circle or intersect step must take only known parents, and
    every object it made must be in what its request builds from them;
    a choose step must pick a known object.  Any other rule, a
    degenerate construction step, or any failed check gives False.
    """
    known = set(objects)
    for step in trace:
        rule, made, parents = step.rule, step.made, step.parents
        if rule in _REQUEST:
            if not known.issuperset(parents):
                return False
            try:
                redo = _REQUEST[rule](*parents).build()
            except DegenerateInputError:
                return False
            for m in made:
                if m not in redo:
                    return False
        elif rule == "choose":
            if made[0] not in known:
                return False
        elif rule in ("test", "abort"):
            continue
        elif rule not in ("input", "given", "arbitrary"):
            return False
        known.update(made)
    return True


class _Frame:
    """Projective frame bookkeeping plus the construction trace.

    Frame coordinates (u, v) name the point with standard areal weights
    (1-u-v, u, v) against the triangle; the interior companion is the
    image of the simplex center.  Axis stocks map constructed rationals
    on the A-B and A-C axes to their real points.
    """

    def __init__(self, a: Point, b: Point, c: Point, d: Point):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.tower = a.tower
        den = _cross(a, b, c)
        self.alpha = _cross(d, b, c) / den
        self.beta = _cross(a, d, c) / den
        self.gamma = _cross(a, b, d) / den
        self.trace: list[Step] = []
        self._lines: dict = {}
        self._build_seeds()

    # -- construction primitives ------------------------------------

    def line(self, p: Point, q: Point) -> Line:
        obj = Line.through(p, q)
        if obj not in self._lines:
            self._lines[obj] = obj
            self.trace.append(Step("line", (obj,), (p, q)))
        return self._lines[obj]

    def cross(self, g: Line, h: Line) -> Point | None:
        pts = intersect(g, h)
        if len(pts) != 1:
            return None
        self.trace.append(Step("intersect", (pts[0],), (g, h)))
        return pts[0]

    def _build_seeds(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        self.l_ab = self.line(a, b)
        self.l_bc = self.line(b, c)
        self.l_ca = self.line(c, a)
        a1 = self.cross(self.line(a, d), self.l_bc)
        b1 = self.cross(self.line(b, d), self.l_ca)
        c1 = self.cross(self.line(c, d), self.l_ab)
        if a1 is None or b1 is None or c1 is None:
            raise DegenerateInputError("frame cevians do not cross the sides")
        self.a1, self.b1, self.c1 = a1, b1, c1
        half = Fraction(1, 2)
        self.stock = {
            "ab": {Fraction(0): a, Fraction(1): b, half: c1},
            "ca": {Fraction(0): a, Fraction(1): c, half: b1},
        }
        self._axis_line = {"ab": self.l_ab, "ca": self.l_ca}
        self._pool = (d, c, b, a, a1, b1, c1)

    # -- coordinates ------------------------------------------------

    def to_frame(self, p: Point):
        """Frame coordinates of a real point as exact elements."""
        den = _cross(self.a, self.b, self.c)
        x = (_cross(p, self.b, self.c) / den) / self.alpha
        y = (_cross(self.a, p, self.c) / den) / self.beta
        z = (_cross(self.a, self.b, p) / den) / self.gamma
        w = x + y + z
        if not w:
            raise DegenerateInputError(
                "point lies on the frame's critical line")
        return y / w, z / w

    def from_frame(self, u, v) -> Point:
        """Real point with frame coordinates (u, v), exactly."""
        one = self.tower.from_rational(1)
        wa = self.alpha * self.tower.from_rational(Fraction(1) - u - v)
        wb = self.beta * self.tower.from_rational(Fraction(u))
        wc = self.gamma * self.tower.from_rational(Fraction(v))
        s = wa + wb + wc
        if not s:
            raise DegenerateInputError(
                "frame point lies on the critical line")
        inv = one / s
        x = (wa * self.a.x + wb * self.b.x + wc * self.c.x) * inv
        y = (wa * self.a.y + wb * self.b.y + wc * self.c.y) * inv
        return Point(x, y)

    # -- harmonic ladder --------------------------------------------

    def harm(self, axis: str, p: Point, q: Point, w: Point) -> Point:
        """Fourth harmonic of w with respect to p, q on an axis line.

        Built from a complete quadrilateral over auxiliary frame points
        r and g.  An attempt whose step degenerates is rewound to the
        line (w, r) and the next g is tried; when no g works for r, the
        trace is rewound to before that line and the next r is tried.
        """
        axis_line = self._axis_line[axis]
        saved = len(self.trace)
        for r in self._pool:
            if axis_line.contains(r):
                continue
            l1 = self.line(w, r)
            mark = len(self.trace)
            for g in self._pool:
                if g == p or axis_line.contains(g) or l1.contains(g):
                    continue
                h = self._quadrilateral(axis_line, p, q, l1, r, g)
                if h is not None:
                    return h
                self._rewind(mark)
            self._rewind(saved)
        raise DegenerateInputError(
            "no admissible auxiliary points for a harmonic step")

    def _quadrilateral(self, axis_line: Line, p: Point, q: Point, l1: Line,
                       r: Point, g: Point) -> Point | None:
        """One harmonic attempt over (r, g), or None when a step
        degenerates."""
        s = self.cross(l1, self.line(p, g))
        if s is None or s == r:
            return None
        x1 = self.cross(self.line(p, r), self.line(q, s))
        x2 = self.cross(self.line(p, s), self.line(q, r))
        if x1 is None or x2 is None or x1 == x2:
            return None
        return self.cross(self.line(x1, x2), axis_line)

    def _rewind(self, length: int):
        """Drop trace entries of a failed harmonic attempt."""
        for step in self.trace[length:]:
            if step.rule == "line":
                self._lines.pop(step.made[0], None)
        del self.trace[length:]

    def axis_point(self, axis: str, t: Fraction) -> Point:
        """Construct the axis point with frame coordinate t in [0, 1]."""
        stock = self.stock[axis]
        if t in stock:
            return stock[t]
        if t < 0 or t > 1:
            raise ScopeError(f"axis coordinate {t} outside [0, 1]")
        walk = _MediantWalk(self, axis, self.tower.from_rational(t))
        for _ in range(100_000):
            walk.step()
            if walk.exact is not None:
                return stock[walk.exact]
        raise ResourceLimitError(f"mediant descent to {t} did not land")

    def _mediant_point(self, axis: str, lo: Fraction, hi: Fraction):
        stock = self.stock[axis]
        m = Fraction(lo.numerator + hi.numerator,
                     lo.denominator + hi.denominator)
        if m in stock:
            return m
        partner = Fraction(lo.numerator - hi.numerator,
                           lo.denominator - hi.denominator)
        point = self.harm(axis, stock[lo], stock[hi], stock[partner])
        expected = self.from_frame(*((m, 0) if axis == "ab" else (0, m)))
        if point != expected:
            raise RuntimeError("harmonic step disagrees with the frame map")
        stock[m] = point
        return m

    def assemble(self, u: Fraction, v: Fraction) -> Point | None:
        """Construct the frame point (u, v) of the closed simplex."""
        if v == 0:
            return self.axis_point("ab", u)
        if u == 0:
            return self.axis_point("ca", v)
        up = self.axis_point("ab", u / (1 - v))
        vp = self.axis_point("ca", v / (1 - u))
        x = self.cross(self.line(self.c, up), self.line(self.b, vp))
        if x is None:
            return None
        if x != self.from_frame(u, v):
            raise RuntimeError("assembly disagrees with the frame map")
        return x


class _MediantWalk:
    """Mediant descent toward one exact frame coordinate in [0, 1].

    Descends the mediant (Stern-Brocot) tree from the seeded {0, 1/2,
    1}: each step constructs the mediant of the current interval ends
    as the harmonic conjugate of an already constructed ancestor with
    respect to those ends, then keeps the half holding the value.
    `exact` is set once a mediant equals the value.
    """

    def __init__(self, frame: _Frame, axis: str, value):
        self.frame = frame
        self.axis = axis
        self.value = value
        self.exact: Fraction | None = None
        half = Fraction(1, 2)
        s = self._compare(half)
        if s == 0:
            self.exact = half
            self.lo, self.hi = half, half
        elif s < 0:
            self.lo, self.hi = Fraction(0), half
        else:
            self.lo, self.hi = half, Fraction(1)

    def _compare(self, t: Fraction) -> int:
        return (self.value - self.frame.tower.from_rational(t)).sign()

    def step(self):
        if self.exact is not None:
            return
        m = self.frame._mediant_point(self.axis, self.lo, self.hi)
        s = self._compare(m)
        if s == 0:
            self.exact = m
        elif s < 0:
            self.hi = m
        else:
            self.lo = m

    def best(self) -> Fraction:
        """Constructed coordinate nearest to the value, never 1."""
        if self.exact is not None:
            return self.exact
        if self.hi == 1:
            return self.lo
        toward_hi = (self.value + self.value
                     - self.frame.tower.from_rational(self.lo + self.hi))
        return self.hi if toward_hi.sign() > 0 else self.lo


def _require_scaffold(a: Point, b: Point, c: Point, d: Point):
    if orientation(a, b, c) == 0:
        raise DegenerateInputError("scaffold triangle is degenerate")
    if not triangle_cell(a, b, c).contains(d):
        raise DegenerateInputError(
            "companion point is not strictly inside the triangle")


def densify(a: Point, b: Point, c: Point, d: Point, target: Point, eps,
            max_iterations: int = DEFAULT_MAX_ITERATIONS) -> DensifyResult:
    """A straightedge-derivable point within eps of the target.

    The scaffold is a nondegenerate triangle (a, b, c) with d strictly
    inside; the target must lie strictly inside the triangle as well.
    eps is a positive rational; the distance guarantee is checked as an
    exact squared comparison.  The result carries the frame coordinates
    used and the full line/intersection trace, replayable from the four
    scaffold points.  Raises ResourceLimitError when the iteration cap
    is hit first.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive rational")
    _require_scaffold(a, b, c, d)
    for given in (a, b, c, d):
        if target == given:
            return DensifyResult(given, 0, [], ())
    frame = _Frame(a, b, c, d)
    u, v = frame.to_frame(target)
    one = frame.tower.one
    if u.sign() <= 0 or v.sign() <= 0 or (one - u - v).sign() <= 0:
        raise ScopeError("target is not strictly inside the scaffold "
                         "triangle")
    eps2 = frame.tower.from_rational(eps * eps)
    walks = (_MediantWalk(frame, "ab", u), _MediantWalk(frame, "ca", v))
    for iteration in range(1, max_iterations + 1):
        for walk in walks:
            for _ in range(WALK_STEPS_PER_ITERATION):
                walk.step()
        ug, vg = walks[0].best(), walks[1].best()
        if ug + vg >= 1:
            ug, vg = walks[0].lo, walks[1].lo
        built = frame.assemble(ug, vg)
        if built is None:
            continue
        if (dist2(built, target) - eps2).sign() <= 0:
            return DensifyResult(built, iteration, frame.trace, (ug, vg))
    raise ResourceLimitError(
        f"densify did not reach eps={eps} within {max_iterations} "
        "iterations")


def grid_gaps(a: Point, b: Point, c: Point, d: Point, levels: int):
    """Exact squared mesh of the derivable frame grid per level.

    Level n images the dyadic simplex lattice of step 2^-n; the gap is
    the largest edge of any lattice cell, squared.  Refining splits
    every cell into four inside it, so the sequence is nonincreasing.
    """
    _require_scaffold(a, b, c, d)
    frame = _Frame(a, b, c, d)
    gaps = []
    for n in range(levels + 1):
        size = 1 << n
        pts = {}
        for i in range(size + 1):
            for j in range(size + 1 - i):
                pts[i, j] = frame.from_frame(Fraction(i, size),
                                             Fraction(j, size))
        worst = None
        for i in range(size + 1):
            for j in range(size - i):
                corners = (pts[i, j], pts[i + 1, j], pts[i, j + 1])
                for s in range(3):
                    d2 = dist2(corners[s], corners[(s + 1) % 3])
                    if worst is None or (d2 - worst).sign() > 0:
                        worst = d2
        gaps.append(worst)
    return gaps


class RestrictedAlice:
    """Wraps a strategy so that it never issues a disk request.

    Disk requests are simulated: a scaffold triangle around the disk is
    gathered from up to SCAFFOLD_TRIES cell requests, its sides are
    requested, an interior companion is requested from the triangle's
    cell, and the densification trace is replayed as line and
    intersection requests until a derivable point lands inside the
    disk.  That point is then presented to the inner strategy as if Bob
    had answered the original request.  The translation runs as one
    generator that each call resumes with the last move; once it ends
    the strategy stops.  Raises ResourceLimitError when the translation
    exceeds its move budget.
    """

    def __init__(self, inner, translation_budget: int = 4000):
        self.inner = inner
        self.budget = translation_budget
        self._position = None
        self._virtual: list[GameMove] = []
        self._requests = self._drive()
        self._started = False

    def __call__(self, position, moves):
        self._position = position
        move = moves[-1] if self._started else None
        self._started = True
        try:
            return self._requests.send(move)
        except StopIteration:
            return STOP

    def _spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise ResourceLimitError("translation budget exceeded")

    def _drive(self):
        while True:
            request = self.inner(self._position, self._virtual)
            if request is STOP:
                return
            if isinstance(request, RPointInDisk):
                answer = yield from self._translate(request.region)
                self._virtual.append(
                    GameMove(len(self._virtual) + 1, request, (answer,),
                             (answer,)))
            else:
                self._spend()
                move = yield request
                self._virtual.append(move)

    def _translate(self, disk):
        center, r2 = disk.center, disk.r2
        points = [p for p in self._position.points]
        if len(points) < 2:
            raise ResourceLimitError(
                "translation needs two position points to start from")
        self._spend()
        base, = (yield RLine(points[0], points[1])).made
        candidates = []
        for attempt in range(SCAFFOLD_TRIES):
            sign = 1 if attempt % 2 == 0 else -1
            self._spend()
            move = yield RPointInCell(Cell(((base, sign),)))
            candidates.append(move.made[0])
            found = self._containing_triangle(candidates, center, r2)
            if found is not None:
                break
        else:
            raise ResourceLimitError(
                "translation found no triangle containing the disk")
        (ta, tb, tc), cell = found
        for p, q in ((ta, tb), (tb, tc), (tc, ta)):
            self._spend()
            yield RLine(p, q)
        # the referee compares curves structurally, so the cell's sides
        # are the lines just requested
        self._spend()
        companion, = (yield RPointInCell(cell)).made
        result = densify(ta, tb, tc, companion, center,
                         self._disk_eps(r2))
        for step in result.trace:
            self._spend()
            yield _REQUEST[step.rule](*step.parents)
        return result.point

    @staticmethod
    def _disk_eps(r2) -> Fraction:
        """A positive rational eps with eps squared strictly below r2."""
        lo = Fraction(0)
        for k in (8, 16, 32, 64, 96):
            lo, _ = r2.approx(k)
            if lo > 0:
                break
        if lo <= 0:
            raise ResourceLimitError("disk radius too small to bound")
        m = 1
        while Fraction(1, 4 ** m) >= lo:
            m += 1
        return Fraction(1, 2 ** m)

    @staticmethod
    def _containing_triangle(candidates, center, r2):
        """The first candidate triangle whose open interior holds the
        closed disk, with that interior as a cell, or None."""
        for tri in combinations(candidates, 3):
            if orientation(*tri) == 0:
                continue
            cell = triangle_cell(*tri)
            if contains_closed_disk(cell, center, r2):
                return tri, cell
        return None


def restricted_alice(inner, translation_budget: int = 4000) \
        -> RestrictedAlice:
    return RestrictedAlice(inner, translation_budget)
