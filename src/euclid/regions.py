"""Open planar regions used by arbitrary-point requests.

A region is either an open disk or an open cell cut out by strict side
conditions against known lines and circles.  Membership is decided with
exact sign tests.  `triangle_cell` is the open interior of a triangle
as a cell.  `contains_closed_disk` checks that a whole closed
rational disk fits inside a region, again exactly: against a circle,
inside or outside, the fit is the one test sqrt(a) + sqrt(b) < sqrt(c)
of squared lengths, decided by squaring the roots away.
`sample_point` hunts for a rational member on dyadic grids of
increasing resolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError
from .geom import Circle, Line, Point, dist2, point

INSIDE = -1

TRIES_PER_STAGE = 64    # grid draws per stage of sample_point
MAX_STAGE = 12          # stages before sample_point gives up


@dataclass(frozen=True)
class Disk:
    """Open disk given by center and squared radius."""

    center: Point
    r2: object

    def __post_init__(self):
        if self.r2.sign() <= 0:
            raise DegenerateInputError("disk needs a positive squared radius")

    def contains(self, p: Point) -> bool:
        return (dist2(p, self.center) - self.r2).sign() < 0


@dataclass(frozen=True)
class Cell:
    """Open region where each curve keeps a prescribed strict sign.

    Conditions are (curve, sign) pairs.  For a line the sign is the side
    of the oriented equation; for a circle -1 means strictly inside and
    +1 strictly outside.
    """

    conds: tuple

    def __post_init__(self):
        for curve, sign in self.conds:
            if sign not in (-1, 1):
                raise ValueError(f"cell sign must be -1 or +1, got {sign}")
            if not isinstance(curve, (Line, Circle)):
                raise TypeError(f"cell condition on non-curve {curve!r}")

    def contains(self, p: Point) -> bool:
        return all(curve.side(p) == sign for curve, sign in self.conds)


Region = Disk | Cell


def triangle_cell(a: Point, b: Point, c: Point) -> Cell:
    """The open interior of a nondegenerate triangle: each side line
    keeps the side of the opposite vertex."""
    conds = []
    for p, q, opposite in ((a, b, c), (b, c, a), (c, a, b)):
        side = Line.through(p, q)
        sign = side.side(opposite)
        if sign == 0:
            raise DegenerateInputError("triangle is degenerate")
        conds.append((side, sign))
    return Cell(tuple(conds))


def _sqrt_sum_below(a, b, c) -> bool:
    """sqrt(a) + sqrt(b) < sqrt(c) for a, b, c >= 0, decided exactly:
    c - a - b is positive and its square exceeds 4ab."""
    slack = c - a - b
    if slack.sign() <= 0:
        return False
    return (slack * slack - 4 * a * b).sign() > 0


def contains_closed_disk(region: Region, q: Point, rho2) -> bool:
    """Whether the closed disk around q with squared radius rho2 fits.

    rho2 may be zero, in which case this is plain membership of q.
    """
    if rho2.sign() < 0:
        raise ValueError("negative squared radius")
    if isinstance(region, Disk):
        return _sqrt_sum_below(dist2(q, region.center), rho2, region.r2)
    for curve, sign in region.conds:
        if isinstance(curve, Line):
            v = curve.eval(q)
            if (sign * v).sign() <= 0:
                return False
            margin = v * v - rho2 * (curve.a * curve.a + curve.b * curve.b)
            if margin.sign() <= 0:
                return False
        else:
            # inside: dist + rho < r; outside: r + rho < dist
            d2 = dist2(q, curve.center)
            near, far = (d2, curve.r2) if sign == INSIDE else (curve.r2, d2)
            if not _sqrt_sum_below(near, rho2, far):
                return False
    return True


def _hint(region: Region) -> tuple[Fraction, Fraction]:
    """A rational anchor to center the search window on."""
    if isinstance(region, Disk):
        c = region.center
        return c.x.mid(20), c.y.mid(20)
    for curve, sign in region.conds:
        if isinstance(curve, Circle) and sign == INSIDE:
            c = curve.center
            return c.x.mid(20), c.y.mid(20)
    return Fraction(0), Fraction(0)


def sample_point(region: Region, rng: random.Random, state):
    """A rational point of the region in `state.tower` that is none of
    `state.points` and on none of `state.curves`, or None.

    `state` is what an oracle sees: a `geom.Position`, or a run's
    objects.  Stages widen the window and refine the dyadic grid around
    an anchor derived from the region, so any open nonempty region is
    found once the grid is fine and wide enough.  The search is
    deterministic for a given rng state.
    """
    hx, hy = _hint(region)
    tower, avoid_points, avoid_curves = state.tower, state.points, state.curves
    for stage in range(MAX_STAGE):
        k = stage + 2
        span = 1 << (stage // 2)
        denom = 1 << k
        cells = 2 * span * denom
        for _ in range(TRIES_PER_STAGE):
            qx = hx + Fraction(rng.randint(-cells, cells), denom)
            qy = hy + Fraction(rng.randint(-cells, cells), denom)
            p = point(tower, qx, qy)
            if not region.contains(p):
                continue
            if p in avoid_points:
                continue
            if any(c.contains(p) for c in avoid_curves):
                continue
            return p
    return None
