"""Open planar regions used by arbitrary-point requests.

A region is either an open disk or an open cell cut out by strict side
conditions against known lines and circles.  Membership is decided with
exact sign tests.  `triangle_cell` is the open interior of a triangle
as a cell.  `contains_closed_disk` checks that a whole closed
rational disk fits inside a region, again exactly, by squaring away the
square roots in the distance comparisons.  `sample_point` hunts for a
rational member on dyadic grids of increasing resolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError
from .geom import Circle, Line, Point, dist2, point

INSIDE = -1
OUTSIDE = 1
POS = 1
NEG = -1


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

    def __repr__(self) -> str:
        return f"Disk(center={self.center!r}, r2={self.r2!r})"


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

    def __repr__(self) -> str:
        return f"Cell(conds={self.conds!r})"


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


def _closed_disk_inside_circle(d2, r2, rho2) -> bool:
    """dist(q,o) + rho < r, all quantities squared and exact."""
    if (d2 - r2).sign() >= 0:
        return False
    slack = r2 + d2 - rho2
    if slack.sign() <= 0:
        return False
    return (slack * slack - 4 * r2 * d2).sign() > 0


def _closed_disk_outside_circle(d2, r2, rho2) -> bool:
    """dist(q,o) - rho > r, i.e. the disk clears the circle outside."""
    if (d2 - r2).sign() <= 0:
        return False
    slack = d2 - r2 - rho2
    if slack.sign() <= 0:
        return False
    return (slack * slack - 4 * r2 * rho2).sign() > 0


def contains_closed_disk(region: Region, q: Point, rho2) -> bool:
    """Whether the closed disk around q with squared radius rho2 fits.

    rho2 may be zero, in which case this is plain membership of q.
    """
    if isinstance(rho2, (int, Fraction)):
        rho2 = q.tower.from_rational(rho2)
    if rho2.sign() < 0:
        raise ValueError("negative squared radius")
    if isinstance(region, Disk):
        d2 = dist2(q, region.center)
        return _closed_disk_inside_circle(d2, region.r2, rho2)
    for curve, sign in region.conds:
        if isinstance(curve, Line):
            v = curve.eval(q)
            if (sign * v).sign() <= 0:
                return False
            margin = v * v - rho2 * (curve.a * curve.a + curve.b * curve.b)
            if margin.sign() <= 0:
                return False
        else:
            d2 = dist2(q, curve.center)
            if sign == INSIDE:
                if not _closed_disk_inside_circle(d2, curve.r2, rho2):
                    return False
            else:
                if not _closed_disk_outside_circle(d2, curve.r2, rho2):
                    return False
    return True


INSCRIBE_HALVINGS = 200


def inscribe_disk(region: Region, q: Point):
    """A positive rational rho2 whose closed disk around q fits, or None.

    q must lie strictly inside the region; the squared radius starts at 1
    and halves, at most INSCRIBE_HALVINGS times, until the exact fit test
    passes.
    """
    rho2 = q.tower.from_rational(1)
    half = q.tower.from_rational(Fraction(1, 2))
    for _ in range(INSCRIBE_HALVINGS):
        if contains_closed_disk(region, q, rho2):
            return rho2
        rho2 = rho2 * half
    return None


def _approx_mid(x, k: int) -> Fraction:
    lo, hi = x.approx(k)
    return (lo + hi) / 2


def _hint(region: Region) -> tuple[Fraction, Fraction]:
    """A rational anchor to center the search window on."""
    if isinstance(region, Disk):
        c = region.center
        return _approx_mid(c.x, 20), _approx_mid(c.y, 20)
    for curve, sign in region.conds:
        if isinstance(curve, Circle) and sign == INSIDE:
            c = curve.center
            return _approx_mid(c.x, 20), _approx_mid(c.y, 20)
    return Fraction(0), Fraction(0)


def sample_point(tower, region: Region, rng: random.Random,
                 avoid_points=(), avoid_curves=(),
                 tries_per_stage: int = 64, max_stage: int = 12):
    """A rational point of the region missing all avoid objects, or None.

    Stages widen the window and refine the dyadic grid around an anchor
    derived from the region, so any open nonempty region is found once
    the grid is fine and wide enough.  The search is deterministic for a
    given rng state.
    """
    hx, hy = _hint(region)
    avoid_points = list(avoid_points)
    avoid_curves = list(avoid_curves)
    for stage in range(max_stage):
        k = stage + 2
        span = 1 << (stage // 2)
        denom = 1 << k
        cells = 2 * span * denom
        for _ in range(tries_per_stage):
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
