"""Open planar regions used by arbitrary-point requests.

A region is either an open disk or an open cell cut out by strict side
conditions against known lines and circles.  Membership is decided with
exact sign tests.  `triangle_cell` is the open interior of a triangle
as a cell.  `contains_closed_disk` checks that a whole closed
rational disk fits inside a region, again exactly: against a circle,
inside or outside, the fit is the one test sqrt(a) + sqrt(b) < sqrt(c)
of squared lengths, decided by squaring the roots away.
`sample_point` hunts for a rational member on dyadic grids of
increasing resolution.  It tests each grid draw on integers first:
integer enclosures of the curves' data bound the sign of each
condition at the draw, and a draw a bound rejects never becomes a
`Point`.  Draws the bounds leave standing are tested exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError
from .field import _START_PREC
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


def _enclosed(curve, p: int) -> tuple:
    """Integer enclosures of a curve's data, scaled so that `_sign_bound`
    reads its value at a draw times 2**(2p): a line's a and b times
    2**p and c times 2**(2p), or a circle's or disk's center
    coordinates times 2**p and squared radius times 2**(2p).  The first
    item says whether the curve is a line."""
    if isinstance(curve, Line):
        return (True, curve.a.enclose(p), curve.b.enclose(p),
                curve.c.enclose(2 * p))
    o = curve.center
    return False, o.x.enclose(p), o.y.enclose(p), curve.r2.enclose(2 * p)


def _sign_bound(enc: tuple, X: int, Y: int) -> int:
    """The sign of a curve's value at (X / 2**p, Y / 2**p) when integer
    interval arithmetic on `enc = _enclosed(curve, p)` settles it, else
    0.  The value is a*x + b*y + c for a line and
    (x - ox)**2 + (y - oy)**2 - r2 for a circle or disk."""
    is_line, (ul, uh), (vl, vh), (wl, wh) = enc
    if is_line:
        lo, hi = wl, wh
        for t, cl, ch in ((X, ul, uh), (Y, vl, vh)):
            if t >= 0:
                lo, hi = lo + cl * t, hi + ch * t
            else:
                lo, hi = lo + ch * t, hi + cl * t
    else:
        lo, hi = -wh, -wl
        for t, cl, ch in ((X, ul, uh), (Y, vl, vh)):
            dl, dh = t - ch, t - cl         # bounds on (t - center) * 2**p
            if dl >= 0:
                lo, hi = lo + dl * dl, hi + dh * dh
            elif dh <= 0:
                lo, hi = lo + dh * dh, hi + dl * dl
            else:
                hi += max(dl * dl, dh * dh)
    return 1 if lo > 0 else -1 if hi < 0 else 0


def sample_point(region: Region, rng: random.Random, state):
    """A rational point of the region in `state.tower` that is none of
    `state.points` and on none of `state.curves`, or None.

    `state` is what an oracle sees: a `geom.Position`, or a run's
    objects.  Stages widen the window and refine the dyadic grid around
    an anchor derived from the region, so any open nonempty region is
    found once the grid is fine and wide enough.  The search is
    deterministic for a given rng state.

    Every draw is (X / 2**p, Y / 2**p) for integers X and Y.  Integer
    enclosures of the curves' data, read once per call, bound each
    condition's value there: a draw a bound puts on the wrong side of a
    condition is skipped without making a `Point`, and an avoided curve
    whose bound excludes 0 is off the draw.  Every other check is exact,
    on the `Point` of each draw the bounds leave standing.
    """
    hx, hy = _hint(region)
    tower, avoid_points, avoid_curves = state.tower, state.points, state.curves
    # the anchor is dyadic, so X and Y are exact
    p = max(_START_PREC, MAX_STAGE + 1,
            hx.denominator.bit_length(), hy.denominator.bit_length())
    one = 1 << p
    ax = hx.numerator * one // hx.denominator
    ay = hy.numerator * one // hy.denominator
    conds = ([(_enclosed(region, p), INSIDE)] if isinstance(region, Disk)
             else [(_enclosed(c, p), s) for c, s in region.conds])
    avoid = [(_enclosed(c, p), c) for c in avoid_curves]
    for stage in range(MAX_STAGE):
        k = stage + 2
        span = 1 << (stage // 2)
        cells = 2 * span << k
        for _ in range(TRIES_PER_STAGE):
            X = ax + (rng.randint(-cells, cells) << (p - k))
            Y = ay + (rng.randint(-cells, cells) << (p - k))
            if any(_sign_bound(enc, X, Y) == -s for enc, s in conds):
                continue
            near = [c for enc, c in avoid if not _sign_bound(enc, X, Y)]
            q = point(tower, Fraction(X, one), Fraction(Y, one))
            if not region.contains(q):
                continue
            if q in avoid_points:
                continue
            if any(c.contains(q) for c in near):
                continue
            return q
    return None
