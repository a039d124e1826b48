"""Reference checks that only the tests run against the engine.

Each check computes on the engine's own term kernels and frames, so it
exercises the code it checks: the squaring sign descent is the
reference for the enclosure filter `Tower._sign`, the characteristic
polynomial certifies an element's degree, the grid gaps measure how
fine the straightedge-derivable grid of `net._Frame` gets, and
`EveryPairRun` is the closure round that intersects every curve pair,
the reference for the incidence shortcuts of `closure._Run.round`.
The `ref_*` line kernels run only the general term-pair path, the
reference for the rational lane of `geom.Line` and `geom._line_line`.
`ref_sample_point` is the grid scan that makes a `Point` of every draw
and tests it exactly, the reference for the integer pre-test of
`regions.sample_point`.
"""

import math
from fractions import Fraction

from euclid.closure import _Run
from euclid.errors import DegenerateInputError
from euclid.field import _add_t, _indices, _neg_t, _split, _sub_t, _top
from euclid.geom import Circle, Line, Point, dist2, intersect, point
from euclid.net import _Frame, _require_scaffold
from euclid.regions import MAX_STAGE, TRIES_PER_STAGE, _hint


def sign_t(tw, t) -> int:
    """Sign of the term pair t of tower tw by the exact squaring
    descent, with no enclosure."""
    num = t[0]
    if not num:
        return 0
    h = _top(num)
    if h == 0:
        return 1 if num[0] > 0 else -1
    a, b = _split(t, h)
    sa = sign_t(tw, a)
    sb = sign_t(tw, b)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: compare a^2 against b^2 * r_h
    d = _sub_t(tw._mul_t(a, a),
               tw._mul_t(tw._mul_t(b, b), tw._radicands[h - 1]))
    return sa * sign_t(tw, d)


def _poly_mul(tw, p, q):
    out = [({}, 1)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a[0]:
            continue
        for j, b in enumerate(q):
            if b[0]:
                out[i + j] = _add_t(out[i + j], tw._mul_t(a, b))
    return out


def char_poly(x) -> list[int]:
    """Integer coefficients (ascending) of the product of X - x over all
    2^height sign flips of the radicals x uses.  The element is a root."""
    tw = x.tower
    poly = [_neg_t(x._terms), ({0: 1}, 1)]
    for h in reversed(_indices(tw._used_of(x._num))):
        halves = [_split(c, h) for c in poly]
        a_poly = [a for a, _ in halves]
        b_poly = [b for _, b in halves]
        aa = _poly_mul(tw, a_poly, a_poly)
        bb = _poly_mul(tw, b_poly, b_poly)
        r = tw._radicands[h - 1]
        poly = [_sub_t(u, tw._mul_t(v, r)) for u, v in zip(aa, bb)]
    if any(_top(num) for num, _ in poly):
        raise AssertionError("descent left a radical coefficient")
    denom = math.lcm(*(den for _, den in poly))
    ints = [num.get(0, 0) * (denom // den) for num, den in poly]
    g = math.gcd(*ints)
    if g:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def grid_gaps(a, b, c, d, levels: int):
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


class EveryPairRun(_Run):
    """A closure run whose rounds intersect every new curve pair, with
    no incidence shortcut; swapped in for `closure._Run`, it gives the
    objects and the trace the shortcuts must reproduce."""

    def round(self) -> bool:
        self.rounds += 1
        start = self.position.size
        pts = list(self.position.points)
        if "line" in self.ops:
            for j in range(len(pts)):
                for i in range(j):
                    self._add(Line.through(pts[i], pts[j]),
                              "line", (pts[i], pts[j]))
                    if self.found_round is not None:
                        return True
        if "circle" in self.ops:
            radii = []
            for j in range(len(pts)):
                for i in range(j):
                    radii.append((dist2(pts[i], pts[j]), pts[i], pts[j]))
            for o in pts:
                for r2, a, b in radii:
                    self._add(Circle(o, r2), "circle", (o, a, b))
                    if self.found_round is not None:
                        return True
        if "intersect" in self.ops:
            curves = list(self.position.curves)
            for j in range(self.intersected, len(curves)):
                for i in range(j):
                    u, v = curves[i], curves[j]
                    for p in intersect(u, v):
                        self._add(p, "intersect", (u, v))
                    if self.found_round is not None:
                        return True
            self.intersected = len(curves)
        return self.position.size > start


# -- line kernels on the general term-pair path alone -------------------------

def ref_line(a, b, c) -> Line:
    """`Line(a, b, c)`, normalized with the general term-pair kernels."""
    tw = a.tower
    if a:
        inv = tw._inv_t(a._terms)
        a, b = tw.one, tw._make(tw._mul_t(b._terms, inv))
    elif b:
        inv = tw._inv_t(b._terms)
        a, b = tw.zero, tw.one
    else:
        raise DegenerateInputError("line with zero normal vector")
    line = object.__new__(Line)
    line.a, line.b, line.c = a, b, tw._make(tw._mul_t(c._terms, inv))
    return line


def ref_through(p, q) -> Line:
    """`Line.through(p, q)` on the general term-pair kernels."""
    tw = p.tower
    if p == q:
        raise DegenerateInputError("line through two identical points")
    a = _sub_t(q.y._terms, p.y._terms)
    b = _sub_t(p.x._terms, q.x._terms)
    c = _neg_t(_add_t(tw._mul_t(a, p.x._terms), tw._mul_t(b, p.y._terms)))
    return ref_line(tw._make(a), tw._make(b), tw._make(c))


def ref_det(u, v):
    mul = u.tower._mul_t
    return _sub_t(mul(u.a._terms, v.b._terms), mul(v.a._terms, u.b._terms))


def ref_line_line(u, v) -> list:
    """`geom._line_line(u, v)` on the general term-pair kernels."""
    det = ref_det(u, v)
    if not det[0]:
        return []
    tw = u.tower
    mul = tw._mul_t
    inv = tw._inv_t(det)
    ua, ub, uc = u.a._terms, u.b._terms, u.c._terms
    va, vb, vc = v.a._terms, v.b._terms, v.c._terms
    x = mul(_sub_t(mul(ub, vc), mul(vb, uc)), inv)
    y = mul(_sub_t(mul(va, uc), mul(ua, vc)), inv)
    return [Point(tw._make(x), tw._make(y))]


def ref_value(line, p):
    """`line._value(p)` on the general term-pair kernels."""
    v = line.tower._mul_t(line.b._terms, p.y._terms)
    if line.a:
        v = _add_t(p.x._terms, v)
    return _add_t(v, line.c._terms)


def ref_sample_point(region, rng, state):
    """`regions.sample_point` with every draw made a `Point` and tested
    exactly."""
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
