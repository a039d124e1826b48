"""Deterministic SVG figures from run, closure and densify traces.

Rendering is presentation only: every coordinate is approximated to
2^-20 and then formatted with six decimal places by integer
arithmetic, so identical traces yield byte-identical documents.
Input and given objects are drawn black, constructed objects walk a
cold-to-warm color ramp in construction order, and an optional target
point gets a highlight ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateInputError
from .geom import Circle, Line, Point

APPROX_BITS = 20
PLACES = 6
SVG_WIDTH = 640
VIEWPORT_MARGIN = 1     # padding `auto_viewport` adds on every side

_TARGET_COLOR = "#d4a017"


def _dec(q: Fraction) -> str:
    """Fixed six-decimal rendering, rounding half away from zero."""
    scaled = q * 10 ** PLACES
    n, d = scaled.numerator, scaled.denominator
    i = (2 * abs(n) + d) // (2 * d)
    sign = "-" if n < 0 and i else ""
    digits = str(i).rjust(PLACES + 1, "0")
    return f"{sign}{digits[:-PLACES]}.{digits[-PLACES:]}"


def _mid(x) -> Fraction:
    return x.mid(APPROX_BITS)


def _sqrt_floor(q: Fraction) -> Fraction:
    """Nonnegative square root at six decimal places."""
    scaled = q.numerator * 10 ** (2 * PLACES) // q.denominator
    return Fraction(math.isqrt(max(scaled, 0)), 10 ** PLACES)


def _ramp(index: int, total: int) -> str:
    span = max(total - 1, 1)
    hue = 210 - (210 * index) // span
    return f"hsl({hue},70%,42%)"


def _clip_line(a: Fraction, b: Fraction, c: Fraction, box):
    """Chord of a x + b y + c = 0 inside the box, or None if it misses."""
    xmin, ymin, xmax, ymax = box
    hits = set()
    if b != 0:
        for x in (xmin, xmax):
            y = Fraction(-(c + a * x), b)
            if ymin <= y <= ymax:
                hits.add((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = Fraction(-(c + b * y), a)
            if xmin <= x <= xmax:
                hits.add((x, y))
    orderly = sorted(hits)
    if len(orderly) < 2:
        return None
    return orderly[0], orderly[-1]


def _drawables(trace):
    """(objects, is_input) per step, in order, new objects only."""
    seen = set()
    batches = []
    for step in trace:
        if step.rule == "test":
            continue
        fresh = []
        for obj in step.made:
            if obj in seen:
                continue
            seen.add(obj)
            fresh.append(obj)
        if fresh:
            batches.append((fresh, step.rule in ("input", "given")))
    return batches


def _coerce_box(viewport):
    box = tuple(Fraction(v) for v in viewport)
    xmin, ymin, xmax, ymax = box
    if xmin >= xmax or ymin >= ymax:
        raise DegenerateInputError("empty viewport")
    return box


def auto_viewport(trace, extra=()):
    """Bounding box of all trace points and circle extents, padded by
    VIEWPORT_MARGIN.

    Lines are unbounded and do not influence the box.  Raises when the
    trace holds nothing with an extent to frame.
    """
    margin = Fraction(VIEWPORT_MARGIN)
    xs, ys = [], []
    objs = [o for batch, _ in _drawables(trace) for o in batch]
    for obj in list(objs) + list(extra):
        if isinstance(obj, Point):
            xs.append(_mid(obj.x))
            ys.append(_mid(obj.y))
        elif isinstance(obj, Circle):
            cx, cy = _mid(obj.center.x), _mid(obj.center.y)
            r = _sqrt_floor(_mid(obj.r2))
            xs.extend((cx - r, cx + r))
            ys.extend((cy - r, cy + r))
    if not xs:
        raise DegenerateInputError("nothing to frame")
    return (min(xs) - margin, min(ys) - margin,
            max(xs) + margin, max(ys) + margin)


def render_svg(trace, viewport, target: Point | None = None) -> str:
    """SVG document for a trace within a rational viewport rectangle.

    The viewport is (xmin, ymin, xmax, ymax); an empty rectangle is an
    error.  `target`, when given, is highlighted with a ring whether or
    not the trace reached it.
    """
    box = _coerce_box(viewport)
    xmin, ymin, xmax, ymax = box
    width, height = xmax - xmin, ymax - ymin
    stroke = width / 300
    dot = width / 120
    pixel_h = round(SVG_WIDTH * Fraction(height, width))

    def at(x: Fraction, y: Fraction) -> tuple[str, str]:
        return _dec(x), _dec(-y)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{pixel_h}" viewBox="{_dec(xmin)} {_dec(-ymax)} '
        f'{_dec(width)} {_dec(height)}">',
        f'<rect x="{_dec(xmin)}" y="{_dec(-ymax)}" width="{_dec(width)}" '
        f'height="{_dec(height)}" fill="#ffffff"/>',
    ]
    batches = _drawables(trace)
    total = sum(1 for _, is_input in batches if not is_input)
    curves, points = [], []
    generation = 0
    for objs, is_input in batches:
        if is_input:
            color = "#000000"
        else:
            color = _ramp(generation, total)
            generation += 1
        for obj in objs:
            if isinstance(obj, Point):
                cx, cy = at(_mid(obj.x), _mid(obj.y))
                cls = "input-point" if is_input else "point"
                points.append(
                    f'<circle class="{cls}" cx="{cx}" cy="{cy}" '
                    f'r="{_dec(dot)}" fill="{color}"/>')
            elif isinstance(obj, Circle):
                cx, cy = at(_mid(obj.center.x), _mid(obj.center.y))
                r = _sqrt_floor(_mid(obj.r2))
                cls = "input-curve" if is_input else "curve"
                curves.append(
                    f'<circle class="{cls}" cx="{cx}" cy="{cy}" '
                    f'r="{_dec(r)}" fill="none" stroke="{color}" '
                    f'stroke-width="{_dec(stroke)}"/>')
            elif isinstance(obj, Line):
                chord = _clip_line(_mid(obj.a), _mid(obj.b), _mid(obj.c), box)
                if chord is None:
                    continue
                (x1, y1), (x2, y2) = chord
                p1, p2 = at(x1, y1), at(x2, y2)
                cls = "input-curve" if is_input else "curve"
                curves.append(
                    f'<line class="{cls}" x1="{p1[0]}" y1="{p1[1]}" '
                    f'x2="{p2[0]}" y2="{p2[1]}" stroke="{color}" '
                    f'stroke-width="{_dec(stroke)}"/>')
    out.extend(curves)
    out.extend(points)
    if target is not None:
        cx, cy = at(_mid(target.x), _mid(target.y))
        out.append(
            f'<circle class="target" cx="{cx}" cy="{cy}" '
            f'r="{_dec(dot * 2)}" fill="none" stroke="{_TARGET_COLOR}" '
            f'stroke-width="{_dec(stroke)}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
