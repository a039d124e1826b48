from fractions import Fraction

import pytest

from euclid.corpus import entry
from euclid.dsl import run
from euclid.errors import DegenerateInputError
from euclid.field import Tower
from euclid.geom import point
from euclid import render
from euclid.render import _dec, auto_viewport, render_svg

BOX = (-4, -4, 4, 4)


def midpoint_trace():
    tw = Tower()
    e = entry("midpoint")
    return run(e.program(), e.canonical_inputs(tw)).trace


def test_fixed_decimal_formatting():
    assert _dec(Fraction(0)) == "0.000000"
    assert _dec(Fraction(1, 3)) == "0.333333"
    assert _dec(Fraction(2, 3)) == "0.666667"
    assert _dec(Fraction(-1, 2)) == "-0.500000"
    assert _dec(Fraction(12)) == "12.000000"


def test_midpoint_figure_object_counts():
    doc = render_svg(midpoint_trace(), BOX)
    assert doc.count('class="input-point"') == 2
    assert doc.count('class="curve"') == 4
    assert doc.count('class="point"') == 3
    assert doc.count('class="target"') == 0
    assert doc.startswith('<?xml version="1.0"')
    assert doc.rstrip().endswith("</svg>")


def test_inputs_black_and_constructed_on_the_ramp():
    doc = render_svg(midpoint_trace(), BOX)
    input_lines = [ln for ln in doc.splitlines() if "input-point" in ln]
    assert all('fill="#000000"' in ln for ln in input_lines)
    curve_lines = [ln for ln in doc.splitlines() if 'class="curve"' in ln]
    assert all("hsl(" in ln for ln in curve_lines)
    hues = {ln.split("hsl(")[1].split(",")[0] for ln in curve_lines}
    assert len(hues) > 1


def test_target_ring():
    trace = midpoint_trace()
    target = trace[-1].made[0]
    doc = render_svg(trace, BOX, target=target)
    assert doc.count('class="target"') == 1
    line = next(ln for ln in doc.splitlines() if "target" in ln)
    assert 'fill="none"' in line


def test_byte_identical_for_identical_traces():
    assert render_svg(midpoint_trace(), BOX) == render_svg(
        midpoint_trace(), BOX)


def test_inputs_only_when_trace_stops_early():
    trace = [ev for ev in midpoint_trace() if ev.rule == "input"]
    doc = render_svg(trace, BOX)
    assert doc.count('class="input-point"') == 2
    assert doc.count('class="curve"') == 0
    assert doc.count('class="point"') == 0


def test_empty_trace_renders_background_only():
    doc = render_svg([], BOX)
    assert "<rect" in doc
    assert "class=" not in doc


@pytest.mark.parametrize("box", [
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 2, 1, 1),
])
def test_degenerate_viewport_rejected(box):
    with pytest.raises(DegenerateInputError, match="empty viewport"):
        render_svg([], box)


def test_lines_outside_the_viewport_are_skipped():
    doc = render_svg(midpoint_trace(), (40, 40, 44, 44))
    assert "<line" not in doc
    assert doc.count('class="curve"') == 2


def test_auto_viewport_covers_circle_extents():
    trace = midpoint_trace()
    xmin, ymin, xmax, ymax = auto_viewport(trace)
    assert xmin <= -2 - 1 and xmax >= 4 + 1
    assert ymin <= -2 - 1 and ymax >= 2 + 1


def test_auto_viewport_extra_points_and_margin(monkeypatch):
    monkeypatch.setattr(render, "VIEWPORT_MARGIN", Fraction(1, 2))
    tw = Tower()
    box = auto_viewport([], extra=[point(tw, 10, -10)])
    assert box == (Fraction(19, 2), Fraction(-21, 2),
                   Fraction(21, 2), Fraction(-19, 2))


def test_auto_viewport_needs_something_to_frame():
    with pytest.raises(DegenerateInputError, match="nothing to frame"):
        auto_viewport([])
