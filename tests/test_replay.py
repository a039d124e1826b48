from fractions import Fraction

from euclid import corpus
from euclid.dsl.interp import SamplingOracle, run
from euclid.dsl.parser import parse_program
from euclid.field import Tower
from euclid.geom import Circle, Line, ProjectiveMap, point
from euclid.replay import GAP_MAP, transport


def unit_circle(tower) -> Circle:
    return Circle(point(tower, 0, 0), tower.from_rational(1))


def test_gap_map_fixes_unit_circle_but_moves_center():
    tw = Tower()
    assert GAP_MAP.preserves_circle(unit_circle(tw))
    image = GAP_MAP.apply_point(point(tw, 0, 0))
    assert image == point(tw, Fraction(3, 5), 0)
    assert image != point(tw, 0, 0)


def test_gap_map_keeps_circle_points_on_the_circle():
    tw = Tower()
    k = unit_circle(tw)
    for p in (point(tw, 1, 0), point(tw, 0, 1), point(tw, -1, 0),
              point(tw, Fraction(3, 5), Fraction(4, 5))):
        assert k.contains(GAP_MAP.apply_point(p))


def test_apply_projective_on_lines_preserves_incidence():
    tw = Tower()
    p, q = point(tw, 2, 3), point(tw, -1, 5)
    l = Line.through(p, q)
    image = GAP_MAP.apply_line(l)
    assert image.contains(GAP_MAP.apply_point(p))
    assert image.contains(GAP_MAP.apply_point(q))


EVERY_TEST = """
construction probe(point a, point b, point c) {
  let l = line(a, b);
  let m = line(a, c);
  let k = circle(a; a, b);
  if equal(a, b) { let e = line(b, c); }
  if on(b, l) { let o = line(b, c); }
  if on(b, k) { let ok = line(b, c); }
  if intersects(l, m) { let i = line(b, c); }
  if between(a, b, c) { let bt = line(b, c); }
  if not ccw(a, b, c) { let cw = line(b, c); }
  if dist_le(a, b, a, c) { let le = line(b, c); }
  if dist_eq(a, b, a, c) { let eq = line(b, c); }
  return l;
}
"""


def test_identity_transport_breaks_nothing():
    tw = Tower()
    center = run(corpus.load_program("circle_center"), [unit_circle(tw)],
                 oracle=SamplingOracle(0))
    probe = run(parse_program(EVERY_TEST),
                [point(tw, 0, 0), point(tw, 2, 0), point(tw, 1, 1)])
    for result in (center, probe):
        report = transport(result.trace, ProjectiveMap.identity())
        assert report.incidence_sound
        assert report.breakpoint is None
        assert all(not f.broken for f in report.facts)
    classed = {f.index: f.kind for f in report.facts}
    assert [(*step.made[1:], classed[i]) for i, step in enumerate(probe.trace)
            if step.rule == "test"] == [
        ("equal", False, "incidence"), ("on", False, "incidence"),
        ("on", False, "compass"), ("intersects", False, "ordering"),
        ("between", False, "ordering"), ("ccw", True, "ordering"),
        ("dist_le", False, "ordering"), ("dist_eq", False, "ordering")]


def test_center_trace_transport_locates_a_compass_breakpoint():
    tw = Tower()
    result = run(corpus.load_program("circle_center"), [unit_circle(tw)],
                 oracle=SamplingOracle(0))
    assert result.outputs[0] == point(tw, 0, 0)
    report = transport(result.trace)
    assert report.incidence_sound
    assert report.breakpoint is not None
    assert report.breakpoint.kind == "compass"
    assert "was True, transported False" in report.summary()


def test_transport_flips_a_recorded_orientation_test():
    source = """
    construction probe(point a, point b, point c) {
      let l = line(a, b);
      if ccw(a, b, c) {
        let m = line(a, c);
      } else {
        let m = line(b, c);
      }
      return m;
    }
    """
    tw = Tower()
    # Points straddling the map's vanishing line x = -5/3, so the
    # transported triangle flips orientation.
    a = point(tw, -2, 0)
    b = point(tw, 0, 1)
    c = point(tw, 0, -1)
    result = run(parse_program(source), [a, b, c])
    report = transport(result.trace)
    flipped = [f for f in report.facts if f.kind == "ordering" and f.broken]
    assert report.incidence_sound
    assert flipped
    assert report.breakpoint in flipped


def test_transport_counts_all_event_facts():
    tw = Tower()
    result = run(corpus.load_program("circle_center"), [unit_circle(tw)],
                 oracle=SamplingOracle(2))
    report = transport(result.trace)
    kinds = {f.kind for f in report.facts}
    assert kinds == {"incidence", "compass"}
    # every intersect event contributes one membership fact per curve
    # per point
    expected = sum(2 * len(ev.made) for ev in result.trace
                   if ev.rule == "intersect")
    expected += sum(1 for ev in result.trace if ev.rule == "line")
    assert len(report.facts) == expected
