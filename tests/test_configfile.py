from fractions import Fraction

import pytest

from euclid.configfile import load_scene, parse_scene
from euclid.dsl import parse_program
from euclid.errors import ParseError
from euclid.field import Tower
from euclid.geom import Circle, Line, Point, point

FULL = """
# a segment, a mirror line, and a circle
point A = (0, 0)
point B = (2, 0)          # trailing comment
line l = through (0, 1) (1, 1)
circle k = center (1/2, -1/2) r2 9/4

target point M = (1, 0)
"""


def test_parse_full_scene():
    scene = parse_scene(FULL)
    assert list(scene.objects) == ["A", "B", "l", "k"]
    assert scene.points.keys() == {"A", "B"}
    assert scene.curves.keys() == {"l", "k"}
    tw = scene.tower
    assert scene["A"] == point(tw, 0, 0)
    assert scene["B"] == point(tw, 2, 0)
    assert scene["l"] == Line.through(point(tw, 0, 1), point(tw, 1, 1))
    k = scene["k"]
    assert isinstance(k, Circle)
    assert k.center == point(tw, Fraction(1, 2), Fraction(-1, 2))
    assert k.r2 == tw.from_rational(Fraction(9, 4))


def test_target_resolves_but_stays_out_of_the_givens():
    scene = parse_scene(FULL)
    assert scene.target == "M"
    assert scene["M"] == point(scene.tower, 1, 0)
    assert "M" in scene
    assert "M" not in scene.objects
    assert scene.names() == ["A", "B", "l", "k", "M"]
    with pytest.raises(KeyError, match="declared"):
        scene["Z"]


def test_scene_without_target():
    scene = parse_scene("point P = (1, 2)\n")
    assert scene.target is None
    assert scene.target_point is None
    assert "P" in scene


def test_rational_literal_forms():
    scene = parse_scene("point P = (1/2, 0.25)\npoint Q = (-3, -1/3)\n")
    tw = scene.tower
    assert scene["P"] == point(tw, Fraction(1, 2), Fraction(1, 4))
    assert scene["Q"] == point(tw, -3, Fraction(-1, 3))


def test_irrational_coordinates_join_the_tower():
    scene = parse_scene("point A = (0, sqrt(3))\n")
    tw = scene.tower
    assert tw.height == 1
    assert scene["A"] == point(tw, 0, tw.from_rational(3).sqrt())
    assert tw.height == 1


def test_square_roots_of_squares_stay_rational():
    scene = parse_scene("point A = (sqrt(4), -sqrt(9/4))\n")
    assert scene.tower.height == 0
    assert scene["A"] == point(scene.tower, 2, Fraction(-3, 2))


def test_irrational_squared_radius():
    scene = parse_scene("circle k = center (0, 0) r2 1 + sqrt(2)\n")
    tw = scene.tower
    assert scene["k"].r2 == 1 + tw.from_rational(2).sqrt()
    assert tw.height == 1


def test_literal_arithmetic():
    scene = parse_scene("point P = (2*(1 - 0.5), -(1 + 1)/4)\n")
    assert scene["P"] == point(scene.tower, 1, Fraction(-1, 2))


def test_any_word_names_a_declaration():
    scene = parse_scene("point line = (0, 0)\npoint through = (1, 0)\n"
                        "target point center = (2, 0)\n")
    assert scene.names() == ["line", "through", "center"]


@pytest.mark.parametrize("text, message, line", [
    ("point A = (0, 0) point B = (1, 1)", "trailing input 'point'", 1),
    ("point A = (0,\n0)", "expected a number", 1),
    ("\npoint A = (sqrt(-1), 0)", "square root of a negative value", 2),
    ("point A = (0, 0) % 2", "unexpected character '%'", 1),
])
def test_a_declaration_ends_on_its_own_line(text, message, line):
    with pytest.raises(ParseError, match=message) as info:
        parse_scene(text)
    assert info.value.line == line


def test_shared_tower_session():
    tw = Tower()
    scene = parse_scene("point P = (1, 2)\n", tower=tw)
    assert scene.tower is tw
    assert scene["P"].tower is tw


def test_inputs_bind_by_name_when_params_match():
    scene = parse_scene(FULL)
    program = parse_program(
        "construction probe(point B, point A) { let l = line(A, B); "
        "return l; }")
    bound = scene.inputs_for(program)
    assert bound == {"B": scene["B"], "A": scene["A"]}


def test_inputs_fall_back_to_declaration_order():
    scene = parse_scene("point P = (0, 0)\npoint Q = (2, 2)\n")
    program = parse_program(
        "construction probe(point A, point B) { let l = line(A, B); "
        "return l; }")
    assert scene.inputs_for(program) == [scene["P"], scene["Q"]]


@pytest.mark.parametrize("text, message", [
    ("point A = (0 0)", "bad point declaration"),
    ("line l = through (0, 0)", "bad line declaration"),
    ("circle k = center (0, 0)", "bad circle declaration"),
    ("target M = (1, 0)", "bad target declaration"),
    ("triangle t = (0, 0)", "unknown declaration"),
    ("point A = (1//2, 0)", "expected a number"),
    ("point A = (1/0, 0)", "division by zero"),
])
def test_malformed_declarations(text, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_scene("# a comment line\n" + text)
    assert info.value.line == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_scene("point A = (0, 0)\n\npoint B = (oops)\n")
    assert info.value.line == 3


@pytest.mark.parametrize("text", [
    "point A = (0, 0)\npoint A = (1, 1)\n",
    "point A = (0, 0)\ntarget point A = (1, 1)\n",
    "target point M = (0, 0)\npoint M = (1, 1)\n",
])
def test_duplicate_names_rejected(text):
    with pytest.raises(ParseError, match="duplicate name"):
        parse_scene(text)


def test_second_target_rejected():
    with pytest.raises(ParseError, match="second target"):
        parse_scene("target point M = (0, 0)\ntarget point N = (1, 1)\n")


def test_degenerate_objects_rejected():
    with pytest.raises(ParseError, match="bad line 'l'"):
        parse_scene("line l = through (1, 1) (1, 1)\n")
    with pytest.raises(ParseError, match="bad circle 'k'"):
        parse_scene("circle k = center (0, 0) r2 0\n")


def test_load_scene_round_trip(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(FULL, encoding="utf-8")
    scene = load_scene(path)
    assert list(scene.objects) == ["A", "B", "l", "k"]
    assert scene.target == "M"
