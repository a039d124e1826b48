"""Scene files naming the exact input objects of a construction problem.

A scene is plain text with one declaration per line:

    point A = (0, 0)
    line l = through (0, 0) (1, 0)
    circle k = center (0, 0) r2 1
    target point M = (1, 0)

Coordinates and squared radii are exact literals: integers and
decimals (``2``, ``0.25``) under ``+ - * /``, unary minus, parentheses
and ``sqrt(...)``, as in ``point A = (0, sqrt(3))``.  A literal stays
rational until a ``sqrt`` has no rational root; only then does a root
join the scene's tower.  `dsl.parser` reads scenes with the tokenizer
that reads programs.  A declared name may be any word, and names are
unique across all declarations.  At most one line declares the target,
the distinguished answer object of the scene: it resolves by name but
is kept out of the given points and curves, so derivability and game
questions about it are not answered trivially.  Blank lines and ``#``
comments are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .dsl.parser import parse_declarations
from .errors import ParseError
from .field import Tower
from .geom import Point


@dataclass
class Scene:
    """Named exact objects plus an optional distinguished target."""

    tower: Tower
    objects: dict = dc_field(default_factory=dict)
    target: str | None = None
    target_point: Point | None = None

    @property
    def points(self) -> dict:
        return {n: o for n, o in self.objects.items()
                if isinstance(o, Point)}

    @property
    def curves(self) -> dict:
        return {n: o for n, o in self.objects.items()
                if not isinstance(o, Point)}

    def __contains__(self, name: str) -> bool:
        return name in self.objects or name == self.target

    def __getitem__(self, name: str):
        if name == self.target:
            return self.target_point
        if name in self.objects:
            return self.objects[name]
        known = ", ".join(self.names()) or "none"
        raise KeyError(f"scene has no object {name!r} (declared: {known})")

    def names(self) -> list[str]:
        out = list(self.objects)
        if self.target is not None:
            out.append(self.target)
        return out

    def inputs_for(self, program):
        """Program inputs from the scene, by name when possible.

        When every parameter name of the program is declared in the
        scene, objects bind by name; otherwise all non-target objects
        bind positionally in declaration order.
        """
        names = [p.name for p in program.params]
        if all(n in self.objects for n in names):
            return {n: self.objects[n] for n in names}
        return list(self.objects.values())


def parse_scene(text: str, tower: Tower | None = None) -> Scene:
    """Parse scene text into exact objects in one tower session."""
    tower = tower or Tower()
    scene = Scene(tower)
    for line, head, name, obj in parse_declarations(text, tower):
        if head == "target" and scene.target is not None:
            raise ParseError("second target declaration", line=line)
        if name in scene:
            raise ParseError(f"duplicate name {name!r}", line=line)
        if head == "target":
            scene.target, scene.target_point = name, obj
        else:
            scene.objects[name] = obj
    return scene


def load_scene(path, tower: Tower | None = None) -> Scene:
    """Parse the scene file at path."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scene(handle.read(), tower)
