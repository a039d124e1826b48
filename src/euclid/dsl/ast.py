"""Syntax tree for construction programs.

Statements bind names to geometric objects; tests are the exact
predicates available to If, While, and Choose, each an entry of
`geom.TESTS`.  A construction
statement is a `LetStep`: its rule names its syntax in `RULES` and its
operands' classes in `geom.RULES`, and the interpreter turns it into the
request `geom.Step` with the same rule.  Every node keeps the source
position of its first token for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ..geom import Circle, Line, Point

POINT, LINE, CIRCLE = Point.kind, Line.kind, Circle.kind


# A cell condition's curve kind, and the sign of the curve's value on
# the side it keeps.
CELL_CONDS = {
    "inside": (CIRCLE, -1),
    "outside": (CIRCLE, 1),
    "pos": (LINE, 1),
    "neg": (LINE, -1),
}


class Rule(NamedTuple):
    """How a construction statement is written and checked; the kinds
    of its operands are those of the rule's `geom.RULES` entry."""

    seps: tuple[str, ...]   # the separator written before each later operand
    binds: str              # the kind of every name it binds
    distinct: tuple[int, int]   # the operands that must differ ...
    same: str                   # ... and the message when they do not


# A rule that binds points binds them as a list: `let [P, Q] = ...`.
RULES = {
    "line": Rule((",",), LINE, (0, 1), "line through a point and itself"),
    "circle": Rule((";", ","), CIRCLE, (1, 2), "circle with zero radius pair"),
    "intersect": Rule((",",), POINT, (0, 1),
                      "intersect of a curve with itself"),
}


@dataclass(frozen=True)
class Pos:
    line: int
    col: int


@dataclass(frozen=True)
class Param:
    kind: str                   # "point" | "line" | "circle"
    name: str


@dataclass(frozen=True)
class Test:
    kind: str                   # key of geom.TESTS
    args: tuple[str, ...]
    negated: bool = False
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class DiskExpr:
    center: str
    r2: Fraction
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class CellExpr:
    conds: tuple[tuple[str, str], ...]   # (cond kind, curve name)
    pos: Pos = field(default=Pos(0, 0), compare=False)


RegionExpr = DiskExpr | CellExpr


@dataclass(frozen=True)
class LetStep:
    rule: str                   # key of RULES
    names: tuple[str, ...]      # intersect: one or two, lexicographic
    args: tuple[str, ...]
    pos: Pos = field(default=Pos(0, 0), compare=False)

    @cached_property
    def text(self) -> str:
        """The statement as written, without `let` and `;`; formed once,
        as it labels every step a run traces for the statement."""
        names = ", ".join(self.names)
        if RULES[self.rule].binds == POINT:
            names = f"[{names}]"
        args = self.args[0] + "".join(
            f"{sep} {arg}"
            for sep, arg in zip(RULES[self.rule].seps, self.args[1:]))
        return f"{names} = {self.rule}({args})"


@dataclass(frozen=True)
class LetChoose:
    name: str
    candidates: tuple[str, ...]
    test: Test
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class LetArbitrary:
    name: str
    region: RegionExpr
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class If:
    test: Test
    then: tuple
    orelse: tuple
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class While:
    test: Test
    budget: int
    body: tuple
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[Param, ...]
    body: tuple
    returns: tuple[str, ...]
