"""Syntax tree for construction programs.

Statements bind names to geometric objects; tests are the exact
predicates available to If, While, and Choose.  Every node keeps the
source position of its first token for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

POINT = "point"
LINE = "line"
CIRCLE = "circle"

TEST_ARITY = {
    "equal": 2,
    "on": 2,
    "intersects": 2,
    "between": 3,
    "dist_le": 4,
    "dist_eq": 4,
    "ccw": 3,
}


# A cell condition's curve kind, and the sign of the curve's value on
# the side it keeps.
CELL_CONDS = {
    "inside": (CIRCLE, -1),
    "outside": (CIRCLE, 1),
    "pos": (LINE, 1),
    "neg": (LINE, -1),
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
    kind: str                   # key of TEST_ARITY
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
class LetLine:
    name: str
    p: str
    q: str
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class LetCircle:
    name: str
    center: str
    a: str
    b: str
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class LetIntersect:
    names: tuple[str, ...]      # one or two targets, lexicographic binding
    g: str
    h: str
    pos: Pos = field(default=Pos(0, 0), compare=False)


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


Stmt = LetLine | LetCircle | LetIntersect | LetChoose | LetArbitrary | If | While


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[Param, ...]
    body: tuple
    returns: tuple[str, ...]
