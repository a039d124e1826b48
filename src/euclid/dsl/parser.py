"""Parser and static checker for construction programs.

The surface syntax binds each geometric step to a name:

    construction midpoint(point A, point B) {
      let c1 = circle(A; A, B);
      let c2 = circle(B; A, B);
      let [P, Q] = intersect(c1, c2);
      let l = line(P, Q);
      let ab = line(A, B);
      let [M] = intersect(l, ab);
      return M;
    }

Intersection bindings name one or two points in lexicographic order of
the intersection.  `choose(N1, ..., Nk | test)` picks the unique
candidate passing the test.  `arbitrary in_disk(P, q)` and `arbitrary
in_cell(cond, ...)` request oracle points; disk literals are squared
radii, cell conditions are inside(c)/outside(c) for circles and
pos(l)/neg(l) for line sides.  Tests may be prefixed with `not`.
`#` starts a comment; whitespace is insignificant.

Parsing reports syntax problems as ParseError with positions; the
static checker rejects unknown names, arity and kind mismatches,
rebinding outside While bodies, and unbound returns as CheckError.
Line, circle and intersect statements are parsed and checked from
`ast.RULES`, their syntax, and `geom.RULES`, their operands' classes;
tests from `geom.TESTS`, their names and their operands' classes.
"""

from __future__ import annotations

from fractions import Fraction

from .. import geom
from ..errors import CheckError, ParseError
from .ast import (
    CELL_CONDS,
    CIRCLE,
    LINE,
    POINT,
    RULES,
    CellExpr,
    DiskExpr,
    If,
    LetArbitrary,
    LetChoose,
    LetStep,
    Param,
    Pos,
    Program,
    Test,
    While,
)

KEYWORDS = frozenset({
    "construction", "let", "line", "circle", "intersect", "choose",
    "arbitrary", "if", "else", "while", "budget", "return",
    "in_disk", "in_cell", "inside", "outside", "pos", "neg", "not",
    "point",
} | set(geom.TESTS))

PUNCT = "(){}[],;|=/"

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "NAME"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def pos(self) -> Pos:
        tok = self.peek()
        return Pos(tok.line, tok.col)

    def name(self) -> str:
        return self.expect("NAME").text

    def namelist(self) -> tuple[str, ...]:
        names = [self.name()]
        while self.at(","):
            self.next()
            names.append(self.name())
        return tuple(names)

    def program(self) -> Program:
        self.expect("construction")
        prog_name = self.name()
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                tok = self.next()
                if tok.kind not in (POINT, LINE, CIRCLE):
                    raise ParseError("parameter needs a point/line/circle kind",
                                     tok.line, tok.col)
                params.append(Param(tok.kind, self.name()))
                if not self.at(","):
                    break
                self.next()
        self.expect(")")
        self.expect("{")
        body = []
        while not self.at("return"):
            body.append(self.stmt())
        self.expect("return")
        returns = self.namelist()
        self.expect(";")
        self.expect("}")
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return Program(prog_name, tuple(params), tuple(body), returns)

    def block(self) -> tuple:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
        self.expect("}")
        return tuple(stmts)

    def stmt(self):
        tok = self.peek()
        if tok.kind == "let":
            return self.let_stmt()
        if tok.kind == "if":
            pos = self.pos()
            self.next()
            test = self.test()
            then = self.block()
            orelse = ()
            if self.at("else"):
                self.next()
                orelse = self.block()
            return If(test, then, orelse, pos)
        if tok.kind == "while":
            pos = self.pos()
            self.next()
            test = self.test()
            self.expect("budget")
            budget_tok = self.expect("INT")
            body = self.block()
            return While(test, int(budget_tok.text), body, pos)
        raise ParseError(f"expected a statement, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def let_stmt(self):
        pos = self.pos()
        self.expect("let")
        if self.at("["):
            self.next()
            names = self.namelist()
            self.expect("]")
            self.expect("=")
            self.expect("intersect")
            st = self.step("intersect", names, pos)
            if len(names) > 2:
                raise ParseError("intersect binds one or two names",
                                 pos.line, pos.col)
            return st
        target = self.name()
        self.expect("=")
        head = self.next()
        if head.kind == "intersect":
            raise ParseError("intersect bindings use let [N] = intersect(...)",
                             head.line, head.col)
        if head.kind in RULES:
            return self.step(head.kind, (target,), pos)
        if head.kind == "choose":
            self.expect("(")
            candidates = self.namelist()
            self.expect("|")
            test = self.test()
            self.expect(")")
            self.expect(";")
            return LetChoose(target, candidates, test, pos)
        if head.kind == "arbitrary":
            region = self.region()
            self.expect(";")
            return LetArbitrary(target, region, pos)
        raise ParseError(f"unknown statement head {head.text!r}",
                         head.line, head.col)

    def step(self, rule: str, names: tuple[str, ...], pos: Pos) -> LetStep:
        """A construction statement's operands, after its rule's name
        and through the closing `;`."""
        self.expect("(")
        args = [self.name()]
        for sep in RULES[rule].seps:
            self.expect(sep)
            args.append(self.name())
        self.expect(")")
        self.expect(";")
        return LetStep(rule, names, tuple(args), pos)

    def region(self):
        tok = self.next()
        pos = Pos(tok.line, tok.col)
        if tok.kind == "in_disk":
            self.expect("(")
            center = self.name()
            self.expect(",")
            r2 = self.posrational()
            self.expect(")")
            return DiskExpr(center, r2, pos)
        if tok.kind == "in_cell":
            self.expect("(")
            conds = [self.signcond()]
            while self.at(","):
                self.next()
                conds.append(self.signcond())
            self.expect(")")
            return CellExpr(tuple(conds), pos)
        raise ParseError("expected in_disk or in_cell", tok.line, tok.col)

    def signcond(self) -> tuple[str, str]:
        tok = self.next()
        if tok.kind not in CELL_CONDS:
            raise ParseError("expected inside/outside/pos/neg",
                             tok.line, tok.col)
        self.expect("(")
        name = self.name()
        self.expect(")")
        return (tok.kind, name)

    def posrational(self) -> Fraction:
        tok = self.expect("INT")
        num = int(tok.text)
        den = 1
        if self.at("/"):
            self.next()
            den_tok = self.expect("INT")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
        value = Fraction(num, den)
        if value <= 0:
            raise ParseError("radius literal must be positive",
                             tok.line, tok.col)
        return value

    def test(self) -> Test:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            inner = self.test()
            return Test(inner.kind, inner.args, not inner.negated,
                        Pos(tok.line, tok.col))
        tok = self.next()
        if tok.kind not in geom.TESTS:
            raise ParseError(f"unknown test {tok.text!r}", tok.line, tok.col)
        self.expect("(")
        args = self.namelist()
        self.expect(")")
        return Test(tok.kind, args, False, Pos(tok.line, tok.col))


def parse_program(text: str) -> Program:
    """Parse and statically check a construction program."""
    prog = _Parser(_tokenize(text)).program()
    check_program(prog)
    return prog


def _fail(pos: Pos, message: str):
    raise CheckError(f"line {pos.line}, col {pos.col}: {message}")


def _lookup(env: dict, name: str, pos: Pos) -> str:
    if name not in env:
        _fail(pos, f"unknown name {name!r}")
    return env[name]


def _want(env: dict, name: str, kinds, pos: Pos, what: str) -> str:
    kind = _lookup(env, name, pos)
    if kind not in kinds:
        _fail(pos, f"{what} needs {' or '.join(kinds)}, but {name!r} is a {kind}")
    return kind


def _check_test(test: Test, env: dict):
    operands = geom.TESTS[test.kind].operands
    if len(test.args) != len(operands):
        _fail(test.pos, f"{test.kind} takes {len(operands)} arguments, "
                        f"got {len(test.args)}")
    kinds = [_want(env, name, tuple(cls.kind for cls in classes), test.pos,
                   test.kind)
             for name, classes in zip(test.args, operands)]
    if test.kind == "equal" and kinds[0] != kinds[1]:
        _fail(test.pos, f"equal compares same-kind objects, got "
                        f"{kinds[0]} and {kinds[1]}")


def _bind(env: dict, name: str, kind: str, in_loop: bool, pos: Pos):
    if name in env:
        if not in_loop:
            _fail(pos, f"{name!r} is already bound; rebinding is only "
                       "allowed inside while bodies")
        if env[name] != kind:
            _fail(pos, f"rebinding {name!r} changes its kind "
                       f"from {env[name]} to {kind}")
    env[name] = kind


def _check_block(stmts, env: dict, in_loop: bool):
    for st in stmts:
        if isinstance(st, LetStep):
            rule = RULES[st.rule]
            kinds = tuple(cls.kind for cls in geom.RULES[st.rule].operands)
            for name in st.args:
                _want(env, name, kinds, st.pos, st.rule)
            i, j = rule.distinct
            if st.args[i] == st.args[j]:
                _fail(st.pos, rule.same)
            if len(set(st.names)) != len(st.names):
                _fail(st.pos, "duplicate intersection binding names")
            for name in st.names:
                _bind(env, name, rule.binds, in_loop, st.pos)
        elif isinstance(st, LetChoose):
            if len(set(st.candidates)) != len(st.candidates):
                _fail(st.pos, "duplicate choose candidates")
            kinds = {_lookup(env, c, st.pos) for c in st.candidates}
            if len(kinds) != 1:
                _fail(st.pos, "choose candidates must share one kind")
            kind = kinds.pop()
            inner = dict(env)
            inner[st.name] = kind
            _check_test(st.test, inner)
            _bind(env, st.name, kind, in_loop, st.pos)
        elif isinstance(st, LetArbitrary):
            region = st.region
            if isinstance(region, DiskExpr):
                _want(env, region.center, (POINT,), region.pos, "in_disk")
            else:
                for cond_kind, name in region.conds:
                    _want(env, name, (CELL_CONDS[cond_kind][0],), region.pos,
                          cond_kind)
            _bind(env, st.name, POINT, in_loop, st.pos)
        elif isinstance(st, If):
            _check_test(st.test, env)
            then_env = dict(env)
            _check_block(st.then, then_env, in_loop)
            else_env = dict(env)
            _check_block(st.orelse, else_env, in_loop)
            merged = {name: kind for name, kind in then_env.items()
                      if else_env.get(name) == kind}
            env.clear()
            env.update(merged)
        elif isinstance(st, While):
            if st.budget < 0:
                _fail(st.pos, "negative while budget")
            _check_test(st.test, env)
            body_env = dict(env)
            _check_block(st.body, body_env, True)
            # names first bound inside the body may never materialize,
            # so only prior bindings survive the loop
        else:       # pragma: no cover - parser emits no other nodes
            raise TypeError(f"unexpected statement {st!r}")


def check_program(prog: Program):
    """Static checks; raises CheckError on the first violation."""
    env: dict[str, str] = {}
    for param in prog.params:
        if param.name in env:
            raise CheckError(f"duplicate parameter {param.name!r}")
        env[param.name] = param.kind
    _check_block(prog.body, env, False)
    for name in prog.returns:
        if name not in env:
            raise CheckError(f"returned name {name!r} is not always bound")
