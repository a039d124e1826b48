"""Command-line front end for the construction engine.

Subcommands run construction programs, query derivability closures,
referee straightedge-and-compass games, apply the degree criterion for
non-constructibility, densify targets inside a scaffold triangle, and
verify the shipped corpus.  Negative verdicts (a target not derivable
within budget, a game timeout, a non-constructibility finding) are
results and exit 0; exit 1 marks failures, exit 2 usage and input
errors, and exit 3 resource exhaustion.

The environment variable EUCLID_HEIGHT_CAP, a nonnegative integer,
overrides the default height cap of the tower a scene is loaded into.
verify-corpus caps its trials at corpus.DEFAULT_HEIGHT_CAP instead,
and wantzel builds no tower.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import algebra, corpus
from .closure import Budget, closure, derivable
from .configfile import Scene, load_scene
from .dsl.interp import ReplayOracle, SamplingOracle, run
from .dsl.parser import parse_program
from .errors import (CheckError, DegenerateInputError, ParseError, RangeError,
                     ReduciblePolynomialError, ResourceLimitError, RunAbort,
                     ScopeError)
from .game import (DEFAULT_MAX_MOVES, AliceWins, CertificateBob, Timeout,
                   play, rational_certificate, scripted_alice)
from .geom import Circle, Line, Point, point
from .net import DEFAULT_MAX_ITERATIONS, densify
from .render import _dec, _mid, auto_viewport, render_svg


class UsageError(Exception):
    """Bad flags or input values; reported on stderr with exit 2."""


# ---------------------------------------------------------------------------
# Output helpers.

def _coord(x) -> str:
    """Exact text for rational values, "~"-prefixed decimal otherwise."""
    if x.is_rational():
        return str(x.as_rational())
    return "~" + _dec(_mid(x))


def _show(obj) -> str:
    if isinstance(obj, Point):
        return f"({_coord(obj.x)}, {_coord(obj.y)})"
    if isinstance(obj, Line):
        return f"line[{_coord(obj.a)}, {_coord(obj.b)}, {_coord(obj.c)}]"
    if isinstance(obj, Circle):
        return f"circle[center={_show(obj.center)}, r2={_coord(obj.r2)}]"
    return repr(obj)


def _obj_json(obj):
    if isinstance(obj, Point):
        return {"type": "point", "x": _coord(obj.x), "y": _coord(obj.y)}
    if isinstance(obj, Line):
        return {"type": "line", "a": _coord(obj.a), "b": _coord(obj.b),
                "c": _coord(obj.c)}
    if isinstance(obj, Circle):
        return {"type": "circle", "center": _obj_json(obj.center),
                "r2": _coord(obj.r2)}
    return {"type": type(obj).__name__.lower()}


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# Argument decoding.

def _load_any_program(spec: str):
    """A program from a file path, or a corpus entry by name."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return parse_program(handle.read())
    try:
        return corpus.entry(spec).program()
    except ValueError:
        raise UsageError(
            f"no program file or corpus entry named {spec!r}") from None


def _rational_arg(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {what} {text!r}") from None


def _count(text: str) -> int:
    """argparse type of the budget and sample-count flags: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _sampling(spec: str, what: str, want: str) -> SamplingOracle:
    """A run oracle, or a game's Bob, from `seed` or `sampling:seed`."""
    digits = spec[len("sampling:"):] if spec.startswith("sampling:") else spec
    try:
        return SamplingOracle(int(digits))
    except ValueError:
        raise UsageError(f"bad {what} spec {spec!r} (want {want})") from None


def _parse_oracle(spec: str, tower):
    if spec.startswith("script:"):
        body = spec[len("script:"):]
        answers = []
        for chunk in body.split(";") if body else ():
            try:
                sx, sy = chunk.split(",")
                answers.append(point(tower, Fraction(sx), Fraction(sy)))
            except (ValueError, ZeroDivisionError):
                raise UsageError(
                    f"bad oracle script entry {chunk!r}") from None
        if not answers:
            raise UsageError("empty oracle script")
        return ReplayOracle(answers)
    return _sampling(spec, "oracle", "a seed or script:x,y;x,y")


def _parse_alice(spec: str, scene: Scene):
    if spec.startswith("corpus:"):
        program = corpus.entry(spec[len("corpus:"):]).program()
    elif spec.startswith("script:"):
        path = spec[len("script:"):]
        with open(path, "r", encoding="utf-8") as handle:
            program = parse_program(handle.read())
    else:
        program = _load_any_program(spec)
    return scripted_alice(program, scene.inputs_for(program))


def _parse_bob(spec: str):
    if spec.startswith("certificate:"):
        name = spec[len("certificate:"):]
        if name in ("rational", "rational-plane"):
            return CertificateBob(rational_certificate())
        raise UsageError(f"unknown certificate {name!r} "
                         "(known: rational-plane)")
    return _sampling(spec, "bob",
                     "sampling:seed or certificate:rational-plane")


def _resolve(scene: Scene, name: str):
    if name not in scene:
        known = ", ".join(scene.names()) or "none"
        raise UsageError(f"no object {name!r} in the scene "
                         f"(declared: {known})")
    return scene[name]


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_run(args) -> int:
    program = _load_any_program(args.program)
    scene = load_scene(args.config)
    oracle = _parse_oracle(args.oracle, scene.tower)
    try:
        result = run(program, scene.inputs_for(program), oracle=oracle)
    except RunAbort as exc:
        if args.json:
            _emit({"command": "run", "program": program.name,
                   "abort": {"reason": exc.reason, "message": str(exc)}})
        else:
            print(f"abort: {exc}")
        return 1
    if args.svg:
        extra = [scene.target_point] if scene.target_point else []
        viewport = auto_viewport(result.trace, extra=extra)
        document = render_svg(result.trace, viewport,
                              target=scene.target_point)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(document)
    if args.json:
        _emit({"command": "run", "program": program.name,
               "outputs": [dict(name=n, **_obj_json(o)) for n, o in
                           zip(program.returns, result.outputs)],
               "steps": result.steps,
               "trace": [{"kind": step.rule, "text": step.text}
                         for step in result.trace]})
    else:
        for name, obj in zip(program.returns, result.outputs):
            print(f"{name} = {_show(obj)}")
    return 0


def cmd_closure(args) -> int:
    scene = load_scene(args.config)
    budget = Budget(max_rounds=args.rounds, max_objects=args.max_objects)
    points = list(scene.points.values())
    curves = list(scene.curves.values())
    if args.target is not None:
        verdicts = derivable(_resolve(scene, args.target), points, curves,
                             budget)
        state = verdicts.state
        if verdicts.derivable:
            text = f"Derivable (round {verdicts.rounds})"
        elif state.complete:
            text = f"NoWithinBudget (fixed point at round {state.rounds})"
        else:
            text = f"NoWithinBudget (round budget {args.rounds} exhausted)"
        if args.json:
            _emit({"command": "closure", "target": args.target,
                   "derivable": verdicts.derivable,
                   "round": verdicts.rounds,
                   "rounds": state.rounds, "complete": state.complete,
                   "points": len(state.points),
                   "curves": len(state.curves)})
        else:
            print(text)
        return 0
    state = closure(points, curves, budget)
    if args.json:
        _emit({"command": "closure", "points": len(state.points),
               "curves": len(state.curves), "rounds": state.rounds,
               "complete": state.complete,
               "trace": [{"text": _show(step.made[0]), "round": step.round,
                          "rule": step.rule} for step in state.trace]})
    else:
        tail = "fixed point" if state.complete else "budget exhausted"
        print(f"{len(state.points)} points, {len(state.curves)} curves "
              f"after {state.rounds} rounds ({tail})")
    return 0


def cmd_game(args) -> int:
    scene = load_scene(args.config)
    target = _resolve(scene, args.target)
    alice = _parse_alice(args.alice, scene)
    bob = _parse_bob(args.bob)
    record = play(list(scene.points.values()), list(scene.curves.values()),
                  target, alice, bob, max_moves=args.max_moves)
    outcome = record.outcome
    if isinstance(outcome, AliceWins):
        text, kind, code = f"AliceWins after {outcome.moves} moves", \
            "AliceWins", 0
    elif isinstance(outcome, Timeout):
        text, kind, code = f"Timeout (move budget {outcome.move_budget})", \
            "Timeout", 0
    else:
        text, kind, code = \
            f"Aborted ({outcome.reason}): {outcome.message}", "Aborted", 1
    if args.json:
        _emit({"command": "game", "outcome": {"kind": kind, "text": text},
               "moves": [{"index": m.round, "text": record.move_text(i)}
                         for i, m in enumerate(record.moves)]})
    else:
        if args.transcript:
            print(record.transcript())
        print(text)
    return code


def cmd_wantzel(args) -> int:
    if args.polynomial in algebra.PRESETS:
        poly = algebra.preset(args.polynomial)
    else:
        poly = algebra.IntPoly.parse(args.polynomial)
    try:
        verdict = algebra.wantzel_check(poly)
    except ReduciblePolynomialError as exc:
        raise UsageError(f"not irreducible: {exc}") from None
    if isinstance(verdict, algebra.NotConstructible):
        kind = "NotConstructible"
        text = (f"NotConstructible: irreducible degree {verdict.degree} "
                "is not a power of 2")
    else:
        kind = "NecessaryConditionHolds"
        text = (f"NecessaryConditionHolds: degree {verdict.degree} "
                "is a power of 2")
    if args.json:
        _emit({"command": "wantzel", "polynomial": str(poly),
               "degree": poly.degree, "verdict": kind, "text": text})
    else:
        print(text)
    return 0


def cmd_densify(args) -> int:
    scene = load_scene(args.config)
    target = _resolve(scene, args.target)
    if not isinstance(target, Point):
        raise UsageError(f"target {args.target!r} is not a point")
    scaffold = list(scene.points.values())
    if len(scaffold) < 4:
        raise UsageError("densify needs four scene points: a triangle "
                         "and an interior companion, in declaration order")
    eps = _rational_arg(args.eps, "eps")
    result = densify(*scaffold[:4], target, eps,
                     max_iterations=args.max_iterations)
    if args.json:
        _emit({"command": "densify", "point": _obj_json(result.point),
               "iterations": result.iterations,
               "steps": len(result.trace),
               "trace": [{"op": step.rule, "result": _show(step.made[0])}
                         for step in result.trace]})
    else:
        print(f"reached {_show(result.point)} after {result.iterations} "
              f"iterations, {len(result.trace)} straightedge steps")
    return 0


def cmd_verify_corpus(args) -> int:
    names = None
    if args.entry is not None:
        corpus.entry(args.entry)
        names = [args.entry]
    reports = corpus.verify_corpus(args.input_samples, args.oracle_seeds,
                                   names=names)
    if args.json:
        _emit({"command": "verify-corpus",
               "reports": [{"name": r.name, "trials": r.trials,
                            "passed": r.passed, "ok": r.ok,
                            "expect_fail": r.expect_fail,
                            "failures": [{"input_index": f.input_index,
                                          "oracle_seed": f.oracle_seed,
                                          "kind": f.kind,
                                          "message": f.message}
                                         for f in r.failures]}
                           for r in reports.values()]})
    else:
        for report in reports.values():
            print(report.verdict())
    return 0 if all(r.ok for r in reports.values()) else 1


# ---------------------------------------------------------------------------
# Wiring.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euclid",
        description="Exact straightedge-and-compass construction engine.",
        epilog="Environment: EUCLID_HEIGHT_CAP overrides the tower "
               "height cap.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a construction program on a scene")
    p.add_argument("program", help="program file or corpus entry name")
    p.add_argument("config", help="scene file with the program inputs")
    p.add_argument("--oracle", default="sampling:0",
                   help="seed, sampling:seed, or script:x,y;x,y")
    p.add_argument("--svg", metavar="PATH", help="write an SVG figure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("closure",
                       help="saturate a scene under construction steps")
    p.add_argument("config")
    p.add_argument("--rounds", type=_count, required=True)
    p.add_argument("--target", help="ask whether this object appears")
    p.add_argument("--max-objects", type=_count, default=Budget.max_objects)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("game", help="referee a construction game")
    p.add_argument("config")
    p.add_argument("--target", required=True)
    p.add_argument("--alice", required=True,
                   help="corpus:entry or script:program-file")
    p.add_argument("--bob", required=True,
                   help="sampling:seed or certificate:rational-plane")
    p.add_argument("--max-moves", type=_count, default=DEFAULT_MAX_MOVES)
    p.add_argument("--transcript", action="store_true",
                   help="print every move before the outcome")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("wantzel",
                       help="degree criterion for non-constructibility")
    p.add_argument("polynomial",
                   help="integer polynomial in x, or a preset name: "
                        + ", ".join(sorted(algebra.PRESETS)))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_wantzel)

    p = sub.add_parser("densify",
                       help="approach a target by straightedge only, "
                            "inside a four-point scaffold")
    p.add_argument("config")
    p.add_argument("--target", required=True)
    p.add_argument("--eps", required=True,
                   help="rational distance bound, e.g. 1/64")
    p.add_argument("--max-iterations", type=_count,
                   default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("verify-corpus",
                       help="replay shipped constructions over sampled "
                            "inputs and oracle seeds")
    p.add_argument("entry", nargs="?", help="verify one entry by name")
    p.add_argument("--input-samples", type=_count,
                   default=corpus.DEFAULT_INPUT_SAMPLES)
    p.add_argument("--oracle-seeds", type=int,
                   default=corpus.DEFAULT_ORACLE_SEEDS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParseError, CheckError, DegenerateInputError,
            RangeError, ScopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunAbort as exc:
        print(f"abort: {exc}")
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
