"""Per-layer spans and counts, recorded from outside the engine.

`Tracer.install` wraps public entry points of each `euclid` layer.
Methods are replaced on their class; module functions are replaced at
every module that binds them, since callers such as `euclid.closure`
hold their own reference to `euclid.geom.intersect`.  `uninstall` puts
every original back.

Each wrapped call is a span.  A layer's self time is its span time
minus the time of the spans directly inside it.  Field operations and
geometric predicates run millions of times a pass, so their spans are
folded into per-name counts and self time on the fly; spans of the
layers above them are kept in memory as (id, name, start, end, parent)
and written out by `dump`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from euclid import closure, corpus, dsl, field, game, geom, net, regions
from euclid import render, replay


class Tracer:
    def __init__(self):
        self.on = False
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.towers: list = []
        self._stack: list = []          # [name, start, child_s, span_id]
        self._next_id = 0
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, keep: bool, after=None):
        tracer = self
        stack = self._stack
        counts = self.counts
        self_s = self.self_s

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                counts[name] += 1
                if stack:
                    stack[-1][2] += duration
                if keep:
                    parent = stack[-1][3] if stack else None
                    tracer.spans.append((span_id, name, frame[1], end, parent))
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a kept span, as the benchmark's own op."""
        return self._wrap(name, fn, True)(*args)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        _assign(owner, attr, value)

    def _method(self, cls, attrs, name, keep=False, after=None):
        originals = {}
        for attr in attrs:
            fn = cls.__dict__[attr]
            if fn not in originals:
                originals[fn] = self._wrap(name, fn, keep, after)
            self._set(cls, attr, originals[fn])

    def _function(self, fn, name, keep=True, after=None):
        wrapped = self._wrap(name, fn, keep, after)
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self, callers=()):
        """Wrap the entry points, also where the modules in `callers`
        bind them."""
        self._modules = [m for n, m in list(sys.modules.items())
                         if n == "euclid" or n.startswith("euclid.")]
        self._modules += list(callers)
        C = field.Constructible
        self._method(C, ("__mul__", "__rmul__"), "field.mul")
        self._method(C, ("__truediv__", "__rtruediv__"), "field.div")
        self._method(C, ("__eq__", "__ne__"), "field.eq")
        self._method(C, ("sign", "__lt__", "__le__", "__gt__", "__ge__"),
                     "field.sign")
        self._method(C, ("sqrt",), "field.sqrt")
        self._method(C, ("approx",), "field.approx")

        towers = self.towers
        tower_init = field.Tower.__init__

        def init(tower, *args, **kwargs):
            tower_init(tower, *args, **kwargs)
            if self.on:
                towers.append(tower)
        self._set(field.Tower, "__init__", init)

        self._function(geom.intersect, "geom.intersect", keep=True,
                       after=self._intersect_after)
        for fn in (geom.orientation, geom.between, geom.dist_compare):
            self._function(fn, "geom.pred", keep=False)
        for cls in (geom.Line, geom.Circle):
            self._method(cls, ("contains", "side"), "geom.pred")

        for fn, size in ((closure.closure, lambda r: r.size),
                         (closure.derivable, lambda r: r.state.size),
                         (closure.expand_once, lambda r: r.size)):
            self._function(fn, "closure", after=self._closure_after(size))

        self._function(regions.sample_point, "regions.sample")
        self._function(dsl.interp.run, "dsl.run",
                       after=self._count("dsl.steps", lambda r: r.steps))
        self._function(dsl.parser.parse_program, "dsl.parse")
        for e in corpus.entries():
            self._set(e, "postcondition",
                      self._wrap("corpus.post", e.postcondition, True))

        self._method(game.Position, ("add", "contains"), "game.position")
        self._method(game.ScriptedAlice, ("__call__",), "game.alice",
                     keep=True)
        for cls in (game.SamplingBob, game.CertificateBob):
            self._method(cls, ("answer",), "game.bob", keep=True)
        self._function(game.play, "game.play",
                       after=self._count("game.moves", lambda r: len(r.moves)))

        self._function(net.densify, "net.densify", after=self._densify_after)
        self._function(net.replay_trace, "net.replay")
        self._function(replay.transport, "replay.transport")
        self._function(render.render_svg, "render.svg")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    # -- counters ------------------------------------------------------------

    # Hooks run after a traced call returns, so only while tracing.

    def _count(self, name, measure):
        def after(result):
            self.counts[name] += measure(result)
        return after

    def _intersect_after(self, result):
        self.counts["geom.intersect.points"] += len(result)
        if any(frame[0] == "closure" for frame in self._stack):
            self.counts["closure.returned"] += len(result)

    def _closure_after(self, size):
        def after(result):
            self.counts["closure.objects"] += size(result)
            state = getattr(result, "state", result)
            self.counts["closure.admitted"] += sum(
                1 for t in state.trace if t.rule == "intersect")
        return after

    def _densify_after(self, result):
        self.counts["net.steps"] += len(result.trace)
        self.counts["net.iterations"] += result.iterations

    def end_op(self):
        """Close an op: add the heights of the towers it created."""
        self.counts["field.radicands"] += sum(t.height for t in self.towers)
        self.towers.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


def _assign(owner, attr, value):
    """Set an attribute on a class, a module or a frozen dataclass."""
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)
