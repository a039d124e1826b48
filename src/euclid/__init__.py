"""Exact straightedge-and-compass construction engine.

Subpackages and modules:

- `field`: arithmetic in towers of real quadratic extensions with exact
  sign decisions.
- `geom`: points, lines, circles, the exact predicates over them, the
  construction-step record that every trace is made of, the tables of
  construction rules (`RULES`) and exact tests (`TESTS`), and
  `Position`, the objects an engine knows so far.
- `closure`: saturation of a configuration under construction steps and
  derivability queries.
- `regions`: open disks and sign-cells with exact membership and
  containment tests, and a point sampler that tests its grid draws on
  integer sign bounds before it tests them exactly.
- `dsl`: the construction-program language (parser, checker,
  interpreter), whose tests are those of `geom.TESTS`; its tokenizer
  and grammar of exact literals also read scenes and oracle scripts.
- `corpus`: a verified library of classical construction programs.
- `game`: the adversarial construction game over a `geom.Position`,
  with strategies, sampling and certificate adversaries, and
  certificate checking.
- `net`: straightedge-only densification through harmonic conjugates,
  and the replay that re-derives run, closure, densify and game
  traces.
- `algebra`: integer polynomials and the power-of-two degree criterion
  for non-constructibility.
- `replay`: transport of recorded traces under projective maps and the
  report of which facts survive, each test re-decided by `geom.TESTS`.
- `configfile`: scene files declaring named exact input objects, with
  coordinates such as `sqrt(3)` read by the `dsl` reader.
- `render`: deterministic SVG figures from run, closure, densify and
  game traces.
- `cli`: the `euclid` command binding everything together.
"""

__version__ = "0.1.0"
