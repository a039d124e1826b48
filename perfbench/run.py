"""Benchmark of the `euclid` construction engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

The workload runs in this one process and thread.  Set-up time is
measured on fresh child processes that each import `euclid`, parse the
corpus programs, load the scenes and build the seeded inputs, then
stop.  With `--trace 1` the run is one pass untraced and one pass
traced, whatever `--seconds` says, so that per-layer counts cover the
same work every time.  The last line of standard output is one JSON
object with the end-to-end metrics (`--trace 0`) or the per-layer
metrics (`--trace 1`).
The exit code is 1 when an op aborts or raises or an output check
fails, and 2 when the checkout holds no engine to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000
MIN_TAIL_OPS = 100          # p90 needs ten samples beyond it
SPAN_DIR = Path(".perfbench")

sys.path.insert(0, str(HERE))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "closure", "game", "densify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _repeatable() -> None:
    """Re-run this process with a fixed hash seed and, on Linux, no
    address randomization.

    Dict and set lookups call == on keys whose hashes collide.  The
    engine hashes tuples holding strings, whose hashes change with the
    hash seed, and `Constructible.__hash__` mixes in `id(tower)`, which
    changes with the address layout.  With both fixed, the per-layer
    counts of a traced run repeat exactly.
    """
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    if sys.platform.startswith("linux"):
        import ctypes

        libc = ctypes.CDLL(None)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)      # query only
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _require_engine() -> None:
    """Measure only the engine of this checkout, never an installed one."""
    src = Path("src").resolve()
    if not (src / "euclid" / "__init__.py").is_file() \
            or not Path("configs").is_dir():
        print("perfbench: run from the root of a checkout holding "
              "src/euclid and configs/", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def set_up(workload: str, seed: int, tracer=None):
    """Everything an `euclid` invocation pays before its first op."""
    import euclid.cli  # noqa: F401  (imports every module the command needs)
    import workloads
    from euclid import corpus
    from euclid.configfile import load_scene

    if tracer is not None:
        tracer.install()
        tracer.on = True
    for e in corpus.entries():
        e.program()                 # parses and checks, then caches
    for cfg in sorted(Path("configs").glob("*.cfg")):
        load_scene(cfg)
    built = workloads.WORKLOADS[workload](seed)
    if tracer is not None:
        tracer.on = False
    return built


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from starting a fresh interpreter to it being ready for
    its first op, once per probe."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                sys.exit("perfbench: set-up probe failed")
        samples.append(ready - start)
    return samples


class Tally:
    """Op latencies and failure counts over a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0


def _one_op(w, op, tally: Tally, tracer=None) -> None:
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.on = True
            try:
                out = tracer.span("op", op.run)
            finally:
                tracer.on = False
                tracer.end_op()
    except Exception:               # an aborted op; the run goes on
        tally.failed += 1
        print(f"perfbench: {op.kind} failed:", file=sys.stderr)
        traceback.print_exc()
        return
    tally.latencies.append(time.perf_counter() - start)
    problem = op.check(out)
    if problem is not None:
        tally.failed += 1
        print(f"perfbench: wrong answer from {op.kind}: {problem}",
              file=sys.stderr)
        return
    w.observe(op, out)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_untraced(w, seconds: float) -> Tally:
    """Cycle through the pass until one whole pass and at least
    MIN_TAIL_OPS ops are done and `seconds` of wall time are spent, then
    finish the block in progress.

    Peak RSS is read at the end of the first pass.  That is a fixed
    amount of work, so a faster build does not show more memory only
    because it fits more ops in, while a cache kept across ops has seen
    every input of the pass by then.
    """
    tally = Tally()
    least_ops = max(len(w.ops), MIN_TAIL_OPS)
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(w.ops, 1):
            _one_op(w, op, tally)
            if tally.attempted == len(w.ops):
                tally.peak_rss_mb = _peak_rss_mb()
            if i % w.block == 0 and tally.attempted >= least_ops \
                    and time.perf_counter() >= deadline:
                return tally


def _run_pass(w, tally: Tally, tracer=None) -> float:
    """Run every op of the pass once; return the wall time."""
    start = time.perf_counter()
    for op in w.ops:
        _one_op(w, op, tally, tracer)
    return time.perf_counter() - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(tally: Tally, setup: list[float]) -> dict:
    lat = sorted(tally.latencies)
    if len(lat) < MIN_TAIL_OPS:
        print(f"perfbench: only {len(lat)} ops; op_ms.p90 needs "
              f"{MIN_TAIL_OPS}", file=sys.stderr)
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(len(lat) / sum(lat), "ops/s"),
        "op_ms.p50": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_ms.p90": _metric(deciles[8] * 1e3, "ms"),
        "peak_rss_mb": _metric(tally.peak_rss_mb, "MB"),
    }


LAYER_TIMES = ("field.mul", "field.div", "field.eq", "field.sign",
               "field.sqrt", "field.approx", "geom.intersect", "geom.pred",
               "closure", "regions.sample", "dsl.run", "dsl.parse",
               "corpus.post", "game.position", "game.alice", "game.bob",
               "net.densify", "net.replay", "replay.transport", "render.svg")
LAYER_CALLS = ("field.mul", "field.div", "field.eq", "field.sign",
               "field.sqrt", "field.approx", "geom.intersect", "geom.pred",
               "regions.sample", "game.position")
LAYER_COUNTS = ("field.radicands", "geom.intersect.points", "closure.objects",
                "dsl.steps", "game.moves", "net.steps", "net.iterations")


def _per_layer(tracer, setup_self: dict, traced_s: float,
               untraced_s: float) -> dict:
    """Counts and self seconds of one pass; dsl.parse is set-up work."""
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = _metric(tracer.counts[name], "count")
    for name in LAYER_COUNTS:
        m[name] = _metric(tracer.counts[name], "count")
    for name in LAYER_TIMES:
        seconds = setup_self.get(name, 0.0) if name == "dsl.parse" \
            else tracer.self_s.get(name, 0.0)
        m[f"{name}.self_s"] = _metric(seconds, "s")
    returned = tracer.counts["closure.returned"]
    m["closure.unique_frac"] = _metric(
        tracer.counts["closure.admitted"] / returned if returned else 0.0,
        "ratio")
    m["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.trace:
        _repeatable()
    _require_engine()
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg": os.getloadavg(), "workload": args.workload,
               "seed": args.seed, "trace": args.trace}
    print("machine " + json.dumps(machine), flush=True)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        w = set_up(args.workload, args.seed, tracer)
        setup_self = dict(tracer.self_s)
        tracer.uninstall()
        tracer = Tracer()
        tally = Tally()
        untraced_s = _run_pass(w, tally)
        tracer.install(callers=[sys.modules["workloads"]])
        traced_s = _run_pass(w, tally, tracer)
        tracer.uninstall()
        metrics = _per_layer(tracer, setup_self, traced_s, untraced_s)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        setup = _setup_seconds(args.workload, args.seed)
        w = set_up(args.workload, args.seed)
        tally = _run_untraced(w, args.seconds)
        metrics = _end_to_end(tally, setup)

    problems = w.finish()
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
