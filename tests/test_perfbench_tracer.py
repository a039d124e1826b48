"""The benchmark's tracer must find every hook it wraps and put each back.

The tracer reads methods from their class `__dict__` and replaces module
functions where modules bind them, so moving one of them (say `contains`
into a shared base class) breaks traced benchmark runs; this test finds
that without running the benchmark.  Likewise every engine name the
benchmark's workloads import must still resolve, or every benchmark run
fails.
"""

import importlib
import sys
from pathlib import Path

from euclid import field, geom
from euclid.dsl.interp import SamplingOracle
from euclid.field import Tower
from euclid.geom import Position, point
from euclid.regions import Disk

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def test_tracer_installs_and_restores_every_hook():
    originals = (geom.intersect, geom.Line.__dict__["contains"],
                 field.Constructible.__dict__["__mul__"])
    t = tracer.Tracer()
    try:
        t.install()
        assert geom.intersect is not originals[0]
    finally:
        t.uninstall()
    assert (geom.intersect, geom.Line.__dict__["contains"],
            field.Constructible.__dict__["__mul__"]) == originals


def test_tracer_counts_a_sampled_answer():
    # a rename or re-binding of `regions.sample_point` would otherwise
    # leave `regions.sample.calls` silently at 0
    tw = Tower()
    center = point(tw, 0, 0)
    t = tracer.Tracer()
    try:
        t.install()
        t.on = True
        answer = SamplingOracle(0).answer(Disk(center, tw.one),
                                          Position([center]))
    finally:
        t.on = False
        t.uninstall()
    assert answer is not None
    assert t.counts["regions.sample"] == 1


def test_benchmark_workloads_import():
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"corpus", "closure", "game",
                                        "densify"}


def test_benchmark_ops_run_and_check(monkeypatch):
    # one op of each kind per workload, so a signature change an op
    # depends on fails here rather than in every benchmark run
    monkeypatch.chdir(ROOT)         # workloads read configs/ relatively
    workloads = importlib.import_module("workloads")
    ran = 0
    for name, make in workloads.WORKLOADS.items():
        first = {}
        for op in make(0).ops:
            first.setdefault(op.kind, op)
        for kind, op in first.items():
            assert op.check(op.run()) is None, f"{name} {kind}"
            ran += 1
    assert ran == 45
