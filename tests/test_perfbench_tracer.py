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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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


def test_benchmark_workloads_import():
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"corpus", "closure", "game",
                                        "densify"}
