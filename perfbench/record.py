"""Record the baseline of the current commit into perfbench/baseline.json.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 0-9

For each workload this runs the benchmark untraced once per seed, then
traced twice on the default seed, one process after another.  It writes
each end-to-end metric's median, quartiles and spread (quartile distance
over median), the per-layer metrics of the traced runs, and the machine
and load of every run.  It exits 1 when a run fails its checks or when
the two traced runs disagree on a count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "closure", "game", "densify")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    machine = next((json.loads(l[len("machine "):]) for l in lines
                    if l.startswith("machine ")), None)
    result = {"metrics": {}, "correct": False, "attempted": 0, "failed": 0}
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    result.update(exit=done.returncode, machine=machine)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    print(workload, seed, "trace" if trace else "", done.returncode,
          {k: round(v["value"], 4) for k, v in result["metrics"].items()
           if not trace}, flush=True)
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    default_seed = json.loads(
        (HERE / "layer_map.json").read_text())["seeds"]["default"]
    seconds = bench["run_seconds"]

    ok = True
    report = {"run_seconds": seconds, "seeds": _seeds(args.seeds),
              "workloads": {}}
    for workload in WORKLOADS:
        runs = [_run(workload, s, seconds, 0) for s in _seeds(args.seeds)]
        traced = [_run(workload, default_seed, seconds, 1) for _ in range(2)]
        ok &= all(r["exit"] == 0 and r["correct"] and r["failed"] == 0
                  for r in runs + traced)
        layers = {}
        for name, metric in traced[0]["metrics"].items():
            values = [t["metrics"][name]["value"] for t in traced]
            if name.endswith("self_s") or name == "trace.overhead_s":
                layers[name] = statistics.median(values)
            else:
                ok &= values[0] == values[1]
                layers[name] = values[0] if values[0] == values[1] \
                    else values
        report["workloads"][workload] = {
            "end_to_end": {m["name"]: _summary(
                [r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench["end_to_end"]},
            "ops_per_run": [r["attempted"] for r in runs],
            "per_layer": layers,
            "machine": [r["machine"] for r in runs + traced],
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}", flush=True)
    report["all_checks_passed"] = ok
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
