"""Run sets of benchmark runs and print each metric's spread, to set and check bounds.

    python3 bench/compare.py --workloads norm-sweep,decay-ladder --seeds 10 --sets 2
    python3 bench/compare.py --workloads null-flat --seeds 3 --sets 1 --traced 3

Set k runs seeds k*N+1 .. k*N+N of every workload, one process at a time.  For
each end-to-end metric it prints every set's median and quartiles, the
quartile distance as a share of the median ("spread"), and the distance of
each later set's median from the first ("drift"), next to the metric's bound
in BENCHMARK.json.  With --traced N it also runs seeds 1..N traced, repeats
the first traced run to show that the counts repeat exactly, and prints the
tracing overhead: untraced ops_per_s over traced ops_per_s, less 1.  Beside
setup_s, the median of a run's set-ups, it prints the same figures for the
first set-up of each run alone.
Raw results go to bench/out/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SAMPLES = "bench: setup samples "
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B") and not m["name"].endswith(".minflt")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples = [line for line in proc.stderr.splitlines() if line.startswith(SAMPLES)]
    result["setup_samples"] = json.loads(samples[-1][len(SAMPLES):])
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", type=int, default=10, help="runs per set, one seed each")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    results: dict = {w: {"sets": [], "traced": []} for w in workloads}

    for k in range(args.sets):
        for w in workloads:
            results[w]["sets"].append([run(w, k * args.seeds + i + 1, args.seconds, 0) for i in range(args.seeds)])
    if args.traced:
        for w in workloads:
            traced = [run(w, i + 1, args.seconds, 1) for i in range(args.traced)]
            repeat = run(w, 1, args.seconds, 1)
            results[w]["traced"] = traced + [repeat]
            moved = [n for n in COUNTS if traced[0]["metrics"][n]["value"] != repeat["metrics"][n]["value"]]
            print(f"{w}: traced counts repeat exactly: {not moved}{'' if not moved else f' (moved: {moved})'}")

    for w in workloads:
        print(f"\n{w}")
        for k, runs in enumerate(results[w]["sets"]):
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"  set {k + 1}: correct {all(r['correct'] for r in runs)}, failed share {sorted(shares)}")
        for name, spec in bounds.items():
            meds = []
            for k, runs in enumerate(results[w]["sets"]):
                q1, med, q3 = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                print(f"  {name:12s} set {k + 1}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                      f"spread {(q3 - q1) / med:.2%} (bound {spec['bound']:.0%})")
            for k, med in enumerate(meds[1:], start=2):
                worse = (med - meds[0]) / meds[0] * (1 if spec["better"] == "lower" else -1)
                print(f"  {name:12s} set {k} against set 1: {worse:+.2%} worse")
        # what setup_s would read from one set-up per run: the run's first
        meds = []
        for k, runs in enumerate(results[w]["sets"]):
            q1, med, q3 = summary([r["setup_samples"][0] for r in runs])
            meds.append(med)
            print(f"  single set-up set {k + 1}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {(q3 - q1) / med:.2%}")
        for k, med in enumerate(meds[1:], start=2):
            print(f"  single set-up set {k} against set 1: {(med - meds[0]) / meds[0]:+.2%} worse")
        if results[w]["traced"]:
            traced = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in results[w]["traced"])
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results[w]["sets"][0])
            print(f"  tracing overhead: {plain / traced - 1:+.1%} (ops_per_s {plain:.5g} untraced, {traced:.5g} traced)")

    out = BENCH / "out" / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
