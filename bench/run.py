"""Run one benchmark workload against the radonlab source of this checkout.

    python3 bench/run.py --workload norm-sweep --seed 1 --seconds 20 --trace 0

One single-threaded process runs the workload's cycle of operations in a
closed loop, whole cycles only, until ``--seconds`` have passed; it checks
every output and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Times are scaled to a reference machine speed.  On a shared virtual machine
the same code runs up to a third slower for minutes at a time.  A fixed
pure-Python loop, timed between the operations and between the set-up
repeats, slows down with it; every timed stretch is multiplied by
REFERENCE_S over the median time of the loop just before and just after it.
"""

import os
import sys

# One BLAS thread, set before numpy loads: two threads burn twice the CPU for
# no gain here and make timings wander.  radonlab's own trial parallelism stays
# at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RADONLAB_THREADS", None)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
REFERENCE_S = 0.005  # the reference loop's time at the speed times are scaled to
REFERENCE_EVERY_S = 0.25  # one more reference sample per this much operation time
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import radonlab.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: a probe of the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - start


def import_seconds() -> float:
    """``import radonlab.cli`` timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(op) -> tuple[float, list[str]]:
    """Run one operation; return its time and what its check found wrong."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the operation failed; the run goes on and counts it
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, [f"output unreadable: {exc!r}"]


def probe(covered: float) -> list[float]:
    """Reference samples: one, and one more per REFERENCE_EVERY_S of the work they bracket."""
    return [reference_seconds() for _ in range(1 + int(covered / REFERENCE_EVERY_S))]


def scaled(elapsed: float, before: list[float], after: list[float]) -> float:
    """A time scaled by the reference samples taken just before and just after it."""
    return elapsed * REFERENCE_S / statistics.median(before + after)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radonlab" / "__init__.py").is_file():
        print(f"bench: no radonlab source at {SRC}; run from the root of a radonlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    before = probe(0.5)
    start = time.perf_counter()
    import radonlab.cli

    timed = [(time.perf_counter() - start, before, after := probe(0.5))]
    if Path(radonlab.__file__).resolve().parent != SRC / "radonlab":
        print(f"bench: imported radonlab from {radonlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}; one of {list(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    # set-up, repeated: import in fresh interpreters, inputs into fresh directories
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        for _ in range(SETUP_REPEATS - 1):
            before = after
            timed.append((import_seconds(), before, after := probe(0.5)))
        imports = [scaled(*t) for t in timed]
        inputs = []
        for i in range(SETUP_REPEATS):
            before = after
            start = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, work / f"setup-{i}")
            elapsed = time.perf_counter() - start
            inputs.append(scaled(elapsed, before, after := probe(elapsed)))
        setups = [a + b for a, b in zip(imports, inputs)]
        setup_s = statistics.median(setups)

        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        attempted = failed = 0
        correct = True
        reported: set = set()
        cycle_times, raw_times, snapshots = [], [], [tracer.snapshot()]
        before = probe(0.0)
        loop_start = time.perf_counter()
        while not cycle_times or time.perf_counter() - loop_start < args.seconds:
            tracer.recording = args.trace and not cycle_times
            total = raw = 0.0
            for op in ops:
                elapsed, problems = run_op(op)
                after = probe(elapsed)
                total += scaled(elapsed, before, after)
                raw += elapsed
                before = after
                attempted += 1
                if problems:
                    failed += 1
                    # a problem the op's known faults do not explain is a wrong output
                    causes = [op.known_faults.get(p.split(" ", 1)[0]) for p in problems]
                    correct = correct and all(causes)
                    if op.name not in reported:
                        reported.add(op.name)
                        for p, cause in zip(problems, causes):
                            kind = f"known fault ({cause})" if cause else "WRONG OUTPUT"
                            print(f"bench: {op.name}: {kind}: {p}", file=sys.stderr)
            cycle_times.append(total)
            raw_times.append(raw)
            snapshots.append(tracer.snapshot())
        tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops_per_s = len(ops) / statistics.median(cycle_times)
    print(
        f"bench: {len(cycle_times)} cycles; as timed, {len(ops) / statistics.median(raw_times):.5g} ops/s "
        f"and {statistics.median(t for t, _, _ in timed):.4g} s import; scaled, {ops_per_s:.5g} ops/s "
        f"and {statistics.median(imports):.4g} s import",
        file=sys.stderr,
    )
    # every set-up sample, so that compare.py can set a single set-up's spread beside the median's
    print(f"bench: setup samples {json.dumps(setups)}", file=sys.stderr)
    if args.trace:
        per_cycle = [{k: b.get(k, 0.0) - a.get(k, 0.0) for k in b} for a, b in zip(snapshots, snapshots[1:])]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        values = {name: statistics.median(c.get(name, 0.0) for c in per_cycle) for name in units}
        values["setup.import_s"] = statistics.median(imports)
        values["setup.inputs_s"] = statistics.median(inputs)
        values["trace.ops_per_s"] = ops_per_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            spans = [dict(zip(("id", "parent", "name", "start", "end"), s)) for s in tracer.spans]
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics, "first_cycle_spans": spans}, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
