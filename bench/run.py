"""Benchmark of matroidmatch: one workload per process.

    python3 bench/run.py --workload online-n200 --seed 1 --seconds 35 --trace 0

Run from the root of a source tree. The program is imported from src/ of
that tree; without it the benchmark exits 2. The run sets up the workload's
instance files, repeats whole passes until --seconds are spent, checks
every output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the public functions of each layer are wrapped in spans and the
metrics are the per-layer ones, and the spans of the set-up and the first
pass go to bench/results/. See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four set-up-only children; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args, WORKLOADS[args.workload]


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "matroidmatch" / "__init__.py").is_file():
        fail(f"no program sources at {SRC / 'matroidmatch'}")
    sys.path.insert(0, str(SRC))
    import matroidmatch
    import matroidmatch.cli  # noqa: F401  (the workloads call matroidmatch.cli.main)

    if Path(matroidmatch.__file__).resolve().parent != SRC / "matroidmatch":
        fail(f"imported matroidmatch from {matroidmatch.__file__}")
    return matroidmatch


def setup_child(args) -> float:
    """Set-up time of a fresh set-up-only process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        fail(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def run_passes(workload, ops, seconds: float, on_pass=None) -> int:
    """Whole passes, a new one started while less than `seconds` have passed."""
    start = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < seconds:
        ops.begin_pass()
        workload.run_pass(ops)
        passes += 1
        if on_pass is not None:
            on_pass(passes)
    return passes


def measure(args, workload, ops) -> dict:
    workload.setup()
    samples = [time.perf_counter() - T0]
    workload.prepare()
    start = time.perf_counter()
    every = args.seconds / (SETUP_SAMPLES - 1)

    def on_pass(_):
        # The set-up children are spread over the run, between passes, so
        # that setup_s samples the machine's slow and fast spells as pass_s does.
        if (len(samples) < SETUP_SAMPLES
                and time.perf_counter() - start >= (len(samples) - 1) * every):
            samples.append(setup_child(args))

    on_pass(0)
    passes = run_passes(workload, ops, args.seconds, on_pass)
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_child(args))
    print(f"bench: {passes} passes of {[round(t, 4) for t in ops.wall_s]} s unscaled, "
          f"set-ups of {[round(t, 4) for t in samples]} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(samples),
        "pass_s": ops.pass_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_kb": ops.trace_bytes / 1024.0,
    }


def layer_value(name: str, phase) -> float:
    """One per-layer metric of a phase (reduced spans, counters, distinct
    keys): <fn>.calls, <fn>.self_s, <fn>.hit_ratio (1 - distinct/calls),
    <fn>.distinct_ratio (distinct/calls), cli.<command>.s (inclusive) or a
    plain counter."""
    stats, counts, distinct = phase
    if name in counts:
        return counts[name]
    fn, _, what = name.rpartition(".")
    calls, self_s, incl = stats.get(fn, (0, 0.0, 0.0))
    if what == "calls":
        return calls
    if what == "self_s":
        return self_s
    if what == "s" and fn.startswith("cli."):
        return incl
    if what in ("hit_ratio", "distinct_ratio") and fn in distinct:
        if not calls:
            return 0.0
        share = distinct[fn] / calls
        return 1.0 - share if what == "hit_ratio" else share
    fail(f"no rule for per-layer metric {name!r}")


def _phase(tracer, first: int):
    return (tracer.reduce(first), dict(tracer.counts),
            {k: len(v) for k, v in tracer.distinct.items()})


def _add(a, b):
    stats = {k: [x + y for x, y in zip(a[0].get(k, (0, 0.0, 0.0)), b[0].get(k, (0, 0.0, 0.0)))]
             for k in a[0].keys() | b[0].keys()}
    return (stats, {k: a[1][k] + b[1][k] for k in a[1]}, {k: a[2][k] + b[2][k] for k in a[2]})


def trace_run(args, workload, ops, names: list[str]) -> dict:
    """Traced run: one set-up, then passes for `seconds`. Each metric is that
    of the set-up plus one pass, the median over passes; counts repeat
    exactly from pass to pass. Spans of the set-up and the first pass are
    written to bench/results/."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.open("bench.run")
    tracer.open("bench.setup")
    workload.setup()
    tracer.close()
    setup = _phase(tracer, 1)
    tracer.reset_counters()
    workload.prepare()
    phases = []
    first = len(tracer.spans)

    def on_pass(k):
        nonlocal first
        tracer.close()
        phases.append(_add(setup, _phase(tracer, first)))
        if k > 1:
            del tracer.spans[first:]
        first = len(tracer.spans)
        tracer.reset_counters()
        tracer.open("bench.pass")

    tracer.open("bench.pass")
    passes = run_passes(workload, ops, args.seconds, on_pass)
    tracer.close()
    tracer.close()

    metrics = {}
    for name in names:
        values = [layer_value(name, phase) for phase in phases]
        metrics[name] = statistics.median(values)
        if all(isinstance(v, int) for v in values) and len(set(values)) > 1:
            print(f"bench: {name} differs between passes: {values}", file=sys.stderr)

    out = BENCH / "results" / f"spans-{args.workload}-s{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    spans = [{"id": i, "name": s.name, "parent": s.parent, "start": s.start - T0,
              "end": s.end - T0, "self_s": s.self_s,
              "leaves": {k: {"calls": c, "s": t} for k, (c, t) in s.leaves.items()}}
             for i, s in enumerate(tracer.spans[:first])]
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "traced_pass_s": ops.pass_s(),
                               "traced_wall_s": ops.wall_s, "metrics": metrics,
                               "spans": spans}) + "\n", encoding="utf-8")
    print(f"bench: {passes} traced passes, pass_s {ops.pass_s():.4f} s; "
          f"spans in {out.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args, workload_cls = parse_args(argv)
    mm = import_program()
    from workloads import Ops

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = BENCH / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(mm, workdir, args.seed)
        if args.setup_only:
            workload.setup()
            print(time.perf_counter() - T0)
            return 0
        ops = Ops(mm, workload.slowdown)
        if args.trace:
            metrics = spec["per_layer"]
            values = trace_run(args, workload, ops, [m["name"] for m in metrics])
        else:
            metrics = spec["end_to_end"]
            values = measure(args, workload, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    for line in ops.errors:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
