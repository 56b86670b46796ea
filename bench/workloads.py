"""The benchmark's three workloads and their output checks.

A workload writes its instance files once (setup), computes its reference
values from those files (prepare), and then repeats passes. A pass is one
execution of the workload's whole job starting from the files on disk, so
the per-object caches of the budget functions start cold in every pass.
Every pass makes the same calls and the same checks.

The workloads reach the program only through the public names of the
matroidmatch package and cli.main(argv), looked up at call time so that a
traced run sees its wrappers. Checks use reference.py, never the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import statistics
import time
from pathlib import Path

import calibrate
import reference
from reference import ALPHA, ONE_MINUS_INV_E

TOL = 1e-9


class CallFailed(Exception):
    """A program call raised or exited with an unexpected code."""


class Ops:
    """Per-run bookkeeping: operations attempted and failed, whether every
    check held, the time of each program call and the bytes of the trace
    files the current pass wrote.

    Each program call runs between two calls of `slowdown` (one of the
    calibrations of calibrate.py); its time over their mean is the call's
    scaled time. pass_s is the sum over the calls of a pass of each call's
    median scaled time over the run's passes."""

    def __init__(self, mm, slowdown):
        self.mm = mm
        self.slowdown = slowdown
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.wall_s: list[float] = []  # program time of each pass, unscaled
        self.scaled: list[dict] = []  # per pass: (label, occurrence) -> scaled time
        self.trace_bytes = 0
        self.errors: list[str] = []

    def begin_pass(self):
        self.wall_s.append(0.0)
        self.scaled.append({})
        self._seen: dict[str, int] = {}
        self.trace_bytes = 0

    def pass_s(self) -> float:
        keys = set().union(*self.scaled)
        return sum(statistics.median(p[k] for p in self.scaled if k in p) for k in keys)

    def _timed(self, label: str, thunk):
        k = self._seen[label] = self._seen.get(label, 0) + 1
        before = self.slowdown()
        t0 = time.perf_counter()
        try:
            return thunk()
        finally:
            dt = time.perf_counter() - t0
            after = self.slowdown()
            self.wall_s[-1] += dt
            self.scaled[-1][(label, k)] = 2.0 * dt / (before + after)

    def _fail(self, label: str, detail: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {detail}")

    def call(self, label: str, fn, *args, **kwargs):
        """One timed library call; a raise is a failed operation."""
        self.attempted += 1
        try:
            return self._timed(label, lambda: fn(*args, **kwargs))
        except Exception as exc:  # any raise is a failed operation, reported below
            self._fail(label, repr(exc))
            raise CallFailed(label) from exc

    def cli(self, argv: list, expect: int = 0) -> str:
        """One timed in-process CLI call; returns its standard output."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()

        def main():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.mm.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                return exc.code

        self.attempted += 1
        rc = self._timed(argv[0], main)
        if rc != expect:
            self._fail(" ".join(argv[:2]), f"exit {rc}, expected {expect}: "
                       f"{err.getvalue().strip()[:300]}")
            raise CallFailed(argv[0])
        return out.getvalue()

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.correct = False
            self._fail(label, detail or "check failed")
        return ok

    def written(self, path: Path):
        self.trace_bytes += path.stat().st_size


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _run_line(out: str) -> dict:
    """The CSV line of `run`: algorithm,instance,primal,dual,offline_opt,ratio."""
    _, _, primal, dual, opt, ratio = out.splitlines()[0].split(",")
    return {"primal": float(primal), "dual": float(dual), "opt": float(opt),
            "ratio": float(ratio)}


def _all_pass(out: str) -> bool:
    lines = out.splitlines()
    return bool(lines) and all(line.startswith("PASS ") for line in lines)


def _check_ratio(ops: Ops, label: str, cover: bool, value: float, opt: float,
                 printed: float | None = None):
    ratio = value / opt if opt else 1.0
    if cover:
        ops.check(f"{label} cost <= (1+alpha) opt", ratio <= 1.0 + ALPHA + TOL,
                  f"ratio {ratio}")
    else:
        ops.check(f"{label} value >= (1-1/e) opt", ratio >= ONE_MINUS_INV_E - TOL,
                  f"ratio {ratio}")
    if printed is not None:
        ops.check(f"{label} printed ratio", _close(printed, ratio, TOL),
                  f"printed {printed}, reference {ratio}")


def _blocks(rng: random.Random, n: int, k: int) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [sorted(perm[i::k]) for i in range(k)]


class Workload:
    name = ""
    slowdown = staticmethod(calibrate.python_slowdown)

    def __init__(self, mm, workdir: Path, seed: int):
        self.mm = mm
        self.dir = workdir
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def instance_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def families(self, g) -> dict:
        """Instance key -> budget function on the ground set g."""
        raise NotImplementedError

    def setup(self):
        """Generate and write the instance files: G(N, M, P) per family."""
        fams = self.families(self.mm.GroundSet(self.N))
        for i, (key, f) in enumerate(fams.items()):
            inst = self.mm.gen_random(self.N, self.M, self.P, f, seed=100 * self.seed + i)
            self.mm.save(inst, self.instance_path(key))
        self.keys = list(fams)

    def prepare(self):
        raise NotImplementedError

    def run_pass(self, ops: Ops):
        raise NotImplementedError


class OnlineN200(Workload):
    """The waterfilling runs at n=200, m=400 under the four closed-form families."""

    name = "online-n200"
    N, M, P = 200, 400, 0.3
    RUNS = {"cardinality": ("obvc", "mobvc", "mobm-pd")}
    DEFAULT_RUNS = ("mobvc", "mobm-pd")
    RUN_FN = {"obvc": "run_obvc", "mobvc": "run_mobvc", "mobm-pd": "run_mobm_pd"}

    def families(self, g) -> dict:
        mm, n = self.mm, self.N
        return {
            "cardinality": mm.Cardinality(g),
            "uniform": mm.UniformRank(g, 60),
            "partition": mm.PartitionBudget(g, _blocks(self.rng, n, 10), [6.0] * 10),
            "weighted": mm.WeightedThreshold(
                g, [0.25 + self.rng.random() for _ in range(n)], 50.0),
        }

    def prepare(self):
        self.refs = {}
        for key in self.keys:
            budget, arrivals = reference.read_instance(self.instance_path(key))
            nbrs = {v: set(us) for v, us in arrivals}
            edges = [(u, v) for v, us in arrivals for u in us]
            self.refs[key] = (budget, nbrs, edges)

    def run_pass(self, ops: Ops):
        mm = self.mm
        for key, (budget, nbrs, edges) in self.refs.items():
            try:
                inst = ops.call("instances.load", mm.load, self.instance_path(key))
                traces = {}
                for alg in self.RUNS.get(key, self.DEFAULT_RUNS):
                    trace = ops.call(alg, getattr(mm, self.RUN_FN[alg]), inst)
                    path = self.dir / f"{key}-{alg}.trace.json"
                    ops.call("save_trace", mm.save_trace, trace, path)
                    ops.written(path)
                    back = ops.call("load_trace", mm.load_trace, path)
                    label = f"{key} {alg}"
                    ops.check(f"{label} trace read back", _same_trace(trace, back))
                    self._check_cover(ops, label, trace, budget, edges)
                    if alg == "mobm-pd":
                        self._check_matching(ops, label, trace, budget, nbrs)
                    traces[alg] = trace
                if "obvc" in traces:
                    self._check_twins(ops, traces["obvc"], traces["mobvc"])
            except CallFailed:
                continue

    @staticmethod
    def _check_cover(ops, label, trace, budget, edges):
        y, z = trace.state.y, trace.state.z
        worst = min((y[u] + z.get(v, 0.0) for u, v in edges), default=1.0)
        ops.check(f"{label} y_u + z_v >= 1", worst >= 1.0 - TOL, f"min {worst}")
        dual = budget.lovasz(y) + sum(z.values())
        ops.check(f"{label} dual = lovasz(y) + sum z", _close(dual, trace.dual_value, TOL),
                  f"reference {dual}, trace {trace.dual_value}")

    @staticmethod
    def _check_matching(ops, label, trace, budget, nbrs):
        x = trace.state.x
        ops.check(f"{label} x on edges", all(u in nbrs.get(v, ()) for u, v in x))
        online: dict[int, float] = {}
        x_u = [0.0] * budget.n
        for (u, v), val in x.items():
            online[v] = online.get(v, 0.0) + val
            x_u[u] += val
        worst = max(online.values(), default=0.0)
        ops.check(f"{label} online mass <= 1", worst <= 1.0 + TOL, f"max {worst}")
        bad = budget.polytope_violation(x_u, TOL)
        ops.check(f"{label} x in budget polytope", bad is None, bad or "")
        primal = sum(x.values())
        ops.check(f"{label} primal = sum x", _close(primal, trace.primal_value, TOL),
                  f"sum {primal}, trace {trace.primal_value}")
        ops.check(f"{label} dual = (1+alpha) primal",
                  _close(trace.dual_value, (1.0 + ALPHA) * trace.primal_value, TOL),
                  f"dual {trace.dual_value}, primal {trace.primal_value}")

    @staticmethod
    def _check_twins(ops, a, b):
        gap = max(max(abs(p - q) for p, q in zip(a.state.y, b.state.y)),
                  max(abs(a.state.z[v] - b.state.z[v]) for v in a.state.z),
                  abs(a.dual_value - b.dual_value) / max(1.0, abs(a.dual_value)))
        ops.check("obvc = mobvc on cardinality",
                  gap <= 1e-12 and a.state.z.keys() == b.state.z.keys(), f"gap {gap}")


def _same_trace(a, b) -> bool:
    return (a.algorithm == b.algorithm and a.instance_name == b.instance_name
            and a.n_offline == b.n_offline and a.rounds == b.rounds
            and a.state.y == b.state.y and a.state.z == b.state.z
            and a.state.x == b.state.x and a.state.matched == b.state.matched
            and a.primal_value == b.primal_value and a.dual_value == b.dual_value)


class CertifyN20(Workload):
    """The verification side at n=20 through cli.main, plus one sweep."""

    name = "certify-n20"
    # Nearly all of a pass is numpy over the 2^20 subsets in offline_opt and
    # check_matching, whose speed follows memory bandwidth, not the interpreter.
    slowdown = staticmethod(calibrate.numpy_slowdown)
    N, M, P = 20, 60, 0.25
    SWEEP_N, SWEEP_M, SWEEP_P, SWEEP_SEEDS = 16, 24, 0.3, 20

    def families(self, g) -> dict:
        mm, n = self.mm, self.N
        return {
            "cardinality": mm.Cardinality(g),
            "partition": mm.PartitionBudget(g, _blocks(self.rng, n, 4), [2.0, 2.0, 3.0, 3.0]),
            "weighted": mm.WeightedThreshold(
                g, [0.25 + self.rng.random() for _ in range(n)], 5.0),
        }

    def prepare(self):
        self.opt = {}
        for key in self.keys:
            budget, arrivals = reference.read_instance(self.instance_path(key))
            self.opt[key] = budget.opt(arrivals)
        first = self.SWEEP_SEEDS * self.seed
        self.sweep_seeds = list(range(first, first + self.SWEEP_SEEDS))
        card = reference.Budget.from_spec({"family": "cardinality"}, self.SWEEP_N)
        self.sweep_opt = {s: card.opt(reference.random_graph(
            self.SWEEP_N, self.SWEEP_M, self.SWEEP_P, s)) for s in self.sweep_seeds}

    def run_pass(self, ops: Ops):
        for key, opt in self.opt.items():
            try:
                self._certify(ops, key, opt)
            except CallFailed:
                continue
        try:
            self._sweep(ops)
        except CallFailed:
            pass

    def _certify(self, ops: Ops, key: str, opt: float):
        inst = self.instance_path(key)
        pd, vc = self.dir / f"{key}-pd.trace.json", self.dir / f"{key}-vc.trace.json"
        for alg, path in (("mobm-pd", pd), ("mobvc", vc)):
            line = _run_line(ops.cli(["run", inst, "--algorithm", alg, "--trace", path]))
            ops.written(path)
            ops.check(f"{key} {alg} offline_opt = max flow", _close(line["opt"], opt, TOL),
                      f"printed {line['opt']}, max flow {opt}")
            cover = alg == "mobvc"
            _check_ratio(ops, f"{key} {alg}", cover,
                         line["dual"] if cover else line["primal"], opt, line["ratio"])
        for path in (pd, vc):
            out = ops.cli(["verify", path, "--instance", inst])
            ops.check(f"{key} verify {path.name} all PASS", _all_pass(out), out)
        out = ops.cli(["audit", vc, "--instance", inst])
        ops.check(f"{key} audit all PASS", _all_pass(out), out)

        bad = self.dir / f"{key}-corrupt.trace.json"
        data = json.loads(vc.read_text(encoding="utf-8"))
        y = data["final"]["y"]
        u = max(range(len(y)), key=lambda i: y[i])
        y[u] += -0.25 if y[u] >= 0.25 else 0.25
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = ops.cli(["verify", bad, "--instance", inst], expect=1)
        ops.check(f"{key} corrupted potential reported", "FAIL " in out, out)

    def _sweep(self, ops: Ops):
        out_path = self.dir / "sweep.csv"
        seeds = self.sweep_seeds
        ops.cli(["sweep", "--n", self.SWEEP_N, "--m", self.SWEEP_M, "--p", self.SWEEP_P,
                 "--seeds", f"{seeds[0]}-{seeds[-1]}", "--algorithms", "obvc,mobvc,mobm-pd",
                 "--repro", "--out", out_path])
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ops.check("sweep rows", len(rows) == 3 * len(seeds)
                  and sorted({int(r["seed"]) for r in rows}) == seeds, f"{len(rows)} rows")
        for r in rows:
            opt = self.sweep_opt.get(int(r["seed"]), float("nan"))
            label = f"sweep seed {r['seed']} {r['algorithm']}"
            ops.check(f"{label} opt = max flow", _close(float(r["opt"]), opt, TOL),
                      f"printed {r['opt']}, max flow {opt}")
            cover = r["algorithm"] in ("obvc", "mobvc")
            _check_ratio(ops, label, cover, float(r["dual"] if cover else r["primal"]), opt,
                         float(r["ratio"]))


class RandomArrivalN16(Workload):
    """The random-arrival greedy and its lemma audit on two matroids at n=16."""

    name = "random-arrival-n16"
    N, M, P = 16, 48, 0.3
    TRIALS, LEMMA_TRIALS = 400, 200

    def families(self, g) -> dict:
        return {
            "uniform": self.mm.UniformRank(g, 8),
            "partition": self.mm.PartitionBudget(g, _blocks(self.rng, self.N, 4), [2, 2, 2, 2]),
        }

    def prepare(self):
        self.refs = {}
        for key in self.keys:
            budget, arrivals = reference.read_instance(self.instance_path(key))
            self.refs[key] = (budget, arrivals, budget.opt(arrivals))

    def run_pass(self, ops: Ops):
        for key, ref in self.refs.items():
            try:
                self._instance(ops, key, *ref)
            except CallFailed:
                continue

    def _instance(self, ops: Ops, key: str, budget, arrivals, opt: float):
        mm, inst = self.mm, self.instance_path(key)
        out = ops.cli(["run", inst, "--algorithm", "greedy-ra", "--model", "timestamps",
                       "--model-seed", 1000 * self.seed, "--trials", self.TRIALS])
        line = _run_line(out)
        ops.check(f"{key} trials offline_opt = max flow", _close(line["opt"], opt, TOL),
                  f"printed {line['opt']}, max flow {opt}")
        _check_ratio(ops, f"{key} mean of {self.TRIALS} trials", False, line["primal"], opt)

        path = self.dir / f"{key}-greedy.trace.json"
        line = _run_line(ops.cli(["run", inst, "--algorithm", "greedy-ra", "--model",
                                  "permutation", "--model-seed", self.seed, "--trace", path]))
        ops.written(path)
        ops.check(f"{key} permutation offline_opt = max flow", _close(line["opt"], opt, TOL),
                  f"printed {line['opt']}, max flow {opt}")
        self._check_greedy(ops, key, json.loads(path.read_text(encoding="utf-8")),
                           budget, arrivals)
        out = ops.cli(["verify", path, "--instance", inst])
        ops.check(f"{key} verify greedy all PASS", _all_pass(out), out)

        loaded = ops.call("instances.load", mm.load, inst)
        report = ops.call("verify_random_arrival_lemmas", mm.verify_random_arrival_lemmas,
                          loaded, trials=self.LEMMA_TRIALS, seed=self.seed)
        # Dominance and monotonicity hold on every draw. The per-edge
        # feasibility test (mean >= 1 - 3 stderr on each of ~230 edges) is
        # statistical and false-alarms on some seeds at 200 trials, so it is
        # not checked here.
        ops.check(f"{key} dominance and monotonicity lemmas",
                  report.dominance_violations == 0 and report.monotonicity_ok,
                  f"{report.dominance_violations} dominance violations, "
                  f"monotonicity slack {report.monotonicity_min_slack}")

    @staticmethod
    def _check_greedy(ops: Ops, key: str, trace: dict, budget, arrivals):
        final = trace["final"]
        pairs = [(u, v) for u, v, _ in final["x"]]
        nbrs = dict(arrivals)
        ops.check(f"{key} greedy x on edges with value 1",
                  all(u in nbrs.get(v, ()) and val == 1.0 for u, v, val in final["x"]))
        offline = [u for u, _ in pairs]
        online = [v for _, v in pairs]
        ops.check(f"{key} greedy uses each vertex once",
                  len(set(offline)) == len(offline) and len(set(online)) == len(online))
        ops.check(f"{key} greedy matched set", sorted(offline) == final["matched_offline"])
        rank = budget.value(offline)
        ops.check(f"{key} greedy matched set independent", rank == len(offline),
                  f"rank {rank} of {len(offline)} elements")
        unspanned = [(u, v) for v, us in arrivals if v not in set(online) for u in us
                     if budget.value(offline + [u]) > rank]
        ops.check(f"{key} greedy maximal", not unspanned,
                  f"unmatched arrival has neighbour outside the span: {unspanned[:3]}")


WORKLOADS = {w.name: w for w in (OnlineN200, CertifyN20, RandomArrivalN16)}
