"""Every name the benchmark's tracer wraps, and every run attribute the
benchmark reads, must exist in the package.

bench/tracer.py replaces functions and methods by name when a traced run
starts, and bench/workloads.py compares runs with the traces read back from
disk. A rename or deletion in the package would surface only there, so this
test reads the tracer's lists (without installing anything), resolves each
name, and reads each attribute on a run of every algorithm. The benchmark
also reads and edits trace files as JSON; the last tests replay those
reads and edits on the current trace format.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import matroidmatch
from matroidmatch import algorithms, barchart, cli, submodular, verify
from matroidmatch.algorithms import ALGORITHMS
from matroidmatch.instances import gen_random, save
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    path = BENCH / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("name", TRACER.FUNCTIONS)
def test_traced_function_exists(name):
    modname, attr = name.split(".")
    assert callable(getattr(getattr(matroidmatch, modname), attr))


@pytest.mark.parametrize("clsname", TRACER.BUDGET_CLASSES)
def test_traced_budget_methods_exist(clsname):
    cls = getattr(submodular, clsname)
    assert callable(cls.value_mask)
    assert callable(cls.values_for_masks)


def test_other_traced_names_exist():
    assert callable(submodular.span_mask)
    assert callable(barchart.BarChart.raise_to)
    assert callable(cli.main)


def test_span_has_one_entry_point():
    # the tracer replaces submodular.span_mask wherever the package holds
    # it, so its call counter sees every span only if the callers import
    # that one function rather than reach the budget's own method
    assert algorithms.span_mask is submodular.span_mask
    assert verify.span_mask is submodular.span_mask


def test_verify_never_reaches_chain_values(monkeypatch):
    # the primal split walks its marginal chains by chain_values; the
    # matching check and the charging audit recompute what they check from
    # value_mask, so a closed-form chain that went wrong could not pass them
    # by agreeing with itself
    assert "chain_values" not in Path(verify.__file__).read_text(encoding="utf-8")
    g = GroundSet(8)
    budgets = [Cardinality(g), UniformRank(g, 3),
               PartitionBudget(g, [[0, 1, 2], [3, 4, 5, 6, 7]], [2, 1]),
               PartitionBudget(g, [[0, 1, 2], [3, 4, 5, 6, 7]], [1.5, math.inf]),
               WeightedThreshold(g, [0.5, 1.0, 0.25, 2.0, 0.75, 1.0, 0.5, 0.1], 2.5)]
    runs = [(inst, algorithms.run_mobm_pd(inst))
            for inst in (gen_random(8, 10, 0.5, f, seed=3) for f in budgets)]

    def refuse(self, mask, elements):
        raise AssertionError("verify reached chain_values")
    for cls in {type(f) for f in budgets} | {submodular.SubmodularFn}:
        monkeypatch.setattr(cls, "chain_values", refuse, raising=False)
    for inst, trace in runs:
        assert verify.check_matching(trace.state.x, inst).ok
        assert verify.audit_charging(trace, verify.offline_opt(inst), inst).ok


RUN_ATTRIBUTES = ("algorithm", "instance_name", "n_offline", "rounds",
                  "primal_value", "dual_value")
STATE_ATTRIBUTES = ("y", "z", "x", "matched")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_attributes_the_benchmark_reads(algorithm):
    # workloads._same_trace compares these fields; the tracer's count_bars
    # reads the chart of every waterfilling run
    inst = gen_random(6, 8, 0.5, Cardinality(GroundSet(6)), seed=3)
    trace = algorithms.run_algorithm(algorithm, inst)
    for name in RUN_ATTRIBUTES:
        assert hasattr(trace, name), name
    for name in STATE_ATTRIBUTES:
        assert hasattr(trace.state, name), name
    if algorithm != "greedy-ra":
        assert len(trace.state.chart.intervals) >= 1


# ---------------------------------------------------------------------------
# The benchmark's reads and edits of trace files
# ---------------------------------------------------------------------------

def test_benchmark_potential_corruption_fails_verify(tmp_path, capsys):
    # certify-n20 moves the largest final potential of a mobvc trace by 0.25,
    # writes the file back with plain json.dumps and expects a FAIL from verify
    ipath, tpath, bad = tmp_path / "i.json", tmp_path / "vc.json", tmp_path / "bad.json"
    save(gen_random(8, 10, 0.4, seed=2), ipath)
    assert cli.main(["run", str(ipath), "--algorithm", "mobvc", "--trace", str(tpath)]) == 0
    data = json.loads(tpath.read_text(encoding="utf-8"))
    y = data["final"]["y"]
    u = max(range(len(y)), key=lambda i: y[i])
    y[u] += -0.25 if y[u] >= 0.25 else 0.25
    bad.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", str(bad), "--instance", str(ipath)]) == 1
    assert "FAIL " in capsys.readouterr().out


def test_benchmark_greedy_check_reads_the_final_block(tmp_path):
    # random-arrival-n16 checks a greedy-ra trace from its final x triples
    # and matched_offline; this runs its own check on a fresh trace
    sys.path.insert(0, str(BENCH))  # workloads imports its sibling modules by name
    import reference
    import workloads

    ipath, tpath = tmp_path / "i.json", tmp_path / "greedy.json"
    f = PartitionBudget(GroundSet(16), [range(i, 16, 4) for i in range(4)], [2] * 4)
    save(gen_random(16, 48, 0.3, f, seed=1), ipath)
    assert cli.main(["run", str(ipath), "--algorithm", "greedy-ra", "--model", "permutation",
                     "--model-seed", "1", "--trace", str(tpath)]) == 0
    budget, arrivals = reference.read_instance(ipath)
    data = json.loads(tpath.read_text(encoding="utf-8"))
    assert data["final"]["x"]
    ops = workloads.Ops(None, None)
    workloads.RandomArrivalN16._check_greedy(ops, "partition", data, budget, arrivals)
    assert ops.correct and ops.attempted == 5, ops.errors
    data["final"]["x"].pop()  # the matched set no longer agrees
    workloads.RandomArrivalN16._check_greedy(ops, "partition", data, budget, arrivals)
    assert not ops.correct


# sha256 of the two lines `run --algorithm greedy-ra --trials 400` printed
# when each trial was a full run_random_arrival_greedy; random-arrival-n16
# parses the first. The sparse instance's means move with the draws.
TRIALS_OUTPUT_SHA256 = {
    ("n16", "permutation"): "40c1799eba785295c8c81609e259f09ac2774ef2464f375fd3e9f7d9a562fe2d",
    ("n16", "timestamps"): "40c1799eba785295c8c81609e259f09ac2774ef2464f375fd3e9f7d9a562fe2d",
    ("sparse", "permutation"): "b12c3fd3ce8a6b4a92664d6cba52bd5c44f599a500c4dfa11ba92f6cb9dd549f",
    ("sparse", "timestamps"): "9e53f6b06db7c72a48a2236cf69fc15274ffbf090359f6b3436047677772e38a",
}


@pytest.mark.parametrize("key, model", sorted(TRIALS_OUTPUT_SHA256))
def test_trials_output_is_pinned(tmp_path, capsys, key, model):
    g = GroundSet(16)
    inst = {"n16": gen_random(16, 48, 0.3, UniformRank(g, 8), seed=800),
            "sparse": gen_random(16, 16, 0.1, PartitionBudget(
                g, [range(i, 16, 4) for i in range(4)], [2] * 4), seed=803)}[key]
    path = tmp_path / "i.json"
    save(inst, path)
    capsys.readouterr()
    assert cli.main(["run", str(path), "--algorithm", "greedy-ra", "--model", model,
                     "--model-seed", "1000", "--trials", "400"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == TRIALS_OUTPUT_SHA256[key, model], out
