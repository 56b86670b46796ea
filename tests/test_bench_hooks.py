"""Every name the benchmark's tracer wraps, and every run attribute the
benchmark reads, must exist in the package.

bench/tracer.py replaces functions and methods by name when a traced run
starts, and bench/workloads.py compares runs with the traces read back from
disk. A rename or deletion in the package would surface only there, so this
test reads the tracer's lists (without installing anything), resolves each
name, and reads each attribute on a run of every algorithm.
"""

import importlib.util
from pathlib import Path

import pytest

import matroidmatch
from matroidmatch import algorithms, barchart, cli, submodular, verify
from matroidmatch.algorithms import ALGORITHMS
from matroidmatch.instances import gen_random
from matroidmatch.submodular import Cardinality, GroundSet


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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


RUN_ATTRIBUTES = ("algorithm", "instance_name", "n_offline", "rounds",
                  "primal_value", "dual_value")
STATE_ATTRIBUTES = ("y", "z", "x", "matched")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_attributes_the_benchmark_reads(algorithm):
    # workloads._same_trace compares these fields; the tracer's count_bars
    # reads the chart of every waterfilling run
    inst = gen_random(6, 8, 0.5, Cardinality(GroundSet(6)), seed=3)
    trace = cli._run_algorithm(algorithm, inst)
    for name in RUN_ATTRIBUTES:
        assert hasattr(trace, name), name
    for name in STATE_ATTRIBUTES:
        assert hasattr(trace.state, name), name
    if algorithm != "greedy-ra":
        assert len(trace.state.chart.intervals) >= 1
