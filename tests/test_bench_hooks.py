"""Every name the benchmark's tracer wraps must exist in the package.

bench/tracer.py replaces functions and methods by name when a traced run
starts. A rename or deletion in the package would surface only there, so
this test reads its lists (without installing anything) and resolves each
name.
"""

import importlib.util
from pathlib import Path

import pytest

import matroidmatch
from matroidmatch import barchart, cli, submodular


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
