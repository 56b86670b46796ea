"""Tests of the benchmark's reference computations against brute-force
enumeration at small n.

Run from the repository root: python3 -m pytest -q bench/test_reference.py
"""

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import Budget, random_graph  # noqa: E402


def _definition(spec: dict, n: int, S) -> float:
    """f(S) straight from each family's definition."""
    S = set(S)
    family = spec["family"]
    if family == "cardinality":
        return float(len(S))
    if family == "uniform_rank":
        return float(min(len(S), spec["k"]))
    if family == "partition_budget":
        return float(sum(min(len(S & set(b)), c) for b, c in zip(spec["blocks"], spec["caps"])))
    return min(sum(spec["weights"][u] for u in S), spec["cap"])


def _specs(n: int, rng: random.Random) -> list[dict]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        {"family": "cardinality"},
        {"family": "uniform_rank", "k": rng.randint(1, n)},
        {"family": "partition_budget", "blocks": [perm[0::3], perm[1::3], perm[2::3]],
         "caps": [float(rng.randint(1, 3)), 1.5, float(rng.randint(0, 2))]},
        {"family": "weighted_threshold", "weights": [0.25 + rng.random() for _ in range(n)],
         "cap": 0.5 + rng.random() * n / 2},
    ]


def _subsets(n: int):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


CASES = [(n, seed) for n in (3, 5, 7) for seed in range(4)]


@pytest.mark.parametrize("n,seed", CASES)
def test_value_matches_definition(n, seed):
    for spec in _specs(n, random.Random(seed)):
        budget = Budget.from_spec(spec, n)
        for S in _subsets(n):
            assert math.isclose(budget.value(S), _definition(spec, n, S), abs_tol=1e-12)


@pytest.mark.parametrize("n,seed", CASES)
def test_lovasz_is_threshold_integral(n, seed):
    """E_t f({u : y_u >= t}), integrated exactly over the breakpoints."""
    rng = random.Random(seed)
    for spec in _specs(n, rng):
        budget = Budget.from_spec(spec, n)
        for _ in range(5):
            y = [rng.choice([0.0, 1.0, rng.random(), 0.5]) for _ in range(n)]
            points = sorted({0.0, 1.0, *y})
            want = sum((hi - lo) * _definition(spec, n, [u for u in range(n) if y[u] >= hi])
                       for lo, hi in zip(points, points[1:]))
            assert math.isclose(budget.lovasz(y), want, abs_tol=1e-12)


@pytest.mark.parametrize("n,seed", CASES)
def test_polytope_matches_all_subsets(n, seed):
    rng = random.Random(seed)
    for spec in _specs(n, rng):
        budget = Budget.from_spec(spec, n)
        for _ in range(40):
            scale = rng.choice([0.2, 0.5, 1.0, 1.5])
            x_u = [scale * rng.random() for _ in range(n)]
            brute = all(sum(x_u[u] for u in S) <= _definition(spec, n, S) + 1e-9
                        for S in _subsets(n))
            assert (budget.polytope_violation(x_u, 1e-9) is None) == brute


def test_polytope_rejects_negative_mass():
    budget = Budget.from_spec({"family": "cardinality"}, 2)
    assert budget.polytope_violation([0.5, -0.1], 1e-9) is not None


@pytest.mark.parametrize("n,seed", CASES)
def test_max_flow_equals_min_cover(n, seed):
    """Max flow = min over S of f(S) + |{v : N(v) not within S}|."""
    rng = random.Random(seed)
    for spec in _specs(n, rng):
        budget = Budget.from_spec(spec, n)
        for p in (0.2, 0.5, 0.8):
            arrivals = [(j, tuple(u for u in range(n) if rng.random() < p))
                        for j in range(rng.randint(1, 8))]
            best = min(_definition(spec, n, S)
                       + sum(1 for _, nbrs in arrivals if not set(nbrs) <= set(S))
                       for S in _subsets(n))
            assert math.isclose(budget.opt(arrivals), best, abs_tol=1e-9)


def test_random_graph_is_the_programs_generator():
    root = Path(__file__).resolve().parent.parent / "src"
    if not (root / "matroidmatch").is_dir():
        pytest.skip("program sources not present")
    sys.path.insert(0, str(root))
    from matroidmatch import gen_random

    for n, m, p, seed in ((16, 24, 0.3, 1), (20, 60, 0.25, 12345), (5, 3, 1.0, 2 ** 40)):
        inst = gen_random(n, m, p, seed=seed)
        assert random_graph(n, m, p, seed) == [(a.id, a.nbrs) for a in inst.arrivals]
