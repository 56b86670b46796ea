"""Test-only fixtures and reference oracles.

make_suite and make_matroid_suite are the deterministic instance suites the
acceptance criteria and the property tests run over; lovasz_mc is the
Monte-Carlo estimate of the Lovasz extension that criterion 2 checks the
exact lovasz against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from matroidmatch.errors import InputError
from matroidmatch.instances import (
    Instance,
    SplitMix64,
    gen_random,
    gen_upper_triangular,
    random_coverage_table,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    SubmodularFn,
    UniformRank,
    WeightedThreshold,
    _check_potentials,
)


def _random_matroid_fn(n: int, stream: SplitMix64) -> SubmodularFn:
    g = GroundSet(n)
    pick = stream.randint(3)
    if pick == 0 or n == 1:
        return Cardinality(g)
    if pick == 1:
        return UniformRank(g, 1 + stream.randint(n))
    # random partition with caps >= 1 so no element is spanned by the empty set
    k = 1 + stream.randint(min(3, n))
    blocks = [[] for _ in range(k)]
    for u in range(n):
        blocks[stream.randint(k)].append(u)
    blocks = [b for b in blocks if b]
    caps = [1 + stream.randint(2) for _ in blocks]
    return PartitionBudget(g, blocks, caps)


def make_suite(count: int = 200, n_max: int = 12, m_max: int = 12,
               seed: int = 0) -> list[Instance]:
    """Deterministic mixed-family test suite of at least `count` instances.

    Starts with the triangular family, then cycles random graphs through
    all five function families. Explicit tables come from random coverage,
    so every instance is monotone submodular by construction.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    suite = [gen_upper_triangular(n) for n in range(1, min(n_max, 12) + 1)]
    root = SplitMix64(seed ^ 0xC0FFEE)
    i = 0
    while len(suite) < count:
        n = 2 + i % (n_max - 1)
        m = 1 + (i * 5 + 3) % m_max
        p = (0.15, 0.35, 0.55, 0.75, 0.95)[i % 5]
        s = root.next_u64() >> 16
        kind = i % 5
        g = GroundSet(n)
        if kind == 0:
            f = Cardinality(g)
        elif kind == 1:
            f = UniformRank(g, 1 + i % n)
        elif kind == 2:
            f = _random_matroid_fn(n, SplitMix64(s))
        elif kind == 3:
            w_stream = SplitMix64(s ^ 0xBEEF)
            weights = [0.25 + w_stream.random() for _ in range(n)]
            f = WeightedThreshold(g, weights, 1.0 + w_stream.random() * n / 2)
        else:
            f = random_coverage_table(min(n, 8), s)
            n = f.ground.size
        inst = gen_random(n, m, p, f, seed=s, name=None)
        inst.name = f"suite-{len(suite):03d}-{inst.name}"
        suite.append(inst)
        i += 1
    return suite


def make_matroid_suite(count: int = 20, n_max: int = 8, m_max: int = 8,
                       seed: int = 1) -> list[Instance]:
    """Instances whose f is a matroid rank with no rank-zero singletons."""
    if count < 1:
        raise InputError("count must be >= 1")
    suite = []
    root = SplitMix64(seed ^ 0x5EED)
    i = 0
    while len(suite) < count:
        n = 2 + i % (n_max - 1)
        m = 1 + (i * 3 + 1) % m_max
        p = (0.3, 0.5, 0.7, 0.9)[i % 4]
        s = root.next_u64() >> 16
        f = _random_matroid_fn(n, SplitMix64(s))
        inst = gen_random(n, m, p, f, seed=s)
        inst.name = f"matroid-{len(suite):03d}-{inst.name}"
        suite.append(inst)
        i += 1
    return suite



def lovasz_mc(f: SubmodularFn, y: Sequence[float], samples: int = 100_000,
              seed: int = 0) -> float:
    """Monte-Carlo estimate of the Lovasz extension: average f({u : y_u >= t}).

    A threshold t selects one of the n + 1 suffix sets of y sorted
    ascending, so the samples are counted per suffix and each suffix set
    met is evaluated once, as a Python-int mask (any n).
    """
    y = _check_potentials(f.ground, y)
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    n = f.ground.size
    rng = np.random.default_rng(seed)
    t = rng.random(samples)
    order = sorted(range(n), key=lambda u: (y[u], u))
    # {u : y_u >= t} is order[i:] with i the number of potentials below t
    counts = np.bincount(np.searchsorted([y[u] for u in order], t, side="left"),
                         minlength=n + 1)
    total = 0.0
    suffix = 0
    for i in range(n, -1, -1):
        if i < n:
            suffix |= 1 << order[i]
        if counts[i]:
            total += int(counts[i]) * f.value_mask(suffix)
    return total / samples
