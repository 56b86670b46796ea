"""Test-only fixtures and reference oracles.

SplitMix64 is the one-draw-at-a-time generator that the package's blocked
streams (instances._streams, _uniforms) are tested against; make_suite and
make_matroid_suite are the deterministic instance suites the acceptance
criteria and the property tests run over; lovasz_mc is the
Monte-Carlo estimate of the Lovasz extension that criterion 2 checks the
exact lovasz against; ref_random_arrival_lemmas is the per-edge loop the
blocked random-arrival audit is checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from matroidmatch.algorithms import _greedy_core, _greedy_duals, dual_split_rate
from matroidmatch.constants import ALPHA, DEFAULT_TOL
from matroidmatch.errors import InputError
from matroidmatch.instances import (
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    Instance,
    by_timestamp,
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
    is_matroid_rank,
)
from matroidmatch.verify import (
    EdgeFeasibility,
    RandomArrivalReport,
    critical_value,
)


class SplitMix64:
    """Tiny portable PRNG; split(key) derives an independent child stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        # rejection-free modulo is fine at desk scale
        return self.next_u64() % n

    def split(self, key: int) -> "SplitMix64":
        child = SplitMix64((self.state ^ (key * _GOLDEN)) & _MASK64)
        return SplitMix64(child.next_u64())


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
        inst = gen_random(n, m, p, f, seed=s)
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


def ref_random_arrival_lemmas(instance: Instance, trials: int = 1000,
                              seed: int = 0, tol: float = DEFAULT_TOL) -> RandomArrivalReport:
    """verify_random_arrival_lemmas as a per-trial, per-edge loop: the
    reference the blocked audit must equal to the bit. Its one change is
    that each arrival's critical times come from critical_value, an
    independent rerun without the arrival, not from critical_times."""
    f = instance.f
    if not is_matroid_rank(f):
        raise InputError("random-arrival lemmas require a matroid rank budget")
    if trials < 2:
        raise InputError("need at least 2 trials")
    n, m = instance.n_offline, instance.m_online
    edges = [(u, arr.id) for arr in instance.arrivals for u in arr.nbrs]
    live_edges = [(u, vid) for u, vid in edges if f.value_mask(1 << u) >= 0.5]
    skipped = len(edges) - len(live_edges)

    rng = np.random.default_rng(seed)
    draws = rng.random((trials, m)).tolist()
    ids = [arr.id for arr in instance.arrivals]
    # live edges grouped by arrival, in live_edges order
    live_nbrs: dict[int, list[int]] = {}
    for u, vid in live_edges:
        live_nbrs.setdefault(vid, []).append(u)

    value_sum = 0.0
    dom_checked = 0
    dom_violations = 0
    mono_min_slack = math.inf
    samples = np.empty((trials, len(live_edges)), dtype=np.float64)

    for k, stamps in enumerate(draws):
        ts = dict(zip(ids, stamps))
        ordered = by_timestamp(instance.arrivals, ts)
        steps = _greedy_core(f, instance.masks, ordered)
        y, z = _greedy_duals(steps, n)
        value_sum += len(z)
        tcrit = {vid: critical_value(instance, vid, ts) for vid in ids}
        bounds: dict[float, float] = {}  # tc takes at most m + 1 values in a trial
        row = []
        for vid, us in live_nbrs.items():
            crit, tv, zv, matched = tcrit[vid], ts[vid], z.get(vid, 0.0), vid in z
            for u in us:
                tc = crit.get(u, 1.0)
                if tv < tc:
                    dom_checked += 1
                    if not matched:
                        dom_violations += 1
                bound = bounds.get(tc)
                if bound is None:
                    bound = bounds[tc] = (1.0 + ALPHA) * (1.0 - dual_split_rate(tc))
                slack = y[u] - bound
                if slack < mono_min_slack:
                    mono_min_slack = slack
                row.append(y[u] + zv)
        samples[k] = row

    edge_reports = []
    feas_ok = True
    if live_edges:
        means = samples.mean(axis=0)
        stderrs = np.sqrt(samples.var(axis=0) / trials)
        for j, (u, vid) in enumerate(live_edges):
            ok = means[j] >= 1.0 - 3.0 * stderrs[j] - tol
            feas_ok = feas_ok and bool(ok)
            edge_reports.append(EdgeFeasibility(u, vid, float(means[j]),
                                                float(stderrs[j]), bool(ok)))

    if math.isinf(mono_min_slack):
        mono_min_slack = 0.0
    return RandomArrivalReport(
        trials=trials,
        mean_value=value_sum / trials,
        dominance_checked=dom_checked,
        dominance_violations=dom_violations,
        monotonicity_min_slack=mono_min_slack,
        monotonicity_ok=mono_min_slack >= -tol,
        edges=edge_reports,
        feasibility_ok=feas_ok,
        skipped_rank_zero_edges=skipped,
    )
