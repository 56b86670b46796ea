"""The water-level hot path against the full scan it replaced.

water_level starts its scan at the first bar that misses a neighbor and
calls the budget oracle only on bars that miss one; the chart snaps by
bisection. The reference functions below are the earlier full scan, the
linear snaps and the linear raise (which returns each region with its
bar's pre-raise mask, as raise_to does), kept as test oracles: every
result must be equal to the bit, and the oracle-call counts are pinned so
that a return to the full scan fails here.
"""

import copy
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch.algorithms import (
    _sup_below,
    run_mobm_pd,
    run_mobvc,
    run_obvc,
    save_trace,
    water_level,
)
from matroidmatch.barchart import BarChart, Interval, NewRegion, snap
from matroidmatch.constants import ALPHA, SNAP_EPS
from matroidmatch.instances import (
    Instance,
    gen_random,
    gen_upper_triangular,
    random_coverage_table,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    as_mask,
    mask_members,
)

from helpers import SplitMix64

FAMILIES = ("cardinality", "uniform", "partition", "weighted", "table")


# ---------------------------------------------------------------------------
# Reference: the full scan, the linear snaps and the linear raise
# ---------------------------------------------------------------------------

def ref_snap_to(bounds, a):
    for b in bounds:
        if abs(a - b) <= SNAP_EPS:
            return b
    return a


def ref_chart_snap(chart, a):
    for iv in chart.intervals:
        if abs(a - iv.lo) <= SNAP_EPS:
            return iv.lo
    if abs(a - 1.0) <= SNAP_EPS:
        return 1.0
    return a


def ref_profile(chart, nbrs):
    """h at every chart bound, evaluating every bar."""
    f = chart.f
    nmask = 0
    for u in nbrs:
        nmask |= 1 << f.ground.check_element(u)
    bounds = [chart.intervals[0].lo]
    hvals = [1.0]
    g_acc = 0.0
    for iv in chart.intervals:
        gain = f.value_mask(iv.mask | nmask) - iv.height
        g_acc += iv.width * gain
        bounds.append(iv.hi)
        hvals.append(1.0 - iv.hi + g_acc)
    return bounds, hvals


def ref_water_level(chart, nbrs):
    bounds, hvals = ref_profile(chart, nbrs)
    return ref_snap_to(bounds, _sup_below(bounds, hvals, 1.0 + ALPHA))


def ref_raise_to(chart, X, a):
    X = {chart.f.ground.check_element(u) for u in X}
    assert all(chart._levels[u] < ref_chart_snap(chart, a) for u in X)
    if not X:
        return []
    a = ref_chart_snap(chart, a)
    for i, iv in enumerate(chart.intervals):
        if iv.lo < a < iv.hi:
            left = Interval(iv.lo, a, iv.mask, iv.height)
            iv.lo = a
            chart.intervals.insert(i, left)
            break
    regions = []
    xmask = 0
    for u in X:
        xmask |= 1 << u
    for iv in chart.intervals:
        if iv.hi > a:
            break
        if not xmask & ~iv.mask:
            continue
        base, old_height = iv.mask, iv.height
        iv.mask |= xmask
        iv.height = chart.f.value_mask(iv.mask)
        if iv.height - old_height > 0.0:
            regions.append((NewRegion(iv.lo, iv.hi, old_height, iv.height), base))
    for u in X:
        chart._levels[u] = a
    return regions


def chart_state(chart):
    return [(iv.lo, iv.hi, iv.mask, iv.height) for iv in chart.intervals], chart.levels


class Scaled:
    """Delegates to a budget, with every value multiplied by c > 0."""

    def __init__(self, inner, c):
        self.inner = inner
        self.c = c

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value_mask(self, mask):
        return self.c * self.inner.value_mask(mask)


def scaled_chart(chart, c):
    """A copy of chart whose budget is c times the chart's."""
    twin = copy.deepcopy(chart)
    twin.f = Scaled(chart.f, c)
    for iv in twin.intervals:
        iv.height = twin.f.value_mask(iv.mask)
    return twin


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def _around(b):
    """Points at and around b: one ulp away, exactly SNAP_EPS away and one
    ulp either side of that, and half of SNAP_EPS away."""
    out = [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    for edge in (b - SNAP_EPS, b + SNAP_EPS):
        out += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    return out + [b - SNAP_EPS / 2, b + SNAP_EPS / 2]


def _offsets(b):
    """The points of _around(b) that are levels, in [0, 1]."""
    return [x for x in _around(b) if 0.0 <= x <= 1.0]


_BASES = (0.25, 1 / 3, 0.5, 0.7, 1.0)
_NEAR = sorted({x for b in _BASES for x in _offsets(b)} | {0.0, SNAP_EPS, SNAP_EPS / 2})

# Drawn from a small pool, so ties, near-ties and bounds closer together
# than SNAP_EPS are common; plus arbitrary levels.
levels = st.sampled_from(_NEAR) | st.floats(0.0, 1.0)


@st.composite
def budgets(draw, n, family):
    g = GroundSet(n)
    if family == "cardinality":
        return Cardinality(g)
    if family == "uniform":
        return UniformRank(g, draw(st.integers(0, n)))
    if family == "partition":
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [b for b in ([u for u in range(n) if ids[u] == k] for k in range(3)) if b]
        caps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                             min_size=len(blocks), max_size=len(blocks)))
        return PartitionBudget(g, blocks, caps)
    if family == "weighted":
        weights = draw(st.lists(st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.5]) | st.floats(0, 2),
                                min_size=n, max_size=n))
        return WeightedThreshold(g, weights, draw(st.floats(0, 3)))
    return random_coverage_table(n, draw(st.integers(0, 1 << 16)))


@st.composite
def charts(draw):
    """A chart from drawn potentials, then a few drawn raises, applied to
    the chart and, through the reference raise, to a copy of it."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 7))
    f = draw(budgets(n, family))
    chart = BarChart.from_potentials(f, draw(st.lists(levels, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(levels)
        X = [u for u in draw(st.sets(st.integers(0, n - 1)))
             if chart.levels[u] < chart.snap(a)]
        twin = copy.deepcopy(chart)
        assert chart.raise_to(X, sum(1 << u for u in X), a) == ref_raise_to(twin, X, a)
        assert chart_state(chart) == chart_state(twin)
    return chart


# ---------------------------------------------------------------------------
# Bit-identity with the reference
# ---------------------------------------------------------------------------

class TestMatchesFullScan:
    @settings(max_examples=400, deadline=None)
    @given(chart=charts(), data=st.data())
    def test_water_level(self, chart, data):
        n = chart.f.ground.size
        nbrs = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
        nmask = as_mask(chart.f.ground, nbrs)
        assert water_level(chart, nmask) == ref_water_level(chart, nbrs)

    @settings(max_examples=400, deadline=None)
    @given(chart=charts(), data=st.data())
    def test_water_level_landing_near_a_bound(self, chart, data):
        # the budget is scaled so that h crosses 1 + ALPHA at, or ulps or
        # about SNAP_EPS away from, a chart bound b: h(b) = 1 - b + gain(b),
        # and scaling the budget by c scales the gain by c
        f = chart.f
        n = f.ground.size
        nbrs = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        nmask = sum(1 << u for u in nbrs)
        gains, gain = [], 0.0
        for iv in chart.intervals:
            gain += iv.width * (f.value_mask(iv.mask | nmask) - iv.height)
            if gain > 1e-6:  # a smaller gain needs a scale too large to land
                gains.append((iv.hi, gain))
        b, gain = data.draw(st.sampled_from(gains or [(0.0, ALPHA)]))
        c = data.draw(st.sampled_from(_around(ALPHA + b))) / gain
        chart = scaled_chart(chart, c)
        nmask = as_mask(chart.f.ground, nbrs)
        assert water_level(chart, nmask) == ref_water_level(chart, nbrs)

    @settings(max_examples=400, deadline=None)
    @given(bounds=st.sets(levels, min_size=1, max_size=8), data=st.data())
    def test_snap(self, bounds, data):
        bounds = sorted(bounds)
        a = data.draw(st.sampled_from(_offsets(data.draw(st.sampled_from(bounds))))
                      | levels)
        assert snap(bounds, a) == ref_snap_to(bounds, a)

    @settings(max_examples=400, deadline=None)
    @given(chart=charts(), data=st.data())
    def test_raised_mask_is_X(self, chart, data):
        # a round raises X = {u in N(v) : y_u < a} and passes raise_to its
        # mask, the neighbours missing from the first bar with hi >= a; at
        # a drawn level and at every chart bound, 0 included
        n = chart.f.ground.size
        nbrs = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
        nmask = as_mask(chart.f.ground, nbrs)
        bounds = [chart.intervals[0].lo] + [iv.hi for iv in chart.intervals]
        a = data.draw(st.sampled_from(_offsets(data.draw(st.sampled_from(bounds)))) | levels)
        y = chart.levels
        for level in [a, *bounds]:
            X = tuple(u for u in nbrs if y[u] < level)
            assert mask_members(nmask & ~chart.at_or_above(level)) == X

    @settings(max_examples=400, deadline=None)
    @given(chart=charts(), data=st.data())
    def test_chart_snap(self, chart, data):
        bound = data.draw(st.sampled_from([chart.intervals[0].lo]
                                          + [iv.hi for iv in chart.intervals]))
        a = data.draw(st.sampled_from(_offsets(bound)) | levels)
        assert chart.snap(a) == ref_chart_snap(chart, a)

    def test_snap_at_the_rounded_edge(self):
        # a - SNAP_EPS rounds to either side of the exact difference; the
        # first bound within SNAP_EPS is decided on the rounded b - a, as
        # the linear rule decides it
        f = Cardinality(GroundSet(4))
        for k in range(1, 200):
            a = k / 200
            edge = a - SNAP_EPS
            bounds = [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf),
                      a + SNAP_EPS / 2]
            for lo in range(3):
                assert snap(bounds[lo:], a) == ref_snap_to(bounds[lo:], a)
                chart = BarChart.from_potentials(f, bounds[lo:] + [0.0] * lo)
                assert chart.snap(a) == ref_chart_snap(chart, a)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_nbrs_and_every_neighbor_at_one(self, family):
        n = 5
        f = {"cardinality": Cardinality, "uniform": lambda g: UniformRank(g, 2),
             "partition": lambda g: PartitionBudget(g, [[0, 1], [2, 3, 4]], [1.0, 1.5]),
             "weighted": lambda g: WeightedThreshold(g, [0.5, 1.0, 0.25, 2.0, 0.75], 1.5),
             "table": lambda g: random_coverage_table(n, 3)}[family](GroundSet(n))
        y = [1.0, 0.5, 1.0, 0.5 + SNAP_EPS / 2, 0.0]
        chart = BarChart.from_potentials(f, y)
        for nbrs in [(), (0,), (0, 2), (1, 3), (0, 1, 2, 3, 4)]:
            nmask = as_mask(f.ground, nbrs)
            assert water_level(chart, nmask) == ref_water_level(chart, nbrs)
        assert water_level(chart, 0) == water_level(chart, 0b101) == 1.0


# ---------------------------------------------------------------------------
# Whole runs: trace bytes and oracle calls
# ---------------------------------------------------------------------------

def online_budget(family, n=200):
    """The budgets of the n=200, m=400 online runs, on a fixed partition
    and fixed weights."""
    g = GroundSet(n)
    if family == "cardinality":
        return Cardinality(g)
    if family == "uniform":
        return UniformRank(g, 60)
    if family == "partition":
        return PartitionBudget(g, [range(i, n, 10) for i in range(10)], [6.0] * 10)
    rng = SplitMix64(7)
    return WeightedThreshold(g, [0.25 + rng.random() for _ in range(n)], 50.0)


RUNS = {"obvc": run_obvc, "mobvc": run_mobvc, "mobm-pd": run_mobm_pd}

# sha256 of save_trace's bytes for gen_random(200, 400, 0.3, budget,
# seed=101) (format 7: the format-4 bytes the full-scan implementation
# wrote, with the rounds stored as columns, a mobm-pd run's x as a rounds
# column and each region bound once in a bounds column; each file decoded
# back to format-6 columns hashes to its format-6 pin).
TRACE_SHA256 = {
    ("cardinality", "obvc"): "852442b50b9c3cde7871993a814c0db8f7512694d933e7e73a3d3f4cd4b0c584",
    ("cardinality", "mobvc"): "49f088a4e84a9362943ad7ab4f058496f81c924975c6a03d9f453dcad30700d7",
    ("cardinality", "mobm-pd"): "c0786518683b591febd6c9ae21115db1cd4c410b32529271ca24f73e5a441544",
    ("uniform", "mobvc"): "da711bf20e3745e8f42c9361bd2083fee62cf3a64dbb6c0e1efaabfe563c2708",
    ("uniform", "mobm-pd"): "b43c03e4da524a9af0b791bf8b5113df3c396b3ba0d960d42d4c6fb5c7e0f605",
    ("partition", "mobvc"): "5797d62c0135c933406d71301df65576e4d9a23e30a574da50fda0d89c33b110",
    ("partition", "mobm-pd"): "ec9062ed060c7e1662b6c053da90fd24fa1f8648de1ecfeb69acd8f2c6279ab6",
    ("weighted", "mobvc"): "b4cdcff525cdd76b487f5777b9f90333729905b247a1e22ee869bc10ed3e3731",
    ("weighted", "mobm-pd"): "a479ee240db48e8fe382b10c2f11c66bfed6a1a20c7cbf6aa7c872f53ee0d1d1",
}


@pytest.mark.parametrize("family, algorithm", sorted(TRACE_SHA256))
def test_online_trace_bytes_unchanged(tmp_path, family, algorithm):
    inst = gen_random(200, 400, 0.3, online_budget(family), seed=101)
    path = tmp_path / "trace.json"
    save_trace(RUNS[algorithm](inst), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[family, algorithm]


class CountingFn:
    """Delegates to a budget and counts its value_mask calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value_mask(self, mask):
        self.calls += 1
        return self.inner.value_mask(mask)


@pytest.mark.parametrize("run, inst, calls", [
    (run_mobvc, gen_upper_triangular(3), 5),
    (run_mobvc, gen_random(200, 400, 0.3, online_budget("weighted"), seed=101), 1335),
    (run_mobm_pd, gen_random(200, 400, 0.3, online_budget("cardinality"), seed=101), 5374),
], ids=["tri3", "weighted-n200", "mobm-pd-cardinality-n200"])
def test_mobvc_oracle_calls(run, inst, calls):
    # the full scan made 8 and 19443 mobvc calls; the mobm-pd split made 46703
    # calls while it asked the oracle again for each region's two end heights,
    # and 41341 while it walked each region's chain by value_mask (cardinality
    # now takes the chain in closed form, uncounted here)
    counted = CountingFn(inst.f)
    trace = run(Instance(inst.name, inst.n_offline, counted, inst.arrivals))
    assert trace == run(inst)
    assert counted.calls == calls
