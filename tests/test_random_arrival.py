"""The random-arrival layer against the greedy it replaced.

The greedy core keeps one record per step, (vid, t, pick, newly-spanned
mask), and everything else (duals, critical times) is derived from it;
neighbours are sorted once when an Arrival is built and timestamps once by
by_timestamp. The reference below is the earlier core, which sorted each
arrival's neighbours on every step and kept every derived field, kept as a
test oracle: runs and critical values must equal it to the bit, and the
hashes pinned here were written by it. Its rounds hold decisions only, as
trace rounds do.
"""

import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch.algorithms import (
    ALGORITHMS,
    GreedyRound,
    OnlineState,
    RunTrace,
    _greedy_core,
    dual_split_rate,
    greedy_trials,
    run_random_arrival_greedy,
    save_trace,
)
from matroidmatch.cli import main
from matroidmatch.constants import ALPHA
from matroidmatch.errors import InputError, PreconditionError
from matroidmatch.instances import (
    Arrival,
    ArrivalModel,
    Instance,
    by_timestamp,
    gen_random,
    load,
    save,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    lovasz,
    mask_members,
    span_mask,
)
from matroidmatch.verify import critical_times, critical_value, verify_random_arrival_lemmas

from helpers import make_matroid_suite


# ---------------------------------------------------------------------------
# Reference: the per-step-sorting greedy
# ---------------------------------------------------------------------------

def ref_greedy_core(f, ordered):
    n = f.ground.size
    matched = {}
    y = [0.0] * n
    z = {}
    spanned_at = {}
    per_round = []
    m_mask = 0
    span_now = span_mask(f, 0)
    for arr, t in ordered:
        pick = None
        for u in sorted(arr.nbrs):
            if not (span_now >> u) & 1:
                pick = u
                break
        if pick is None:
            per_round.append((arr.id, t, None, 0))
            continue
        rate = dual_split_rate(t)
        matched[arr.id] = pick
        z[arr.id] = (1.0 + ALPHA) * rate
        yval = (1.0 + ALPHA) * (1.0 - rate)
        new_span = span_mask(f, m_mask | (1 << pick))
        newly = new_span & ~span_now
        per_round.append((arr.id, t, pick, newly))
        rest, u = newly, 0
        while rest:
            if rest & 1:
                y[u] = yval
                spanned_at[u] = t
            rest >>= 1
            u += 1
        m_mask |= 1 << pick
        span_now = new_span
    return matched, y, z, spanned_at, m_mask, per_round


def ref_sorted(arrivals, timestamps):
    return sorted(((a, float(timestamps[a.id])) for a in arrivals),
                  key=lambda at: (at[1], at[0].id))


def ref_run(instance, timestamps):
    f, n = instance.f, instance.n_offline
    matched, y, z, _, m_mask, per_round = ref_greedy_core(
        f, ref_sorted(instance.arrivals, timestamps))
    x = {(u, vid): 1.0 for vid, u in matched.items()}
    rounds = [GreedyRound(v=vid, t=t) if pick is None else
              GreedyRound(v=vid, t=t, X=mask_members(newly), matched=pick)
              for vid, t, pick, newly in per_round]
    state = OnlineState(y=y, z=z, x=x, chart=None, matched=frozenset(mask_members(m_mask)))
    dual = lovasz(f, y) + sum(z.values())
    return RunTrace("greedy-ra", instance.name, n, rounds, state, float(len(matched)), dual)


def ref_critical_value(instance, v, timestamps):
    others = [a for a in instance.arrivals if a.id != v]
    spanned_at = ref_greedy_core(instance.f, ref_sorted(others, timestamps))[3]
    return {u: spanned_at.get(u, 1.0) for u in range(instance.n_offline)}


def trace_json(trace):
    return json.dumps(trace.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Bit-identity with the reference
# ---------------------------------------------------------------------------

@st.composite
def matroid_instances(draw):
    """A matroid budget (rank-zero elements included) and arrivals with
    unsorted, repeating neighbour lists and ids in no particular order."""
    n = draw(st.integers(1, 6))
    g = GroundSet(n)
    kind = draw(st.sampled_from(["cardinality", "uniform", "partition"]))
    if kind == "cardinality":
        f = Cardinality(g)
    elif kind == "uniform":
        f = UniformRank(g, draw(st.integers(0, n)))
    else:
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [b for b in ([u for u in range(n) if ids[u] == k] for k in range(3)) if b]
        caps = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
        f = PartitionBudget(g, blocks, caps)
    vids = draw(st.lists(st.integers(0, 30), max_size=8, unique=True))
    arrivals = [Arrival(vid, tuple(draw(st.lists(st.integers(0, n - 1), max_size=2 * n))))
                for vid in vids]
    return Instance("drawn", n, f, arrivals)


# Few distinct values, so ties between timestamps are common.
stamps = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(inst=matroid_instances(), data=st.data())
    def test_trace_and_critical_values(self, inst, data):
        ts = {a.id: data.draw(stamps) for a in inst.arrivals}
        assert trace_json(run_random_arrival_greedy(inst, timestamps=ts)) \
            == trace_json(ref_run(inst, ts))
        for a in inst.arrivals:
            others = {vid: t for vid, t in ts.items() if vid != a.id}
            assert critical_value(inst, a.id, others) == ref_critical_value(inst, a.id, ts)


class TestCriticalTimes:
    """critical_times reads every arrival's critical values off one run."""

    @staticmethod
    def check(inst, ts):
        ordered = by_timestamp(inst.arrivals, ts)
        crit = critical_times(inst.f, ordered, _greedy_core(inst.f, ordered))
        assert sorted(crit) == sorted(ts)
        for a in inst.arrivals:
            assert {u: crit[a.id].get(u, 1.0) for u in range(inst.n_offline)} \
                == critical_value(inst, a.id, ts)
        return crit

    @settings(max_examples=300, deadline=None)
    @given(inst=matroid_instances(), data=st.data())
    def test_equals_critical_value(self, inst, data):
        self.check(inst, {a.id: data.draw(stamps) for a in inst.arrivals})

    def test_unmatched_rank_zero_and_ties(self):
        # element 4 has rank zero; arrival 1 ties with 0 and passes, as do
        # 2 and 5 (their neighbours are spanned) and 4 (none)
        f = PartitionBudget(GroundSet(5), [[0, 1], [2, 3], [4]], [1, 1, 0])
        inst = Instance("mixed", 5, f, [
            Arrival(0, (0, 1)), Arrival(1, (4,)), Arrival(2, (1,)),
            Arrival(3, (1, 2)), Arrival(4, ()), Arrival(5, (3, 0))])
        ts = {0: 0.25, 1: 0.25, 2: 0.5, 3: 0.75, 4: 0.75, 5: 0.875}
        crit = self.check(inst, ts)
        full = {0: 0.25, 1: 0.25, 2: 0.75, 3: 0.75}
        assert crit[1] == crit[2] == crit[4] == crit[5] == full
        assert crit[0] == {0: 0.5, 1: 0.5, 2: 0.75, 3: 0.75}
        assert crit[3] == {0: 0.25, 1: 0.25, 2: 0.875, 3: 0.875}


def n16_instance(family, seed):
    """The shape of the random-arrival-n16 benchmark instances, on a fixed
    partition."""
    g = GroundSet(16)
    f = UniformRank(g, 8) if family == "uniform" else \
        PartitionBudget(g, [range(i, 16, 4) for i in range(4)], [2, 2, 2, 2])
    return gen_random(16, 48, 0.3, f, seed=seed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of save_trace's bytes (format 5: the format-4 bytes the reference
# greedy wrote, with the rounds stored as columns; each loads to the same
# RunTrace as the format-4 file did).
GREEDY_TRACE_SHA256 = {
    ("uniform", 1, "adversarial"): "6b2a4bd439e8f1ef31e23234147ec2034090d10dd19510abba125fbb23fdb27f",
    ("uniform", 1, "permutation"): "6ac53e52bad0b3023dda34d4ce34e760c2e87a45274eaf1da8837b10d82f2321",
    ("uniform", 1, "timestamps"): "bee43dda6c4b4f651ca8fd4cb0d275fcf10cfba14f90cfe9df01f8fd7262d09a",
    ("partition", 1, "adversarial"): "1ffee7c8ace90b975fa4b3c04af3e0fd498184d79a0010b535799c0a8823a380",
    ("partition", 1, "permutation"): "648cd9862da46f0267a997690e33c993237b85b0370ba359b0b36287f9c1f2db",
    ("partition", 1, "timestamps"): "e49ba504a2d0eaba59c49896e13e9730612f1d5ad429d9a8017db9c666464e53",
    ("uniform", 2, "adversarial"): "582f2a19130b026b774a1582af8baa58035e89114e9b5418665e29f1ea2085de",
    ("uniform", 2, "permutation"): "b68b455c0419a3e6a1f3fe96d794cac24ecddca8e2559475c576c65bd386a5b0",
    ("uniform", 2, "timestamps"): "220d597a0e87c8862acbf03ff4db1e094c3f4aeb85839e3bfa750ba089b646dc",
    ("partition", 2, "adversarial"): "8f9b03005fa9b5b9e21479b016c8ba083194d84a1c7aa9deb2907d7135c84a4c",
    ("partition", 2, "permutation"): "213837d41f46b09fde07c6d527c522d6fa411188db8fe5f352b0f03708b805f8",
    ("partition", 2, "timestamps"): "9d00e344d0c5fdb9ed1905a43e0c764c72943919ccd689a583235dba4d0a81fd",
}

# sha256 of the sorted-key JSON of verify_random_arrival_lemmas(instance,
# trials=200, seed=seed).to_dict(), written with the reference greedy.
LEMMA_REPORT_SHA256 = {
    ("uniform", 1): "3f848828db268563d09e16fe49ec1201f01ab6553575d920046659a84c41a4ba",
    ("partition", 1): "462c855c75c04e244dfe858b28a51de75a077ee24d1946b656a9552e79ef02a8",
    ("uniform", 2): "e5659d59eaa38eb1c6c56a83d0e18c93c2f2b1480dfbfe0351edd2b9a3be63b2",
    ("partition", 2): "a4a837c5b0bb8cfd974ec61d58ac8c045a942e6712564fa751a037a1a0e58346",
}


# The same for the whole of make_matroid_suite(20) at 100 trials, seed 3:
# small instances where some elements are never spanned (critical time 1.0).
SUITE_REPORT_SHA256 = "dfde6b8c28515dc5f13cd43702d56eab89ccc875b57e3407fd87bb4c6004e6d5"


@pytest.mark.parametrize("family, seed, kind", sorted(GREEDY_TRACE_SHA256))
def test_greedy_trace_bytes_unchanged(tmp_path, family, seed, kind):
    path = tmp_path / "trace.json"
    save_trace(run_random_arrival_greedy(n16_instance(family, seed), ArrivalModel(kind, seed)),
               path)
    assert sha256(path.read_bytes()) == GREEDY_TRACE_SHA256[family, seed, kind]


@pytest.mark.parametrize("family, seed", sorted(LEMMA_REPORT_SHA256))
def test_lemma_report_unchanged(family, seed):
    report = verify_random_arrival_lemmas(n16_instance(family, seed), trials=200, seed=seed)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert sha256(text.encode()) == LEMMA_REPORT_SHA256[family, seed]


def test_suite_lemma_reports_unchanged():
    reports = [verify_random_arrival_lemmas(inst, trials=100, seed=3).to_dict()
               for inst in make_matroid_suite(20)]
    assert sha256(json.dumps(reports, sort_keys=True).encode()) == SUITE_REPORT_SHA256


# ---------------------------------------------------------------------------
# Value-only trials
# ---------------------------------------------------------------------------

def sparse_instance(seed):
    """n16 with few edges: the matching size, and so both values, vary
    from one order to the next."""
    g = GroundSet(16)
    f = PartitionBudget(g, [range(i, 16, 4) for i in range(4)], [2, 2, 2, 2])
    return gen_random(16, 16, 0.1, f, seed=seed)


@pytest.mark.parametrize("kind", ["permutation", "timestamps"])
@pytest.mark.parametrize("seed, trials", [(1000, 1), (7, 40), (2 ** 64 - 3, 6)])
def test_trials_are_the_per_trial_runs(kind, seed, trials):
    for inst in (sparse_instance(803), n16_instance("uniform", 1), make_matroid_suite(3)[2]):
        pairs = greedy_trials(inst, kind, seed, trials)
        runs = [run_random_arrival_greedy(inst, ArrivalModel(kind, seed + i))
                for i in range(trials)]
        assert pairs == [(run.primal_value, run.dual_value) for run in runs]
    assert len({p for p, _ in greedy_trials(sparse_instance(803), kind, 7, 40)}) > 1


def test_trials_refuse_a_budget_that_is_no_matroid():
    inst = gen_random(4, 4, 0.5, WeightedThreshold(GroundSet(4), [0.5, 1.0, 1.5, 2.0], 2.0))
    with pytest.raises(PreconditionError, match="matroid rank"):
        greedy_trials(inst, "permutation", 0, 3)


# ---------------------------------------------------------------------------
# One neighbour order
# ---------------------------------------------------------------------------

def test_arrival_holds_ascending_distinct_nbrs():
    assert Arrival(0, (2, 0, 2)).nbrs == (0, 2)
    assert Arrival(0, [3, 1]).nbrs == (1, 3)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unsorted_file_runs_like_its_sorted_twin(tmp_path, capsys, algorithm):
    inst = gen_random(8, 12, 0.5, Cardinality(GroundSet(8)), seed=3)
    sorted_path, unsorted_path = tmp_path / "sorted.json", tmp_path / "unsorted.json"
    save(inst, sorted_path)
    data = inst.to_dict()
    for entry in data["arrivals"]:
        entry["nbrs"].reverse()
    unsorted_path.write_text(json.dumps(data), encoding="utf-8")
    assert load(unsorted_path).to_dict() == load(sorted_path).to_dict()

    outputs = []
    for path in (sorted_path, unsorted_path):
        trace = tmp_path / f"{path.stem}.trace.json"
        argv = ["run", str(path), "--algorithm", algorithm, "--trace", str(trace)]
        if algorithm == "greedy-ra":
            argv += ["--model", "timestamps", "--model-seed", "5"]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, trace.read_bytes()))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# One timestamp order
# ---------------------------------------------------------------------------

def pair():
    return Instance("pair", 2, Cardinality(GroundSet(2)),
                    [Arrival(3, (0, 1)), Arrival(1, (0,))])


def test_by_timestamp_sorts_by_time_then_id():
    a, b = pair().arrivals
    assert by_timestamp([a, b], {3: 0.5, 1: 0.5}) == [(b, 0.5), (a, 0.5)]
    assert by_timestamp([a, b], {3: 0.25, 1: 1}) == [(a, 0.25), (b, 1.0)]
    assert by_timestamp([], {}) == []


BAD_STAMPS = [
    ({3: 0.5}, "timestamps missing for arrivals [1]"),
    ({3: 0.5, 1: -0.1}, "timestamps must lie in [0, 1]"),
    ({3: 1.5, 1: 0.5}, "timestamps must lie in [0, 1]"),
    ({3: math.nan, 1: 0.5}, "timestamps must lie in [0, 1]"),
    ({3: 0.5, 1: math.nan}, "timestamps must lie in [0, 1]"),
]


@pytest.mark.parametrize("ts, message", BAD_STAMPS)
def test_bad_timestamps_rejected(ts, message):
    inst = pair()
    with pytest.raises(InputError, match=re.escape(message)):
        by_timestamp(inst.arrivals, ts)
    with pytest.raises(InputError, match="timestamps"):
        run_random_arrival_greedy(inst, timestamps=ts)
    # critical_value needs every timestamp but v's: add a third arrival as v
    with_v = Instance("pair+v", 2, inst.f, inst.arrivals + [Arrival(9, (1,))])
    with pytest.raises(InputError, match="timestamps"):
        critical_value(with_v, 9, ts)
