"""The random-arrival layer against the greedy it replaced.

The greedy core keeps one record per step, (vid, t, pick, newly-spanned
mask), and everything else (duals, critical times) is derived from it;
neighbours are sorted once when an Arrival is built and timestamps once by
by_timestamp, or by stamp_orders for a block of them. The reference below
is the earlier core, which sorted each arrival's neighbours on every step
and kept every derived field, kept as a test oracle: runs and critical
values must equal it to the bit, and the hashes pinned here were written
by it. Its rounds hold decisions only, as trace rounds do.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch import algorithms, verify
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
    stamp_orders,
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
from matroidmatch.verify import (
    _LEMMA_BLOCK,
    critical_times,
    critical_value,
    verify_random_arrival_lemmas,
)

from helpers import make_matroid_suite, ref_random_arrival_lemmas


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
    """critical_times reads every arrival's critical values off one run, as
    one row of n per arrival."""

    @staticmethod
    def check(inst, ts):
        ordered = by_timestamp(inst.arrivals, ts)
        crit = critical_times(inst.f, inst.masks, ordered,
                              _greedy_core(inst.f, inst.masks, ordered))
        assert sorted(crit) == sorted(ts)
        for a in inst.arrivals:
            assert dict(enumerate(crit[a.id])) == critical_value(inst, a.id, ts)
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
        full = [0.25, 0.25, 0.75, 0.75, 1.0]
        assert crit[1] == full
        # the arrivals that picked nothing share the full run's row
        assert crit[1] is crit[2] is crit[4] is crit[5]
        assert crit[0] == [0.5, 0.5, 0.75, 0.75, 1.0]
        assert crit[3] == [0.25, 0.25, 0.875, 0.875, 1.0]


@st.composite
def wide_matroid_instances(draw):
    """A UniformRank or PartitionBudget budget on 62 to 65 elements, and
    neighbour lists drawn half from the top three ids, so that picks land
    on mask bits 61 to 64, past a 64-bit word."""
    n = draw(st.sampled_from([62, 63, 64, 65]))
    g = GroundSet(n)
    if draw(st.booleans()):
        f = UniformRank(g, draw(st.integers(0, 4)))
    else:
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [b for b in ([u for u in range(n) if ids[u] == k] for k in range(3)) if b]
        caps = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
        f = PartitionBudget(g, blocks, caps)
    nbr = st.integers(n - 3, n - 1) | st.integers(0, n - 1)
    vids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    arrivals = [Arrival(vid, tuple(draw(st.lists(nbr, max_size=4)))) for vid in vids]
    return Instance("wide", n, f, arrivals)


class TestPastSixtyFourBits:
    """The greedy picks by the lowest set bit of a neighbour mask; masks of
    62 to 65 elements straddle the 64-bit word."""

    @staticmethod
    def check(inst, ts):
        assert trace_json(run_random_arrival_greedy(inst, timestamps=ts)) \
            == trace_json(ref_run(inst, ts))
        TestCriticalTimes.check(inst, ts)

    @settings(max_examples=150, deadline=None)
    @given(inst=wide_matroid_instances(), data=st.data())
    def test_matches_reference(self, inst, data):
        self.check(inst, {a.id: data.draw(stamps) for a in inst.arrivals})

    @pytest.mark.parametrize("n", [62, 63, 64, 65])
    def test_picks_on_the_top_bits(self, n):
        inst = Instance("top", n, UniformRank(GroundSet(n), 3), [
            Arrival(0, (n - 3,)), Arrival(1, (n - 1, n - 2)), Arrival(2, (n - 3, n - 1)),
            Arrival(3, (n - 1,))])
        ts = {0: 0.125, 1: 0.25, 2: 0.375, 3: 0.5}
        trace = run_random_arrival_greedy(inst, timestamps=ts)
        assert [rec.matched for rec in trace.rounds] == [n - 3, n - 2, n - 1, None]
        self.check(inst, ts)


class _Lookups(dict):
    """A dict that records the keys it is indexed by."""

    def __init__(self, d):
        super().__init__(d)
        self.seen = []

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)


class TestFullSpanStop:
    """Once the span is the whole ground set, _greedy_core gives every later
    arrival (vid, t, None, 0) without reading its mask or spanning."""

    CASES = {
        # the first pick, at step 1, spans all four elements
        "uniform-rank-1": (UniformRank(GroundSet(4), 1), 1, [
            Arrival(0, ()), Arrival(1, (3, 2)), Arrival(2, (0,)), Arrival(3, (1, 3))]),
        # element 4 has rank zero, so it is spanned from the start and
        # the pick of 3 at step 3 fills the span
        "partition-rank-zero": (PartitionBudget(GroundSet(5), [[0, 1], [2, 3], [4]],
                                                [1, 1, 0]), 3, [
            Arrival(0, (4,)), Arrival(1, (1,)), Arrival(2, (0, 4)), Arrival(3, (3,)),
            Arrival(4, (2,)), Arrival(5, (0, 1, 2, 3, 4))]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_scan_after_the_span_fills(self, monkeypatch, case):
        f, k, arrivals = self.CASES[case]
        inst = Instance(case, f.ground.size, f, arrivals)
        ordered = by_timestamp(arrivals, {a.id: (i + 1) / 8 for i, a in enumerate(arrivals)})
        calls = []
        monkeypatch.setattr(algorithms, "span_mask",
                            lambda f, mask: calls.append(mask) or span_mask(f, mask))
        masks = _Lookups(inst.masks)
        steps = _greedy_core(f, masks, ordered)
        assert steps == ref_greedy_core(f, ordered)[5]
        picks = [step[2] for step in steps]
        assert picks[k] is not None
        span_k = span_mask(f, 0)
        for step in steps[:k + 1]:
            span_k |= step[3]
        assert span_k == f.ground.full_mask
        assert steps[k + 1:] == [(a.id, t, None, 0) for a, t in ordered[k + 1:]]
        # no mask read and no span after step k: one span of the empty set,
        # then one per pick, the last at step k
        assert masks.seen == [a.id for a, _ in ordered[:k + 1]]
        matched = [0]
        for u in picks[:k + 1]:
            if u is not None:
                matched.append(matched[-1] | 1 << u)
        assert calls == matched


def n16_instance(family, seed):
    """The shape of the random-arrival-n16 benchmark instances, on a fixed
    partition."""
    g = GroundSet(16)
    f = UniformRank(g, 8) if family == "uniform" else \
        PartitionBudget(g, [range(i, 16, 4) for i in range(4)], [2, 2, 2, 2])
    return gen_random(16, 48, 0.3, f, seed=seed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of save_trace's bytes (format 9: the format-4 bytes the reference
# greedy wrote, with the rounds stored as columns and no final.y or
# final.z; each file with y and z put back by _greedy_duals over its rounds
# and the format digit 8 hashes to its format-8 pin).
GREEDY_TRACE_SHA256 = {
    ("uniform", 1, "adversarial"): "c70cc6b2abf04ebdc78507296c75ce0b82ea8dc00cb74728202e66d7303fb181",
    ("uniform", 1, "permutation"): "f8b9ba583df2e277836d9d9616a1e70f626b6b1c526a726c2110f2f9bd039d6d",
    ("uniform", 1, "timestamps"): "42b9bb7e855c245fe4a8feadd1f42e4f3fd285af1e4e512fa46b9bd392765bd5",
    ("partition", 1, "adversarial"): "0a9173680457a3481340691ee2dd554b967422cd4995c1f71ff21c9ce0471a77",
    ("partition", 1, "permutation"): "6713d96ae346cfab737f5d42fa2106b7ab82d98084c5a630b99fc47e42e2f092",
    ("partition", 1, "timestamps"): "79c4b0c5823b2623ee2781ec6e5d3454ec0b7fe5d27294475048b93fe9d4637d",
    ("uniform", 2, "adversarial"): "1297145d4bba3e48466c11af1a0b88f091dd91a78cea71000228bad6535109be",
    ("uniform", 2, "permutation"): "67ba62a8516cd792a8debe7ab240c4191ab101058fb17087463ee81b81dcf0f3",
    ("uniform", 2, "timestamps"): "5f3bb01d064e1bba70b92c1d9c9d99cb7a6d9b400f79e0c4db6337d757f0a578",
    ("partition", 2, "adversarial"): "0846ad9e37d6c7a564cbb5066dfc3f72ae5611fbf1b71b26bbe031507f27e68a",
    ("partition", 2, "permutation"): "e7f9e19e111a047dd352e34aa2360831086e5e25a7da9a93cfe63f5745f718b7",
    ("partition", 2, "timestamps"): "f51279ff9052bf7bf12999123792f64b5d9ec238b050b9ee62a58202ff42f33a",
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
# The audit in blocks of trials
# ---------------------------------------------------------------------------

def report_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("trials", [2, _LEMMA_BLOCK - 1, _LEMMA_BLOCK, _LEMMA_BLOCK + 1,
                                    2 * _LEMMA_BLOCK + 1])
@pytest.mark.parametrize("family", ["uniform", "partition"])
def test_blocks_report_the_per_edge_loop(family, trials):
    inst = n16_instance(family, 2)
    assert report_json(verify_random_arrival_lemmas(inst, trials, seed=7)) \
        == report_json(ref_random_arrival_lemmas(inst, trials, seed=7))


def edge_cases():
    g = GroundSet(3)
    return [
        Instance("no arrivals", 3, Cardinality(g), []),
        Instance("no live edges", 3, UniformRank(g, 0), [Arrival(4, (0, 2)), Arrival(1, (1,))]),
        # element 2 has no edge and element 1 only arrival 5's, so the run
        # without 5 never spans either: critical time 1.0
        Instance("never spanned", 3, Cardinality(g),
                 [Arrival(5, (1,)), Arrival(2, (0,)), Arrival(0, ())]),
    ]


@pytest.mark.parametrize("inst", edge_cases(), ids=lambda inst: inst.name)
def test_blocks_on_edge_cases(inst):
    for trials in (2, _LEMMA_BLOCK + 1):
        assert report_json(verify_random_arrival_lemmas(inst, trials, seed=4)) \
            == report_json(ref_random_arrival_lemmas(inst, trials, seed=4))


@settings(max_examples=150, deadline=None)
@given(inst=matroid_instances(), trials=st.sampled_from([2, 3, _LEMMA_BLOCK + 1]),
       seed=st.integers(0, 2 ** 32))
def test_blocks_on_drawn_instances(inst, trials, seed):
    assert report_json(verify_random_arrival_lemmas(inst, trials, seed)) \
        == report_json(ref_random_arrival_lemmas(inst, trials, seed))


# span_mask calls of verify_random_arrival_lemmas(n16_instance(family, 1),
# trials=200, seed=1), counted on the per-edge loop: the blocks replay every
# arrival the loop did, no fewer
LEMMA_SPAN_CALLS = {"uniform": 10657, "partition": 10170}


@pytest.mark.parametrize("family", sorted(LEMMA_SPAN_CALLS))
def test_lemma_audit_span_calls(monkeypatch, family):
    calls = 0

    def counted(f, mask):
        nonlocal calls
        calls += 1
        return span_mask(f, mask)
    monkeypatch.setattr(algorithms, "span_mask", counted)
    monkeypatch.setattr(verify, "span_mask", counted)
    verify_random_arrival_lemmas(n16_instance(family, 1), trials=200, seed=1)
    assert calls == LEMMA_SPAN_CALLS[family]


def test_dual_split_rate_is_the_one_exponential():
    # the audit's bounds and the run's duals both take e^(t - 1) from
    # dual_split_rate's math.exp; np.exp may round differently
    src = Path(algorithms.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py"))
            if "np.exp" in path.read_text(encoding="utf-8")] == []


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


@pytest.mark.parametrize("trials", [-3, 0, True, 2.5])
def test_trials_must_be_an_int_of_at_least_one(trials):
    with pytest.raises(InputError, match=re.escape(f"trials must be an int >= 1, got {trials!r}")):
        greedy_trials(sparse_instance(803), "timestamps", 0, trials)


@pytest.mark.parametrize("seed", [2.5, True])
def test_trials_seed_must_be_an_int(seed):
    # 2.5 used to raise a raw TypeError from range, and True ran as seed 1
    with pytest.raises(InputError, match=re.escape(f"seed must be an int, got {seed!r}")):
        greedy_trials(sparse_instance(803), "timestamps", seed, 2)


def test_numpy_ints_run_as_ints(tmp_path):
    # a numpy trials, seed or model seed was refused; each now runs, and
    # writes, as the int it equals
    inst = n16_instance("partition", 1)
    assert (greedy_trials(inst, "timestamps", np.int64(3), np.uint16(4))
            == greedy_trials(inst, "timestamps", 3, 4))
    plain, numpy_seed = tmp_path / "plain.json", tmp_path / "numpy.json"
    save_trace(run_random_arrival_greedy(inst, ArrivalModel("permutation", 5)), plain)
    save_trace(run_random_arrival_greedy(inst, ArrivalModel("permutation", np.uint16(5))),
               numpy_seed)
    assert numpy_seed.read_bytes() == plain.read_bytes()
    report = verify_random_arrival_lemmas(inst, trials=3, seed=2).to_dict()
    for trials, seed in ((np.int64(3), np.uint16(2)), (np.uint16(3), np.int64(2))):
        assert verify_random_arrival_lemmas(inst, trials=trials, seed=seed).to_dict() == report


@pytest.mark.parametrize("seed", [2.5, True, None])
def test_arrival_model_seed_must_be_an_int(seed):
    # a float seed used to build, and the greedy run then raised a raw
    # TypeError from the 64-bit mask
    with pytest.raises(InputError, match=re.escape(f"seed must be an int, got {seed!r}")):
        ArrivalModel("permutation", seed)


def test_model_seeds_are_taken_mod_2_64(tmp_path, capsys):
    """--model-seed -1 and 2^64 - 1 draw the same order, and print the line
    they did before seeds were checked and write the same trace (format 9
    bytes since)."""
    ipath, tpath = str(tmp_path / "i.json"), str(tmp_path / "t.json")
    assert main(["generate", "random", "--n", "6", "--m", "9", "--p", "0.45", "--seed", "21",
                 "--f", "partition:0,0,1,1,2,2:1,2,1", "--out", ipath]) == 0
    pins = {"timestamps": "f30c1038be31bb2c07ad951be8558b80caf0fa1d278d7d8a1395ae89c91b853d",
            "permutation": "0ec195c9218f3e8b2f80b5ddb39f295a17c6138cee084fdcbd1fcaf5549b19d3"}
    for model, sha in pins.items():
        for seed in ("-1", str(2 ** 64 - 1)):
            capsys.readouterr()
            assert main(["run", ipath, "--algorithm", "greedy-ra", "--model", model,
                         "--model-seed", seed, "--trace", tpath]) == 0
            assert capsys.readouterr().out == (
                "greedy-ra,random-n6-m9-p0.45-s21-partition_budget,4,6.32790682748,4,1\n")
            assert hashlib.sha256(Path(tpath).read_bytes()).hexdigest() == sha


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


@settings(max_examples=300, deadline=None)
@given(vids=st.lists(st.integers(-3, 30) | st.integers(2 ** 63 - 2, 2 ** 70),
                     max_size=8, unique=True),
       data=st.data())
def test_by_timestamp_is_the_sorted_reference(vids, data):
    """by_timestamp, which is stamp_orders of one row, against the sorted
    reference: ties (heavy when stamps come from a four-value pool), ids
    past a numpy int, no arrivals, and int stamps given back as floats."""
    arrivals = [Arrival(vid, ()) for vid in vids]
    pool = st.sampled_from([0, 1, 0.0, 0.5, 1.0]) | stamps
    ts = {vid: data.draw(pool) for vid in vids}
    got = by_timestamp(arrivals, ts)
    assert got == ref_sorted(arrivals, ts)
    assert all(type(t) is float for _, t in got)


@st.composite
def stamp_blocks(draw):
    """Arrivals with ids in no particular order and a block of 0 to 4 rows
    of their timestamps; heavy ties draw every stamp from four values."""
    vids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    pool = st.sampled_from([0.0, 0.25, 0.5, 1.0]) if draw(st.booleans()) else stamps
    rows = draw(st.integers(0, 4))
    block = np.array([[draw(pool) for _ in vids] for _ in range(rows)], dtype=np.float64)
    return [Arrival(vid, ()) for vid in vids], block.reshape(rows, len(vids))


class TestStampOrders:
    """stamp_orders is the sorted reference on every row of a block."""

    @staticmethod
    def by_rows(arrivals, block):
        ids = [a.id for a in arrivals]
        return [ref_sorted(arrivals, dict(zip(ids, row))) for row in block.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(drawn=stamp_blocks())
    def test_equals_by_timestamp(self, drawn):
        arrivals, block = drawn
        assert stamp_orders(arrivals, block) == self.by_rows(arrivals, block)

    def test_small_blocks(self):
        one = [Arrival(7, (0,))]
        for block in (np.empty((0, 1)), np.array([[0.5]]), np.array([[1.0], [0.0]])):
            assert stamp_orders(one, block) == self.by_rows(one, block)
        # ties go by id, also past a numpy int
        arrivals = [Arrival(2 ** 70, ()), Arrival(-1, ()), Arrival(3, ())]
        block = np.full((2, 3), 0.25)
        assert stamp_orders(arrivals, block) == self.by_rows(arrivals, block)
        assert [a.id for a, _ in stamp_orders(arrivals, block)[0]] == [-1, 3, 2 ** 70]

    @pytest.mark.parametrize("block, message", [
        (np.zeros((2, 3)), "need a block of timestamps with 2 columns, got shape (2, 3)"),
        (np.zeros(2), "need a block of timestamps with 2 columns, got shape (2,)"),
        (np.array([[0.5, 1.5]]), "timestamps must lie in [0, 1]"),
        (np.array([[0.5, 0.5], [-0.1, 0.5]]), "timestamps must lie in [0, 1]"),
        (np.array([[0.5, math.nan]]), "timestamps must lie in [0, 1]"),
    ])
    def test_bad_blocks_rejected(self, block, message):
        with pytest.raises(InputError, match=re.escape(message)):
            stamp_orders(pair().arrivals, block)


BAD_STAMPS = [
    ({3: 0.5}, "timestamps missing for arrivals [1]"),
    ({3: 0.5, 1: -0.1}, "timestamps must lie in [0, 1]"),
    ({3: 1.5, 1: 0.5}, "timestamps must lie in [0, 1]"),
    ({3: math.nan, 1: 0.5}, "timestamps must lie in [0, 1]"),
    ({3: 0.5, 1: math.nan}, "timestamps must lie in [0, 1]"),
]


def test_model_and_timestamps_not_both():
    # the model used to be dropped without a word
    inst = pair()
    with pytest.raises(InputError, match="give an arrival model or timestamps, not both"):
        run_random_arrival_greedy(inst, model=ArrivalModel("permutation", 3),
                                  timestamps={3: 0.5, 1: 0.25})


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
