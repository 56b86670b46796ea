"""The random-arrival layer against the greedy it replaced.

The greedy core keeps one record per step, (vid, t, pick, newly-spanned
mask), and everything else (duals, critical times) is derived from it;
neighbours are sorted once when an Arrival is built and timestamps once by
by_timestamp. The reference below is the earlier core, which sorted each
arrival's neighbours on every step and kept every derived field, kept as a
test oracle: runs and critical values must equal it to the bit, and the
hashes pinned here were written by it. Its rounds hold decisions only, as
trace format 4 does.
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
    run_random_arrival_greedy,
    save_trace,
)
from matroidmatch.cli import main
from matroidmatch.constants import ALPHA
from matroidmatch.errors import InputError
from matroidmatch.instances import (
    Arrival,
    ArrivalModel,
    Instance,
    by_timestamp,
    gen_random,
    load,
    make_matroid_suite,
    save,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    lovasz,
    mask_members,
    span_mask,
)
from matroidmatch.verify import critical_times, critical_value, verify_random_arrival_lemmas


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


# sha256 of save_trace's bytes, written by the reference greedy (format 4:
# the format-3 bytes with each round's dP and dD dropped).
GREEDY_TRACE_SHA256 = {
    ("uniform", 1, "adversarial"): "5821afc1185b45f0a5e3e7df73b17debca73d3dd4757b61218728b4b1bbe4ce1",
    ("uniform", 1, "permutation"): "82c7dca6658e58bfd579947df9d05d27645380a68b8c638e3951d41d68ff99f5",
    ("uniform", 1, "timestamps"): "4b0bc8c37ad6ed6678a4a9de393ac075522b72a1c0ce48ce3c34f5d9db59c9e0",
    ("partition", 1, "adversarial"): "74e45617744e7ef992a4ee3f20d1f212199d6d60d526b93a6cb44bfc814fb5dc",
    ("partition", 1, "permutation"): "b158345c6f9e95402cfa0d37491ea1e054c85e3bfdc8f59f3b9d3f009f2eeee2",
    ("partition", 1, "timestamps"): "30882c00743b1ec9198fd3b4badd4e3a040d2031a708f039419b932c380ba7ab",
    ("uniform", 2, "adversarial"): "3e0c9e8d2b2a579550f8e223c1d45f1a6d84a45a867bb0a4b0375a5d38ddf795",
    ("uniform", 2, "permutation"): "41b737fb055b6dd18d7576ecc01c441a41b7cf55158131c19b6416ba6309004c",
    ("uniform", 2, "timestamps"): "4e53ba0b717291d55fc5169ec943a763de986873affbdae0c60f6967327aa626",
    ("partition", 2, "adversarial"): "dbf51958409ff944a77c1b99a62635c18fe50be0aef1eef0665dc9cf9f08092b",
    ("partition", 2, "permutation"): "1d0627a36f0cb6945a9e84e913fe77aebb12fd8faf0bb48d26fbc388aba455ac",
    ("partition", 2, "timestamps"): "fbccf537f01e436c1953aeea8972a283c6dfb3ebcfb0f3cc4bac5e8b004780e4",
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
