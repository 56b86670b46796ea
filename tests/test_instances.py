"""Tests for instance types, generators, arrival models, and persistence."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch import instances
from matroidmatch.algorithms import run_mobvc, run_random_arrival_greedy
from matroidmatch.cli import main
from matroidmatch.errors import InputError, ParseError, SizeError
from matroidmatch.instances import (
    INSTANCE_SIZE_LIMIT,
    Arrival,
    ArrivalModel,
    Instance,
    arrival_orders,
    gen_random,
    gen_upper_triangular,
    indented_json,
    instance_from_dict,
    load,
    order_arrivals,
    random_coverage_table,
    save,
)
from matroidmatch.submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    as_mask,
    is_matroid_rank,
    verify_axioms,
)

from helpers import SplitMix64, make_matroid_suite, make_suite


class TestGenerators:
    def test_upper_triangular_structure(self):
        inst = gen_upper_triangular(3)
        assert inst.name == "triangular-3"
        assert inst.n_offline == 3
        assert inst.f.family == "cardinality"
        assert [(a.id, a.nbrs) for a in inst.arrivals] == [
            (0, (0, 1, 2)), (1, (1, 2)), (2, (2,))]

    def test_upper_triangular_single(self):
        inst = gen_upper_triangular(1)
        assert [(a.id, a.nbrs) for a in inst.arrivals] == [(0, (0,))]
        with pytest.raises(InputError):
            gen_upper_triangular(0)

    def test_random_extremes(self):
        empty = gen_random(4, 3, 0.0, seed=5)
        assert all(a.nbrs == () for a in empty.arrivals)
        full = gen_random(4, 3, 1.0, seed=5)
        assert all(a.nbrs == (0, 1, 2, 3) for a in full.arrivals)

    def test_random_deterministic_in_seed(self):
        a = gen_random(6, 6, 0.4, seed=11)
        b = gen_random(6, 6, 0.4, seed=11)
        c = gen_random(6, 6, 0.4, seed=12)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_random_validation(self):
        with pytest.raises(InputError):
            gen_random(3, 2, 1.5)
        with pytest.raises(InputError):
            gen_random(3, 2, 0.5, f=Cardinality(GroundSet(4)))

    def test_size_limit(self, monkeypatch):
        # well above the n=200, m=400 runs, whatever p is
        assert INSTANCE_SIZE_LIMIT >= 10 * 200 * 400
        with pytest.raises(SizeError, match="n_offline"):
            gen_random(INSTANCE_SIZE_LIMIT + 1, 1, 0.5)
        with pytest.raises(SizeError, match="m = "):
            gen_random(2, INSTANCE_SIZE_LIMIT + 1, 0.5)
        monkeypatch.setattr(instances, "INSTANCE_SIZE_LIMIT", 10)
        assert len(gen_random(4, 2, 1.0).edges()) == 8
        with pytest.raises(SizeError, match="edges = 12"):
            gen_random(4, 3, 1.0)
        assert len(gen_upper_triangular(4).edges()) == 10
        with pytest.raises(SizeError, match="edges = 15"):
            gen_upper_triangular(5)
        # crossed in the middle of a row block (n = 100: 40 arrivals per
        # block; arrival 55 is the first past 1637 edges), and with one
        # arrival per block; the counts are those of the one-draw-at-a-time
        # generator
        monkeypatch.setattr(instances, "INSTANCE_SIZE_LIMIT", 1637)
        with pytest.raises(SizeError, match="edges = 1667 "):
            gen_random(100, 100, 0.3, seed=7)
        monkeypatch.setattr(instances, "INSTANCE_SIZE_LIMIT", 2500)
        with pytest.raises(SizeError, match="edges = 2979 "):
            gen_random(2500, 4, 0.3, seed=7)

    @pytest.mark.parametrize("n, m", [(1, 5000), (64, 200), (200, 40), (5000, 3)])
    def test_row_blocks_are_capped(self, monkeypatch, n, m):
        sizes = []
        mix = instances._mix64

        def counting_mix(z):
            sizes.append(z.size)
            return mix(z)

        expected = gen_random(n, m, 0.3, seed=3).to_dict()
        monkeypatch.setattr(instances, "_mix64", counting_mix)
        assert gen_random(n, m, 0.3, seed=3).to_dict() == expected
        assert sizes and max(sizes) <= max(n, instances._BLOCK_DRAWS)

    @pytest.mark.parametrize("call, message", [
        (lambda: gen_random(2.5, 3, 0.5), "n must be an int, got 2.5"),
        (lambda: gen_random(True, 3, 0.5), "n must be an int, got True"),
        (lambda: gen_random(3, 2.0, 0.5), "m must be an int, got 2.0"),
        (lambda: gen_random(3, 2, 0.5, seed=1.5), "seed must be an int, got 1.5"),
        (lambda: gen_upper_triangular(2.0), "n must be an int, got 2.0"),
        (lambda: random_coverage_table(3.0, 1), "n must be an int, got 3.0"),
        (lambda: random_coverage_table(3, 1.5), "seed must be an int, got 1.5"),
        (lambda: random_coverage_table(3, 1, 4.0), "universe must be an int, got 4.0"),
    ])
    def test_int_arguments_checked(self, call, message):
        # a raw TypeError, or for a bool an instance with n_offline=True
        with pytest.raises(InputError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("p, message", [
        ("0.3", "edge probability p = '0.3' is not a number"),
        (True, "edge probability p = True is not a number"),
        (math.nan, "edge probability p = nan is not finite"),
    ])
    def test_probability_is_a_number(self, p, message):
        # "0.3" raised a raw TypeError, and True drew every edge
        with pytest.raises(InputError, match=re.escape(message)):
            gen_random(4, 3, p)

    def test_numpy_ints_give_the_same_bytes(self, tmp_path):
        # numpy ints are ints here as they are for ids; a numpy seed used to
        # be refused, and taken raw it would overflow seed & (2^64 - 1)
        plain, numpy_args = tmp_path / "plain.json", tmp_path / "numpy.json"
        f = UniformRank(GroundSet(8), 3)
        save(gen_random(8, 10, 0.3, f, seed=7), plain)
        save(gen_random(np.int64(8), np.uint16(10), 0.3, f, seed=np.int64(7)), numpy_args)
        assert numpy_args.read_bytes() == plain.read_bytes()
        save(gen_upper_triangular(np.uint16(4)), plain)
        save(gen_upper_triangular(4), numpy_args)
        assert numpy_args.read_bytes() == plain.read_bytes()
        assert (random_coverage_table(np.int64(3), np.uint16(5), np.int64(6)).to_spec()
                == random_coverage_table(3, 5, 6).to_spec())

    def test_coverage_table_is_submodular(self):
        for seed in (0, 1, 2, 77):
            f = random_coverage_table(5, seed)
            assert verify_axioms(f).ok
        assert random_coverage_table(5, 3).to_spec() == random_coverage_table(5, 3).to_spec()


class TestArrivalModels:
    @pytest.mark.parametrize("kind", ArrivalModel.KINDS)
    def test_numpy_seed_taken_as_int(self, kind):
        inst = gen_random(6, 8, 0.5, seed=3)
        for seed in (np.int64(9), np.uint16(9)):
            model = ArrivalModel(kind, seed)
            assert type(model.seed) is int and model == ArrivalModel(kind, 9)
            assert order_arrivals(inst, model) == order_arrivals(inst, ArrivalModel(kind, 9))

    def test_adversarial_ranks(self):
        inst = gen_upper_triangular(4)
        ordered = order_arrivals(inst, ArrivalModel())
        assert [a.id for a, _ in ordered] == [0, 1, 2, 3]
        assert [t for _, t in ordered] == [0.25, 0.5, 0.75, 1.0]

    def test_permutation_deterministic(self):
        inst = gen_upper_triangular(6)
        one = [a.id for a, _ in order_arrivals(inst, ArrivalModel("permutation", 9))]
        two = [a.id for a, _ in order_arrivals(inst, ArrivalModel("permutation", 9))]
        assert one == two
        assert sorted(one) == [0, 1, 2, 3, 4, 5]
        seen = {tuple(a.id for a, _ in order_arrivals(inst, ArrivalModel("permutation", s)))
                for s in range(12)}
        assert len(seen) > 1

    def test_timestamps_sorted(self):
        inst = gen_upper_triangular(8)
        ordered = order_arrivals(inst, ArrivalModel("timestamps", 4))
        ts = [t for _, t in ordered]
        assert ts == sorted(ts)
        assert all(0.0 <= t <= 1.0 for t in ts)
        again = order_arrivals(inst, ArrivalModel("timestamps", 4))
        assert [(a.id, t) for a, t in ordered] == [(a.id, t) for a, t in again]

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            ArrivalModel("sorted")

    def test_empty_instance(self):
        inst = Instance("empty", 2, Cardinality(GroundSet(2)), [])
        assert order_arrivals(inst, ArrivalModel()) == []


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = gen_random(5, 4, 0.5, f=UniformRank(GroundSet(5), 2), seed=3)
        path = tmp_path / "inst.json"
        save(inst, path)
        back = load(path)
        assert back.to_dict() == inst.to_dict()

    def test_round_trip_is_stable(self, tmp_path):
        inst = gen_upper_triangular(4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(inst, p1)
        save(load(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_neighbor_out_of_range(self):
        data = {"name": "x", "n_offline": 2, "f": {"family": "cardinality"},
                "arrivals": [{"id": 0, "nbrs": [0, 2]}]}
        with pytest.raises(ParseError, match=r"arrivals\[0\].nbrs\[1\].*out of range"):
            instance_from_dict(data)

    def test_duplicate_ids(self):
        data = {"name": "x", "n_offline": 2, "f": {"family": "cardinality"},
                "arrivals": [{"id": 0, "nbrs": []}, {"id": 0, "nbrs": [1]}]}
        with pytest.raises(ParseError, match="duplicate online id"):
            instance_from_dict(data)

    def test_duplicate_neighbor(self):
        data = {"name": "x", "n_offline": 2, "f": {"family": "cardinality"},
                "arrivals": [{"id": 0, "nbrs": [1, 1]}]}
        with pytest.raises(ParseError, match="duplicate neighbor"):
            instance_from_dict(data)

    @pytest.mark.parametrize("nbrs, message", [
        ([0, True], "instance.arrivals[1].nbrs[1]: neighbor True out of range (n_offline=3)"),
        ([1.0], "instance.arrivals[1].nbrs[0]: neighbor 1.0 out of range (n_offline=3)"),
        ([2, -1, 5], "instance.arrivals[1].nbrs[1]: neighbor -1 out of range (n_offline=3)"),
        ([0, 3], "instance.arrivals[1].nbrs[1]: neighbor 3 out of range (n_offline=3)"),
        ([2, 0, 2, 9], "instance.arrivals[1].nbrs[2]: duplicate neighbor 2"),
        (["0"], "instance.arrivals[1].nbrs[0]: neighbor '0' out of range (n_offline=3)"),
        ([None, 0], "instance.arrivals[1].nbrs[0]: neighbor None out of range (n_offline=3)"),
    ], ids=["bool", "float", "negative", "at-n", "duplicate", "string", "null"])
    def test_bad_neighbor_messages(self, nbrs, message):
        # the column check finds a bad list; the per-neighbor reader names
        # the first bad entry by its position
        data = {"name": "x", "n_offline": 3, "f": {"family": "cardinality"},
                "arrivals": [{"id": 0, "nbrs": [2, 0]}, {"id": 1, "nbrs": nbrs}]}
        with pytest.raises(ParseError) as info:
            instance_from_dict(data)
        assert str(info.value) == message

    def test_neighbors_are_read_sorted(self):
        data = {"name": "x", "n_offline": 3, "f": {"family": "cardinality"},
                "arrivals": [{"id": 0, "nbrs": [2, 0]}, {"id": 1, "nbrs": []}]}
        assert [a.nbrs for a in instance_from_dict(data).arrivals] == [(0, 2), ()]

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field 'f'"):
            instance_from_dict({"name": "x", "n_offline": 2, "arrivals": []})

    def test_bad_table_size(self):
        data = {"name": "x", "n_offline": 2,
                "f": {"family": "explicit_table", "values": [0, 1, 1]},
                "arrivals": []}
        with pytest.raises(ParseError, match="f:"):
            instance_from_dict(data)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="not valid JSON"):
            load(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=25)


def edge_instance(f):
    return {"name": "x", "n_offline": 2, "f": f, "arrivals": [{"id": 0, "nbrs": [0, 1]}]}


class TestHostileFiles:
    """load gives an Instance, a ParseError or (above the instance size
    limit) a SizeError, and run exits 2 on the latter two, never with a
    traceback."""

    def assert_rejected(self, path, match=None):
        with pytest.raises(ParseError, match=match):
            load(path)
        assert main(["run", str(path), "--algorithm", "mobvc"]) == 2

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        self.assert_rejected(path, "not valid JSON")

    def test_bad_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        self.assert_rejected(path, "not valid JSON")

    @pytest.mark.parametrize("data, match", [
        ({**edge_instance({"family": "cardinality"}), "n_offline": True}, "n_offline"),
        ({**edge_instance({"family": "cardinality"}),
          "arrivals": [{"id": False, "nbrs": [0]}]}, r"arrivals\[0\].id"),
        ({**edge_instance({"family": "cardinality"}),
          "arrivals": [{"id": 0, "nbrs": [True]}]}, r"nbrs\[0\]"),
        (edge_instance({"family": "uniform_rank", "k": True}), "f:"),
        ({**edge_instance({"family": "cardinality"}), "name": 5}, "name"),
    ])
    def test_bools_and_wrong_types(self, tmp_path, data, match):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_rejected(path, match)

    @pytest.mark.parametrize("data, match", [
        ({**edge_instance({"family": "cardinality"}), "m_online": 1}, r"i\.json: stray field "
         "'m_online'"),
        ({**edge_instance({"family": "cardinality"}),
          "arrivals": [{"id": 0, "nbrs": [0], "t": 0.5}]}, r"arrivals\[0\]: stray field 't'"),
        (edge_instance({"family": "cardinality", "k": 2}), r"f: cardinality spec has a stray "
         "field 'k'"),
    ], ids=["top-level", "arrival", "f"])
    def test_stray_field(self, tmp_path, data, match):
        # a key no reader takes is refused, not ignored
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_rejected(path, match)

    @pytest.mark.parametrize("n", [10 ** 20, 2 ** 33, INSTANCE_SIZE_LIMIT + 1])
    def test_n_offline_beyond_size_limit(self, tmp_path, n):
        # 10**20 used to load and then end run in an OverflowError traceback
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**edge_instance({"family": "cardinality"}),
                                    "n_offline": n}), encoding="utf-8")
        with pytest.raises(SizeError, match="n_offline"):
            load(path)
        assert main(["run", str(path), "--algorithm", "mobvc"]) == 2

    def test_arrivals_and_edges_beyond_size_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instances, "INSTANCE_SIZE_LIMIT", 3)
        doc = {"name": "x", "n_offline": 3, "f": {"family": "cardinality"},
               "arrivals": [{"id": 0, "nbrs": [0, 1]}, {"id": 1, "nbrs": [1, 2]}]}
        with pytest.raises(SizeError, match="edges = 4"):
            instance_from_dict(doc)
        doc["arrivals"] = [{"id": v, "nbrs": []} for v in range(4)]
        with pytest.raises(SizeError, match="m = 4"):
            instance_from_dict(doc)
        doc["arrivals"].pop()
        assert instance_from_dict(doc).m_online == 3

    @pytest.mark.parametrize("f", [
        {"family": "weighted_threshold", "weights": [float("nan"), 1.0], "cap": 1.0},
        {"family": "weighted_threshold", "weights": [1.0, 1.0], "cap": float("nan")},
        {"family": "partition_budget", "blocks": [[0], [1]], "caps": [1.0, float("nan")]},
        {"family": "partition_budget", "blocks": [[0], [1]], "caps": [1.0, 10 ** 400]},
        {"family": "explicit_table", "values": [0.0, 1.0, float("nan"), 1.0]},
        {"family": "explicit_table", "values": [0.0, 1.0, [1.0], 1.0]},
        {"family": "weighted_threshold", "weights": [1.0, 1.0], "cap": "1"},
        # bools and numeric strings loaded as the floats they equal or spell
        {"family": "partition_budget", "blocks": [[0, 1]], "caps": ["1"]},
        {"family": "partition_budget", "blocks": [[0, 1]], "caps": [True]},
        {"family": "weighted_threshold", "weights": ["0.5", 1], "cap": 1.0},
        {"family": "weighted_threshold", "weights": [0.5, 1], "cap": True},
        {"family": "explicit_table", "values": ["0", True, 1.0, 1.0]},
        {"family": "explicit_table", "values": [0.0, True, 1.0, 1.0]},
    ])
    def test_bad_budget_numbers(self, tmp_path, f):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(edge_instance(f)), encoding="utf-8")
        self.assert_rejected(path, "f:")

    @settings(max_examples=150, deadline=None)
    @given(value=json_values)
    def test_arbitrary_json(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("j") / "i.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        self.assert_rejected(path)

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=40))
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("b") / "i.json"
        path.write_bytes(raw)
        self.assert_rejected(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_node_changed(self, tmp_path_factory, data):
        g = GroundSet(4)
        f = data.draw(st.sampled_from([
            Cardinality(g), UniformRank(g, 2), PartitionBudget(g, [[0, 2], [1, 3]], [1, 1.5]),
            WeightedThreshold(g, [0.5, 1.0, 0.25, 2.0], 1.5), random_coverage_table(4, 1)]))
        doc = gen_random(4, 3, 0.6, f, seed=2).to_dict()
        parent, key = data.draw(st.sampled_from(list(_nodes(doc))))
        parent[key] = data.draw(json_values | st.integers(-3, 12)
                                | st.integers(10 ** 20, 10 ** 400))
        path = tmp_path_factory.mktemp("m") / "i.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load(path)
        except (ParseError, SizeError):
            assert main(["run", str(path), "--algorithm", "mobvc"]) == 2


def _nodes(doc):
    """(container, key) for every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


class TestSuites:
    def test_mixed_suite(self):
        suite = make_suite(count=60, n_max=10, m_max=10, seed=0)
        assert len(suite) >= 60
        families = {inst.f.family for inst in suite}
        assert families >= {"cardinality", "uniform_rank", "partition_budget",
                            "weighted_threshold", "explicit_table"}
        for inst in suite:
            assert 1 <= inst.n_offline <= 10
            assert 1 <= inst.m_online <= 10
            for a in inst.arrivals:
                assert all(0 <= u < inst.n_offline for u in a.nbrs)
            if inst.f.family == "explicit_table":
                assert verify_axioms(inst.f).ok
        assert len({inst.name for inst in suite}) == len(suite)

    def test_suite_deterministic(self):
        one = [i.to_dict() for i in make_suite(count=25, seed=4)]
        two = [i.to_dict() for i in make_suite(count=25, seed=4)]
        assert one == two

    def test_matroid_suite(self):
        suite = make_matroid_suite(count=20, n_max=8, m_max=8, seed=1)
        assert len(suite) >= 20
        for inst in suite:
            assert inst.n_offline <= 8 and inst.m_online <= 8
            assert is_matroid_rank(inst.f)
            # no loops: every singleton has rank 1
            for u in range(inst.n_offline):
                assert inst.f.value_mask(1 << u) == 1.0


def scalar_random_graph(n: int, m: int, p: float, seed: int) -> list[tuple[int, ...]]:
    """gen_random's neighbour lists restated one SplitMix64 draw at a time."""
    root = SplitMix64(seed)
    rows = []
    for j in range(m):
        stream = root.split(j + 1)
        rows.append(tuple(u for u in range(n) if stream.random() < p))
    return rows


@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
def test_gen_random_is_the_scalar_streams(n, seed):
    # p on a draw: the first draw of arrival 0, an exact multiple of 2^-53,
    # is not below itself, so it is no edge at that p; the next float up
    # lies strictly between two multiples when the draw is below 1/2
    on_draw = SplitMix64(seed).split(1).random()
    above = math.nextafter(on_draw, 1.0)
    for p in (0.0, 0.3, 0.5, 1.0, on_draw, above, 3 * 2.0 ** -53):
        rows = [a.nbrs for a in gen_random(n, 7, p, seed=seed).arrivals]
        assert rows == scalar_random_graph(n, 7, p, seed), (n, p, seed)
    assert 0 not in gen_random(n, 1, on_draw, seed=seed).arrivals[0].nbrs


def test_gen_random_file_bytes_are_pinned(tmp_path):
    # sha256 of the file the one-draw-at-a-time generator wrote
    path = tmp_path / "g.json"
    save(gen_random(200, 400, 0.3, seed=101), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8a95adb457986821e22fa56a12e75013b107db8032d964481b4fb050216ff90d")


@pytest.mark.parametrize("count", [0, 1, 48])
def test_stream_block_is_the_scalar_generator(count):
    # any int seeds, masked to 64 bits, including a run of seed + i that
    # crosses 2^64 as the trials' seeds may
    for seeds in ([0, 1, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5],
                  [2 ** 64 - 2 + i for i in range(4)]):
        block = instances._streams(seeds, count)
        assert block.dtype == np.uint64 and block.shape == (len(seeds), count)
        for seed, row in zip(seeds, block.tolist()):
            rng = SplitMix64(seed)
            assert row == [rng.next_u64() for _ in range(count)], seed


@given(st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=5), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_uniforms_are_the_scalar_random(seeds, count):
    block = instances._uniforms(seeds, count)
    assert block.dtype == np.float64 and block.shape == (len(seeds), count)
    for seed, row in zip(seeds, block.tolist()):
        rng = SplitMix64(seed)
        assert row == [rng.random() for _ in range(count)], seed


def test_one_splitmix64_in_src():
    # _streams is the package's one generator; the scalar class is the
    # tests' reference (helpers.SplitMix64)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(Path(instances.__file__).parent.glob("*.py"))]
    assert not any("class SplitMix64" in text for text in texts)
    # the golden-ratio increment and the two output multipliers
    for constant in ("0x9E3779B97F4A7C15", "0xBF58476D1CE4E5B9", "0x94D049BB133111EB"):
        assert sum(text.count(constant) for text in texts) == 1, constant


def scalar_coverage_table(n: int, seed: int, universe: int) -> list[float]:
    """random_coverage_table's values restated one SplitMix64 draw at a time."""
    rng = SplitMix64(seed)
    weights = [0.05 + rng.random() for _ in range(universe)]
    covers = [sum(1 << j for j in range(universe) if rng.random() < 0.45) for _ in range(n)]
    values = []
    for smask in range(1 << n):
        covered = 0
        for u in range(n):
            if smask >> u & 1:
                covered |= covers[u]
        values.append(sum(weights[j] for j in range(universe) if covered >> j & 1))
    return values


@pytest.mark.parametrize("seed", [0, 1, -1, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 70 + 5])
def test_coverage_table_is_the_scalar_streams(seed):
    for n, universe in ((1, 1), (3, None), (5, 2), (7, 64)):
        f = random_coverage_table(n, seed, universe)
        want = scalar_coverage_table(n, seed, 2 * n + 1 if universe is None else universe)
        assert f.table.tolist() == want, (n, universe)


def test_coverage_table_work_is_bounded():
    # the draws are one block allocated up front; a universe of 3 * 10^8
    # used to run until killed, and a universe of 0 built an all-zero table
    for universe in (0, -3):
        with pytest.raises(InputError, match=f"universe must be >= 1, got {universe}"):
            random_coverage_table(3, 1, universe)
    with pytest.raises(SizeError, match="universe \\* 2\\^n = 2400000000 exceeds"):
        random_coverage_table(3, 1, 300_000_000)
    edge = INSTANCE_SIZE_LIMIT >> 12
    assert random_coverage_table(12, 1, edge).ground.size == 12
    with pytest.raises(SizeError):
        random_coverage_table(12, 1, edge + 1)
    for spec in ("coverage:1:300000000", "coverage:1:0"):
        assert main(["generate", "random", "--n", "3", "--m", "2", "--f", spec]) == 2


def scalar_order(instance, model):
    """order_arrivals restated one SplitMix64 draw at a time."""
    arrivals = list(instance.arrivals)
    m = len(arrivals)
    rng = SplitMix64(model.seed)
    if model.kind == "timestamps":
        ts = {a.id: rng.random() for a in arrivals}
        return sorted(((a, ts[a.id]) for a in arrivals), key=lambda at: (at[1], at[0].id))
    if model.kind == "permutation":
        for i in range(m - 1, 0, -1):  # Fisher-Yates
            j = rng.randint(i + 1)
            arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
    return [(a, (i + 1) / m) for i, a in enumerate(arrivals)]


@pytest.mark.parametrize("kind", ArrivalModel.KINDS)
@pytest.mark.parametrize("m", [0, 1, 2, 5, 48, 300])
def test_arrival_models_are_the_scalar_streams(kind, m):
    # 200 seeds cross a block boundary at m = 48 (85 streams per block) and
    # m = 300 (13); the ids are shuffled so the id order is not the stored one
    rng = SplitMix64(m)
    ids = list(range(m))
    for i in range(m - 1, 0, -1):
        j = rng.randint(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    inst = Instance("x", 3, Cardinality(GroundSet(3)),
                    [Arrival(v, (v % 3,)) for v in ids])
    seeds = [0, -1, 2 ** 64 - 1, 2 ** 64 + 5] + list(range(2 ** 64 - 100, 2 ** 64 + 100))
    want = [scalar_order(inst, ArrivalModel(kind, s)) for s in seeds]
    assert list(arrival_orders(inst, kind, seeds)) == want
    assert [order_arrivals(inst, ArrivalModel(kind, s)) for s in seeds[:4]] == want[:4]


def test_arrival_orders_refuses_an_unknown_kind():
    with pytest.raises(InputError, match="unknown arrival model"):
        next(arrival_orders(gen_upper_triangular(3), "sorted", [0]))


def test_splitmix_stream_is_stable():
    # reference value of the first output for seed 0 (pins the generator spec)
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    a, b = SplitMix64(7), SplitMix64(7)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert all(0.0 <= SplitMix64(s).random() < 1.0 for s in range(20))
    # split streams are decoupled from the parent
    parent = SplitMix64(3)
    child = parent.split(1)
    assert child.next_u64() != SplitMix64(3).next_u64()


def test_edges_listing():
    inst = gen_upper_triangular(2)
    assert inst.edges() == [(0, 0), (1, 0), (1, 1)]


class TestInstanceBoundary:
    """Instance refuses what offline_opt and the runs would otherwise meet as
    a raw IndexError or a failed min-cut self-check."""

    def test_neighbor_above_range(self):
        # offline_opt and run_random_arrival_greedy raised IndexError here
        with pytest.raises(InputError, match="outside 0..2"):
            Instance("x", 3, Cardinality(GroundSet(3)), [Arrival(0, (7,)), Arrival(1, (0,))])

    def test_neighbor_below_range(self):
        with pytest.raises(InputError, match="outside 0..2"):
            Instance("x", 3, Cardinality(GroundSet(3)), [Arrival(0, (-1, 0))])

    def test_n_offline_differs_from_budget(self):
        # offline_opt raised InvariantError: min cut 1.0 differs from max flow 0.0
        with pytest.raises(InputError, match="n_offline = 5"):
            Instance("x", 5, Cardinality(GroundSet(3)), [Arrival(0, (0,))])

    @pytest.mark.parametrize("nbrs", [5, (1, "x"), [[0]], None], ids=["int", "mixed", "nested",
                                                                        "null"])
    def test_nbrs_that_are_no_id_list_refused(self, nbrs):
        # Arrival sorts its neighbours first: a raw TypeError ("'int' object
        # is not iterable", "'<' not supported") before any check ran
        with pytest.raises(InputError, match=re.escape(
                f"arrival 0: nbrs must be a list of int ids, got {nbrs!r}")):
            Arrival(0, nbrs)

    def test_duplicate_online_id(self):
        with pytest.raises(InputError, match="share an online id"):
            Instance("x", 3, Cardinality(GroundSet(3)), [Arrival(1, (0,)), Arrival(1, (2,))])

    @pytest.mark.parametrize("nbr", [0.5, 1.0, True, np.bool_(True), "1", None],
                             ids=["half", "float", "bool", "numpy-bool", "string", "null"])
    def test_non_integer_neighbor(self, nbr):
        # neither run may get one: greedy-ra raised a raw TypeError on 0.5
        # and matched True as element 1
        f = Cardinality(GroundSet(3))
        for run in (run_mobvc, run_random_arrival_greedy):
            with pytest.raises(InputError, match="is not an int"):
                run(Instance("x", 3, f, [Arrival(1, (0,)), Arrival(0, (nbr,))]))

    @pytest.mark.parametrize("vid", [0.0, 1.5, True, np.bool_(False), "1", None],
                             ids=["float", "half", "bool", "numpy-bool", "string", "null"])
    def test_non_integer_arrival_id(self, vid):
        # a run of such an instance wrote z keys that no check takes as online ids
        with pytest.raises(InputError, match=re.escape(f"arrival id {vid!r} is not an int")):
            Instance("x", 3, Cardinality(GroundSet(3)), [Arrival(1, (0,)), Arrival(vid, (2,))])

    def test_numpy_int_arrival_ids_become_ints(self):
        f = Cardinality(GroundSet(3))
        inst = Instance("x", 3, f, [Arrival(np.int64(4), (0,)), Arrival(np.uint8(1), (1,))])
        assert [a.id for a in inst.arrivals] == [4, 1]
        assert all(type(a.id) is int for a in inst.arrivals)
        assert list(inst.masks) == [4, 1]

    def test_numpy_int_neighbors_become_ints(self):
        f = Cardinality(GroundSet(3))
        inst = Instance("x", 3, f, [Arrival(0, (np.int64(2), np.uint8(0))), Arrival(1, (1,))])
        assert [a.nbrs for a in inst.arrivals] == [(0, 2), (1,)]
        assert all(type(u) is int for a in inst.arrivals for u in a.nbrs)
        assert run_random_arrival_greedy(inst).state.matched == {0, 1}
        with pytest.raises(InputError, match="outside 0..2"):
            Instance("x", 3, f, [Arrival(0, (np.int64(3),))])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_masks_are_as_mask_of_the_neighbors(self, data):
        # one mask per online id, in arrival order, from neighbour lists that
        # may be empty, repeat an id, or hold numpy ints; n passes 64 bits
        n = data.draw(st.integers(0, 70))
        vids = data.draw(st.lists(st.integers(-3, 2 ** 70), max_size=6, unique=True))
        as_int = st.sampled_from([int, np.int64, np.uint16])
        ids = st.lists(st.integers(0, n - 1), max_size=9) if n else st.just([])
        nbrs = [[data.draw(as_int)(u) for u in data.draw(ids)] for _ in vids]
        inst = Instance("x", n, Cardinality(GroundSet(n)),
                        [Arrival(vid, tuple(us)) for vid, us in zip(vids, nbrs)])
        assert list(inst.masks) == vids
        for vid, us in zip(vids, nbrs):
            assert inst.masks[vid] == as_mask(inst.ground, us)

    def test_edges_of_the_range_and_empty_arrivals(self):
        f = Cardinality(GroundSet(3))
        assert Instance("x", 3, f, [Arrival(0, (0, 2)), Arrival(1, ())]).m_online == 2
        assert Instance("empty", 0, Cardinality(GroundSet(0))).m_online == 0


# ---------------------------------------------------------------------------
# The instance writer
# ---------------------------------------------------------------------------

NAMES = st.text(st.characters(codec="utf-8"), max_size=12)


@st.composite
def written_instances(draw):
    """Instances of every family, with empty arrival lists and neighbour
    lists, any Unicode name, and infinite and non-integral caps and
    weights; never a budget with an infinite value, which is refused."""
    n = draw(st.integers(0, 7))
    g = GroundSet(n)
    caps = st.one_of(st.integers(0, 3), st.sampled_from([0.5, 1e-300, 2.5e17, math.inf]),
                     st.floats(0.0, 10.0))
    finite = caps.filter(math.isfinite)
    family = draw(st.sampled_from(["cardinality", "uniform", "partition", "weighted", "table"]))
    if family == "cardinality":
        f = Cardinality(g)
    elif family == "uniform":
        f = UniformRank(g, draw(st.integers(0, n + 1)))
    elif family == "partition":
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [b for b in ([u for u in range(n) if ids[u] == k] for k in range(3)) if b]
        f = PartitionBudget(g, blocks, [draw(caps) for _ in blocks])
    elif family == "weighted":
        weights = [draw(caps) for _ in range(n)]
        f = WeightedThreshold(g, weights, draw(finite if math.inf in weights else caps))
    else:
        f = ExplicitTable(g, [draw(finite) for _ in range(1 << n)])
    m = draw(st.integers(0, 4))
    nbrs = st.lists(st.integers(0, n - 1), unique=True) if n else st.just([])
    arrivals = [Arrival(v, tuple(draw(nbrs))) for v in range(m)]
    return Instance(draw(NAMES), n, f, arrivals)


@settings(max_examples=300, deadline=None)
@given(inst=written_instances())
def test_writer_is_json_dumps_indented(tmp_path_factory, inst):
    want = json.dumps(inst.to_dict(), indent=2, sort_keys=True)
    assert indented_json(inst.to_dict()) == want
    path = tmp_path_factory.mktemp("w") / "i.json"
    save(inst, path)
    assert path.read_bytes() == (want + "\n").encode("utf-8")


def test_writer_on_large_and_golden_instances(tmp_path, capsys):
    for d in (gen_random(200, 400, 0.3, seed=101).to_dict(),
              json.loads((Path(__file__).parent / "golden" / "tri3.json").read_text()),
              json.loads((Path(__file__).parent / "golden" / "random-coverage.json").read_text())):
        assert indented_json(d) == json.dumps(d, indent=2, sort_keys=True)
    # generate's stdout is the file save writes
    path = tmp_path / "g.json"
    assert main(["generate", "random", "--n", "5", "--m", "4", "--p", "0.5",
                 "--f", "partition:0,0,1,1,1:1.5,inf", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["generate", "random", "--n", "5", "--m", "4", "--p", "0.5",
                 "--f", "partition:0,0,1,1,1:1.5,inf"]) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")
