"""Trace format 4: exact round trips, the fields a file keeps, and hostile
input (load_trace raises ParseError, the CLI exits 2, never a traceback)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch.algorithms import (
    TRACE_FORMAT,
    GreedyRound,
    WaterfillRound,
    load_trace,
    run_mobm_pd,
    run_mobvc,
    run_obvc,
    run_random_arrival_greedy,
    save_trace,
)
from matroidmatch.cli import main
from matroidmatch.constants import ALPHA
from matroidmatch.errors import ParseError
from matroidmatch.instances import ArrivalModel, gen_random, save
from matroidmatch.submodular import GroundSet, UniformRank, WeightedThreshold

ALGORITHMS = ("obvc", "mobvc", "mobm-pd", "greedy-ra")


def _instances():
    card = gen_random(6, 8, 0.5, seed=3)
    weighted = gen_random(6, 8, 0.5, seed=4, f=WeightedThreshold(
        GroundSet(6), [0.5, 1.0, 0.25, 0.75, 1.5, 0.5], 2.0))
    matroid = gen_random(6, 8, 0.5, seed=5, f=UniformRank(GroundSet(6), 3))
    return {"obvc": card, "mobvc": weighted, "mobm-pd": weighted, "greedy-ra": matroid}


INSTANCES = _instances()


def run(alg):
    inst = INSTANCES[alg]
    if alg == "greedy-ra":
        return run_random_arrival_greedy(inst, ArrivalModel("timestamps", 1))
    return {"obvc": run_obvc, "mobvc": run_mobvc, "mobm-pd": run_mobm_pd}[alg](inst)


TRACE_DICTS = {alg: json.loads(json.dumps(run(alg).to_dict())) for alg in ALGORITHMS}


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestFormat:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_round_trip_is_equal(self, tmp_path, alg):
        trace = run(alg)
        save_trace(trace, tmp_path / "t.json")
        back = load_trace(tmp_path / "t.json")
        assert back == trace
        kind = GreedyRound if alg == "greedy-ra" else WaterfillRound
        assert trace.rounds and all(type(r) is kind for r in back.rounds)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_one_line_of_compact_sorted_json(self, tmp_path, alg):
        save_trace(run(alg), tmp_path / "t.json")
        text = (tmp_path / "t.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert data["format"] == TRACE_FORMAT == 4

    def test_round_fields(self):
        pd_round = next(r for r in TRACE_DICTS["mobm-pd"]["rounds"] if r["regions"])
        assert set(pd_round) == {"v", "a", "X", "regions"}
        assert set(pd_round["regions"][0]) == {"lo", "hi", "old_height", "new_height"}
        for r in TRACE_DICTS["greedy-ra"]["rounds"]:
            assert set(r) == {"v", "t", "X", "matched"}

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_final_block_the_benchmark_reads(self, alg):
        # bench/workloads.py reads these keys and shapes straight from the JSON
        final = TRACE_DICTS[alg]["final"]
        assert set(final) == {"y", "z", "x", "matched_offline", "primal_value", "dual_value"}
        assert len(final["y"]) == INSTANCES[alg].n_offline
        assert all(type(v) is int and type(zv) is float for v, zv in final["z"])
        assert all(type(u) is int and type(v) is int and type(val) is float
                   for u, v, val in final["x"])
        assert final["matched_offline"] == sorted(final["matched_offline"])
        if alg in ("mobm-pd", "greedy-ra"):
            assert final["x"] and final["primal_value"] > 0
        if alg == "greedy-ra":
            assert sorted(u for u, _, _ in final["x"]) == final["matched_offline"]

    @pytest.mark.parametrize("found", [1, 2, pytest.param(3, id="format-3"), "3", None,
                                       "missing"])
    def test_other_versions_rejected(self, tmp_path, found):
        data = dict(TRACE_DICTS["mobvc"])
        if found == "missing":
            del data["format"]
            named = 'trace format 1 (no "format" field)'
        else:
            data["format"] = found
            named = f"trace format {found!r}"
        with pytest.raises(ParseError, match="re-run") as err:
            load_trace(write_json(tmp_path / "t.json", data))
        assert named in str(err.value)

    def test_out_of_range_ids_and_levels_rejected(self, tmp_path):
        cases = [("X", [0, 6]), ("X", [-1]), ("a", 1.5), ("a", float("nan")),
                 ("a", float("inf"))]
        for key, value in cases:
            data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
            data["rounds"][0][key] = value
            with pytest.raises(ParseError):
                load_trace(write_json(tmp_path / "t.json", data))
        data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
        data["final"]["y"].pop()
        with pytest.raises(ParseError, match="final potentials"):
            load_trace(write_json(tmp_path / "t.json", data))

    @pytest.mark.parametrize("lo, hi", [(-ALPHA, 0.5), (-2.0, 0.5), (0.5, 1.5), (0.6, 0.5)])
    def test_region_outside_the_chart_rejected(self, tmp_path, capsys, lo, hi):
        # lo = -ALPHA would divide by zero in the charge integral
        data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
        region = next(r for rec in data["rounds"] for r in rec["regions"])
        region["lo"], region["hi"] = lo, hi
        trace = write_json(tmp_path / "t.json", data)
        with pytest.raises(ParseError, match="outside"):
            load_trace(trace)
        save(INSTANCES["mobvc"], tmp_path / "i.json")
        assert main(["audit", str(trace), "--instance", str(tmp_path / "i.json")]) == 2


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=25)


def node_paths(data, path=(), is_field=False):
    """(path, is_field) for every node of a trace dict: every dict entry is
    a schema field."""
    yield path, is_field
    if isinstance(data, dict):
        for key, value in data.items():
            yield from node_paths(value, path + (key,), True)
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from node_paths(value, path + (i,))


def at(data, path):
    for key in path:
        data = data[key]
    return data


def delete_field(data, path):
    data = json.loads(json.dumps(data))
    del at(data, path[:-1])[path[-1]]
    return data


def replace(data, path, value):
    if not path:
        return value
    data = json.loads(json.dumps(data))
    at(data, path[:-1])[path[-1]] = value
    return data


def wrong_types(value):
    """Replacements no position of the schema accepts in place of value:
    bools are never numbers or ids, and a string stands only where one was."""
    return [True, 7] if isinstance(value, str) else [True, "?"]


@st.composite
def broken_traces(draw):
    """A valid trace with one schema field deleted or one node retyped."""
    data = TRACE_DICTS[draw(st.sampled_from(ALGORITHMS))]
    paths = list(node_paths(data))
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p, is_field in paths if is_field]))
        return delete_field(data, path)
    path = draw(st.sampled_from([p for p, _ in paths]))
    return replace(data, path, draw(st.sampled_from(wrong_types(at(data, path)))))


@st.composite
def perturbed_traces(draw):
    """A valid trace with one number replaced by another: possibly wrong,
    out of range, or an integer where a float stood or the reverse."""
    data = TRACE_DICTS[draw(st.sampled_from(ALGORITHMS))]
    numeric = [p for p, _ in node_paths(data)
               if type(at(data, p)) in (int, float) and p]
    path = draw(st.sampled_from(numeric))
    value = draw(st.integers(-3, 12) | st.floats(-1e300, 1e300) | st.integers(10**20, 10**400))
    return replace(data, path, value)


class TestHostileInput:
    @settings(max_examples=200, deadline=None)
    @given(value=json_values)
    def test_arbitrary_json(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("j") / "t.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        with pytest.raises(ParseError):
            load_trace(path)

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=40))
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("b") / "t.json"
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            load_trace(path)

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ParseError):
            load_trace(path)

    @settings(max_examples=300, deadline=None)
    @given(data=broken_traces())
    def test_deleted_or_retyped_field(self, tmp_path_factory, data):
        path = write_json(tmp_path_factory.mktemp("d") / "t.json", data)
        with pytest.raises(ParseError):
            load_trace(path)

    @settings(max_examples=60, deadline=None)
    @given(data=broken_traces() | perturbed_traces())
    def test_cli_never_raises(self, tmp_path_factory, data):
        algorithm = data.get("algorithm") if isinstance(data, dict) else None
        inst = INSTANCES.get(algorithm, INSTANCES["mobvc"])
        tmp = tmp_path_factory.mktemp("c")
        save(inst, tmp / "i.json")
        trace = write_json(tmp / "t.json", data)
        for command in ("verify", "audit"):
            rc = main([command, str(trace), "--instance", str(tmp / "i.json")])
            assert rc in (0, 1, 2)


# ---------------------------------------------------------------------------
# Every stored number is checked
# ---------------------------------------------------------------------------

OFFLINE_ID_FIELDS = ("X", "matched", "matched_offline")


def id_kind(path) -> str | None:
    """'offline' or 'online' when the number at path is an element or
    arrival id, else None."""
    if path[0] == "rounds":
        if path[2] == "v":
            return "online"
        return "offline" if path[2] in OFFLINE_ID_FIELDS else None
    if path[:2] == ("final", "z"):
        return "online" if path[3] == 0 else None
    if path[:2] == ("final", "x"):
        return {0: "offline", 1: "online"}.get(path[3])
    return "offline" if path[-2:-1] == ("matched_offline",) else None


class TestEveryNumberChecked:
    """Changing any stored number of a valid trace makes verify fail: ids
    become a different valid id, every other number moves by 0.25. The
    greedy timestamps t are the exception, since verify replays the run at
    the stored timestamps."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_each_number(self, tmp_path, capsys, alg):
        inst = INSTANCES[alg]
        ipath = tmp_path / "i.json"
        save(inst, ipath)
        online = [arr.id for arr in inst.arrivals]
        data = TRACE_DICTS[alg]
        tpath = write_json(tmp_path / "t.json", data)
        assert main(["verify", str(tpath), "--instance", str(ipath)]) == 0
        changed = 0
        for path, _ in node_paths(data):
            value = at(data, path)
            if type(value) not in (int, float) or path[-1:] == ("t",):
                continue
            kind = id_kind(path)
            if kind == "offline":
                new = (value + 1) % inst.n_offline
            elif kind == "online":
                new = online[(online.index(value) + 1) % len(online)]
            else:
                new = value + 0.25
            write_json(tpath, replace(data, path, new))
            rc = main(["verify", str(tpath), "--instance", str(ipath)])
            assert rc in (1, 2), (path, value, new)
            changed += 1
        capsys.readouterr()
        assert changed > 40

    def test_pd_rounds_reads_the_stored_x(self, tmp_path, capsys):
        # a round's dP is derived from final.x, so pd-rounds fails on a
        # changed x entry, and so does the replay
        data = json.loads(json.dumps(TRACE_DICTS["mobm-pd"]))
        data["final"]["x"][0][2] += 0.25
        save(INSTANCES["mobm-pd"], tmp_path / "i.json")
        tpath = write_json(tmp_path / "t.json", data)
        assert main(["verify", str(tpath), "--instance", str(tmp_path / "i.json")]) == 1
        out = capsys.readouterr().out
        assert "FAIL pd-rounds" in out and "FAIL replay-match" in out
