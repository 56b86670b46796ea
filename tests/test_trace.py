"""Trace format 9: exact round trips, the fields a file keeps, and hostile
input (load_trace raises ParseError, the CLI exits 2, never a traceback)."""

import json
import math
from pathlib import Path

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
from matroidmatch.errors import InvariantError, ParseError
from matroidmatch.instances import ArrivalModel, gen_random, random_coverage_table, save
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
)

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


def set_region_bounds(data, i, lo, hi):
    """Give region i of a waterfilling trace dict the bounds lo and hi, and
    write the bounds column again the way save_trace does."""
    rounds = data["rounds"]
    bounds = rounds["bounds"]
    los, his = [bounds[j] for j in rounds["lo"]], [bounds[j] for j in rounds["hi"]]
    los[i], his[i] = lo, hi
    rounds["bounds"] = sorted(set(los) | set(his))
    index = {b: j for j, b in enumerate(rounds["bounds"])}
    rounds["lo"], rounds["hi"] = [index[b] for b in los], [index[b] for b in his]


@st.composite
def small_runs(draw, max_n=8):
    """A run of any of the four algorithms on a small random instance, under
    every budget family its algorithm takes."""
    n = draw(st.integers(1, max_n))
    g = GroundSet(n)
    alg = draw(st.sampled_from(ALGORITHMS))
    budgets = [Cardinality(g), UniformRank(g, draw(st.integers(0, n))),
               PartitionBudget(g, [range(0, n, 2), range(1, n, 2)],
                               draw(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=2)))]
    if alg in ("mobvc", "mobm-pd"):
        budgets.append(WeightedThreshold(g, draw(st.lists(st.floats(0.0, 2.0), min_size=n,
                                                          max_size=n)), 1.5))
    f = Cardinality(g) if alg == "obvc" else draw(st.sampled_from(budgets))
    inst = gen_random(n, draw(st.integers(0, 10)), draw(st.floats(0.0, 1.0)), f,
                      seed=draw(st.integers(0, 2 ** 64 - 1)))
    if alg == "greedy-ra":
        return run_random_arrival_greedy(inst, ArrivalModel(
            draw(st.sampled_from(ArrivalModel.KINDS)), draw(st.integers(0, 99))))
    return {"obvc": run_obvc, "mobvc": run_mobvc, "mobm-pd": run_mobm_pd}[alg](inst)


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mobm_pd_round_trip_every_family(self, tmp_path_factory, data):
        # x goes to disk as a column aligned with X, null where a round gave
        # an element nothing; loading rebuilds the same state.x
        n = data.draw(st.integers(1, 8))
        g = GroundSet(n)
        f = data.draw(st.sampled_from([
            Cardinality(g), UniformRank(g, data.draw(st.integers(0, n))),
            PartitionBudget(g, [range(0, n, 2), range(1, n, 2)],
                            data.draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0]),
                                               min_size=2, max_size=2))),
            WeightedThreshold(g, data.draw(st.lists(st.floats(0.0, 2.0), min_size=n,
                                                    max_size=n)), data.draw(st.floats(0.0, 3.0))),
            random_coverage_table(n, data.draw(st.integers(0, 99)))]))
        inst = gen_random(n, data.draw(st.integers(0, 10)), data.draw(st.floats(0.0, 1.0)), f,
                          seed=data.draw(st.integers(0, 2 ** 64 - 1)))
        trace = run_mobm_pd(inst)
        tmp = tmp_path_factory.mktemp("r")
        save_trace(trace, tmp / "t.json")
        back = load_trace(tmp / "t.json")
        assert back == trace
        rounds = json.loads((tmp / "t.json").read_text(encoding="utf-8"))["rounds"]
        col, table = rounds["x"], rounds["x_values"]
        assert len(col) - col.count(None) == len(trace.state.x)
        assert all(a < b for a, b in zip(table, table[1:]))
        assert {i for i in col if i is not None} == set(range(len(table)))
        save_trace(back, tmp / "again.json")
        assert (tmp / "again.json").read_bytes() == (tmp / "t.json").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(trace=small_runs())
    def test_round_trip_every_algorithm(self, tmp_path_factory, trace):
        # load(save(t)) == t, and the duals a trace does not store (every z,
        # and greedy-ra's y) load equal to the run's to the bit
        tmp = tmp_path_factory.mktemp("a")
        save_trace(trace, tmp / "t.json")
        back = load_trace(tmp / "t.json")
        assert back == trace
        assert [v.hex() for v in back.state.y] == [v.hex() for v in trace.state.y]
        assert ({v: z.hex() for v, z in back.state.z.items()}
                == {v: z.hex() for v, z in trace.state.z.items()})
        save_trace(back, tmp / "again.json")
        assert (tmp / "again.json").read_bytes() == (tmp / "t.json").read_bytes()

    def test_absent_and_zero_x_entries_round_trip(self, tmp_path):
        # a partition budget leaves raised elements without x; an x entry of
        # 0.0 (or -0.0) is present and must stay so
        f = PartitionBudget(GroundSet(8), [range(0, 8, 2), range(1, 8, 2)], [1.0, 2.0])
        trace = run_mobm_pd(gen_random(8, 12, 0.5, f, seed=3))
        x = trace.state.x
        keys = [(u, rec.v) for rec in trace.rounds for u in rec.X]
        assert len(x) < len(keys)
        first, second = [k for k in keys if k in x][:2]
        x[first], x[second] = 0.0, -0.0
        path = tmp_path / "t.json"
        save_trace(trace, path)
        rounds = json.loads(path.read_text(encoding="utf-8"))["rounds"]
        col, table = rounds["x"], rounds["x_values"]
        assert col.count(None) == len(keys) - len(x)
        # the two zeros get two table entries, -0.0 first
        zero, minus_zero = table[col[keys.index(first)]], table[col[keys.index(second)]]
        assert col[keys.index(second)] + 1 == col[keys.index(first)]
        assert math.copysign(1.0, zero) == 1.0 and math.copysign(1.0, minus_zero) == -1.0
        back = load_trace(path)
        assert back == trace
        assert math.copysign(1.0, back.state.x[second]) == -1.0

    @pytest.mark.parametrize("alg", ["obvc", "mobvc", "mobm-pd"])
    def test_x_outside_the_rounds_is_not_written(self, tmp_path, alg):
        # the x column holds only entries within their round's X, and cover
        # traces hold none
        trace = run(alg)
        v = trace.rounds[0].v
        trace.state.x[next(u for u in range(6) if u not in trace.rounds[0].X), v] = 0.5
        with pytest.raises(InvariantError):
            save_trace(trace, tmp_path / "t.json")

    @pytest.mark.parametrize("alg, key", [("obvc", "z"), ("mobvc", "z"), ("mobm-pd", "z"),
                                          ("greedy-ra", "z"), ("greedy-ra", "y")])
    def test_state_the_rounds_contradict_is_not_written(self, tmp_path, alg, key):
        # the rounds fix z (and all of a greedy-ra state): a file cannot hold
        # another value, so saving one would load back to what they fix
        trace = run(alg)
        values = getattr(trace.state, key)
        first = next(iter(values.keys() if key == "z" else range(len(values))))
        values[first] += 0.25
        with pytest.raises(InvariantError, match=rf"state\.{key} differs"):
            save_trace(trace, tmp_path / "t.json")

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_whitespace_and_key_order_are_not_form(self, tmp_path, alg):
        # the form is the JSON structure: indented, with every object's keys
        # in reverse order, a trace loads to the same run
        def reverse_keys(obj):
            if isinstance(obj, dict):
                return {key: reverse_keys(obj[key]) for key in sorted(obj, reverse=True)}
            return obj
        path = tmp_path / "t.json"
        path.write_text(json.dumps(reverse_keys(TRACE_DICTS[alg]), indent=2), encoding="utf-8")
        assert list(json.loads(path.read_text(encoding="utf-8"))) == sorted(TRACE_DICTS[alg],
                                                                            reverse=True)
        assert load_trace(path) == run(alg)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_one_line_of_compact_sorted_json(self, tmp_path, alg):
        save_trace(run(alg), tmp_path / "t.json")
        text = (tmp_path / "t.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert data["format"] == TRACE_FORMAT == 9

    def test_readme_names_the_format(self):
        # a format bump must not leave the docs behind
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        assert f"trace format {TRACE_FORMAT}" in readme
        assert f"`format` ({TRACE_FORMAT})" in readme

    def test_round_fields(self):
        columns = {"v", "a", "X", "regions", "bounds", "lo", "hi", "old_height", "new_height"}
        pd_rounds = TRACE_DICTS["mobm-pd"]["rounds"]
        assert set(pd_rounds) == columns | {"x", "x_values"}
        assert sum(pd_rounds["regions"]) == len(pd_rounds["lo"]) > 0
        assert len(pd_rounds["x"]) == sum(map(len, pd_rounds["X"]))
        assert set(TRACE_DICTS["obvc"]["rounds"]) == set(TRACE_DICTS["mobvc"]["rounds"]) == columns
        assert set(TRACE_DICTS["greedy-ra"]["rounds"]) == {"v", "t", "X", "matched"}

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_final_block_the_benchmark_reads(self, alg):
        # bench/workloads.py reads from the JSON a mobvc trace's final.y
        # (certify-n20 moves a potential and expects verify to fail) and a
        # greedy-ra trace's final.x rows and matched_offline (random-arrival-n16
        # checks the matching from them). mobm-pd keeps its x in the rounds.
        # Nothing else is stored that the rounds fix: no trace holds final.z,
        # and greedy-ra holds no final.y. primal_value is always a float.
        final = TRACE_DICTS[alg]["final"]
        if alg == "greedy-ra":
            assert set(final) == {"x", "matched_offline", "primal_value", "dual_value"}
            assert all(type(u) is int and type(v) is int and type(val) is float
                       for u, v, val in final["x"])
            assert final["x"] and final["primal_value"] > 0
            assert sorted(u for u, _, _ in final["x"]) == final["matched_offline"]
        else:
            assert set(final) == {"y", "primal_value", "dual_value"}
            assert len(final["y"]) == INSTANCES[alg].n_offline
        assert type(final["primal_value"]) is float
        if alg == "mobm-pd":
            rounds = TRACE_DICTS[alg]["rounds"]
            assert all(i is None or type(i) is int for i in rounds["x"])
            assert all(type(val) is float for val in rounds["x_values"])
            assert rounds["x_values"] and final["primal_value"] > 0

    @pytest.mark.parametrize("found", [1, 2, pytest.param(3, id="format-3"),
                                       pytest.param(4, id="format-4"),
                                       pytest.param(5, id="format-5"),
                                       pytest.param(6, id="format-6"),
                                       pytest.param(7, id="format-7"),
                                       pytest.param(8, id="format-8"), "3", None, "missing"])
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
            data["rounds"][key][0] = value
            with pytest.raises(ParseError):
                load_trace(write_json(tmp_path / "t.json", data))
        data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
        data["final"]["y"].pop()
        with pytest.raises(ParseError, match="final potentials"):
            load_trace(write_json(tmp_path / "t.json", data))

    @pytest.mark.parametrize("lo, hi", [(-ALPHA, 0.5), (-2.0, 0.5), (0.5, 1.5), (0.6, 0.5)])
    def test_region_outside_the_chart_rejected(self, tmp_path, capsys, lo, hi):
        # lo = -ALPHA would divide by zero in the charge integral; the first
        # region gets these bounds, and bounds is rebuilt as save_trace would
        data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
        set_region_bounds(data, 0, lo, hi)
        trace = write_json(tmp_path / "t.json", data)
        with pytest.raises(ParseError, match="outside" if lo < 0 or hi > 1 else "lo <= hi"):
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


PD_COLUMNS = ("v", "a", "X", "regions", "bounds", "lo", "hi", "old_height", "new_height", "x",
              "x_values")
GREEDY_COLUMNS = ("v", "t", "X", "matched")
FLOAT_POSITIONS = {
    "mobm-pd": [("rounds", key, 0)
                for key in ("a", "bounds", "lo", "hi", "old_height", "new_height", "x")]
    + [("final", "y", 0)],
    "greedy-ra": [("rounds", "t", 0), ("final", "x", 0, 2)],
}
INT_POSITIONS = {
    "mobm-pd": [("rounds", "v", 0), ("rounds", "regions", 0), ("rounds", "X", 0, 0)],
    "greedy-ra": [("rounds", "v", 0), ("rounds", "matched", 0), ("rounds", "X", 0, 0),
                  ("final", "x", 0, 0), ("final", "x", 0, 1), ("final", "matched_offline", 0)],
}
# json.dumps cannot write the literal 1e999 (JSON for a float beyond range,
# read back as inf), so the test writes it in place of this marker
TEXT_1E999 = "<1e999>"


def set_at(path, value):
    def edit(data):
        at(data, path[:-1])[path[-1]] = value
    return edit


def pop_at(path):
    return lambda data: at(data, path).pop()


def x_column(data):
    # one null per raised id: the length a mobm-pd column would have
    data["rounds"]["x"] = [None] * sum(map(len, data["rounds"]["X"]))


def repeat_first_row(key, value_at, value):
    # a row naming the same id(s) as the first, with another value, put
    # before it: a reader that lets the later row win sees the true value
    def edit(data):
        rows = data["final"][key]
        rows.insert(0, rows[0][:value_at] + [value])
    return edit


def final_x_rows(data):
    data["final"]["x"] = [[u, v, 0.5] for v, X in zip(data["rounds"]["v"], data["rounds"]["X"])
                          for u in X]


def final_x_rows_with_bool(index):
    # format 5's place for a mobm-pd run's x, its first row holding a bool id
    def edit(data):
        final_x_rows(data)
        data["final"]["x"][0][index] = True
    return edit


def reverse_longest_X(data):
    # test_unordered_X_rejected covers a repeated id
    max(data["rounds"]["X"], key=len).reverse()


def count_sum_above(data):
    data["rounds"]["regions"][0] += 1


def negative_count(data):
    # the counts still add up to the number of regions
    counts = data["rounds"]["regions"]
    counts[1] += counts[0] + 1
    counts[0] = -1


def swap_first_lo_hi(data):
    rounds = data["rounds"]
    rounds["lo"][0], rounds["hi"][0] = rounds["hi"][0], rounds["lo"][0]


def hostile_columns():
    cases = []
    for alg, keys in (("mobm-pd", PD_COLUMNS), ("greedy-ra", GREEDY_COLUMNS)):
        cases += [pytest.param(alg, pop_at(("rounds", key)), id=f"{alg}-short-{key}")
                  for key in keys]
        for path in INT_POSITIONS[alg]:
            name = "-".join(map(str, path))
            cases.append(pytest.param(alg, set_at(path, True), id=f"{alg}-bool-{name}"))
        for path in FLOAT_POSITIONS[alg]:
            name = "-".join(map(str, path))
            for label, value in (("bool", True), ("string", "0.5"), ("nan", math.nan),
                                 ("inf", math.inf), ("-inf", -math.inf),
                                 ("1e999", TEXT_1E999)):
                cases.append(pytest.param(alg, set_at(path, value), id=f"{alg}-{label}-{name}"))
        cases.append(pytest.param(alg, set_at(("rounds", "X", 0), [6]), id=f"{alg}-X-above-n"))
        cases.append(pytest.param(alg, set_at(("rounds", "X", 0), [-1]), id=f"{alg}-X-negative"))
    pd = "mobm-pd"
    cases += [
        pytest.param(pd, lambda data: data["rounds"]["x"].append(0.5), id="long-x-column"),
        pytest.param("mobvc", x_column, id="x-column-on-mobvc"),
        pytest.param("obvc", x_column, id="x-column-on-obvc"),
        pytest.param("greedy-ra", x_column, id="x-column-on-greedy-ra"),
        pytest.param(pd, final_x_rows, id="final-x-on-mobm-pd"),
        pytest.param(pd, final_x_rows_with_bool(0), id="mobm-pd-bool-final-x-0-0"),
        pytest.param(pd, final_x_rows_with_bool(1), id="mobm-pd-bool-final-x-0-1"),
        pytest.param("mobvc", final_x_rows, id="final-x-on-mobvc"),
        pytest.param(pd, reverse_longest_X, id="descending-X"),
        pytest.param("greedy-ra", reverse_longest_X, id="greedy-descending-X"),
        pytest.param(pd, count_sum_above, id="count-sum-above"),
        pytest.param(pd, negative_count, id="negative-count"),
        pytest.param(pd, swap_first_lo_hi, id="lo-above-hi"),
        pytest.param(pd, set_at(("rounds", "lo", 0), -1), id="lo-negative"),
        pytest.param(pd, set_at(("rounds", "bounds", -1), 1.25), id="hi-above-1"),
        pytest.param(pd, set_at(("rounds", "a", 0), -0.25), id="a-negative"),
        pytest.param(pd, set_at(("rounds", "a", 0), 1.25), id="a-above-1"),
        pytest.param("greedy-ra", repeat_first_row("x", 2, 7.0), id="repeated-final-x-pair"),
        pytest.param("greedy-ra", lambda data: data["final"]["matched_offline"].append(
            data["final"]["matched_offline"][0]), id="repeated-matched-offline-id"),
        pytest.param("greedy-ra", lambda data: data["final"]["matched_offline"].append(99),
                     id="matched-offline-id-above-n"),
        pytest.param("greedy-ra", set_at(("final", "matched_offline"), [-1]),
                     id="matched-offline-id-negative"),
    ]
    return cases


def assert_refused(tmp_path, capsys, alg, edit, match=None):
    """Apply edit to a copy of alg's trace dict and write it, TEXT_1E999 as
    the literal 1e999: load_trace raises a ParseError (matching match, when
    given), and verify and audit exit 2."""
    data = json.loads(json.dumps(TRACE_DICTS[alg]))
    edit(data)
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(data).replace(f'"{TEXT_1E999}"', "1e999"), encoding="utf-8")
    with pytest.raises(ParseError, match=match):
        load_trace(tpath)
    save(INSTANCES[alg], tmp_path / "i.json")
    for command in ("verify", "audit"):
        assert main([command, str(tpath), "--instance", str(tmp_path / "i.json")]) == 2
    capsys.readouterr()


def stale_z(data):
    # final.z as format 8 wrote it, 1 - a at each round's v (any rows for greedy-ra)
    rounds = data["rounds"]
    levels = rounds.get("a", [0.5] * len(rounds["v"]))
    data["final"]["z"] = sorted([v, 1.0 - a] for v, a in zip(rounds["v"], levels))


def repeat_first_v(data):
    data["rounds"]["v"][1] = data["rounds"]["v"][0]


# What format 9 leaves out or rebuilds: the final block holds exactly its
# algorithm's keys, a round v may not repeat (z is keyed by it), and the
# numbers the rebuild reads are in range.
FORMAT_9_REFUSALS = [
    *[pytest.param(alg, stale_z, r"final\.z is stray", id=f"stale-z-{alg}") for alg in ALGORITHMS],
    pytest.param("greedy-ra", lambda data: data["final"].update(y=[0.0] * 6),
                 r"final\.y is stray", id="y-on-greedy-ra"),
    pytest.param("mobvc", lambda data: data["final"].update(matched_offline=[]),
                 r"final\.matched_offline is stray", id="matched-offline-on-mobvc"),
    pytest.param("mobvc", lambda data: data["final"].pop("y"), r"final\.y is missing", id="no-y"),
    pytest.param("greedy-ra", lambda data: data["final"].pop("matched_offline"),
                 r"final\.matched_offline is missing", id="no-matched-offline"),
    pytest.param("mobvc", lambda data: data.update(final=[]),
                 "final differs from what this trace writes", id="final-an-empty-list"),
    *[pytest.param(alg, repeat_first_v, "round v [0-9]+ repeats", id=f"repeated-v-{alg}")
      for alg in ALGORITHMS],
    pytest.param("greedy-ra", set_at(("rounds", "t", 0), 1.5), r"t = 1\.5 outside \[0, 1\]",
                 id="t-above-1"),
    pytest.param("greedy-ra", set_at(("rounds", "t", 0), 1e300), "outside", id="t-1e300"),
    pytest.param("greedy-ra", set_at(("instance", "n_offline"), 2 ** 40), "size limit",
                 id="n-offline-above-the-limit"),
]


class TestHostileColumns:
    """Format 9 checks each column as a whole; every bad column is a
    ParseError and exit 2 from verify and audit."""

    @pytest.mark.parametrize("alg, edit", hostile_columns())
    def test_rejected(self, tmp_path, capsys, alg, edit):
        assert_refused(tmp_path, capsys, alg, edit)

    @pytest.mark.parametrize("alg, edit, match", FORMAT_9_REFUSALS)
    def test_format_9_refusals(self, tmp_path, capsys, alg, edit, match):
        assert_refused(tmp_path, capsys, alg, edit, match)

    @pytest.mark.parametrize("alg", ["mobvc", "mobm-pd", "greedy-ra"])
    def test_unordered_X_rejected(self, tmp_path, capsys, alg):
        # a repeated id, as in X = [0, 0, 2, 4, 6, 7], used to load and fail
        # only verify's replay; the x column is aligned with X, so a repeat
        # would drop an x entry
        data = json.loads(json.dumps(TRACE_DICTS[alg]))
        i, X = next((i, X) for i, X in enumerate(data["rounds"]["X"]) if len(X) >= 2)
        X[1] = X[0]
        tpath = write_json(tmp_path / "t.json", data)
        with pytest.raises(ParseError, match=rf"round v={data['rounds']['v'][i]}: "
                                             rf"X = .* is not strictly ascending"):
            load_trace(tpath)
        save(INSTANCES[alg], tmp_path / "i.json")
        assert main(["verify", str(tpath), "--instance", str(tmp_path / "i.json")]) == 2
        assert "not strictly ascending" in capsys.readouterr().err

    def test_int_in_a_float_column_accepted(self, tmp_path):
        # as json_number accepts it: an integral float written as an int
        data = json.loads(json.dumps(TRACE_DICTS["mobm-pd"]))
        rounds = data["rounds"]
        i = rounds["a"].index(1.0)
        rounds["a"][i] = 1
        rounds["bounds"][0] = int(rounds["bounds"][0])
        assert rounds["bounds"][0] == 0
        back = load_trace(write_json(tmp_path / "t.json", data))
        assert back == run("mobm-pd")
        assert type(back.rounds[i].a) is float and type(back.rounds[0].regions[0].lo) is float


def insert_unused_bound(data):
    # a value between the first two bounds that no region names; every
    # index above it moves up one, so the regions keep their values
    rounds = data["rounds"]
    bounds = rounds["bounds"]
    bounds.insert(1, (bounds[0] + bounds[1]) / 2)
    for key in ("lo", "hi"):
        rounds[key] = [i + (i >= 1) for i in rounds[key]]


def swap_at(key, i, j):
    def edit(data):
        col = data["rounds"][key]
        col[i], col[j] = col[j], col[i]
    return edit


def repeat_bound(data):
    bounds = data["rounds"]["bounds"]
    bounds[2] = bounds[1]


def first_index_as_float(key):
    def edit(data):
        col = data["rounds"][key]
        col[0] = float(col[0])
    return edit


def first_index_past_the_end(key):
    def edit(data):
        data["rounds"][key][0] = len(data["rounds"]["bounds"])
    return edit


# With the hostile columns above (a bool, string, NaN, infinity or 1e999
# in bounds, lo or hi, a short bounds column, lo = -1, lo above hi, a bound
# above 1), every way a bounds column or an index can be wrong.
BOUND_CORRUPTIONS = [
    pytest.param(swap_at("bounds", 1, 2), "break lo <= hi", id="bounds-unsorted"),
    pytest.param(repeat_bound, r"rounds\.bounds differs", id="bounds-duplicate"),
    pytest.param(set_at(("rounds", "bounds", 0), -0.25), "outside", id="bounds-below-0"),
    pytest.param(insert_unused_bound, r"rounds\.bounds differs", id="bounds-unused"),
    pytest.param(set_at(("rounds", "hi", 0), -1), "hi holds -1, not an index 0..[0-9]+ into "
                 "bounds", id="hi-negative-index"),
    pytest.param(first_index_past_the_end("lo"), "not an index 0..[0-9]+ into bounds",
                 id="lo-past-the-end"),
    pytest.param(first_index_past_the_end("hi"), "not an index 0..[0-9]+ into bounds",
                 id="hi-past-the-end"),
    pytest.param(first_index_as_float("lo"), "lo holds [0-9.]+, not an index", id="lo-float"),
    pytest.param(first_index_as_float("hi"), "hi holds [0-9.]+, not an index", id="hi-float"),
]


class TestBounds:
    """A waterfilling trace writes each region bound once, in the bounds
    column, and lo and hi as indexes into it (since format 7)."""

    def test_bounds_are_the_distinct_region_bounds(self):
        trace = run("mobm-pd")
        rounds = TRACE_DICTS["mobm-pd"]["rounds"]
        regions = [r for rec in trace.rounds for r in rec.regions]
        bounds = rounds["bounds"]
        assert bounds == sorted({r.lo for r in regions} | {r.hi for r in regions})
        assert all(type(i) is int for i in rounds["lo"] + rounds["hi"])
        assert [bounds[i] for i in rounds["lo"]] == [r.lo for r in regions]
        assert [bounds[i] for i in rounds["hi"]] == [r.hi for r in regions]

    def test_run_without_regions(self, tmp_path):
        # an arrival with no neighbours raises nothing: empty bounds
        f = Cardinality(GroundSet(2))
        trace = run_mobvc(gen_random(2, 3, 0.0, f, seed=1))
        path = tmp_path / "t.json"
        save_trace(trace, path)
        rounds = json.loads(path.read_text(encoding="utf-8"))["rounds"]
        assert rounds["bounds"] == rounds["lo"] == rounds["hi"] == []
        assert load_trace(path) == trace

    @pytest.mark.parametrize("edit, match", BOUND_CORRUPTIONS)
    def test_rejected(self, tmp_path, capsys, edit, match):
        assert len(TRACE_DICTS["mobm-pd"]["rounds"]["bounds"]) >= 3
        assert_refused(tmp_path, capsys, "mobm-pd", edit, match)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_every_closed_form(self, tmp_path_factory, data):
        # load(save(t)) == t, and saving the loaded trace writes the same bytes
        n = data.draw(st.integers(1, 8))
        g = GroundSet(n)
        family = data.draw(st.sampled_from(["cardinality", "uniform", "partition", "weighted"]))
        if family == "cardinality":
            f = Cardinality(g)
        elif family == "uniform":
            f = UniformRank(g, data.draw(st.integers(0, n)))
        elif family == "partition":
            f = PartitionBudget(g, [range(0, n, 2), range(1, n, 2)],
                                data.draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0]),
                                                   min_size=2, max_size=2)))
        else:
            f = WeightedThreshold(g, data.draw(st.lists(st.floats(0.0, 2.0), min_size=n,
                                                        max_size=n)),
                                  data.draw(st.floats(0.0, 3.0)))
        runner = data.draw(st.sampled_from(
            [run_obvc, run_mobvc, run_mobm_pd] if family == "cardinality"
            else [run_mobvc, run_mobm_pd]))
        inst = gen_random(n, data.draw(st.integers(0, 10)), data.draw(st.floats(0.0, 1.0)), f,
                          seed=data.draw(st.integers(0, 2 ** 64 - 1)))
        trace = runner(inst)
        tmp = tmp_path_factory.mktemp("b")
        save_trace(trace, tmp / "t.json")
        back = load_trace(tmp / "t.json")
        assert back == trace
        save_trace(back, tmp / "again.json")
        assert (tmp / "again.json").read_bytes() == (tmp / "t.json").read_bytes()

    def test_bad_X_id_names_its_round(self, tmp_path):
        # X is checked as one column; a failure names the round
        data = json.loads(json.dumps(TRACE_DICTS["mobvc"]))
        i = next(i for i, X in enumerate(data["rounds"]["X"]) if X)
        data["rounds"]["X"][i][0] = True
        with pytest.raises(ParseError, match=rf"round v={data['rounds']['v'][i]}: X: "
                                             r"expected an integer, got True"):
            load_trace(write_json(tmp_path / "t.json", data))


def set_first_x(value):
    # the first stored x entry becomes value(len(x_values))
    def edit(data):
        rounds = data["rounds"]
        i = next(i for i, k in enumerate(rounds["x"]) if k is not None)
        rounds["x"][i] = value(len(rounds["x_values"]))
    return edit


def insert_unused_x_value(data):
    # a value below the first that no entry names; every index moves up one
    rounds = data["rounds"]
    rounds["x_values"].insert(0, rounds["x_values"][0] / 2)
    rounds["x"] = [None if i is None else i + 1 for i in rounds["x"]]


def repeat_x_value(data):
    values = data["rounds"]["x_values"]
    values[1] = values[0]


def delete_rounds_key(key):
    return lambda data: data["rounds"].pop(key)


X_VALUES_CORRUPTIONS = [
    pytest.param("mobm-pd", set_first_x(lambda n: True), "x holds True, not an index",
                 id="index-bool"),
    pytest.param("mobm-pd", set_first_x(lambda n: 1.0), "x holds 1.0, not an index",
                 id="index-float"),
    pytest.param("mobm-pd", set_first_x(lambda n: -1), "x holds -1, not an index 0..[0-9]+ into "
                 "x_values", id="index-negative"),
    pytest.param("mobm-pd", set_first_x(lambda n: n), "x holds [0-9]+, not an index 0..[0-9]+ "
                 "into x_values", id="index-past-the-end"),
    pytest.param("mobm-pd", swap_at("x_values", 0, 1), r"rounds\.x differs", id="unsorted"),
    pytest.param("mobm-pd", repeat_x_value, r"rounds\.x differs", id="repeated"),
    pytest.param("mobm-pd", insert_unused_x_value, r"rounds\.x differs", id="unused"),
    *[pytest.param("mobm-pd", set_at(("rounds", "x_values", 0), value),
                   r"x_values\[0\] = .* is not (a number|finite)",
                   id=label)
      for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                           ("1e999", TEXT_1E999), ("bool", True), ("string", "0.5"))],
    *[pytest.param(alg, set_at(("rounds", "x_values"), [0.5]), "x_values", id=f"on-{alg}")
      for alg in ("obvc", "mobvc", "greedy-ra")],
    pytest.param("mobm-pd", delete_rounds_key("x_values"), "x_values", id="x-without-x_values"),
    pytest.param("mobm-pd", delete_rounds_key("x"), r"rounds\.x is missing",
                 id="x_values-without-x"),
]


class TestXValues:
    """A mobm-pd trace writes each x value once, in the x_values column,
    and x as indexes into it (since format 8)."""

    def test_x_values_are_the_distinct_x_values(self):
        x = run("mobm-pd").state.x
        rounds = TRACE_DICTS["mobm-pd"]["rounds"]
        table = rounds["x_values"]
        assert table == sorted(set(x.values()))
        keys = [(u, v) for v, X in zip(rounds["v"], rounds["X"]) for u in X]
        assert {key: table[i] for key, i in zip(keys, rounds["x"]) if i is not None} == x

    @pytest.mark.parametrize("alg, edit, match", X_VALUES_CORRUPTIONS)
    def test_rejected(self, tmp_path, capsys, alg, edit, match):
        assert_refused(tmp_path, capsys, alg, edit, match)


def set_first_matched(pick):
    # the first matched round takes pick(its X) instead
    def edit(data):
        rounds = data["rounds"]
        i = next(i for i, u in enumerate(rounds["matched"]) if u is not None)
        rounds["matched"][i] = pick(rounds["X"][i])
    return edit


def drop_final_x_row(data):
    data["final"]["x"].pop()


# Files that differ from what save_trace writes for the trace they load
# to. All but the final.x value true used to load, the first three then
# passing verify. The message names the first key, in sorted order, that
# differs.
FORM_REFUSALS = [
    pytest.param("mobvc", lambda data: data["rounds"].update(z=[9.0] * len(data["rounds"]["v"])),
                 r"rounds\.z is stray", id="rounds-z-column"),
    pytest.param("mobm-pd", lambda data: data.update(comment="kept"), "comment is stray",
                 id="top-level-key"),
    pytest.param("obvc", lambda data: data["instance"].update(m_online=8),
                 r"instance\.m_online is stray", id="instance-key"),
    pytest.param("greedy-ra", lambda data: data["final"].update(x=[], matched_offline=[]),
                 r"final\.matched_offline differs from what this trace writes",
                 id="greedy-final-x-and-matched-emptied"),
    pytest.param("greedy-ra", lambda data: data["final"].update(x=[]), r"final\.x differs",
                 id="greedy-final-x-emptied"),
    pytest.param("greedy-ra", drop_final_x_row, r"final\.x differs", id="greedy-final-x-row-dropped"),
    pytest.param("greedy-ra", set_at(("final", "x", 0, 2), True), r"final\.x differs",
                 id="greedy-final-x-value-true"),
    pytest.param("greedy-ra", lambda data: data["final"]["matched_offline"].pop(),
                 r"final\.matched_offline differs", id="greedy-matched-offline-short"),
    pytest.param("greedy-ra", set_first_matched(lambda X: 99),
                 r"round v=[0-9]+: matched 99 is not in X = \[", id="greedy-matched-above-n"),
    pytest.param("greedy-ra", set_first_matched(lambda X: next(u for u in range(6) if u not in X)),
                 r"round v=[0-9]+: matched [0-5] is not in X = \[", id="greedy-matched-outside-X"),
]


JSON_KINDS = [None, True, "0.5", [], {}]


def json_kind(value):
    """The JSON type of a parsed value; int and float are both numbers."""
    return "number" if type(value) in (int, float) else type(value)


@st.composite
def edited_traces(draw):
    """The JSON object of a small run's trace with one edit: a key added to
    any object, a key deleted, a value replaced by one of another JSON type,
    a number replaced by another of its own Python type, or a list entry
    repeated. (An int where a float stood in a round column reads as that
    float, so a number keeps its type.)"""
    data = json.loads(json.dumps(draw(small_runs(max_n=6)).to_dict()))
    paths = [p for p, _ in node_paths(data)]
    edit = draw(st.sampled_from(["add", "delete", "retype", "move", "repeat"]))
    if edit == "add":
        obj = at(data, draw(st.sampled_from([p for p in paths if type(at(data, p)) is dict])))
        key = draw(st.sampled_from(["z", "y", "x", "x_values", "t", "a", "matched_offline", "?"]))
        obj.setdefault(key, draw(st.sampled_from([0, 1.0, [], [0.5], {}, None])))
    elif edit == "delete":
        path = draw(st.sampled_from([p for p, is_field in node_paths(data) if is_field]))
        del at(data, path[:-1])[path[-1]]
    elif edit == "retype":
        path = draw(st.sampled_from(paths))
        old = at(data, path)
        data = replace(data, path, draw(st.sampled_from(
            [v for v in JSON_KINDS if json_kind(v) != json_kind(old)])))
    elif edit == "move":
        path = draw(st.sampled_from([p for p in paths if type(at(data, p)) in (int, float)]))
        old = at(data, path)
        new = draw(st.integers(-2, 12) if type(old) is int else st.sampled_from(
            [0.0, -0.0, 0.5, 1.0, 1.5, old + 0.25, -old, 1e300, math.nan, math.inf]))
        data = replace(data, path, new)
    else:
        lists = [p for p in paths if type(at(data, p)) is list and at(data, p)]
        if lists:
            col = at(data, draw(st.sampled_from(lists)))
            i = draw(st.integers(0, len(col) - 1))
            col.insert(i, json.loads(json.dumps(col[i])))
    return data


class TestOneForm:
    """load_trace reads a file only in the form save_trace writes for the
    trace it loads to: anything else is a ParseError naming the key."""

    @pytest.mark.parametrize("alg, edit, match", FORM_REFUSALS)
    def test_rejected(self, tmp_path, capsys, alg, edit, match):
        assert_refused(tmp_path, capsys, alg, edit, match)

    @settings(max_examples=300, deadline=None)
    @given(data=edited_traces())
    def test_canonical_or_refused(self, tmp_path_factory, data):
        path = write_json(tmp_path_factory.mktemp("e") / "t.json", data)
        try:
            back = load_trace(path)
        except ParseError:
            return
        assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# Every stored number is checked
# ---------------------------------------------------------------------------

OFFLINE_ID_FIELDS = ("X", "matched", "matched_offline")
# the table each index column points into
TABLES = {"lo": "bounds", "hi": "bounds", "x": "x_values"}


def id_kind(path) -> str | None:
    """'offline' or 'online' when the number at path is an element or
    arrival id, 'index' when it indexes a table column, else None."""
    if path[0] == "rounds":
        if path[1] == "v":
            return "online"
        if path[1] in TABLES:
            return "index"
        return "offline" if path[1] in OFFLINE_ID_FIELDS else None
    if path[:2] == ("final", "x"):
        return {0: "offline", 1: "online"}.get(path[3])
    return "offline" if path[-2:-1] == ("matched_offline",) else None


class TestEveryNumberChecked:
    """Changing any stored number of a valid trace makes verify fail: ids
    and table indexes become a different valid one, every other number
    moves by 0.25. The greedy timestamps t are the exception, since verify
    replays the run at the stored timestamps."""

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
            elif kind == "index":
                new = (value + 1) % len(data["rounds"][TABLES[path[1]]])
            else:
                new = value + 0.25
            write_json(tpath, replace(data, path, new))
            rc = main(["verify", str(tpath), "--instance", str(ipath)])
            assert rc in (1, 2), (path, value, new)
            changed += 1
        capsys.readouterr()
        assert changed > 40

    def test_pd_rounds_reads_the_stored_x(self, tmp_path, capsys):
        # a round's dP is derived from the stored x, so pd-rounds fails on a
        # changed x entry, and so does the replay
        trace = run("mobm-pd")
        keys = [(u, rec.v) for rec in trace.rounds for u in rec.X]
        trace.state.x[next(key for key in keys if key in trace.state.x)] += 0.25
        save(INSTANCES["mobm-pd"], tmp_path / "i.json")
        tpath = tmp_path / "t.json"
        save_trace(trace, tpath)
        assert main(["verify", str(tpath), "--instance", str(tmp_path / "i.json")]) == 1
        out = capsys.readouterr().out
        assert "FAIL pd-rounds" in out and "FAIL replay-match" in out
