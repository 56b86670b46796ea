"""Online algorithms: waterfilling cover, its primal-dual matching variant,
and the random-arrival greedy matching.

All three waterfilling entry points share one driver. Per arrival v the
water level a is the largest level in [0, 1] such that

    h(a) = (1 - a) + [fhat(y raised on N(v) to a) - fhat(y)] <= 1 + ALPHA,

where fhat is the Lovasz extension. h is continuous piecewise linear, so a
is found by an exact right-to-left segment scan over the chart boundaries
from the first bar that misses a neighbor up (no root bisection); whenever
a < 1 the budget is exhausted and h(a) = 1 + ALPHA up to float rounding.
The arrival pays z_v = 1 - a and the neighbors below a are raised to a.

run_obvc computes the level with a modular closed form (neighbor levels
only) and exists both as the plain-graph algorithm and as an independent
cross-check of the chart path: on cardinality budgets run_mobvc must agree
with it to 1e-12.

run_mobm_pd additionally builds a fractional matching: each new chart
region splits its mass over the raised elements new to its bar by their
marginal values in ascending id order, scaled by 1 / (a + ALPHA), which
makes every round's dual increase exactly (1 + ALPHA) times its primal
increase.

run_random_arrival_greedy is the integral matching algorithm for matroid
rank budgets: arrivals sorted by uniform timestamps, each takes its
lowest-id neighbor outside the span of the current matched set; duals are
split by the rate e^(t-1).
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat

from .barchart import BarChart, NewRegion, snap
from .constants import ALPHA
from .errors import (
    InputError,
    InvariantError,
    ParseError,
    PreconditionError,
    check_int,
    check_number,
)
from .instances import (
    Arrival,
    ArrivalModel,
    Instance,
    arrival_orders,
    by_timestamp,
    check_size,
    json_int,
    json_ints,
    json_list,
    json_numbers,
    order_arrivals,
    read_json,
)
from .submodular import (
    SubmodularFn,
    is_matroid_rank,
    lovasz,
    mask_members,
    span_mask,
)

ALGORITHMS = ("obvc", "mobvc", "mobm-pd", "greedy-ra")
# Judged by their cover cost (the dual); the others by their matching value.
COVER_ALGORITHMS = ("obvc", "mobvc")

# Version of the JSON written by save_trace; load_trace reads no other.
TRACE_FORMAT = 9


def dual_split_rate(t: float) -> float:
    """e^(t - 1): the share of a matched round's budget handed to the online
    side under the random-arrival greedy."""
    return math.exp(t - 1.0)


# ---------------------------------------------------------------------------
# Water level
# ---------------------------------------------------------------------------

def _sup_below(bounds: list[float], hvals: list[float], target: float) -> float:
    """Largest a with h(a) <= target for a piecewise-linear h given by its
    values at the sorted breakpoints. Requires h(bounds[0]) <= target."""
    if hvals[-1] <= target:
        return bounds[-1]
    for i in range(len(bounds) - 2, -1, -1):
        h_lo, h_hi = hvals[i], hvals[i + 1]
        if h_lo <= target:
            # scan invariant: h_hi > target, so the slope here is positive
            a = bounds[i] + (target - h_lo) * (bounds[i + 1] - bounds[i]) / (h_hi - h_lo)
            return min(max(a, bounds[i]), bounds[i + 1])
    raise InvariantError("h(0) <= target must hold; no crossing found")


def water_level(chart: BarChart, nmask: int) -> float:
    """Exact water level for an arrival whose neighbor set has the mask
    nmask (its entry in Instance.masks), at the chart's current potentials.

    Segment slopes are read off the bars: on the bar with member set L the
    slope of h is -1 + f(L + nbrs) - f(L). Non-neighbor potentials matter
    too (they change the level sets), so the breakpoints of h are the chart
    bounds. On a bar that already holds every neighbor the gain is exactly
    0.0 and h = 1 - hi there. The member masks are nested, so those bars
    are a prefix of the chart: one bisection finds the first bar that
    misses a neighbor, and the scan starts at its lo with h = 1 - lo. So
    the oracle is called only on bars that miss a neighbor.
    """
    f = chart.f
    ivs = chart.intervals
    k = chart.first_missing(nmask)
    lo = ivs[k].lo if k < len(ivs) else ivs[-1].hi
    bounds = [lo]
    hvals = [1.0 - lo]
    g_acc = 0.0
    for iv in ivs[k:]:
        g_acc += (iv.hi - iv.lo) * (f.value_mask(iv.mask | nmask) - iv.height)
        bounds.append(iv.hi)
        hvals.append(1.0 - iv.hi + g_acc)
    return chart.snap(_sup_below(bounds, hvals, 1.0 + ALPHA))


def _modular_water_level(y, nbrs) -> float:
    """Water level under a cardinality budget: h(a) = 1 - a + sum over
    neighbors of max(a - y_u, 0). Only neighbor levels are breakpoints."""
    levels = sorted(y[u] for u in nbrs)
    bounds = [0.0]
    hvals = [1.0]
    covered = 0.0  # sum of neighbor levels at or below the current bound
    k = 0
    for b in sorted(set(levels) | {1.0}):
        if not 0.0 < b <= 1.0:
            continue
        while k < len(levels) and levels[k] < b:
            covered += levels[k]
            k += 1
        bounds.append(b)
        hvals.append(1.0 - b + k * b - covered)
    a = _sup_below(bounds, hvals, 1.0 + ALPHA)
    return snap(bounds, a)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def _ascending(ids: tuple[int, ...]) -> bool:
    return all(map(operator.lt, ids, ids[1:]))


def _offline_ids(col, v: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The X column: per round, strictly ascending offline ids in 0..n-1.
    The types and the range are checked over the flattened column; the
    per-round pass runs only when that fails, to name the bad round. v is
    the column of arrival ids; rows past its end make no round."""
    rows = json_list(col)[:len(v)]
    ids = list(chain.from_iterable(rows)) if set(map(type, rows)) <= {list} else None
    if (ids is None or not set(map(type, ids)) <= {int}
            or (ids and (min(ids) < 0 or max(ids) >= n))):
        for vid, row in zip(v, rows):
            try:
                xs = json_ints(row)
            except ValueError as e:
                raise ValueError(f"round v={vid}: X: {e}") from None
            if not all(0 <= u < n for u in xs):
                raise ValueError(f"round v={vid}: X = {xs} outside 0..{n - 1}")
    X = list(map(tuple, rows))
    if not all(map(_ascending, X)):
        i = next(i for i, xs in enumerate(X) if not _ascending(xs))
        raise ValueError(f"round v={v[i]}: X = {X[i]} is not strictly ascending")
    return X


def _as_table(*columns: list[float]) -> tuple[list[float], list[list[int]]]:
    """Float columns whose values repeat, as one ascending table of their
    distinct values and per column the indexes of its entries. A -0.0 beside
    a 0.0 gets its own entry just below it, as a set would merge the two."""
    values = set(chain(*columns))
    if 0.0 in values and len({math.copysign(1.0, v) for v in chain(*columns) if v == 0.0}) == 2:
        keys = sorted({(v, math.copysign(1.0, v)) for v in chain(*columns)})
        index = {key: i for i, key in enumerate(keys)}
        return ([v for v, _ in keys],
                [[index[v, math.copysign(1.0, v)] for v in col] for col in columns])
    table = sorted(values)
    index = {v: i for i, v in enumerate(table)}
    return table, [list(map(index.__getitem__, col)) for col in columns]


def _from_table(name: str, table, **columns) -> list[list[float]]:
    """Inverse of _as_table: each column's values, looked up in the table
    called name. ValueError naming the column unless the table holds finite
    numbers and each column holds int indexes into it."""
    table = json_numbers(table, name)
    for key, col in columns.items():
        if not set(map(type, col)) <= {int} or (col and (min(col) < 0 or max(col) >= len(table))):
            bad = next(k for k in col if type(k) is not int or not 0 <= k < len(table))
            raise ValueError(f"{key} holds {bad!r}, not an index 0..{len(table) - 1} into {name}")
    return [list(map(table.__getitem__, col)) for col in columns.values()]


def _x_column(rounds: list["WaterfillRound"], x: dict[tuple[int, int], float]) -> dict:
    """The x and x_values columns of a mobm-pd trace: per u of each round's
    X (v its arrival), the index of x_uv in x_values, or None where the round
    gave u nothing. InvariantError for an x entry outside its round's X."""
    col = [x.get((u, rec.v)) for rec in rounds for u in rec.X]
    stored = [val for val in col if val is not None]
    if len(stored) != len(x):
        raise InvariantError(f"x has {len(x)} entries, its rounds' X hold {len(stored)} of them")
    table, (indexes,) = _as_table(stored)
    indexes = iter(indexes)
    return {"x": [None if val is None else next(indexes) for val in col], "x_values": table}


def _x_from_column(cols: dict, rounds: list["WaterfillRound"]) -> dict[tuple[int, int], float]:
    """Inverse of _x_column, with the entries in column order; ValueError
    for an x column _from_table refuses."""
    col = json_list(cols["x"])
    keys = [(u, rec.v) for rec in rounds for u in rec.X]
    stored = list(map(operator.is_not, col, repeat(None)))
    (values,) = _from_table("x_values", cols["x_values"], x=list(compress(col, stored)))
    return dict(zip(compress(keys, stored), values))


@dataclass
class WaterfillRound:
    """One arrival of a waterfilling run (obvc, mobvc, mobm-pd): its
    decisions only.

    a is the water level, X the offline elements raised to it (ascending),
    regions the new chart mass. The arrival's dual is 1 - a, its primal
    split over X is the final x at v (state.x, which a mobm-pd trace stores
    as an x column aligned with X), and the round's increments follow from
    these (verify.round_increments).
    """

    v: int
    a: float
    X: tuple[int, ...]
    regions: tuple[NewRegion, ...]

    @staticmethod
    def to_columns(rounds: list["WaterfillRound"]) -> dict:
        regions = [r for rec in rounds for r in rec.regions]
        bounds, (lo, hi) = _as_table([r.lo for r in regions], [r.hi for r in regions])
        return {"v": [rec.v for rec in rounds], "a": [rec.a for rec in rounds],
                "X": [list(rec.X) for rec in rounds],
                "regions": [len(rec.regions) for rec in rounds],
                "bounds": bounds, "lo": lo, "hi": hi,
                "old_height": [r.old_height for r in regions],
                "new_height": [r.new_height for r in regions]}

    @staticmethod
    def from_columns(cols: dict, n: int) -> list["WaterfillRound"]:
        """Inverse of to_columns; ValueError, TypeError or KeyError on a
        malformed or out-of-range column, or a region off 0 <= lo <= hi <= 1.
        Rounds and regions stop at the shortest column."""
        v, a, counts = json_ints(cols["v"]), json_numbers(cols["a"], "a"), json_ints(cols["regions"])
        lo, hi = _from_table("bounds", cols["bounds"], lo=cols["lo"], hi=cols["hi"])
        old, new = json_numbers(cols["old_height"], "old_height"), json_numbers(cols["new_height"], "new_height")
        if counts and min(counts) < 0:
            raise ValueError(f"negative region count {min(counts)}")
        if a and (min(a) < 0.0 or max(a) > 1.0):
            bad = next(level for level in a if not 0.0 <= level <= 1.0)
            raise ValueError(f"water level a = {bad} outside [0, 1]")
        i = next((i for i, (l, h) in enumerate(zip(lo, hi)) if not 0.0 <= l <= h <= 1.0), None)
        if i is not None:
            raise ValueError(f"region {i}: lo = {lo[i]}, hi = {hi[i]} lie outside [0, 1] "
                             f"or break lo <= hi")
        regions = map(NewRegion, lo, hi, old, new)
        return [WaterfillRound(vid, level, ids, tuple(islice(regions, k)))
                for vid, level, ids, k in zip(v, a, _offline_ids(cols["X"], v, n), counts)]


@dataclass
class GreedyRound:
    """One arrival of the random-arrival greedy at timestamp t: its
    decisions only.

    matched is the element it took (None when every neighbor was spanned)
    and X the elements that entered the span with it. A matched round fixes
    the arrival's dual z_v and the potentials of X (_greedy_duals).
    """

    v: int
    t: float
    X: tuple[int, ...] = ()
    matched: int | None = None

    @staticmethod
    def to_columns(rounds: list["GreedyRound"]) -> dict:
        return {"v": [rec.v for rec in rounds], "t": [rec.t for rec in rounds],
                "X": [list(rec.X) for rec in rounds], "matched": [rec.matched for rec in rounds]}

    @staticmethod
    def from_columns(cols: dict, n: int) -> list["GreedyRound"]:
        """Inverse of to_columns; ValueError, TypeError or KeyError on a
        malformed or out-of-range column, or a matched id outside its round's
        X. Rounds stop at the shortest column."""
        v, t, matched = json_ints(cols["v"]), json_numbers(cols["t"], "t"), json_list(cols["matched"])
        if t and not 0.0 <= min(t) <= max(t) <= 1.0:
            raise ValueError(f"timestamp t = {min(t) if min(t) < 0.0 else max(t)} outside [0, 1]")
        if not set(map(type, matched)) <= {int, type(None)}:
            bad = next(u for u in matched if u is not None and type(u) is not int)
            raise ValueError(f"expected an integer or null, got {bad!r}")
        rounds = list(map(GreedyRound, v, t, _offline_ids(cols["X"], v, n), matched))
        for rec in rounds:
            if rec.matched is not None and rec.matched not in rec.X:
                raise ValueError(f"round v={rec.v}: matched {rec.matched} is not in X = {list(rec.X)}")
        return rounds


@dataclass
class OnlineState:
    """Final algorithm state: offline potentials y, online duals z, edge
    variables x, the bar chart (waterfilling runs only, not serialized and
    not compared), and the matched element set. A trace rebuilds z, and all
    of a greedy-ra state, from its rounds (RunTrace)."""

    y: list[float]
    z: dict[int, float]
    x: dict[tuple[int, int], float]
    chart: BarChart | None = field(default=None, compare=False)
    matched: frozenset[int] = frozenset()


def _round_type(algorithm: str) -> type[WaterfillRound] | type[GreedyRound]:
    return GreedyRound if algorithm == "greedy-ra" else WaterfillRound


def _check_form(found: dict, written: dict, path: str = ""):
    """ValueError naming the first key, in sorted order, where found (a
    trace file's JSON object, or its _keys) differs from written (to_dict
    of the trace read from it, or that of the empty trace; RunTrace.from_dict
    compares both pairs). Round columns compare by ==, as their readers have
    checked the types; every other value by its JSON text, which tells true
    from 1 and 1 from 1.0."""
    for key in sorted(found.keys() | written.keys()):
        if key not in written:
            raise ValueError(f"{path}{key} is stray")
        if key not in found:
            raise ValueError(f"{path}{key} is missing")
        a, b = found[key], written[key]
        if type(a) is dict and type(b) is dict:
            _check_form(a, b, f"{path}{key}.")
        elif (a != b) if path == "rounds." else (json.dumps(a) != json.dumps(b)):
            raise ValueError(f"{path}{key} differs from what this trace writes")


def _keys(obj):
    """The key nesting of a JSON value: a dict's keys, each mapped to the
    nesting of its value, and None for any other value."""
    return {k: _keys(v) for k, v in obj.items()} if type(obj) is dict else None


@dataclass
class RunTrace:
    """One run: its rounds, in arrival order, and its final state.

    On disk (format 9) the rounds are one object of parallel columns, one
    entry per round: waterfilling runs store v, a, X and regions (each
    round's region count), and the region fields lo, hi, old_height and
    new_height as flat columns over all rounds in order, lo and hi as
    indexes into the table bounds (_as_table); greedy runs store v, t, X
    and matched. A mobm-pd trace also stores x over the flattened X: the
    entry of u in round v's X indexes x_uv in the table x_values, or is null
    when the round gave u nothing. The final block holds primal_value,
    dual_value and y for waterfilling runs, whose z the rounds fix (1 - a
    at each v). The rounds fix all of a greedy-ra state (_greedy_state);
    its final block repeats x as [u, v, 1.0] rows sorted by (u, v) and
    matched_offline, for readers of the JSON. from_dict reads a file only
    in the form to_dict writes for the trace it reads.
    """

    algorithm: str
    instance_name: str
    n_offline: int
    rounds: list[WaterfillRound] | list[GreedyRound]
    state: OnlineState
    primal_value: float
    dual_value: float

    def to_dict(self) -> dict:
        """The trace as format 9 JSON. InvariantError when the state holds
        what the rounds contradict: a z (or any greedy-ra field) other than
        they fix, or an x entry a waterfilling trace cannot store."""
        state = self.state
        rounds = _round_type(self.algorithm).to_columns(self.rounds)
        final = {"primal_value": self.primal_value, "dual_value": self.dual_value}
        if self.algorithm == "greedy-ra":
            g = _greedy_state(self.rounds, self.n_offline)
            fixed = {"y": g.y, "z": g.z, "x": g.x, "matched": g.matched}
            final["x"] = [[u, v, 1.0] for u, v in sorted(g.x)]
            final["matched_offline"] = sorted(g.matched)
        else:
            fixed = {"z": {rec.v: 1.0 - rec.a for rec in self.rounds}}
            final["y"] = list(state.y)
            if self.algorithm == "mobm-pd":
                rounds.update(_x_column(self.rounds, state.x))
            elif state.x:
                raise InvariantError(f"a {self.algorithm} run has {len(state.x)} x entries to store")
        for key, value in fixed.items():
            if getattr(state, key) != value:
                raise InvariantError(f"state.{key} differs from what the rounds fix")
        return {
            "format": TRACE_FORMAT,
            "algorithm": self.algorithm,
            "instance": {"name": self.instance_name, "n_offline": self.n_offline},
            "alpha": ALPHA,
            "rounds": rounds,
            "final": final,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunTrace":
        """Inverse of to_dict. ParseError for another format version;
        ValueError, TypeError or KeyError for a malformed trace, or one not
        in the form to_dict writes for the trace read from it (_check_form).
        The keys are compared first, with those of the empty trace of the
        same algorithm, so a missing key is named before any value is read.
        The build checks only what it needs or a rewrite cannot see."""
        if not isinstance(d, dict):
            raise ValueError("a run trace is a JSON object")
        if d.get("format") != TRACE_FORMAT:
            found = repr(d["format"]) if "format" in d else '1 (no "format" field)'
            raise ParseError(f"trace format {found} is not supported; this version reads "
                             f"format {TRACE_FORMAT} only, so re-run the algorithm to "
                             f"write the trace again")
        algorithm = d.get("algorithm")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        empty = _greedy_state([], 0) if algorithm == "greedy-ra" else OnlineState([], {}, {})
        _check_form(_keys(d), _keys(RunTrace(algorithm, "", 0, [], empty, 0.0, 0.0).to_dict()))
        name, n = d["instance"]["name"], json_int(d["instance"]["n_offline"])
        if not isinstance(name, str) or n < 0:
            raise ValueError(f"bad instance block {d['instance']!r}")
        check_size("n_offline", n)
        cols, fin = d["rounds"], d["final"]
        rounds = _round_type(algorithm).from_columns(cols, n)
        vids = [rec.v for rec in rounds]
        if len(set(vids)) != len(vids):  # z is keyed by v
            seen = set()
            raise ValueError(f"round v {next(v for v in vids if v in seen or seen.add(v))} repeats")
        if algorithm == "greedy-ra":
            state = _greedy_state(rounds, n)
        else:
            x = _x_from_column(cols, rounds) if algorithm == "mobm-pd" else {}
            state = OnlineState(json_numbers(fin["y"], "final.y"),
                                {rec.v: 1.0 - rec.a for rec in rounds}, x)
        if len(state.y) != n:
            raise ValueError(f"{len(state.y)} final potentials for n_offline = {n}")
        trace = RunTrace(algorithm, name, n, rounds, state,
                         check_number("primal_value", fin["primal_value"], finite=True),
                         check_number("dual_value", fin["dual_value"], finite=True))
        _check_form(d, trace.to_dict())
        return trace


def save_trace(trace: RunTrace, path: str | os.PathLike):
    """Write the trace as one line of compact sorted-key JSON (format 9,
    columnar rounds, each value written once, or not if the rounds fix it).

    json.dumps encodes in one call to the C encoder; json.dump to a file,
    or any indent, goes through the pure-Python one. Columns keep the
    dicts it must sort to a handful per trace.
    """
    text = json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_trace(path: str | os.PathLike) -> RunTrace:
    """Read a trace written by save_trace; ParseError for anything else:
    a trace of another format version, or a file whose JSON differs from
    what save_trace writes for the trace it loads to (RunTrace.from_dict)."""
    data = read_json(path)
    try:
        return RunTrace.from_dict(data)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: not a run trace ({e!r})") from e


# ---------------------------------------------------------------------------
# Waterfilling runs
# ---------------------------------------------------------------------------

def _primal_increments(f: SubmodularFn, raised, X, denom: float) -> dict[int, float]:
    """Split each region's mass over the elements of X missing from its
    base, by their marginals added in ascending id order, scaled by
    1 / denom. raised holds the (region, base) pairs of the raise of X: the
    chain of heights starts at the region's old_height and ends at its
    new_height, so only the steps in between are asked of f.chain_values."""
    inc: dict[int, float] = {}
    for r, mask in raised:
        width = r.hi - r.lo
        missing = [u for u in X if not (mask >> u) & 1]
        heights = [r.old_height, *f.chain_values(mask, missing[:-1]), r.new_height]
        for u, prev, cur in zip(missing, heights, heights[1:]):
            if cur != prev:
                inc[u] = inc.get(u, 0.0) + width * (cur - prev) / denom
    return inc


def _run_waterfilling(instance: Instance, algorithm: str) -> RunTrace:
    f = instance.f
    n = instance.n_offline
    chart = BarChart.from_potentials(f, [0.0] * n)
    z: dict[int, float] = {}
    x: dict[tuple[int, int], float] = {}
    rounds: list[WaterfillRound] = []
    for arr in instance.arrivals:
        y = chart.levels
        nmask = instance.masks[arr.id]
        if algorithm == "obvc":
            a = _modular_water_level(y, arr.nbrs)
        else:
            a = water_level(chart, nmask)
        X = tuple([u for u in arr.nbrs if y[u] < a])  # a list comprehension is the faster loop
        raised = chart.raise_to(X, nmask & ~chart.at_or_above(a), a)
        z[arr.id] = 1.0 - a
        if algorithm == "mobm-pd":
            for u, val in _primal_increments(f, raised, X, a + ALPHA).items():
                x[(u, arr.id)] = val
        rounds.append(WaterfillRound(arr.id, a, X, tuple(r for r, _ in raised)))
    state = OnlineState(y=chart.levels, z=z, x=x, chart=chart)
    primal = float(sum(x.values()))
    dual = chart.area() + sum(z.values())
    return RunTrace(algorithm, instance.name, n, rounds, state, primal, dual)


def run_obvc(instance: Instance) -> RunTrace:
    """Online fractional vertex cover waterfilling on a plain bipartite
    graph. The budget must be cardinality."""
    if instance.f.family != "cardinality":
        raise PreconditionError("run_obvc requires a cardinality budget; use run_mobvc")
    return _run_waterfilling(instance, "obvc")


def run_mobvc(instance: Instance) -> RunTrace:
    """Online fractional cover with a monotone submodular offline budget."""
    return _run_waterfilling(instance, "mobvc")


def run_mobm_pd(instance: Instance) -> RunTrace:
    """Primal-dual waterfilling: the mobvc duals plus a fractional matching
    whose value is exactly dual / (1 + ALPHA)."""
    return _run_waterfilling(instance, "mobm-pd")


# ---------------------------------------------------------------------------
# Random-arrival greedy
# ---------------------------------------------------------------------------

def _greedy_core(f: SubmodularFn, masks: dict[int, int], ordered, m_mask: int = 0,
                 rejoin=None) -> list[tuple[int, float, int | None, int]]:
    """Run greedy over ordered (Arrival, t) pairs, starting from the matched
    mask m_mask; shared by the public run and the lemma audit. masks maps
    each arrival's id to its neighbor mask (Instance.masks). One (vid, t,
    pick, newly-spanned mask) step per arrival, pick None when every
    neighbor was spanned.

    The pick is the lowest set bit of the arrival's mask outside the span,
    its lowest-id unspanned neighbor. Once the span is the whole ground set
    no neighbor is outside it, so every later step is (vid, t, None, 0) and
    the rest of ordered is not scanned.

    rejoin, when given, holds another run's span after each of the same
    arrivals, and the core stops at the first pick that brings its span to
    that one: the span alone fixes every later step of a matroid greedy.
    """
    steps: list[tuple[int, float, int | None, int]] = []
    full = f.ground.full_mask
    span_now = span_mask(f, m_mask)
    ordered = iter(ordered)
    for arr, t in ordered:
        free = masks[arr.id] & ~span_now
        if not free:
            steps.append((arr.id, t, None, 0))
            continue
        low = free & -free
        m_mask |= low
        new_span = span_mask(f, m_mask)
        steps.append((arr.id, t, low.bit_length() - 1, new_span & ~span_now))
        span_now = new_span
        if rejoin is not None and span_now == rejoin[len(steps) - 1]:
            return steps
        if span_now == full:
            break
    steps.extend((arr.id, t, None, 0) for arr, t in ordered)
    return steps


def _greedy_duals(steps, n: int) -> tuple[list[float], dict[int, float]]:
    """Potentials y and online duals z of a greedy run: a step matched at
    time t gives its arrival (1 + ALPHA) e^(t-1) and each element it spans
    the rest of 1 + ALPHA."""
    y = [0.0] * n
    z: dict[int, float] = {}
    for vid, t, pick, newly in steps:
        if pick is None:
            continue
        rate = dual_split_rate(t)
        z[vid] = (1.0 + ALPHA) * rate
        yval = (1.0 + ALPHA) * (1.0 - rate)
        for u in mask_members(newly):
            y[u] = yval
    return y, z


def _greedy_state(rounds: list[GreedyRound], n: int) -> OnlineState:
    """The final state a greedy run's rounds fix: y and z by _greedy_duals,
    x = 1.0 at (matched, v) of each matched round, and the matched set."""
    y, z = _greedy_duals([(rec.v, rec.t, rec.matched, sum(1 << u for u in rec.X))
                          for rec in rounds], n)
    x = {(rec.matched, rec.v): 1.0 for rec in rounds if rec.matched is not None}
    return OnlineState(y=y, z=z, x=x, matched=frozenset(u for u, _ in x))


def _greedy_run(instance: Instance, ordered):
    """One greedy run over ordered: its steps, duals y and z, and its primal
    and dual values."""
    f = instance.f
    steps = _greedy_core(f, instance.masks, ordered)
    y, z = _greedy_duals(steps, instance.n_offline)
    return steps, y, z, float(len(z)), lovasz(f, y) + sum(z.values())


def _require_matroid(f: SubmodularFn):
    if not is_matroid_rank(f):
        raise PreconditionError("random-arrival greedy requires a matroid rank budget")


def run_random_arrival_greedy(instance: Instance,
                              model: ArrivalModel | None = None,
                              timestamps: dict[int, float] | None = None) -> RunTrace:
    """Integral greedy matching under random arrivals.

    The budget must be a matroid rank. Arrivals are ordered by the model
    (default adversarial, stamping rank/m) unless explicit timestamps are
    given, which is the hook used by tests; InputError when both are. Each
    arrival takes its lowest-id neighbor outside span(matched set).
    """
    f = instance.f
    _require_matroid(f)
    if timestamps is not None:
        if model is not None:
            raise InputError("give an arrival model or timestamps, not both")
        ordered = by_timestamp(instance.arrivals, timestamps)
    else:
        ordered = order_arrivals(instance, model or ArrivalModel())
    n = instance.n_offline
    steps, _, _, primal, dual = _greedy_run(instance, ordered)
    rounds = [GreedyRound(vid, t, mask_members(newly), pick) for vid, t, pick, newly in steps]
    return RunTrace("greedy-ra", instance.name, n, rounds, _greedy_state(rounds, n), primal, dual)


def greedy_trials(instance: Instance, kind: str, seed: int,
                  trials: int) -> list[tuple[float, float]]:
    """(primal, dual) of run_random_arrival_greedy(instance,
    ArrivalModel(kind, seed + i)) for i = 0..trials-1, equal to the bit,
    with the orders drawn as blocks and no run record built. InputError
    when trials is not an int >= 1 or seed not an int (bools included)."""
    trials = check_int("trials", trials, 1)
    seed = ArrivalModel(kind, seed).seed  # InputError for an unknown kind or a non-int seed
    _require_matroid(instance.f)
    return [_greedy_run(instance, ordered)[3:]
            for ordered in arrival_orders(instance, kind, range(seed, seed + trials))]


def run_algorithm(algorithm: str, instance: Instance,
                  model: ArrivalModel | None = None) -> RunTrace:
    """The run of the algorithm named by algorithm, one of ALGORITHMS.
    model orders the arrivals of greedy-ra; the waterfilling runs take the
    stored order."""
    if algorithm == "obvc":
        return run_obvc(instance)
    if algorithm == "mobvc":
        return run_mobvc(instance)
    if algorithm == "mobm-pd":
        return run_mobm_pd(instance)
    if algorithm == "greedy-ra":
        return run_random_arrival_greedy(instance, model)
    raise InputError(f"unknown algorithm {algorithm!r}")
