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
from .constants import ALPHA, DEFAULT_TOL
from .errors import (
    InputError,
    InvariantError,
    ParseError,
    PreconditionError,
    check_finite,
    check_int,
)
from .instances import (
    Arrival,
    ArrivalModel,
    Instance,
    _uniforms,
    arrival_orders,
    by_timestamp,
    json_int,
    json_ints,
    json_list,
    json_number,
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
TRACE_FORMAT = 7


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
    the column of arrival ids, of the same length."""
    rows = json_list(col)
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


def _x_column(rounds: list["WaterfillRound"], x: dict[tuple[int, int], float]) -> list:
    """The x column of a mobm-pd trace: x_uv for each u of each round's X
    (v the round's arrival), in order, None where the round gave u nothing.
    InvariantError when x has an entry the column cannot hold, one outside
    its round's X."""
    col = [x.get((u, rec.v)) for rec in rounds for u in rec.X]
    stored = len(col) - col.count(None)
    if stored != len(x):
        raise InvariantError(f"x has {len(x)} entries, but its rounds' X hold {stored} of them")
    return col


def _x_from_column(col, rounds: list["WaterfillRound"]) -> dict[tuple[int, int], float]:
    """Inverse of _x_column, with the entries in column order; ValueError
    for a column of another length or an entry neither null nor a finite
    number."""
    col = json_list(col)
    keys = [(u, rec.v) for rec in rounds for u in rec.X]
    if len(col) != len(keys):
        raise ValueError(f"x column of {len(col)} entries for {len(keys)} raised ids")
    stored = list(map(operator.is_not, col, repeat(None)))
    return dict(zip(compress(keys, stored), json_numbers(list(compress(col, stored)))))


def _same_length(what: str, **cols):
    lengths = {key: len(col) for key, col in cols.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"{what} columns of unequal length: {lengths}")


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
        lo, hi = [r.lo for r in regions], [r.hi for r in regions]
        bounds = sorted(set(lo).union(hi))
        index = {b: i for i, b in enumerate(bounds)}
        return {"v": [rec.v for rec in rounds], "a": [rec.a for rec in rounds],
                "X": [rec.X for rec in rounds],
                "regions": [len(rec.regions) for rec in rounds],
                "bounds": bounds, "lo": list(map(index.__getitem__, lo)),
                "hi": list(map(index.__getitem__, hi)),
                "old_height": [r.old_height for r in regions],
                "new_height": [r.new_height for r in regions]}

    @staticmethod
    def from_columns(cols: dict, n: int) -> list["WaterfillRound"]:
        """Inverse of to_columns; ValueError, TypeError or KeyError on a
        malformed or out-of-range column. bounds must be strictly ascending
        within [0, 1] with every entry used, and each region's lo and hi
        indexes into it with lo <= hi."""
        v, a, counts = json_ints(cols["v"]), json_numbers(cols["a"]), json_ints(cols["regions"])
        X = json_list(cols["X"])
        bounds, lo, hi = json_numbers(cols["bounds"]), json_ints(cols["lo"]), json_ints(cols["hi"])
        old, new = json_numbers(cols["old_height"]), json_numbers(cols["new_height"])
        _same_length("round", v=v, a=a, X=X, regions=counts)
        _same_length("region", lo=lo, hi=hi, old_height=old, new_height=new)
        if counts and min(counts) < 0:
            raise ValueError(f"negative region count {min(counts)}")
        if sum(counts) != len(lo):
            raise ValueError(f"region counts add up to {sum(counts)}, not {len(lo)}")
        if a and (min(a) < 0.0 or max(a) > 1.0):
            bad = next(level for level in a if not 0.0 <= level <= 1.0)
            raise ValueError(f"water level a = {bad} outside [0, 1]")
        _check_bounds(bounds, lo, hi)
        regions = map(NewRegion, map(bounds.__getitem__, lo), map(bounds.__getitem__, hi),
                      old, new)
        return [WaterfillRound(vid, level, ids, tuple(islice(regions, k)))
                for vid, level, ids, k in zip(v, a, _offline_ids(X, v, n), counts)]


def _check_bounds(bounds: list[float], lo: tuple[int, ...], hi: tuple[int, ...]):
    """ValueError unless bounds is strictly ascending within [0, 1], lo and
    hi are indexes into it with lo <= hi, and they use every entry: one
    bytes form per trace."""
    if bounds and (min(bounds) < 0.0 or max(bounds) > 1.0):
        bad = next(b for b in bounds if not 0.0 <= b <= 1.0)
        raise ValueError(f"region bound {bad} outside [0, 1]")
    if not all(map(operator.lt, bounds, bounds[1:])):
        i = next(i for i in range(len(bounds) - 1) if not bounds[i] < bounds[i + 1])
        raise ValueError(f"bounds[{i + 1}] = {bounds[i + 1]} is not above "
                         f"bounds[{i}] = {bounds[i]}")
    if lo and (min(lo) < 0 or max(hi) >= len(bounds) or not all(map(operator.le, lo, hi))):
        i = next(i for i in range(len(lo)) if not 0 <= lo[i] <= hi[i] < len(bounds))
        raise ValueError(f"region {i}: lo = {lo[i]}, hi = {hi[i]} are not indexes "
                         f"0 <= lo <= hi < {len(bounds)} into bounds")
    used = set(lo).union(hi)
    if len(used) != len(bounds):
        unused = next(i for i in range(len(bounds)) if i not in used)
        raise ValueError(f"bounds[{unused}] = {bounds[unused]} is no region's lo or hi")


@dataclass
class GreedyRound:
    """One arrival of the random-arrival greedy at timestamp t: its
    decisions only.

    matched is the element it took (None when every neighbor was spanned)
    and X the elements that entered the span with it. The arrival's dual
    is the final z at v.
    """

    v: int
    t: float
    X: tuple[int, ...] = ()
    matched: int | None = None

    @staticmethod
    def to_columns(rounds: list["GreedyRound"]) -> dict:
        return {"v": [rec.v for rec in rounds], "t": [rec.t for rec in rounds],
                "X": [rec.X for rec in rounds], "matched": [rec.matched for rec in rounds]}

    @staticmethod
    def from_columns(cols: dict, n: int) -> list["GreedyRound"]:
        """Inverse of to_columns; ValueError, TypeError or KeyError on a
        malformed or out-of-range column."""
        v, t = json_ints(cols["v"]), json_numbers(cols["t"])
        X, matched = json_list(cols["X"]), json_list(cols["matched"])
        _same_length("round", v=v, t=t, X=X, matched=matched)
        if not set(map(type, matched)) <= {int, type(None)}:
            bad = next(u for u in matched if u is not None and type(u) is not int)
            raise ValueError(f"expected an integer or null, got {bad!r}")
        return list(map(GreedyRound, v, t, _offline_ids(X, v, n), matched))


@dataclass
class OnlineState:
    """Final algorithm state: offline potentials y, online duals z, edge
    variables x, the bar chart (waterfilling runs only, not serialized and
    not compared), and the matched element set."""

    y: list[float]
    z: dict[int, float]
    x: dict[tuple[int, int], float]
    chart: BarChart | None = field(default=None, compare=False)
    matched: frozenset[int] = frozenset()


def _round_type(algorithm: str) -> type[WaterfillRound] | type[GreedyRound]:
    return GreedyRound if algorithm == "greedy-ra" else WaterfillRound


def _json_rows(v, width: int) -> list[list]:
    """The columns of a JSON list of rows of width entries each."""
    rows = json_list(v)
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        bad = next(r for r in rows if type(r) is not list or len(r) != width)
        raise ValueError(f"expected a list of {width} entries, got {bad!r}")
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


@dataclass
class RunTrace:
    """One run: its rounds, in arrival order, and its final state.

    On disk (format 7) the rounds are one object of parallel columns, one
    entry per round: waterfilling runs store v, a, X and regions (each
    round's region count), and the region fields lo, hi, old_height and
    new_height as flat columns over all rounds in order, lo and hi as
    indexes into bounds, the ascending distinct values of both; greedy runs
    store v, t, X and matched. A mobm-pd trace also stores x as a column
    over the flattened X: the entry of u in round v's X is x_uv, or null
    when the round gave u nothing. The final block holds y, z as [v, z_v]
    rows, matched_offline, primal_value and dual_value; a greedy-ra trace
    also holds x there as [u, v, 1.0] rows sorted by (u, v). Loading
    rebuilds state.x from whichever of the two a trace has.
    """

    algorithm: str
    instance_name: str
    n_offline: int
    rounds: list[WaterfillRound] | list[GreedyRound]
    state: OnlineState
    primal_value: float
    dual_value: float

    def to_dict(self) -> dict:
        x = self.state.x
        rounds = _round_type(self.algorithm).to_columns(self.rounds)
        final = {
            "y": list(self.state.y),
            "z": sorted(self.state.z.items()),
            "matched_offline": sorted(self.state.matched),
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
        }
        if self.algorithm == "greedy-ra":
            final["x"] = [(u, v, x[u, v]) for u, v in sorted(x)]
        elif self.algorithm == "mobm-pd":
            rounds["x"] = _x_column(self.rounds, x)
        elif x:
            raise InvariantError(f"a {self.algorithm} run has {len(x)} x entries to store")
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
        ValueError, TypeError or KeyError for a malformed trace."""
        if not isinstance(d, dict):
            raise ValueError("a run trace is a JSON object")
        if d.get("format") != TRACE_FORMAT:
            found = repr(d["format"]) if "format" in d else '1 (no "format" field)'
            raise ParseError(f"trace format {found} is not supported; this version reads "
                             f"format {TRACE_FORMAT} only, so re-run the algorithm to "
                             f"write the trace again")
        algorithm = d["algorithm"]
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        name, n = d["instance"]["name"], json_int(d["instance"]["n_offline"])
        if not isinstance(name, str) or n < 0:
            raise ValueError(f"bad instance block {d['instance']!r}")
        if json_number(d["alpha"]) != ALPHA:
            raise ValueError(f"trace alpha {d['alpha']} differs from ALPHA = {ALPHA}")
        cols, fin = d["rounds"], d["final"]
        rounds = _round_type(algorithm).from_columns(cols, n)
        if algorithm == "greedy-ra":
            xu, xv, xval = _json_rows(fin["x"], 3)
            x = dict(zip(zip(json_ints(xu), json_ints(xv)), json_numbers(xval)))
        elif algorithm == "mobm-pd":
            x = _x_from_column(cols["x"], rounds)
        else:
            x = {}
        if ("x" in cols) != (algorithm == "mobm-pd") or ("x" in fin) != (algorithm == "greedy-ra"):
            raise ValueError(f"a {algorithm} trace stores x elsewhere: mobm-pd in the rounds, "
                             f"greedy-ra in the final block, and the others nowhere")
        y = json_numbers(fin["y"])
        if len(y) != n:
            raise ValueError(f"{len(y)} final potentials for n_offline = {n}")
        zv, zval = _json_rows(fin["z"], 2)
        state = OnlineState(
            y=y,
            z=dict(zip(json_ints(zv), json_numbers(zval))),
            x=x,
            matched=frozenset(json_ints(fin["matched_offline"])),
        )
        # a run without x entries stores the empty sum, the int 0; it loads
        # as 0 so that the loaded trace saves to the same bytes
        primal = fin["primal_value"]
        if not (type(primal) is int and primal == 0):
            primal = json_number(primal)
        return RunTrace(algorithm, name, n, rounds, state, primal,
                        json_number(fin["dual_value"]))


def save_trace(trace: RunTrace, path: str | os.PathLike):
    """Write the trace as one line of compact sorted-key JSON (format 7,
    columnar rounds, each region bound written once; see RunTrace).

    json.dumps encodes in one call to the C encoder; json.dump to a file,
    or any indent, goes through the pure-Python one. Columns keep the
    dicts it must sort to a handful per trace.
    """
    text = json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_trace(path: str | os.PathLike) -> RunTrace:
    """Read a trace written by save_trace; ParseError for anything else,
    including traces of another format version."""
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
    primal = sum(x.values())
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
    steps, y, z, primal, dual = _greedy_run(instance, ordered)
    rounds = [GreedyRound(vid, t, mask_members(newly), pick) for vid, t, pick, newly in steps]
    x = {(rec.matched, rec.v): 1.0 for rec in rounds if rec.matched is not None}
    state = OnlineState(y=y, z=z, x=x, chart=None, matched=frozenset(u for u, _ in x))
    return RunTrace("greedy-ra", instance.name, n, rounds, state, primal, dual)


def greedy_trials(instance: Instance, kind: str, seed: int,
                  trials: int) -> list[tuple[float, float]]:
    """(primal, dual) of run_random_arrival_greedy(instance,
    ArrivalModel(kind, seed + i)) for i = 0..trials-1, equal to the bit,
    with the orders drawn as blocks and no run record built. InputError
    when trials is not an int >= 1 or seed not an int (bools included)."""
    check_int("trials", trials, 1)
    ArrivalModel(kind, seed)  # InputError for an unknown kind or a non-int seed
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


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------

def round_cover(instance: Instance, y, z: dict[int, float], gamma: float | None = None,
                seed: int | None = None) -> tuple[frozenset[int], frozenset[int]]:
    """Round fractional cover duals to an integral cover with one shared
    threshold: u enters at y_u >= gamma, v at z_v >= 1 - gamma (both
    inclusive). Requires y_u + z_v >= 1 - DEFAULT_TOL on every edge, which
    makes the output a cover for every gamma in [0, 1]. Without gamma, the
    threshold is seed's first _uniforms draw (seed 0 by default).
    InputError for a gamma with a seed, a non-int seed, a non-finite y or
    z, or a key of z that is no online vertex (numpy ints are taken as
    ints; no other non-int, bools included, is one)."""
    y = [float(v) for v in y]
    if len(y) != instance.n_offline:
        raise InputError(f"need {instance.n_offline} potentials, got {len(y)}")
    check_finite("y", enumerate(y))
    check_finite("z", z.items())
    for key in z:
        if instance.online_id(key) is None:
            raise InputError(f"z[{key}]: no such online vertex")
    for u, vid in instance.edges():
        if y[u] + z.get(vid, 0.0) < 1.0 - DEFAULT_TOL:
            raise PreconditionError(
                f"edge ({u}, {vid}) is uncovered: y={y[u]}, z={z.get(vid, 0.0)}")
    if gamma is None:
        gamma = _uniforms([check_int("seed", 0 if seed is None else seed)], 1).item()
    elif seed is not None:
        raise InputError("give gamma or a seed, not both")
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma = {gamma} outside [0, 1]")
    S = frozenset(u for u in range(instance.n_offline) if y[u] >= gamma)
    T = frozenset(int(vid) for vid, zv in z.items() if zv >= 1.0 - gamma)
    return S, T
