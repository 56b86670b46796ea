"""Problem instances, arrival models, generators, and JSON persistence.

An instance is a bipartite graph with n_offline ground elements on the
offline side, a budget function f over them, and an ordered list of online
arrivals, each bringing its neighbor set. The stored arrival order is the
adversarial order; arrival models reorder it and attach timestamps.

Seeded generation uses SplitMix64 (64-bit state, one mixed stream per
online vertex) so instances are reproducible bit-for-bit from (params,
seed) and the generator is easy to restate outside Python. _streams, the
one place in the package that turns seeds into numbers, draws many streams
per call as numpy uint64 blocks; _uniforms makes floats of them. The tests
hold both to the one-draw-at-a-time SplitMix64 class in tests/helpers.py,
and bench/reference.py restates gen_random's streams on its own. Golden
tests should still pin serialized instance files rather than seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError, ParseError, SizeError, check_int
from .submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    SubmodularFn,
    fn_from_spec,
    mask_members,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64's two output multipliers; _mix64 is the package's one mixer.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# gen_random draws at most max(n, _BLOCK_DRAWS) values per numpy block, and
# the arrival models at most max(m, _BLOCK_DRAWS).
_BLOCK_DRAWS = 1 << 12

# Largest n_offline, number of arrivals and number of edges of an instance.
INSTANCE_SIZE_LIMIT = 1 << 20


def check_size(what: str, count: int):
    """SizeError when an instance's n_offline, m or edge count (named by
    what) exceeds INSTANCE_SIZE_LIMIT."""
    if count > INSTANCE_SIZE_LIMIT:
        raise SizeError(f"{what} = {count} exceeds the instance size limit "
                        f"{INSTANCE_SIZE_LIMIT}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, in place; returns z.
    Every operand is uint64, so products wrap mod 2^64 without a warning."""
    u64 = np.uint64
    z ^= z >> u64(30)
    z *= u64(_MIX1)
    z ^= z >> u64(27)
    z *= u64(_MIX2)
    z ^= z >> u64(31)
    return z


def _streams(seeds, count: int) -> np.ndarray:
    """A uint64 array whose row r holds the first count outputs of
    SplitMix64(seeds[r]): output i (from 1) is mix(seed + i * G). seeds is
    a sequence of ints, each masked to 64 bits, or a uint64 array."""
    u64 = np.uint64
    if not isinstance(seeds, np.ndarray):
        seeds = np.array([s & _MASK64 for s in seeds], dtype=u64)
    return _mix64(seeds[:, None] + np.arange(1, count + 1, dtype=u64) * u64(_GOLDEN))


def _uniforms(seeds, count: int) -> np.ndarray:
    """The float64 array (_streams(seeds, count) >> 11) * 2^-53: each draw's
    top 53 bits as an exact float in [0, 1)."""
    return (_streams(seeds, count) >> np.uint64(11)) * 2.0 ** -53


def _edge_rows(n: int, m: int, p: float, seed: int):
    """The adjacency rows of gen_random's G(n, m, p), one boolean row of n
    per arrival, drawn in blocks of at most max(n, _BLOCK_DRAWS) values.

    Arrival j's stream (SplitMix64(seed).split(j + 1) in the tests'
    reference class) is seeded by the first output of the stream of
    seed ^ (j + 1) * G, and its u-th draw decides edge (u, j). The edge is
    present when (draw >> 11) * 2^-53 < p; as that product is exact, this is
    (draw >> 11) < ceil(p * 2^53).
    """
    u64 = np.uint64
    golden, root = u64(_GOLDEN), u64(seed & _MASK64)
    limit = u64(math.ceil(p * 2.0 ** 53))
    rows = max(1, _BLOCK_DRAWS // n)
    for j0 in range(0, m, rows):
        keys = np.arange(j0 + 1, min(j0 + rows, m) + 1, dtype=u64) * golden
        keys ^= root
        draws = _streams(_streams(keys, 1)[:, 0], n)
        draws >>= u64(11)
        yield from draws < limit


@dataclass(frozen=True)
class Arrival:
    """An online vertex; nbrs is held as ascending distinct offline ids,
    whatever order it is given in."""

    id: int
    nbrs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nbrs", tuple(sorted(set(self.nbrs))))


def _vertex_id(key) -> int | None:
    """key as an int when it is an int or a numpy int (bools excluded), else
    None: the one rule by which arrival ids, neighbor lists and the keys of
    x and z name vertices."""
    if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
        return None
    return int(key)


def _int_ids(arr: Arrival) -> Arrival:
    """arr with its id and neighbors as ints; InputError for one that is
    neither an int nor a numpy int (bools included)."""
    if _vertex_id(arr.id) is None:
        raise InputError(f"arrival id {arr.id!r} is not an int")
    bad = [u for u in arr.nbrs if _vertex_id(u) is None]
    if bad:
        raise InputError(f"arrival {arr.id}: neighbor {bad[0]!r} is not an int")
    return Arrival(int(arr.id), tuple(map(int, arr.nbrs)))


@dataclass
class Instance:
    name: str
    n_offline: int
    f: SubmodularFn
    arrivals: list[Arrival] = field(default_factory=list)
    # online id -> the mask of its neighbors, built with the id checks
    masks: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """InputError when n_offline is not the budget's ground-set size, an
        arrival id or a neighbor is not an int (bools included), a neighbor
        lies outside 0..n_offline-1, or two arrivals share an id. Ids and
        neighbors that are numpy ints are taken as ints."""
        n = self.n_offline
        if n != self.f.ground.size:
            raise InputError(f"n_offline = {n} differs from the budget's ground set size "
                             f"{self.f.ground.size}")
        # one column check of the id and neighbor types; the per-arrival pass
        # runs only when it fails, to name the arrival or convert numpy ints
        ids = (arr.id for arr in self.arrivals)
        nbrs = chain.from_iterable(arr.nbrs for arr in self.arrivals)
        if not set(map(type, chain(ids, nbrs))) <= {int}:
            self.arrivals = [_int_ids(arr) for arr in self.arrivals]
        masks = self.masks = {}
        for i, arr in enumerate(self.arrivals):
            if arr.nbrs and (arr.nbrs[0] < 0 or arr.nbrs[-1] >= n):
                raise InputError(f"arrival {arr.id}: a neighbor lies outside 0..{n - 1}")
            if arr.id in masks:
                j = next(k for k, a in enumerate(self.arrivals) if a.id == arr.id)
                raise InputError(f"arrivals[{i}].id: duplicate online id {arr.id}; "
                                 f"arrivals {j} and {i} share an online id")
            mask = 0
            for u in arr.nbrs:
                mask |= 1 << u
            masks[arr.id] = mask

    def online_id(self, key) -> int | None:
        """key as an online id (by the _vertex_id rule), or None when it
        names no online vertex."""
        vid = _vertex_id(key)
        return vid if vid in self.masks else None

    @property
    def ground(self) -> GroundSet:
        return self.f.ground

    @property
    def m_online(self) -> int:
        return len(self.arrivals)

    def edges(self) -> list[tuple[int, int]]:
        """(offline u, online v) pairs."""
        return [(u, arr.id) for arr in self.arrivals for u in arr.nbrs]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_offline": self.n_offline,
            "f": self.f.to_spec(),
            "arrivals": [{"id": a.id, "nbrs": list(a.nbrs)} for a in self.arrivals],
        }


@dataclass(frozen=True)
class ArrivalModel:
    """How online vertices are ordered and stamped.

    kind is one of 'adversarial' (stored order, rank/m timestamps), 'permutation'
    (seeded uniform shuffle, rank/m timestamps), or 'timestamps' (i.i.d. uniform
    draws, sorted ascending, ties by id). seed is an int, not a bool, mod 2^64.
    """

    kind: str = "adversarial"
    seed: int = 0

    KINDS = ("adversarial", "permutation", "timestamps")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"unknown arrival model {self.kind!r}; expected one of {self.KINDS}")
        check_int("arrival model seed", self.seed)


def by_timestamp(arrivals, timestamps: dict[int, float]) -> list[tuple[Arrival, float]]:
    """(arrival, t) pairs sorted by t, ties by id: stamp_orders of the one
    row of timestamps. InputError when an arrival has no timestamp or one
    outside [0, 1] (NaN included)."""
    missing = [a.id for a in arrivals if a.id not in timestamps]
    if missing:
        raise InputError(f"timestamps missing for arrivals {missing}")
    return stamp_orders(arrivals, np.array([[timestamps[a.id] for a in arrivals]],
                                           dtype=np.float64))[0]


def stamp_orders(arrivals, stamps: np.ndarray) -> list[list[tuple[Arrival, float]]]:
    """The (arrival, t) pairs of every row of stamps, a float64 block with
    one column per arrival, in the order of arrivals: one lexsort orders the
    whole block by t (as Python floats), ties by id. InputError when the
    block has another width or a stamp outside [0, 1] (NaN included)."""
    m = len(arrivals)
    if stamps.ndim != 2 or stamps.shape[1] != m:
        raise InputError(f"need a block of timestamps with {m} columns, got shape {stamps.shape}")
    if not ((stamps >= 0.0) & (stamps <= 1.0)).all():
        raise InputError("timestamps must lie in [0, 1]")
    # each arrival's rank by id stands in for its id, which need not fit a numpy int
    ranks = np.empty(m, dtype=np.intp)
    ranks[sorted(range(m), key=lambda i: arrivals[i].id)] = np.arange(m)
    idx = np.lexsort((np.broadcast_to(ranks, stamps.shape), stamps), axis=-1)
    times = np.take_along_axis(stamps, idx, axis=-1).tolist()
    return [list(zip(map(arrivals.__getitem__, row), ts)) for row, ts in zip(idx.tolist(), times)]


def arrival_orders(instance: Instance, kind: str, seeds):
    """order_arrivals(instance, ArrivalModel(kind, s)) for each s in seeds
    (a sequence of ints), in turn, from streams drawn as blocks of at most
    max(m, _BLOCK_DRAWS) values.

    Under 'permutation' the k-th draw d of a seed's stream sets Fisher-Yates
    position i = m - 1 - k against j = d % (i + 1), a plain modulo. Under
    'timestamps' the i-th draw stamps the i-th stored arrival with its
    _uniforms float.
    """
    ArrivalModel(kind)  # InputError for an unknown kind
    arrivals = instance.arrivals
    m = len(arrivals)
    if m == 0 or kind == "adversarial":
        for _ in seeds:
            yield [(a, (i + 1) / m) for i, a in enumerate(arrivals)]
        return
    rows = max(1, _BLOCK_DRAWS // m)
    for lo in range(0, len(seeds), rows):
        block = seeds[lo:lo + rows]
        if kind == "permutation":
            picks = _streams(block, m - 1) % np.arange(m, 1, -1, dtype=np.uint64)
            for row in picks.tolist():
                order = list(arrivals)
                for i, j in zip(range(m - 1, 0, -1), row):
                    order[i], order[j] = order[j], order[i]
                yield [(a, (i + 1) / m) for i, a in enumerate(order)]
        else:
            yield from stamp_orders(arrivals, _uniforms(block, m))


def order_arrivals(instance: Instance, model: ArrivalModel) -> list[tuple[Arrival, float]]:
    """Processing order with a timestamp per arrival, ascending."""
    return next(arrival_orders(instance, model.kind, [model.seed]))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_upper_triangular(n: int) -> Instance:
    """v_j neighbors {u_j, ..., u_n} under cardinality: opt = n, and the
    adversarial order is the classic hard sequence for ratio 1 - 1/e."""
    if check_int("n", n) < 1:
        raise InputError(f"n must be >= 1, got {n}")
    check_size("n_offline", n)
    check_size("edges", n * (n + 1) // 2)
    g = GroundSet(n)
    arrivals = [Arrival(j, tuple(range(j, n))) for j in range(n)]
    return Instance(f"triangular-{n}", n, Cardinality(g), arrivals)


def gen_random(n: int, m: int, p: float, f: SubmodularFn | None = None,
               seed: int = 0) -> Instance:
    """G(n, m, p) bipartite: each (u, v) edge present independently with
    probability p, decided by a per-online-vertex SplitMix64 stream (see
    _edge_rows). SizeError at the first arrival whose running edge count
    exceeds INSTANCE_SIZE_LIMIT."""
    check_int("seed", seed)
    if check_int("n", n) < 1 or check_int("m", m) < 0:
        raise InputError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability p = {p} outside [0, 1]")
    check_size("n_offline", n)
    check_size("m", m)
    g = GroundSet(n)
    if f is None:
        f = Cardinality(g)
    arrivals = []
    edges = 0
    for j, row in enumerate(_edge_rows(n, m, p, seed)):
        nbrs = np.flatnonzero(row).tolist()
        edges += len(nbrs)
        check_size("edges", edges)
        arrivals.append(Arrival(j, tuple(nbrs)))
    return Instance(f"random-n{n}-m{m}-p{p:g}-s{seed}-{f.family}", n, f, arrivals)


def random_coverage_table(n: int, seed: int, universe: int | None = None) -> ExplicitTable:
    """Random weighted coverage function as an explicit table.

    Element u covers a random subset of a weighted universe; f(S) is the
    weight covered by S. Always nonnegative, monotone, and submodular, and
    generically none of the closed-form families. One row of _uniforms
    draws gives the universe's weights 0.05 + d, then each element's row: it
    covers j when d < 0.45. SizeError when universe * 2^n exceeds
    INSTANCE_SIZE_LIMIT.
    """
    check_int("seed", seed)
    if not 1 <= check_int("n", n) <= 12:
        raise InputError(f"coverage tables supported for 1 <= n <= 12, got {n}")
    universe = 2 * n + 1 if universe is None else check_int("universe", universe)
    if universe < 1:
        raise InputError(f"universe must be >= 1, got {universe}")
    check_size("coverage table work universe * 2^n", universe << n)
    draws = _uniforms([seed], universe * (n + 1))[0]
    weights = (0.05 + draws[:universe]).tolist()
    covers = [sum(1 << j for j in np.flatnonzero(row < 0.45).tolist())
              for row in draws[universe:].reshape(n, universe)]
    values = []
    for smask in range(1 << n):
        covered = 0
        for u in mask_members(smask):
            covered |= covers[u]
        values.append(sum(weights[j] for j in mask_members(covered)))
    return ExplicitTable(GroundSet(n), values)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# Checked reads of parsed JSON for both file readers (instances here,
# run traces in algorithms): each raises ValueError on a value of the wrong
# type. Bools are never numbers or ids.

def json_number(v) -> float:
    """A finite number read from JSON, as a float; ValueError otherwise
    (bools, strings and non-finite values included)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return v


def json_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def json_list(v) -> list:
    if not isinstance(v, list):
        raise ValueError(f"expected a list, got {v!r}")
    return v


# The column readers check a whole list at once: one pass for the set of
# types, one for finiteness. The per-value reader runs only on a list that
# fails, to raise its error at the first bad value.

def json_ints(v) -> tuple[int, ...]:
    col = json_list(v)
    if set(map(type, col)) <= {int}:
        return tuple(col)
    return tuple(map(json_int, col))


def json_numbers(v) -> list[float]:
    """json_number over a list: its values as floats."""
    col = json_list(v)
    types = set(map(type, col))
    if types <= {float, int}:
        try:
            floats = list(map(float, col)) if int in types else col
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if all(map(math.isfinite, floats)):
                return floats
    return list(map(json_number, col))


def read_json(path: str | os.PathLike):
    """The parsed contents of a UTF-8 JSON file; ParseError for bad JSON,
    bad UTF-8 or nesting too deep to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: not valid JSON ({e})") from e


def _bad_neighbor(nbrs: list, n: int, ctx: str):
    """ParseError naming the first neighbor of nbrs that is not an int in
    0..n-1 or that repeats an earlier one; returns when there is none."""
    seen_u = set()
    for j, u in enumerate(nbrs):
        if isinstance(u, bool) or not isinstance(u, int) or not 0 <= u < n:
            raise ParseError(f"{ctx}.nbrs[{j}]: neighbor {u!r} out of range (n_offline={n})")
        if u in seen_u:
            raise ParseError(f"{ctx}.nbrs[{j}]: duplicate neighbor {u}")
        seen_u.add(u)


def instance_from_dict(data: dict, where: str = "instance") -> Instance:
    def need(obj, key, ctx):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"{ctx}: missing field '{key}'")
        return obj[key]

    def checked(read, value, ctx):
        try:
            return read(value)
        except ValueError as e:
            raise ParseError(f"{ctx}: {e}") from e

    name = need(data, "name", where)
    if not isinstance(name, str):
        raise ParseError(f"{where}.name: expected a string, got {name!r}")
    n = checked(json_int, need(data, "n_offline", where), f"{where}.n_offline")
    if n < 0:
        raise ParseError(f"{where}.n_offline: expected a nonnegative int, got {n!r}")
    check_size(f"{where}.n_offline", n)
    fspec = need(data, "f", where)
    try:
        f = fn_from_spec(fspec, GroundSet(n))
    except (ValueError, TypeError, OverflowError) as e:  # InputError, or a field of the wrong type
        raise ParseError(f"{where}.f: {e}") from e
    raw = checked(json_list, need(data, "arrivals", where), f"{where}.arrivals")
    check_size(f"{where}: m", len(raw))
    arrivals = []
    edges = 0
    for i, entry in enumerate(raw):
        ctx = f"{where}.arrivals[{i}]"
        vid = checked(json_int, need(entry, "id", ctx), f"{ctx}.id")
        nbrs = checked(json_list, need(entry, "nbrs", ctx), f"{ctx}.nbrs")
        edges += len(nbrs)
        check_size(f"{where}: edges", edges)
        # types first, as Arrival sorts them; then range and repeats, read
        # off Arrival's ascending distinct ids
        if not set(map(type, nbrs)) <= {int}:
            _bad_neighbor(nbrs, n, ctx)
        arr = Arrival(vid, tuple(nbrs))
        if len(arr.nbrs) != len(nbrs) or (nbrs and (arr.nbrs[0] < 0 or arr.nbrs[-1] >= n)):
            _bad_neighbor(nbrs, n, ctx)
        arrivals.append(arr)
    try:
        return Instance(name, n, f, arrivals)
    except InputError as e:  # a duplicate online id, named by its position
        raise ParseError(f"{where}.{e}") from e


_JSON_SCALARS = {int, float, str, bool, type(None)}


def _indented(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(key)}: {_indented(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _JSON_SCALARS:
            # one C-encoder call: its item separator carries the line break
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_indented(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)


def indented_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for nested
    dicts with string keys, lists and JSON scalars. json.dumps with an
    indent runs the pure-Python encoder; here each list of scalars is
    encoded by one call of the C encoder."""
    return _indented(obj, "")


def save(instance: Instance, path: str | os.PathLike):
    """Write the instance as indented_json(instance.to_dict()) plus LF."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(indented_json(instance.to_dict()))
        fh.write("\n")


def load(path: str | os.PathLike) -> Instance:
    """Read an instance file; ParseError for anything but a valid instance."""
    return instance_from_dict(read_json(path), where=str(path))
