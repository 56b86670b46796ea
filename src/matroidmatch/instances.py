"""Problem instances, arrival models, generators, and JSON persistence.

An instance is a bipartite graph with n_offline ground elements on the
offline side, a budget function f over them, and an ordered list of online
arrivals, each bringing its neighbor set. The stored arrival order is the
adversarial order; arrival models reorder it and attach timestamps.

Seeded generation uses SplitMix64 (64-bit state, one mixed stream per
online vertex) so instances are reproducible bit-for-bit from (params,
seed) and the generator is easy to restate outside Python. gen_random
computes its streams as numpy uint64 blocks, many draws per call; the
scalar SplitMix64 class serves the arrival models and the suites, and
bench/reference.py restates the streams one draw at a time. Golden tests
should still pin serialized instance files rather than seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParseError, SizeError
from .submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    PartitionBudget,
    SubmodularFn,
    UniformRank,
    WeightedThreshold,
    as_mask,
    fn_from_spec,
    mask_members,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64's two output multipliers, for the scalar and the array mixer.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# gen_random draws at most max(n, _BLOCK_DRAWS) values per numpy block.
_BLOCK_DRAWS = 1 << 12

# Largest n_offline, number of arrivals and number of edges of an instance.
INSTANCE_SIZE_LIMIT = 1 << 20


def check_size(what: str, count: int):
    """SizeError when an instance's n_offline, m or edge count (named by
    what) exceeds INSTANCE_SIZE_LIMIT."""
    if count > INSTANCE_SIZE_LIMIT:
        raise SizeError(f"{what} = {count} exceeds the instance size limit "
                        f"{INSTANCE_SIZE_LIMIT}")


class SplitMix64:
    """Tiny portable PRNG; split(key) derives an independent child stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        # rejection-free modulo is fine at desk scale
        return self.next_u64() % n

    def split(self, key: int) -> "SplitMix64":
        child = SplitMix64((self.state ^ (key * _GOLDEN)) & _MASK64)
        return SplitMix64(child.next_u64())


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


def _edge_rows(n: int, m: int, p: float, seed: int):
    """The adjacency rows of gen_random's G(n, m, p), one boolean row of n
    per arrival, drawn in blocks of at most max(n, _BLOCK_DRAWS) values.

    Arrival j's stream is SplitMix64(seed).split(j + 1): its seed is
    mix((seed ^ (j + 1) * G) + G), and its u-th draw mix(seed_j + (u + 1) * G).
    Edge (u, j) is present when (draw >> 11) * 2^-53 < p; as that product is
    exact, this is (draw >> 11) < ceil(p * 2^53).
    """
    u64 = np.uint64
    golden, root = u64(_GOLDEN), u64(seed & _MASK64)
    steps = np.arange(1, n + 1, dtype=u64) * golden
    limit = u64(math.ceil(p * 2.0 ** 53))
    rows = max(1, _BLOCK_DRAWS // n)
    for j0 in range(0, m, rows):
        keys = np.arange(j0 + 1, min(j0 + rows, m) + 1, dtype=u64) * golden
        keys ^= root
        keys += golden
        draws = _mix64(_mix64(keys)[:, None] + steps)
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


@dataclass
class Instance:
    name: str
    n_offline: int
    f: SubmodularFn
    arrivals: list[Arrival] = field(default_factory=list)

    def __post_init__(self):
        """InputError when n_offline is not the budget's ground-set size, a
        neighbor lies outside 0..n_offline-1, or two arrivals share an id."""
        n = self.n_offline
        if n != self.f.ground.size:
            raise InputError(f"n_offline = {n} differs from the budget's ground set size "
                             f"{self.f.ground.size}")
        first: dict[int, int] = {}
        for i, arr in enumerate(self.arrivals):
            if arr.nbrs and (arr.nbrs[0] < 0 or arr.nbrs[-1] >= n):
                raise InputError(f"arrival {arr.id}: a neighbor lies outside 0..{n - 1}")
            j = first.setdefault(arr.id, i)
            if j != i:
                raise InputError(f"arrivals[{i}].id: duplicate online id {arr.id}; "
                                 f"arrivals {j} and {i} share an online id")

    @property
    def ground(self) -> GroundSet:
        return self.f.ground

    @property
    def m_online(self) -> int:
        return len(self.arrivals)

    def edges(self) -> list[tuple[int, int]]:
        """(offline u, online v) pairs."""
        return [(u, arr.id) for arr in self.arrivals for u in arr.nbrs]

    def neighbor_mask(self, arrival: Arrival) -> int:
        return as_mask(self.ground, arrival.nbrs)

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

    kind is one of 'adversarial' (stored order, rank/m timestamps),
    'permutation' (seeded uniform shuffle, rank/m timestamps), or
    'timestamps' (i.i.d. uniform draws, sorted ascending, ties by id).
    """

    kind: str = "adversarial"
    seed: int = 0

    KINDS = ("adversarial", "permutation", "timestamps")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"unknown arrival model {self.kind!r}; expected one of {self.KINDS}")


def by_timestamp(arrivals, timestamps: dict[int, float]) -> list[tuple[Arrival, float]]:
    """(arrival, t) pairs sorted by t, ties by id. InputError when an
    arrival has no timestamp or one outside [0, 1] (NaN included)."""
    missing = [a.id for a in arrivals if a.id not in timestamps]
    if missing:
        raise InputError(f"timestamps missing for arrivals {missing}")
    stamped = [(a, float(timestamps[a.id])) for a in arrivals]
    if not all(0.0 <= t <= 1.0 for _, t in stamped):
        raise InputError("timestamps must lie in [0, 1]")
    return sorted(stamped, key=lambda at: (at[1], at[0].id))


def order_arrivals(instance: Instance, model: ArrivalModel) -> list[tuple[Arrival, float]]:
    """Processing order with a timestamp per arrival, ascending."""
    arrivals = list(instance.arrivals)
    m = len(arrivals)
    if m == 0:
        return []
    if model.kind == "adversarial":
        return [(a, (i + 1) / m) for i, a in enumerate(arrivals)]
    if model.kind == "permutation":
        rng = SplitMix64(model.seed)
        for i in range(m - 1, 0, -1):  # Fisher-Yates
            j = rng.randint(i + 1)
            arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
        return [(a, (i + 1) / m) for i, a in enumerate(arrivals)]
    # timestamps: one i.i.d. uniform per arrival, ties broken by id
    rng = SplitMix64(model.seed)
    return by_timestamp(arrivals, {a.id: rng.random() for a in arrivals})


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_upper_triangular(n: int) -> Instance:
    """v_j neighbors {u_j, ..., u_n} under cardinality: opt = n, and the
    adversarial order is the classic hard sequence for ratio 1 - 1/e."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    check_size("n_offline", n)
    check_size("edges", n * (n + 1) // 2)
    g = GroundSet(n)
    arrivals = [Arrival(j, tuple(range(j, n))) for j in range(n)]
    return Instance(f"triangular-{n}", n, Cardinality(g), arrivals)


def gen_random(n: int, m: int, p: float, f: SubmodularFn | None = None,
               seed: int = 0, name: str | None = None) -> Instance:
    """G(n, m, p) bipartite: each (u, v) edge present independently with
    probability p, decided by a per-online-vertex SplitMix64 stream (see
    _edge_rows). SizeError at the first arrival whose running edge count
    exceeds INSTANCE_SIZE_LIMIT."""
    if n < 1 or m < 0:
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
    if name is None:
        name = f"random-n{n}-m{m}-p{p:g}-s{seed}-{f.family}"
    return Instance(name, n, f, arrivals)


def random_coverage_table(n: int, seed: int, universe: int | None = None) -> ExplicitTable:
    """Random weighted coverage function as an explicit table.

    Element u covers a random subset of a weighted universe; f(S) is the
    weight covered by S. Always nonnegative, monotone, and submodular, and
    generically none of the closed-form families.
    """
    if n < 1 or n > 12:
        raise InputError(f"coverage tables supported for 1 <= n <= 12, got {n}")
    if universe is None:
        universe = 2 * n + 1
    rng = SplitMix64(seed)
    weights = [0.05 + rng.random() for _ in range(universe)]
    covers = []
    for _ in range(n):
        mask = 0
        for j in range(universe):
            if rng.random() < 0.45:
                mask |= 1 << j
        covers.append(mask)
    values = []
    for smask in range(1 << n):
        covered = 0
        for u in mask_members(smask):
            covered |= covers[u]
        values.append(sum(weights[j] for j in mask_members(covered)))
    return ExplicitTable(GroundSet(n), values)


def _random_matroid_fn(n: int, stream: SplitMix64) -> SubmodularFn:
    g = GroundSet(n)
    pick = stream.randint(3)
    if pick == 0 or n == 1:
        return Cardinality(g)
    if pick == 1:
        return UniformRank(g, 1 + stream.randint(n))
    # random partition with caps >= 1 so no element is spanned by the empty set
    k = 1 + stream.randint(min(3, n))
    blocks = [[] for _ in range(k)]
    for u in range(n):
        blocks[stream.randint(k)].append(u)
    blocks = [b for b in blocks if b]
    caps = [1 + stream.randint(2) for _ in blocks]
    return PartitionBudget(g, blocks, caps)


def make_suite(count: int = 200, n_max: int = 12, m_max: int = 12,
               seed: int = 0) -> list[Instance]:
    """Deterministic mixed-family test suite of at least `count` instances.

    Starts with the triangular family, then cycles random graphs through
    all five function families. Explicit tables come from random coverage,
    so every instance is monotone submodular by construction.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    suite = [gen_upper_triangular(n) for n in range(1, min(n_max, 12) + 1)]
    root = SplitMix64(seed ^ 0xC0FFEE)
    i = 0
    while len(suite) < count:
        n = 2 + i % (n_max - 1)
        m = 1 + (i * 5 + 3) % m_max
        p = (0.15, 0.35, 0.55, 0.75, 0.95)[i % 5]
        s = root.next_u64() >> 16
        kind = i % 5
        g = GroundSet(n)
        if kind == 0:
            f = Cardinality(g)
        elif kind == 1:
            f = UniformRank(g, 1 + i % n)
        elif kind == 2:
            f = _random_matroid_fn(n, SplitMix64(s))
        elif kind == 3:
            w_stream = SplitMix64(s ^ 0xBEEF)
            weights = [0.25 + w_stream.random() for _ in range(n)]
            f = WeightedThreshold(g, weights, 1.0 + w_stream.random() * n / 2)
        else:
            f = random_coverage_table(min(n, 8), s)
            n = f.ground.size
        inst = gen_random(n, m, p, f, seed=s, name=None)
        inst.name = f"suite-{len(suite):03d}-{inst.name}"
        suite.append(inst)
        i += 1
    return suite


def make_matroid_suite(count: int = 20, n_max: int = 8, m_max: int = 8,
                       seed: int = 1) -> list[Instance]:
    """Instances whose f is a matroid rank with no rank-zero singletons."""
    if count < 1:
        raise InputError("count must be >= 1")
    suite = []
    root = SplitMix64(seed ^ 0x5EED)
    i = 0
    while len(suite) < count:
        n = 2 + i % (n_max - 1)
        m = 1 + (i * 3 + 1) % m_max
        p = (0.3, 0.5, 0.7, 0.9)[i % 4]
        s = root.next_u64() >> 16
        f = _random_matroid_fn(n, SplitMix64(s))
        inst = gen_random(n, m, p, f, seed=s)
        inst.name = f"matroid-{len(suite):03d}-{inst.name}"
        suite.append(inst)
        i += 1
    return suite


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
        # one column check: types, then range, then duplicates
        if not (set(map(type, nbrs)) <= {int}
                and (not nbrs or (min(nbrs) >= 0 and max(nbrs) < n))
                and len(set(nbrs)) == len(nbrs)):
            _bad_neighbor(nbrs, n, ctx)
        arrivals.append(Arrival(vid, tuple(nbrs)))
    try:
        return Instance(name, n, f, arrivals)
    except InputError as e:  # a duplicate online id, named by its position
        raise ParseError(f"{where}.{e}") from e


def save(instance: Instance, path: str | os.PathLike):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path: str | os.PathLike) -> Instance:
    """Read an instance file; ParseError for anything but a valid instance."""
    return instance_from_dict(read_json(path), where=str(path))
