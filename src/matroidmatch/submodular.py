"""Set-function families, axiom checking, and the Lovasz extension.

Ground elements are dense integer ids 0..n-1 and subsets are passed around
either as iterables of ids or as int bitmasks (bit u set means element u is
in the set). All public operations accept both forms; internals work on
masks.

The families provided here are all nonnegative and normalized at
construction time; monotonicity and submodularity are *not* enforced by
constructors (ExplicitTable can hold arbitrary nonnegative data) and are
checked by verify_axioms instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constants import DEFAULT_TOL
from .errors import InputError, SizeError

# Exhaustive axiom / rank checks enumerate all 2^n subsets.
EXHAUSTIVE_LIMIT = 16

# (weights, groups): f(S) = sum over (members, cap) in groups of
# min(sum of weights[u] over u in S & members, cap); the groups partition
# the ground set.
LaminarForm = tuple[list[float], list[tuple[tuple[int, ...], float]]]


@dataclass(frozen=True)
class GroundSet:
    """The offline ground set: element ids are exactly 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise InputError(f"ground set size must be >= 0, got {self.size}")

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def check_element(self, u) -> int:
        if not isinstance(u, (int, np.integer)) or isinstance(u, bool):
            raise InputError(f"element id must be an int, got {u!r}")
        if not 0 <= u < self.size:
            raise InputError(f"element {u} outside ground set of size {self.size}")
        return int(u)


def as_mask(ground: GroundSet, S) -> int:
    """Canonicalize a subset (iterable of ids, or an int bitmask) to a mask."""
    if isinstance(S, (int, np.integer)) and not isinstance(S, bool):
        mask = int(S)
        if mask < 0 or mask > ground.full_mask:
            raise InputError(f"mask {mask:#x} outside ground set of size {ground.size}")
        return mask
    mask = 0
    for u in S:
        mask |= 1 << ground.check_element(u)
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Element ids of a mask in ascending order."""
    out = []
    u = 0
    while mask:
        if mask & 1:
            out.append(u)
        mask >>= 1
        u += 1
    return tuple(out)


def _popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    counts = np.zeros(masks.shape, dtype=np.int64)
    for b in range(n):
        counts += (masks >> b) & 1
    return counts


class SubmodularFn:
    """Evaluation oracle for a nonnegative set function on a GroundSet.

    Subclasses implement value_mask; everything else (marginals, the Lovasz
    extension, axiom checks) is generic. Instances are treated as immutable
    after construction; the caches attached here never change observable
    values.
    """

    family = "abstract"

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self._span_cache: dict[int, int] = {}
        self._matroid_rank: bool | None = None

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value(self, S) -> float:
        return self.value_mask(as_mask(self.ground, S))

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized evaluate over an int64 array of masks.

        The base implementation is a plain loop; families override it with
        closed forms so exhaustive oracles stay fast.
        """
        return np.array([self.value_mask(int(m)) for m in masks], dtype=np.float64)

    def laminar_form(self) -> LaminarForm | None:
        """The closed form f(S) = sum over groups G of min(c(S & G), cap_G),
        or None when the function has none. Families with a laminar form get
        polynomial offline optima and exact budget-polytope checks."""
        return None

    def to_spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.ground.size})"


class Cardinality(SubmodularFn):
    """f(S) = |S|."""

    family = "cardinality"

    def value_mask(self, mask: int) -> float:
        return float(mask.bit_count())

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        return _popcounts(masks, self.ground.size).astype(np.float64)

    def laminar_form(self) -> LaminarForm:
        n = self.ground.size
        return [1.0] * n, [(tuple(range(n)), math.inf)]

    def to_spec(self) -> dict:
        return {"family": "cardinality"}


class UniformRank(SubmodularFn):
    """f(S) = min(|S|, k): rank of the uniform matroid of rank k."""

    family = "uniform_rank"

    def __init__(self, ground: GroundSet, k: int):
        super().__init__(ground)
        if not isinstance(k, int) or k < 0:
            raise InputError(f"uniform rank k must be an int >= 0, got {k!r}")
        self.k = k

    def value_mask(self, mask: int) -> float:
        return float(min(mask.bit_count(), self.k))

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        return np.minimum(_popcounts(masks, self.ground.size), self.k).astype(np.float64)

    def laminar_form(self) -> LaminarForm:
        n = self.ground.size
        return [1.0] * n, [(tuple(range(n)), float(self.k))]

    def to_spec(self) -> dict:
        return {"family": "uniform_rank", "k": self.k}


class PartitionBudget(SubmodularFn):
    """f(S) = sum over blocks of min(|S intersect block|, cap_block).

    blocks must partition the ground set. With integer caps this is the
    rank function of a partition matroid.
    """

    family = "partition_budget"

    def __init__(self, ground: GroundSet, blocks: Sequence[Iterable[int]], caps: Sequence[float]):
        super().__init__(ground)
        blocks = [tuple(sorted(ground.check_element(u) for u in b)) for b in blocks]
        if len(blocks) != len(caps):
            raise InputError(f"{len(blocks)} blocks but {len(caps)} caps")
        seen = 0
        masks = []
        for b in blocks:
            m = 0
            for u in b:
                m |= 1 << u
            if m & seen:
                raise InputError("blocks must be disjoint")
            seen |= m
            masks.append(m)
        if seen != ground.full_mask:
            raise InputError("blocks must cover the ground set")
        caps = [float(c) for c in caps]
        if any(c < 0 for c in caps):
            raise InputError("caps must be nonnegative")
        self.blocks = blocks
        self.caps = caps
        self._block_masks = masks

    def value_mask(self, mask: int) -> float:
        return float(sum(min((mask & bm).bit_count(), c)
                         for bm, c in zip(self._block_masks, self.caps)))

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        total = np.zeros(masks.shape, dtype=np.float64)
        for bm, c in zip(self._block_masks, self.caps):
            total += np.minimum(_popcounts(masks & bm, self.ground.size), c)
        return total

    def laminar_form(self) -> LaminarForm:
        return [1.0] * self.ground.size, list(zip(self.blocks, self.caps))

    def to_spec(self) -> dict:
        return {"family": "partition_budget",
                "blocks": [list(b) for b in self.blocks],
                "caps": list(self.caps)}


class WeightedThreshold(SubmodularFn):
    """f(S) = min(sum of element weights over S, cap)."""

    family = "weighted_threshold"

    def __init__(self, ground: GroundSet, weights: Sequence[float], cap: float):
        super().__init__(ground)
        weights = [float(w) for w in weights]
        if len(weights) != ground.size:
            raise InputError(f"need {ground.size} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise InputError("weights must be nonnegative")
        if cap < 0:
            raise InputError("cap must be nonnegative")
        self.weights = weights
        self.cap = float(cap)

    def value_mask(self, mask: int) -> float:
        total = 0.0
        u = 0
        m = mask
        while m:
            if m & 1:
                total += self.weights[u]
            m >>= 1
            u += 1
        return min(total, self.cap)

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        total = np.zeros(masks.shape, dtype=np.float64)
        for u, w in enumerate(self.weights):
            total += w * ((masks >> u) & 1)
        return np.minimum(total, self.cap)

    def laminar_form(self) -> LaminarForm:
        return list(self.weights), [(tuple(range(self.ground.size)), self.cap)]

    def to_spec(self) -> dict:
        return {"family": "weighted_threshold", "weights": list(self.weights), "cap": self.cap}


class ExplicitTable(SubmodularFn):
    """Dense table of all 2^n values, indexed by bitmask. Limited to n <= 16."""

    family = "explicit_table"

    def __init__(self, ground: GroundSet, values: Sequence[float]):
        super().__init__(ground)
        if ground.size > EXHAUSTIVE_LIMIT:
            raise SizeError(f"explicit table limited to n <= {EXHAUSTIVE_LIMIT}")
        if len(values) != 1 << ground.size:
            raise InputError(f"table needs {1 << ground.size} entries, got {len(values)}")
        table = np.asarray(values, dtype=np.float64)
        if np.any(table < 0):
            raise InputError("table values must be nonnegative")
        self.table = table

    def value_mask(self, mask: int) -> float:
        return float(self.table[mask])

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        return self.table[masks]

    def to_spec(self) -> dict:
        return {"family": "explicit_table", "values": [float(v) for v in self.table]}


def fn_from_spec(spec: dict, ground: GroundSet) -> SubmodularFn:
    """Build a SubmodularFn from its tagged-dict serialization."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("f spec must be an object with a 'family' tag")
    family = spec["family"]
    if family == "cardinality":
        return Cardinality(ground)
    if family == "uniform_rank":
        if "k" not in spec:
            raise InputError("uniform_rank spec needs field 'k'")
        return UniformRank(ground, spec["k"])
    if family == "partition_budget":
        for field in ("blocks", "caps"):
            if field not in spec:
                raise InputError(f"partition_budget spec needs field '{field}'")
        return PartitionBudget(ground, spec["blocks"], spec["caps"])
    if family == "weighted_threshold":
        for field in ("weights", "cap"):
            if field not in spec:
                raise InputError(f"weighted_threshold spec needs field '{field}'")
        return WeightedThreshold(ground, spec["weights"], spec["cap"])
    if family == "explicit_table":
        if "values" not in spec:
            raise InputError("explicit_table spec needs field 'values'")
        return ExplicitTable(ground, spec["values"])
    raise InputError(f"unknown function family {family!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def evaluate(f: SubmodularFn, S) -> float:
    return f.value(S)


def marginal(f: SubmodularFn, S, u) -> float:
    """f(S + u) - f(S); zero when u is already in S."""
    mask = as_mask(f.ground, S)
    u = f.ground.check_element(u)
    if (mask >> u) & 1:
        return 0.0
    return f.value_mask(mask | (1 << u)) - f.value_mask(mask)


@dataclass
class AxiomReport:
    """Outcome of verify_axioms.

    witness, when set, is a diminishing-returns violation (A, B, e) with
    A subset of B, e outside B, and marginal(A, e) < marginal(B, e).
    """

    nonnegative: bool
    monotone: bool
    submodular: bool
    witness: tuple[frozenset, frozenset, int] | None = None
    monotone_witness: tuple[frozenset, int] | None = None
    negative_witness: frozenset | None = None
    mode: str = "exhaustive"

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.monotone and self.submodular


def verify_axioms(f: SubmodularFn, mode: str = "exhaustive",
                  trials: int = 2000, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check nonnegativity, monotonicity, and submodularity.

    Exhaustive mode enumerates all 2^n subsets (n <= 16) and relies on the
    local characterizations: monotone iff every single-element marginal is
    nonnegative, submodular iff f(S+a) + f(S+b) >= f(S+a+b) + f(S) for all
    S and distinct a, b outside S. Both yield witnesses of the documented
    (A, B, e) shape with B = A + b, e = a.

    Sampled mode draws random chains A subset of B plus e outside B.
    """
    n = f.ground.size
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise SizeError(f"exhaustive axiom check limited to n <= {EXHAUSTIVE_LIMIT}")
        masks = np.arange(1 << n, dtype=np.int64)
        vals = f.values_for_masks(masks)

        nonneg = True
        negative_witness = None
        bad = np.nonzero(vals < -tol)[0]
        if bad.size:
            nonneg = False
            negative_witness = frozenset(mask_members(int(bad[0])))

        monotone = True
        monotone_witness = None
        for u in range(n):
            if not monotone:
                break
            absent = masks[((masks >> u) & 1) == 0]
            viol = np.nonzero(vals[absent | (1 << u)] < vals[absent] - tol)[0]
            if viol.size:
                monotone = False
                m = int(absent[viol[0]])
                monotone_witness = (frozenset(mask_members(m)), u)

        submod = True
        witness = None
        for a in range(n):
            if not submod:
                break
            for b in range(a + 1, n):
                absent = masks[(((masks >> a) & 1) == 0) & (((masks >> b) & 1) == 0)]
                lhs = vals[absent | (1 << a)] + vals[absent | (1 << b)]
                rhs = vals[absent | (1 << a) | (1 << b)] + vals[absent]
                viol = np.nonzero(lhs < rhs - tol)[0]
                if viol.size:
                    submod = False
                    m = int(absent[viol[0]])
                    witness = (frozenset(mask_members(m)),
                               frozenset(mask_members(m | (1 << b))), a)
                    break
        return AxiomReport(nonneg, monotone, submod, witness,
                           monotone_witness, negative_witness, mode="exhaustive")

    if mode == "sampled":
        rng = np.random.default_rng(seed)
        full = f.ground.full_mask
        nonneg = monotone = submod = True
        witness = monotone_witness = negative_witness = None
        for _ in range(trials):
            B = int(rng.integers(0, full + 1)) if n else 0
            A = B & int(rng.integers(0, full + 1)) if n else 0
            fA, fB = f.value_mask(A), f.value_mask(B)
            if nonneg and fA < -tol:
                nonneg, negative_witness = False, frozenset(mask_members(A))
            if monotone and fB < fA - tol:
                # refine to the worst single-element step along the chain A -> B
                monotone = False
                cur, worst = A, (0.0, A, 0)
                for u in mask_members(B & ~A):
                    step = f.value_mask(cur | (1 << u)) - f.value_mask(cur)
                    if step < worst[0]:
                        worst = (step, cur, u)
                    cur |= 1 << u
                monotone_witness = (frozenset(mask_members(worst[1])), worst[2])
            outside = mask_members(full & ~B)
            if submod and outside:
                e = outside[int(rng.integers(0, len(outside)))]
                dA = f.value_mask(A | (1 << e)) - fA
                dB = f.value_mask(B | (1 << e)) - fB
                if dA < dB - tol:
                    submod = False
                    witness = (frozenset(mask_members(A)), frozenset(mask_members(B)), e)
            if not (nonneg and monotone and submod):
                break
        return AxiomReport(nonneg, monotone, submod, witness,
                           monotone_witness, negative_witness, mode="sampled")

    raise InputError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sampled'")


def _check_potentials(ground: GroundSet, y: Sequence[float]) -> list[float]:
    y = [float(v) for v in y]
    if len(y) != ground.size:
        raise InputError(f"need {ground.size} potentials, got {len(y)}")
    for u, v in enumerate(y):
        if not 0.0 <= v <= 1.0:
            raise InputError(f"potential y[{u}] = {v} outside [0, 1]")
    return y


def lovasz(f: SubmodularFn, y: Sequence[float]) -> float:
    """Lovasz extension of f at y, all coordinates in [0, 1].

    Equal to the expectation of f({u : y_u >= t}) over t uniform in [0, 1].
    Computed by the exact sorted form: with coordinates ascending and suffix
    sets Y_i, the value is sum_i (y_i - y_{i-1}) f(Y_i) plus a top slab
    (1 - max y) f(empty) that matters only for tables with f(empty) > 0.
    """
    y = _check_potentials(f.ground, y)
    n = f.ground.size
    order = sorted(range(n), key=lambda u: (y[u], u))
    suffix = 0
    for u in order:
        suffix |= 1 << u  # after the loop: full mask
    total = 0.0
    prev = 0.0
    for u in order:
        total += (y[u] - prev) * f.value_mask(suffix)
        prev = y[u]
        suffix &= ~(1 << u)
    total += (1.0 - prev) * f.value_mask(0)
    return total


def lovasz_mc(f: SubmodularFn, y: Sequence[float], samples: int = 100_000,
              seed: int = 0) -> float:
    """Monte-Carlo estimate of the Lovasz extension: average f({u : y_u >= t}).

    A threshold t selects one of the n + 1 suffix sets of y sorted
    ascending, so the samples are counted per suffix and each suffix set
    met is evaluated once, as a Python-int mask (any n).
    """
    y = _check_potentials(f.ground, y)
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    n = f.ground.size
    rng = np.random.default_rng(seed)
    t = rng.random(samples)
    order = sorted(range(n), key=lambda u: (y[u], u))
    # {u : y_u >= t} is order[i:] with i the number of potentials below t
    counts = np.bincount(np.searchsorted([y[u] for u in order], t, side="left"),
                         minlength=n + 1)
    total = 0.0
    suffix = 0
    for i in range(n, -1, -1):
        if i < n:
            suffix |= 1 << order[i]
        if counts[i]:
            total += int(counts[i]) * f.value_mask(suffix)
    return total / samples


def is_matroid_rank(f: SubmodularFn, tol: float = DEFAULT_TOL) -> bool:
    """True iff f is the rank function of a matroid on the ground set.

    Checks f(empty) = 0, integrality, single-element marginals in {0, 1},
    and the monotone submodular axioms, all exhaustively (n <= 16). The
    result is cached on the function object.
    """
    if f._matroid_rank is not None:
        return f._matroid_rank
    n = f.ground.size
    if n > EXHAUSTIVE_LIMIT:
        raise SizeError(f"matroid rank check limited to n <= {EXHAUSTIVE_LIMIT}")
    masks = np.arange(1 << n, dtype=np.int64)
    vals = f.values_for_masks(masks)
    ok = abs(vals[0]) <= tol
    ok = ok and bool(np.all(np.abs(vals - np.round(vals)) <= tol))
    if ok:
        for u in range(n):
            absent = masks[((masks >> u) & 1) == 0]
            diff = vals[absent | (1 << u)] - vals[absent]
            if not np.all((np.abs(diff) <= tol) | (np.abs(diff - 1.0) <= tol)):
                ok = False
                break
    ok = ok and verify_axioms(f, tol=tol).ok
    f._matroid_rank = ok
    return ok


def span_mask(f: SubmodularFn, mask: int) -> int:
    """Mask form of span: elements whose marginal on the mask is zero, plus the mask."""
    cached = f._span_cache.get(mask)
    if cached is not None:
        return cached
    base = f.value_mask(mask)
    out = mask
    rest = f.ground.full_mask & ~mask
    u = 0
    while rest:
        if rest & 1 and f.value_mask(mask | (1 << u)) - base <= DEFAULT_TOL:
            out |= 1 << u
        rest >>= 1
        u += 1
    f._span_cache[mask] = out
    return out


def span(f: SubmodularFn, M) -> frozenset:
    """Elements u with f(M + u) = f(M). Always a superset of M.

    For matroid ranks this is the span (closure) of M.
    """
    return frozenset(mask_members(span_mask(f, as_mask(f.ground, M))))
