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
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .constants import DEFAULT_TOL
from .errors import InputError, SizeError

# Exhaustive axiom / rank checks enumerate all 2^n subsets.
EXHAUSTIVE_LIMIT = 16
# Largest n whose 2^n value table values_for_masks (and with it the
# brute-force offline optimum) builds.
OFFLINE_OPT_LIMIT = 24

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
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def check_element(self, u) -> int:
        if type(u) is int and 0 <= u < self.size:  # the common case, first
            return u
        if not isinstance(u, (int, np.integer)) or isinstance(u, bool):
            raise InputError(f"element id must be an int, got {u!r}")
        if not 0 <= u < self.size:
            raise InputError(f"element {u} outside ground set of size {self.size}")
        return int(u)


def as_mask(ground: GroundSet, S) -> int:
    """Canonicalize a subset (iterable of ids, or an int bitmask) to a mask;
    InputError for anything else, bools included. Every conversion of ids
    to a mask goes through here.

    An id that is an int in range is taken inline; any other goes to
    check_element, which takes numpy ints and raises for the rest. (On
    CPython 3.11 this one loop takes about half the time of a column check
    of types and range followed by a reduce.)
    """
    if isinstance(S, (int, np.integer)) and not isinstance(S, bool):
        mask = int(S)
        if mask < 0 or mask > ground.full_mask:
            raise InputError(f"mask {mask:#x} outside ground set of size {ground.size}")
        return mask
    try:
        ids = iter(S)
    except TypeError:
        raise InputError(f"a subset is an iterable of element ids or an int mask, "
                         f"got {S!r}") from None
    size = ground.size
    mask = 0
    for u in ids:
        if type(u) is not int or not 0 <= u < size:
            u = ground.check_element(u)
        mask |= 1 << u
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Element ids of a mask in ascending order, one step per member: each
    takes off the lowest set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# Maps the ASCII digits of bin(mask) to the bytes 0 and 1, for compress().
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SubmodularFn:
    """Evaluation oracle for a nonnegative set function on a GroundSet.

    Subclasses implement value_mask; everything else (marginals, chains,
    span, the Lovasz extension, axiom checks) is generic, and a family may
    replace chain_values, span_mask or laminar_form with its closed form.
    Instances are treated as immutable after construction; the one value
    cached here, is_matroid_rank's answer, never changes observable values.
    """

    family = "abstract"

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self._matroid_rank: bool | None = None

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value(self, S) -> float:
        return self.value_mask(as_mask(self.ground, S))

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        """f(mask + the first i of elements) for i = 1..len(elements): one
        value_mask call per element. The elements must be distinct and
        outside mask. A family's closed form must give the same floats."""
        out = []
        for u in elements:
            mask |= 1 << u
            out.append(self.value_mask(mask))
        return out

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        """f at each mask of an int64 array.

        With a laminar form, the 2^n table is built by doubling: each
        group's weight sums are added in ascending element order, as
        value_mask adds them, so the values are the same to the bit.
        Without one, a value_mask loop. SizeError above OFFLINE_OPT_LIMIT,
        before anything is allocated.
        """
        n = self.ground.size
        if n > OFFLINE_OPT_LIMIT:
            raise SizeError(f"values_for_masks builds a table of 2^n values; "
                            f"n = {n} > {OFFLINE_OPT_LIMIT}")
        form = self.laminar_form()
        if form is None:
            return np.array([self.value_mask(int(m)) for m in masks], dtype=np.float64)
        weights, groups = form
        table = np.zeros(1 << n)
        for members, cap in groups:
            members = set(members)
            sums = np.zeros(1)
            for u, w in enumerate(weights):
                sums = np.concatenate((sums, sums + w if u in members else sums))
            table += np.minimum(sums, cap)
        return table[masks]

    def span_mask(self, mask: int) -> int:
        """mask plus every element whose marginal on it is at most
        DEFAULT_TOL: one value_mask call per element outside the mask.
        A family's closed form must take exactly these decisions."""
        base = self.value_mask(mask)
        out = mask
        rest = self.ground.full_mask & ~mask
        u = 0
        while rest:
            if rest & 1 and self.value_mask(mask | (1 << u)) - base <= DEFAULT_TOL:
                out |= 1 << u
            rest >>= 1
            u += 1
        return out

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

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        c = mask.bit_count()
        return [float(c + i) for i in range(1, len(elements) + 1)]

    def span_mask(self, mask: int) -> int:
        return mask  # every marginal is 1

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
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise InputError(f"uniform rank k must be an int >= 0, got {k!r}")
        self.k = k

    def value_mask(self, mask: int) -> float:
        return float(min(mask.bit_count(), self.k))

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        c, k = mask.bit_count(), self.k
        return [float(min(c + i, k)) for i in range(1, len(elements) + 1)]

    def span_mask(self, mask: int) -> int:
        # every marginal is 0 at the rank and 1 below it
        return self.ground.full_mask if mask.bit_count() >= self.k else mask

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
            m = as_mask(ground, b)
            if m & seen:
                raise InputError("blocks must be disjoint")
            seen |= m
            masks.append(m)
        if seen != ground.full_mask:
            raise InputError("blocks must cover the ground set")
        caps = [float(c) for c in caps]
        if not all(c >= 0 for c in caps):  # NaN fails too
            raise InputError("caps must be nonnegative")
        self.blocks = blocks
        self.caps = caps
        self._block_masks = masks
        self._integral_caps = all(c.is_integer() for c in caps)
        self._block_of = [0] * ground.size  # element -> index of its block
        for j, b in enumerate(blocks):
            for u in b:
                self._block_of[u] = j

    def value_mask(self, mask: int) -> float:
        return float(sum(map(min, map(int.bit_count, map(mask.__and__, self._block_masks)),
                             self.caps)))

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        """With integral caps every term of value_mask's sum is a small
        integer and the sums are exact, so a running total over running
        block counts gives its floats in O(B + len(elements)). Other caps
        take the value_mask loop, which rounds as value_mask does."""
        if not self._integral_caps:
            return super().chain_values(mask, elements)
        counts = [(mask & bm).bit_count() for bm in self._block_masks]
        caps = self.caps
        total = sum(map(min, counts, caps))
        out = []
        for u in elements:
            j = self._block_of[u]
            counts[j] += 1
            if counts[j] <= caps[j]:
                total += 1
            out.append(float(total))
        return out

    def span_mask(self, mask: int) -> int:
        """A block at its cap is spanned. Any other block's members share one
        marginal, taken as value_mask takes it: the same sum over the same
        terms in the same order, that block's term at count + 1, so that
        non-integral caps round as they do there. With integral caps every
        term is a small integer and the sums are exact, so that marginal is
        exactly 1 and the cap test alone decides, in O(B) for B blocks."""
        if self._integral_caps:
            out = mask
            for bm, c in zip(self._block_masks, self.caps):
                if (mask & bm).bit_count() >= c:
                    out |= bm
            return out
        counts = [(mask & bm).bit_count() for bm in self._block_masks]
        terms = [min(k, c) for k, c in zip(counts, self.caps)]
        base = float(sum(terms))
        out = mask
        for j, (bm, k, c) in enumerate(zip(self._block_masks, counts, self.caps)):
            if k >= c:
                out |= bm
                continue
            terms[j] = min(k + 1, c)
            if float(sum(terms)) - base <= DEFAULT_TOL:
                out |= bm
            terms[j] = k
        return out

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
        if not all(w >= 0 for w in weights):  # NaN fails too
            raise InputError("weights must be nonnegative")
        if not cap >= 0:
            raise InputError("cap must be nonnegative")
        self.weights = weights
        self.cap = float(cap)

    def value_mask(self, mask: int) -> float:
        # The weights of the set bits, added one by one in ascending u:
        # builtin sum is avoided because from Python 3.12 it compensates
        # the rounding, which would change results in the last digits.
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return min(reduce(operator.add, compress(self.weights, bits), 0.0), self.cap)

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
        if not np.all(table >= 0):  # NaN fails too
            raise InputError("table values must be nonnegative")
        self.table = table

    def value_mask(self, mask: int) -> float:
        return float(self.table[mask])

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        return self.table[masks]

    def to_spec(self) -> dict:
        return {"family": "explicit_table", "values": [float(v) for v in self.table]}


# Family tag -> (class, the spec fields its constructor takes after the ground set).
_SPEC_FIELDS = {cls.family: (cls, names) for cls, names in [
    (Cardinality, ()), (UniformRank, ("k",)), (PartitionBudget, ("blocks", "caps")),
    (WeightedThreshold, ("weights", "cap")), (ExplicitTable, ("values",))]}


def fn_from_spec(spec: dict, ground: GroundSet) -> SubmodularFn:
    """Build a SubmodularFn from its tagged-dict serialization, the form
    every budget read from an instance file or a --f flag takes.

    InputError for a malformed spec, and for a budget that takes a value
    that is not finite. A budget is monotone, so that value is f of the
    whole ground set, where finite weights can still add up to inf.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("f spec must be an object with a 'family' tag")
    family = spec["family"]
    if not isinstance(family, str) or family not in _SPEC_FIELDS:
        raise InputError(f"unknown function family {family!r}")
    cls, names = _SPEC_FIELDS[family]
    for name in names:
        if name not in spec:
            raise InputError(f"{family} spec needs field '{name}'")
    f = cls(ground, *(spec[name] for name in names))
    top = f.value_mask(ground.full_mask)
    if not math.isfinite(top):
        raise InputError(f"f(ground set) = {top}; budget values must be finite")
    return f


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

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

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.monotone and self.submodular


def verify_axioms(f: SubmodularFn, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check nonnegativity, monotonicity, and submodularity over all 2^n
    subsets (n <= 16, SizeError above).

    It relies on the local characterizations: monotone iff every
    single-element marginal is nonnegative, submodular iff
    f(S+a) + f(S+b) >= f(S+a+b) + f(S) for all S and distinct a, b outside
    S. Both yield witnesses of the documented (A, B, e) shape with
    B = A + b, e = a.
    """
    n = f.ground.size
    if n > EXHAUSTIVE_LIMIT:
        raise SizeError(f"exhaustive axiom check limited to n <= {EXHAUSTIVE_LIMIT}")
    return _exhaustive_axioms(f.values_for_masks(np.arange(1 << n, dtype=np.int64)), tol)


def _exhaustive_axioms(vals: np.ndarray, tol: float) -> AxiomReport:
    """verify_axioms on the table of f over all 2^n masks."""
    n = len(vals).bit_length() - 1
    masks = np.arange(1 << n, dtype=np.int64)
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
                       monotone_witness, negative_witness)


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
    The suffix values are one chain, grown from the empty set in descending
    order and read back reversed.
    """
    y = _check_potentials(f.ground, y)
    order = sorted(range(f.ground.size), key=lambda u: (y[u], u))
    suffix_values = f.chain_values(0, order[::-1])[::-1]
    total = 0.0
    prev = 0.0
    for u, value in zip(order, suffix_values):
        total += (y[u] - prev) * value
        prev = y[u]
    total += (1.0 - prev) * f.value_mask(0)
    return total


def is_matroid_rank(f: SubmodularFn) -> bool:
    """True iff f is the rank function of a matroid on the ground set:
    f(empty) = 0, every value an integer, every single-element marginal 0
    or 1, and f monotone submodular, each up to DEFAULT_TOL.

    With a laminar form this is decided in closed form at any n (every
    group has cap 0; or unit nonzero weights and a cap that is an integer
    or at least the group's total; or nonzero weights at least 1 and cap
    1), see _laminar_matroid. Without one, all 2^n values are checked
    (n <= 16, SizeError above). The result is cached on the function
    object.
    """
    if f._matroid_rank is not None:
        return f._matroid_rank
    tol = DEFAULT_TOL
    form = f.laminar_form()
    if form is not None:
        f._matroid_rank = _laminar_matroid(*form, tol)
        return f._matroid_rank
    n = f.ground.size
    if n > EXHAUSTIVE_LIMIT:
        raise SizeError(f"matroid rank check limited to n <= {EXHAUSTIVE_LIMIT} "
                        f"for budgets without a laminar form")
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
    ok = ok and _exhaustive_axioms(vals, tol).ok
    f._matroid_rank = ok
    return ok


def _laminar_matroid(weights: list[float], groups: list[tuple[tuple[int, ...], float]],
                     tol: float) -> bool:
    """is_matroid_rank's answer for a laminar form, in O(n log n).

    A laminar form is monotone submodular with f(empty) = 0, so only the
    integer values and the 0/1 marginals are in question. In a group f is
    min(c(T), cap), where a weight above the cap acts as the cap, so take
    w = min(weight, cap): each w is a marginal at T = empty and must be
    within tol of 0 ("small") or 1 ("unit"). The sums of the subsets with
    j units fill a short interval, from the j lightest units to the j
    heaviest plus every small one, and f is monotone in the sum, so the
    two ends carry every extreme:
    - a unit's marginal at sum s is neither near 0 nor near 1 exactly when
      cap - 1 + tol < s < cap - tol, and only j < (number of units)
      leaves a unit out of the subset;
    - the groups' values add up, and so do their largest errors above and
      below an integer, which must each stay within tol.
    """
    above = below = 0.0
    for members, cap in groups:
        ws = [min(weights[u], cap) for u in members]
        small = [w for w in ws if w <= tol]
        units = sorted(w for w in ws if w > tol and abs(w - 1.0) <= tol)
        if len(small) + len(units) != len(ws):
            return False
        light, heavy = 0.0, sum(small)
        err_hi = err_lo = 0.0
        for j in range(len(units) + 1):
            if j:
                light += units[j - 1]
                heavy += units[-j]
            for s in (light, heavy):
                if j < len(units) and cap - 1.0 + tol < s < cap - tol:
                    return False
                v = min(s, cap)
                err = v - round(v)
                err_hi, err_lo = max(err_hi, err), max(err_lo, -err)
        above += err_hi
        below += err_lo
    return above <= tol and below <= tol


def span_mask(f: SubmodularFn, mask: int) -> int:
    """Mask form of span: f.span_mask(mask). The greedy, the lemma audit and
    span() all call this one name, so a wrapper on it (the benchmark's
    tracer) sees every span."""
    return f.span_mask(mask)


def span(f: SubmodularFn, M) -> frozenset:
    """Elements u with f(M + u) = f(M). Always a superset of M.

    For matroid ranks this is the span (closure) of M.
    """
    return frozenset(mask_members(span_mask(f, as_mask(f.ground, M))))
