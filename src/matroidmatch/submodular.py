"""Set-function families, axiom checking, and the Lovasz extension.

Ground elements are dense integer ids 0..n-1 and subsets are passed around
either as iterables of ids or as int bitmasks (bit u set means element u is
in the set). All public operations accept both forms; internals work on
masks.

The families provided here are all nonnegative. The closed-form ones are
normalized (f(empty) = 0); ExplicitTable can hold any finite nonnegative
data, f(empty) > 0 included, which is what lovasz's top slab is for.
Monotonicity and submodularity are *not* enforced by constructors and are
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
from .errors import InputError, SizeError, check_int, check_number, check_numbers

# Largest n for which anything enumerates all 2^n subsets (all_masks).
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
        object.__setattr__(self, "size", check_int("ground set size", self.size, 0))

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
    InputError for anything else, bools included. This is the checked
    conversion for input; code whose ids are already checked builds its
    masks inline.

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


def all_masks(n: int) -> np.ndarray:
    """Every subset of n elements as an int64 mask, ascending: the one
    place an enumeration of all 2^n subsets starts. SizeError above
    EXHAUSTIVE_LIMIT, before anything is allocated."""
    if n > EXHAUSTIVE_LIMIT:
        raise SizeError(f"enumerating all 2^n subsets is limited to "
                        f"n <= {EXHAUSTIVE_LIMIT}; n = {n}")
    return np.arange(1 << n, dtype=np.int64)


# Maps the ASCII digits of bin(mask) to the bytes 0 and 1, for compress().
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SubmodularFn:
    """Evaluation oracle for a nonnegative set function on a GroundSet.

    Subclasses implement value_mask; everything else (marginals, chains,
    span, the Lovasz extension, axiom checks) is generic; LaminarBudget
    gives laminar_form and the closed forms of chain_values and span_mask.
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
        """f at each mask of an int64 array: one value_mask call per mask."""
        return np.array([self.value_mask(int(m)) for m in masks], dtype=np.float64)

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


class LaminarBudget(SubmodularFn):
    """The laminar form f(S) = sum over groups G of min(w(S & G), cap_G),
    unit weights by default. It checks the form: n nonnegative weights,
    nonnegative caps, and groups that partition the ground set; weights
    other than 1 need a subclass with its own value_mask. Under unit
    weights with every cap integral or infinite, each term is an integer
    or inf and the sums are exact, so chain_values and span_mask take
    closed forms; every other form, and a -0.0 cap (min(1, -0.0) is -0.0,
    which an int sum cannot give), takes SubmodularFn's value_mask loops.
    """

    def __init__(self, ground: GroundSet, groups: list[tuple[tuple[int, ...], float]],
                 weights: list[float] | None = None):
        super().__init__(ground)
        weights = [1.0] * ground.size if weights is None else check_numbers("weights", weights)
        if len(weights) != ground.size:
            raise InputError(f"need {ground.size} weights, got {len(weights)}")
        if not all(w >= 0 for w in weights):  # NaN fails too
            raise InputError("weights must be nonnegative")
        unit = all(w == 1.0 for w in weights)
        if not unit and type(self).value_mask is LaminarBudget.value_mask:
            raise InputError("weights other than 1 need a family with its own value_mask")
        caps = check_numbers("caps", [cap for _, cap in groups])
        if not all(c >= 0 for c in caps):  # NaN fails too
            raise InputError("caps must be nonnegative")
        groups = [(members, c) for (members, _), c in zip(groups, caps)]
        masks = [as_mask(ground, members) for members, _ in groups]
        union = reduce(operator.or_, masks, 0)
        if sum(len(members) for members, _ in groups) != union.bit_count():
            raise InputError("blocks must be disjoint")
        if union != ground.full_mask:
            raise InputError("blocks must cover the ground set")
        self._form = (weights, groups)
        self._group_masks = masks
        self._caps = caps
        self._mask_caps = list(zip(masks, caps))
        self._closed = unit and all(c == math.inf or c.is_integer() and math.copysign(1, c) > 0
                                    for c in caps)
        self._group_of = {u: j for j, (members, _) in enumerate(groups) for u in members}

    def value_mask(self, mask: int) -> float:
        """The sum of min(|S & G|, cap_G): f under unit weights. A weighted
        family gives its own."""
        return float(sum(map(min, map(int.bit_count, map(mask.__and__, self._group_masks)),
                             self._caps)))

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        """In closed form, a running total over running group counts:
        O(G + len(elements)) for G groups."""
        if not self._closed:
            return super().chain_values(mask, elements)
        counts = [(mask & gm).bit_count() for gm in self._group_masks]
        caps, group_of = self._caps, self._group_of
        total = sum(map(min, counts, caps))
        out = []
        for u in elements:
            j = group_of[u]
            counts[j] += 1
            if counts[j] <= caps[j]:
                total += 1
            out.append(float(total))
        return out

    def span_mask(self, mask: int) -> int:
        """In closed form, a group below its cap has marginal exactly 1 and
        one at its cap is spanned: O(G) for G groups."""
        if not self._closed:
            return super().span_mask(mask)
        out = mask
        for gm, c in self._mask_caps:
            if (mask & gm).bit_count() >= c:
                out |= gm
        return out

    def laminar_form(self) -> LaminarForm:
        return list(self._form[0]), list(self._form[1])


class Cardinality(LaminarBudget):
    """f(S) = |S|."""

    family = "cardinality"

    def __init__(self, ground: GroundSet):
        super().__init__(ground, [(tuple(range(ground.size)), math.inf)])

    def value_mask(self, mask: int) -> float:
        return float(mask.bit_count())

    def chain_values(self, mask: int, elements: Sequence[int]) -> list[float]:
        c = mask.bit_count()
        return [float(c + i) for i in range(1, len(elements) + 1)]

    def to_spec(self) -> dict:
        return {"family": "cardinality"}


class UniformRank(LaminarBudget):
    """f(S) = min(|S|, k): rank of the uniform matroid of rank k."""

    family = "uniform_rank"

    def __init__(self, ground: GroundSet, k: int):
        self.k = check_int("uniform rank k", k, 0)
        super().__init__(ground, [(tuple(range(ground.size)), check_number("uniform rank k", k))])

    def value_mask(self, mask: int) -> float:
        return float(min(mask.bit_count(), self.k))

    def to_spec(self) -> dict:
        return {"family": "uniform_rank", "k": self.k}


class PartitionBudget(LaminarBudget):
    """f(S) = sum over blocks of min(|S intersect block|, cap_block).

    blocks must partition the ground set. With integer caps this is the
    rank function of a partition matroid.
    """

    family = "partition_budget"

    def __init__(self, ground: GroundSet, blocks: Sequence[Iterable[int]], caps: Sequence[float]):
        caps = check_numbers("caps", caps)
        try:
            blocks = [tuple(sorted(ground.check_element(u) for u in b)) for b in blocks]
        except TypeError:
            raise InputError(f"blocks must be a list of lists of ids, got {blocks!r}") from None
        if len(blocks) != len(caps):
            raise InputError(f"{len(blocks)} blocks but {len(caps)} caps")
        super().__init__(ground, list(zip(blocks, caps)))
        self.blocks = blocks
        self.caps = self._caps

    def to_spec(self) -> dict:
        return {"family": "partition_budget",
                "blocks": [list(b) for b in self.blocks],
                "caps": list(self.caps)}


class WeightedThreshold(LaminarBudget):
    """f(S) = min(sum of element weights over S, cap)."""

    family = "weighted_threshold"

    def __init__(self, ground: GroundSet, weights: Sequence[float], cap: float):
        cap = check_number("cap", cap)
        if not cap >= 0:
            raise InputError("cap must be nonnegative")
        super().__init__(ground, [(tuple(range(ground.size)), cap)], weights)
        self.weights, self.cap = self._form[0], cap
        # value_mask's sum on the ground set: f is monotone, so this is its
        # largest value, and finite weights can still add up to inf
        top = min(reduce(operator.add, self.weights, 0.0), cap)
        if math.isinf(top):
            raise InputError(f"f(ground set) = {top}; budget values must be finite")

    def value_mask(self, mask: int) -> float:
        # The weights of the set bits, added one by one in ascending u:
        # builtin sum is avoided because from Python 3.12 it compensates
        # the rounding, which would change results in the last digits.
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return min(reduce(operator.add, compress(self.weights, bits), 0.0), self.cap)

    def to_spec(self) -> dict:
        return {"family": "weighted_threshold", "weights": list(self.weights), "cap": self.cap}


class ExplicitTable(SubmodularFn):
    """Dense table of all 2^n values, indexed by bitmask. Limited to n <= 16;
    every value must be finite and nonnegative."""

    family = "explicit_table"

    def __init__(self, ground: GroundSet, values: Sequence[float]):
        super().__init__(ground)
        if ground.size > EXHAUSTIVE_LIMIT:
            raise SizeError(f"explicit table limited to n <= {EXHAUSTIVE_LIMIT}")
        values = check_numbers("values", values)
        if len(values) != 1 << ground.size:
            raise InputError(f"table needs {1 << ground.size} entries, got {len(values)}")
        table = np.asarray(values, dtype=np.float64)
        if not np.all(table >= 0):  # NaN fails too
            raise InputError("table values must be nonnegative")
        inf = np.flatnonzero(np.isinf(table))
        if inf.size:  # the last is the ground set when f is monotone
            m = int(inf[-1])
            subset = ("ground set" if m == ground.full_mask
                      else "{" + ", ".join(map(str, mask_members(m))) + "}")
            raise InputError(f"f({subset}) = inf; budget values must be finite")
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
    InputError for a malformed spec, one with a field its family does not
    take, and (from the constructor) for a budget that takes a value that
    is not finite."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("f spec must be an object with a 'family' tag")
    family = spec["family"]
    if not isinstance(family, str) or family not in _SPEC_FIELDS:
        raise InputError(f"unknown function family {family!r}")
    cls, names = _SPEC_FIELDS[family]
    for name in names:
        if name not in spec:
            raise InputError(f"{family} spec needs field '{name}'")
    if len(spec) != len(names) + 1:
        raise InputError(f"{family} spec has a stray field "
                         f"{next(k for k in spec if k != 'family' and k not in names)!r}")
    return cls(ground, *(spec[name] for name in names))


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


def verify_axioms(f: SubmodularFn) -> AxiomReport:
    """Check nonnegativity, monotonicity, and submodularity over all 2^n
    subsets (n <= 16, SizeError above), each up to DEFAULT_TOL.

    It relies on the local characterizations: monotone iff every
    single-element marginal is nonnegative, submodular iff
    f(S+a) + f(S+b) >= f(S+a+b) + f(S) for all S and distinct a, b outside
    S. Both yield witnesses of the documented (A, B, e) shape with
    B = A + b, e = a.
    """
    return _exhaustive_axioms(f.values_for_masks(all_masks(f.ground.size)))


def _exhaustive_axioms(vals: np.ndarray) -> AxiomReport:
    """verify_axioms on the values of f at all_masks(n)."""
    n = len(vals).bit_length() - 1
    masks = all_masks(n)
    nonneg = True
    negative_witness = None
    bad = np.nonzero(vals < -DEFAULT_TOL)[0]
    if bad.size:
        nonneg = False
        negative_witness = frozenset(mask_members(int(bad[0])))

    monotone = True
    monotone_witness = None
    for u in range(n):
        if not monotone:
            break
        absent = masks[((masks >> u) & 1) == 0]
        viol = np.nonzero(vals[absent | (1 << u)] < vals[absent] - DEFAULT_TOL)[0]
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
            viol = np.nonzero(lhs < rhs - DEFAULT_TOL)[0]
            if viol.size:
                submod = False
                m = int(absent[viol[0]])
                witness = (frozenset(mask_members(m)),
                           frozenset(mask_members(m | (1 << b))), a)
                break
    return AxiomReport(nonneg, monotone, submod, witness,
                       monotone_witness, negative_witness)


def _check_potentials(ground: GroundSet, y: Sequence[float]) -> list[float]:
    """y as floats: n numbers (check_numbers), each in [0, 1]."""
    y = check_numbers("y", y)
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
    form = f.laminar_form()
    if form is not None:
        f._matroid_rank = _laminar_matroid(*form)
        return f._matroid_rank
    n = f.ground.size
    masks = all_masks(n)
    vals = f.values_for_masks(masks)
    ok = abs(vals[0]) <= DEFAULT_TOL
    ok = ok and bool(np.all(np.abs(vals - np.round(vals)) <= DEFAULT_TOL))
    if ok:
        for u in range(n):
            absent = masks[((masks >> u) & 1) == 0]
            diff = vals[absent | (1 << u)] - vals[absent]
            if not np.all((np.abs(diff) <= DEFAULT_TOL) | (np.abs(diff - 1.0) <= DEFAULT_TOL)):
                ok = False
                break
    ok = ok and _exhaustive_axioms(vals).ok
    f._matroid_rank = ok
    return ok


def _laminar_matroid(weights: list[float], groups: list[tuple[tuple[int, ...], float]]) -> bool:
    """is_matroid_rank's answer for a laminar form, in O(n log n).

    A laminar form is monotone submodular with f(empty) = 0, so only the
    integer values and the 0/1 marginals are in question. In a group f is
    min(c(T), cap), where a weight above the cap acts as the cap, so take
    w = min(weight, cap): each w is a marginal at T = empty and must be
    within DEFAULT_TOL of 0 ("small") or 1 ("unit"). The sums of the
    subsets with j units fill a short interval, from the j lightest units
    to the j heaviest plus every small one, and f is monotone in the sum,
    so the two ends carry every extreme:
    - a unit's marginal at sum s is neither near 0 nor near 1 exactly when
      cap - 1 + DEFAULT_TOL < s < cap - DEFAULT_TOL, and only
      j < (number of units) leaves a unit out of the subset;
    - the groups' values add up, and so do their largest errors above and
      below an integer, which must each stay within DEFAULT_TOL.
    """
    above = below = 0.0
    for members, cap in groups:
        ws = [min(weights[u], cap) for u in members]
        small = [w for w in ws if w <= DEFAULT_TOL]
        units = sorted(w for w in ws if w > DEFAULT_TOL and abs(w - 1.0) <= DEFAULT_TOL)
        if len(small) + len(units) != len(ws):
            return False
        light, heavy = 0.0, sum(small)
        err_hi = err_lo = 0.0
        for j in range(len(units) + 1):
            if j:
                light += units[j - 1]
                heavy += units[-j]
            for s in (light, heavy):
                if j < len(units) and cap - 1.0 + DEFAULT_TOL < s < cap - DEFAULT_TOL:
                    return False
                v = min(s, cap)
                err = v - round(v)
                err_hi, err_lo = max(err_hi, err), max(err_lo, -err)
        above += err_hi
        below += err_lo
    return above <= DEFAULT_TOL and below <= DEFAULT_TOL


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
