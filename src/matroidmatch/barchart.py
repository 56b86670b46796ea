"""Bar-chart view of the Lovasz extension and the raise operation.

For potentials y the chart is the region under t -> f({u : y_u >= t}) for
t in [0, 1]; its area equals the Lovasz extension of f at y. We store it as
an ordered list of intervals that partition [0, 1] exactly, each carrying
the ordered member list sigma_t of its level set and the cached height
f(members). Raising a set X of elements to a common level a adds mass only
at t <= a; the per-interval differences come back as NewRegion records that
the primal-dual matching and the charging auditors consume.

Intervals are split but never merged, so any element is appended to a given
t-location at most once over a whole run and the order histories sigma_t
stay append-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import ALPHA, SNAP_EPS
from .errors import InputError, PreconditionError
from .submodular import SubmodularFn, _check_potentials

__all__ = ["Interval", "NewRegion", "BarChart", "charge_integral"]


@dataclass
class Interval:
    """One bar: [lo, hi] with ordered member list and cached height."""

    lo: float
    hi: float
    members: list[int]
    mask: int
    height: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


# Checked reads of parsed JSON for NewRegion.from_dict and the trace reader
# in algorithms: each raises ValueError on a value of the wrong type.

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


def json_ints(v) -> tuple[int, ...]:
    return tuple(json_int(u) for u in json_list(v))


@dataclass(frozen=True)
class NewRegion:
    """Rectangular slab of new chart mass created by one raise on one bar.

    appended holds the newly added elements, in the order they extend
    sigma_t; the height delta is exactly f(base + appended) - f(base), base
    being the bar's members before the raise: the u with y_u >= hi at the
    levels y before the raise.
    """

    lo: float
    hi: float
    old_height: float
    new_height: float
    appended: tuple[int, ...]

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def area(self) -> float:
        return (self.hi - self.lo) * (self.new_height - self.old_height)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "old_height": self.old_height, "new_height": self.new_height,
                "appended": list(self.appended)}

    @staticmethod
    def from_dict(d: dict) -> "NewRegion":
        """Inverse of to_dict; ValueError or TypeError on a malformed or
        out-of-range record (the bar must satisfy 0 <= lo <= hi <= 1)."""
        lo, hi = json_number(d["lo"]), json_number(d["hi"])
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"region [{lo}, {hi}] outside [0, 1]")
        return NewRegion(lo, hi, json_number(d["old_height"]),
                         json_number(d["new_height"]), json_ints(d["appended"]))


class BarChart:
    """Mutable bar chart for one run; see the module docstring."""

    def __init__(self, f: SubmodularFn, intervals: list[Interval], levels: list[float]):
        self.f = f
        self.intervals = intervals
        self._levels = levels

    @classmethod
    def from_potentials(cls, f: SubmodularFn, y) -> "BarChart":
        """Build the chart of f at y. Members are ordered by descending
        potential with id as the tie-break."""
        y = _check_potentials(f.ground, y)
        n = f.ground.size
        bounds = sorted({0.0, 1.0} | {v for v in y if 0.0 < v < 1.0})
        by_level = sorted(range(n), key=lambda u: (-y[u], u))
        intervals = []
        for lo, hi in zip(bounds, bounds[1:]):
            members = [u for u in by_level if y[u] >= hi]
            mask = 0
            for u in members:
                mask |= 1 << u
            intervals.append(Interval(lo, hi, members, mask, f.value_mask(mask)))
        return cls(f, intervals, y)

    @property
    def levels(self) -> list[float]:
        """Current potential of each element (u is a member of exactly the
        bars covering [0, levels[u]))."""
        return list(self._levels)

    def area(self) -> float:
        return sum(iv.width * iv.height for iv in self.intervals)

    def raise_to(self, X, a: float) -> list[NewRegion]:
        """Raise every element of X to level a; return the new regions.

        Callers pre-filter X: every u in X must currently sit strictly
        below a. Bars entirely below a get X's missing elements appended
        in ascending id order; the bar containing a is split first. Only
        regions with a positive height delta are returned, but membership
        is extended on every affected bar either way.
        """
        if not 0.0 <= a <= 1.0:
            raise InputError(f"level a = {a} outside [0, 1]")
        X = sorted({self.f.ground.check_element(u) for u in X})
        for u in X:
            if self._levels[u] >= a:
                raise PreconditionError(
                    f"element {u} already at level {self._levels[u]} >= a = {a}")
        if not X:
            return []

        a = self._snap(a)
        self._split_at(a)

        regions = []
        xmask = 0
        for u in X:
            xmask |= 1 << u
        for iv in self.intervals:
            if iv.hi > a:
                break
            missing = xmask & ~iv.mask
            if not missing:
                continue
            appended = []
            m = missing
            u = 0
            while m:
                if m & 1:
                    appended.append(u)
                m >>= 1
                u += 1
            old_height = iv.height
            iv.members.extend(appended)
            iv.mask |= missing
            iv.height = self.f.value_mask(iv.mask)
            if iv.height - old_height > 0.0:
                regions.append(NewRegion(iv.lo, iv.hi, old_height, iv.height,
                                         tuple(appended)))
        for u in X:
            self._levels[u] = a
        return regions

    def _snap(self, a: float) -> float:
        for iv in self.intervals:
            if abs(a - iv.lo) <= SNAP_EPS:
                return iv.lo
        if abs(a - 1.0) <= SNAP_EPS:
            return 1.0
        return a

    def _split_at(self, a: float):
        for i, iv in enumerate(self.intervals):
            if iv.lo < a < iv.hi:
                left = Interval(iv.lo, a, list(iv.members), iv.mask, iv.height)
                iv.lo = a
                self.intervals.insert(i, left)
                return

    def to_debug_json(self) -> list[dict]:
        return [{"lo": iv.lo, "hi": iv.hi, "members": list(iv.members),
                 "height": iv.height} for iv in self.intervals]


def charge_integral(regions, alpha: float = ALPHA) -> float:
    """Integral of the density (1 - x) / (x + alpha) over the given regions,
    x being the horizontal (level) coordinate.

    Closed form per region: delta_height * ((1 + alpha) * ln((hi + alpha)
    / (lo + alpha)) - (hi - lo)).
    """
    total = 0.0
    for r in regions:
        dh = r.new_height - r.old_height
        total += dh * ((1.0 + alpha) * math.log((r.hi + alpha) / (r.lo + alpha))
                       - (r.hi - r.lo))
    return total
