"""Bar-chart view of the Lovasz extension and the raise operation.

For potentials y the chart is the region under t -> f({u : y_u >= t}) for
t in [0, 1]; its area equals the Lovasz extension of f at y. We store it as
an ordered list of intervals that partition [0, 1] exactly, each carrying
the member mask of its level set and the cached height f(members).
Raising a set X of elements to a common level a adds mass only at t <= a;
the per-interval differences come back as NewRegion records that the
primal-dual matching and the charging auditors consume.

Intervals are split but never merged. The chart keeps no sigma_t member
lists (the order in which elements joined a bar): a raise hands back each
new region with its base, the bar's member mask just before the raise, and
the primal split needs nothing more. Raises only add elements to a prefix
of the bars, so the member masks are nested: each bar's mask contains the
masks of all bars above it.

The chart's bounds are the lowest bar's lo and every bar's hi, in
ascending order. Levels within SNAP_EPS of a bound snap to the first such
bound, so raises to nearly equal levels create no sliver bars.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .constants import SNAP_EPS
from .errors import InputError, PreconditionError
from .submodular import SubmodularFn, _check_potentials, as_mask

__all__ = ["Interval", "NewRegion", "BarChart", "snap"]


def snap(bounds, a: float) -> float:
    """The first of the ascending bounds within SNAP_EPS of a, or a itself
    when there is none.

    The rounded difference b - a never decreases along the bounds, so one
    bisection finds the first bound at most SNAP_EPS below a; that bound is
    the answer when it is also at most SNAP_EPS above a.
    """
    i = bisect_left(bounds, -SNAP_EPS, key=lambda b: b - a)
    if i < len(bounds) and abs(a - bounds[i]) <= SNAP_EPS:
        return bounds[i]
    return a


@dataclass
class Interval:
    """One bar: [lo, hi] with its member mask and cached height."""

    lo: float
    hi: float
    mask: int
    height: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


class NewRegion(NamedTuple):
    """Rectangular slab of new chart mass created by one raise on one bar.

    The height delta is exactly f(base + appended) - f(base): base is the
    bar's members before the raise (the u with y_u >= hi at the levels
    before the raise) and appended the raised elements missing from it.
    """

    lo: float
    hi: float
    old_height: float
    new_height: float

    @property
    def area(self) -> float:
        return (self.hi - self.lo) * (self.new_height - self.old_height)


class BarChart:
    """Mutable bar chart for one run; see the module docstring."""

    def __init__(self, f: SubmodularFn, intervals: list[Interval], levels: list[float]):
        self.f = f
        self.intervals = intervals
        self._levels = levels

    @classmethod
    def from_potentials(cls, f: SubmodularFn, y) -> "BarChart":
        """Build the chart of f at y."""
        y = _check_potentials(f.ground, y)
        bounds = sorted({0.0, 1.0} | {v for v in y if 0.0 < v < 1.0})
        intervals = []
        for lo, hi in zip(bounds, bounds[1:]):
            mask = as_mask(f.ground, [u for u, yu in enumerate(y) if yu >= hi])
            intervals.append(Interval(lo, hi, mask, f.value_mask(mask)))
        return cls(f, intervals, y)

    @property
    def levels(self) -> list[float]:
        """Current potential of each element (u is a member of exactly the
        bars covering [0, levels[u]))."""
        return list(self._levels)

    def area(self) -> float:
        return sum(iv.width * iv.height for iv in self.intervals)

    def raise_to(self, X, xmask: int, a: float) -> list[tuple[NewRegion, int]]:
        """Raise every element of X to level a; return the new regions,
        each paired with its base: the member mask of its bar before the
        raise, whose height is the region's old_height.

        X holds ascending element ids and xmask is their mask; a round
        holds both (xmask from at_or_above). a is snapped to the chart
        first. Every u in X must currently sit strictly below the snapped
        a, or the chart is left untouched and PreconditionError raised.
        Bars entirely below a gain X's missing elements; the bar containing
        a is split first. Only regions with a positive height delta are
        returned, but membership is extended on every affected bar either
        way.
        """
        if not 0.0 <= a <= 1.0:
            raise InputError(f"level a = {a} outside [0, 1]")
        if not xmask:
            return []
        a = self.snap(a)
        for u in X:
            if self._levels[u] >= a:
                raise PreconditionError(
                    f"element {u} already at level {self._levels[u]} >= a = {a}")
        self._split_at(a)

        regions = []
        for iv in self.intervals[self.first_missing(xmask):]:
            if iv.hi > a:
                break
            base, old_height = iv.mask, iv.height
            iv.mask |= xmask
            iv.height = self.f.value_mask(iv.mask)
            if iv.height - old_height > 0.0:
                regions.append((NewRegion(iv.lo, iv.hi, old_height, iv.height), base))
        for u in X:
            self._levels[u] = a
        return regions

    def at_or_above(self, a: float) -> int:
        """Mask of the elements whose level is at least a: the members of
        the first bar with hi >= a. Every level is a chart bound, and no
        bound lies between that bar's lo and a, so the non-members are the
        elements below a."""
        ivs = self.intervals
        if a <= ivs[0].lo:
            return self.f.ground.full_mask
        i = bisect_left(ivs, a, key=attrgetter("hi"))
        return ivs[i].mask if i < len(ivs) else 0

    def first_missing(self, mask: int) -> int:
        """Index of the first bar that misses an element of mask, or the
        number of bars. The masks are nested, so every later bar misses
        one too and every earlier bar holds all of mask."""
        return bisect_left(self.intervals, True, key=lambda iv: bool(mask & ~iv.mask))

    def snap(self, a: float) -> float:
        """The first chart bound within SNAP_EPS of a, or a itself.

        Only two bounds can be first: the lowest bar's lo, and the first hi
        at most SNAP_EPS below a, found by the bisection snap() makes.
        """
        ivs = self.intervals
        i = bisect_left(ivs, -SNAP_EPS, key=lambda iv: iv.hi - a)
        return snap((ivs[0].lo, ivs[i].hi) if i < len(ivs) else (ivs[0].lo,), a)

    def _split_at(self, a: float):
        """Split the bar with lo < a < hi, if there is one, at a."""
        i = bisect_left(self.intervals, a, key=attrgetter("hi"))
        if i < len(self.intervals):
            iv = self.intervals[i]
            if iv.lo < a < iv.hi:
                self.intervals.insert(i, Interval(iv.lo, a, iv.mask, iv.height))
                iv.lo = a

