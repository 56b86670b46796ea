"""Tests for the bar-chart representation and the charge integral."""

import math
import random

import numpy as np
import pytest

from matroidmatch.barchart import BarChart, NewRegion
from matroidmatch.constants import ALPHA, charge_integral
from matroidmatch.errors import InputError, PreconditionError
from matroidmatch.submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    lovasz,
)

TOL = 1e-9


def quad_charge(regions, panels=1_000_000):
    """Midpoint-rule oracle for the charge integral."""
    total = 0.0
    for r in regions:
        if r.hi <= r.lo:
            continue
        x = np.linspace(r.lo, r.hi, panels + 1)
        mid = (x[:-1] + x[1:]) / 2
        dx = (r.hi - r.lo) / panels
        total += (r.new_height - r.old_height) * float(np.sum((1 - mid) / (mid + ALPHA)) * dx)
    return total


class TestFromPotentials:
    def test_all_zero(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.0, 0.0])
        assert len(chart.intervals) == 1
        iv = chart.intervals[0]
        assert (iv.lo, iv.hi, iv.mask, iv.height) == (0.0, 1.0, 0, 0.0)

    def test_two_levels(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.3, 0.7])
        got = [(iv.lo, iv.hi, iv.mask, iv.height) for iv in chart.intervals]
        assert got == [(0.0, 0.3, 0b11, 2.0), (0.3, 0.7, 0b10, 1.0), (0.7, 1.0, 0, 0.0)]

    def test_indicator_single_bar(self):
        f = UniformRank(GroundSet(3), 2)
        chart = BarChart.from_potentials(f, [1.0, 0.0, 1.0])
        assert len(chart.intervals) == 1
        assert chart.intervals[0].mask == 0b101
        assert chart.intervals[0].height == 2.0

    def test_area_is_lovasz(self):
        f = PartitionBudget(GroundSet(4), [[0, 1], [2, 3]], [1, 2])
        y = [0.2, 0.9, 0.9, 0.4]
        chart = BarChart.from_potentials(f, y)
        assert chart.area() == pytest.approx(lovasz(f, y), abs=TOL)

    def test_bad_potential(self):
        with pytest.raises(InputError):
            BarChart.from_potentials(Cardinality(GroundSet(1)), [1.5])


class TestRaise:
    def test_raise_from_zero(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.0, 0.0])
        [(r, base)] = chart.raise_to([0, 1], 0b11, 0.5)
        assert (r.lo, r.hi, r.old_height, r.new_height, base) == (0.0, 0.5, 0.0, 2.0, 0)
        assert chart.area() == pytest.approx(1.0, abs=TOL)
        assert chart.levels == [0.5, 0.5]

    def test_raise_above_existing(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.3, 0.0])
        raised = chart.raise_to([1], 0b10, 0.6)
        got = [(r.lo, r.hi, r.old_height, r.new_height, base) for r, base in raised]
        assert got == [(0.0, 0.3, 1.0, 2.0, 0b01), (0.3, 0.6, 0.0, 1.0, 0)]
        assert sum(r.area for r, _ in raised) == pytest.approx(0.6, abs=TOL)
        assert chart.area() == pytest.approx(lovasz(f, [0.3, 0.6]), abs=TOL)

    def test_empty_x_is_noop(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.3, 0.7])
        before = [vars(iv).copy() for iv in chart.intervals]
        assert chart.raise_to([], 0, 0.9) == []
        assert [vars(iv) for iv in chart.intervals] == before

    def test_zero_delta_regions_dropped_but_membership_kept(self):
        f = UniformRank(GroundSet(2), 1)
        chart = BarChart.from_potentials(f, [0.8, 0.0])
        # below 0.5 the rank is already 1, so only membership changes there
        assert chart.raise_to([1], 0b10, 0.5) == []
        assert chart.levels == [0.8, 0.5]
        assert chart.intervals[0].mask == 0b11
        assert chart.area() == pytest.approx(lovasz(f, [0.8, 0.5]), abs=TOL)

    def test_level_errors(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.4, 0.0])
        with pytest.raises(InputError):
            chart.raise_to([1], 0b10, 1.5)
        with pytest.raises(PreconditionError):
            chart.raise_to([0], 0b01, 0.4)  # already at 0.4

    def test_refuses_a_raise_that_snaps_below_the_level(self):
        # bounds 0.5 and 0.5 + 5e-13 are closer than SNAP_EPS; a snaps to
        # 0.5, below y_1, so the raise would lower y_1 and leave bar
        # [0.5, 0.5 + 5e-13] listing element 1
        f = Cardinality(GroundSet(3))
        chart = BarChart.from_potentials(f, [0.5, 0.5 + 5e-13, 0.0])
        before = [vars(iv).copy() for iv in chart.intervals], chart.levels
        with pytest.raises(PreconditionError):
            chart.raise_to([1], 0b10, 0.5 + 9e-13)
        assert ([vars(iv) for iv in chart.intervals], chart.levels) == before

    def test_snap_to_existing_boundary(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.25, 0.0])
        chart.raise_to([1], 0b10, 0.25 + 4e-13)
        # the near-coincident level snaps: no sliver interval appears
        bounds = [iv.lo for iv in chart.intervals] + [1.0]
        assert min(b2 - b1 for b1, b2 in zip(bounds, bounds[1:])) > 1e-6

    def test_regions_never_cross_a(self):
        f = Cardinality(GroundSet(3))
        chart = BarChart.from_potentials(f, [0.0, 0.5, 0.9])
        for r, _ in chart.raise_to([0, 1], 0b11, 0.7):
            assert r.hi <= 0.7 + 1e-15


class TestRaiseFuzz:
    def _zoo(self, n, rng):
        g = GroundSet(n)
        fams = [Cardinality(g), UniformRank(g, max(1, n // 2)),
                PartitionBudget(g, [list(range(n // 2)) or [0], list(range(max(1, n // 2), n))],
                                [1, 2]) if n >= 2 else Cardinality(g),
                WeightedThreshold(g, [0.3 + 0.2 * u for u in range(n)], 1.0 + n / 3)]
        vals = [0.0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & (mask - 1)
            vals[mask] = vals[low] + rng.random() * 0.8
        # running max over subsets keeps the table monotone; submodularity is
        # not needed for area bookkeeping, only monotonicity
        for mask in range(1 << n):
            for u in range(n):
                if (mask >> u) & 1:
                    vals[mask] = max(vals[mask], vals[mask & ~(1 << u)])
        fams.append(ExplicitTable(g, vals))
        return fams

    def test_random_raise_sequences_keep_area_consistent(self):
        rng = random.Random(20240817)
        for trial in range(40):
            n = rng.randint(1, 6)
            for f in self._zoo(n, rng):
                chart = BarChart.from_potentials(f, [0.0] * n)
                for _ in range(8):
                    y = chart.levels
                    a = rng.random()
                    X = [u for u in range(n) if y[u] < a and rng.random() < 0.6]
                    before = chart.area()
                    xmask = sum(1 << u for u in X)
                    raised = chart.raise_to(X, xmask, a)
                    regions = [r for r, _ in raised]
                    after = chart.area()
                    y2 = chart.levels
                    assert after == pytest.approx(lovasz(f, y2), abs=TOL)
                    assert sum(r.area for r in regions) == pytest.approx(
                        lovasz(f, y2) - lovasz(f, y), abs=TOL)
                    assert after - before == pytest.approx(
                        sum(r.area for r in regions), abs=TOL)
                    for r, base in raised:
                        assert r.hi <= a + 1e-15
                        assert r.new_height - r.old_height > 0
                        # the base is the bar's mask before the raise
                        assert f.value_mask(base) == r.old_height
                        assert f.value_mask(base | xmask) == r.new_height
                # partition of [0, 1] is exact, heights non-increasing
                assert chart.intervals[0].lo == 0.0
                assert chart.intervals[-1].hi == 1.0
                for i1, i2 in zip(chart.intervals, chart.intervals[1:]):
                    assert i1.hi == i2.lo
                    assert i1.height >= i2.height - TOL
                # membership matches levels: u covers [0, y_u)
                y = chart.levels
                for iv in chart.intervals:
                    assert iv.mask == sum(1 << u for u in range(n) if y[u] >= iv.hi)


class TestChargeIntegral:
    def test_unit_square_gives_alpha(self):
        r = NewRegion(0.0, 1.0, 0.0, 1.0)
        assert charge_integral([r]) == pytest.approx(ALPHA, abs=1e-12)

    def test_empty(self):
        assert charge_integral([]) == 0.0

    def test_against_quadrature(self):
        regions = [
            NewRegion(0.0, 0.5, 0.0, 2.0),
            NewRegion(0.1, 0.35, 1.0, 2.5),
            NewRegion(0.6, 0.97, 0.5, 0.75),
        ]
        for r in regions:
            assert charge_integral([r]) == pytest.approx(quad_charge([r]), abs=1e-6)
        assert charge_integral(regions) == pytest.approx(quad_charge(regions), abs=1e-6)

    def test_alpha_override(self):
        # alpha is the constant ALPHA: the integral matches quadrature at
        # ALPHA, and no other alpha can be passed in.
        r = NewRegion(0.2, 0.8, 0.0, 1.0)
        assert charge_integral([r]) == pytest.approx(
            quad_charge([r], panels=400_000), abs=1e-6)
        with pytest.raises(TypeError):
            charge_integral([r], 0.5)
