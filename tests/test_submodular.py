"""Unit and property tests for the set-function module."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch.errors import InputError, SizeError
from matroidmatch.submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    as_mask,
    evaluate,
    fn_from_spec,
    is_matroid_rank,
    lovasz,
    lovasz_mc,
    marginal,
    mask_members,
    span,
    verify_axioms,
)

TOL = 1e-9


def all_families(n):
    """One representative per family on a ground set of size n."""
    g = GroundSet(n)
    fams = [Cardinality(g), UniformRank(g, max(1, n // 2))]
    if n >= 1:
        blocks = [list(range(n // 2)), list(range(n // 2, n))]
        blocks = [b for b in blocks if b]
        fams.append(PartitionBudget(g, blocks, [1.0] * len(blocks)))
        fams.append(WeightedThreshold(g, [0.5 + 0.25 * u for u in range(n)], 1.5))
    if n <= 10:
        rng = np.random.default_rng(7 + n)
        # random coverage table: monotone submodular by construction
        universe = 2 * n + 1
        weights = rng.random(universe)
        covers = [int(m) for m in rng.integers(0, 1 << universe, size=n)]
        vals = []
        for mask in range(1 << n):
            covered = 0
            for u in mask_members(mask):
                covered |= covers[u]
            vals.append(sum(weights[j] for j in mask_members(covered)))
        fams.append(ExplicitTable(g, vals))
    return fams


class TestEvaluate:
    def test_cardinality(self):
        f = Cardinality(GroundSet(3))
        assert evaluate(f, {0, 2}) == 2.0
        assert evaluate(f, ()) == 0.0
        assert evaluate(f, 0b111) == 3.0

    def test_partition_budget(self):
        f = PartitionBudget(GroundSet(3), [[0, 1], [2]], [1, 1])
        assert evaluate(f, {0, 1}) == 1.0
        assert evaluate(f, {0, 2}) == 2.0
        assert evaluate(f, {0, 1, 2}) == 2.0

    def test_weighted_threshold(self):
        f = WeightedThreshold(GroundSet(3), [1.0, 2.0, 0.5], 2.5)
        assert evaluate(f, {0}) == 1.0
        assert evaluate(f, {0, 1}) == 2.5
        assert evaluate(f, {0, 2}) == 1.5

    def test_explicit_table(self):
        f = ExplicitTable(GroundSet(2), [0.0, 1.0, 1.0, 1.5])
        assert evaluate(f, {0, 1}) == 1.5
        assert evaluate(f, 0b01) == 1.0

    def test_out_of_range_element(self):
        f = Cardinality(GroundSet(2))
        with pytest.raises(InputError):
            evaluate(f, {0, 5})
        with pytest.raises(InputError):
            evaluate(f, -1)

    def test_table_validation(self):
        with pytest.raises(InputError):
            ExplicitTable(GroundSet(2), [0.0, 1.0])
        with pytest.raises(InputError):
            ExplicitTable(GroundSet(1), [0.0, -0.5])
        with pytest.raises(SizeError):
            ExplicitTable(GroundSet(17), [0.0] * (1 << 17))

    def test_partition_validation(self):
        g = GroundSet(3)
        with pytest.raises(InputError):
            PartitionBudget(g, [[0, 1]], [1])  # misses element 2
        with pytest.raises(InputError):
            PartitionBudget(g, [[0, 1], [1, 2]], [1, 1])  # overlap


class TestMarginal:
    def test_uniform_rank_saturated(self):
        f = UniformRank(GroundSet(3), 1)
        assert marginal(f, {0}, 1) == 0.0
        assert marginal(f, (), 1) == 1.0

    def test_member_is_zero(self):
        f = Cardinality(GroundSet(3))
        assert marginal(f, {0, 1}, 1) == 0.0

    def test_matches_difference(self):
        for f in all_families(5):
            for mask in range(1 << 5):
                for u in range(5):
                    if (mask >> u) & 1:
                        continue
                    want = f.value_mask(mask | (1 << u)) - f.value_mask(mask)
                    assert marginal(f, mask, u) == pytest.approx(want, abs=TOL)


class TestVerifyAxioms:
    def test_families_pass(self):
        for n in (0, 1, 2, 4, 6):
            for f in all_families(n):
                rep = verify_axioms(f)
                assert rep.ok, (f, rep)

    def test_supermodular_table_witness(self):
        # f({0}) = f({1}) = 1 but f({0,1}) = 3: diminishing returns fails.
        f = ExplicitTable(GroundSet(2), [0.0, 1.0, 1.0, 3.0])
        rep = verify_axioms(f)
        assert rep.nonnegative and rep.monotone and not rep.submodular
        assert rep.witness == (frozenset(), frozenset({1}), 0)

    def test_non_monotone_table(self):
        f = ExplicitTable(GroundSet(2), [0.0, 1.0, 1.0, 0.5])
        rep = verify_axioms(f)
        assert not rep.monotone
        assert rep.monotone_witness is not None

    def test_size_limit(self):
        with pytest.raises(SizeError):
            verify_axioms(Cardinality(GroundSet(17)))

    def test_sampled_mode(self):
        f = UniformRank(GroundSet(12), 4)
        assert verify_axioms(f, mode="sampled", trials=500, seed=3).ok
        bad = ExplicitTable(GroundSet(2), [0.0, 1.0, 1.0, 3.0])
        rep = verify_axioms(bad, mode="sampled", trials=2000, seed=3)
        assert not rep.submodular

    def test_bad_mode(self):
        with pytest.raises(InputError):
            verify_axioms(Cardinality(GroundSet(2)), mode="fast")


class TestLovasz:
    def test_hand_example(self):
        # sorted slabs: 0.3 * f({0,1}) + 0.4 * f({1}) + 0.3 * f({}) = 1.0
        f = Cardinality(GroundSet(2))
        assert lovasz(f, [0.3, 0.7]) == pytest.approx(1.0, abs=TOL)

    def test_indicator_equals_evaluate(self):
        for n in (1, 2, 3, 5):
            for f in all_families(n):
                for mask in range(1 << n):
                    y = [1.0 if (mask >> u) & 1 else 0.0 for u in range(n)]
                    assert lovasz(f, y) == pytest.approx(f.value_mask(mask), abs=TOL)

    def test_indicator_example(self):
        f = Cardinality(GroundSet(4))
        y = [0.0, 1.0, 0.0, 1.0]
        assert lovasz(f, y) == pytest.approx(2.0, abs=TOL)

    def test_zero_is_f_empty(self):
        f = ExplicitTable(GroundSet(2), [0.5, 1.0, 1.0, 1.5])
        # tables may have f(empty) > 0; the extension keeps that offset
        assert lovasz(f, [0.0, 0.0]) == pytest.approx(0.5, abs=TOL)
        assert lovasz(f, [0.25, 0.0]) == pytest.approx(0.5 + 0.25 * 0.5, abs=TOL)

    def test_domain_error(self):
        f = Cardinality(GroundSet(2))
        with pytest.raises(InputError):
            lovasz(f, [0.5, 1.2])
        with pytest.raises(InputError):
            lovasz(f, [0.5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4))
    def test_monotone_in_each_coordinate(self, y, bump):
        f = UniformRank(GroundSet(4), 2)
        y2 = [min(1.0, a + b) for a, b in zip(y, bump)]
        assert lovasz(f, y2) >= lovasz(f, y) - TOL

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(4)),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.floats(0.0, 1.0))
    def test_linear_on_shared_ordering(self, perm, a_vals, b_vals, lam):
        # two potential vectors sorted the same way mix linearly
        f = all_families(4)[-1]
        a_sorted, b_sorted = sorted(a_vals), sorted(b_vals)
        ya = [0.0] * 4
        yb = [0.0] * 4
        for rank, u in enumerate(perm):
            ya[u], yb[u] = a_sorted[rank], b_sorted[rank]
        ymix = [lam * p + (1 - lam) * q for p, q in zip(ya, yb)]
        want = lam * lovasz(f, ya) + (1 - lam) * lovasz(f, yb)
        assert lovasz(f, ymix) == pytest.approx(want, abs=1e-7)


class TestLovaszMC:
    def test_matches_exact(self):
        f = Cardinality(GroundSet(2))
        est = lovasz_mc(f, [0.3, 0.7], samples=100_000, seed=11)
        assert abs(est - 1.0) <= 0.01

    def test_indicator_is_exact(self):
        f = UniformRank(GroundSet(3), 2)
        assert lovasz_mc(f, [1.0, 0.0, 1.0], samples=500, seed=0) == 2.0

    def test_bad_samples(self):
        with pytest.raises(InputError):
            lovasz_mc(Cardinality(GroundSet(1)), [0.5], samples=0)

    def test_relative_band_on_random_draws(self):
        # estimator error scales with the function, so the band does too
        rng = random.Random(77)
        for k, f in enumerate(all_families(5) * 4):
            y = [rng.random() for _ in range(5)]
            exact = lovasz(f, y)
            est = lovasz_mc(f, y, samples=100_000, seed=k)
            assert abs(est - exact) <= 0.01 * max(1.0, exact)

    def test_past_64_bit_masks(self):
        # exact value sum(y) = 35; int64 masks gave 32.94 here
        n = 70
        f = Cardinality(GroundSet(n))
        y = [(u % 10) / 10 + 0.05 for u in range(n)]
        exact = lovasz(f, y)
        assert exact == pytest.approx(35.0, abs=1e-9)
        assert abs(lovasz_mc(f, y, samples=200_000) - exact) <= 0.01 * exact

    @pytest.mark.parametrize("n", [62, 63, 64, 65])
    def test_mask_width_boundary(self, n):
        f = Cardinality(GroundSet(n))
        y = [((7 * u) % n) / n for u in range(n)]
        exact = lovasz(f, y)
        assert abs(lovasz_mc(f, y, samples=50_000, seed=n) - exact) <= 0.01 * exact


class TestLaminarForm:
    @staticmethod
    def from_form(form, mask):
        weights, groups = form
        return sum(min(sum(weights[u] for u in members if (mask >> u) & 1), cap)
                   for members, cap in groups)

    def test_reproduces_values_for_masks(self):
        rng = random.Random(5)
        for n in (0, 1, 4, 7, 10):
            fams = all_families(n)
            if n >= 3:
                ids = [u % 3 for u in range(n)]
                rng.shuffle(ids)
                blocks = [[u for u in range(n) if ids[u] == j] for j in range(3)]
                fams.append(PartitionBudget(GroundSet(n), blocks, [0.5, 2.0, 1.5]))
                fams.append(WeightedThreshold(GroundSet(n), [rng.random() for _ in range(n)],
                                              rng.random() * n / 2))
            for f in fams:
                form = f.laminar_form()
                if isinstance(f, ExplicitTable):
                    assert form is None
                    continue
                weights, groups = form
                assert sorted(u for members, _ in groups for u in members) == list(range(n))
                want = f.values_for_masks(np.arange(1 << n, dtype=np.int64))
                got = [self.from_form(form, mask) for mask in range(1 << n)]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestMatroidRank:
    def test_matroid_families(self):
        g = GroundSet(5)
        assert is_matroid_rank(Cardinality(g))
        assert is_matroid_rank(UniformRank(g, 2))
        assert is_matroid_rank(PartitionBudget(g, [[0, 1], [2, 3, 4]], [1, 2]))

    def test_fractional_values_rejected(self):
        f = WeightedThreshold(GroundSet(3), [1.0, 1.0, 1.0], 2.5)
        assert not is_matroid_rank(f)

    def test_non_unit_marginal_rejected(self):
        f = WeightedThreshold(GroundSet(3), [2.0, 2.0, 2.0], 4.0)
        assert not is_matroid_rank(f)

    def test_size_limit(self):
        with pytest.raises(SizeError):
            is_matroid_rank(Cardinality(GroundSet(17)))


class TestSpan:
    def test_saturated_uniform(self):
        f = UniformRank(GroundSet(3), 1)
        assert span(f, {0}) == {0, 1, 2}

    def test_partition_blocks(self):
        f = PartitionBudget(GroundSet(4), [[0, 1], [2, 3]], [1, 1])
        assert span(f, {0}) == {0, 1}
        assert span(f, {0, 2}) == {0, 1, 2, 3}

    def test_empty_has_no_span_for_cardinality(self):
        f = Cardinality(GroundSet(3))
        assert span(f, ()) == frozenset()

    def test_idempotent_and_superset(self):
        g = GroundSet(6)
        fns = [UniformRank(g, 2), PartitionBudget(g, [[0, 1, 2], [3, 4, 5]], [1, 2])]
        for f in fns:
            for mask in range(1 << 6):
                s = span(f, mask)
                assert s >= frozenset(mask_members(mask))
                assert span(f, s) == s


class TestSerialization:
    def test_round_trip_all_families(self):
        for f in all_families(4):
            g = f.ground
            back = fn_from_spec(f.to_spec(), g)
            assert back.to_spec() == f.to_spec()
            for mask in range(1 << 4):
                assert back.value_mask(mask) == f.value_mask(mask)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            fn_from_spec({"family": "mystery"}, GroundSet(2))

    def test_missing_field(self):
        with pytest.raises(InputError):
            fn_from_spec({"family": "uniform_rank"}, GroundSet(2))


def test_mask_helpers():
    g = GroundSet(4)
    assert as_mask(g, [2, 0]) == 0b0101
    assert mask_members(0b1010) == (1, 3)
    with pytest.raises(InputError):
        as_mask(g, 1 << 4)
