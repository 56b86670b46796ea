"""Unit and property tests for the set-function module."""

import copy
import inspect
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch import submodular
from matroidmatch.constants import DEFAULT_TOL
from matroidmatch.errors import InputError, SizeError
from matroidmatch.instances import Arrival, Instance
from matroidmatch.submodular import (
    EXHAUSTIVE_LIMIT,
    Cardinality,
    ExplicitTable,
    GroundSet,
    LaminarBudget,
    PartitionBudget,
    SubmodularFn,
    UniformRank,
    WeightedThreshold,
    all_masks,
    as_mask,
    fn_from_spec,
    is_matroid_rank,
    lovasz,
    marginal,
    mask_members,
    span,
    span_mask,
    verify_axioms,
)
from matroidmatch.verify import check_matching, offline_opt

from helpers import lovasz_mc

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
        assert f.value({0, 2}) == 2.0
        assert f.value(()) == 0.0
        assert f.value(0b111) == 3.0

    def test_partition_budget(self):
        f = PartitionBudget(GroundSet(3), [[0, 1], [2]], [1, 1])
        assert f.value({0, 1}) == 1.0
        assert f.value({0, 2}) == 2.0
        assert f.value({0, 1, 2}) == 2.0

    def test_weighted_threshold(self):
        f = WeightedThreshold(GroundSet(3), [1.0, 2.0, 0.5], 2.5)
        assert f.value({0}) == 1.0
        assert f.value({0, 1}) == 2.5
        assert f.value({0, 2}) == 1.5

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_weighted_threshold_matches_bit_loop(self, n):
        def loop_value(f, mask):
            # the bit loop value_mask used to run: one addition per set bit,
            # ascending u
            total = 0.0
            u = 0
            while mask:
                if mask & 1:
                    total += f.weights[u]
                mask >>= 1
                u += 1
            return min(total, f.cap)

        rng = random.Random(n)
        weights = [rng.random() * 10 ** rng.randint(-3, 3) for _ in range(n)]
        for cap in (sum(weights) / 3, math.inf):
            f = WeightedThreshold(GroundSet(n), weights, cap)
            full = (1 << n) - 1
            masks = [0, full, 1, 1 << (n - 1)]
            masks += [rng.getrandbits(n) for _ in range(300)]
            masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                      for _ in range(100)]
            for mask in masks:
                assert f.value_mask(mask) == loop_value(f, mask)

    def test_explicit_table(self):
        f = ExplicitTable(GroundSet(2), [0.0, 1.0, 1.0, 1.5])
        assert f.value({0, 1}) == 1.5
        assert f.value(0b01) == 1.0

    def test_out_of_range_element(self):
        f = Cardinality(GroundSet(2))
        with pytest.raises(InputError):
            f.value({0, 5})
        with pytest.raises(InputError):
            f.value(-1)

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

    @staticmethod
    def families(n, rng):
        fams = all_families(n)
        if n >= 3:
            ids = [u % 3 for u in range(n)]
            rng.shuffle(ids)
            blocks = [[u for u in range(n) if ids[u] == j] for j in range(3)]
            fams.append(PartitionBudget(GroundSet(n), blocks, [0.5, 2.0, 1.5]))
            fams.append(WeightedThreshold(
                GroundSet(n), [rng.random() * 10 ** rng.randint(-3, 3) for _ in range(n)],
                rng.random() * n / 2))
        return fams

    def test_reproduces_values_for_masks(self):
        # the min cut and the closed-form polytope test are built from
        # laminar_form, so the form is checked against the scalar oracle
        rng = random.Random(5)
        for n in (0, 1, 4, 7, 10):
            for f in self.families(n, rng):
                form = f.laminar_form()
                if isinstance(f, ExplicitTable):
                    assert form is None
                    continue
                weights, groups = form
                assert sorted(u for members, _ in groups for u in members) == list(range(n))
                want = [f.value_mask(mask) for mask in range(1 << n)]
                got = [self.from_form(form, mask) for mask in range(1 << n)]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_table_is_value_mask_to_the_bit(self):
        rng = random.Random(6)
        for n in (0, 1, 5, 9, 12):
            for f in self.families(n, rng):
                table = f.values_for_masks(np.arange(1 << n, dtype=np.int64))
                assert table.dtype == np.float64
                assert table.tolist() == [f.value_mask(mask) for mask in range(1 << n)]
                some = np.array([0, (1 << n) - 1, (1 << n) // 3], dtype=np.int64)
                assert f.values_for_masks(some).tolist() == table[some].tolist()


class TestAllMasks:
    def test_every_subset_ascending(self):
        assert all_masks(0).tolist() == [0]
        masks = all_masks(EXHAUSTIVE_LIMIT)
        assert masks.dtype == np.int64
        assert masks.tolist() == list(range(1 << EXHAUSTIVE_LIMIT))

    @pytest.mark.parametrize("n", [EXHAUSTIVE_LIMIT + 1, 63, 70])
    def test_one_size_limit(self, n):
        # every 2^n enumeration is refused before anything is allocated (at
        # n = 70 numpy would fail on the shape, at n = 30 it would ask for 8 GB)
        g = GroundSet(n)
        opaque = Instance("big", n, Opaque(Cardinality(g)), [Arrival(0, (0,))])
        for call in (lambda: all_masks(n),
                     lambda: verify_axioms(Cardinality(g)),
                     lambda: is_matroid_rank(Opaque(Cardinality(g))),
                     lambda: offline_opt(opaque),
                     lambda: check_matching({(0, 0): 1.0}, opaque)):
            with pytest.raises(SizeError, match=f"2\\^n .* n = {n}$"):
                call()

    def test_one_home_in_src(self):
        # all_masks is the only place in the package that starts a 2^n
        # enumeration, so its limit is the only one
        src = Path(submodular.__file__).parent
        found = {path.name: path.read_text(encoding="utf-8").count("np.arange(1 <<")
                 for path in sorted(src.glob("*.py"))}
        assert {name: k for name, k in found.items() if k} == {"submodular.py": 1}
        assert "np.arange(1 <<" in inspect.getsource(all_masks)


class Laminar(SubmodularFn):
    """A test budget given by any laminar form: several groups, any
    weights."""

    family = "laminar"

    def __init__(self, weights, groups):
        super().__init__(GroundSet(len(weights)))
        self.form = (list(weights), list(groups))

    def value_mask(self, mask):
        weights, groups = self.form
        return sum(min(sum(weights[u] for u in members if (mask >> u) & 1), cap)
                   for members, cap in groups)

    def laminar_form(self):
        return self.form


class Opaque(SubmodularFn):
    """Evaluates like another budget but has no laminar form, so the
    matroid test enumerates all subsets."""

    family = "opaque"

    def __init__(self, inner):
        super().__init__(inner.ground)
        self.inner = inner

    def value_mask(self, mask):
        return self.inner.value_mask(mask)


WEIGHTS = [0.0, 1.0, 1.0, 1.0, 1.5, 2.0, 0.5]
CAPS = [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5, math.inf]
# Offsets that put a value within DEFAULT_TOL of its base, or just past it.
OFFSETS = [0.0, 0.0, 0.3 * TOL, -0.3 * TOL, 0.6 * TOL, -0.6 * TOL, 1.5 * TOL, -1.5 * TOL]


def near_tol(bases):
    """A base value, often moved by a fraction of DEFAULT_TOL, never below 0."""
    return st.builds(lambda b, d: b if math.isinf(b) else max(0.0, b + d),
                     st.sampled_from(bases), st.sampled_from(OFFSETS))


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

    def test_non_submodular_rejected(self):
        # integral with 0/1 marginals, so only the axiom check catches it
        f = ExplicitTable(GroundSet(2), [0.0, 0.0, 0.0, 1.0])
        assert not is_matroid_rank(f)

    def test_size_limit(self):
        # only budgets without a laminar form are checked exhaustively
        with pytest.raises(SizeError):
            is_matroid_rank(Opaque(Cardinality(GroundSet(17))))

    def test_closed_form_at_large_n(self):
        n = 200
        g = GroundSet(n)
        assert is_matroid_rank(Cardinality(g))
        assert is_matroid_rank(PartitionBudget(g, [range(b, n, 10) for b in range(10)], [6] * 10))
        assert not is_matroid_rank(WeightedThreshold(g, [2.0] * n, 4.0))

    @pytest.mark.parametrize("weights, groups, expected", [
        ([0.0, 1.0, 0.0], [((0, 1, 2), 1.0)], True),  # zero weights
        ([1.5, 1.5, 1.0], [((0, 1, 2), 1.0)], True),  # weight 1.5, cap 1: uniform rank 1
        ([1.5, 1.0], [((0,), 2.0), ((1,), 1.0)], False),
        ([1.0, 1.0, 1.0], [((0, 1, 2), 1.5)], False),  # fractional cap below the total
        ([1.0, 1.0, 1.0], [((0, 1, 2), 3.5)], True),  # cap above the total
        ([1.0, 1.0], [((0,), 0.0), ((1,), 0.25)], False),
        ([2.0, 2.0], [((0, 1), 0.0)], True),  # cap 0
        ([1.0 + 0.4 * TOL] * 2, [((0, 1), math.inf)], True),
        ([1.0 + 0.4 * TOL] * 3, [((0, 1, 2), math.inf)], False),  # the errors add up
        ([1.0 + 0.4 * TOL] * 4, [((0, 1), math.inf), ((2, 3), math.inf)], False),
        ([1.0, 1.0], [((0, 1), 1.0 - 0.5 * TOL)], True),
        ([1.0, 1.0], [((0,), 1.0 - 0.6 * TOL), ((1,), 1.0 - 0.6 * TOL)], False),
        ([1.0, 1.0, 1.0], [((0, 1, 2), 2.0 + 0.9 * TOL)], True),
        ([1.0, 1.0, 1.0], [((0, 1, 2), 2.0 + 2.0 * TOL)], False),
        ([0.5 * TOL, 1.0], [((0, 1), math.inf)], True),
        ([0.6 * TOL, 0.6 * TOL], [((0, 1), math.inf)], False),
    ])
    def test_closed_form_cases(self, weights, groups, expected):
        f = Laminar(weights, groups)
        assert is_matroid_rank(f) is expected
        assert is_matroid_rank(Opaque(Laminar(weights, groups))) is expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_exhaustive(self, data):
        n = data.draw(st.integers(0, 12))
        ids = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        groups = [tuple(u for u in range(n) if ids[u] == k) for k in range(4)]
        groups = [members for members in groups if members]
        weights = [data.draw(near_tol(WEIGHTS)) for _ in range(n)]
        caps = [data.draw(near_tol(CAPS + [float(len(m)), len(m) + 0.5])) for m in groups]
        form = (weights, list(zip(groups, caps)))
        assert is_matroid_rank(Laminar(*form)) == is_matroid_rank(Opaque(Laminar(*form)))


def near_tol_ulps(bases):
    """A base value plus DEFAULT_TOL moved by a few ulps either way: a
    marginal that lands on the tolerance, where rounding decides."""
    def build(b, ulps):
        x = b + DEFAULT_TOL
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x
    return st.builds(build, st.sampled_from(bases), st.integers(-3, 3))


@st.composite
def budgets(draw):
    """Any budget family on n <= 12, with caps and weights at and near the
    places where the span decision turns: 0, integers, DEFAULT_TOL, and
    non-integral values; never a budget with an infinite value, which is
    refused."""
    n = draw(st.integers(0, 12))
    g = GroundSet(n)
    near = st.one_of(near_tol(CAPS + [0.3, 1e-9]), near_tol_ulps([0.0, 0.3, 1.0, 2.0]))
    finite = near.filter(math.isfinite)
    family = draw(st.sampled_from(["cardinality", "uniform", "partition", "weighted",
                                   "table"]))
    if family == "cardinality":
        return Cardinality(g)
    if family == "uniform":
        return UniformRank(g, draw(st.integers(0, n + 1)))
    if family == "partition":
        ids = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if ids[u] == k] for k in range(4)]
        blocks = [b for b in blocks if b]
        return PartitionBudget(g, blocks, [draw(near) for _ in blocks])
    if family == "weighted":
        weights = [draw(near) for _ in range(n)]
        return WeightedThreshold(g, weights, draw(finite if math.inf in weights else near))
    k = min(n, 6)
    return ExplicitTable(GroundSet(k), [draw(finite) for _ in range(1 << k)])


class TestSpan:
    @settings(max_examples=400, deadline=None)
    @given(f=budgets(), data=st.data())
    def test_closed_forms_match_the_marginal_loop(self, f, data):
        full = f.ground.full_mask
        for mask in data.draw(st.lists(st.integers(0, full), min_size=1, max_size=8)):
            assert f.span_mask(mask) == SubmodularFn.span_mask(f, mask)

    def test_partition_with_non_integral_caps(self):
        # per block, cap 1e-9 gives a marginal of exactly DEFAULT_TOL; in
        # the sum with the other block's 0.3 it rounds above it
        f = PartitionBudget(GroundSet(7), [[1, 3, 4], [0, 2, 5, 6]], [0.3, 1e-9])
        assert f.span_mask(0b1000) == SubmodularFn.span_mask(f, 0b1000) == 0b11010

    @pytest.mark.parametrize("n, blocks, caps", [
        (200, [[u] for u in range(200)], [1] * 200),
        (16, [range(b, 16, 4) for b in range(4)], [2] * 4),
    ], ids=["200-singletons-cap-1", "4-blocks-cap-2"])
    def test_partition_with_integral_caps(self, n, blocks, caps):
        # the cap test alone decides; the marginal loop takes every sum
        f = PartitionBudget(GroundSet(n), blocks, caps)
        rng = random.Random(11)
        masks = [0, f.ground.full_mask] + [rng.getrandbits(n) & rng.getrandbits(n)
                                           for _ in range(30)]
        for mask in masks:
            assert f.span_mask(mask) == SubmodularFn.span_mask(f, mask)

    @pytest.mark.parametrize("make", [
        lambda g: PartitionBudget(g, [range(b, 200, 10) for b in range(10)], [6] * 10),
        lambda g: UniformRank(g, 60),
    ], ids=["partition", "uniform"])
    def test_no_cache_at_large_n(self, make):
        f = make(GroundSet(200))
        before = copy.deepcopy(vars(f))
        rng = random.Random(5)
        masks = set()
        while len(masks) < 10_000:
            # AND of 1 to 4 random words: about 100 down to 12 members
            word = f.ground.full_mask
            for _ in range(rng.randint(1, 4)):
                word &= rng.getrandbits(200)
            masks.add(word)
        for mask in masks:
            span_mask(f, mask)
        assert vars(f) == before

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


def loop_chain(f, mask, elements):
    """The marginal loop chain_values replaces: one value_mask per step."""
    out = []
    for u in elements:
        mask |= 1 << u
        out.append(f.value_mask(mask))
    return out


def chain_budgets(n):
    """Every family at size n, with integral, non-integral and infinite
    partition caps; a table only where one fits."""
    g = GroundSet(n)
    blocks = [list(range(b, n, 3)) for b in range(min(n, 3))]
    fams = [Cardinality(g), UniformRank(g, n // 2), UniformRank(g, 0),
            PartitionBudget(g, blocks, [2.0] * len(blocks)),
            PartitionBudget(g, blocks, [0.3, 1.5, 0.1][:len(blocks)]),
            PartitionBudget(g, blocks, [math.inf, 1.0, 0.0][:len(blocks)]),
            WeightedThreshold(g, [0.1 + 0.3 * (u % 7) for u in range(n)], n / 4)]
    if n <= 6:
        fams.append(ExplicitTable(g, [0.1 * m.bit_count() ** 0.5 for m in range(1 << n)]))
    return fams


class TestChainValues:
    @settings(max_examples=400, deadline=None)
    @given(f=budgets(), data=st.data())
    def test_closed_forms_match_the_marginal_loop(self, f, data):
        full = f.ground.full_mask
        mask = data.draw(st.integers(0, full))
        rest = [u for u in range(f.ground.size) if not (mask >> u) & 1]
        chain = data.draw(st.permutations(rest))[:data.draw(st.integers(0, len(rest)))]
        assert f.chain_values(mask, chain) == loop_chain(f, mask, chain)

    @pytest.mark.parametrize("n", [1, 62, 63, 64, 65, 200])
    def test_at_the_mask_width_boundaries(self, n):
        rng = random.Random(n)
        for f in chain_budgets(n):
            for _ in range(20):
                mask = rng.getrandbits(n) & rng.getrandbits(n)
                rest = [u for u in range(n) if not (mask >> u) & 1]
                chain = rng.sample(rest, rng.randint(0, len(rest)))
                got = f.chain_values(mask, chain)
                assert got == loop_chain(f, mask, chain), f
                assert all(type(v) is float for v in got)

    def test_partition_counts_each_block(self):
        f = PartitionBudget(GroundSet(6), [[0, 1, 2], [3, 4, 5]], [2, 1])
        assert f.chain_values(0b000001, [3, 1, 4, 2, 5]) == [2.0, 3.0, 3.0, 3.0, 3.0]
        assert f.chain_values(0, []) == []


def loop_lovasz(f, y):
    """lovasz before it read a chain: one value_mask per suffix set."""
    order = sorted(range(f.ground.size), key=lambda u: (y[u], u))
    suffix = f.ground.full_mask
    total = prev = 0.0
    for u in order:
        total += (y[u] - prev) * f.value_mask(suffix)
        prev = y[u]
        suffix &= ~(1 << u)
    return total + (1.0 - prev) * f.value_mask(0)


class TestLovaszChain:
    # lovasz reads its suffix values from chain_values; the floats must be
    # those of the value_mask loop (compared by repr, so NaN from an
    # infinite cap times a zero slab matches NaN)

    @settings(max_examples=400, deadline=None)
    @given(f=budgets(), data=st.data())
    def test_equals_the_value_mask_loop(self, f, data):
        level = st.one_of(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 1.0]), st.floats(0.0, 1.0))
        y = data.draw(st.lists(level, min_size=f.ground.size, max_size=f.ground.size))
        assert repr(lovasz(f, y)) == repr(loop_lovasz(f, y))

    @pytest.mark.parametrize("n", [1, 6, 63, 64, 65, 200])
    def test_at_the_mask_width_boundaries(self, n):
        rng = random.Random(n)
        for f in chain_budgets(n):
            for _ in range(10):
                y = [rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in range(n)]
                assert repr(lovasz(f, y)) == repr(loop_lovasz(f, y)), f

    def test_table_with_positive_empty_value(self):
        f = ExplicitTable(GroundSet(3), [0.5, 1.0, 1.25, 1.5, 0.75, 1.5, 1.5, 2.0])
        for y in ([0.0] * 3, [0.2, 0.7, 0.2], [1.0, 0.0, 0.5]):
            assert lovasz(f, y) == loop_lovasz(f, y)
        assert lovasz(f, [0.0] * 3) == 0.5


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

    @pytest.mark.parametrize("spec, key", [({"family": "cardinality", "k": 2}, "k"),
                                           ({"family": "uniform_rank", "k": 2, "caps": [1]}, "caps")])
    def test_stray_field(self, spec, key):
        # a field the family does not take is refused, not dropped
        with pytest.raises(InputError, match=f"stray field '{key}'"):
            fn_from_spec(spec, GroundSet(2))


# Numbers at and past the end of the float range, for budget specs.
EXTREMES = [0.0, 1.0, 2.5, 1e308, math.inf, -math.inf, math.nan]


@st.composite
def extreme_specs(draw):
    """(n, spec) of a monotone budget whose numbers may be infinite, NaN or
    large enough to add up to inf; the table is modular, so it is monotone
    whenever it is nonnegative."""
    n = draw(st.integers(1, 3))
    value = st.sampled_from(EXTREMES)
    numbers = [draw(value) for _ in range(n)]
    family = draw(st.sampled_from(["weighted", "partition", "table"]))
    if family == "weighted":
        return n, {"family": "weighted_threshold", "weights": numbers, "cap": draw(value)}
    if family == "partition":
        return n, {"family": "partition_budget", "blocks": [[u] for u in range(n)],
                   "caps": numbers}
    values = [sum(w for u, w in enumerate(numbers) if mask >> u & 1) for mask in range(1 << n)]
    return n, {"family": "explicit_table", "values": values}


class TestFiniteBudgets:
    @settings(max_examples=300, deadline=None)
    @given(case=extreme_specs(), y=st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                            min_size=3, max_size=3))
    def test_finite_or_refused(self, case, y):
        n, spec = case
        try:
            f = fn_from_spec(spec, GroundSet(n))
        except InputError:
            return
        assert all(math.isfinite(f.value_mask(mask)) for mask in range(1 << n)), spec
        assert not math.isnan(lovasz(f, y[:n])), spec

    @pytest.mark.parametrize("spec", [
        {"family": "weighted_threshold", "weights": [math.inf, 1.0], "cap": math.inf},
        {"family": "weighted_threshold", "weights": [1e308, 1e308], "cap": math.inf},
        {"family": "explicit_table", "values": [0.0, 1.0, 1e308, math.inf]},
    ])
    def test_infinite_value_refused(self, spec):
        with pytest.raises(InputError, match=r"f\(ground set\) = inf"):
            fn_from_spec(spec, GroundSet(2))

    @pytest.mark.parametrize("make, subset", [
        (lambda g: WeightedThreshold(g, [math.inf, 1.0], math.inf), "ground set"),
        (lambda g: WeightedThreshold(g, [1e308, 1e308], math.inf), "ground set"),
        # not monotone, so f(ground set) = 2 is finite; lovasz at (0.5, 0.5) was NaN
        (lambda g: ExplicitTable(g, [0.0, 1.0, math.inf, 2.0]), "{1}"),
    ], ids=["inf-weight", "overflow", "non-monotone-table"])
    def test_constructors_refuse(self, make, subset):
        with pytest.raises(InputError) as exc:
            make(GroundSet(2))
        assert str(exc.value) == f"f({subset}) = inf; budget values must be finite"

    @pytest.mark.parametrize("spec, top", [
        ({"family": "weighted_threshold", "weights": [math.inf, 1.0], "cap": 2.0}, 2.0),
        ({"family": "weighted_threshold", "weights": [1.0, 1.0], "cap": math.inf}, 2.0),
        ({"family": "partition_budget", "blocks": [[0, 1]], "caps": [math.inf]}, 2.0),
    ])
    def test_infinite_caps_and_weights_kept(self, spec, top):
        f = fn_from_spec(spec, GroundSet(2))
        assert f.value_mask(0b11) == top
        assert lovasz(f, [0.0, 0.5]) == 0.5


class TestBudgetNumbers:
    """A budget's numbers are ints or floats, numpy's included: a bool or a
    string is refused by name and index, not read as the number it equals
    or spells."""

    @pytest.mark.parametrize("make, message", [
        (lambda g: PartitionBudget(g, [[0, 1]], ["1"]), "caps[0] = '1'"),
        (lambda g: PartitionBudget(g, [[0], [1]], [1, True]), "caps[1] = True"),
        (lambda g: PartitionBudget(g, [[0], [1]], "12"), "caps[0] = '1'"),
        (lambda g: WeightedThreshold(g, ["0.5", 1], 1.0), "weights[0] = '0.5'"),
        (lambda g: WeightedThreshold(g, [0.5, None], 1.0), "weights[1] = None"),
        (lambda g: WeightedThreshold(g, [0.5, 1.0], True), "cap = True"),
        (lambda g: WeightedThreshold(g, [0.5, 1.0], "1"), "cap = '1'"),
        (lambda g: WeightedThreshold(g, [0.5, 1.0], [1.0]), "cap = [1.0]"),
        (lambda g: ExplicitTable(g, ["0", True, 1.0, 2.0]), "values[0] = '0'"),
        (lambda g: ExplicitTable(g, [0.0, 1.0, True, 2.0]), "values[2] = True"),
        (lambda g: ExplicitTable(g, [0.0, 1.0, np.bool_(True), 2.0]),
         f"values[2] = {np.bool_(True)!r}"),
    ], ids=["caps-str", "caps-bool", "caps-a-string", "weights-str", "weights-none",
            "cap-bool", "cap-str", "cap-list", "values-str", "values-bool",
            "values-numpy-bool"])
    def test_non_numbers_refused(self, make, message):
        with pytest.raises(InputError) as exc:
            make(GroundSet(2))
        assert str(exc.value) == f"{message} is not a number"

    @pytest.mark.parametrize("make, message", [
        (lambda g: WeightedThreshold(g, 5, 1.0), "weights must be a list of numbers, got 5"),
        (lambda g: PartitionBudget(g, [[0, 1]], 1.0), "caps must be a list of numbers, got 1.0"),
        (lambda g: PartitionBudget(g, 5, [1.0]), "blocks must be a list of lists of ids, got 5"),
        (lambda g: PartitionBudget(g, [0, 1], [1.0, 1.0]),
         "blocks must be a list of lists of ids, got [0, 1]"),
        (lambda g: ExplicitTable(g, 3), "values must be a list of numbers, got 3"),
    ], ids=["weighted-weights", "partition-caps", "partition-blocks", "partition-block",
            "explicit-values"])
    def test_list_field_that_is_no_list_refused(self, make, message):
        # a raw TypeError ("'int' object is not iterable", "has no len()")
        with pytest.raises(InputError) as exc:
            make(GroundSet(2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("size", ["3", 3.0, True, None, -1])
    def test_ground_set_size_is_an_int(self, size):
        # "3" raised a raw TypeError, and 3.0 and True built a ground set
        with pytest.raises(InputError, match=re.escape(
                f"ground set size must be an int >= 0, got {size!r}")):
            GroundSet(size)

    def test_ground_set_size_numpy_int_taken_as_int(self):
        g = GroundSet(np.uint16(3))
        assert g == GroundSet(3) and type(g.size) is int
        assert UniformRank(g, np.int64(2)).to_spec() == UniformRank(GroundSet(3), 2).to_spec()
        assert type(UniformRank(g, np.int64(2)).k) is int

    def test_int_beyond_the_float_range_refused(self):
        with pytest.raises(InputError, match=re.escape("caps[1] is an int beyond the float")):
            PartitionBudget(GroundSet(2), [[0], [1]], [1, 10 ** 400])
        with pytest.raises(InputError, match="cap is an int beyond the float range"):
            WeightedThreshold(GroundSet(2), [1, 1], -10 ** 400)
        # the form's cap is float(k): a raw OverflowError once the form was read
        with pytest.raises(InputError, match="uniform rank k is an int beyond the float range"):
            UniformRank(GroundSet(2), 10 ** 400)

    def test_numpy_numbers_taken(self):
        g = GroundSet(2)
        f = PartitionBudget(g, [[0], [1]], np.array([1, 0]))
        assert f.caps == [1.0, 0.0] and all(type(c) is float for c in f.caps)
        f = WeightedThreshold(g, [np.float32(0.5), np.int64(1)], np.float64(1.25))
        assert (f.weights, f.cap) == ([0.5, 1.0], 1.25)
        assert type(f.cap) is float
        f = ExplicitTable(g, np.array([0, 1, 1, 2], dtype=np.int8))
        assert f.values_for_masks(all_masks(2)).tolist() == [0.0, 1.0, 1.0, 2.0]


def test_one_laminar_form_in_src():
    # LaminarBudget is the one home of the laminar form: its partition
    # check, its closed-form span and chains; each family only states its
    # form and keeps its hot value_mask
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(Path(submodular.__file__).parent.glob("*.py"))]
    assert sum(text.count("def laminar_form") for text in texts) == 2
    for message in ("blocks must be disjoint", "blocks must cover the ground set"):
        assert sum(text.count(message) for text in texts) == 1, message
    classes = [cls for cls in vars(submodular).values()
               if isinstance(cls, type) and issubclass(cls, SubmodularFn)]
    for method in ("laminar_form", "span_mask"):
        owners = {cls.__name__ for cls in classes if method in vars(cls)}
        assert owners == {"SubmodularFn", "LaminarBudget"}, method


class TestLaminarBudget:
    def test_partition_check(self):
        g = GroundSet(3)
        with pytest.raises(InputError, match="blocks must be disjoint"):
            LaminarBudget(g, [((0, 1), 1.0), ((1, 2), 1.0)])
        with pytest.raises(InputError, match="blocks must cover the ground set"):
            LaminarBudget(g, [((0, 1), 1.0)])
        f = LaminarBudget(g, [((0, 2), 1.0), ((1,), 2.0)])
        assert f.laminar_form() == ([1.0, 1.0, 1.0], [((0, 2), 1.0), ((1,), 2.0)])
        assert [f.value_mask(m) for m in range(8)] == [0, 1, 1, 2, 1, 1, 2, 2]

    def test_caps_and_weights_checked(self):
        # the base owns the form, so it checks the caps and refuses weights
        # its unit-weight value_mask would not evaluate
        g = GroundSet(2)
        f = LaminarBudget(g, [((0, 1), 1)])  # an int cap, also before Python 3.12
        assert f.laminar_form() == ([1.0, 1.0], [((0, 1), 1.0)])
        assert f.span_mask(0b01) == 0b11 and f.chain_values(0, [0, 1]) == [1.0, 1.0]
        with pytest.raises(InputError, match="caps must be nonnegative"):
            LaminarBudget(g, [((0, 1), -1.0)])
        with pytest.raises(InputError, match=re.escape("caps[0] = True is not a number")):
            LaminarBudget(g, [((0, 1), True)])
        with pytest.raises(InputError, match="weights other than 1 need a family"):
            LaminarBudget(g, [((0, 1), 1.0)], [0.5, 1.0])
        with pytest.raises(InputError, match="need 2 weights, got 3"):
            LaminarBudget(g, [((0, 1), 1.0)], [1.0, 1.0, 1.0])
        with pytest.raises(InputError, match="need 2 weights, got 1"):
            WeightedThreshold(g, [1.0], 1.0)

    def test_iterators_taken(self):
        g = GroundSet(2)
        f = WeightedThreshold(g, map(float, [0.5, 1]), 1.25)
        assert (f.weights, f.cap) == ([0.5, 1.0], 1.25)
        assert PartitionBudget(g, [[0], [1]], [1, 0]).caps == [1.0, 0.0]
        assert ExplicitTable(g, [0, 1, 1, 2]).value_mask(0b11) == 2.0

    @pytest.mark.parametrize("make", [
        lambda g: WeightedThreshold(g, [1.0] * 4, -0.0),
        lambda g: PartitionBudget(g, [[0, 1], [2, 3]], [-0.0, 1]),
    ], ids=["threshold", "partition"])
    def test_negative_zero_cap_takes_the_loop(self, make):
        # min(1.0, -0.0) is -0.0, which a closed form's int sum cannot give
        f = make(GroundSet(4))
        for mask, elements in [(0, [0, 1, 2]), (0b0001, [2, 1, 3])]:
            assert list(map(repr, f.chain_values(mask, elements))) == \
                list(map(repr, loop_chain(f, mask, elements)))
        assert f.span_mask(0b0101) == SubmodularFn.span_mask(f, 0b0101)

    def test_form_is_a_copy(self):
        f = WeightedThreshold(GroundSet(2), [0.5, 1.0], 1.25)
        weights, groups = f.laminar_form()
        weights[0] = 9.0
        groups.append(((0,), 0.0))
        assert f.laminar_form() == ([0.5, 1.0], [((0, 1), 1.25)])
        assert f.weights == [0.5, 1.0]

    @pytest.mark.parametrize("make, closed", [
        (lambda g: PartitionBudget(g, [[0, 1], [2, 3]], [math.inf, 1]), True),
        (lambda g: WeightedThreshold(g, [1.0] * 4, 3.0), True),
        (lambda g: WeightedThreshold(g, [1.0] * 4, math.inf), True),
        (lambda g: PartitionBudget(g, [[0, 1], [2, 3]], [1.5, 1]), False),
        (lambda g: WeightedThreshold(g, [1.0, 1.0, 1.0, 0.5], 3.0), False),
    ], ids=["partition-inf-cap", "unit-weights", "unit-weights-inf-cap",
            "half-cap", "half-weight"])
    def test_closed_forms_under_one_rule(self, make, closed, monkeypatch):
        # unit weights with every cap integral or infinite take the closed
        # forms, which call no value_mask; every other form takes the loops
        f = make(GroundSet(4))
        want_chain = loop_chain(f, 0b0001, [2, 1, 3])
        want_span = SubmodularFn.span_mask(f, 0b0101)
        calls = []
        inner = type(f).value_mask
        monkeypatch.setattr(type(f), "value_mask", lambda self, m: calls.append(m) or inner(self, m))
        assert f.chain_values(0b0001, [2, 1, 3]) == want_chain
        assert f.span_mask(0b0101) == want_span
        assert (not calls) == closed


def test_mask_helpers():
    g = GroundSet(4)
    assert as_mask(g, [2, 0]) == 0b0101
    assert mask_members(0b1010) == (1, 3)
    assert mask_members(0) == ()
    with pytest.raises(InputError):
        as_mask(g, 1 << 4)


class TestAsMask:
    """as_mask is where ids become a mask: a column of ints in range takes
    the fast path, anything else is checked one id at a time, and every bad
    subset is an InputError."""

    @pytest.mark.parametrize("S", [True, False, 1.5, None, np.bool_(True), object()])
    def test_not_a_subset(self, S):
        with pytest.raises(InputError, match="iterable of element ids or an int mask"):
            as_mask(GroundSet(4), S)
        with pytest.raises(InputError):
            Cardinality(GroundSet(4)).value(S)

    @pytest.mark.parametrize("S, bad", [
        ([True], "True"), ([0, False], "False"), ([1.0], "1.0"), ([None], "None"),
        (["1"], "'1'"), ([[1]], r"\[1\]"),
    ])
    def test_bad_ids_are_named(self, S, bad):
        with pytest.raises(InputError, match=f"element id must be an int, got {bad}"):
            as_mask(GroundSet(4), S)

    @pytest.mark.parametrize("S, bad", [([4], 4), ([0, -1], -1), ([np.int64(9)], 9)])
    def test_ids_out_of_range(self, S, bad):
        with pytest.raises(InputError, match=f"element {bad} outside ground set of size 4"):
            as_mask(GroundSet(4), S)

    def test_iterables_and_numpy_ids(self):
        g = GroundSet(4)
        for S in ([3, 1], (1, 3), {1, 3}, frozenset({3, 1}), range(1, 4, 2), iter([1, 3]),
                  [np.int64(1), 3], np.array([1, 3]), [3, 1, 3]):
            assert as_mask(g, S) == 0b1010
        assert as_mask(g, []) == as_mask(g, ()) == 0
        assert as_mask(g, np.uint8(5)) == as_mask(g, np.int64(5)) == 5

    @pytest.mark.parametrize("n", [62, 63, 64, 65])
    def test_mask_width_boundary(self, n):
        g = GroundSet(n)
        top = n - 1
        assert as_mask(g, [top]) == as_mask(g, 1 << top) == 1 << top
        assert as_mask(g, [np.int64(top)]) == 1 << top
        if n == 64:
            assert as_mask(g, np.uint64(1 << 63)) == 1 << 63
        assert as_mask(g, range(n)) == g.full_mask
        assert mask_members(g.full_mask) == tuple(range(n))
        assert mask_members(as_mask(g, [top, 0, 30, top])) == (0, 30, top)
        with pytest.raises(InputError, match="outside ground set"):
            as_mask(g, [n])
        with pytest.raises(InputError, match="outside ground set"):
            as_mask(g, 1 << n)
        with pytest.raises(InputError, match="outside ground set"):
            as_mask(g, -1)
