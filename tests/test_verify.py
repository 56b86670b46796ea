"""Tests for the offline oracles and auditors."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidmatch.algorithms import (
    load_trace,
    run_algorithm,
    run_mobm_pd,
    run_mobvc,
    run_obvc,
    run_random_arrival_greedy,
    save_trace,
)
from matroidmatch.constants import ALPHA, charge_potential
from matroidmatch.errors import InputError, InvariantError, SizeError, check_numbers
from matroidmatch.instances import (
    INSTANCE_SIZE_LIMIT,
    Arrival,
    ArrivalModel,
    Instance,
    gen_random,
    gen_upper_triangular,
    json_numbers,
    random_coverage_table,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    SubmodularFn,
    UniformRank,
    WeightedThreshold,
    lovasz,
)
from matroidmatch.verify import (
    _brute_force_opt,
    audit_charging,
    check_cover,
    check_matching,
    check_run,
    critical_value,
    expected_rounding_cost,
    offline_opt,
    round_cover,
    verify_random_arrival_lemmas,
)

from helpers import make_matroid_suite, make_suite

TOL = 1e-9


class Opaque(SubmodularFn):
    """Evaluates like another budget but has no laminar form, so the
    oracles fall back to enumeration."""

    family = "opaque"

    def __init__(self, inner):
        super().__init__(inner.ground)
        self.inner = inner

    def value_mask(self, mask):
        return self.inner.value_mask(mask)


def single_edge(f=None, n=1):
    g = GroundSet(n)
    return Instance("edge", n, f or Cardinality(g), [Arrival(0, (0,))])


def star(n_offline, f=None):
    g = GroundSet(n_offline)
    return Instance("star", n_offline, f or Cardinality(g),
                    [Arrival(0, tuple(range(n_offline)))])


def two_suitors():
    # both online vertices want the single offline element
    g = GroundSet(1)
    return Instance("two-suitors", 1, Cardinality(g),
                    [Arrival(0, (0,)), Arrival(1, (0,))])


class TestOfflineOpt:
    def test_single_edge(self):
        cert = offline_opt(single_edge())
        assert cert.value == 1.0
        # tie between S = {} and S = {0}; smallest bitmask wins
        assert cert.argmin_offline == frozenset()
        assert cert.cover_online == frozenset({0})

    def test_triangular_three(self):
        cert = offline_opt(gen_upper_triangular(3))
        assert cert.value == 3.0
        assert cert.argmin_offline == frozenset()
        assert cert.cover_online == frozenset({0, 1, 2})

    def test_rank_one_complete(self):
        # sharing one slot beats paying every arrival
        g = GroundSet(2)
        inst = Instance("k23", 2, UniformRank(g, 1),
                        [Arrival(j, (0, 1)) for j in range(3)])
        cert = offline_opt(inst)
        assert cert.value == 1.0
        assert cert.argmin_offline == frozenset({0, 1})
        assert cert.cover_online == frozenset()

    def test_isolated_arrival_is_never_charged(self):
        g = GroundSet(1)
        inst = Instance("lonely", 1, Cardinality(g),
                        [Arrival(0, ()), Arrival(1, (0,))])
        cert = offline_opt(inst)
        assert cert.value == 1.0
        assert 0 not in cert.cover_online

    def test_brute_force_agreement(self):
        for inst in make_suite(count=25, n_max=6, m_max=6, seed=7):
            cert = offline_opt(inst)
            best = min(
                inst.f.value_mask(m) + sum(
                    1 for a in inst.arrivals
                    if (inst.masks[a.id] & ~m) != 0)
                for m in range(1 << inst.n_offline))
            assert math.isclose(cert.value, best, abs_tol=1e-12)

    def test_size_cap(self):
        # without a laminar form the optimum is brute force, capped at n = 16
        g = GroundSet(25)
        inst = Instance("big", 25, Opaque(Cardinality(g)), [Arrival(0, (0,))])
        with pytest.raises(SizeError):
            offline_opt(inst)


class TestCheckMatching:
    def test_greedy_matching_is_feasible(self):
        inst = gen_upper_triangular(4)
        trace = run_random_arrival_greedy(inst)
        x = {}
        for rec in trace.rounds:
            if rec.matched is not None:
                x[(rec.matched, rec.v)] = 1.0
        rep = check_matching(x, inst)
        assert rep.ok
        assert rep.details["budget_mode"] == "laminar"

    def test_exhaustive_without_laminar_form(self):
        inst = gen_random(6, 6, 0.5, random_coverage_table(6, 3), seed=2)
        rep = check_matching(run_mobm_pd(inst).state.x, inst)
        assert rep.ok, rep.violations
        assert rep.details["budget_mode"] == "exhaustive"

    def test_size_cap_without_laminar_form(self):
        g = GroundSet(21)
        inst = Instance("big", 21, Opaque(Cardinality(g)), [Arrival(0, (0,))])
        with pytest.raises(SizeError):
            check_matching({(0, 0): 1.0}, inst)

    def test_large_n_pd_matching(self):
        # n = 70 is past any 64-bit mask
        inst = gen_random(70, 40, 0.3)
        rep = check_matching(run_mobm_pd(inst).state.x, inst)
        assert rep.ok, rep.violations
        assert rep.details["budget_mode"] == "laminar"

    def test_pd_fractional_matching_is_feasible(self):
        for inst in make_suite(count=12, n_max=6, m_max=6, seed=3):
            trace = run_mobm_pd(inst)
            rep = check_matching(trace.state.x, inst)
            assert rep.ok, rep.violations

    def test_negative_mass_rejected(self):
        inst = single_edge()
        rep = check_matching({(0, 0): -0.5}, inst)
        assert not rep.ok
        assert any("< 0" in v for v in rep.violations)

    def test_online_overload_rejected(self):
        inst = star(2)
        rep = check_matching({(0, 0): 0.7, (1, 0): 0.7}, inst)
        assert not rep.ok
        assert any("online mass" in v for v in rep.violations)

    def test_budget_overload_rejected(self):
        inst = two_suitors()
        rep = check_matching({(0, 0): 1.0, (0, 1): 1.0}, inst)
        assert not rep.ok
        assert any("exceeds budget" in v for v in rep.violations)

    def test_non_edge_rejected(self):
        g = GroundSet(2)
        inst = Instance("i", 2, Cardinality(g), [Arrival(0, (0,))])
        rep = check_matching({(1, 0): 0.5}, inst)
        assert not rep.ok

    def test_unknown_vertex_rejected(self):
        inst = single_edge()
        rep = check_matching({(4, 9): 0.5}, inst)
        assert not rep.ok

    @pytest.mark.parametrize("n", [62, 63, 64, 100])
    def test_numpy_int_ids_taken_as_ints(self, n):
        # shifting a mask wider than 63 bits by a numpy int raised OverflowError
        inst = gen_upper_triangular(n)
        x = {(n - 1, 3): 0.5, (0, 3): 0.25, (n - 2, n - 2): 0.5}
        want = check_matching(x, inst)
        assert want.violations == ["x[0,3]: not an edge"]
        for ints in (np.int64, np.int32, np.uint64):
            assert check_matching({(ints(u), ints(v)): val for (u, v), val in x.items()},
                                  inst) == want

    @pytest.mark.parametrize("n", [62, 63, 64, 100])
    @pytest.mark.parametrize("key", [(0.5, 0), (True, 0), (0, 0.0), (0, False), ("0", 0),
                                     (np.float64(0.0), 0), (0, np.bool_(False))])
    def test_id_that_is_not_an_int_is_no_vertex_pair(self, n, key):
        # a float raised TypeError, and a bool or an integral float was vertex 0 or 1
        rep = check_matching({key: 1.0, (0, 0): 0.5}, gen_upper_triangular(n))
        assert rep.violations == [f"x[{key[0]},{key[1]}]: no such vertex pair"]

    @pytest.mark.parametrize("key", [0, (0, 0, 0), (0,), (), "ab", None, 0.5])
    def test_key_that_is_not_a_pair_is_no_vertex_pair(self, key):
        # an int key raised TypeError and a 3-tuple ValueError when unpacked
        rep = check_matching({key: 1.0, (0, 0): 0.5}, gen_upper_triangular(2))
        assert rep.violations == [f"x[{key}]: no such vertex pair"]


def tie_heavy_budget(rng, n, kind):
    """A laminar budget with weights in {0.5, 1.0} and caps that sums of
    weights hit exactly, so many cuts tie."""
    g = GroundSet(n)
    if kind == 0:
        return Cardinality(g)
    if kind == 1:
        return UniformRank(g, rng.randint(0, n))
    if kind == 2:
        k = rng.randint(1, n)
        ids = [rng.randrange(k) for _ in range(n)]
        blocks = [b for b in ([u for u in range(n) if ids[u] == j] for j in range(k)) if b]
        return PartitionBudget(g, blocks, [rng.choice((0.0, 0.5, 1.0, 1.5, 2.0))
                                           for _ in blocks])
    weights = [rng.choice((0.5, 1.0)) for _ in range(n)]
    return WeightedThreshold(g, weights, sum(w for w in weights if rng.random() < 0.5))


def tie_heavy_instances(count, seed):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 9)
        f = tie_heavy_budget(rng, n, i % 4)
        out.append(gen_random(n, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6, 0.9)), f,
                              seed=rng.getrandbits(32)))
    return out


class TestMinCutCertificate:
    @staticmethod
    def assert_matches_brute_force(inst):
        cut, brute = offline_opt(inst), _brute_force_opt(inst)
        assert math.isclose(cut.value, brute.value, abs_tol=1e-9), inst.name
        assert cut.argmin_offline == brute.argmin_offline, inst.name
        assert cut.cover_online == brute.cover_online, inst.name

    def test_suites(self):
        insts = [inst for inst in make_suite(200) + make_matroid_suite(20)
                 if inst.f.laminar_form() is not None]
        assert len(insts) > 150
        for inst in insts:
            self.assert_matches_brute_force(inst)

    def test_tie_heavy(self):
        for inst in tie_heavy_instances(300, seed=5):
            self.assert_matches_brute_force(inst)

    def test_without_laminar_form_is_brute_force(self):
        inst = gen_random(6, 8, 0.5, random_coverage_table(6, 9), seed=4)
        assert offline_opt(inst) == _brute_force_opt(inst)

    def test_inconsistent_form_is_caught(self):
        # value_mask disagrees with the laminar form the flow is built from
        class Shifted(Cardinality):
            def value_mask(self, mask):
                return super().value_mask(mask) + 5.0

        inst = Instance("shifted", 1, Shifted(GroundSet(1)), [Arrival(0, (0,))])
        with pytest.raises(InvariantError):
            offline_opt(inst)


class TestClosedFormMatching:
    """The closed-form polytope test against the exhaustive one."""

    @staticmethod
    def both(inst, x):
        rep = check_matching(x, inst)
        ref = check_matching(x, Instance(inst.name, inst.n_offline, Opaque(inst.f),
                                         inst.arrivals))
        assert rep.details["budget_mode"] == "laminar"
        assert ref.details["budget_mode"] == "exhaustive"
        return rep, ref

    @staticmethod
    def over_budget(rep):
        return any("exceeds budget" in v for v in rep.violations)

    @staticmethod
    def room(fvals, x_u, u):
        """How far x_u can rise before some constraint x(S) <= f(S) with u in S binds."""
        n = len(x_u)
        return min(fv - sum(x_u[w] for w in range(n) if (mask >> w) & 1)
                   for mask, fv in enumerate(fvals) if (mask >> u) & 1)

    def test_agrees_with_exhaustive_near_facets(self):
        rng = random.Random(21)
        for trial in range(300):
            n = rng.randint(1, 8)
            f = tie_heavy_budget(rng, n, trial % 4)
            fvals = [f.value_mask(mask) for mask in range(1 << n)]
            inst = Instance("diag", n, f, [Arrival(u, (u,)) for u in range(n)])
            # fill a feasible point in dyadic steps, so every facet distance
            # is exact, then move one entry to within 2 tol of its facet
            x_u = [-0.125 if rng.random() < 0.1 else 0.0 for _ in range(n)]
            for u in rng.sample(range(n), n):
                x_u[u] += min(rng.randint(0, 8) / 8, self.room(fvals, x_u, u))
            u = rng.randrange(n)
            x_u[u] += self.room(fvals, x_u, u) + rng.choice((-2.0, -0.5, 0.0, 0.5, 2.0)) * TOL
            x = {(u, u): val for u, val in enumerate(x_u)}
            rep, ref = self.both(inst, x)
            assert self.over_budget(rep) == self.over_budget(ref), (f.to_spec(), x_u)
            assert rep.ok == ref.ok

    def test_agrees_with_exhaustive_on_random_points(self):
        rng = random.Random(8)
        for inst in make_suite(60, n_max=10, m_max=10, seed=2):
            if inst.f.laminar_form() is None:
                continue
            for _ in range(5):
                x = {(u, vid): rng.uniform(-0.05, 0.6) for u, vid in inst.edges()}
                rep, ref = self.both(inst, x)
                assert self.over_budget(rep) == self.over_budget(ref), inst.name
                assert rep.ok == ref.ok

    def test_excess_adds_across_groups(self):
        # each block is over by 0.6 tol: only the union of both passes tol
        g = GroundSet(2)
        inst = Instance("pair", 2, PartitionBudget(g, [[0], [1]], [1.0, 1.0]),
                        [Arrival(0, (0,)), Arrival(1, (1,))])
        for over, flagged in ((0.6, True), (0.4, False)):
            x = {(0, 0): 1.0 + over * TOL, (1, 1): 1.0 + over * TOL}
            rep, ref = self.both(inst, x)
            assert self.over_budget(rep) == self.over_budget(ref) == flagged

    def test_witness(self):
        g = GroundSet(4)
        f = PartitionBudget(g, [[0, 1], [2, 3]], [1.0, 2.0])
        inst = Instance("w", 4, f, [Arrival(u, (u,)) for u in range(4)])
        rep = check_matching({(0, 0): 0.75, (1, 1): 0.5, (2, 2): 1.0, (3, 3): 0.25}, inst)
        assert rep.violations == [
            "offline mass 1.25 exceeds budget f(S) = 1 on S = [0, 1]"]

class TestWeakDualityAndCover:
    def test_pd_traces_satisfy_weak_duality(self):
        for inst in make_suite(count=12, n_max=6, m_max=6, seed=5):
            trace = run_mobm_pd(inst)
            checks = {name: (ok, detail) for name, ok, detail in check_run(trace, inst)}
            assert checks["weak-duality"][0], checks["weak-duality"][1]

    def test_duality_violation_detected(self):
        inst = single_edge()
        trace = run_mobm_pd(inst)
        trace.primal_value = 2.0
        checks = {name: (ok, detail) for name, ok, detail in check_run(trace, inst)}
        assert checks["weak-duality"] == (False, "primal 2 vs dual 1")

    def test_cover_feasible_on_mobvc(self):
        inst = gen_upper_triangular(5)
        trace = run_mobvc(inst)
        assert check_cover(trace.state.y, trace.state.z, inst).ok

    def test_cover_gap_detected(self):
        inst = single_edge()
        rep = check_cover([0.3], {0: 0.3}, inst)
        assert not rep.ok
        assert "uncovered" in rep.violations[0]

    def test_z_key_that_is_no_online_vertex(self):
        # the stray key was ignored by check_cover and put into T by round_cover
        inst = gen_upper_triangular(2)
        rep = check_cover([1.0, 1.0], {99: -5.0, 1: 0.0}, inst)
        assert not rep.ok
        assert rep.violations == ["z[99]: no such online vertex"]
        with pytest.raises(InputError, match=re.escape("z[99]: no such online vertex")):
            round_cover(inst, [1.0, 1.0], {99: 1.0}, gamma=0.5)

    @pytest.mark.parametrize("key", [0.0, 1.0, True, False, np.float64(1.0), np.bool_(True),
                                     "1", None])
    def test_z_key_that_is_not_an_int_is_no_online_vertex(self, key):
        # an integral float or a bool was taken as the online vertex it equals
        inst = gen_upper_triangular(2)
        rep = check_cover([1.0, 0.0], {key: 1.0}, inst)
        assert rep.violations[0] == f"z[{key}]: no such online vertex"
        # the stray key covers nothing: both edges at element 1 stay uncovered
        assert rep.violations[1:] == ["edge (1, 0) uncovered: y + z = 0 < 1",
                                      "edge (1, 1) uncovered: y + z = 0 < 1"]
        with pytest.raises(InputError, match=re.escape(f"z[{key}]: no such online vertex")):
            round_cover(inst, [1.0, 0.0], {key: 1.0}, gamma=0.5)

    def test_z_keys_that_are_numpy_ints_are_taken_as_ints(self):
        inst = gen_upper_triangular(2)
        for ints in (np.int64, np.int32, np.uint64):
            z = {ints(0): 1.0, ints(1): 1.0}
            assert check_cover([1.0, 0.0], z, inst).ok
            S, T = round_cover(inst, [1.0, 0.0], z, gamma=0.5)
            assert (S, T) == ({0}, {0, 1})
            assert {type(vid) for vid in T} == {int}


# Each library entry point that checks the values of x, y or z, and the
# entry its message names when `bad` is put there.
VALUE_CALLS = [
    pytest.param(lambda inst, bad: check_cover([bad, 1.0], {0: 0.0}, inst), "y[0]",
                 id="check_cover-y"),
    pytest.param(lambda inst, bad: check_cover([1.0, 1.0], {0: bad}, inst), "z[0]",
                 id="check_cover-z"),
    pytest.param(lambda inst, bad: check_matching({(0, 0): bad, (1, 1): 0.5}, inst), "x[0,0]",
                 id="check_matching-x"),
    pytest.param(lambda inst, bad: round_cover(inst, [bad, 1.0], {0: 0.0}, gamma=0.5), "y[0]",
                 id="round_cover-y"),
    pytest.param(lambda inst, bad: round_cover(inst, [1.0, 1.0], {0: bad}, gamma=0.5), "z[0]",
                 id="round_cover-z"),
    pytest.param(lambda inst, bad: expected_rounding_cost(inst.f, [bad, 0.5], {}), "y[0]",
                 id="expected_rounding_cost-y"),
    pytest.param(lambda inst, bad: expected_rounding_cost(inst.f, [0.5, 0.5], {0: bad}), "z[0]",
                 id="expected_rounding_cost-z"),
    pytest.param(lambda inst, bad: lovasz(inst.f, [0.5, bad]), "y[1]", id="lovasz-y"),
]


class TestSavedRun:
    """check_run and audit_charging judge a saved run, and refuse what they
    cannot judge: a trace that is no run on the instance."""

    MISMATCH = "trace is for instance 'triangular-3' (n=3), got {!r} (n={})"

    @pytest.mark.parametrize("other", [gen_upper_triangular(4), single_edge(n=3)],
                             ids=["size", "name"])
    def test_mismatched_pair_refused(self, other):
        inst = gen_upper_triangular(3)
        trace = run_mobvc(inst)
        message = self.MISMATCH.format(other.name, other.n_offline)
        with pytest.raises(InputError) as exc:
            check_run(trace, other)
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            audit_charging(trace, other)
        assert str(exc.value) == message

    @pytest.mark.parametrize("alg, edit, message", [
        ("mobvc", lambda rounds: rounds.reverse(),
         "rounds[0].v = 2 is not arrival 0 of 'triangular-3'"),
        ("mobm-pd", lambda rounds: rounds.pop(),
         "the trace has 2 rounds for the 3 arrivals of 'triangular-3'"),
        ("obvc", lambda rounds: setattr(rounds[2], "X", (0,)),
         "rounds[2].X: element 0 is not a neighbor of v=2 in 'triangular-3'"),
        ("greedy-ra", lambda rounds: rounds.append(rounds[0]),
         "rounds[3].v = 0 is not an arrival without an earlier round of 'triangular-3'"),
        ("greedy-ra", lambda rounds: setattr(rounds[2], "matched", 0),
         "rounds[2].matched: element 0 is not a neighbor of v=2 in 'triangular-3'"),
    ], ids=["reordered", "missing-round", "X-off-neighbors", "repeated-round",
            "matched-off-neighbors"])
    def test_rounds_no_run_on_the_instance_makes_refused(self, alg, edit, message):
        # the name and n_offline were the whole pairing rule, so a trace run
        # on another instance of the same name and size passed audit
        inst = gen_upper_triangular(3)
        trace = run_algorithm(alg, inst)
        edit(trace.rounds)
        calls = [check_run] if alg == "greedy-ra" else [check_run, audit_charging]
        for call in calls:
            with pytest.raises(InputError) as exc:
                call(trace, inst)
            assert str(exc.value) == message

    @pytest.mark.parametrize("alg, edit, detail", [
        ("mobm-pd", lambda trace: trace.state.x.pop(min(trace.state.x)),
         "state.x[0,0] is missing from the trace"),
        ("mobvc", lambda trace: setattr(trace.rounds[0], "regions", ()),
         "rounds[0].regions has 0 entries, replayed 1"),
    ], ids=["x-entry", "region"])
    def test_first_difference_named(self, tmp_path, alg, edit, detail):
        inst = gen_upper_triangular(3)
        trace = run_algorithm(alg, inst)
        edit(trace)
        save_trace(trace, tmp_path / "t.json")
        name, ok, found = check_run(load_trace(tmp_path / "t.json"), inst)[0]
        assert (name, ok, found) == ("replay-match", False, detail)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call, entry", VALUE_CALLS)
    def test_every_value_is_finite(self, call, entry, bad):
        # every test was written value < bound, which NaN fails: a NaN cover
        # or matching passed, and round_cover returned an empty "cover"
        with pytest.raises(InputError, match=re.escape(f"{entry} = {bad}")):
            call(gen_upper_triangular(2), bad)


class TestNumberRule:
    """One number rule for every value the library checks: an int or a
    float, numpy's included; never a bool or a string."""

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", None],
                             ids=["bool", "numpy-bool", "str", "none"])
    @pytest.mark.parametrize("call, entry", VALUE_CALLS)
    def test_every_value_is_a_number(self, call, entry, bad):
        # a bool passed as the number it equals, and a string raised a raw
        # TypeError or, in lovasz, was read as the number it spells
        with pytest.raises(InputError) as exc:
            call(gen_upper_triangular(2), bad)
        assert str(exc.value) == f"{entry} = {bad!r} is not a number"

    def test_numpy_numbers_taken(self):
        inst = gen_upper_triangular(2)
        y = [np.float64(1.0), np.int64(1)]
        assert check_cover(y, {0: np.float32(0.0)}, inst).ok
        assert check_matching({(0, 0): np.float64(0.5), (1, 1): np.int8(1)}, inst).ok
        assert lovasz(inst.f, np.array([0.5, 0.25])) == lovasz(inst.f, [0.5, 0.25])
        assert round_cover(inst, np.array([1.0, 1.0]), {}, gamma=0.5) == ({0, 1}, frozenset())

    def test_int_beyond_the_float_range(self):
        inst = gen_upper_triangular(2)
        with pytest.raises(InputError, match=re.escape("z[0] is an int beyond the float range")):
            check_cover([1.0, 1.0], {0: 10 ** 400}, inst)

    def test_iterators_taken(self):
        # the values are read once: a generator used to give "need 2
        # potentials, got 0", and round_cover took len() of it
        inst = gen_upper_triangular(2)
        assert lovasz(inst.f, (v for v in [0.5, 0.25])) == lovasz(inst.f, [0.5, 0.25])
        assert check_cover(iter([1.0, 1.0]), {}, inst).ok
        assert round_cover(inst, (v for v in [1.0, 1.0]), {}, gamma=0.5) == ({0, 1}, frozenset())
        assert expected_rounding_cost(inst.f, iter([1.0, 0.0]), {}) == 1.0

    @pytest.mark.parametrize("bad", [True, "0.5", None, math.nan, -math.inf, 10 ** 400],
                             ids=["bool", "str", "none", "nan", "-inf", "huge-int"])
    def test_json_reader_shares_the_rule(self, bad):
        # a trace column is read by the same rule, with the same message
        with pytest.raises(InputError) as want:
            check_numbers("t", [0.5, bad], finite=True)
        with pytest.raises(InputError) as got:
            json_numbers([0.5, bad], "t")
        assert str(got.value) == str(want.value)
        assert json_numbers([1, 0.5], "t") == [1.0, 0.5]


class TestExpectedRoundingCost:
    def test_matches_dual_value_on_mobvc(self):
        for inst in make_suite(count=10, n_max=6, m_max=6, seed=11):
            trace = run_mobvc(inst)
            got = expected_rounding_cost(inst.f, trace.state.y, trace.state.z)
            assert math.isclose(got, trace.dual_value, abs_tol=1e-9)

    def test_potentials_of_the_wrong_length_refused(self):
        # a raw IndexError, or for a longer y a silent 1.5
        cases = [(2, [0.5]), (3, [0.5, 0.5, 0.5, 0.9])]
        for n, y in cases:
            with pytest.raises(InputError, match=f"need {n} potentials, got {len(y)}"):
                expected_rounding_cost(Cardinality(GroundSet(n)), y, {})
        with pytest.raises(InputError, match="need 2 potentials, got 1"):
            check_cover([1.0], {}, gen_upper_triangular(2))
        with pytest.raises(InputError, match="need 2 potentials, got 3"):
            check_cover([1.0, 1.0, 1.0], {}, gen_upper_triangular(2))
        # check_cover checks only the length: a potential past 1 still covers
        assert check_cover([1.5, 1.0], {}, gen_upper_triangular(2)).ok

    def test_saturates_above_one(self):
        # z past 1 cannot raise the expectation further
        f = Cardinality(GroundSet(1))
        assert math.isclose(expected_rounding_cost(f, [0.0], {0: 1.0 + ALPHA}),
                            1.0, abs_tol=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           st.lists(st.floats(0.0, 1.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_identity_with_lovasz(self, ys, zs):
        g = GroundSet(len(ys))
        f = UniformRank(g, max(1, len(ys) // 2))
        z = {i: v for i, v in enumerate(zs)}
        want = lovasz(f, ys) + sum(zs)
        assert math.isclose(expected_rounding_cost(f, ys, z), want,
                            abs_tol=1e-9)


class TestAuditCharging:
    def test_star_charge_value(self):
        inst = star(2)
        trace = run_obvc(inst)
        rep = audit_charging(trace, inst)
        assert rep.offline_opt == offline_opt(inst).value
        want = 2.0 * ((1.0 + ALPHA) * math.log(2.0) - ALPHA)
        assert math.isclose(rep.rounds[0].charge, want, abs_tol=1e-12)
        assert rep.rounds[0].required == pytest.approx(1.0 - ALPHA)
        assert rep.rounds[0].in_opt_cover  # S* = {} pushes v into the cover
        assert rep.total_charge == 0.0
        assert rep.ok

    def test_pervertex_form_matches_chart(self):
        for inst in make_suite(count=10, n_max=6, m_max=6, seed=13):
            if inst.f.to_spec()["family"] != "cardinality":
                continue
            trace = run_obvc(inst)
            for ra in audit_charging(trace, inst).rounds:
                assert ra.pervertex_lhs == pytest.approx(ra.charge, abs=1e-9)

    def test_pervertex_replay(self):
        # second raise of the same element must charge from its old level
        inst = two_suitors()
        trace = run_obvc(inst)
        rep = audit_charging(trace, inst)
        F = charge_potential
        assert rep.rounds[1].pervertex_lhs == pytest.approx(
            F(trace.rounds[1].a) - F(trace.rounds[0].a), abs=1e-12)
        assert rep.ok

    def test_suite_audits_pass(self):
        for inst in make_suite(count=40, n_max=7, m_max=7, seed=17):
            for run in (run_mobvc, run_mobm_pd):
                rep = audit_charging(run(inst), inst)
                assert rep.ok, (inst.name, run.__name__, rep.to_dict())

    def test_greedy_trace_rejected(self):
        inst = single_edge()
        trace = run_random_arrival_greedy(inst)
        with pytest.raises(InputError):
            audit_charging(trace, inst)

    def test_global_budget_binds_outside_cover(self):
        # rank-one complete 2x2: S* = {0, 1} strictly beats paying both
        # arrivals, so neither is in the cover and the first round's charge
        # of exactly alpha meets the alpha * f(S*) budget with equality
        g = GroundSet(2)
        inst = Instance("k22", 2, UniformRank(g, 1),
                        [Arrival(0, (0, 1)), Arrival(1, (0, 1))])
        trace = run_mobvc(inst)
        cert = offline_opt(inst)
        assert cert.argmin_offline == frozenset({0, 1})
        rep = audit_charging(trace, inst)
        assert not rep.rounds[0].in_opt_cover
        assert not rep.rounds[1].in_opt_cover
        assert rep.total_charge == pytest.approx(ALPHA, abs=1e-12)
        assert rep.budget == pytest.approx(ALPHA, abs=1e-12)
        assert rep.ok


class TestCriticalValue:
    def test_without_only_vertex_nothing_spans(self):
        inst = single_edge()
        assert critical_value(inst, 0, {0: 0.4}) == {0: 1.0}

    def test_two_suitors(self):
        inst = two_suitors()
        ts = {0: 0.3, 1: 0.7}
        assert critical_value(inst, 1, ts) == {0: 0.3}
        assert critical_value(inst, 0, ts) == {0: 0.7}

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            critical_value(single_edge(), 5, {0: 0.5})

    def test_missing_timestamp(self):
        with pytest.raises(InputError, match="missing"):
            critical_value(two_suitors(), 0, {0: 0.5})


class TestRandomArrivalLemmas:
    def test_single_edge_exact(self):
        rep = verify_random_arrival_lemmas(single_edge(), trials=50, seed=2)
        assert rep.ok
        assert rep.mean_value == 1.0
        assert rep.dominance_checked == 50
        assert rep.dominance_violations == 0
        e = rep.edges[0]
        assert e.mean == pytest.approx(1.0 + ALPHA, abs=1e-9)
        assert e.stderr == pytest.approx(0.0, abs=1e-9)

    def test_matroid_suite_instances_pass(self):
        for inst in make_matroid_suite(count=5, n_max=6, m_max=6, seed=4):
            rep = verify_random_arrival_lemmas(inst, trials=120, seed=9)
            assert rep.ok, (inst.name, rep.to_dict())
            assert rep.monotonicity_min_slack >= -TOL

    def test_rank_zero_edges_skipped(self):
        g = GroundSet(2)
        f = PartitionBudget(g, [[0], [1]], [0.0, 1.0])
        inst = Instance("loopy", 2, f, [Arrival(0, (0, 1))])
        rep = verify_random_arrival_lemmas(inst, trials=30, seed=1)
        assert rep.skipped_rank_zero_edges == 1
        assert len(rep.edges) == 1
        assert rep.edges[0].u == 1
        assert rep.ok

    def test_non_matroid_rejected(self):
        g = GroundSet(2)
        inst = star(2, PartitionBudget(g, [[0], [1]], [0.5, 1.0]))
        with pytest.raises(InputError):
            verify_random_arrival_lemmas(inst, trials=10)

    def test_too_few_trials(self):
        with pytest.raises(InputError):
            verify_random_arrival_lemmas(single_edge(), trials=1)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"trials": 2.5}, InputError, "trials must be an int, got 2.5"),
        ({"trials": True}, InputError, "trials must be an int, got True"),
        ({"seed": 2.5}, InputError, "seed must be an int, got 2.5"),
        ({"seed": False}, InputError, "seed must be an int, got False"),
        ({"seed": -1}, InputError, "seed must be >= 0, got -1"),
        ({"trials": INSTANCE_SIZE_LIMIT + 1}, SizeError, "exceeds the instance size limit"),
        ({"trials": 10 ** 12}, SizeError, "exceeds the instance size limit"),
    ])
    def test_bad_arguments_refused_before_any_draw(self, monkeypatch, kwargs, error, message):
        def no_draw(*args, **kw):
            raise AssertionError("drew before the argument checks")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(error, match=message):
            verify_random_arrival_lemmas(single_edge(), **kwargs)

    def test_report_serializes(self):
        rep = verify_random_arrival_lemmas(single_edge(), trials=10, seed=0)
        d = rep.to_dict()
        assert d["ok"] is True
        assert d["edges"][0]["u"] == 0
