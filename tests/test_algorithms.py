"""Tests for the online algorithms."""

import math
import random

import pytest

from matroidmatch.algorithms import (
    RunTrace,
    _modular_water_level,
    dual_split_rate,
    load_trace,
    round_cover,
    run_mobm_pd,
    run_mobvc,
    run_obvc,
    run_random_arrival_greedy,
    save_trace,
    water_level,
)
from matroidmatch.barchart import BarChart
from matroidmatch.constants import ALPHA, ONE_MINUS_INV_E, SNAP_EPS
from matroidmatch.errors import InputError, PreconditionError
from matroidmatch.instances import (
    Arrival,
    ArrivalModel,
    Instance,
    gen_random,
    gen_upper_triangular,
    random_coverage_table,
)
from matroidmatch.submodular import (
    Cardinality,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    as_mask,
    lovasz,
)
from matroidmatch.verify import round_increments

from helpers import SplitMix64, make_matroid_suite, make_suite

TOL = 1e-9


def single_edge(f=None, n=1):
    g = GroundSet(n)
    return Instance("edge", n, f or Cardinality(g), [Arrival(0, (0,))])


def star(n_offline, f=None):
    g = GroundSet(n_offline)
    return Instance("star", n_offline, f or Cardinality(g),
                    [Arrival(0, tuple(range(n_offline)))])


def greedy_increments(f, trace):
    """(dP, dD) per greedy round: 1 when it matched, and z_v plus the rise
    of the Lovasz extension over the potentials set so far."""
    y_run = [0.0] * trace.n_offline
    prev = 0.0
    out = []
    for rec in trace.rounds:
        for u in rec.X:
            y_run[u] = trace.state.y[u]
        fhat = lovasz(f, y_run)
        out.append((0.0 if rec.matched is None else 1.0,
                    trace.state.z.get(rec.v, 0.0) + (fhat - prev)))
        prev = fhat
    return out


class TestWaterLevel:
    def test_one_fresh_neighbor_fills(self):
        f = Cardinality(GroundSet(1))
        chart = BarChart.from_potentials(f, [0.0])
        assert water_level(chart, 0b1) == 1.0

    def test_two_fresh_neighbors_stop_at_alpha(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.0, 0.0])
        assert water_level(chart, 0b11) == pytest.approx(ALPHA, abs=1e-12)

    def test_rank_one_budget_is_free(self):
        f = UniformRank(GroundSet(2), 1)
        chart = BarChart.from_potentials(f, [0.0, 0.0])
        assert water_level(chart, 0b11) == 1.0

    def test_no_neighbors(self):
        f = Cardinality(GroundSet(2))
        chart = BarChart.from_potentials(f, [0.0, 0.0])
        assert water_level(chart, 0) == 1.0

    def test_non_neighbor_levels_shift_breakpoints(self):
        # u1 is not a neighbor, but its level changes where the level sets
        # change, and with a non-modular budget that moves the answer
        f = UniformRank(GroundSet(2), 1)
        y = [0.0, 0.6]
        chart = BarChart.from_potentials(f, y)
        a = water_level(chart, 0b1)
        # h(a) = 1 - a for a <= 0.6 (no rank gain below u1's level),
        # then climbs at slope 0 -> it never exceeds 1 + ALPHA
        assert a == 1.0
        h_end = 1.0 - 1.0 + (lovasz(f, [1.0, 0.6]) - lovasz(f, y))
        assert h_end <= 1 + ALPHA

    def test_modular_matches_chart_scan(self):
        import random
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            y = [round(rng.random(), 3) for _ in range(n)]
            nbrs = tuple(u for u in range(n) if rng.random() < 0.6)
            f = Cardinality(GroundSet(n))
            chart = BarChart.from_potentials(f, y)
            a1 = water_level(chart, as_mask(f.ground, nbrs))
            a2 = _modular_water_level(y, nbrs)
            assert a1 == pytest.approx(a2, abs=1e-12)


class TestObvc:
    def test_single_edge(self):
        trace = run_obvc(single_edge())
        assert trace.state.y == [1.0]
        assert trace.state.z[0] == 0.0
        assert trace.dual_value == pytest.approx(1.0, abs=TOL)

    def test_two_neighbor_star(self):
        trace = run_obvc(star(2))
        assert trace.state.y == pytest.approx([ALPHA, ALPHA], abs=1e-12)
        assert trace.state.z[0] == pytest.approx(1 - ALPHA, abs=1e-12)
        assert trace.dual_value == pytest.approx(1 + ALPHA, abs=TOL)

    def test_repeat_neighbor_second_round_free(self):
        inst = Instance("twice", 1, Cardinality(GroundSet(1)),
                        [Arrival(0, (0,)), Arrival(1, (0,))])
        trace = run_obvc(inst)
        assert trace.rounds[1].a == 1.0
        assert trace.state.z[1] == 0.0
        assert trace.rounds[1].regions == ()
        assert trace.dual_value == pytest.approx(1.0, abs=TOL)

    def test_isolated_arrival(self):
        inst = Instance("lonely", 1, Cardinality(GroundSet(1)), [Arrival(0, ())])
        trace = run_obvc(inst)
        assert trace.rounds[0].a == 1.0
        assert trace.state.z[0] == 0.0
        assert trace.dual_value == 0.0

    def test_requires_cardinality(self):
        with pytest.raises(PreconditionError):
            run_obvc(single_edge(f=UniformRank(GroundSet(1), 1)))

    def test_cover_feasible_and_budget_exhausted(self):
        for seed in range(6):
            inst = gen_random(6, 8, 0.5, seed=seed)
            trace = run_obvc(inst)
            y = trace.state.y
            for u, vid in inst.edges():
                assert y[u] + trace.state.z[vid] >= 1.0 - TOL
            for rec in trace.rounds:
                if rec.a < 1.0:
                    spent = (1 - rec.a) + sum(r.area for r in rec.regions)
                    assert spent == pytest.approx(1 + ALPHA, abs=TOL)


class TestMobvc:
    def test_matches_obvc_on_cardinality(self):
        for seed in range(8):
            inst = gen_random(7, 9, 0.45, seed=seed)
            a = run_obvc(inst)
            b = run_mobvc(inst)
            assert b.dual_value == pytest.approx(a.dual_value, abs=1e-12)
            for ya, yb in zip(a.state.y, b.state.y):
                assert yb == pytest.approx(ya, abs=1e-12)
            for vid in a.state.z:
                assert b.state.z[vid] == pytest.approx(a.state.z[vid], abs=1e-12)

    def test_rank_one_star_costs_one(self):
        trace = run_mobvc(star(2, f=UniformRank(GroundSet(2), 1)))
        assert trace.rounds[0].a == 1.0
        assert trace.state.z[0] == 0.0
        assert trace.dual_value == pytest.approx(1.0, abs=TOL)

    def test_triangular_ratio(self):
        trace = run_mobvc(gen_upper_triangular(3))
        assert trace.dual_value <= (1 + ALPHA) * 3 + 1e-6

    def test_partition_budget_cover(self):
        f = PartitionBudget(GroundSet(4), [[0, 1], [2, 3]], [1, 1])
        inst = gen_random(4, 6, 0.6, f=f, seed=2)
        trace = run_mobvc(inst)
        y = trace.state.y
        for u, vid in inst.edges():
            assert y[u] + trace.state.z[vid] >= 1.0 - TOL
        assert trace.dual_value == pytest.approx(
            lovasz(f, y) + sum(trace.state.z.values()), abs=TOL)


class TestMobmPd:
    def test_two_neighbor_star_split(self):
        trace = run_mobm_pd(star(2))
        assert trace.state.x[(0, 0)] == pytest.approx(0.5, abs=TOL)
        assert trace.state.x[(1, 0)] == pytest.approx(0.5, abs=TOL)
        dP, dD = round_increments(trace)[0]
        assert dP == pytest.approx(1.0, abs=TOL)
        assert dD == pytest.approx(1 + ALPHA, abs=TOL)

    def test_split_follows_ascending_ids(self):
        # under rank 1 the first raised element takes the whole marginal
        trace = run_mobm_pd(star(3, UniformRank(GroundSet(3), 1)))
        assert trace.state.x == {(0, 0): pytest.approx(1 / (1 + ALPHA), abs=TOL)}

    def test_single_edge_value(self):
        trace = run_mobm_pd(single_edge())
        assert trace.state.x[(0, 0)] == pytest.approx(ONE_MINUS_INV_E, abs=TOL)
        assert trace.primal_value == pytest.approx(1 / (1 + ALPHA), abs=TOL)

    def test_exact_gap_every_round(self):
        for inst in make_suite(count=30, n_max=9, m_max=9, seed=6)[:30]:
            trace = run_mobm_pd(inst)
            for dP, dD in round_increments(trace):
                assert abs(dD - (1 + ALPHA) * dP) <= 1e-9 * max(1.0, abs(dD))
            assert trace.dual_value == pytest.approx(
                (1 + ALPHA) * trace.primal_value, rel=1e-9, abs=1e-9)

    def test_online_mass_at_most_one(self):
        for seed in range(5):
            inst = gen_random(6, 7, 0.5, seed=seed)
            trace = run_mobm_pd(inst)
            per_v = {}
            for (u, vid), val in trace.state.x.items():
                assert val >= -TOL
                per_v[vid] = per_v.get(vid, 0.0) + val
            for vid, tot in per_v.items():
                assert tot <= 1.0 + TOL

    def test_increments_recorded(self):
        trace = run_mobm_pd(star(2))
        assert trace.state.x == {
            (0, 0): pytest.approx(0.5, abs=TOL), (1, 0): pytest.approx(0.5, abs=TOL)}
        assert round_increments(trace)[0][0] == sum(trace.state.x.values())


class TestRegionBases:
    """Traces carry no member lists: raise_to hands the primal split each
    region's base. That base must be the member mask of the region's bar
    before the raise (the bar a split cut it from)."""

    @staticmethod
    def raise_and_check(chart, X, xmask, a) -> int:
        before = [(iv.lo, iv.hi, iv.mask) for iv in chart.intervals]
        raised = chart.raise_to(X, xmask, a)
        for r, base in raised:
            owners = [mask for lo, hi, mask in before if lo <= r.lo and r.hi <= hi]
            assert owners == [base], (r, owners, base)
        return sum(1 for _, base in raised if base)

    def test_waterfilling_runs_on_suite(self):
        nonempty = 0
        for inst in make_suite(count=200, seed=4):
            chart = BarChart.from_potentials(inst.f, [0.0] * inst.n_offline)
            for arr in inst.arrivals:
                y = chart.levels
                a = water_level(chart, inst.masks[arr.id])
                X = [u for u in sorted(set(arr.nbrs)) if y[u] < a]
                xmask = inst.masks[arr.id] & ~chart.at_or_above(a)
                nonempty += self.raise_and_check(chart, X, xmask, a)
        assert nonempty > 100  # the check saw many bars with members

    def test_random_charts_every_family(self):
        rng = random.Random(99)
        nonempty = 0
        for trial in range(60):
            n = rng.randint(1, 9)
            g = GroundSet(n)
            cut = rng.randint(1, n)
            blocks = [b for b in (list(range(cut)), list(range(cut, n))) if b]
            families = [
                Cardinality(g), UniformRank(g, rng.randint(0, n)),
                PartitionBudget(g, blocks, [rng.choice([0.5, 1.0, 2.0]) for _ in blocks]),
                WeightedThreshold(g, [rng.random() for _ in range(n)], rng.random() * n),
                random_coverage_table(n, seed=trial),
            ]
            for f in families:
                # coarse levels give ties; 0 and 1 are levels too
                y = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]) for _ in range(n)]
                chart = BarChart.from_potentials(f, y)
                for _ in range(6):
                    y = chart.levels
                    bounds = [iv.lo for iv in chart.intervals] + [1.0]
                    a = rng.choice([rng.random(), rng.choice(bounds),
                                    rng.choice(bounds) + rng.choice([-1, 1]) * SNAP_EPS / 2])
                    a = min(max(a, 0.0), 1.0)
                    X = [u for u in range(n) if y[u] < chart.snap(a) and rng.random() < 0.7]
                    nonempty += self.raise_and_check(chart, X, sum(1 << u for u in X), a)
        assert nonempty > 100


class TestGreedy:
    def test_single_edge_latest_arrival(self):
        trace = run_random_arrival_greedy(single_edge(), timestamps={0: 1.0})
        assert trace.state.z[0] == pytest.approx(1 + ALPHA, abs=TOL)
        assert trace.state.y == [pytest.approx(0.0, abs=TOL)]
        assert trace.state.x == {(0, 0): 1.0}

    def test_single_edge_earliest_arrival(self):
        trace = run_random_arrival_greedy(single_edge(), timestamps={0: 0.0})
        # (1 + ALPHA) / e equals ALPHA, and the offline side gets the rest
        assert trace.state.z[0] == pytest.approx(ALPHA, abs=TOL)
        assert trace.state.y == [pytest.approx(1.0, abs=TOL)]

    def test_adversarial_default_stamps_rank(self):
        trace = run_random_arrival_greedy(single_edge())
        assert trace.rounds[0].t == 1.0
        assert trace.state.z[0] == pytest.approx(1 + ALPHA, abs=TOL)

    def test_pass_when_spanned(self):
        f = UniformRank(GroundSet(2), 1)
        inst = Instance("pass", 2, f, [Arrival(0, (0,)), Arrival(1, (1,))])
        trace = run_random_arrival_greedy(inst, timestamps={0: 0.2, 1: 0.8})
        assert trace.state.x == {(0, 0): 1.0}
        assert trace.rounds[1].matched is None
        assert greedy_increments(f, trace)[1] == (0.0, 0.0)
        assert 1 not in trace.state.z

    def test_gap_and_monotone_duals(self):
        for inst in make_matroid_suite(count=8, seed=2):
            trace = run_random_arrival_greedy(inst, model=ArrivalModel("timestamps", 5))
            for dP, dD in greedy_increments(inst.f, trace):
                assert abs(dD - (1 + ALPHA) * dP) <= 1e-9 * max(1.0, abs(dD))
            # each element's potential is set at most once, z exactly when matched
            seen = set()
            for rec in trace.rounds:
                for u in rec.X:
                    assert u not in seen
                    seen.add(u)

    def test_rejects_non_matroid(self):
        f = Cardinality(GroundSet(2))
        inst = gen_random(2, 2, 1.0, f=f, seed=0)
        run_random_arrival_greedy(inst)  # cardinality is a matroid rank
        from matroidmatch.submodular import WeightedThreshold
        bad = gen_random(2, 2, 1.0, f=WeightedThreshold(GroundSet(2), [1, 1], 1.5), seed=0)
        with pytest.raises(PreconditionError):
            run_random_arrival_greedy(bad)

    def test_missing_timestamp(self):
        with pytest.raises(InputError):
            run_random_arrival_greedy(star(2), timestamps={})


class TestRoundCover:
    def test_single_edge_threshold(self):
        inst = single_edge()
        S, T = round_cover(inst, [1.0], {0: 0.0}, gamma=0.5)
        assert S == {0} and T == frozenset()

    def test_inclusive_thresholds(self):
        inst = single_edge()
        S, T = round_cover(inst, [0.5], {0: 0.5}, gamma=0.5)
        assert S == {0} and T == {0}

    def test_infeasible_rejected(self):
        inst = single_edge()
        with pytest.raises(PreconditionError):
            round_cover(inst, [0.4], {0: 0.4}, gamma=0.5)

    def test_grid_always_covers(self):
        inst = gen_random(6, 8, 0.5, seed=9)
        trace = run_mobvc(inst)
        for i in range(101):
            gamma = i / 100
            S, T = round_cover(inst, trace.state.y, trace.state.z, gamma=gamma)
            for u, vid in inst.edges():
                assert u in S or vid in T

    def test_seeded_gamma_deterministic(self):
        inst = single_edge()
        one = round_cover(inst, [1.0], {0: 0.0}, seed=3)
        two = round_cover(inst, [1.0], {0: 0.0}, seed=3)
        assert one == two

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 2.5}, "seed must be an int, got 2.5"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": 3, "gamma": 0.5}, "give gamma or a seed, not both"),
    ])
    def test_seed_checked(self, kwargs, message):
        # a raw TypeError, a run at seed 1, and a seed silently dropped
        with pytest.raises(InputError, match=message):
            round_cover(single_edge(), [1.0], {0: 0.0}, **kwargs)

    @pytest.mark.parametrize("seed", [None, 0, 1, -1, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                                      2 ** 70 + 5])
    def test_seeded_gamma_is_the_reference_draw(self, seed):
        # y_0 sits on the reference class's first draw and y_1 one float
        # below it, so only the exact threshold splits them
        gamma = SplitMix64(seed or 0).random()
        inst = gen_upper_triangular(2)
        y = [gamma, math.nextafter(gamma, 0.0)]
        S, T = round_cover(inst, y, {0: 1.0, 1: 1.0}, seed=seed)
        assert S == {0} and T == {0, 1}


class TestTraceSerialization:
    def test_waterfilling_round_trip(self, tmp_path):
        trace = run_mobm_pd(gen_upper_triangular(4))
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.to_dict() == trace.to_dict()

    def test_greedy_round_trip(self, tmp_path):
        inst = make_matroid_suite(count=1, seed=3)[0]
        trace = run_random_arrival_greedy(inst, model=ArrivalModel("timestamps", 1))
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert load_trace(path).to_dict() == trace.to_dict()


def test_dual_split_rate_endpoints():
    assert dual_split_rate(1.0) == 1.0
    assert dual_split_rate(0.0) == pytest.approx(1 / math.e, abs=1e-15)
