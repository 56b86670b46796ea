"""Acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(visible under pytest -s, or in the captured-output section on failure).
Shared fixtures build the 200-instance suite once per module.
"""

import math

import numpy as np
import pytest

from matroidmatch.algorithms import (
    round_cover,
    run_mobm_pd,
    run_mobvc,
    run_obvc,
)
from matroidmatch.constants import ALPHA, ONE_MINUS_INV_E, ONE_PLUS_ALPHA, charge_potential
from matroidmatch.instances import (
    gen_upper_triangular,
    random_coverage_table,
)
from matroidmatch.submodular import (
    Cardinality,
    ExplicitTable,
    GroundSet,
    PartitionBudget,
    UniformRank,
    WeightedThreshold,
    lovasz,
    verify_axioms,
)
from matroidmatch.verify import (
    audit_charging,
    check_matching,
    expected_rounding_cost,
    offline_opt,
    round_increments,
    verify_random_arrival_lemmas,
)

from helpers import SplitMix64, lovasz_mc, make_matroid_suite, make_suite

# regression pins for the 20-vertex triangular instance; recorded once from
# this implementation, the brackets below are the actual acceptance bound
TRI20_PD_VALUE = 12.642411176571148
TRI20_VC_COST = 20.0

SUITE_SIZE = 200

# check_matching modes that test every constraint x(S) <= f(S): closed form
# for laminar budgets, enumeration of all subsets otherwise
EXACT_BUDGET_MODES = ("laminar", "exhaustive")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} acceptance {num}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return make_suite(count=SUITE_SIZE, n_max=12, m_max=12, seed=0)


@pytest.fixture(scope="module")
def certs(suite):
    return {inst.name: offline_opt(inst) for inst in suite}


@pytest.fixture(scope="module")
def mobvc_traces(suite):
    return [(inst, run_mobvc(inst)) for inst in suite]


@pytest.fixture(scope="module")
def obvc_traces(suite):
    return [(inst, run_obvc(inst)) for inst in suite
            if inst.f.family == "cardinality"]


@pytest.fixture(scope="module")
def mobm_traces(suite):
    return [(inst, run_mobm_pd(inst)) for inst in suite]


def family_zoo(n=8):
    g = GroundSet(n)
    half = n // 2
    return [
        Cardinality(g),
        UniformRank(g, 3),
        PartitionBudget(g, [list(range(half)), list(range(half, n))], [2.0, 1.5]),
        WeightedThreshold(g, [0.5 + 0.25 * u for u in range(n)], 2.75),
        random_coverage_table(n, seed=14),
    ]


def test_criterion_1_constants():
    gap_def = abs(ONE_PLUS_ALPHA * (1.0 - 1.0 / math.e) - 1.0)
    # integral of (1 - t) / (t + a) over [0, 1], by antiderivative
    gap_i1 = abs((charge_potential(1.0) - charge_potential(0.0)) - ALPHA)
    # integral of 1 / (t + a) over [0, 1]
    gap_i2 = abs(math.log((1.0 + ALPHA) / ALPHA) - 1.0)
    ok = max(gap_def, gap_i1, gap_i2) <= 1e-12
    _report(1, ok, f"alpha identities within 1e-12 "
                   f"(defining {gap_def:.2e}, charge {gap_i1:.2e}, log {gap_i2:.2e})")


def test_criterion_2_lovasz_extension(suite):
    worst = 0.0
    fns = family_zoo()
    fns += [inst.f for inst in suite if inst.n_offline <= 10][:25]
    for f in fns:
        n = f.ground.size
        masks = np.arange(1 << n, dtype=np.int64)
        vals = f.values_for_masks(masks)
        for m in range(1 << n):
            y = [1.0 if m >> u & 1 else 0.0 for u in range(n)]
            worst = max(worst, abs(lovasz(f, y) - float(vals[m])))
    indicators_ok = worst <= 1e-12

    # unit-scale budgets: value ranges <= 2 keep the flat 0.01 tolerance at
    # four-plus standard errors for 10^5 samples, so the check is sound
    # rather than seed-lucky
    g6 = GroundSet(6)
    cov = random_coverage_table(6, seed=14)
    cov_vals = cov.to_spec()["values"]
    scale = 2.0 / max(cov_vals)
    zoo = [
        Cardinality(GroundSet(2)),
        UniformRank(g6, 2),
        PartitionBudget(g6, [[0, 1, 2], [3, 4, 5]], [1.0, 1.0]),
        WeightedThreshold(g6, [0.25 + 0.05 * u for u in range(6)], 1.5),
        ExplicitTable(g6, [v * scale for v in cov_vals]),
    ]
    stream = SplitMix64(2024)
    mc_worst = 0.0
    for k in range(50):
        f = zoo[k % len(zoo)]
        y = [stream.random() for _ in range(f.ground.size)]
        exact = lovasz(f, y)
        mc_worst = max(mc_worst, abs(lovasz_mc(f, y, samples=10 ** 5, seed=k) - exact))
    mc_ok = mc_worst <= 0.01

    _report(2, indicators_ok and mc_ok,
            f"lovasz equals evaluate on {len(fns)} budgets' indicators "
            f"(max gap {worst:.2e}); Monte Carlo within 0.01 on 50 draws "
            f"(max gap {mc_worst:.4f})")


def test_criterion_3_vc_competitiveness(suite, certs, mobvc_traces, obvc_traces):
    bad = []
    worst_ratio = 0.0
    tables_checked = 0
    for inst, trace in mobvc_traces:
        if inst.f.family == "explicit_table":
            if not verify_axioms(inst.f).ok:
                bad.append(f"{inst.name}: table fails the axioms")
            tables_checked += 1
        opt = certs[inst.name].value
        if trace.dual_value > (ONE_PLUS_ALPHA + 1e-6) * opt:
            bad.append(f"{inst.name}: mobvc cost {trace.dual_value} vs opt {opt}")
        elif opt > 0:
            worst_ratio = max(worst_ratio, trace.dual_value / opt)
    vc_by_name = {inst.name: tr for inst, tr in mobvc_traces}
    agree_gap = 0.0
    for inst, trace in obvc_traces:
        opt = certs[inst.name].value
        if trace.dual_value > (ONE_PLUS_ALPHA + 1e-6) * opt:
            bad.append(f"{inst.name}: obvc cost {trace.dual_value} vs opt {opt}")
        twin = vc_by_name[inst.name]
        gap = abs(trace.dual_value - twin.dual_value)
        gap = max(gap, max(abs(a - b) for a, b in zip(trace.state.y, twin.state.y)))
        agree_gap = max(agree_gap, gap)
        if gap > 1e-12:
            bad.append(f"{inst.name}: obvc and mobvc disagree by {gap}")
    _report(3, not bad,
            f"{len(mobvc_traces)} instances ({tables_checked} explicit tables), "
            f"cost ratio <= 1+a+1e-6 (worst {worst_ratio:.6f}); "
            f"{len(obvc_traces)} cardinality twins agree to 1e-12 "
            f"(max gap {agree_gap:.2e})"
            + ("" if not bad else f"; first: {bad[0]}"))


def test_criterion_4_matching_competitiveness(suite, certs, mobm_traces):
    bad = []
    worst_ratio = math.inf
    worst_round = 0.0
    for inst, trace in mobm_traces:
        opt = certs[inst.name].value
        if trace.primal_value < (ONE_MINUS_INV_E - 1e-6) * opt:
            bad.append(f"{inst.name}: value {trace.primal_value} vs opt {opt}")
        elif opt > 0:
            worst_ratio = min(worst_ratio, trace.primal_value / opt)
        for rec, (dP, dD) in zip(trace.rounds, round_increments(trace)):
            gap = abs(dD - ONE_PLUS_ALPHA * dP)
            worst_round = max(worst_round, gap)
            if gap > 1e-9:
                bad.append(f"{inst.name}: round v={rec.v} dual/primal gap {gap}")
                break
        rep = check_matching(trace.state.x, inst)
        if not rep.ok:
            bad.append(f"{inst.name}: {rep.violations[0]}")
        elif rep.details["budget_mode"] not in EXACT_BUDGET_MODES:
            bad.append(f"{inst.name}: budget check was not exact "
                       f"({rep.details['budget_mode']})")
    _report(4, not bad,
            f"{len(mobm_traces)} instances, value ratio >= 1-1/e-1e-6 "
            f"(worst {worst_ratio:.6f}), round gap <= 1e-9 (worst {worst_round:.2e}), "
            f"exact matching polytope checks"
            + ("" if not bad else f"; first: {bad[0]}"))


def test_criterion_5_triangular_tightness():
    inst = gen_upper_triangular(20)
    pd = run_mobm_pd(inst)
    vc = run_mobvc(inst)
    pins_ok = (abs(pd.primal_value - TRI20_PD_VALUE) <= 1e-9
               and abs(vc.dual_value - TRI20_VC_COST) <= 1e-9)
    pd_frac = pd.primal_value / 20.0
    vc_frac = vc.dual_value / 20.0
    brackets_ok = (ONE_MINUS_INV_E - 0.01 <= pd_frac <= ONE_MINUS_INV_E + 0.06
                   and 1.0 <= vc_frac <= ONE_PLUS_ALPHA + 1e-6)
    _report(5, pins_ok and brackets_ok,
            f"triangular-20: matching {pd_frac:.6f} per vertex "
            f"(1-1/e = {ONE_MINUS_INV_E:.6f}), cover {vc_frac:.6f} per vertex; "
            f"both pinned to recorded values")


def test_criterion_6_charging_audit(mobvc_traces, obvc_traces, mobm_traces):
    bad = []
    audited = 0
    for group in (obvc_traces, mobvc_traces, mobm_traces):
        for inst, trace in group:
            rep = audit_charging(trace, inst)
            audited += 1
            if not rep.ok:
                which = "global budget" if not rep.global_ok else "a round bound"
                bad.append(f"{inst.name} ({trace.algorithm}): {which} failed")
                break
    _report(6, not bad,
            f"charging audit on {audited} waterfilling traces: per-round "
            f">= 1-a-1e-9 and total within alpha * f of the optimal cover"
            + ("" if not bad else f"; first: {bad[0]}"))


def test_criterion_7_random_arrival():
    insts = make_matroid_suite(count=20, n_max=8, m_max=8, seed=1)
    bad = []
    worst_margin = math.inf
    for i, inst in enumerate(insts):
        opt = offline_opt(inst).value
        rep = verify_random_arrival_lemmas(inst, trials=1000, seed=100 + i)
        if rep.dominance_violations:
            bad.append(f"{inst.name}: {rep.dominance_violations} dominance violations")
        if not rep.monotonicity_ok:
            bad.append(f"{inst.name}: monotonicity slack {rep.monotonicity_min_slack}")
        if not rep.feasibility_ok:
            bad.append(f"{inst.name}: per-edge dual feasibility failed")
        margin = rep.mean_value - (ONE_MINUS_INV_E - 0.02) * opt
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            bad.append(f"{inst.name}: mean value {rep.mean_value} vs opt {opt}")
    _report(7, not bad,
            f"{len(insts)} matroid instances x 1000 draws: zero dominance "
            f"violations, monotone potentials, per-edge E[y+z] >= 1 - 3 SE, "
            f"mean value within 0.02 of 1-1/e (worst margin {worst_margin:.4f})"
            + ("" if not bad else f"; first: {bad[0]}"))


def test_criterion_8_rounding(suite, mobvc_traces, obvc_traces):
    gammas = [i / 100.0 for i in range(101)]
    bad = []
    worst_gap = 0.0
    for inst, trace in mobvc_traces + obvc_traces:
        y, z = trace.state.y, trace.state.z
        for gamma in gammas:
            S, T = round_cover(inst, y, z, gamma=gamma)
            for u, vid in inst.edges():
                if u not in S and vid not in T:
                    bad.append(f"{inst.name}: gamma={gamma} leaves edge "
                               f"({u}, {vid}) uncovered")
                    break
            if bad:
                break
        gap = abs(expected_rounding_cost(inst.f, y, z) - trace.dual_value)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            bad.append(f"{inst.name}: expected rounded cost off by {gap}")
        if bad:
            break
    _report(8, not bad,
            f"{len(mobvc_traces) + len(obvc_traces)} cover traces round to "
            f"valid integral covers at 101 thresholds; expected cost matches "
            f"the fractional cost (worst gap {worst_gap:.2e})"
            + ("" if not bad else f"; first: {bad[0]}"))
