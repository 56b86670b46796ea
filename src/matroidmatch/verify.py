"""Offline oracles and lemma-level auditors.

Everything here is deliberately independent of the online code paths: the
optimum is a self-checked min cut (brute-force enumeration for budgets
without a laminar form), matching feasibility re-derives the constraints
from scratch, and the charging audit recomputes integrals from the raw
trace regions. The one exception is check_run's replay, which reruns the
algorithm because comparing a trace with its rerun is that check. A
disagreement between an auditor and a run is evidence against the run,
never the other way around.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .algorithms import (
    COVER_ALGORITHMS,
    RunTrace,
    _greedy_core,
    _greedy_duals,
    dual_split_rate,
    run_algorithm,
    run_random_arrival_greedy,
)
from .constants import (
    ALPHA,
    DEFAULT_TOL,
    ONE_MINUS_INV_E,
    ONE_PLUS_ALPHA,
    charge_integral,
    charge_potential,
)
from .errors import InputError, InvariantError, check_finite, check_int
from .instances import Instance, _vertex_id, by_timestamp, check_size, stamp_orders
from .submodular import (
    SubmodularFn,
    _check_potentials,
    all_masks,
    is_matroid_rank,
    lovasz,
    mask_members,
    span_mask,
)

# Residual capacity at or below this counts as saturated in the min cut.
FLOW_EPS = 1e-12
# Trials per block of the random-arrival lemma audit; its numpy arrays hold
# one block's rows, so they stay small whatever the number of trials.
_LEMMA_BLOCK = 32


# ---------------------------------------------------------------------------
# Offline optimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptCertificate:
    """Offline optimum min over S of f(S) + |{v : N(v) not within S}|.

    argmin_offline is the smallest minimizing bitmask as a frozenset (for a
    min cut, the inclusion-minimal minimizer, which is the same set);
    cover_online is the forced online side {v : N(v) not within
    argmin_offline}. The pair is itself a vertex cover, so the value
    upper-bounds the fractional dual optimum and (by LP duality for these
    instances) equals the fractional matching optimum.
    """

    value: float
    argmin_offline: frozenset[int]
    cover_online: frozenset[int]


def offline_opt(instance: Instance) -> OptCertificate:
    """Min cut of the budget's flow network when f has a laminar form (any
    n); brute force over all subsets of the offline side otherwise
    (all_masks: n <= 16, SizeError above)."""
    form = instance.f.laminar_form()
    if form is None:
        return _brute_force_opt(instance)
    return _min_cut_opt(instance, *form)


def _brute_force_opt(instance: Instance) -> OptCertificate:
    masks = all_masks(instance.n_offline)
    uncovered = np.zeros(len(masks), dtype=np.float64)
    for nm in instance.masks.values():
        uncovered += (masks & nm) != nm
    cost = instance.f.values_for_masks(masks) + uncovered
    best = int(np.argmin(cost))  # first index = smallest bitmask on ties
    return OptCertificate(float(cost[best]), frozenset(mask_members(best)),
                          _forced_online(instance, best))


def _forced_online(instance: Instance, smask: int) -> frozenset[int]:
    """{v : N(v) not within S}: the online side a cover with offline part S needs."""
    return frozenset(vid for vid, nm in instance.masks.items() if nm & ~smask)


def _min_cut_opt(instance: Instance, weights: list[float],
                 groups: list[tuple[tuple[int, ...], float]]) -> OptCertificate:
    """Max flow on s -(1)-> v -(inf)-> u -(c_u)-> G -(cap_G)-> t.

    A cut's source side holds S, the online vertices whose neighbourhoods
    lie within S, and the groups it pays cap_G for, so the min cut is
    min over S of f(S) + |{v : N(v) not within S}| (Edmonds' polymatroid
    intersection, laminar case). The offline vertices reachable from s in
    the final residual graph form the inclusion-minimal min cut, which
    every optimal S contains: it is the smallest optimal bitmask, the same
    tie-break as brute force. The value is recomputed from f on that set
    and must equal the flow.
    """
    m, n = instance.m_online, instance.n_offline
    first_u, first_g = 1 + m, 1 + m + n
    t = first_g + len(groups)
    net = _FlowNetwork(t + 1)
    for i, arr in enumerate(instance.arrivals):
        net.add(0, 1 + i, 1.0)
        for u in arr.nbrs:
            net.add(1 + i, first_u + u, math.inf)
    for g, (members, cap) in enumerate(groups):
        for u in members:
            net.add(first_u + u, first_g + g, weights[u])
        net.add(first_g + g, t, cap)
    flow, reachable = net.max_flow(0, t)
    smask = 0
    for u in range(n):
        if reachable[first_u + u]:
            smask |= 1 << u
    cover = _forced_online(instance, smask)
    value = instance.f.value_mask(smask) + len(cover)
    if abs(flow - value) > DEFAULT_TOL * max(1.0, value):
        raise InvariantError(f"min cut {value!r} differs from max flow {flow!r}")
    return OptCertificate(value, frozenset(mask_members(smask)), cover)


class _FlowNetwork:
    """Dinic maximum flow on float capacities (math.inf allowed)."""

    def __init__(self, size: int):
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.head: list[int] = []  # arc e runs head[e ^ 1] -> head[e]
        self.cap: list[float] = []  # residual capacity of arc e

    def add(self, a: int, b: int, cap: float):
        self.adj[a].append(len(self.head))
        self.head.append(b)
        self.cap.append(cap)
        self.adj[b].append(len(self.head))
        self.head.append(a)
        self.cap.append(0.0)

    def _levels(self, s: int) -> list[int]:
        """BFS distance from s over arcs with residual above FLOW_EPS, -1 if
        unreachable."""
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for e in self.adj[a]:
                b = self.head[e]
                if level[b] < 0 and self.cap[e] > FLOW_EPS:
                    level[b] = level[a] + 1
                    queue.append(b)
        return level

    def max_flow(self, s: int, t: int) -> tuple[float, list[bool]]:
        """Flow value and, per node, whether the final residual graph
        reaches it from s."""
        total = 0.0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total, [d >= 0 for d in level]
            nxt = [0] * len(self.adj)  # current arc per node
            while True:
                pushed = self._augment(s, t, level, nxt)
                if not pushed:
                    break
                total += pushed

    def _augment(self, s: int, t: int, level: list[int], nxt: list[int]) -> float:
        """Push along one shortest residual s-t path; 0.0 when none is left."""
        path: list[int] = []
        a = s
        while a != t:
            arcs = self.adj[a]
            while nxt[a] < len(arcs):
                e = arcs[nxt[a]]
                if self.cap[e] > FLOW_EPS and level[self.head[e]] == level[a] + 1:
                    break
                nxt[a] += 1
            else:  # dead end: retreat and skip the arc that led here
                if not path:
                    return 0.0
                a = self.head[path.pop() ^ 1]
                nxt[a] += 1
                continue
            path.append(e)
            a = self.head[e]
        push = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= push
            self.cap[e ^ 1] += push
        return push


class _Report:
    """Base of the report dataclasses: to_dict is dataclasses.asdict, its
    keys in field order and nested reports as dicts."""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Matching and duality checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport(_Report):
    ok: bool
    violations: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def check_matching(x: dict[tuple[int, int], float], instance: Instance) -> CheckReport:
    """Feasibility of a fractional matching: x >= 0, unit online mass, and
    offline mass within the budget polytope (x(S) <= f(S) for all S).

    The polytope test is exact in closed form for budgets with a laminar
    form (any n) and exhaustive for the others (all_masks: n <= 16,
    SizeError above). Ids that are numpy ints are taken as ints; a key that
    is not a pair, or an id that is not an int (bools included), is no such
    vertex pair. InputError for a non-finite x."""
    check_finite("x", x.items())
    n = instance.n_offline
    f = instance.f
    masks = instance.masks
    report = CheckReport(ok=True)
    x_u = [0.0] * n
    x_v: dict[int, float] = {}
    for key, val in x.items():
        pair = isinstance(key, tuple) and len(key) == 2
        u, vid = (_vertex_id(key[0]), instance.online_id(key[1])) if pair else (None, None)
        if u is None or vid is None or not 0 <= u < n:
            where = f"{key[0]},{key[1]}" if pair else key
            report.violations.append(f"x[{where}]: no such vertex pair")
            continue
        if not (masks[vid] >> u) & 1:
            report.violations.append(f"x[{u},{vid}]: not an edge")
        if val < -DEFAULT_TOL:
            report.violations.append(f"x[{u},{vid}] = {val} < 0")
        x_u[u] += val
        x_v[vid] = x_v.get(vid, 0.0) + val
    for vid, tot in sorted(x_v.items()):
        if tot > 1.0 + DEFAULT_TOL:
            report.violations.append(f"online mass at v={vid} is {tot} > 1")

    form = f.laminar_form()
    if form is not None:
        excess, smask = _laminar_excess(x_u, *form)
        if excess > DEFAULT_TOL:
            load = sum(x_u[u] for u in mask_members(smask))
            report.violations.append(
                f"offline mass {load:.12g} exceeds budget f(S) = {f.value_mask(smask):.12g} "
                f"on S = {sorted(mask_members(smask))}")
        report.details["budget_mode"] = "laminar"
    else:
        masks = all_masks(n)
        load = np.zeros(1, dtype=np.float64)
        for u in range(n):
            load = np.concatenate([load, load + x_u[u]])
        fvals = f.values_for_masks(masks)
        bad = np.nonzero(load > fvals + DEFAULT_TOL)[0]
        if bad.size:
            m = int(bad[0])
            report.violations.append(
                f"offline mass {load[m]:.12g} exceeds budget f(S) = {fvals[m]:.12g} "
                f"on S = {sorted(mask_members(m))}")
        report.details["budget_mode"] = "exhaustive"

    report.details["total"] = sum(x.values())
    report.ok = not report.violations
    return report


def _laminar_excess(x_u: list[float], weights: list[float],
                    groups: list[tuple[tuple[int, ...], float]]) -> tuple[float, int]:
    """max over S of x(S) - f(S) for a laminar-form f, and a maximiser.

    f splits over the groups, and within a group G the best S either stays
    below the cap (take every u with x_u > c_u: sum of (x_u - c_u)+) or
    pays the cap (take every u with x_u > 0: x+(G) - cap_G).
    """
    excess = 0.0
    smask = 0
    for members, cap in groups:
        over = [u for u in members if x_u[u] > weights[u]]
        below_cap = sum(x_u[u] - weights[u] for u in over)
        positive = [u for u in members if x_u[u] > 0.0]
        at_cap = sum(x_u[u] for u in positive) - cap
        if at_cap > below_cap:
            excess += at_cap
            chosen = positive
        else:
            excess += below_cap
            chosen = over
        for u in chosen:
            smask |= 1 << u
    return excess, smask


def round_increments(trace: RunTrace) -> list[tuple[float, float]]:
    """(dP, dD) of each round of a waterfilling trace, derived from what the
    trace stores: dD = (1 - a) plus the area of the round's new regions, and
    dP the sum of final x at the round's arrival (0 for cover runs)."""
    if trace.algorithm == "greedy-ra":
        raise InputError("round increments apply to waterfilling traces, not 'greedy-ra'")
    x_at: dict[int, float] = {}
    for (_, vid), val in trace.state.x.items():
        x_at[vid] = x_at.get(vid, 0.0) + val
    return [(x_at.get(rec.v, 0.0), (1.0 - rec.a) + sum(r.area for r in rec.regions))
            for rec in trace.rounds]


def check_cover(y, z: dict[int, float], instance: Instance) -> CheckReport:
    """Fractional cover feasibility: y_u + z_v >= 1 on every edge, and every
    key of z an online vertex (numpy ints taken as ints; any other key that
    is not an int, bools included, names none and covers no edge).
    InputError for a y of another length than n_offline or a non-finite y
    or z."""
    if len(y) != instance.n_offline:
        raise InputError(f"need {instance.n_offline} potentials, got {len(y)}")
    check_finite("y", enumerate(y))
    check_finite("z", z.items())
    report = CheckReport(ok=True)
    online: dict[int, float] = {}
    for key, val in z.items():
        vid = instance.online_id(key)
        if vid is None:
            report.violations.append(f"z[{key}]: no such online vertex")
        else:
            online[vid] = val
    for u, vid in instance.edges():
        have = y[u] + online.get(vid, 0.0)
        if have < 1.0 - DEFAULT_TOL:
            report.violations.append(
                f"edge ({u}, {vid}) uncovered: y + z = {have:.12g} < 1")
    report.ok = not report.violations
    return report


def expected_rounding_cost(f: SubmodularFn, y, z: dict[int, float]) -> float:
    """Exact expectation over the rounding threshold gamma of
    f({u : y_u >= gamma}) + |{v : z_v >= 1 - gamma}|.

    Piecewise-constant in gamma with breakpoints at the potentials and at
    1 - z_v, integrated segment by segment. Equals Lovasz(f, y) + sum z
    whenever every z_v lies in [0, 1]; for larger z the online term
    saturates at probability one. y must hold n potentials in [0, 1] and z
    finite values (InputError otherwise).
    """
    n = f.ground.size
    y = _check_potentials(f.ground, y)
    check_finite("z", z.items())
    points = {0.0, 1.0}
    points |= {v for v in y if 0.0 < v < 1.0}
    points |= {1.0 - zv for zv in z.values() if 0.0 < 1.0 - zv < 1.0}
    bounds = sorted(points)
    total = 0.0
    for g1, g2 in zip(bounds, bounds[1:]):
        smask = 0
        for u in range(n):
            if y[u] >= g2:
                smask |= 1 << u
        t_count = sum(1 for zv in z.values() if 1.0 - zv <= g1)
        total += (g2 - g1) * (f.value_mask(smask) + t_count)
    return total


# ---------------------------------------------------------------------------
# Checks of a saved run
# ---------------------------------------------------------------------------

def check_pair(trace: RunTrace, instance: Instance):
    """InputError unless trace is a run on instance: the same instance name
    and the same number of offline vertices."""
    if trace.instance_name != instance.name or trace.n_offline != instance.n_offline:
        raise InputError(
            f"trace is for instance {trace.instance_name!r} (n={trace.n_offline}), "
            f"got {instance.name!r} (n={instance.n_offline})")


def check_run(trace: RunTrace, instance: Instance) -> list[tuple[str, bool, str]]:
    """Every check of a saved run, in order, as (name, ok, detail): the
    replay (greedy-ra at the trace's own timestamps), the stored dual, then
    feasibility and the competitive bound, with the stored primal, weak
    duality and mobm-pd's per-round identity for matching runs, each at
    DEFAULT_TOL. InputError when check_pair refuses the pair.
    """
    check_pair(trace, instance)
    checks: list[tuple[str, bool, str]] = []
    alg = trace.algorithm

    if alg == "greedy-ra":
        replay = run_random_arrival_greedy(
            instance, timestamps={rec.v: rec.t for rec in trace.rounds})
    else:
        replay = run_algorithm(alg, instance)
    diff = None if trace == replay else _first_difference(trace, replay)
    checks.append(("replay-match", diff is None, diff or ""))

    y, z, x = trace.state.y, trace.state.z, trace.state.x
    dual_direct = lovasz(instance.f, y) + sum(z.values())
    checks.append(("dual-consistent", abs(dual_direct - trace.dual_value) <= DEFAULT_TOL,
                   f"lovasz + sum z = {dual_direct:.12g} vs stored {trace.dual_value:.12g}"))

    opt = offline_opt(instance).value
    if alg in COVER_ALGORITHMS:
        rep = check_cover(y, z, instance)
        checks.append(("cover-feasible", rep.ok, "; ".join(rep.violations[:3])))
        bound = (ONE_PLUS_ALPHA + 1e-6) * opt + DEFAULT_TOL
        checks.append(("competitive", trace.dual_value <= bound,
                       f"cost {trace.dual_value:.12g} vs (1+a)*opt = "
                       f"{ONE_PLUS_ALPHA * opt:.12g}"))
        return checks
    rep = check_matching(x, instance)
    checks.append(("matching-feasible", rep.ok, "; ".join(rep.violations[:3])))
    primal_direct = sum(x.values())
    checks.append(("primal-consistent", abs(primal_direct - trace.primal_value) <= DEFAULT_TOL,
                   f"sum x = {primal_direct:.12g} vs stored {trace.primal_value:.12g}"))
    checks.append(("weak-duality", trace.primal_value <= trace.dual_value + DEFAULT_TOL,
                   f"primal {trace.primal_value:.12g} vs dual {trace.dual_value:.12g}"))
    if alg == "mobm-pd":
        worst = 0.0
        for dP, dD in round_increments(trace):
            worst = max(worst, abs(dD - ONE_PLUS_ALPHA * dP) / max(1.0, abs(dD)))
        checks.append(("pd-rounds", worst <= DEFAULT_TOL,
                       f"max |dD - (1+a) dP| relative gap {worst:.3g}"))
        bound = (ONE_MINUS_INV_E - 1e-6) * opt - DEFAULT_TOL
        checks.append(("competitive", trace.primal_value >= bound,
                       f"value {trace.primal_value:.12g} vs (1-1/e)*opt = "
                       f"{ONE_MINUS_INV_E * opt:.12g}"))
    return checks


def _first_difference(stored, replayed, path: str = "") -> str | None:
    """The first field, in the trace's own order, where a stored trace and
    its replay differ (floats by more than DEFAULT_TOL, anything else at all), named
    by its path and both values; None when there is none."""
    if is_dataclass(stored):
        pairs = [(f.name, getattr(stored, f.name), getattr(replayed, f.name))
                 for f in fields(stored) if f.compare]
        path += "." if path else ""
    elif isinstance(stored, tuple) and hasattr(stored, "_fields"):  # a named tuple
        pairs = list(zip(stored._fields, stored, replayed))
        path += "." if path else ""
    elif isinstance(stored, dict):
        missing = sorted(stored.keys() ^ replayed.keys())
        if missing:
            side = "the replay" if missing[0] in stored else "the trace"
            return f"{path}[{_key_text(missing[0])}] is missing from {side}"
        pairs = [(f"[{_key_text(k)}]", stored[k], replayed[k]) for k in sorted(stored)]
    elif isinstance(stored, (list, tuple)):
        if len(stored) != len(replayed):
            return f"{path} has {len(stored)} entries, replayed {len(replayed)}"
        pairs = [(f"[{i}]", a, b) for i, (a, b) in enumerate(zip(stored, replayed))]
    elif isinstance(stored, float) or isinstance(replayed, float):  # a sum over nothing is int 0
        if abs(stored - replayed) <= DEFAULT_TOL:
            return None
        return f"{path} = {stored:.12g} != replayed {replayed:.12g}"
    else:
        return None if stored == replayed else f"{path} = {stored!r} != replayed {replayed!r}"
    for name, a, b in pairs:
        diff = _first_difference(a, b, path + name)
        if diff is not None:
            return diff
    return None


def _key_text(key) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


# ---------------------------------------------------------------------------
# Charging audit
# ---------------------------------------------------------------------------

@dataclass
class RoundAudit(_Report):
    v: int
    in_opt_cover: bool
    charge: float
    required: float
    ok: bool
    pervertex_lhs: float | None = None  # obvc per-vertex form only


@dataclass
class AuditReport(_Report):
    rounds: list[RoundAudit]
    total_charge: float
    budget: float
    global_ok: bool
    ok: bool
    offline_opt: float


def audit_charging(trace: RunTrace, instance: Instance) -> AuditReport:
    """Audit the charging argument behind the (1 + ALPHA) cover guarantee.

    Per round with online vertex outside the optimal cover, the new chart
    regions must collect charge at least 1 - a under the density
    (1 - x) / (x + ALPHA); those charges must sum to at most ALPHA * f of
    the optimal cover's offline part. The per-round inequality actually
    holds for every round (budget exhaustion does not care about the
    optimum), so it is checked everywhere but only rounds outside the
    cover feed the global sum. For plain-graph traces the per-vertex form
    sum over raised u of F(a) - F(old y_u) >= 1 - a is checked as well,
    F being the charge antiderivative.

    Each inequality is checked at DEFAULT_TOL. The optimal cover is
    offline_opt(instance), computed only after the inputs pass: InputError
    when the trace is not a run on instance (check_pair) or the trace is
    greedy-ra's.
    """
    check_pair(trace, instance)
    if trace.algorithm not in ("obvc", "mobvc", "mobm-pd"):
        raise InputError(f"charging audit applies to waterfilling traces, "
                         f"not {trace.algorithm!r}")
    cert = offline_opt(instance)
    rounds_out: list[RoundAudit] = []
    total = 0.0
    y_old = [0.0] * trace.n_offline
    ok = True
    for rec in trace.rounds:
        charge = charge_integral(rec.regions)
        required = 1.0 - rec.a
        in_cover = rec.v in cert.cover_online
        round_ok = charge >= required - DEFAULT_TOL
        pervertex = None
        if trace.algorithm == "obvc":
            pervertex = sum(charge_potential(rec.a) - charge_potential(y_old[u]) for u in rec.X)
            round_ok = round_ok and pervertex >= required - DEFAULT_TOL
        if not in_cover:
            total += charge
        ok = ok and round_ok
        rounds_out.append(RoundAudit(rec.v, in_cover, charge, required, round_ok, pervertex))
        for u in rec.X:
            y_old[u] = rec.a
    budget = ALPHA * instance.f.value(cert.argmin_offline)
    global_ok = total <= budget + DEFAULT_TOL
    return AuditReport(rounds_out, total, budget, global_ok, ok and global_ok, cert.value)


# ---------------------------------------------------------------------------
# Random-arrival lemmas
# ---------------------------------------------------------------------------

def _spanned_row(steps, row: list[float]) -> list[float]:
    """row with each element a greedy step brought into the span set to
    that step's timestamp, one lowest set bit at a time; returns row."""
    for _, t, _, newly in steps:
        while newly:
            low = newly & -newly
            row[low.bit_length() - 1] = t
            newly ^= low
    return row


def critical_value(instance: Instance, v: int, timestamps: dict[int, float]) -> dict[int, float]:
    """Per-element critical times for the greedy run without online vertex v.

    Element u maps to the timestamp of the round that brought it into the
    span of the matched set, or 1.0 if that never happens. Timestamps in
    [0, 1] are needed for every arrival except v.
    """
    others = [a for a in instance.arrivals if a.id != v]
    if len(others) == len(instance.arrivals):
        raise InputError(f"no arrival with id {v}")
    steps = _greedy_core(instance.f, instance.masks, by_timestamp(others, timestamps))
    return dict(enumerate(_spanned_row(steps, [1.0] * instance.n_offline)))


def critical_times(f: SubmodularFn, masks: dict[int, int], ordered,
                   steps) -> dict[int, list[float]]:
    """Every arrival's critical times from one greedy run: f is a matroid
    rank, masks the arrivals' neighbor masks (Instance.masks) and steps is
    _greedy_core(f, masks, ordered). Arrival v maps to the row
    of the run without v, element u's critical time at index u, as
    critical_value computes it (1.0 for an element never spanned).

    An arrival whose step picked nothing changed no state, so the run
    without it is the full run, and all such arrivals share the full run's
    row. One matched at position p leaves the run's first p steps as they
    were; the run without it resumes from their matched mask over the
    arrivals after p, until its span rejoins the full run's, after which
    every step is the full run's again.
    """
    n = f.ground.size
    full = _spanned_row(steps, [1.0] * n)
    spans = []  # the full run's span after each step
    span_now = span_mask(f, 0)
    for step in steps:
        span_now |= step[3]
        spans.append(span_now)
    out: dict[int, list[float]] = {}
    before = [1.0] * n  # the critical times of the steps before p
    m_mask = 0
    for p, step in enumerate(steps):
        vid, pick = step[0], step[2]
        if pick is None:
            out[vid] = full
            continue
        replay = _greedy_core(f, masks, ordered[p + 1:], m_mask, spans[p + 1:])
        # once rejoined, the replay spanned just what steps p.. of the full run did
        rejoined = len(replay) < len(steps) - p - 1
        out[vid] = _spanned_row(replay, list(full if rejoined else before))
        m_mask |= 1 << pick
        _spanned_row((step,), before)
    return out


@dataclass
class EdgeFeasibility(_Report):
    u: int
    v: int
    mean: float
    stderr: float
    ok: bool


@dataclass
class RandomArrivalReport(_Report):
    trials: int
    mean_value: float
    dominance_checked: int
    dominance_violations: int
    monotonicity_min_slack: float
    monotonicity_ok: bool
    edges: list[EdgeFeasibility]
    feasibility_ok: bool
    skipped_rank_zero_edges: int

    @property
    def ok(self) -> bool:
        return (self.dominance_violations == 0 and self.monotonicity_ok
                and self.feasibility_ok)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_random_arrival_lemmas(instance: Instance, trials: int = 1000,
                                 seed: int = 0) -> RandomArrivalReport:
    """Monte-Carlo check of the three structural lemmas behind the greedy
    guarantee, against independently drawn timestamp profiles.

    Per edge (u, v) with critical time t_c of the run without v (the
    trial's order with v removed, as critical_value computes it; each
    trial takes every arrival's from its one full run, see critical_times):
    dominance (t_v < t_c implies v is matched), monotonicity (the final
    potential of u in the full run is at least (1 + ALPHA)(1 - e^(t_c - 1)),
    whatever t_v is), and in-expectation dual feasibility
    (mean of y_u + z_v at least 1 - 3 standard errors).

    Edges at rank-zero elements are skipped: f({u}) = 0 means u can never
    leave the span of the empty set, no matching ever uses the edge, and
    the per-edge lemmas are vacuous for it.

    Trials run in blocks of _LEMMA_BLOCK, drawn in turn from one
    default_rng(seed) stream and ordered by stamp_orders. Each trial's
    greedy run, duals and critical rows are Python; numpy then computes
    the block's dominance counts, monotonicity slacks and y_u + z_v, with
    each distinct critical time's bound from dual_split_rate. y_u + z_v
    is written into samples, one C-order row per trial: the column means
    then round as a per-trial loop's do, where the F-order array that the
    fancy indexing returns would move some of them by an ulp. InputError
    for a trials or seed that is not an int (bools included), fewer than
    2 trials or a negative seed; SizeError when trials x max(m, live edges)
    exceeds INSTANCE_SIZE_LIMIT; all before anything is drawn.
    """
    check_int("trials", trials)
    check_int("seed", seed)
    if trials < 2:
        raise InputError("need at least 2 trials")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    f = instance.f
    if not is_matroid_rank(f):
        raise InputError("random-arrival lemmas require a matroid rank budget")
    n, m, arrivals = instance.n_offline, instance.m_online, instance.arrivals
    edges = [(u, j) for j, arr in enumerate(arrivals) for u in arr.nbrs]
    live_edges = [(u, j) for u, j in edges if f.value_mask(1 << u) >= 0.5]
    check_size("trials x max(m, live edges)", trials * max(m, len(live_edges)))
    eu = np.array([u for u, _ in live_edges], dtype=np.intp)
    ev = np.array([j for _, j in live_edges], dtype=np.intp)
    ids = [arr.id for arr in arrivals]

    rng = np.random.default_rng(seed)
    value_sum = 0.0
    dom_checked = 0
    dom_violations = 0
    mono_min_slack = math.inf
    samples = np.empty((trials, len(live_edges)), dtype=np.float64)

    for lo in range(0, trials, _LEMMA_BLOCK):
        stamps = rng.random((min(_LEMMA_BLOCK, trials - lo), m))
        ys, zs, rows, offsets = [], [], [], []
        for ordered in stamp_orders(arrivals, stamps):
            steps = _greedy_core(f, instance.masks, ordered)
            y, z = _greedy_duals(steps, n)
            value_sum += len(z)
            ys.append(y)
            zs.append([z.get(vid, 0.0) for vid in ids])
            at: dict[int, int] = {}  # id of a distinct row -> its index in rows
            crit = critical_times(f, instance.masks, ordered, steps)
            for row in map(crit.__getitem__, ids):
                if id(row) not in at:
                    at[id(row)] = len(rows)
                    rows.append(row)
                offsets.append(at[id(row)])
        if not live_edges:
            continue
        # one row per trial, one column per live edge
        tc = np.array(rows)[np.reshape(offsets, stamps.shape)[:, ev], eu]
        yu = np.array(ys)[:, eu]
        zv = np.array(zs)[:, ev]
        first = stamps[:, ev] < tc
        dom_checked += int(first.sum())
        dom_violations += int((first & (zv == 0.0)).sum())  # z_v > 0 when v is matched
        times, inverse = np.unique(tc, return_inverse=True)
        bounds = np.array([(1.0 + ALPHA) * (1.0 - dual_split_rate(t)) for t in times.tolist()])
        bound = bounds[inverse].reshape(tc.shape)  # the bound of each edge's critical time
        mono_min_slack = min(mono_min_slack, float((yu - bound).min()))
        np.add(yu, zv, out=samples[lo:lo + len(stamps)])

    edge_reports = []
    feas_ok = True
    if live_edges:
        means = samples.mean(axis=0)
        stderrs = np.sqrt(samples.var(axis=0) / trials)
        for j, (u, v) in enumerate(live_edges):
            ok = means[j] >= 1.0 - 3.0 * stderrs[j] - DEFAULT_TOL
            feas_ok = feas_ok and bool(ok)
            edge_reports.append(EdgeFeasibility(u, ids[v], float(means[j]),
                                                float(stderrs[j]), bool(ok)))

    if math.isinf(mono_min_slack):
        mono_min_slack = 0.0
    return RandomArrivalReport(
        trials=trials,
        mean_value=value_sum / trials,
        dominance_checked=dom_checked,
        dominance_violations=dom_violations,
        monotonicity_min_slack=mono_min_slack,
        monotonicity_ok=mono_min_slack >= -DEFAULT_TOL,
        edges=edge_reports,
        feasibility_ok=feas_ok,
        skipped_rank_zero_edges=len(edges) - len(live_edges),
    )
