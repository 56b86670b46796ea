"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports matroidmatch. The four closed-form budget families are
rebuilt from the instance JSON spec as one laminar form,

    f(S) = sum over groups G of min(c(S & G), cap_G),

with element weights c_u and groups that partition the ground set:

    cardinality          c_u = 1,   one group V,      cap = inf
    uniform_rank k       c_u = 1,   one group V,      cap = k
    partition_budget     c_u = 1,   the blocks,       cap = each block's cap
    weighted_threshold   c_u = w_u, one group V,      cap = cap

From that form follow a sorted-threshold Lovasz extension, a closed-form
budget-polytope membership test (x_u <= f({u}) plus one cap per group) and
the fractional matching optimum as a maximum flow on
s -> online (1) -> offline (inf) -> group (c_u) -> t (cap_G). By polymatroid
intersection that flow value equals min over S of f(S) + |{v : N(v) not in
S}|, the program's offline_opt, for these families.
"""

from __future__ import annotations

import json
import math
from collections import deque

ALPHA = 1.0 / (math.e - 1.0)
ONE_MINUS_INV_E = 1.0 - 1.0 / math.e

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Budget:
    """One closed-form budget family in laminar form; see the module docstring."""

    def __init__(self, n: int, weights: list[float], groups: list[tuple[list[int], float]]):
        self.n = n
        self.weights = weights
        self.groups = groups
        self.group_of = [0] * n
        for g, (members, _) in enumerate(groups):
            for u in members:
                self.group_of[u] = g

    @classmethod
    def from_spec(cls, spec: dict, n: int) -> "Budget":
        family = spec["family"]
        everyone = list(range(n))
        if family == "cardinality":
            return cls(n, [1.0] * n, [(everyone, math.inf)])
        if family == "uniform_rank":
            return cls(n, [1.0] * n, [(everyone, float(spec["k"]))])
        if family == "partition_budget":
            return cls(n, [1.0] * n, [(list(b), float(c))
                                      for b, c in zip(spec["blocks"], spec["caps"])])
        if family == "weighted_threshold":
            return cls(n, [float(w) for w in spec["weights"]], [(everyone, float(spec["cap"]))])
        raise ValueError(f"no reference for budget family {family!r}")

    def value(self, S) -> float:
        sums = [0.0] * len(self.groups)
        for u in set(S):
            sums[self.group_of[u]] += self.weights[u]
        return sum(min(s, cap) for s, (_, cap) in zip(sums, self.groups))

    def lovasz(self, y: list[float]) -> float:
        """Lovasz extension by sorted thresholds: with y descending, the
        value is sum_i (y_(i) - y_(i+1)) f(top i elements), y_(n+1) = 0."""
        order = sorted(range(self.n), key=lambda u: -y[u])
        sums = [0.0] * len(self.groups)
        f_top = 0.0
        total = 0.0
        for i, u in enumerate(order):
            g = self.group_of[u]
            cap = self.groups[g][1]
            before = min(sums[g], cap)
            sums[g] += self.weights[u]
            f_top += min(sums[g], cap) - before
            nxt = y[order[i + 1]] if i + 1 < self.n else 0.0
            total += (y[u] - nxt) * f_top
        return total

    def polytope_violation(self, x_u: list[float], tol: float) -> str | None:
        """First violated constraint of x(S) <= f(S) for all S, x >= 0, or None.

        For the laminar form the constraints reduce to 0 <= x_u <= f({u})
        and x(G) <= cap_G per group."""
        for u, val in enumerate(x_u):
            if val < -tol:
                return f"x_{u} = {val} < 0"
            single = min(self.weights[u], self.groups[self.group_of[u]][1])
            if val > single + tol:
                return f"x_{u} = {val} > f({{{u}}}) = {single}"
        for g, (members, cap) in enumerate(self.groups):
            load = sum(x_u[u] for u in members)
            if load > cap + tol:
                return f"x(group {g}) = {load} > cap {cap}"
        return None

    def opt(self, arrivals: list[tuple[int, tuple[int, ...]]]) -> float:
        """Fractional matching optimum, as a maximum flow."""
        m, n, k = len(arrivals), self.n, len(self.groups)
        s, t = 0, 1 + m + n + k
        net = _FlowNetwork(t + 1)
        for i, (_, nbrs) in enumerate(arrivals):
            net.add(s, 1 + i, 1.0)
            for u in nbrs:
                net.add(1 + i, 1 + m + u, math.inf)
        for u in range(n):
            net.add(1 + m + u, 1 + m + n + self.group_of[u], self.weights[u])
        for g, (_, cap) in enumerate(self.groups):
            net.add(1 + m + n + g, t, cap)
        return net.max_flow(s, t)


class _FlowNetwork:
    """Edmonds-Karp maximum flow on float capacities."""

    EPS = 1e-12

    def __init__(self, size: int):
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.head: list[int] = []
        self.cap: list[float] = []

    def add(self, a: int, b: int, cap: float):
        self.adj[a].append(len(self.head))
        self.head.append(b)
        self.cap.append(cap)
        self.adj[b].append(len(self.head))
        self.head.append(a)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            via = [-1] * len(self.adj)
            via[s] = -2
            queue = deque([s])
            while queue and via[t] == -1:
                a = queue.popleft()
                for e in self.adj[a]:
                    b = self.head[e]
                    if via[b] == -1 and self.cap[e] > self.EPS:
                        via[b] = e
                        queue.append(b)
            if via[t] == -1:
                return total
            push = math.inf
            b = t
            while b != s:
                e = via[b]
                push = min(push, self.cap[e])
                b = self.head[e ^ 1]
            b = t
            while b != s:
                e = via[b]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                b = self.head[e ^ 1]
            total += push


def read_instance(path) -> tuple[Budget, list[tuple[int, tuple[int, ...]]]]:
    """Budget and (online id, neighbours) list from an instance JSON file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    arrivals = [(int(a["id"]), tuple(a["nbrs"])) for a in data["arrivals"]]
    return Budget.from_spec(data["f"], int(data["n_offline"])), arrivals


# ---------------------------------------------------------------------------
# The documented G(n, m, p) generator, restated so that the benchmark knows
# the graphs the CLI's sweep builds from (n, m, p, seed) alone.
# ---------------------------------------------------------------------------

def _splitmix(state: int) -> tuple[int, int]:
    """One SplitMix64 step: (new state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_graph(n: int, m: int, p: float, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """Online vertex j gets its own SplitMix64 stream, seeded by one output
    of a fresh generator at (seed ^ (j + 1) * golden); edge (u, j) is present
    when the stream's u-th uniform draw, (output >> 11) * 2^-53, is below p."""
    root = seed & _MASK64
    arrivals = []
    for j in range(m):
        _, state = _splitmix((root ^ ((j + 1) * _GOLDEN)) & _MASK64)
        nbrs = []
        for u in range(n):
            state, out = _splitmix(state)
            if (out >> 11) * (2.0 ** -53) < p:
                nbrs.append(u)
        arrivals.append((j, tuple(nbrs)))
    return arrivals
