"""Spans around the public functions of each layer, for traced runs only.

install() replaces each traced function under every name the program looks
it up by (module globals such as matroidmatch.cli.offline_opt as well as
matroidmatch.verify.offline_opt, and each budget class's methods). A wrapper
returns exactly what it wraps and raises what it raises.

A span records name, start, end and parent. value_mask and span_mask are
called hundreds of thousands of times, so they are aggregated per parent
span (calls and seconds) instead of being stored one by one. A span's self
time is its duration minus the time of its child spans and aggregated
calls. Spans stay in memory; the runner reduces them per phase and writes
them out at the end.
"""

from __future__ import annotations

import functools
import sys
import time

# Traced as full spans, named "<defining module>.<function>".
FUNCTIONS = [
    "submodular.is_matroid_rank",
    "submodular.lovasz",
    "algorithms.water_level",
    "algorithms.run_obvc",
    "algorithms.run_mobvc",
    "algorithms.run_mobm_pd",
    "algorithms.run_random_arrival_greedy",
    "algorithms.save_trace",
    "algorithms.load_trace",
    "verify.offline_opt",
    "verify.check_matching",
    "verify.check_cover",
    "verify.audit_charging",
    "verify.critical_value",
    "verify.verify_random_arrival_lemmas",
    "instances.gen_random",
    "instances.save",
    "instances.load",
]
BUDGET_CLASSES = ["Cardinality", "UniformRank", "PartitionBudget", "WeightedThreshold",
                  "ExplicitTable"]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "leaves")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = 0.0
        self.child = 0.0
        self.leaves: dict[str, list] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Span stack plus the per-phase counters the runner reports."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {"barchart.regions": 0, "barchart.bars": 0}
        self.distinct: dict[str, set] = {"submodular.span_mask": set(),
                                         "verify.offline_opt": set()}
        self._alive: dict[int, object] = {}  # keeps id() keys unique within a phase

    def reset_counters(self):
        for name in self.counts:
            self.counts[name] = 0
        for keys in self.distinct.values():
            keys.clear()
        self._alive.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self):
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        if self._stack:
            self.spans[self._stack[-1]].child += span.end - span.start

    def span(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def leaf(self, name: str, fn, key=None):
        stack, spans, distinct = self._stack, self.spans, self.distinct

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                parent = spans[stack[-1]]
                parent.child += dt
                agg = parent.leaves.get(name)
                if agg is None:
                    parent.leaves[name] = agg = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
                if key is not None:
                    distinct[name].add(key(args))
        return wrapper

    def _remember(self, obj) -> int:
        self._alive[id(obj)] = obj
        return id(obj)

    def reduce(self, first: int) -> dict[str, list]:
        """name -> [calls, self seconds, inclusive seconds] over spans[first:],
        aggregated leaves included (their self and inclusive time agree)."""
        out: dict[str, list] = {}
        for span in self.spans[first:]:
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.self_s
            row[2] += span.end - span.start
            for name, (calls, seconds) in span.leaves.items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += seconds
                row[2] += seconds
        return out


def _replace_everywhere(original, replacement):
    for modname, module in list(sys.modules.items()):
        if modname == "matroidmatch" or modname.startswith("matroidmatch."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _instance_key(inst) -> tuple:
    return (inst.n_offline, repr(inst.f.to_spec()), tuple(a.nbrs for a in inst.arrivals))


def install(tracer: Tracer):
    """Wrap every traced function of the imported matroidmatch package."""
    import matroidmatch
    from matroidmatch import barchart, cli, submodular

    def count_regions(args, regions):
        tracer.counts["barchart.regions"] += len(regions)

    def count_bars(args, trace):
        tracer.counts["barchart.bars"] += len(trace.state.chart.intervals)

    def distinct_instance(args, cert):
        tracer.distinct["verify.offline_opt"].add(_instance_key(args[0]))

    posts = {"algorithms.run_obvc": count_bars, "algorithms.run_mobvc": count_bars,
             "algorithms.run_mobm_pd": count_bars, "verify.offline_opt": distinct_instance}
    for name in FUNCTIONS:
        modname, attr = name.split(".")
        original = getattr(getattr(matroidmatch, modname), attr)
        _replace_everywhere(original, tracer.span(name, original, posts.get(name)))

    _replace_everywhere(submodular.span_mask, tracer.leaf(
        "submodular.span_mask", submodular.span_mask,
        key=lambda args: (tracer._remember(args[0]), args[1])))
    for clsname in BUDGET_CLASSES:
        cls = getattr(submodular, clsname)
        cls.value_mask = tracer.leaf("submodular.value_mask", cls.value_mask)
        cls.values_for_masks = tracer.span("submodular.values_for_masks",
                                           cls.values_for_masks)
    barchart.BarChart.raise_to = tracer.span("barchart.raise_to",
                                             barchart.BarChart.raise_to, count_regions)

    main = cli.main

    @functools.wraps(main)
    def traced_main(argv=None):
        tracer.open(f"cli.{argv[0] if argv else 'main'}")
        try:
            return main(argv)
        finally:
            tracer.close()
    cli.main = traced_main
