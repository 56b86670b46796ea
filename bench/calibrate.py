"""How fast the machine runs each kind of work right now, from fixed loops.

On a shared host the speed of one vCPU drifts by tens of percent over
seconds to minutes, and a slow spell can last a whole run. The benchmark
times a program call between two calibration runs and keeps the call's
time divided by their mean slowdown: the ratio of a loop's time now to its
nominal time. That scaled time moves with the program and hardly with the
machine; its unit is seconds on a machine where the loop takes its nominal
time (about its typical time on the 2-vCPU machine of README.md).

Interpreter-bound and memory-bound work slow down differently, so there
are two loops, and each workload uses the one that matches where its
program time goes:

- python_slowdown: float arithmetic, dict updates, sorting, integer bit
  operations and the pure-Python JSON encoder that json.dump uses with
  indent, on small data;
- numpy_slowdown: the whole-array mask tests of verify.offline_opt,
  restated, over 2^20 int64 masks (8 MB, beyond the caches).
"""

import functools
import json
import random
import time

import numpy as np

PYTHON_NOMINAL_S = 0.008
NUMPY_NOMINAL_S = 0.02

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _python_loop() -> int:
    rng = random.Random(7)
    xs = [rng.random() for _ in range(4000)]
    sums: dict[int, float] = {}
    for i, x in enumerate(xs):
        sums[i % 97] = sums.get(i % 97, 0.0) + x * x
    ys = sorted(xs)
    h = 0
    for i in range(20000):
        h = (h * 31 + i) & 0xFFFFFFFF
    return len("".join(_ENCODER.iterencode({"a": ys[:1500], "d": sums}))) + h


@functools.cache
def _masks() -> np.ndarray:
    return np.arange(1 << 20, dtype=np.int64)


def _numpy_loop() -> float:
    masks = _masks()
    uncovered = np.zeros(masks.size)
    for nm in (3, 5, 9, 17):
        uncovered += (masks & nm) != nm
    return float(uncovered[-1])


def python_slowdown() -> float:
    t0 = time.perf_counter()
    _python_loop()
    return (time.perf_counter() - t0) / PYTHON_NOMINAL_S


def numpy_slowdown() -> float:
    t0 = time.perf_counter()
    _numpy_loop()
    return (time.perf_counter() - t0) / NUMPY_NOMINAL_S
