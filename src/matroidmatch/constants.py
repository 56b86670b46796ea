"""Numeric constants used throughout the algorithms and auditors.

ALPHA is the unique positive root of (1 + a) * (1 - 1/e) = 1, i.e.
ALPHA = 1 / (e - 1). Two identities pin it down and are relied on by the
charging auditors:

    integral_0^1 (1 - t) / (t + ALPHA) dt = ALPHA
    integral_0^1       1 / (t + ALPHA) dt = 1

Both follow from (1 + ALPHA) / ALPHA = e.
"""

import math

ALPHA = 1.0 / (math.e - 1.0)
ONE_PLUS_ALPHA = 1.0 + ALPHA
ONE_MINUS_INV_E = 1.0 - 1.0 / math.e

# Default absolute tolerance for float comparisons at desk scale.
DEFAULT_TOL = 1e-9

# Boundary snapping distance for bar-chart splits and water levels.
SNAP_EPS = 1e-12


def charge_potential(x: float) -> float:
    """Antiderivative of (1 - t) / (t + ALPHA), zero at t = 0.

    charge_potential(b) - charge_potential(a) is the charge collected by a
    unit-height strip spanning [a, b].
    """
    return (1.0 + ALPHA) * math.log((x + ALPHA) / ALPHA) - x


def charge_integral(regions) -> float:
    """Integral of the density (1 - x) / (x + ALPHA) over the given regions,
    x the level: per region, its height change times charge_potential(hi) -
    charge_potential(lo), computed with one log."""
    total = 0.0
    for r in regions:
        dh = r.new_height - r.old_height
        total += dh * ((1.0 + ALPHA) * math.log((r.hi + ALPHA) / (r.lo + ALPHA))
                       - (r.hi - r.lo))
    return total
