"""Correctness checks applied to the output of every timed call.

Each check returns a list of failure messages; an empty list is a pass.
The tolerances are stated here and in the README.
"""

from __future__ import annotations

import math

import numpy as np

# Power/log infinite values against the closed form computed in reference.py,
# and the DP route against the pricing route (both agree to ~1e-14 today).
CLOSED_FORM_RTOL = 1e-8
# q_price of the pricing stream and the replication's initial wealth against
# the budget: the closed-form streams are scaled to it exactly, the SLSQP
# streams meet it to the solver's constraint tolerance.
BUDGET_RTOL_CLOSED = 1e-10
BUDGET_RTOL_NUMERIC = 1e-7
# Re-evaluating a pricing stream with the preferences evaluator.
REEVALUATION_RTOL = 1e-10
# EZ and multiplicative-family DP against the pricing route at m=10
# (gaps today: 0.1% and 0.5%).
GRID_ROUTE_RTOL = 0.01
# Monte Carlo estimates against the exact chain or DP value.
MC_STANDARD_ERRORS = 4.0
# bound_chain rows: total probability and mean survivor count.
CHAIN_ATOL = 1e-9


def close(label: str, value: float, reference: float, rtol: float) -> list[str]:
    if math.isfinite(value) and abs(value - reference) <= rtol * abs(reference):
        return []
    return [f"{label}: {value!r} differs from {reference!r} by more than rtol {rtol:g}"]


def at_least(label: str, value: float, floor: float) -> list[str]:
    if math.isfinite(value) and math.isfinite(floor) and value >= floor:
        return []
    return [f"{label}: {value!r} is below {floor!r}"]


def nondecreasing(label: str, values: list[float]) -> list[str]:
    if all(math.isfinite(v) for v in values) and all(a <= b for a, b in zip(values, values[1:])):
        return []
    return [f"{label}: {values!r} is not nondecreasing"]


def nonincreasing(label: str, values: list[float]) -> list[str]:
    if all(math.isfinite(v) for v in values) and all(a >= b for a, b in zip(values, values[1:])):
        return []
    return [f"{label}: {values!r} is not nonincreasing"]


def within_standard_errors(label: str, estimate: float, se: float, exact: float) -> list[str]:
    if math.isfinite(se) and se > 0 and abs(estimate - exact) <= MC_STANDARD_ERRORS * se:
        return []
    return [f"{label}: estimate {estimate!r} (se {se!r}) is more than {MC_STANDARD_ERRORS:g} se from {exact!r}"]


def holds(label: str, flag: bool) -> list[str]:
    return [] if flag else [f"{label}: does not hold"]


def equals(label: str, value, expected) -> list[str]:
    return [] if value == expected else [f"{label}: {value!r} != {expected!r}"]


def chain_rows(label: str, count: np.ndarray, n: int, pi: np.ndarray) -> list[str]:
    """Each row of the count law sums to one and has mean ``n * pi_t``."""
    count = np.asarray(count, dtype=float)
    sums = count.sum(axis=1)
    means = count @ np.arange(count.shape[1])
    out = []
    if not np.all(np.abs(sums - 1.0) <= CHAIN_ATOL):
        out.append(f"{label}: row sums deviate from 1 by {float(np.max(np.abs(sums - 1.0))):.3g}")
    if not np.all(np.abs(means - n * np.asarray(pi)) <= CHAIN_ATOL * n):
        out.append(f"{label}: row means deviate from n*pi by {float(np.max(np.abs(means - n * pi))):.3g}")
    return out


def not_at_cap(label: str, value: float, cap: float) -> list[str]:
    if abs(value - cap) <= 1e-9 * abs(cap):
        return [f"{label}: value {value!r} sits at the value cap {cap!r}"]
    return []
