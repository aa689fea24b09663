"""Gains by explicit scenario enumeration, and the equal split.

A scenario is one consumption-rate row with one death time; consumption
at the death time is still received.  These references evaluate outcomes
directly, independently of the library's law-based evaluators.
"""

import numpy as np


def _alive_mask(points: np.ndarray, death: np.ndarray) -> np.ndarray:
    return points[None, :] <= death[:, None] + 1e-12


def vnm_utility(gain, consumption, death, weights, grid_points, dt) -> float:
    """Weighted average over scenarios of the discounted utility integral.

    Returns -inf if any positive-weight scenario consumes a negative
    amount while alive, or hits a utility singularity at zero.
    """
    consumption = np.atleast_2d(np.asarray(consumption, dtype=float))
    death = np.asarray(death, dtype=float)
    weights = np.asarray(weights, dtype=float)
    alive = _alive_mask(grid_points, death)
    live_consumption = consumption[alive]
    if np.any(live_consumption < 0):
        bad = np.any((consumption < 0) & alive, axis=1)
        if np.any(weights[bad] > 0):
            return -np.inf
    disc = np.exp(-gain.discount * grid_points)
    values = gain.utility(np.where(alive, consumption, 1.0))
    per_scenario = np.sum(np.where(alive, disc[None, :] * values, 0.0), axis=1) * dt
    if np.any(np.isneginf(per_scenario) & (weights > 0)):
        return -np.inf
    return float(per_scenario @ weights)


def exp_km_utility(gain, consumption, death, weights, grid_points, dt) -> float:
    """Weighted average of -exp(-integral of u up to death)."""
    consumption = np.atleast_2d(np.asarray(consumption, dtype=float))
    death = np.asarray(death, dtype=float)
    weights = np.asarray(weights, dtype=float)
    alive = _alive_mask(grid_points, death)
    if np.any((consumption < 0) & alive):
        bad = np.any((consumption < 0) & alive, axis=1)
        if np.any(weights[bad] > 0):
            return -np.inf
    values = gain.utility(np.where(alive, consumption, 1.0))
    integrals = np.sum(np.where(alive, values, 0.0), axis=1) * dt
    per_scenario = -np.exp(-integrals)
    return float(per_scenario @ weights)


def equal_split(consumptions: np.ndarray, death_times: np.ndarray, grid) -> np.ndarray:
    """Assign the survivor mean to every survivor; the dead receive zero.

    Total consumption at each grid point is preserved whenever someone is
    alive to receive it.
    """
    consumptions = np.asarray(consumptions, dtype=float)
    alive = _alive_mask(grid.points, np.asarray(death_times, dtype=float))
    totals = consumptions.sum(axis=0)
    counts = alive.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return np.where(alive, mean[None, :], 0.0)
