"""Budget dynamics of collective funds.

A fund holds one pot of wealth.  At every grid point the survivors each
withdraw cash at the policy's per-survivor rate (times the grid step);
the remainder compounds over the step at the portfolio gross return
implied by the risky allocation fraction.  Finite pools drain by the
realized survivor count, infinite pools by the deterministic survival
fraction, and heterogeneous infinite pools by the type-weighted mix.

Trajectories are never rejected: a violation of the nonnegativity
constraints is flagged (first offending grid point recorded) so that
optimizers can penalize rather than crash.  All evolutions accept a
leading batch dimension of simulated paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .grid import TimeGrid
from .market import LatticePaths
from .mortality import MortalityTable

ADMISSIBILITY_TOL = 1e-9


class Strategy(Protocol):
    """Per-state policy: consumption rate per survivor and risky fraction.

    ``alive`` is the survivor count for finite pools and the survival
    fraction for per-individual (infinite-pool) accounting.  ``node`` is
    the lattice up-move count when the path carries one.
    """

    def consumption_rate(self, t_idx: int, alive, wealth, node=None): ...

    def risky_fraction(self, t_idx: int, alive, wealth, node=None): ...


@dataclass(frozen=True)
class ConstantRateStrategy:
    """Constant per-survivor consumption rate with a fixed risky fraction."""

    rate: float
    fraction: float = 0.0

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        return np.broadcast_to(self.rate, np.shape(wealth)).copy() if np.ndim(wealth) else self.rate

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return np.broadcast_to(self.fraction, np.shape(wealth)).copy() if np.ndim(wealth) else self.fraction


@dataclass(frozen=True)
class TabulatedPolicy:
    """Policy tables keyed by (time index, survivor count).

    ``consumption_fraction[t, j]`` is the fraction of pre-consumption
    wealth withdrawn in total at ``t`` when ``j`` survivors remain; the
    per-survivor rate follows by dividing by ``j * dt``.  Used for the
    scale-invariant families, where the optimal policy is wealth-free.
    The infinite pool has one column, and its ``alive`` is the survival
    fraction.
    """

    grid: TimeGrid
    consumption_fraction: np.ndarray  # (m, n+1)
    fraction: np.ndarray  # (m, n+1) risky fraction

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        alive_arr = np.asarray(alive)
        j = np.clip(alive_arr, 0, self.consumption_fraction.shape[1] - 1).astype(int)
        kappa = self.consumption_fraction[t_idx, j]
        denom = np.maximum(alive_arr, 1e-300) * self.grid.dt
        return np.where(alive_arr > 0, kappa * np.asarray(wealth) / denom, 0.0)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        j = np.clip(np.asarray(alive), 0, self.fraction.shape[1] - 1).astype(int)
        return self.fraction[t_idx, j]


@dataclass(frozen=True)
class PathBundle:
    """Gross returns along simulated paths (batch-first arrays)."""

    grid: TimeGrid
    risky_gross: np.ndarray  # (..., m)
    bond_gross: np.ndarray  # (m,) broadcastable
    node_idx: np.ndarray | None = None  # (..., m+1)

    @staticmethod
    def from_lattice_paths(paths: LatticePaths) -> "PathBundle":
        grid = paths.lattice.grid
        bond = np.full(grid.n_steps, paths.bond_gross())
        return PathBundle(grid, paths.risky_gross(), bond, paths.node_idx)


@dataclass(frozen=True)
class FundTrajectory:
    """Realized fund values; ``pre_value`` includes the terminal time.

    ``post_value[..., t] = pre_value[..., t] - drain_t`` and compounds to
    ``pre_value[..., t+1]`` with zero leakage.  ``alive`` is the survivor
    count (or fraction), ``rate`` the per-survivor consumption rate.
    """

    grid: TimeGrid
    pre_value: np.ndarray  # (..., m+1)
    post_value: np.ndarray  # (..., m)
    alive: np.ndarray  # (..., m)
    rate: np.ndarray  # (..., m)
    admissible: np.ndarray  # (...,) bool
    first_violation: np.ndarray  # (...,) int, -1 if none

    def total_consumption(self) -> np.ndarray:
        return np.sum(self.alive * self.rate, axis=-1) * self.grid.dt


def _scale(budget_total) -> float:
    return max(float(np.max(np.abs(budget_total))), 1.0)


def _evolve(
    strategy: Strategy,
    paths: PathBundle,
    drain_measure: np.ndarray,
    initial: np.ndarray,
) -> FundTrajectory:
    """Shared evolution; ``drain_measure[..., t]`` multiplies rate * dt."""
    grid = paths.grid
    m = grid.n_steps
    batch = np.broadcast_shapes(np.shape(initial), paths.risky_gross.shape[:-1], drain_measure.shape[:-1])
    pre = np.empty(batch + (m + 1,))
    post = np.empty(batch + (m,))
    rates = np.empty(batch + (m,))
    pre[..., 0] = initial
    tol = ADMISSIBILITY_TOL * _scale(initial)
    first_violation = np.full(batch, -1, dtype=np.int64)
    for t in range(m):
        node = None if paths.node_idx is None else paths.node_idx[..., t]
        alive_t = drain_measure[..., t]
        rate_t = np.broadcast_to(strategy.consumption_rate(t, alive_t, pre[..., t], node), batch)
        rates[..., t] = rate_t
        drain = alive_t * rate_t * grid.dt
        post[..., t] = pre[..., t] - drain
        bad = ((pre[..., t] < -tol) | (post[..., t] < -tol)) & (first_violation < 0)
        first_violation = np.where(bad, t, first_violation)
        frac = np.broadcast_to(strategy.risky_fraction(t, alive_t, post[..., t], node), batch)
        gross = frac * paths.risky_gross[..., t] + (1.0 - frac) * paths.bond_gross[t]
        pre[..., t + 1] = post[..., t] * gross
    return FundTrajectory(
        grid=grid,
        pre_value=pre,
        post_value=post,
        alive=drain_measure,
        rate=rates,
        admissible=first_violation < 0,
        first_violation=first_violation,
    )


def evolve_finite(
    strategy: Strategy,
    paths: PathBundle,
    survivor_counts: np.ndarray,
    budgets: np.ndarray,
) -> FundTrajectory:
    """Evolve a finite pool along realized market and mortality paths.

    Args:
        survivor_counts: integer counts, shape (..., m); deaths at a grid
            point still consume there.
        budgets: per-individual initial budgets (last axis indexes the
            individuals); the fund starts at their sum.
    """
    counts = np.asarray(survivor_counts, dtype=float)
    initial = np.sum(np.asarray(budgets, dtype=float), axis=-1)
    return _evolve(strategy, paths, counts, initial)


def evolve_infinite(
    strategy: Strategy,
    paths: PathBundle,
    table: MortalityTable,
    budget_per_person: float,
) -> FundTrajectory:
    """Evolve per-individual fund value with a deterministic survival mix."""
    m = paths.grid.n_steps
    pi = np.broadcast_to(table.pi[:m], paths.risky_gross.shape[:-1] + (m,))
    return _evolve(strategy, paths, pi, np.asarray(budget_per_person, dtype=float))


def evolve_heterogeneous(
    consumptions: Sequence[np.ndarray],
    weights: Sequence[float],
    budgets: Sequence[float],
    tables: Sequence[MortalityTable],
    paths: PathBundle,
    allocation: np.ndarray | float | Callable = 0.0,
) -> FundTrajectory:
    """Per-person evolution of an infinite heterogeneous pool.

    Each type consumes its own deterministic (or node-adapted) rate
    stream; the per-person drain at ``t`` is the weight- and
    survival-weighted sum over the types.  A single fund-level allocation
    applies.

    Args:
        consumptions: one rate stream per type, each an array of shape
            (m,) or a list of per-node arrays.
        weights: population weights, summing to one.
        budgets: per-type per-person budgets.
    """
    m = paths.grid.n_steps
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w <= 0):
        raise ValueError("weights must be positive and sum to one")
    if not (len(consumptions) == len(budgets) == len(tables) == w.size):
        raise ValueError("types, weights, budgets, tables must align")

    batch = paths.risky_gross.shape[:-1]

    def type_rate(stream, t):
        if isinstance(stream, list):
            if paths.node_idx is None:
                raise ValueError("node-adapted streams need lattice paths")
            return np.asarray(stream[t])[paths.node_idx[..., t]]
        return np.broadcast_to(np.asarray(stream, dtype=float)[t], batch)

    drain_rate = np.zeros(batch + (m,))
    for stream, weight, table in zip(consumptions, w, tables):
        pi = table.pi[:m]
        for t in range(m):
            drain_rate[..., t] += weight * pi[t] * type_rate(stream, t)

    class _Mixed:
        def consumption_rate(self, t_idx, alive, wealth, node=None):
            return drain_rate[..., t_idx]

        def risky_fraction(self, t_idx, alive, wealth, node=None):
            if callable(allocation):
                return allocation(t_idx, wealth)
            arr = np.asarray(allocation, dtype=float)
            return arr[t_idx] if arr.ndim else arr

    initial = float(np.dot(w, np.asarray(budgets, dtype=float)))
    ones = np.ones(batch + (m,))
    return _evolve(_Mixed(), paths, ones, np.asarray(initial))


def equal_split(consumptions: np.ndarray, death_times: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Assign the survivor mean to every survivor; the dead receive zero.

    Total consumption at each grid point is preserved whenever someone is
    alive to receive it.
    """
    consumptions = np.asarray(consumptions, dtype=float)
    death_times = np.asarray(death_times, dtype=float)
    alive = grid.points[None, :] <= death_times[:, None] + 1e-12
    totals = consumptions.sum(axis=0)
    counts = alive.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return np.where(alive, mean[None, :], 0.0)
