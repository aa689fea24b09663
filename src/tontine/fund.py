"""Budget dynamics of collective funds.

A fund holds one pot of wealth.  At every grid point the survivors each
withdraw cash at the policy's per-survivor rate (times the grid step);
the remainder compounds over the step at the portfolio gross return
implied by the risky allocation fraction.  Finite pools drain by the
realized survivor count, infinite pools by the deterministic survival
fraction.  The drain measure keeps the caller's dtype: integer survivor
counts, narrow unsigned ones included, pass through without a float
copy; they are only compared, used as indices or multiplied into floats.

Trajectories are never rejected: a violation of the nonnegativity
constraints is flagged (first offending grid point recorded) so that
optimizers can penalize rather than crash.  All evolutions accept a
leading batch dimension of simulated paths and run through one loop,
``_evolve``; the gated transfer of an infinite-pool stream to a finite
pool evolves through it too, with the survivor count as its drain and a
policy whose rate is zero once the gate has closed.

Arrays are indexed batch-first, ``(..., m)``, but the loop steps through
time and reads one grid point of every path at a time.  The samplers
(``simulate_survivor_counts``, ``sample_lattice_paths``) therefore store
their arrays time-major and hand out transposed views: each step reads
contiguous rows.  Any layout gives the same values.

Per path and step the evolution holds only what needs the width: the
up moves as booleans (the risky return is looked up one step at a time
from the two gross returns), node indices and survivor counts in the
samplers' narrow unsigned types, and the pre-payment fund values and
the rates as floats.  Post-payment wealth lives in one scratch row and
is recomputed on demand (``FundTrajectory.post_value``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

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
    """Gross returns along simulated paths (batch-first indexing).

    The risky asset moves up or down at each step: ``ups[..., t]`` is
    true for an up move, and ``risky_returns`` holds the gross return of
    a down move and of an up move, in that order.  Built from sampled
    lattice paths, ``ups`` and ``node_idx`` are transposed views of
    time-major storage (see the module docstring).
    """

    grid: TimeGrid
    ups: np.ndarray  # (..., m) bool
    risky_returns: np.ndarray  # (2,) down, up
    bond_gross: np.ndarray  # (m,) broadcastable
    node_idx: np.ndarray | None = None  # (..., m+1)

    @staticmethod
    def from_lattice_paths(paths: LatticePaths) -> "PathBundle":
        lattice = paths.lattice
        bond = np.full(lattice.n_steps, paths.bond_gross())
        return PathBundle(lattice.grid, paths.ups, np.array([lattice.down, lattice.up]), bond, paths.node_idx)

    def risky_step(self, t: int) -> np.ndarray:
        """Gross risky returns of step ``t`` on every path, shape ``(...,)``."""
        # Indexing the two-entry table by the moves as bytes takes half the
        # time of ``np.where`` with scalar branches.
        return self.risky_returns[self.ups[..., t].view(np.uint8)]


@dataclass(frozen=True)
class FundTrajectory:
    """Realized fund values; ``pre_value`` includes the terminal time.

    ``post_value[..., t] = pre_value[..., t] - drain_t`` and compounds to
    ``pre_value[..., t+1]`` with zero leakage.  ``alive`` is the survivor
    count (or fraction) as the caller passed it, dtype included: integer
    counts stay integers.  ``rate`` is the per-survivor consumption rate.
    """

    grid: TimeGrid
    pre_value: np.ndarray  # (..., m+1)
    alive: np.ndarray  # (..., m)
    rate: np.ndarray  # (..., m)
    admissible: np.ndarray  # (...,) bool
    first_violation: np.ndarray  # (...,) int, -1 if none

    @property
    def post_value(self) -> np.ndarray:
        """Fund values after each step's payments, ``(..., m)``, computed
        on each access with the evolution's own expression (same bits)."""
        return self.pre_value[..., :-1] - self.alive * self.rate * self.grid.dt


def _evolve(
    strategy: Strategy,
    paths: PathBundle,
    drain_measure: np.ndarray,
    initial: np.ndarray,
) -> FundTrajectory:
    """Shared evolution; ``drain_measure[..., t]`` multiplies rate * dt.

    Steps time-major, on ``(m, batch)`` arrays of fund values and rates
    whose rows are contiguous, and returns them as batch-first views;
    post-payment wealth is one scratch row.  The inputs are read one step
    at a time along their last axis: for the samplers' time-major arrays
    each step's row is contiguous, for C-ordered batch-first arrays it is
    strided by ``m`` elements (the same values, slower).
    """
    grid = paths.grid
    m = grid.n_steps
    batch = np.broadcast_shapes(np.shape(initial), paths.ups.shape[:-1], drain_measure.shape[:-1])
    pre = np.empty((m + 1,) + batch)
    post = np.empty(batch)
    rates = np.empty((m,) + batch)
    alive = np.moveaxis(drain_measure, -1, 0)
    nodes = None if paths.node_idx is None else np.moveaxis(paths.node_idx, -1, 0)
    pre[0] = initial
    tol = ADMISSIBILITY_TOL * max(float(np.max(np.abs(initial))), 1.0)
    first_violation = np.full(batch, -1, dtype=np.int64)
    for t in range(m):
        node = None if nodes is None else nodes[t]
        rates[t] = strategy.consumption_rate(t, alive[t], pre[t], node)
        np.subtract(pre[t], alive[t] * rates[t] * grid.dt, out=post)
        bad = ((pre[t] < -tol) | (post < -tol)) & (first_violation < 0)
        first_violation[bad] = t
        frac = strategy.risky_fraction(t, alive[t], post, node)
        np.multiply(post, frac * paths.risky_step(t) + (1.0 - frac) * paths.bond_gross[t], out=pre[t + 1])
    return FundTrajectory(
        grid=grid,
        pre_value=np.moveaxis(pre, 0, -1),
        alive=drain_measure,
        rate=np.moveaxis(rates, 0, -1),
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
        survivor_counts: survivor counts, shape (..., m), used as given
            (integer counts are not copied to floats); deaths at a grid
            point still consume there.
        budgets: per-individual initial budgets (last axis indexes the
            individuals); the fund starts at their sum.
    """
    initial = np.sum(np.asarray(budgets, dtype=float), axis=-1)
    return _evolve(strategy, paths, np.asarray(survivor_counts), initial)


def evolve_infinite(
    strategy: Strategy,
    paths: PathBundle,
    table: MortalityTable,
    budget_per_person: float,
) -> FundTrajectory:
    """Evolve per-individual fund value with a deterministic survival mix."""
    m = paths.grid.n_steps
    pi = np.broadcast_to(table.pi[:m], paths.ups.shape[:-1] + (m,))
    return _evolve(strategy, paths, pi, np.asarray(budget_per_person, dtype=float))
