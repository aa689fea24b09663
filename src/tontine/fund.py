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
optimizers can penalize rather than crash; the re-simulation
(``optimizer.simulate_policy_value``) refuses to score a flagged one.
All evolutions accept a leading batch dimension of simulated paths and
run through one loop, ``_evolve``; so do node streams (``NodePolicy``):
the pricing route's, and its transfer to a finite pool, whose drain is
the survivor count and whose rate is zero once the gate has closed.

Arrays are indexed batch-first, ``(..., m)``, but the loop steps through
time and reads one grid point of every path at a time.  The samplers
(``simulate_survivor_counts``, ``sample_lattice_paths``) therefore store
their arrays time-major and hand out transposed views: each step reads
contiguous rows.  Any layout gives the same values.

The evolution reads the sampler's ``LatticePaths`` as they come and
holds per path and step only what needs the width: the up moves as
booleans (each step's risky return is gathered from them), node
indices and survivor counts in the samplers' narrow unsigned types, and
the pre-payment fund values and the rates as floats.  Post-payment
wealth is not stored: it is ``pre_value[..., :-1] - alive * rate * dt``.

Each step reads every table it needs (by node index, survivor count or
up move) with one ``take`` gather, about three times as fast as fancy
indexing with a narrow index, and writes its arithmetic with ``out=``
into the post-payment row, one scratch row (both allocated once per
call) and the next fund-value row, in the operations and order of the
expressions above: the values are those bits.  A step is screened for
violations by one NaN-skipping minimum over the paths; the per-path mask
is built only on a step where some path is below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .grid import TimeGrid
from .market import Lattice, LatticePaths, Stream
from .mortality import MortalityTable

ADMISSIBILITY_TOL = 1e-9


class Strategy(Protocol):
    """Per-state policy: consumption rate per survivor and risky fraction.

    ``alive`` is the survivor count for finite pools and the survival
    fraction for per-individual (infinite-pool) accounting.  ``node`` is
    the path's lattice up-move count.
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
        alive = np.asarray(alive)
        return payout_rate(_column(self.consumption_fraction[t_idx], alive), alive, wealth, self.grid.dt)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return _column(self.fraction[t_idx], np.asarray(alive))


def payout_rate(fraction, alive, wealth, dt: float) -> np.ndarray:
    """Per-survivor rate that withdraws ``fraction`` of ``wealth`` in total: 0 where nobody is alive."""
    return np.divide(fraction * wealth, alive * dt, out=np.zeros(np.shape(wealth)), where=alive > 0)


def _column(row: np.ndarray, alive: np.ndarray):
    """The entries of one time's row at the survivor counts ``alive``, clipped to the row.

    The infinite pool's one-column row is read as its one entry; its
    ``alive`` is the survival fraction, not a column index.
    """
    if row.size == 1:
        return row[0]
    return row.take(alive, mode="clip")


@dataclass(frozen=True)
class NodePolicy:
    """Per-survivor rates and risky fractions read off the nodes of ``lattice``.

    Survivors consume nothing once their pool's gate has closed:
    ``gate[..., t]`` is true while it is open at grid point ``t``.
    """

    lattice: Lattice
    rates: Stream
    fractions: Stream
    gate: np.ndarray  # (..., m) bool

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        # Not ``gate * rate``: an infinite rate on a closed path would read NaN.
        return np.where(self.gate[..., t_idx], self.rates[t_idx].take(node), 0.0)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return self.fractions[t_idx].take(node)


@dataclass(frozen=True)
class FundTrajectory:
    """Realized fund values; ``pre_value`` includes the terminal time.

    The post-payment wealth ``pre_value[..., t] - alive[..., t] *
    rate[..., t] * dt`` compounds to ``pre_value[..., t+1]`` with zero
    leakage.  ``alive`` is the survivor count (or fraction) as the caller
    passed it, dtype included: integer counts stay integers.  ``rate`` is
    the per-survivor consumption rate.
    """

    grid: TimeGrid
    pre_value: np.ndarray  # (..., m+1)
    alive: np.ndarray  # (..., m)
    rate: np.ndarray  # (..., m)
    admissible: np.ndarray  # (...,) bool
    first_violation: np.ndarray  # (...,) int, -1 if none


def _evolve(
    strategy: Strategy,
    paths: LatticePaths,
    drain_measure: np.ndarray,
    initial: np.ndarray,
) -> FundTrajectory:
    """Shared evolution; ``drain_measure[..., t]`` multiplies rate * dt.

    Steps time-major, on ``(m, batch)`` arrays of fund values and rates
    whose rows are contiguous, and returns them as batch-first views.
    The inputs are read one step at a time along their last axis: for the
    samplers' time-major arrays each step's row is contiguous, for
    C-ordered batch-first arrays it is strided by ``m`` elements (the same
    values, slower).

    Two batch rows are allocated once: ``post``, the post-payment wealth,
    and ``scratch``.  The next fund-value row is the second scratch row
    until the step writes its value there.  Each step writes ``alive *
    rate * dt`` into ``post`` and subtracts it from the fund value,
    gathers the risky return into the next row with ``np.take``, and
    forms ``frac * risky + (1 - frac) * bond`` there and in ``scratch``,
    each operation the one the expression names, in its order.

    A path is admissible while neither its pre- nor its post-payment
    wealth is below ``-tol``.  Each step takes ``fmin`` of the two rows and
    reduces it with ``fmin``, which skips NaN, so a path whose wealth
    went NaN neither flags itself nor hides another path's violation (a
    plain minimum would be NaN); only on a step where that minimum is
    below ``-tol`` is each path's first violation recorded.
    """
    grid = paths.lattice.grid
    m = grid.n_steps
    batch = np.broadcast_shapes(np.shape(initial), paths.ups.shape[:-1], drain_measure.shape[:-1])
    pre = np.empty((m + 1,) + batch)
    rates = np.empty((m,) + batch)
    post = np.empty(batch)
    scratch = np.empty(batch)
    alive = np.moveaxis(drain_measure, -1, 0)
    nodes = np.moveaxis(paths.node_idx, -1, 0)
    ups = np.moveaxis(paths.ups, -1, 0)
    risky = np.array([paths.lattice.down, paths.lattice.up])
    bond = paths.lattice.bond
    pre[0] = initial
    tol = ADMISSIBILITY_TOL * max(float(np.max(np.abs(initial))), 1.0)
    first_violation = np.full(batch, -1, dtype=np.int64)
    for t in range(m):
        rates[t] = strategy.consumption_rate(t, alive[t], pre[t], nodes[t])
        np.multiply(alive[t], rates[t], out=post)
        np.multiply(post, grid.dt, out=post)
        np.subtract(pre[t], post, out=post)
        low = np.fmin(pre[t], post, out=scratch)
        if np.fmin.reduce(low, axis=None) < -tol:
            first_violation[(low < -tol) & (first_violation < 0)] = t
        frac = strategy.risky_fraction(t, alive[t], post, nodes[t])
        gross = pre[t + 1]
        # Indices 0 and 1 only, so clipping never moves one; it spares
        # ``take`` the buffered copy that bounds checking makes with ``out=``.
        np.take(risky, ups[t], out=gross, mode="clip")
        np.multiply(frac, gross, out=gross)
        np.subtract(1.0, frac, out=scratch)
        np.multiply(scratch, bond, out=scratch)
        np.add(gross, scratch, out=gross)
        np.multiply(post, gross, out=gross)
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
    paths: LatticePaths,
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
    paths: LatticePaths,
    table: MortalityTable,
    budget_per_person: float,
) -> FundTrajectory:
    """Evolve per-individual fund value with a deterministic survival mix.

    Every path drains by the one survival row ``table.pi[:m]``, which is
    the trajectory's ``alive``: each step hands the strategy one scalar.
    """
    m = paths.lattice.n_steps
    return _evolve(strategy, paths, table.pi[:m], np.asarray(budget_per_person, dtype=float))
