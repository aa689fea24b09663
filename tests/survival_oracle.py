"""Survival laws and oracles shared by the test modules.

The quadrature oracle is independent of the closed forms; the simple laws
and the death-time sampler build test inputs that the library's
Gompertz-Makeham table and binomial thinning do not.
"""

import numpy as np
from scipy import integrate

from tontine.mortality import MortalityTable
from tontine.rng import substream


def numeric_survival_from_hazard(hazard, t: float) -> float:
    """Survival exp(-integral of the hazard over [0, t]), by quadrature."""
    integral, _ = integrate.quad(hazard, 0.0, t, limit=200)
    return float(np.exp(-integral))


def grid_index(grid, t: float) -> int:
    """Index of grid point ``t``; rejects off-grid times."""
    idx = round(t / grid.dt)
    if idx < 0 or idx >= grid.n_steps or abs(idx * grid.dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{t} is not a grid point of {grid}")
    return int(idx)


def uniform_table(grid) -> MortalityTable:
    """Death time uniform over the grid points."""
    return MortalityTable(grid, np.full(grid.n_steps, 1.0 / grid.horizon))


def point_mass_table(grid, at: float | None = None) -> MortalityTable:
    """All deaths at a single grid point (default: the last one, so nobody dies early)."""
    idx = grid.n_steps - 1 if at is None else grid_index(grid, at)
    p = np.zeros(grid.n_steps)
    p[idx] = 1.0 / grid.dt
    return MortalityTable(grid, p)


def explicit_table(grid, p) -> MortalityTable:
    """Table from explicit masses, renormalized so death is certain by the horizon."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("death masses must be nonnegative")
    peak = p.max(initial=0.0)
    if peak <= 0:
        raise ValueError("death masses must have positive total")
    # Scale to a unit peak first: subnormal masses carry too few bits for
    # p / total to sum to one.
    p = p / peak
    return MortalityTable(grid, p / (p.sum() * grid.dt))


def simulate_death_times(n: int, table: MortalityTable, seed: int, label: str = "deaths") -> np.ndarray:
    """Death times of ``n`` individual lives (each on a grid point)."""
    gen = substream(seed, label)
    u = gen.random(n)
    cdf_incl = np.cumsum(table.p) * table.grid.dt  # P(tau <= t), inclusive
    idx = np.searchsorted(cdf_incl, u, side="left")
    idx = np.minimum(idx, table.grid.n_steps - 1)
    return table.grid.points[idx]


def counts_from_death_times(taus: np.ndarray, grid) -> np.ndarray:
    """Survivor counts n_t = #{i : tau_i >= t} on the grid points."""
    return np.array([(taus >= t - 1e-12).sum() for t in grid.points], dtype=np.int64)
