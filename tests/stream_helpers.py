"""Stream and policy builders shared by the test modules."""

from dataclasses import dataclass

import numpy as np


def level_prices(lattice, i: int) -> np.ndarray:
    """Risky prices at the ``i + 1`` nodes of level ``i``."""
    j = np.arange(i + 1)
    return lattice.model.s0[0] * lattice.up**j * lattice.down ** (i - j)


def constant_stream(lattice, rate):
    """Stream with a deterministic (possibly time-varying) rate."""
    rates = np.broadcast_to(np.asarray(rate, dtype=float), (lattice.n_steps,))
    return [np.full(i + 1, rates[i]) for i in range(lattice.n_steps)]


def stream_from_function(lattice, fn):
    """Stream with rate ``fn(t, prices_at_level)`` at each grid point."""
    points = lattice.grid.points
    return [
        np.broadcast_to(np.asarray(fn(points[i], level_prices(lattice, i)), dtype=float), (i + 1,)).copy()
        for i in range(lattice.n_steps)
    ]


@dataclass(frozen=True)
class ConstantRateStrategy:
    """Constant per-survivor consumption rate with a fixed risky fraction."""

    rate: float
    fraction: float = 0.0

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        return np.broadcast_to(self.rate, np.shape(wealth)).copy() if np.ndim(wealth) else self.rate

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return np.broadcast_to(self.fraction, np.shape(wealth)).copy() if np.ndim(wealth) else self.fraction
