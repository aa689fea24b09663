"""Evenly spaced consumption grid.

Consumption and mortality events live on the grid points
``{0, dt, 2*dt, ..., horizon - dt}``.  The grid measure assigns mass
``dt`` to each point, so integrals against it are ``sum(values) * dt``.
Rates (consumption per year, death mass per year) are densities with
respect to this measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Grid with step ``dt`` covering ``[0, horizon)``.

    ``horizon`` must be an integer multiple of ``dt``.  ``n_steps`` is the
    number of grid points; ``points`` excludes the terminal time while
    ``times`` includes it (useful for asset paths, which extend to the
    horizon).
    """

    dt: float
    horizon: float
    n_steps: int = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < np.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0.0 < self.horizon < np.inf):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        ratio = self.horizon / self.dt
        m = round(ratio)
        if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"horizon {self.horizon} is not an integer multiple of dt {self.dt}"
            )
        object.__setattr__(self, "n_steps", int(m))

    @property
    def points(self) -> np.ndarray:
        """Grid points {0, dt, ..., horizon - dt}."""
        return np.arange(self.n_steps) * self.dt

    @property
    def times(self) -> np.ndarray:
        """Grid points plus the terminal time."""
        return np.arange(self.n_steps + 1) * self.dt
