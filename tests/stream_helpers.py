"""Stream builders shared by the test modules."""

import numpy as np


def stream_from_function(lattice, fn):
    """Stream with rate ``fn(t, prices_at_level)`` at each grid point."""
    points = lattice.grid.points
    return [
        np.broadcast_to(np.asarray(fn(points[i], lattice.level_prices(i)), dtype=float), (i + 1,)).copy()
        for i in range(lattice.n_steps)
    ]
