"""Discrete-time complete market: one bond, one lognormal asset, a lattice.

The market has one risk-free asset (continuously compounded at a constant
rate) and one risky lognormal asset, which makes it complete.  It is
represented by a recombining binomial lattice on which replication is
exact: this is the vehicle for all pricing and no-arbitrage arguments.
Monte Carlo samples paths of the same lattice under the physical measure
(``LatticePaths``); the fund evolves along them as they are.

Cashflow streams on the lattice are *rates* with respect to the grid
measure: the cash paid at a grid point equals ``rate * dt``.  A stream is
represented as one array per grid point, entry ``j`` of level ``i`` being
the rate at the node reached by ``j`` up-moves in ``i`` steps.

Internally every per-node quantity is one lower-triangular array of
``m + 1`` columns (``m`` the number of steps): row ``i`` holds level ``i``
in its first ``i + 1`` entries and zeros after them.  Node weights,
prices and replication run as whole-array steps on these triangles; a
public ``Stream`` is the list of their row views (``stream_rows``), and
``stack_stream`` turns a list back into a triangle.

``validate_stream`` is the package's one check on consumption input: every
entry point that takes rates works on the triangle it returns, and a
malformed level or a non-finite or negative rate raises, naming the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import TimeGrid
from .rng import substream

Stream = list[np.ndarray]


class IncompatibleStepError(ValueError):
    """Raised when the grid step is too coarse for arbitrage-free branching."""


class NonReplicableError(ValueError):
    """Raised when a cashflow is not adapted to the lattice filtration."""


@dataclass(frozen=True)
class MarketModel:
    """Constant-coefficient market with one bond and one risky asset.

    The asset's parameters are one-entry tuples.

    Args:
        rate: risk-free short rate (per year).
        mu: arithmetic drift, so E[S_{t+dt}/S_t] = exp(mu*dt).
        sigma: volatility (per sqrt-year), strictly positive except that a
            zero-volatility clone of the bond is allowed.
        s0: initial price, strictly positive.
    """

    rate: float
    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    s0: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.mu) == len(self.sigma) == len(self.s0) == 1):
            raise ValueError("the market has exactly one risky asset: mu, sigma, s0 take one entry each")
        for name in ("rate", "mu", "sigma", "s0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s0[0] <= 0:
            raise ValueError("initial prices must be strictly positive")
        if self.sigma[0] < 0:
            raise ValueError("volatilities must be nonnegative")
        if self.sigma[0] == 0.0 and abs(self.mu[0] - self.rate) > 1e-12:
            raise ValueError("a zero-volatility asset must drift at the risk-free rate")


# ---------------------------------------------------------------------------
# Recombining binomial lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial lattice for the single-risky-asset market.

    Node ``(i, j)`` is reached by ``j`` up-moves in ``i`` steps and carries
    the risky price ``s0 * up**j * down**(i-j)``.  Branch probabilities are
    chosen so the one-step expected gross return equals ``exp(mu*dt)``
    under the physical measure and ``exp(rate*dt)`` under the pricing
    measure; the latter makes discounted prices a martingale node by node,
    exactly.

    Node quantities are lower-triangular arrays with ``n_steps + 1``
    columns, one row per level (see the module docstring); node weights
    are built once per lattice and measure and then shared read-only.
    """

    model: MarketModel
    grid: TimeGrid
    up: float
    down: float
    p_up: float
    q_up: float

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def rate(self) -> float:
        return self.model.rate

    def step_discount(self) -> float:
        return float(np.exp(-self.rate * self.grid.dt))

    @cached_property
    def _weights(self) -> dict[str, np.ndarray]:
        return {}

    def node_weights(self, measure: str) -> np.ndarray:
        """Node probabilities under ``'P'`` or ``'Q'``: the read-only
        ``(n_steps + 1, n_steps + 1)`` triangle, row ``i`` for level ``i``.

        Pascal's recursion, level by level, is the one loop: each level
        needs the one before it.  It runs on first use; later calls on the
        same lattice return the same array.
        """
        if measure not in self._weights:
            pu = {"P": self.p_up, "Q": self.q_up}[measure]
            m = self.n_steps
            weights = np.zeros((m + 1, m + 1))
            weights[0, 0] = 1.0
            for i in range(m):
                prev = weights[i, : i + 1]
                weights[i + 1, : i + 1] = prev * (1.0 - pu)
                weights[i + 1, 1 : i + 2] += prev * pu
            weights.flags.writeable = False
            self._weights[measure] = weights
        return self._weights[measure]


def build_lattice(model: MarketModel, grid: TimeGrid) -> Lattice:
    """Build the binomial lattice.

    Raises:
        IncompatibleStepError: if the step is so coarse that a branch
            probability would leave [0, 1].
    """
    dt = grid.dt
    sigma = model.sigma[0]
    if sigma == 0.0:
        # Degenerate bond clone: both branches grow at the risk-free rate.
        g = float(np.exp(model.rate * dt))
        return Lattice(model, grid, up=g, down=g, p_up=0.5, q_up=0.5)
    up = float(np.exp(sigma * np.sqrt(dt)))
    down = 1.0 / up
    q_up = (np.exp(model.rate * dt) - down) / (up - down)
    p_up = (np.exp(model.mu[0] * dt) - down) / (up - down)
    for name, prob in (("Q", q_up), ("P", p_up)):
        if not (0.0 <= prob <= 1.0):
            raise IncompatibleStepError(
                f"{name}-branch probability {prob:.6f} outside [0, 1]; "
                "reduce the grid step or the drift/rate"
            )
    return Lattice(model, grid, up=up, down=down, p_up=float(p_up), q_up=float(q_up))


# ---------------------------------------------------------------------------
# Adapted streams on the lattice
# ---------------------------------------------------------------------------


def stack_stream(stream: Stream) -> np.ndarray:
    """The levels of a stream as the rows of one ``(m, m + 1)`` triangle."""
    m = len(stream)
    tri = np.zeros((m, m + 1))
    if m:
        tri[np.tri(m, m + 1, dtype=bool)] = np.concatenate(stream)
    return tri


def stream_rows(tri: np.ndarray) -> Stream:
    """The per-level row views of a lower-triangular array."""
    return [tri[i, : i + 1] for i in range(tri.shape[0])]


def validate_stream(consumption, grid: TimeGrid, lattice: Lattice | None = None) -> np.ndarray:
    """Check consumption input on ``grid`` and return its rates as one triangle.

    ``consumption`` is a node stream (a list of levels, on ``lattice``) or
    deterministic rates: a scalar, or one rate per grid point.  Returns the
    ``(m, m + 1)`` triangle on a lattice and ``(m, 1)`` without one, whose
    rows ``stream_rows`` gives as levels.  A node stream without a lattice,
    a lattice on another grid and a wrong level count raise; otherwise the
    first faulty level does, within a level a wrong shape
    (``NonReplicableError``) before non-finite rates before negative ones.
    """
    m = grid.n_steps
    if lattice is not None and lattice.grid != grid:
        raise ValueError(f"the lattice's grid {lattice.grid} is not the mortality table's grid {grid}")
    if isinstance(consumption, list):
        if lattice is None:
            raise ValueError("node-adapted streams require a lattice")
        if len(consumption) != m:
            raise NonReplicableError(f"stream has {len(consumption)} levels, the grid has {m} points")
        levels = [np.asarray(level, dtype=float) for level in consumption]
        shaped = next((i for i, arr in enumerate(levels) if arr.shape != (i + 1,)), m)
        tri = stack_stream(levels[:shaped])
    else:
        rates = np.asarray(consumption, dtype=float)
        if rates.shape not in ((), (m,)):
            raise NonReplicableError(f"deterministic rates have shape {rates.shape}, expected () or ({m},)")
        shaped = m
        width = 1 if lattice is None else m + 1
        tri = np.where(np.tri(m, width, dtype=bool), np.broadcast_to(rates, (m,))[:, None], 0.0)
    if shaped == m and 0.0 <= tri.min() and tri.max() < np.inf:  # NaN fails both
        return tri
    nonfinite = np.flatnonzero(~np.all(np.isfinite(tri), axis=1))
    negative = np.flatnonzero(np.any(tri < 0, axis=1))
    first_nonfinite = nonfinite[0] if nonfinite.size else m
    first_negative = negative[0] if negative.size else m
    first = min(shaped, first_nonfinite, first_negative)
    if first == shaped:
        raise NonReplicableError(f"level {first} has shape {levels[first].shape}, expected ({first + 1},)")
    if first == first_nonfinite:
        raise ValueError(f"level {first} contains non-finite rates")
    raise ValueError(f"level {first} contains negative rates")


def q_price(cashflow: Stream, lattice: Lattice) -> float:
    """Price of an adapted nonnegative rate stream.

    The price is the discounted pricing-measure expectation of the stream
    integrated against the grid measure:
    ``sum_t dt * exp(-r t) * E_Q[rate_t]``.  Prices are additive over
    streams; negative rates are rejected.
    """
    tri = validate_stream(cashflow, lattice.grid, lattice)
    grid = lattice.grid
    weights = lattice.node_weights("Q")[: grid.n_steps]
    return float(np.sum((grid.dt * np.exp(-lattice.rate * grid.points))[:, None] * weights * tri))


@dataclass(frozen=True)
class ReplicatingStrategy:
    """Self-financing strategy funding a rate stream on the lattice.

    ``risky_fraction[i][j]`` is the fraction of post-payment wealth held
    in the risky asset at node ``(i, j)``; the bond absorbs the rest.
    ``wealth[i][j]`` is the wealth required at the node before the time-i
    payment.  ``wealth[0][0]`` equals the stream's price.
    """

    lattice: Lattice
    cashflow: Stream
    wealth: Stream
    risky_fraction: Stream

    @property
    def initial_budget(self) -> float:
        return float(self.wealth[0][0])


def replicate(cashflow: Stream, lattice: Lattice) -> ReplicatingStrategy:
    """Replicate an adapted nonnegative rate stream, exactly.

    Backward induction gives the pre-payment wealth at every node; the
    risky position is the unique one delivering next-level wealth on both
    branches.  Deterministic streams therefore come out all-bond, and the
    initial wealth equals ``q_price(cashflow)`` to machine precision.
    """
    tri = validate_stream(cashflow, lattice.grid, lattice)
    m = lattice.n_steps
    amounts = tri * lattice.grid.dt
    disc = lattice.step_discount()
    q = lattice.q_up
    # One spare zero column, so both branches of every node are in range.
    wealth = np.zeros((m + 1, m + 2))
    for i in range(m - 1, -1, -1):
        nxt = wealth[i + 1, : i + 2]
        wealth[i, : i + 1] = amounts[i, : i + 1] + disc * (q * nxt[1:] + (1.0 - q) * nxt[:-1])
    up_next, down_next = wealth[1:, 1:], wealth[1:, :-1]
    post = np.where(np.tri(m, m + 1, dtype=bool), disc * (q * up_next + (1.0 - q) * down_next), 0.0)
    levels, ups = np.arange(m)[:, None], np.arange(m + 1)
    prices = lattice.model.s0[0] * lattice.up**ups * lattice.down ** np.maximum(levels - ups, 0)
    spread = prices * (lattice.up - lattice.down)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.where(spread > 0, (up_next - down_next) / np.where(spread > 0, spread, 1.0), 0.0)
        frac = np.where(post > 0, shares * prices / np.where(post > 0, post, 1.0), 0.0)
    return ReplicatingStrategy(lattice, stream_rows(tri), stream_rows(wealth), stream_rows(frac))


@dataclass(frozen=True)
class LatticePaths:
    """Paths sampled from the lattice's physical branch distribution.

    What the fund evolves along: ``ups[p, i]`` is true when path ``p``
    moves up at step ``i`` (gross risky return ``up``, else ``down``;
    the bond returns ``bond_gross()`` at every step), and
    ``node_idx[p, i]`` is its up-move count at level ``i``, held in the
    narrowest unsigned type that holds ``n_steps`` (uint8 up to 255
    steps).  Both arrays are stored time-major (one contiguous row per
    level) and held as their transposed, path-first views.
    """

    lattice: Lattice
    ups: np.ndarray  # (n_paths, n_steps) bool, a view of (n_steps, n_paths)
    node_idx: np.ndarray  # (n_paths, n_steps + 1) unsigned, a view of (n_steps + 1, n_paths)

    def bond_gross(self) -> float:
        return float(np.exp(self.lattice.rate * self.lattice.grid.dt))


def sample_lattice_paths(lattice: Lattice, n_paths: int, seed: int = 0) -> LatticePaths:
    """Sample paths under the physical measure; bit-identical for a fixed seed.

    The draws are made path by path; the up moves are then transposed as
    booleans, and the node counts summed level by level along contiguous
    rows (``np.cumsum`` along the level axis took ten times as long).
    """
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    gen = substream(seed, "lattice-paths", "P")
    ups = np.ascontiguousarray((gen.random(size=(n_paths, lattice.n_steps)) < lattice.p_up).T)
    # A count never exceeds its level, so the running sums cannot wrap.
    node_idx = np.empty((lattice.n_steps + 1, n_paths), dtype=np.min_scalar_type(lattice.n_steps))
    node_idx[0] = 0
    for i, up in enumerate(ups):
        np.add(node_idx[i], up, out=node_idx[i + 1])
    return LatticePaths(lattice, ups.T, node_idx.T)
