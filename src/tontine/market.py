"""Discrete-time complete market: one bond, one lognormal asset, a lattice.

The market has one risk-free asset (continuously compounded at a constant
rate) and one risky lognormal asset, which makes it complete.  It is
represented by a recombining binomial lattice on which replication is
exact: this is the vehicle for all pricing and no-arbitrage arguments.
Monte Carlo evaluation samples paths of the same lattice.

Cashflow streams on the lattice are *rates* with respect to the grid
measure: the cash paid at a grid point equals ``rate * dt``.  A stream is
represented as one array per grid point, entry ``j`` of level ``i`` being
the rate at the node reached by ``j`` up-moves in ``i`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

    def level_prices(self, i: int) -> np.ndarray:
        j = np.arange(i + 1)
        return self.model.s0[0] * self.up**j * self.down ** (i - j)

    def step_discount(self) -> float:
        return float(np.exp(-self.rate * self.grid.dt))

    def node_weights(self, measure: str) -> list[np.ndarray]:
        """Node probabilities per level under ``'P'`` or ``'Q'``."""
        pu = {"P": self.p_up, "Q": self.q_up}[measure]
        weights = [np.array([1.0])]
        for _ in range(self.n_steps):
            prev = weights[-1]
            nxt = np.zeros(prev.size + 1)
            nxt[:-1] += prev * (1.0 - pu)
            nxt[1:] += prev * pu
            weights.append(nxt)
        return weights


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


def validate_stream(stream: Stream, lattice: Lattice, allow_negative: bool = False) -> None:
    if len(stream) != lattice.n_steps:
        raise NonReplicableError(
            f"stream has {len(stream)} levels, lattice has {lattice.n_steps} grid points"
        )
    for i, level in enumerate(stream):
        arr = np.asarray(level, dtype=float)
        if arr.shape != (i + 1,):
            raise NonReplicableError(f"level {i} has shape {arr.shape}, expected ({i + 1},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"level {i} contains non-finite rates")
        if not allow_negative and np.any(arr < 0):
            raise ValueError(f"level {i} contains negative rates")


def constant_stream(lattice: Lattice, rate: float | Sequence[float]) -> Stream:
    """Stream with a deterministic (possibly time-varying) rate."""
    rates = np.broadcast_to(np.asarray(rate, dtype=float), (lattice.n_steps,))
    return [np.full(i + 1, rates[i]) for i in range(lattice.n_steps)]


def stream_from_function(lattice: Lattice, fn: Callable[[float, np.ndarray], np.ndarray]) -> Stream:
    """Stream with rate ``fn(t, prices_at_level)`` at each grid point."""
    points = lattice.grid.points
    return [
        np.broadcast_to(np.asarray(fn(points[i], lattice.level_prices(i)), dtype=float), (i + 1,)).copy()
        for i in range(lattice.n_steps)
    ]


def add_streams(a: Stream, b: Stream) -> Stream:
    return [x + y for x, y in zip(a, b)]


def scale_stream(a: Stream, factor: float) -> Stream:
    return [factor * x for x in a]


def q_price(cashflow: Stream, lattice: Lattice) -> float:
    """Price of an adapted nonnegative rate stream.

    The price is the discounted pricing-measure expectation of the stream
    integrated against the grid measure:
    ``sum_t dt * exp(-r t) * E_Q[rate_t]``.  Prices are additive over
    streams; negative rates are rejected.
    """
    validate_stream(cashflow, lattice)
    dt = lattice.grid.dt
    points = lattice.grid.points
    weights = lattice.node_weights("Q")
    total = 0.0
    for i in range(lattice.n_steps):
        total += dt * np.exp(-lattice.rate * points[i]) * float(weights[i] @ np.asarray(cashflow[i], dtype=float))
    return float(total)


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
    validate_stream(cashflow, lattice)
    m = lattice.n_steps
    dt = lattice.grid.dt
    disc = lattice.step_discount()
    q = lattice.q_up
    wealth: Stream = [np.zeros(0)] * (m + 1)
    wealth[m] = np.zeros(m + 1)
    fractions: Stream = [np.zeros(0)] * m
    for i in range(m - 1, -1, -1):
        nxt = wealth[i + 1]
        cont = disc * (q * nxt[1:] + (1.0 - q) * nxt[:-1])
        amounts = np.asarray(cashflow[i], dtype=float) * dt
        wealth[i] = amounts + cont
        post = cont
        prices = lattice.level_prices(i)
        spread = prices * (lattice.up - lattice.down)
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(spread > 0, (nxt[1:] - nxt[:-1]) / np.where(spread > 0, spread, 1.0), 0.0)
            frac = np.where(post > 0, shares * prices / np.where(post > 0, post, 1.0), 0.0)
        fractions[i] = frac
    return ReplicatingStrategy(lattice, [np.asarray(c, float).copy() for c in cashflow], wealth[: m + 1], fractions)


@dataclass(frozen=True)
class LatticePaths:
    """Paths sampled from the lattice's branch distribution.

    Used to evaluate strategies whose decisions are tabulated on lattice
    nodes; ``node_idx[p, i]`` is the up-move count of path ``p`` at level
    ``i``, and gross risky returns per step are ``up`` or ``down``.
    """

    lattice: Lattice
    ups: np.ndarray  # (n_paths, n_steps) bool
    node_idx: np.ndarray  # (n_paths, n_steps + 1) int
    seed: int
    measure: str

    def risky_gross(self) -> np.ndarray:
        return np.where(self.ups, self.lattice.up, self.lattice.down)

    def bond_gross(self) -> float:
        return float(np.exp(self.lattice.rate * self.lattice.grid.dt))


def sample_lattice_paths(
    lattice: Lattice, n_paths: int, measure: str = "P", seed: int = 0
) -> LatticePaths:
    """Sample paths under ``'P'`` or ``'Q'``; bit-identical for a fixed seed."""
    if measure not in ("P", "Q"):
        raise ValueError(f"unknown measure {measure!r}")
    pu = lattice.p_up if measure == "P" else lattice.q_up
    gen = substream(seed, "lattice-paths", measure)
    ups = gen.random(size=(n_paths, lattice.n_steps)) < pu
    node_idx = np.concatenate(
        [np.zeros((n_paths, 1), dtype=np.int64), np.cumsum(ups, axis=1, dtype=np.int64)], axis=1
    )
    return LatticePaths(lattice, ups, node_idx, int(seed), measure)
