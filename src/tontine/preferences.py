"""Gain functions over (consumption stream, death time) outcomes.

Three families are supported: expected discounted utility with mortality,
the exponential multiplicative family (outer ``-exp(-integral u)``), and
recursive utility with separate risk and substitution parameters plus an
adequacy level.  All consumption arguments are rates with respect to the
grid measure, and every family returns ``-inf`` whenever negative
consumption is received with positive probability.

The recursive family is defined through the aggregator

    f(c, v) = (b / rho) * (c**rho * (alpha*v)**(1 - rho/alpha) - alpha*v)

with ``alpha < 0`` and ``0 < rho < 1``, and is evaluated by a backward
recursion on the market-lattice x own-death chain:

    V_t = E_t[V_{t+dt}] + f(c_t, E_t[V_{t+dt}]) * dt   while alive,

where the death branch continues at the adequacy value ``a**alpha /
alpha``.  Consuming exactly the adequacy rate therefore gives the
adequacy value regardless of mortality, to machine precision.

The recursive and multiplicative families share one backward step on
that chain, the expectation over the next lattice level and own death,
and one sweep that keeps every level.  The sweep runs with a lattice or
without one (one node per level, death the only branch), so deterministic
rates take the same path as node streams, and its death value is a
constant or one value per level.  The transformed solver in ``ez_bsde``
and the pricing route's value-and-gradient in ``optimizer`` use the same
step and sweep, and the aggregator is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .market import Lattice, Stream, stack_stream
from .mortality import MortalityTable


# ---------------------------------------------------------------------------
# Utility functions on consumption rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerUtility:
    """u(c) = c**exponent / exponent with exponent < 1, != 0."""

    exponent: float

    def __post_init__(self) -> None:
        if not (self.exponent < 1.0) or self.exponent == 0.0:
            raise ValueError("power exponent must be < 1 and nonzero")

    def __call__(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(c > 0, np.power(np.maximum(c, 1e-300), self.exponent), np.inf if self.exponent < 0 else 0.0)
        return out / self.exponent


@dataclass(frozen=True)
class LogUtility:
    """u(c) = log(c); minus infinity at zero."""

    def __call__(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(c > 0, np.log(np.maximum(c, 1e-300)), -np.inf)


@dataclass(frozen=True)
class ExponentialUtility:
    """u(c) = -exp(-rate * c) / rate; finite infimum -1/rate at zero."""

    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0):
            raise ValueError("exponential utility rate must be positive")

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return -np.exp(-self.rate * np.asarray(c, dtype=float)) / self.rate


Utility = Union[PowerUtility, LogUtility, ExponentialUtility]


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VnmParams:
    """Expected discounted utility of consumption up to death."""

    utility: Utility
    discount: float = 0.0

    def __post_init__(self) -> None:
        if self.discount < 0:
            raise ValueError("discount rate must be nonnegative")


@dataclass(frozen=True)
class ExpKmParams:
    """Multiplicative family: -exp(-integral of u over the lifetime)."""

    utility: Utility


@dataclass(frozen=True)
class EzParams:
    """Recursive preferences with mortality and an adequacy level.

    ``risk`` (< 0) and ``substitution`` (in (0, 1)) control risk aversion
    and intertemporal substitution separately; ``adequacy`` (> 0) is the
    constant rate at which living and dying are equally attractive.
    """

    risk: float
    substitution: float
    discount: float
    adequacy: float

    def __post_init__(self) -> None:
        if not (self.risk < 0):
            raise ValueError("risk parameter must be negative")
        if not (0.0 < self.substitution < 1.0):
            raise ValueError("substitution parameter must lie in (0, 1)")
        if not (self.discount > 0):
            raise ValueError("discount rate must be positive")
        if not (self.adequacy > 0):
            raise ValueError("adequacy level must be positive")

    @property
    def adequacy_value(self) -> float:
        """Fixed-point value a**alpha / alpha."""
        return self.adequacy**self.risk / self.risk


GainFunction = Union[VnmParams, ExpKmParams, EzParams]


# ---------------------------------------------------------------------------
# Law-based evaluation of deterministic and node-adapted streams
# ---------------------------------------------------------------------------


def vnm_value_of_rates(gain: VnmParams, rates: np.ndarray, table: MortalityTable) -> float:
    """Exact value of a deterministic rate stream under the mortality law."""
    grid = table.grid
    rates = np.broadcast_to(np.asarray(rates, dtype=float), (grid.n_steps,))
    if np.any(rates < 0):
        return -np.inf
    pi = table.pi[: grid.n_steps]
    disc = np.exp(-gain.discount * grid.points)
    vals = gain.utility(rates)
    if np.any(np.isneginf(vals) & (pi > 0)):
        return -np.inf
    return float(np.sum(disc * pi * np.where(pi > 0, vals, 0.0)) * grid.dt)


def vnm_value_on_lattice(
    gain: VnmParams, stream: Stream, table: MortalityTable, lattice: Lattice
) -> float:
    """Exact value of a node-adapted rate stream (death independent of market)."""
    rates = stack_stream(stream)
    if rates.min() < 0:
        return -np.inf
    grid = lattice.grid
    m = grid.n_steps
    pi = table.pi[:m]
    weights = lattice.node_weights("P")[:m]
    # Nodes that count: reachable (the padding has weight zero) at a time with survivors.
    live = (weights > 0) & (pi > 0)[:, None]
    vals = gain.utility(np.where(live, rates, 1.0))
    if np.any(np.isneginf(vals) & live):
        return -np.inf
    disc = np.exp(-gain.discount * grid.points)
    return float(np.sum(disc * pi * np.sum(weights * np.where(live, vals, 0.0), axis=1)) * grid.dt)


def exp_km_value_of_rates(gain: ExpKmParams, rates: np.ndarray, table: MortalityTable) -> float:
    """Exact value of a deterministic rate stream: enumerate death times."""
    grid = table.grid
    rates = np.broadcast_to(np.asarray(rates, dtype=float), (grid.n_steps,))
    if np.any(rates < 0):
        return -np.inf
    partial = np.cumsum(gain.utility(rates)) * grid.dt  # integral up to and incl. t
    masses = table.p * grid.dt
    return float(np.sum(masses * (-np.exp(-partial))))


def exp_km_value_on_lattice(
    gain: ExpKmParams, stream: Stream, table: MortalityTable, lattice: Lattice
) -> float:
    """Backward evaluation of the multiplicative family on the lattice."""
    if np.concatenate(stream).min() < 0:
        return -np.inf
    return float(-_exp_km_levels(gain, stream, table, lattice)[0][0])


# ---------------------------------------------------------------------------
# Backward sweeps on the market-lattice x own-death chain
# ---------------------------------------------------------------------------


def _backward_expectation(values, p_up, survival, absorbed):
    """One step back on the (lattice x death) chain.

    ``values`` holds the next step's alive values with the lattice nodes on
    its last axis (``i + 2`` of them); returns the expected next value over
    the ``i + 1`` nodes of the current step, given alive now, where death
    absorbs at ``absorbed``.  Without a lattice (``p_up`` None) each level
    has one node and the expectation is over death only.
    """
    cont = values if p_up is None else p_up * values[..., 1:] + (1.0 - p_up) * values[..., :-1]
    return (1.0 - survival) * absorbed + survival * cont


def _backward_levels(node_value, absorbed, table: MortalityTable, lattice: Lattice | None = None):
    """Alive values at every level of the lattice x death chain.

    ``absorbed`` is the death value: a scalar, or one value per level
    (``m + 1``, the horizon last), where death during the step from level
    ``i`` absorbs at ``absorbed[i]``; the horizon value is the last.
    ``node_value(i, expected)`` maps the expected next value at the nodes
    of level ``i`` to the alive value there.  Without a lattice every
    level has one node.  Returns the values per level (``m + 1`` of them,
    the horizon last) and the expectations they were computed from (``m``).
    """
    m = table.grid.n_steps
    s = table.step_survival
    death = np.broadcast_to(np.asarray(absorbed, dtype=float), (m + 1,))
    p_up = None if lattice is None else lattice.p_up
    values = [None] * m + [np.full(1 if lattice is None else m + 1, death[m])]
    expected = [None] * m
    for i in range(m - 1, -1, -1):
        expected[i] = _backward_expectation(values[i + 1], p_up, s[i], death[i])
        values[i] = node_value(i, expected[i])
    return values, expected


def _rate_levels(consumption, m: int) -> list:
    """Rates per level: a node stream as given, deterministic rates one per level."""
    if isinstance(consumption, list):
        return [np.asarray(level, dtype=float) for level in consumption]
    return list(np.broadcast_to(np.asarray(consumption, dtype=float), (m,)))


def _exp_km_levels(gain: ExpKmParams, stream: Stream, table: MortalityTable, lattice: Lattice) -> list:
    """E[exp(-remaining utility integral) | alive] at every lattice node."""
    dt = table.grid.dt

    def node_value(i, expected):
        return np.exp(-gain.utility(stream[i]) * dt) * expected

    return _backward_levels(node_value, 1.0, table, lattice)[0]


def _ez_drift(alpha: float, rho: float, b: float, consumption, value):
    """Aggregator drift f(c, v) at raw parameters, without domain checks."""
    av = alpha * value  # positive wherever v < 0
    return (b / rho) * (np.power(consumption, rho) * np.power(av, 1.0 - rho / alpha) - av)


def _ez_levels(alpha: float, rho: float, b: float, adequacy: float, stream: Stream, table, lattice):
    """Recursive values at every lattice node, with the expectations behind them.

    The death branch continues at the adequacy value; parameter ranges and
    the sign of the rates are the caller's concern.
    """
    terminal = adequacy**alpha / alpha
    dt = table.grid.dt

    def node_value(i, expected):
        return expected + _ez_drift(alpha, rho, b, stream[i], expected) * dt

    return _backward_levels(node_value, terminal, table, lattice)


# ---------------------------------------------------------------------------
# Recursive family
# ---------------------------------------------------------------------------


def ez_utility_discrete(
    params: EzParams,
    consumption: Stream | np.ndarray | float,
    table: MortalityTable,
    lattice: Lattice | None = None,
) -> float:
    """Value of a consumption plan under the recursive preferences.

    Args:
        consumption: a scalar or per-grid-point array of deterministic
            rates, with or without a lattice, or a node-adapted stream on
            a lattice sharing the table's grid.
        table: the individual's mortality law; death is certain by the
            horizon, which anchors the terminal condition.

    Returns V_0, which lies in (-inf, 0); consuming the adequacy rate
    returns the adequacy value exactly.  Raises ``ValueError`` where the
    explicit step leaves the domain v < 0.
    """
    return ez_value_unrestricted(
        params.risk, params.substitution, params.discount, params.adequacy, consumption, table, lattice
    )


def ez_value_unrestricted(
    risk: float,
    substitution: float,
    discount: float,
    adequacy: float,
    consumption: Stream | np.ndarray | float,
    table: MortalityTable,
    lattice: Lattice | None = None,
) -> float:
    """Recursion evaluated at raw parameters; ``ez_utility_discrete`` runs on it.

    Permits parameter combinations outside the calibrated region, e.g.
    ``substitution == risk`` where the family degenerates to discounted
    expected power utility (a testing hook).  Raises ``ValueError`` naming
    the first level of the sweep whose value is not finite.
    """
    if lattice is None and isinstance(consumption, list):
        raise ValueError("node-adapted streams require a lattice")
    if lattice is not None and lattice.grid.n_steps != table.grid.n_steps:
        raise ValueError("lattice and mortality table use different grids")
    rates = _rate_levels(consumption, table.grid.n_steps)
    if any(np.any(level < 0) for level in rates):
        return -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        values, _ = _ez_levels(risk, substitution, discount, adequacy, rates, table, lattice)
    broken = [i for i, level in enumerate(values) if not np.all(np.isfinite(level))]
    if broken:
        raise ValueError(f"recursive value not finite at level {broken[-1]}: the explicit step left the domain v < 0")
    return float(values[0][0])
