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
and one sweep that keeps every level.  The transformed solver in
``ez_bsde`` and the pricing route's value-and-gradient in ``optimizer``
use the same step and sweep, and the aggregator is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .market import Lattice, Stream
from .mortality import MortalityTable
from .rng import substream


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


@dataclass(frozen=True)
class CustomUtility:
    """Wrap an arbitrary concave increasing function (testing hook)."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(c, dtype=float)), dtype=float)


Utility = Union[PowerUtility, LogUtility, ExponentialUtility, CustomUtility]


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
# Scenario-based evaluation (law-invariant families)
# ---------------------------------------------------------------------------


def _alive_mask(points: np.ndarray, death: np.ndarray) -> np.ndarray:
    return points[None, :] <= death[:, None] + 1e-12


def vnm_utility(
    gain: VnmParams,
    consumption: np.ndarray,
    death: np.ndarray,
    weights: np.ndarray,
    grid_points: np.ndarray,
    dt: float,
) -> float:
    """Weighted average over scenarios of the discounted utility integral.

    Args:
        consumption: array (scenarios, grid points) of rates.
        death: per-scenario death time; consumption at the death time is
            still received.
        weights: scenario weights summing to one.

    Returns -inf if any positive-weight scenario consumes a negative
    amount while alive, or hits a utility singularity at zero.
    """
    consumption = np.atleast_2d(np.asarray(consumption, dtype=float))
    death = np.asarray(death, dtype=float)
    weights = np.asarray(weights, dtype=float)
    alive = _alive_mask(grid_points, death)
    live_consumption = consumption[alive]
    if np.any(live_consumption < 0):
        bad = np.any((consumption < 0) & alive, axis=1)
        if np.any(weights[bad] > 0):
            return -np.inf
    disc = np.exp(-gain.discount * grid_points)
    values = gain.utility(np.where(alive, consumption, 1.0))
    per_scenario = np.sum(np.where(alive, disc[None, :] * values, 0.0), axis=1) * dt
    if np.any(np.isneginf(per_scenario) & (weights > 0)):
        return -np.inf
    return float(per_scenario @ weights)


def exp_km_utility(
    gain: ExpKmParams,
    consumption: np.ndarray,
    death: np.ndarray,
    weights: np.ndarray,
    grid_points: np.ndarray,
    dt: float,
) -> float:
    """Weighted average of -exp(-integral of u up to death)."""
    consumption = np.atleast_2d(np.asarray(consumption, dtype=float))
    death = np.asarray(death, dtype=float)
    weights = np.asarray(weights, dtype=float)
    alive = _alive_mask(grid_points, death)
    if np.any((consumption < 0) & alive):
        bad = np.any((consumption < 0) & alive, axis=1)
        if np.any(weights[bad] > 0):
            return -np.inf
    values = gain.utility(np.where(alive, consumption, 1.0))
    integrals = np.sum(np.where(alive, values, 0.0), axis=1) * dt
    per_scenario = -np.exp(-integrals)
    return float(per_scenario @ weights)


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
    grid = lattice.grid
    pi = table.pi[: grid.n_steps]
    disc = np.exp(-gain.discount * grid.points)
    weights = lattice.node_weights("P")
    total = 0.0
    for i in range(grid.n_steps):
        if pi[i] == 0.0:
            continue
        vals = gain.utility(np.asarray(stream[i], dtype=float))
        if np.any(np.isneginf(vals) & (weights[i] > 0)):
            return -np.inf
        total += disc[i] * pi[i] * float(weights[i] @ vals)
    return float(total * grid.dt)


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
    return float(-_exp_km_levels(gain, stream, table, lattice)[0][0])


# ---------------------------------------------------------------------------
# Backward sweeps on the market-lattice x own-death chain
# ---------------------------------------------------------------------------


def _backward_expectation(values, p_up, survival, absorbed):
    """One step back on the (lattice x death) chain.

    ``values`` holds the next step's alive values with the lattice nodes on
    its last axis (``i + 2`` of them); returns the expected next value over
    the ``i + 1`` nodes of the current step, given alive now, where death
    absorbs at ``absorbed``.
    """
    cont = p_up * values[..., 1:] + (1.0 - p_up) * values[..., :-1]
    return (1.0 - survival) * absorbed + survival * cont


def _backward_levels(node_value, absorbed, table: MortalityTable, lattice: Lattice):
    """Alive values at every level of the lattice x death chain.

    Death absorbs at ``absorbed``, which is also the value at the horizon.
    ``node_value(i, expected)`` maps the expected next value at the ``i +
    1`` nodes of level ``i`` to the alive value there.  Returns the values
    per level (``m + 1`` of them, the horizon last) and the expectations
    they were computed from (``m``).
    """
    m = lattice.grid.n_steps
    s = table.step_survival
    values = [None] * m + [np.full(m + 1, absorbed)]
    expected = [None] * m
    for i in range(m - 1, -1, -1):
        expected[i] = _backward_expectation(values[i + 1], lattice.p_up, s[i], absorbed)
        values[i] = node_value(i, expected[i])
    return values, expected


def _exp_km_levels(gain: ExpKmParams, stream: Stream, table: MortalityTable, lattice: Lattice) -> list:
    """E[exp(-remaining utility integral) | alive] at every lattice node."""
    dt = lattice.grid.dt

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
    dt = lattice.grid.dt

    def node_value(i, expected):
        return expected + _ez_drift(alpha, rho, b, stream[i], expected) * dt

    return _backward_levels(node_value, terminal, table, lattice)


# ---------------------------------------------------------------------------
# Recursive family
# ---------------------------------------------------------------------------


def ez_aggregator(params: EzParams, consumption: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Aggregator drift f(c, v); requires v < 0 and c >= 0.

    Uses the algebraically simplified form
    ``(b/rho) * (c**rho * (alpha v)**(1 - rho/alpha) - alpha v)`` which
    vanishes exactly at the adequacy fixed point.
    """
    c = np.asarray(consumption, dtype=float)
    v = np.asarray(value, dtype=float)
    if np.any(v >= 0):
        raise ValueError("aggregator requires strictly negative continuation values")
    if np.any(c < 0):
        raise ValueError("aggregator requires nonnegative consumption")
    out = _ez_drift(params.risk, params.substitution, params.discount, c, v)
    return out if out.shape else float(out)


def _ez_backward(
    alpha: float,
    rho: float,
    b: float,
    adequacy: float,
    stream: Stream | np.ndarray,
    table: MortalityTable,
    lattice: Lattice | None,
) -> float:
    """Shared backward recursion; parameter ranges are the caller's concern."""
    grid = table.grid
    m = grid.n_steps
    dt = grid.dt
    terminal = adequacy**alpha / alpha
    s = table.step_survival

    if lattice is None:
        rates = np.broadcast_to(np.asarray(stream, dtype=float), (m,))
        if np.any(rates < 0):
            return -np.inf
        value = terminal
        for i in range(m - 1, -1, -1):
            expected = (1.0 - s[i]) * terminal + s[i] * value
            value = expected + _ez_drift(alpha, rho, b, rates[i], expected) * dt
        return float(value)

    if lattice.grid.n_steps != m:
        raise ValueError("lattice and mortality table use different grids")
    rates = [np.asarray(level, dtype=float) for level in stream]
    if any(np.any(level < 0) for level in rates):
        return -np.inf
    values, _ = _ez_levels(alpha, rho, b, adequacy, rates, table, lattice)
    return float(values[0][0])


def ez_utility_discrete(
    params: EzParams,
    consumption: Stream | np.ndarray | float,
    table: MortalityTable,
    lattice: Lattice | None = None,
) -> float:
    """Value of a consumption plan under the recursive preferences.

    Args:
        consumption: a scalar or per-grid-point array of deterministic
            rates (no lattice required), or a node-adapted stream on a
            lattice sharing the table's grid.
        table: the individual's mortality law; death is certain by the
            horizon, which anchors the terminal condition.

    Returns V_0, which lies in (-inf, 0); consuming the adequacy rate
    returns the adequacy value exactly.
    """
    if lattice is None and isinstance(consumption, list):
        raise ValueError("node-adapted streams require a lattice")
    return _ez_backward(
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
    """Recursion evaluated at raw parameters (testing hook).

    Permits parameter combinations outside the calibrated region, e.g.
    ``substitution == risk`` where the family degenerates to discounted
    expected power utility.
    """
    return _ez_backward(risk, substitution, discount, adequacy, consumption, table, lattice)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a sampled functional-property check."""

    trials: int
    violations: list


def check_concavity(
    evaluate: Callable[[np.ndarray], float],
    sample_stream: Callable[[np.random.Generator], np.ndarray],
    trials: int,
    seed: int,
    tol: float = 1e-10,
) -> PropertyReport:
    """Sample stream pairs and mixing weights; record concavity violations.

    ``evaluate`` maps a consumption array to a gain value; pairs where
    either endpoint is -inf are skipped (the inequality is vacuous there).
    """
    gen = substream(seed, "concavity")
    violations = []
    for k in range(trials):
        a = sample_stream(gen)
        b = sample_stream(gen)
        lam = gen.uniform(0.05, 0.95)
        ja, jb = evaluate(a), evaluate(b)
        if not (np.isfinite(ja) and np.isfinite(jb)):
            continue
        jmix = evaluate(lam * a + (1.0 - lam) * b)
        bound = lam * ja + (1.0 - lam) * jb
        scale = max(1.0, abs(ja), abs(jb))
        if jmix < bound - tol * scale:
            violations.append({"trial": k, "gap": bound - jmix, "lam": lam})
    return PropertyReport(trials=trials, violations=violations)


def check_monotonicity(
    evaluate: Callable[[np.ndarray], float],
    sample_stream: Callable[[np.random.Generator], np.ndarray],
    trials: int,
    seed: int,
    tol: float = 1e-10,
) -> PropertyReport:
    """Sample streams and nonnegative bumps; record monotonicity violations."""
    gen = substream(seed, "monotonicity")
    violations = []
    for k in range(trials):
        a = sample_stream(gen)
        bump = gen.uniform(0.0, 1.0, size=np.shape(a)) * gen.uniform(0.0, 0.5)
        ja, jb = evaluate(a), evaluate(a + bump)
        if np.isneginf(ja):
            continue
        scale = max(1.0, abs(ja))
        if jb < ja - tol * scale:
            violations.append({"trial": k, "gap": ja - jb})
    return PropertyReport(trials=trials, violations=violations)
