"""Gain functions over (consumption stream, death time) outcomes.

Three families are supported: expected discounted utility with mortality
(``VnmParams``), the exponential multiplicative family (``ExpKmParams``,
outer ``-exp(-integral u)``), and recursive utility with separate risk and
substitution parameters plus an adequacy level (``EzParams``).  All
consumption arguments are rates with respect to the grid measure; every
family returns ``-inf`` whenever negative consumption is received with
positive probability, and a NaN rate raises.

Each family is one backward step on an investor's chain, given alive, and
every solver calls the same four pieces of it:

* ``death_value``: the value once dead (0, -1 and the adequacy value);
* ``step(t, rate, expected, dt)``: the alive value at time ``t`` from the
  step's consumption rate and the expected next value, death included;
* ``partials(t, rate, expected, dt)``: the step's derivatives in the rate
  and in the expected value, for the pricing route's adjoint gradient;
* ``consumption(t, expected, survival, drain, slope, dt)``: for the
  wealth-grid DP, the rate solving the step's first-order condition at
  fixed post-consumption wealth x.  A unit of rate costs ``drain * dt`` of
  x, whose continuation, given survival, has slope ``slope``, so the
  condition is ``d step / d rate = survival * drain * slope * dt *
  d step / d expected``.

Each family also names the felicity ``utility`` of its step in the rate;
the pricing route takes its coordinates from that felicity's marginal.

The multiplicative family is held in value units, ``-R`` with ``R =
E[exp(-remaining utility integral)]``: its step is ``exp(-u(c) dt) *
expected`` and its death value -1, and since negation is exact the values
are those of the recursion on ``R``.  The recursive family's step is the
explicit aggregator step

    V_t = E_t[V_{t+dt}] + f(c_t, E_t[V_{t+dt}]) * dt,
    f(c, v) = (b / rho) * (c**rho * (alpha*v)**(1 - rho/alpha) - alpha*v)

with ``alpha < 0`` and ``0 < rho < 1``, written once in ``_ez_drift``.
Death continues at the adequacy value ``a**alpha / alpha``, so consuming
exactly the adequacy rate gives the adequacy value regardless of
mortality, to machine precision.  That step can overshoot the family's
upper bound (zero) at extreme rates, so the wealth-grid DP caps its node
values at the family's ``value_cap``; the evaluators here do not.

Node streams and deterministic rates are evaluated by one backward sweep on
the market-lattice x own-death chain, with a lattice or without one (one
node per level, death the only branch).  Its death value is a constant or
one value per level, so the transformed solver in ``ez_bsde`` runs on the
same sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .market import Lattice, Stream, stack_stream
from .mortality import MortalityTable


# ---------------------------------------------------------------------------
# Utility functions on consumption rates
# ---------------------------------------------------------------------------
#
# Each utility writes its values into ``out`` when one is given (an array
# of the input's shape, which may be the input itself) and into a new
# array otherwise, with the same values either way.  A NaN rate gives a
# NaN utility.


def _output_for(c: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    return np.empty_like(c) if out is None else out


@dataclass(frozen=True)
class PowerUtility:
    """u(c) = c**exponent / exponent with exponent < 1, != 0."""

    exponent: float

    def __post_init__(self) -> None:
        if not (self.exponent < 1.0) or self.exponent == 0.0:
            raise ValueError("power exponent must be < 1 and nonzero")

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        at_zero = c <= 0
        out = _output_for(c, out)
        np.power(np.maximum(c, 1e-300, out=out), self.exponent, out=out)
        out /= self.exponent
        out[at_zero] = -np.inf if self.exponent < 0 else 0.0
        return out

    def marginal(self, c):
        return np.power(c, self.exponent - 1.0)

    def inverse_marginal(self, mu):
        """The rate c with u'(c) = mu."""
        return np.power(mu, 1.0 / (self.exponent - 1.0))


@dataclass(frozen=True)
class LogUtility:
    """u(c) = log(c); minus infinity at zero."""

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        at_zero = c <= 0
        out = _output_for(c, out)
        np.log(np.maximum(c, 1e-300, out=out), out=out)
        out[at_zero] = -np.inf
        return out

    def marginal(self, c):
        return 1.0 / c

    def inverse_marginal(self, mu):
        return 1.0 / mu


@dataclass(frozen=True)
class ExponentialUtility:
    """u(c) = -exp(-rate * c) / rate; finite infimum -1/rate at zero."""

    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0):
            raise ValueError("exponential utility rate must be positive")

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        out = _output_for(c, out)
        np.exp(np.multiply(c, -self.rate, out=out), out=out)
        np.negative(out, out=out)
        out /= self.rate
        return out

    def marginal(self, c):
        return np.exp(-self.rate * c)

    def inverse_marginal(self, mu):
        """The rate c >= 0 with u'(c) = mu, zero where mu is at least u'(0) = 1."""
        return np.maximum(-np.log(mu) / self.rate, 0.0)


Utility = Union[PowerUtility, LogUtility, ExponentialUtility]


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VnmParams:
    """Expected discounted utility of consumption up to death."""

    utility: Utility
    discount: float = 0.0

    # Death ends the utility stream.
    death_value = 0.0
    value_cap = math.inf

    def __post_init__(self) -> None:
        if self.discount < 0:
            raise ValueError("discount rate must be nonnegative")

    def step(self, t, rate, expected, dt):
        return math.exp(-self.discount * t) * self.utility(rate) * dt + expected

    def partials(self, t, rate, expected, dt):
        return math.exp(-self.discount * t) * self.utility.marginal(rate) * dt, 1.0

    def consumption(self, t, expected, survival, drain, slope, dt):
        """The first-order condition's rate: ``exp(-b t) u'(c) = survival * drain * slope``."""
        return self.utility.inverse_marginal(math.exp(self.discount * t) * survival * drain * slope)


@dataclass(frozen=True)
class ExpKmParams:
    """Multiplicative family: -exp(-integral of u over the lifetime), held as -R (see the module notes)."""

    utility: Utility

    death_value = -1.0
    value_cap = math.inf

    def step(self, t, rate, expected, dt):
        return np.exp(-self.utility(rate) * dt) * expected

    def partials(self, t, rate, expected, dt):
        self._refuse_negative_power()
        growth = np.exp(-self.utility(rate) * dt)
        return -self.utility.marginal(rate) * dt * growth * expected, growth

    def consumption(self, t, expected, survival, drain, slope, dt):
        """The first-order condition's rate: ``u'(c) = survival * drain * slope / -expected``."""
        self._refuse_negative_power()
        return self.utility.inverse_marginal(survival * drain * slope / -expected)

    def _refuse_negative_power(self) -> None:
        """Refuse a negative power inner utility, in the DP (``consumption``) and the pricing route (``partials``).

        As the rate falls to zero its step factor ``exp(-u(c) dt)`` overflows.
        """
        if isinstance(self.utility, PowerUtility) and self.utility.exponent < 0:
            raise ValueError(
                "negative-power inner utility overflows the multiplicative recursion; "
                "use exponential or log inner utility"
            )


# Newton steps of the recursive family's consumption condition: a cap only,
# the steps stop once every one is below 1e-13 relative.
_NEWTON_MAX_STEPS = 50


@dataclass(frozen=True)
class _Recursive:
    """The recursive family at raw parameters, without domain checks (see ``EzParams``)."""

    risk: float
    substitution: float
    discount: float
    adequacy: float

    @property
    def adequacy_value(self) -> float:
        """Fixed-point value a**alpha / alpha."""
        return self.adequacy**self.risk / self.risk

    @property
    def death_value(self) -> float:
        return self.adequacy_value

    @property
    def value_cap(self) -> float:
        # Just below zero.  The cap can bind at reachable wealth: with light
        # mortality on a 40-step annual grid the infinite-pool solve returns
        # the cap itself as the value at the starting wealth.
        return -1e-12 * abs(self.adequacy_value)

    @property
    def utility(self) -> PowerUtility:
        """The aggregator's felicity in the rate, c**rho / rho up to a factor free of c."""
        return PowerUtility(self.substitution)

    def step(self, t, rate, expected, dt):
        return expected + _ez_drift(self.risk, self.substitution, self.discount, rate, expected) * dt

    def partials(self, t, rate, expected, dt):
        alpha, rho, b = self.risk, self.substitution, self.discount
        av = alpha * expected
        f_c = b * np.power(rate, rho - 1.0) * np.power(av, 1.0 - rho / alpha)
        f_v = (b * alpha / rho) * ((1.0 - rho / alpha) * np.power(rate, rho) * np.power(av, -rho / alpha) - 1.0)
        return f_c * dt, 1.0 + f_v * dt

    def consumption(self, t, expected, survival, drain, slope, dt):
        """The first-order condition's rate, NaN where it has no root.

        The condition is ``f_c(c, e) = lam (1 + f_v(c, e) dt)``, where ``e``
        is the expected next value and ``lam = survival * drain * slope``.
        With ``w = alpha e`` and ``z = c**rho w**(-rho/alpha)`` it reads ``b
        w z / c = lam (A - B z)``, where ``A - B z = 1 + f_v dt`` is the
        continuation's weight in the explicit step, positive below ``z =
        A/B``.  In ``y = log c`` the log ratio of the two sides, ``phi(y)``,
        is convex, least at ``z = (1 - rho) A / B``, and its smaller root is
        the node's maximum; with ``phi`` above zero at its least there is no
        root in the step's domain.  Newton's method starts from the root of
        ``phi`` without its ``B z`` term, which lies left of the smaller
        root, and climbs to it monotonically.
        """
        alpha, rho = self.risk, self.substitution
        log_w = np.log(alpha * expected)
        shift = -rho / alpha * log_w  # log z = rho y + shift
        const = math.log(self.discount) + log_w + shift - np.log(survival * drain * slope)
        a_coef = 1.0 - self.discount * alpha * dt / rho
        b_coef = self.discount * (rho - alpha) * dt / rho

        def phi(y):
            bz = b_coef * np.exp(rho * y + shift)
            return const + (rho - 1.0) * y - np.log(a_coef - bz), rho * bz / (a_coef - bz) + rho - 1.0

        y_least = (math.log((1.0 - rho) * a_coef / b_coef) - shift) / rho
        no_root = phi(y_least)[0] > 0.0
        y = np.where(no_root, y_least, (const - math.log(a_coef)) / (1.0 - rho))
        for _ in range(_NEWTON_MAX_STEPS):
            value, derivative = phi(y)
            step = np.divide(value, derivative, out=np.zeros_like(y), where=~no_root)
            y = y - step
            if np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(y))):
                break
        return np.where(no_root, np.nan, np.exp(y))


@dataclass(frozen=True)
class EzParams(_Recursive):
    """Recursive preferences with mortality and an adequacy level.

    ``risk`` (< 0) and ``substitution`` (in (0, 1)) control risk aversion
    and intertemporal substitution separately; ``adequacy`` (> 0) is the
    constant rate at which living and dying are equally attractive.
    """

    def __post_init__(self) -> None:
        if not (self.risk < 0):
            raise ValueError("risk parameter must be negative")
        if not (0.0 < self.substitution < 1.0):
            raise ValueError("substitution parameter must lie in (0, 1)")
        if not (self.discount > 0):
            raise ValueError("discount rate must be positive")
        if not (self.adequacy > 0):
            raise ValueError("adequacy level must be positive")


GainFunction = Union[VnmParams, ExpKmParams, EzParams]


# ---------------------------------------------------------------------------
# Law-based evaluation of deterministic and node-adapted streams
# ---------------------------------------------------------------------------


def _any_negative(rates: np.ndarray) -> bool:
    """Whether some rate is negative; a NaN rate, which no comparison catches, raises."""
    least = np.min(rates)
    if np.isnan(least):
        raise ValueError("consumption rates must not be NaN")
    return bool(least < 0)


def vnm_value_of_rates(gain: VnmParams, rates: np.ndarray, table: MortalityTable) -> float:
    """Exact value of a deterministic rate stream under the mortality law."""
    grid = table.grid
    rates = np.broadcast_to(np.asarray(rates, dtype=float), (grid.n_steps,))
    if _any_negative(rates):
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
    if _any_negative(rates):
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
    if _any_negative(rates):
        return -np.inf
    partial = np.cumsum(gain.utility(rates)) * grid.dt  # integral up to and incl. t
    masses = table.p * grid.dt
    return float(np.sum(masses * (-np.exp(-partial))))


def exp_km_value_on_lattice(
    gain: ExpKmParams, stream: Stream, table: MortalityTable, lattice: Lattice
) -> float:
    """Backward evaluation of the multiplicative family on the lattice."""
    if _any_negative(np.concatenate(stream)):
        return -np.inf
    return float(_gain_levels(gain, stream, table, lattice)[0][0][0])


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


def _gain_levels(gain, rates: list, table: MortalityTable, lattice: Lattice | None = None):
    """``_backward_levels`` on the gain's own step and death value, for rates given per level."""
    points, dt = table.grid.points, table.grid.dt
    return _backward_levels(lambda i, e: gain.step(points[i], rates[i], e, dt), gain.death_value, table, lattice)


def _rate_levels(consumption, m: int) -> list:
    """Rates per level: a node stream as given, deterministic rates one per level."""
    if isinstance(consumption, list):
        return [np.asarray(level, dtype=float) for level in consumption]
    return list(np.broadcast_to(np.asarray(consumption, dtype=float), (m,)))


def _ez_drift(alpha: float, rho: float, b: float, consumption, value):
    """Aggregator drift f(c, v) at raw parameters, without domain checks."""
    av = alpha * value  # positive wherever v < 0
    return (b / rho) * (np.power(consumption, rho) * np.power(av, 1.0 - rho / alpha) - av)


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
        values, _ = _gain_levels(_Recursive(risk, substitution, discount, adequacy), rates, table, lattice)
    broken = [i for i, level in enumerate(values) if not np.all(np.isfinite(level))]
    if broken:
        raise ValueError(f"recursive value not finite at level {broken[-1]}: the explicit step left the domain v < 0")
    return float(values[0][0])
