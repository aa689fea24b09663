"""Gain functions over (consumption stream, death time) outcomes.

Three families are supported: expected discounted utility with mortality
(``VnmParams``), the exponential multiplicative family (``ExpKmParams``,
outer ``-exp(-integral u)``), and recursive utility with separate risk and
substitution parameters plus an adequacy level (``EzParams``).  All
consumption arguments are rates with respect to the grid measure.  The
evaluators pass every stream through ``market.validate_stream``, so a
malformed level or a non-finite or negative rate raises ``ValueError``.

Each family is one backward step on an investor's chain, given alive, and
every solver calls the same pieces of it:

* ``death_value``: the value once dead (0, -1 and the adequacy value);
* ``step(t, rate, expected, dt)``: the alive value at time ``t`` from the
  step's consumption rate and the expected next value, death included;
* ``partials(t, rate, expected, dt)``: the step's derivatives in the rate
  and in the expected value, for the pricing route's adjoint gradient.
  Only the multiplicative and recursive families have them: the additive
  family's pricing route is in closed form;
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
same sweep.  The additive family's value is also a weighted sum of
utilities over nodes or paths, scored by ``_additive_terms`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .market import Lattice, Stream, stream_rows, validate_stream
from .mortality import MortalityTable


# ---------------------------------------------------------------------------
# Utility functions on consumption rates
# ---------------------------------------------------------------------------
#
# Each utility writes its values into ``out`` when one is given (an array
# of the input's shape, which may be the input itself) and into a new
# array otherwise, with the same values either way.  A NaN rate gives a
# NaN utility, and no rate a floating-point warning.


def _output_for(c: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    return np.empty_like(c) if out is None else out


@dataclass(frozen=True)
class PowerUtility:
    """u(c) = c**exponent / exponent with exponent < 1, != 0."""

    exponent: float

    def __post_init__(self) -> None:
        if not (-math.inf < self.exponent < 1.0) or self.exponent == 0.0:
            raise ValueError(f"power exponent must be finite, < 1 and nonzero, got {self.exponent}")

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        at_zero = c <= 0
        out = _output_for(c, out)
        # Below exponent -1 a small rate's power overflows to inf: u is -inf there.
        with np.errstate(over="ignore"):
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
        if not (0.0 < self.rate < math.inf):
            raise ValueError(f"exponential utility rate must be positive and finite, got {self.rate}")

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
        if not (0.0 <= self.discount < math.inf):
            raise ValueError(f"discount must be nonnegative and finite, got {self.discount}")

    def step(self, t, rate, expected, dt):
        return np.exp(-self.discount * t) * self.utility(rate) * dt + expected

    def consumption(self, t, expected, survival, drain, slope, dt):
        """The first-order condition's rate: ``exp(-b t) u'(c) = survival * drain * slope``."""
        return self.utility.inverse_marginal(np.exp(self.discount * t) * survival * drain * slope)


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
        if not (-math.inf < self.risk < 0):
            raise ValueError(f"risk must be negative and finite, got {self.risk}")
        if not (0.0 < self.substitution < 1.0):
            raise ValueError(f"substitution must lie in (0, 1), got {self.substitution}")
        if not (0.0 < self.discount < math.inf):
            raise ValueError(f"discount must be positive and finite, got {self.discount}")
        if not (0.0 < self.adequacy < math.inf):
            raise ValueError(f"adequacy must be positive and finite, got {self.adequacy}")


GainFunction = Union[VnmParams, ExpKmParams, EzParams]


# ---------------------------------------------------------------------------
# Evaluation of node-adapted streams
# ---------------------------------------------------------------------------


def vnm_value_on_lattice(
    gain: VnmParams, stream: Stream, table: MortalityTable, lattice: Lattice
) -> float:
    """Exact value of a node-adapted rate stream (death independent of market)."""
    rates = validate_stream(stream, table.grid, lattice)
    grid = lattice.grid
    m = grid.n_steps
    # A node weighs its probability of being reached alive; the padding weighs zero.
    weights = table.pi[:m, None] * lattice.node_weights("P")[:m]
    terms = _additive_terms(gain, rates, weights, np.exp(-gain.discount * grid.points)[:, None])
    return float(np.sum(terms) * grid.dt)


def exp_km_value_on_lattice(
    gain: ExpKmParams, stream: Stream, table: MortalityTable, lattice: Lattice
) -> float:
    """Backward evaluation of the multiplicative family on the lattice."""
    rates = stream_rows(validate_stream(stream, table.grid, lattice))
    return float(_gain_levels(gain, rates, table, lattice)[0][0][0])


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


def _additive_terms(gain: VnmParams, rates: np.ndarray, weights, factors) -> np.ndarray:
    """The additive family's terms ``weights * u(rates) * factors``, written over ``rates``.

    ``weights`` and ``factors`` broadcast against ``rates``.  A term of zero
    weight is zero whatever its rate, so u(0) = -inf is harmless there; a
    NaN rate of positive weight raises ``ValueError``.
    """
    scored = weights > 0
    if np.isnan(np.min(rates, initial=np.inf, where=scored)):
        raise ValueError("consumption rates must not be NaN")
    terms = gain.utility(rates, out=rates)
    np.copyto(terms, 0.0, where=~scored)
    terms *= weights
    terms *= factors
    return terms


def _ez_drift(alpha: float, rho: float, b: float, consumption, value):
    """Aggregator drift f(c, v) at raw parameters, without domain checks."""
    av = alpha * value  # positive wherever v < 0
    return (b / rho) * (np.power(consumption, rho) * np.power(av, 1.0 - rho / alpha) - av)


# ---------------------------------------------------------------------------
# Recursive family
# ---------------------------------------------------------------------------


def ez_utility_discrete(
    params: _Recursive,
    consumption: Stream | np.ndarray | float,
    table: MortalityTable,
    lattice: Lattice | None = None,
) -> float:
    """Value of a consumption plan under the recursive preferences.

    Args:
        params: ``EzParams``, or ``_Recursive`` for raw parameters (e.g.
            ``substitution == risk``: discounted expected power utility).
        consumption: a scalar or per-grid-point array of deterministic
            rates, with or without a lattice, or a node-adapted stream on
            a lattice sharing the table's grid.
        table: the individual's mortality law; death is certain by the
            horizon, which anchors the terminal condition.

    Returns V_0, which lies in (-inf, 0); consuming the adequacy rate
    returns the adequacy value exactly.  Raises ``ValueError`` naming the
    first level of the sweep whose value is not finite, where the explicit
    step leaves the domain v < 0.
    """
    rates = stream_rows(validate_stream(consumption, table.grid, lattice))
    with np.errstate(invalid="ignore", over="ignore"):
        values, _ = _gain_levels(params, rates, table, lattice)
    broken = [i for i, level in enumerate(values) if not np.all(np.isfinite(level))]
    if broken:
        raise ValueError(f"recursive value not finite at level {broken[-1]}: the explicit step left the domain v < 0")
    return float(values[0][0])
