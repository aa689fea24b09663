"""Value functions of homogeneous collective funds.

Computes the optimal per-survivor consumption and risky allocation for a
pool of ``n`` identical investors (``n`` may be infinite) and the value
achieved by one member.  Since concave gains make the equal-split
strategy weakly dominant, the state is (time, survivor count, fund
wealth) rather than anything per-individual.

Each dynamic-programming solver runs on one investor's chain, given
alive.  A finite pool drains by the survivor count j = 1..n, the investor
included, and each step mixes the j - 1 others by the survivor kernel; the
infinite pool drains by the survival fraction, with nothing to mix.  The
investor's own death is the family's death branch (worth zero for the
additive family).  By exchangeability the pool's value is j/n times the
investor's: the two agree at the start (j = n) and share every policy.

Solvers
-------
* Power and log utility factor the wealth dependence out of the Bellman
  equation exactly.  One scaling solver over either drain measure, with
  log utility as exponent zero, runs a recursion over (time, drain state)
  with closed-form consumption splits; only the allocation needs a line
  search.
* The remaining families (recursive utility with adequacy, the
  multiplicative family, exponential utility) run on a geometric wealth
  grid with shape-preserving cubic interpolation, by the endogenous grid
  method: each step makes one line search, over the risky fraction at
  fixed post-consumption wealth, takes consumption from the family's
  first-order condition and values the policy by the family's step.  The
  line search is a short golden-section bracket, then a few Newton steps
  on the first-order condition, whose derivatives the piecewise-cubic
  interpolant gives exactly.
* The infinite pool is additionally solved by the pricing route: choose
  the adapted consumption stream maximizing the gain subject to its
  replication cost not exceeding the budget, then replicate.  For power
  and log utility (exponent zero) the stream is one closed form,
  ``c ~ (exp((b - r) t) dQ/dP) ** (1 / (alpha - 1))``; the recursive
  and multiplicative families solve the problem's first-order conditions
  by an ascent on the exact utility gradient, the adjoint of the family's
  backward sweep.  The route cross-checks the dynamic-programming one.

Every route returns, as ``ValueResult.strategy``, a policy the fund runs
(``fund.Strategy``): the scaling solver's tables, the wealth grid's
``GridPolicy``, and for the pricing route a ``fund.NodePolicy`` that pays
the stream and holds its replication.  No result carries an error
estimate; where both routes ran, ``extras`` holds both values.

The per-family math (death value, step, the consumption rule, and for the
recursive and multiplicative families the step's partials) lives on the
gain's parameter set in ``preferences``, and the grid solver, the numeric
pricing route and the annuity benchmark call it alone.  The family is
inspected here only to choose a solver and in the Monte Carlo estimators,
which score the additive family alone, by ``preferences._additive_terms``.

Consumption policies are rates per survivor; the cash drained from the
fund at a grid point is ``count * rate * dt`` (or ``pi_t * rate * dt``
per person in the infinite pool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .fund import NodePolicy, Strategy, TabulatedPolicy, evolve_finite, evolve_infinite
from .grid import TimeGrid
from .market import (
    Lattice,
    MarketModel,
    Stream,
    build_lattice,
    replicate,
    sample_lattice_paths,
    stack_stream,
    stream_rows,
    validate_stream,
)
from .mortality import (
    MortalityTable,
    binomial_transition_matrix,
    bound_chain,
    pool_size,
    simulate_survivor_counts,
    survivor_bound,
)
from .preferences import (
    GainFunction,
    LogUtility,
    PowerUtility,
    VnmParams,
    _additive_terms,
    _gain_levels,
    vnm_value_on_lattice,
)


class WealthGridExceeded(RuntimeError):
    """A continuation evaluation left the configured wealth grid."""


@dataclass(frozen=True)
class HomogeneousProblem:
    """One fund of identical investors.

    ``n`` is the pool size (may be ``math.inf``); ``budget`` is the
    per-person contribution at time zero.
    """

    gain: GainFunction
    table: MortalityTable
    model: MarketModel
    grid: TimeGrid
    budget: float
    n: float

    def __post_init__(self) -> None:
        if not (0.0 < self.budget < math.inf):
            raise ValueError(f"per-person budget must be positive and finite, got {self.budget}")
        if not (self.n == math.inf or (float(self.n).is_integer() and self.n >= 1)):
            raise ValueError("pool size must be a positive integer or infinity")
        if self.table.grid != self.grid:
            # Solvers take dt and discounting from grid and survival from
            # table; on different grids they would mix the two silently.
            raise ValueError(f"mortality table grid {self.table.grid} differs from the problem grid {self.grid}")

    def lattice(self) -> Lattice:
        """The problem's lattice: the one every problem on this model and grid shares (``build_lattice``)."""
        return build_lattice(self.model, self.grid)

    def with_n(self, n) -> "HomogeneousProblem":
        return HomogeneousProblem(self.gain, self.table, self.model, self.grid, self.budget, n)


@dataclass
class ValueResult:
    """Solver output: the value, a policy the fund runs on every route, and diagnostics (no error estimate)."""

    value: float
    method: str
    strategy: Strategy
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Line-search helpers
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 18  # golden-section iterations per line search
_NEWTON_STEPS = 3  # safeguarded Newton steps after them


def golden_max_vec(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized maximization with per-point brackets, in two stages.

    The wealth-grid solver makes one search per time step, over the risky
    fraction at fixed post-consumption wealth.  A short golden-section
    stage narrows each bracket ``_GOLDEN_ITERS`` times, keeping the
    surviving interior point and its value.  From that point,
    ``_NEWTON_STEPS`` Newton steps on fn' = 0 use ``derivatives(x)``, the
    first and second derivatives of ``fn``; a step is taken only where fn
    is concave, each candidate is clipped into the golden bracket, and it
    is kept only if it raises ``fn``.  The bracket's two ends are the last
    candidates, so a maximum at an allocation bound is found exactly.
    ``fn`` is called ``_GOLDEN_ITERS + _NEWTON_STEPS + 3`` times: two
    opening probes, one per later golden iteration, one per Newton step
    and one per bracket end.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for i in range(_GOLDEN_ITERS):
        move_up = f1 < f2
        a = np.where(move_up, x1, a)
        b = np.where(move_up, b, x2)
        if i == _GOLDEN_ITERS - 1:
            break
        # Moving up, the old x2 becomes x1 and a new x2 is probed; moving
        # down, the old x1 becomes x2 and a new x1 is probed.
        x_new = np.where(move_up, a + _INVPHI * (b - a), b - _INVPHI * (b - a))
        f_new = fn(x_new)
        x1, f1, x2, f2 = (
            np.where(move_up, x2, x_new),
            np.where(move_up, f2, f_new),
            np.where(move_up, x_new, x1),
            np.where(move_up, f_new, f1),
        )
    x, fx = np.where(move_up, x2, x1), np.where(move_up, f2, f1)

    def keep_better(candidate):
        f_candidate = fn(candidate)
        better = f_candidate > fx
        return np.where(better, candidate, x), np.where(better, f_candidate, fx)

    for _ in range(_NEWTON_STEPS):
        slope, curvature = derivatives(x)
        step = np.divide(slope, curvature, out=np.zeros_like(x), where=curvature < 0.0)
        x, fx = keep_better(np.clip(x - step, a, b))
    for end in (a, b):
        x, fx = keep_better(end)
    return x, fx


def allocation_bounds(lattice: Lattice) -> tuple[float, float]:
    """Risky fractions keeping one-step wealth strictly positive on both branches."""
    rf = math.exp(lattice.rate * lattice.grid.dt)
    up, down = lattice.up, lattice.down
    if up <= down + 1e-15:
        return 0.0, 0.0
    hi = rf / (rf - down) - 1e-9 if rf > down else 40.0
    lo = -rf / (up - rf) + 1e-9 if up > rf else -40.0
    return lo, hi


def _portfolio_gross(lattice: Lattice, a) -> tuple[np.ndarray, np.ndarray]:
    """Gross one-step returns on the (down, up) branches for fraction ``a``."""
    rf = math.exp(lattice.rate * lattice.grid.dt)
    a = np.asarray(a, dtype=float)
    return a * lattice.down + (1.0 - a) * rf, a * lattice.up + (1.0 - a) * rf


def best_power_growth(lattice: Lattice, alpha: float) -> tuple[float, float]:
    """Optimal risky fraction and one-step growth term of a scaling investor.

    The growth term is E[G**alpha] for power utility and E[log G] for log
    utility, passed as ``alpha = 0``.  The first-order condition fixes the
    ratio of the gross returns, G_up / G_down = R with
    ``R = ((1 - p)(rf - d) / (p (u - rf))) ** (1 / (alpha - 1))``, so the
    fraction is ``rf (R - 1) / ((u - rf) + R (rf - d))``, clipped to the
    allocation bounds.  When one branch has no weight against the other
    the objective is monotone and the fraction is a bracket edge.
    """
    p = lattice.p_up
    rf = math.exp(lattice.rate * lattice.grid.dt)
    lo, hi = allocation_bounds(lattice)
    down_loss, up_gain = (1.0 - p) * (rf - lattice.down), p * (lattice.up - rf)
    if not lo < hi:
        a_star = 0.0
    elif down_loss <= 0.0:
        a_star = hi
    elif up_gain <= 0.0:
        a_star = lo
    else:
        ratio = (down_loss / up_gain) ** (1.0 / (alpha - 1.0))
        a_star = rf * (ratio - 1.0) / ((lattice.up - rf) + ratio * (rf - lattice.down))
        a_star = min(max(a_star, lo), hi)
    g_down, g_up = _portfolio_gross(lattice, a_star)
    if alpha == 0.0:
        return float(a_star), float((1 - p) * math.log(g_down) + p * math.log(g_up))
    return float(a_star), float((1 - p) * g_down**alpha + p * g_up**alpha)


def _power_split(a_coef, b_coef, alpha: float):
    """Optimal consumed fraction k and bracket value A k^a + B (1-k)^a.

    Elementwise on arrays.  With s = 1/(1-a) the first-order condition
    gives k = A^s / (A^s + B^s) and the bracket value (A^s + B^s)^(1-a);
    B = 0 (no continuation) consumes everything.
    """
    s = 1.0 / (1.0 - alpha)
    a_s = a_coef**s
    total = a_s + b_coef**s
    return a_s / total, total ** (1.0 - alpha)


# ---------------------------------------------------------------------------
# Scaling solver (power and log utility)
# ---------------------------------------------------------------------------


def _scaling_exponent(gain: GainFunction) -> float | None:
    """Exponent of a power or log (zero) additive gain; None for other families."""
    if isinstance(gain, VnmParams):
        if isinstance(gain.utility, PowerUtility):
            return gain.utility.exponent
        if isinstance(gain.utility, LogUtility):
            return 0.0
    return None


def _solve_scaling(problem: HomogeneousProblem, alpha: float) -> ValueResult:
    """Backward induction for power utility, or log utility as ``alpha = 0``.

    The investor's value given alive at fund wealth F is
    ``(F**alpha / alpha) * theta`` for power and ``a * log(F) + c`` for log
    utility, with coefficients that depend on time and the drain state
    alone.  Every state consumes a closed-form fraction of wealth and holds
    the same risky fraction.  A finite pool mixes one coefficient per step,
    theta or c, by the product ``mix`` of the step's banded kernel; log's a
    is the same at every count, so it steps as a scalar, and log's fraction
    is the infinite pool's at every count.  The infinite pool, one state,
    stays on Python floats: on 1-element arrays a quarterly 40-year solve
    took 1.8 ms (power) and 3.7 ms (log) against 0.46 and 0.56 ms (2-core
    Xeon), and the benchmark's ``scaling-desk`` makes 40 infinite-pool
    solves per pass.
    """
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    survival = problem.table.step_survival.tolist()
    pi = problem.table.pi[:m].tolist()
    a_star, growth = best_power_growth(lattice, alpha)
    disc = np.exp(-problem.gain.discount * grid.points).tolist()
    finite = math.isfinite(problem.n)
    # The infinite pool is one state holding one person's wealth.
    n = int(problem.n) if finite else 1
    counts = np.arange(1, n + 1)
    # Value coefficients, (theta,) or (a, c), and consumed fractions.  The
    # last coefficient is an array over the survivor counts 1..n, mixed by
    # the step's kernel, or a scalar in the infinite pool.  Log's a is the
    # same at every count, since each kernel row sums to 1, so it steps as
    # the infinite pool's scalar in both pools, and so does its fraction.
    coefs = [0.0] * (1 if alpha else 2)
    if finite:
        coefs[-1] = np.zeros(n)
    fractions = [0.0] * m
    # The drain's term in the utility of the per-survivor rate k F / (drain dt):
    # drain ** (-alpha) for power, log(drain * dt) for log.  The finite pool
    # drains at its survivor counts, the same at every step.
    dt_term = dt ** (1.0 - alpha)
    if finite:
        count_term = counts ** (-alpha) if alpha else np.log(counts * dt)

    for t in range(m - 1, -1, -1):
        if finite:
            drain_term = count_term
            mixed = survival[t] * binomial_transition_matrix(n - 1, survival[t]).mix(coefs[-1])
        elif pi[t] > 0:
            drain_term = pi[t] ** (-alpha) if alpha else math.log(pi[t] * dt)
            mixed = survival[t] * coefs[-1]
        else:
            continue  # pi only falls, so these are the last steps: value and policy stay zero
        if alpha:
            a_coef = disc[t] * drain_term * dt_term
            k, theta = _power_split(a_coef, growth * mixed, alpha)
            new = [theta]
        else:
            a_next, c_next = survival[t] * coefs[0], mixed
            w = disc[t] * dt
            # k = w / (w + a) is 1 where a = 0 (no continuation); log(1)
            # then stands in for log(1 - k) and the continuation term is 0.
            k = w / (w + a_next)
            cont = a_next * (math.log(1.0 - k + (a_next <= 0)) + growth)
            new = [w + a_next, w * (math.log(k) - drain_term) + cont + c_next]
        fractions[t], coefs = k, new

    # Policy columns are counts, so count 0 keeps a zero column.
    kappa = np.zeros((m, n + 1 if finite else 1))
    kappa[:, -n:] = np.reshape(fractions, (m, -1))
    initial = [np.ravel(v)[-1] for v in coefs]
    f0 = n * problem.budget
    value = (f0**alpha / alpha) * initial[0] if alpha else initial[0] * math.log(f0) + initial[1]
    policy = TabulatedPolicy(grid, kappa, np.full(kappa.shape, a_star))
    return ValueResult(value=float(value), method="dp", strategy=policy)


# ---------------------------------------------------------------------------
# Wealth-grid solver (recursive, multiplicative, exponential families)
# ---------------------------------------------------------------------------


def wealth_grid(scale: float, lattice: Lattice, n_points: int) -> np.ndarray:
    """Geometric wealth grid with headroom above any reachable wealth."""
    top = scale * max(1e2, 1.05 * lattice.up ** lattice.n_steps)
    bottom = 1e-4 * scale
    return np.geomspace(bottom, top, n_points)


@dataclass(frozen=True)
class GridPolicy:
    """Policy interpolated on the wealth grid per (time, survivor count)."""

    grid: TimeGrid
    fgrid: np.ndarray
    kappa: np.ndarray  # (m, n_states, n_grid) consumed fraction of wealth
    fraction: np.ndarray  # (m, n_states, n_grid)

    def _lookup(self, table, t_idx, alive, wealth):
        # State index = survivor count; the infinite pool has one state.
        states = np.clip(np.asarray(alive).astype(int), 0, table.shape[1] - 1)
        w = np.asarray(wealth, dtype=float)
        if np.any(w > 4.0 * self.fgrid[-1]):
            raise WealthGridExceeded(
                f"wealth {float(np.max(w)):.3g} far beyond the solved grid top {self.fgrid[-1]:.3g}"
            )
        logw = np.log(np.clip(w, self.fgrid[0], self.fgrid[-1]))
        loggrid = np.log(self.fgrid)
        out = np.empty(np.shape(wealth))
        for state in np.unique(states):
            mask = states == state
            out[mask] = np.interp(logw[mask], loggrid, table[t_idx, state])
        return out

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        alive = np.asarray(alive, dtype=float)
        kappa = self._lookup(self.kappa, t_idx, alive, wealth)
        safe = np.maximum(alive, 1e-300)
        return np.where(alive > 0, kappa * np.asarray(wealth) / (safe * self.grid.dt), 0.0)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return self._lookup(self.fraction, t_idx, alive, wealth)


def _pchip_slopes(h: np.ndarray, secant: np.ndarray) -> np.ndarray:
    """Node slopes of the PCHIP interpolant, from interval widths and secants.

    ``secant`` has one row per interpolated function, one column per
    interval of widths ``h``; the result has one more column, one per node.

    The same slopes as ``scipy.interpolate.PchipInterpolator``: inside,
    the Fritsch-Carlson weighted harmonic mean of the adjacent secants, or
    zero where they differ in sign or either is zero; at the ends, the
    one-sided three-point rule, set to zero if it points against its
    secant and limited to three times that secant where the first two
    secants differ in sign.  The mean ``(w1 + w2) / (w1/m0 + w2/m1)`` is
    evaluated as ``m0 * (w1 + w2) * m1 / (w1*m1 + w2*m0)``, which divides
    by no secant and so cannot overflow when one is tiny.
    """
    m0, m1 = secant[:, :-1], secant[:, 1:]
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same_sign = (np.sign(m0) == np.sign(m1)) & (m0 != 0.0) & (m1 != 0.0)
    ratio = np.divide((w1 + w2) * m1, w1 * m1 + w2 * m0, out=np.zeros_like(m0), where=same_sign)
    slopes = np.empty((secant.shape[0], secant.shape[1] + 1))
    slopes[:, 1:-1] = m0 * ratio

    def end(h0, h1, s0, s1):
        d = ((2.0 * h0 + h1) * s0 - h0 * s1) / (h0 + h1)
        d = np.where(np.sign(d) != np.sign(s0), 0.0, d)
        return np.where((np.sign(s0) != np.sign(s1)) & (np.abs(d) > 3.0 * np.abs(s0)), 3.0 * s0, d)

    slopes[:, 0] = end(h[0], h[1], secant[:, 0], secant[:, 1])
    slopes[:, -1] = end(h[-1], h[-2], secant[:, -1], secant[:, -2])
    return slopes


class PchipInterpolator:
    """Shape-preserving cubic (PCHIP) interpolant of each row of ``y`` on ``x``.

    ``x`` is a uniform grid, so a point finds its interval by arithmetic.
    The per-interval cubics of every row are laid end to end, and a call
    reads each point's cubic by one flat gather: row ``r`` of ``y`` is
    evaluated at ``points[..., r, :]``, clamped to the grid's ends.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.step = (x[-1] - x[0]) / (x.size - 1)
        dx = np.diff(x)
        secant = np.diff(y, axis=1) / dx
        slopes = _pchip_slopes(dx, secant)
        d0, d1 = slopes[:, :-1], slopes[:, 1:]
        curv = (d0 + d1 - 2.0 * secant) / dx
        # Coefficients of (x - x_k)^3, ^2, ^1 and ^0 on interval k of each row.
        self.pieces = np.stack([curv / dx, (secant - d0) / dx - curv, d0, y[:, :-1]]).reshape(4, -1)
        self.row_base = np.arange(y.shape[0])[:, None] * (x.size - 1)

    def __call__(self, points: np.ndarray, nu: int = 0):
        """Values at ``points``, their first derivatives for ``nu = 1``, or
        the pair of first and second derivatives for ``nu = 2``.

        Beyond the grid's ends the value is the end value, so the
        derivatives there are zero.
        """
        x = self.x
        clamped = np.minimum(np.maximum(points, x[0]), x[-1])
        k = np.minimum(((clamped - x[0]) / self.step).astype(np.intp), x.size - 2)
        c3, c2, c1, c0 = np.take(self.pieces, self.row_base + k, axis=1)
        u = clamped - x[k]
        if not nu:
            return ((c3 * u + c2) * u + c1) * u + c0
        inside = clamped == points
        first = np.where(inside, (3.0 * c3 * u + 2.0 * c2) * u + c1, 0.0)
        return first if nu == 1 else (first, np.where(inside, 6.0 * c3 * u + 2.0 * c2, 0.0))


# The continuation's marginal value counts as zero below this share of its
# value per unit of log wealth: the PCHIP slope of values equal to rounding.
_FLAT_RTOL = 1e-13
# Consumed fraction of grid wealth below every endogenous point, where the
# continuation is clamped at the grid bottom.
_KAPPA_MAX = 1.0 - 1e-9


def _solve_on_grid(problem: HomogeneousProblem, n_points: int) -> ValueResult:
    """Backward induction on the wealth grid, finite or infinite pool.

    Each time step handles every drain state at once, values being one
    (states x wealth) array mixed by the step's banded kernel (``mix``,
    which runs the one product through a dense block where the many wealth
    columns make that faster), by the endogenous grid method (Carroll
    2006) on post-consumption
    wealth x, taken on the grid itself:

    1. one search over the risky fraction a maximizes the continuation
       E(x) = (1 - p) V(x R_d) + p V(x R_u); every family's step
       increases in E, so the best fraction does not depend on
       consumption.  A short golden bracket is refined by Newton steps on
       dE/da = 0, with dE/da and d2E/da2 read from one gather of the
       interpolant's cubics (``golden_max_vec``);
    2. by the envelope theorem E'(x) is the probability-weighted slope of
       the interpolant at the two branches;
    3. the family's first-order condition at fixed x gives the rate c, and
       with it the endogenous wealth F = x + c * drain * dt;
    4. x and the fraction are interpolated from the points (F, x) back onto
       the grid, linearly in log wealth.  Grid wealth below every point
       consumes the fraction ``_KAPPA_MAX``; wealth above every point keeps
       the last point's x and consumes the rest;
    5. each grid point's value is the family's step at that policy, with E
       from the interpolant and capped at the family's ``value_cap``, so
       the value is the value of the policy returned, given the
       interpolated continuation.

    ``extras`` counts, over all steps and states, the points where
    (1 - d) E'(x) is zero to rounding (the last step, the flat top of the
    grid), the points whose first-order condition has no root in the
    family's domain, and the endogenous points left out because a larger x
    gave a smaller F (a continuation that is not concave, as where the
    line search lands on different local maxima near the clamped grid
    bottom), and the grid values above the family's ``value_cap`` before
    the cap (``capped_points``).
    """
    if n_points < 3:
        raise ValueError("need wealth_points >= 3")
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    s = problem.table.step_survival
    # The drain table: each state's policy row and drain measure per step.
    # A pool of n has the survivor counts 1..n: from j, k of the j - 1
    # others survive, mixed by the step's kernel; count 0 keeps a zero
    # policy row.  The infinite pool has one state, draining at pi_t.
    finite = math.isfinite(problem.n)
    if finite:
        n = int(problem.n)
        rows = np.arange(1, n + 1)
        drain = np.broadcast_to(rows.astype(float), (m, n))
    else:
        n = 1
        rows = np.zeros(1, dtype=int)
        drain = problem.table.pi[:m, None]
    gain = problem.gain
    scale = n * problem.budget
    fgrid = wealth_grid(scale, lattice, n_points)
    log_fgrid = np.log(fgrid)
    p_up = lattice.p_up
    a_lo, a_hi = allocation_bounds(lattice)

    values = np.full((rows.size, fgrid.size), gain.death_value)
    shape = values.shape
    lo_a, hi_a = np.full(shape, a_lo), np.full(shape, a_hi)
    kappa_pol = np.zeros((m, rows[-1] + 1, fgrid.size))
    frac_pol = np.zeros((m, rows[-1] + 1, fgrid.size))
    counts = dict.fromkeys(("flat_continuation_points", "no_root_points", "non_monotone_points", "capped_points"), 0)

    def log_gross(frac):
        return np.log(np.stack(_portfolio_gross(lattice, frac)))

    # Per branch: the probability and the excess return over the riskless
    # one, the derivative of the gross return in the fraction.
    rf = math.exp(lattice.rate * dt)
    weight = np.array([1.0 - p_up, p_up])[:, None, None]
    excess = np.array([lattice.down - rf, lattice.up - rf])[:, None, None]

    for t in range(m - 1, -1, -1):
        if not np.all(drain[t] > 0):
            continue  # the infinite pool once pi_t is zero: value and policy stay
        mixed = binomial_transition_matrix(n - 1, s[t]).mix(values) if finite else values
        interpolant = PchipInterpolator(log_fgrid, mixed)

        def continuation(log_post, frac):
            # Clamped at both ends: the top carries headroom above any
            # wealth reachable from the start.
            down, up = interpolant(log_post + log_gross(frac))
            return (1.0 - p_up) * down + p_up * up

        dm = np.broadcast_to(drain[t, :, None], shape)
        death_prob = 1.0 - s[t]
        t_now = grid.points[t]

        def expected(cont):
            # Given alive now: death absorbs at the family's death value.
            return death_prob * gain.death_value + (1.0 - death_prob) * cont

        def continuation_derivatives(frac):
            # With z = log G on each branch, z' = excess / G and z'' = -z'^2,
            # so E' = sum w V'(x + z) z' and E'' = sum w (V'' - V')(x + z) z'^2.
            gross = np.stack(_portfolio_gross(lattice, frac))
            dz = excess / gross
            first, second = interpolant(log_fgrid + np.log(gross), 2)
            return np.sum(weight * first * dz, axis=0), np.sum(weight * (second - first) * dz**2, axis=0)

        if np.all(mixed == mixed[:, :1]):
            # Every state's continuation is flat in wealth (the last step):
            # any fraction gives each row's constant, so none is searched.
            frac, cont = np.zeros(shape), np.broadcast_to(mixed[:, :1], shape)
        else:
            frac, cont = golden_max_vec(lambda a: continuation(log_fgrid, a), lo_a, hi_a, continuation_derivatives)
        slope_down, slope_up = interpolant(log_fgrid + log_gross(frac), 1)
        marginal = ((1.0 - p_up) * slope_down + p_up * slope_up) / fgrid
        live = (1.0 - death_prob) * marginal * fgrid > _FLAT_RTOL * np.abs(cont)
        rate = np.full(shape, np.nan)
        rate[live] = gain.consumption(t_now, expected(cont[live]), 1.0 - death_prob, dm[live], marginal[live], dt)
        log_wealth = np.log(fgrid + rate * dm * dt)
        valid = np.isfinite(log_wealth)
        # A point is kept only below every valid point at larger x, so that
        # one point of outsized F (a near-flat continuation) costs itself
        # alone.
        later = np.fmin.accumulate(np.where(valid, log_wealth, np.inf)[:, ::-1], axis=1)[:, ::-1]
        kept = valid.copy()
        kept[:, :-1] &= log_wealth[:, :-1] < later[:, 1:]
        counts["flat_continuation_points"] += int(np.count_nonzero(~live))
        counts["no_root_points"] += int(np.count_nonzero(live & ~valid))
        counts["non_monotone_points"] += int(np.count_nonzero(valid & ~kept))

        post = (1.0 - _KAPPA_MAX) * np.tile(fgrid, (shape[0], 1))
        for r in range(shape[0]):
            known = log_wealth[r, kept[r]]
            if known.size:
                inside = log_fgrid >= known[0]
                post[r, inside] = np.exp(np.interp(log_fgrid[inside], known, log_fgrid[kept[r]]))
                frac[r] = np.interp(log_fgrid, known, frac[r, kept[r]])
        kappa = 1.0 - post / fgrid
        with np.errstate(invalid="ignore", over="ignore"):  # the explicit recursive step at extreme rates
            values = gain.step(t_now, kappa * fgrid / (dm * dt), expected(continuation(np.log(post), frac)), dt)
        counts["capped_points"] += int(np.count_nonzero(values > gain.value_cap))
        values = np.minimum(values, gain.value_cap)
        kappa_pol[t, rows] = kappa
        frac_pol[t, rows] = frac

    value = float(np.interp(math.log(scale), log_fgrid, values[-1]))
    policy = GridPolicy(grid, fgrid, kappa_pol, frac_pol)
    return ValueResult(value=value, method="dp", strategy=policy, extras=counts)


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

MAX_SCALING_POOL = 512
MAX_GRID_POOL = 64


def _solve_dp(problem: HomogeneousProblem, wealth_points: int) -> ValueResult:
    """The dynamic-programming route over either drain measure (see solve_finite_dp)."""
    alpha = _scaling_exponent(problem.gain)
    cap = MAX_GRID_POOL if alpha is None else MAX_SCALING_POOL
    if math.isfinite(problem.n) and problem.n > cap:
        raise ValueError(f"pool size beyond desk scale for this family ({cap})")
    return _solve_on_grid(problem, wealth_points) if alpha is None else _solve_scaling(problem, alpha)


def solve_finite_dp(problem: HomogeneousProblem, wealth_points: int = 400) -> ValueResult:
    """Value of a finite pool by backward induction.

    Power and log utility use the exact wealth-scaling reduction; other
    families run on the wealth grid.  Pool sizes are capped at desk scale.
    """
    if not math.isfinite(problem.n):
        raise ValueError("use solve_infinite for the infinite pool")
    return _solve_dp(problem, wealth_points)


def solve_infinite(
    problem: HomogeneousProblem,
    wealth_points: int = 400,
    methods: Sequence[str] | None = None,
) -> ValueResult:
    """Value of the infinite pool, a finite problem's included, cross-checked between two routes.

    The dynamic-programming route works on per-person wealth with the
    deterministic survival drain.  The pricing route maximizes the gain
    over adapted streams costing the budget and replicates the winner
    (Cox and Huang 1989).  For power and log utility the stream is in
    closed form.  For the recursive and multiplicative families it solves
    the first-order conditions ``dJ/dc = nu * price`` at every lattice
    node, with the exact utility gradient (Duffie and Skiadas 1994), and
    stops once each node's ratio ``dJ/dc / (nu * price)`` is within 1e-10
    of one (at most 1 + 1e-10 where the rate sits at its floor);
    ``extras["converged"]`` reports whether that test was met, and the
    stream costs the budget whether or not it was.  Every route's
    strategy is a policy the fund runs: the pricing route's pays the
    stream and holds its replication (``fund.NodePolicy``).  With both
    routes the value comes from the pricing route when it is in closed
    form, otherwise from the DP, and ``extras`` holds both values; there
    is no error estimate.  By default every route the family has runs.
    """
    if problem.n != math.inf:
        problem = problem.with_n(math.inf)
    alpha = _scaling_exponent(problem.gain)
    # The routes by name, None where the family has none: the additive
    # family has a pricing route for power and log utility only.
    routes = {"dp": lambda: _solve_dp(problem, wealth_points), "martingale": None}
    if alpha is not None:
        routes["martingale"] = lambda: _martingale_closed_form(problem, alpha)
    elif not isinstance(problem.gain, VnmParams):
        routes["martingale"] = lambda: _martingale_numeric(problem)
    if methods is None:
        methods = [name for name, solve in routes.items() if solve]
    elif not methods:
        raise ValueError("no solution method selected")
    elif unknown := set(methods) - set(routes):
        raise ValueError(f"unknown solution routes {sorted(unknown)}; the routes are {' and '.join(map(repr, routes))}")
    elif not all(routes[name] for name in methods):
        raise TypeError("the additive family has a pricing route for power and log utility only")
    dp, mart = (solve() if name in methods else None for name, solve in routes.items())
    if not (dp and mart):
        return dp or mart
    primary = mart if mart.method == "closed_form" else dp
    primary.extras.update(dp_value=dp.value, martingale_value=mart.value, dp_strategy=dp.strategy,
                          stream=mart.extras["stream"], replication=mart.extras["replication"])
    return primary


# ---------------------------------------------------------------------------
# Pricing (martingale) route for the infinite pool
# ---------------------------------------------------------------------------


def _stream_price_coefficients(lattice: Lattice, table: MortalityTable) -> np.ndarray:
    """Per-node cost of one unit of per-survivor rate, dt e^{-rt} pi_t w_Q, as the stream triangle."""
    grid = lattice.grid
    pi = table.pi[: grid.n_steps]
    wq = lattice.node_weights("Q")[: grid.n_steps]
    return (grid.dt * np.exp(-lattice.rate * grid.points) * pi)[:, None] * wq


def _pricing_result(problem: HomogeneousProblem, lattice: Lattice, stream: Stream, value, method, **extras):
    """A pricing route's result, whose policy pays ``stream`` and holds the replication of its drain ``pi_t * c``."""
    m = problem.grid.n_steps
    rep = replicate(stream_rows(problem.table.pi[:m, None] * stack_stream(stream)), lattice)
    policy = NodePolicy(stream, rep.risky_fraction, np.ones(m, dtype=bool))  # the gate open at every step
    return ValueResult(float(value), method, policy, {"stream": stream, "replication": rep, **extras})


def _martingale_closed_form(problem: HomogeneousProblem, alpha: float) -> ValueResult:
    """Pointwise first-order solution for power utility, or log as ``alpha = 0``.

    The rate at a node is ``(exp((b - r) t) dQ/dP) ** (1 / (alpha - 1))``
    scaled to cost the budget: the exact optimum (Cox and Huang 1989).
    """
    gain = problem.gain
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    pi = problem.table.pi[:m]
    wp = lattice.node_weights("P")[:m]
    wq = lattice.node_weights("Q")[:m]
    with np.errstate(divide="ignore"):
        ell = np.where(wp > 0, wq / np.where(wp > 0, wp, 1.0), np.inf)
    kernel = np.exp((gain.discount - lattice.rate) * grid.points)[:, None] * ell
    live = np.tri(m, m + 1, dtype=bool) & (pi > 0)[:, None]
    raw = np.where(live, np.power(kernel, 1.0 / (alpha - 1.0)), 0.0)
    cost = np.sum(_stream_price_coefficients(lattice, problem.table) * raw)
    stream = stream_rows(raw * (problem.budget / cost))
    value = vnm_value_on_lattice(gain, stream, problem.table, lattice)
    return _pricing_result(problem, lattice, stream, value, "closed_form")


def _value_and_grad(gain: GainFunction, stream_flat, layout, table, lattice):
    """The gain of a node stream and its gradient in every node's rate.

    The value is the gain's backward sweep.  The gradient is its adjoint:
    each level's sensitivities (of the root value to the alive value at
    its nodes) pass back to the next level through the expectation the
    level's values were computed from, times the step's partial in that
    expectation, and a node's gradient entry is its sensitivity times the
    step's partial in its rate.
    """
    points, dt, p_up = lattice.grid.points, lattice.grid.dt, lattice.p_up
    survival = table.step_survival
    levels = [stream_flat[start:stop] for start, stop in layout]
    values, expected = _gain_levels(gain, levels, table, lattice)
    lam = np.array([1.0])
    grad = []
    for i, (c, e) in enumerate(zip(levels, expected)):
        d_rate, d_expected = gain.partials(points[i], c, e, dt)
        grad.append(lam * d_rate)
        factor = lam * d_expected * survival[i]
        lam = np.zeros(i + 2)
        lam[1:] += factor * p_up
        lam[:-1] += factor * (1.0 - p_up)
    return float(values[0][0]), np.concatenate(grad)


def _marginal_coordinate(gain: GainFunction) -> tuple[Callable, Callable]:
    """A node's coordinate for the pricing ascent, and its inverse.

    The coordinate is ``-log u'(c)`` for the gain's felicity ``u =
    gain.utility``, which is minus the log of the gain's marginal value in
    the node's rate up to terms that do not depend on that rate: ``(1 -
    rho) log c`` for the recursive family, ``rate * c`` for the
    multiplicative family with exponential utility, and ``(1 - exponent)
    log c`` for it with power utility (``log c`` for log utility).
    """
    u = gain.utility
    return (lambda c: -np.log(u.marginal(c))), (lambda h: u.inverse_marginal(np.exp(-h)))


# The pricing ascent stops once every first-order condition holds to this
# relative residual; the cap on its steps only guards against a stall.
_KKT_RTOL = 1e-10
_KKT_MAX_STEPS = 1000


@dataclass(frozen=True)
class _PricingSolution:
    """Rates found by the pricing ascent, and how the ascent ended."""

    x: np.ndarray
    value: float
    success: bool  # every first-order condition holds to _KKT_RTOL
    nit: int  # accepted steps
    nfev: int  # value-and-gradient evaluations, rejected trials included


def _kkt_ascent(value_and_grad, coordinate, price, budget: float, floor: float, x0) -> _PricingSolution:
    """Maximize ``J(c)`` over rates ``c >= floor`` costing ``price @ c == budget``.

    Solves the first-order conditions ``dJ/dc_x = nu price_x``, or at most
    that on a floored node, where ``nu = (c . grad J) / budget``.  Each step
    moves every node's ``coordinate`` (minus its log marginal utility, see
    ``_marginal_coordinate``) by the same multiple of its log ratio
    ``log(dJ/dc_x / (nu price_x))``: at a multiple of one, each node's own
    condition would hold if the other nodes stood still.  The multiple is
    the Barzilai-Borwein step of the last two iterates.  Rates are floored
    and then rescaled to cost the budget exactly, which the linear price
    allows.  A trial whose value or gradient leaves the domain (not finite,
    or a gradient entry not positive) is rejected and its step shrunk.
    Nodes of zero price keep their rates from ``x0``.
    """
    to_coordinate, from_coordinate = coordinate
    live = price > 0
    p = price[live]
    x = np.array(x0, dtype=float)
    nfev = 0

    def evaluate(c):
        nonlocal nfev
        nfev += 1
        x[live] = c
        with np.errstate(all="ignore"):
            value, grad = value_and_grad(x)
        grad = grad[live]
        return value, grad, math.isfinite(value) and bool(np.all((grad > 0) & (grad < np.inf)))

    c = x[live] * (budget / (p @ x[live]))
    floored = np.zeros(c.size, dtype=bool)
    value, grad, ok = evaluate(c)
    nit, step, previous, converged = 0, 1.0, None, False
    while ok:
        log_ratio = np.log(grad * (budget / (c @ grad)) / p)
        gap = np.expm1(log_ratio)
        converged = bool(np.max(np.where(floored, gap, np.abs(gap))) <= _KKT_RTOL)
        if converged or nit == _KKT_MAX_STEPS:
            break
        held = floored & (log_ratio < 0)  # at the floor, and wanting less
        h = to_coordinate(c)
        direction = np.where(held, 0.0, log_ratio)
        if previous is not None:
            moved, turned = h - previous[0], previous[1] - direction
            if moved @ turned > 0:
                step = (moved @ moved) / (moved @ turned)
        previous = (h, direction)
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                raw = np.where(held, floor, from_coordinate(h + step * direction))
                at_floor = raw <= floor
                scale = (budget - floor * (p @ at_floor)) / (p @ np.where(at_floor, 0.0, raw))
                trial = np.where(at_floor, floor, raw * scale)
            trial_value, trial_grad, ok = evaluate(trial)
            if ok or step < 1e-12:
                break
            step *= 0.25
        if ok:
            c, value, grad, floored = trial, trial_value, trial_grad, at_floor
            nit += 1
    x[live] = c
    return _PricingSolution(x, value, converged, nit, nfev)


# The pricing ascent is reached as ``optimize.minimize``, the name that the
# benchmark's tracer wraps to time it and count its steps and evaluations
# (``optimizer.pricing_minimize.*``).
optimize = SimpleNamespace(minimize=_kkt_ascent)


def _martingale_numeric(problem: HomogeneousProblem) -> ValueResult:
    """Pricing route for the recursive and multiplicative families.

    Maximizes the gain over node streams whose price is the budget, on the
    first-order conditions of that problem (``_kkt_ascent``, with the
    exact gradient of ``_value_and_grad``), from the annuity stream, with
    rates floored at ``1e-10`` times the annuity rate.  ``extras["converged"]`` says whether every node's
    first-order condition held to a relative residual of ``1e-10`` where
    the ascent stopped; it also stops at its step cap, or where no shrunk
    step stays in the family's domain.  The stream prices to the budget
    either way.
    """
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    table = problem.table
    layout = []
    start = 0
    for i in range(m):
        layout.append((start, start + i + 1))
        start += i + 1
    coeffs = _stream_price_coefficients(lattice, table)[np.tri(m, m + 1, dtype=bool)]
    annuity = annuity_rate(problem)
    gain = problem.gain
    value_and_grad = lambda x: _value_and_grad(gain, x, layout, table, lattice)
    coordinate = _marginal_coordinate(gain)
    floor = 1e-10 * annuity
    res = optimize.minimize(value_and_grad, coordinate, coeffs, problem.budget, floor, np.full(start, annuity))
    stream = [res.x[a:b2] for (a, b2) in layout]
    return _pricing_result(problem, lattice, stream, res.value, "martingale", converged=res.success)


# ---------------------------------------------------------------------------
# Annuity benchmark
# ---------------------------------------------------------------------------


def annuity_rate(problem: HomogeneousProblem) -> float:
    """Constant rate exhausting the budget against expected survival."""
    pi = problem.table.pi[: problem.grid.n_steps]
    return problem.budget / float(np.sum(pi) * problem.grid.dt)


def annuity_value(problem: HomogeneousProblem) -> float:
    """Gain of the best constant consumption (the defined-benefit benchmark).

    Valued by the family's own backward step on the investor's death chain;
    raises ``ValueError`` where the value is not finite.
    """
    rates = [annuity_rate(problem)] * problem.grid.n_steps
    with np.errstate(invalid="ignore", over="ignore"):  # the explicit recursive step at extreme rates
        value = float(_gain_levels(problem.gain, rates, problem.table)[0][0][0])
    if not math.isfinite(value):
        raise ValueError(f"annuity value {value} is not finite")
    return value


# ---------------------------------------------------------------------------
# Transfer of infinite-pool streams to finite pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferResult:
    """Monte Carlo outcome of running a scaled infinite-pool stream at finite n.

    ``gain_se`` is ``math.inf`` when a sampled path scores minus infinity
    (u(0) = -inf with a closed gate): the estimate is then -inf and its
    spread is undefined.  ``admissibility_violations`` counts the sampled
    paths on which the fund's wealth went negative, by the fund
    evolution's rule.
    """

    n: int
    lam: float
    gain_estimate: float
    gain_se: float
    exact_gain: float
    target_gain: float
    admissibility_violations: int
    trials: int


def _path_score(
    gain: VnmParams, grid: TimeGrid, weights: np.ndarray, rates: np.ndarray, n: float
) -> tuple[float, float]:
    """Mean and standard error of ``sum_t exp(-b t) (weight_t / n) u(rate_t) dt`` over paths.

    ``weights`` is ``(..., m)`` or one ``(m,)`` row shared by every path.
    Scores in place: ``rates`` is overwritten by the terms of the sum.
    Negative rates score as zero consumption, rates where the weight is
    zero not at all, and a NaN rate elsewhere raises ``ValueError``.  A
    path scoring minus infinity makes the estimate -inf and its standard
    error ``math.inf``.
    """
    terms = _additive_terms(gain, np.maximum(rates, 0.0, out=rates), weights, np.exp(-gain.discount * grid.points))
    per_path = np.sum(terms, axis=1) * (grid.dt / n)
    trials = per_path.shape[0]
    se = float(per_path.std(ddof=1) / np.sqrt(trials)) if np.all(np.isfinite(per_path)) else math.inf
    return float(per_path.mean()), se


def transfer_infinite_to_finite(
    stream: Stream,
    replication,
    lam: float,
    n: int,
    problem: HomogeneousProblem,
    trials: int,
    seed: int,
) -> TransferResult:
    """Run ``lam * stream`` in a finite pool, gated by the survivor bound.

    Survivors consume ``lam`` times the infinite-pool rate while the
    count stays within ``1/lam`` of its mean, and nothing afterwards; the
    fund invests exactly like the scaled infinite-pool replication, which
    keeps wealth nonnegative path by path.  Returns the Monte Carlo gain
    with its standard error plus the exact chain value, for the additive
    family.  The stream is checked once, at entry, by
    ``market.validate_stream``: a malformed level or a non-finite or
    negative rate raises before any path is drawn, as does a replication
    on another grid than the problem's.

    Beyond the sampled inputs (boolean up moves, and node indices and
    survivor counts in narrow unsigned types) the run holds only the
    fund values and rates as (trials, m) float arrays: the gate zeroes the
    rate inside the policy, so the counts drain as they are, and the
    rates are scored in place once the fund values and the paths are
    released.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    n = pool_size(n)
    if trials < 2:
        raise ValueError("need trials >= 2")
    gain = problem.gain
    if not isinstance(gain, VnmParams):
        raise TypeError("Monte Carlo transfer gains are defined for the additive family")
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    table = problem.table
    scaled = lam * validate_stream(stream, table.grid, lattice)
    if replication.lattice.grid != grid:
        raise ValueError(f"the replication is on {replication.lattice.grid}, the problem on {grid}")

    paths = sample_lattice_paths(lattice, trials, seed)
    counts = simulate_survivor_counts(n, table, trials, seed, label="transfer-mortality")
    # The gate stays open while every count so far is within the bound.
    # Step by step over the counts' contiguous columns, in place; the
    # 2-D ``np.logical_and.accumulate`` took six times as long.
    gate = counts <= survivor_bound(n, table, lam)
    for t in range(1, m):
        gate[:, t] &= gate[:, t - 1]
    policy = NodePolicy(stream_rows(scaled), replication.risky_fraction, gate)
    traj = evolve_finite(policy, paths, counts, np.full(n, problem.budget))
    violations = int(np.count_nonzero(~traj.admissible))
    # Only the rates are scored: free the fund values and the paths first.
    rates = traj.rate
    del traj, paths
    estimate, se = _path_score(gain, grid, counts, rates, n)

    # Exact value over the joint (count, gate) chain; market factor exact.
    # Survivors share the stream's node rates while their gate is open and
    # consume nothing once it has closed.
    chain = bound_chain(n, table, lam)
    share = np.arange(n + 1) / n
    open_share = chain.joint @ share
    closed_share = chain.count @ share - open_share
    disc = np.exp(-gain.discount * grid.points)
    wp = lattice.node_weights("P")[:m]
    open_terms = _additive_terms(gain, scaled.copy(), open_share[:, None] * wp, disc[:, None])
    closed_terms = _additive_terms(gain, np.zeros(m), closed_share, disc)
    exact = (np.sum(open_terms) + np.sum(closed_terms)) * dt
    target = vnm_value_on_lattice(gain, stream_rows(scaled), table, lattice)
    return TransferResult(
        n=n,
        lam=lam,
        gain_estimate=estimate,
        gain_se=se,
        exact_gain=float(exact),
        target_gain=float(target),
        admissibility_violations=violations,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Policy re-simulation
# ---------------------------------------------------------------------------


def _check_policy_fits(policy, problem: HomogeneousProblem) -> None:
    """Refuse a table policy solved on another grid or for another pool size.

    A pool of n needs the survivor-count columns 0..n, the infinite pool
    one column.  A ``NodePolicy`` carries no grid and passes unchecked.
    """
    if isinstance(policy, TabulatedPolicy):
        columns = policy.consumption_fraction.shape[1]
    elif isinstance(policy, GridPolicy):
        columns = policy.kappa.shape[1]
    else:
        return
    if policy.grid != problem.grid:
        raise ValueError(f"the policy was solved on {policy.grid}, the problem is on {problem.grid}")
    if columns != (problem.n + 1 if math.isfinite(problem.n) else 1):
        solved = columns - 1 if columns > 1 else math.inf
        raise ValueError(f"the policy was solved for a pool of {solved}, the problem's pool is {problem.n}")


def simulate_policy_value(
    problem: HomogeneousProblem,
    policy,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the additive-family gain of a policy.

    Simulates market paths (and survivor counts for finite pools), runs
    the policy through the fund dynamics, and averages
    ``sum_t exp(-b t) (alive_t / n) u(rate_t) dt``; for the infinite pool
    the weight is the survival fraction.  Returns (estimate, standard
    error); the error is ``math.inf`` when a path scores minus infinity.
    A NaN rate where the weight is positive raises ``ValueError``, and so
    do paths on which the fund's wealth went negative, naming how many:
    the fund only flags them, but they consumed what it could not pay.  A
    table policy solved on another grid or for another pool size is
    refused before any path is drawn; a ``NodePolicy`` carries no grid
    and is not checked.

    Beyond the sampled inputs (boolean up moves, and node indices and
    survivor counts in narrow unsigned types) the run holds only the
    fund values and rates as (trials, m) float arrays; the rates are
    scored in place once the fund values and the paths are released.
    """
    if trials < 2:
        raise ValueError("need trials >= 2")
    gain = problem.gain
    if not isinstance(gain, VnmParams):
        raise TypeError("re-simulation consistency is defined for the additive family")
    _check_policy_fits(policy, problem)
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    paths = sample_lattice_paths(lattice, trials, seed)
    if math.isfinite(problem.n):
        n = int(problem.n)
        weights = simulate_survivor_counts(n, problem.table, trials, seed, label="resim-mortality")
        traj = evolve_finite(policy, paths, weights, np.full(n, problem.budget))
    else:
        n = 1
        weights = problem.table.pi[:m]
        traj = evolve_infinite(policy, paths, problem.table, problem.budget)
    inadmissible = int(np.count_nonzero(~traj.admissible))
    if inadmissible:
        raise ValueError(f"{inadmissible} of {trials} sampled paths were inadmissible: the fund went negative")
    # Only the rates are scored: free the fund values and the paths first.
    rates = traj.rate
    del traj, paths
    return _path_score(gain, grid, weights, rates, n)
