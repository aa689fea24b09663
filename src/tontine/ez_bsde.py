"""Discretized verifier for the recursive-utility convergence machinery.

The recursive value process is transformed by ``tilde_V = alpha *
exp(-b*alpha*t/rho) * V``, which makes it nonnegative and turns the
aggregator into the separable driver

    F(t, c, v) = (b*alpha/rho) * exp(-b*t) * c**rho * v**(1 - rho/alpha),

truncated at level ``m`` as ``F_m(t, c, v) = (b*alpha/rho) * exp(-b*t) *
min(c**rho, m) * min(v, m)**(1 - rho/alpha)``.  The truncated driver is
Lipschitz in ``v`` with an explicit constant, the solutions are
nonnegative and decrease in ``m``, and their back-transforms increase in
``m`` to the recursive utility.

The solver runs implicit backward Euler on the market-lattice x death
chain, solving each node by fixed-point iteration (a contraction while
``C_m * dt < 1``), on the preference module's backward sweep.  Because a
dead individual's untransformed value is the constant adequacy value,
the death branch of the transformed chain absorbs at the time-dependent
profile ``exp(-b*alpha*s/rho) * a**alpha``, the sweep's death value per
level; with that convention the back-transformed solution is a
consistent discretization of the same utility as the preference module's
explicit scheme, and the two agree to first order in the step.

The transfer pair solves the scaled stream and its survivor-bound-gated
finite-pool version in one backward sweep over (state row, lattice node),
where a row is only the rate it is paid: ``n`` open-gate rows, one per
survivor count, mixed by the step's banded survivor kernel; a
closed-gate row, paid nothing; and the infinite pool's row, neither mixed
nor gated.  Each step takes one lattice x death expectation and one
fixed-point solve for all rows, each row iterating until its own stopping
test passes.  The probability that the bound fails is stepped backward in
the same sweep, through the same kernel, which each step builds and drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import Lattice, Stream, stream_rows, validate_stream
from .mortality import MortalityTable, binomial_transition_matrix, pool_size, survivor_bound
from .preferences import EzParams, _backward_expectation, _backward_levels


class StepTooCoarseError(RuntimeError):
    """The implicit per-node solve is not a contraction at this step size."""


def lipschitz_constant(params: EzParams, level: float) -> float:
    """Lipschitz constant of the truncated driver in its value argument.

    ``(1 - rho/alpha) * b * |alpha| / rho * m**(1 - rho/alpha)``.
    """
    if not level > 0:  # NaN fails too
        raise ValueError(f"truncation level must be positive, got {level}")
    alpha, rho, b = params.risk, params.substitution, params.discount
    return float((1.0 - rho / alpha) * b * abs(alpha) / rho * level ** (1.0 - rho / alpha))


@dataclass(frozen=True)
class TruncatedDriver:
    """Driver of the transformed equation at truncation level ``level``.

    ``level = inf`` gives the untruncated driver.
    """

    params: EzParams
    level: float

    def __post_init__(self) -> None:
        if not self.level >= 0:  # NaN fails too
            raise ValueError(f"truncation level must be nonnegative, got {self.level}")

    def __call__(self, t: float, consumption, value):
        p = self.params
        c = np.asarray(consumption, dtype=float)
        v = np.maximum(np.asarray(value, dtype=float), 0.0)
        cpow = np.power(c, p.substitution)
        if math.isfinite(self.level):
            cpow = np.minimum(cpow, self.level)
            v = np.minimum(v, self.level)
        coef = p.discount * p.risk / p.substitution * math.exp(-p.discount * t)
        return coef * cpow * np.power(v, 1.0 - p.substitution / p.risk)

    def absorption(self, t: float) -> float:
        """Transformed value of a dead individual at time ``t``."""
        p = self.params
        return math.exp(-p.discount * p.risk / p.substitution * t) * p.adequacy**p.risk


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution on the chain: per-level alive values."""

    driver: TruncatedDriver
    values: list  # values[i]: array over lattice nodes at level i (alive states)
    initial: float
    iterations_max: int

    def utility(self) -> float:
        """Back-transformed initial utility tilde_V0 / alpha."""
        return self.initial / self.driver.params.risk


# Relative stopping tolerance and iteration cap of the implicit node solve.
_NODE_TOL = 1e-12
_NODE_MAX_ITER = 50


def _implicit_node_solve(driver, t, consumption, expected, dt):
    """Solve v = expected + F(t, c, v) * dt by fixed-point iteration.

    The last axis of ``expected`` runs over lattice nodes; any leading axes
    index separate states, and ``consumption`` broadcasts against it.  Each
    state iterates until its own test ``max|v_new - v| <= _NODE_TOL *
    max|expected|`` over its nodes passes and is then frozen, so its answer
    does not depend on the states solved with it.  Returns the solution and
    the largest iteration count; raises ``StepTooCoarseError`` if some state
    has not passed after ``_NODE_MAX_ITER`` iterations.
    """
    expected = np.asarray(expected, dtype=float)
    shape = expected.shape
    rows = expected.reshape(-1, shape[-1] if shape else 1)
    rates = np.broadcast_to(np.asarray(consumption, dtype=float), shape).reshape(rows.shape)
    v = rows.copy()
    threshold = _NODE_TOL * np.maximum(np.max(np.abs(rows), axis=1), 1e-30)
    live = np.arange(rows.shape[0])
    for k in range(_NODE_MAX_ITER):
        nxt = np.maximum(rows[live] + driver(t, rates[live], v[live]) * dt, 0.0)
        done = np.max(np.abs(nxt - v[live]), axis=1) <= threshold[live]
        v[live] = nxt
        live = live[~done]
        if live.size == 0:
            return v.reshape(shape), k + 1
    raise StepTooCoarseError(
        "implicit node solve did not contract; reduce the step or the truncation level"
    )


def _check_contraction(driver: TruncatedDriver, dt: float) -> None:
    """Raise ``StepTooCoarseError`` unless ``C_m * dt < 1`` at a finite positive level."""
    if math.isfinite(driver.level) and driver.level > 0:
        contraction = lipschitz_constant(driver.params, driver.level) * dt
        if contraction >= 1.0:
            raise StepTooCoarseError(f"C_m * dt = {contraction:.3f} >= 1")


def solve_truncated(
    driver: TruncatedDriver,
    consumption: Stream | np.ndarray | float,
    table: MortalityTable,
    lattice: Lattice | None = None,
) -> BsdeSolution:
    """Solve the transformed equation for one life on the (lattice x death) chain.

    Args:
        consumption: deterministic rates (scalar or per grid point) or a
            node-adapted stream when a lattice is supplied.

    The terminal value is the transformed adequacy value at the horizon;
    the death branch absorbs at the transformed adequacy profile.  The
    solution is nonnegative at every node, and for finite truncation the
    contraction condition ``C_m * dt < 1`` is enforced.
    """
    grid = table.grid
    dt = grid.dt
    _check_contraction(driver, dt)
    rates = stream_rows(validate_stream(consumption, grid, lattice))
    points = grid.points
    absorbed = [driver.absorption(t + dt) for t in points] + [driver.absorption(grid.horizon)]
    iterations = [0]

    def node_value(i, expected):
        solved, iters = _implicit_node_solve(driver, points[i], rates[i], expected, dt)
        iterations.append(iters)
        return solved

    values, _ = _backward_levels(node_value, absorbed, table, lattice)
    return BsdeSolution(driver, values, float(values[0][0]), max(iterations))


@dataclass(frozen=True)
class TruncationRow:
    level: float
    tilde_v0: float
    utility: float


def convergence_in_m(
    params: EzParams,
    consumption,
    table: MortalityTable,
    levels: Sequence[float],
    lattice: Lattice | None = None,
) -> list[TruncationRow]:
    """Solutions across truncation levels; ``tilde_v0`` decreases in the level."""
    rows = []
    for level in levels:
        sol = solve_truncated(TruncatedDriver(params, float(level)), consumption, table, lattice)
        rows.append(TruncationRow(level=float(level), tilde_v0=sol.initial, utility=sol.utility()))
    return rows


# ---------------------------------------------------------------------------
# Transfer streams: the same equation driven by the gated finite-pool stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferSolutions:
    """Solutions for the scaled stream and its survivor-bound-gated version."""

    tilde_v_infinite: float
    tilde_v_finite: float
    prob_bound_fails: float  # P(bound violated by the horizon window)

    @property
    def gap(self) -> float:
        return abs(self.tilde_v_infinite - self.tilde_v_finite)


def solve_transfer_pair(
    driver: TruncatedDriver,
    stream: Stream,
    lam: float,
    n: int,
    table: MortalityTable,
    lattice: Lattice,
    window_end: float,
) -> TransferSolutions:
    """Solve the equation for ``lam*stream`` and its gated finite-``n`` version.

    The finite-pool consumption is ``lam * stream`` while the pool's
    survivor count stays within ``1/lam`` of its mean and zero afterwards;
    the reference solution replaces the gate by 1.  Both are rows of one
    backward sweep over (state, market node), where a state is only the
    rate it is paid: rows ``0 .. n-1`` are the open gate with ``row + 1``
    survivors, mixed by the kernel's top-left n x n block (its ``mix`` of
    n rows, read from the band without a dense matrix); row ``n`` is the
    closed gate, paid nothing, which an open row enters when its next
    count leaves the bound; row ``n + 1`` is the infinite pool, neither
    mixed nor gated.  Each step takes one lattice expectation
    and one implicit solve of all rows, each to its own stopping test, so
    the last row is ``solve_truncated``'s solution.  The same sweep steps
    the probability that the bound fails by ``window_end`` through the
    same kernel, as a sum of nonnegative terms that keeps its relative
    accuracy when small: zero for a window before the start, the whole
    horizon's for one past it; a non-finite ``window_end`` raises.  Each
    step builds its kernel, uses it and drops it.  The stream is checked
    once, at entry.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    n = pool_size(n)
    if not math.isfinite(window_end):
        raise ValueError(f"window_end must be finite, got {window_end}")
    grid = table.grid
    m = grid.n_steps
    dt = grid.dt
    s = table.step_survival
    points = grid.points
    scaled = stream_rows(lam * validate_stream(stream, grid, lattice))
    _check_contraction(driver, dt)
    thresholds = survivor_bound(n, table, lam)
    counts = np.arange(1, n + 1)  # survivors including oneself
    pool = np.arange(n + 1)
    paid = (np.arange(n + 2) != n)[:, None]  # every row but the closed gate's
    window = int(np.searchsorted(points, window_end + 1e-12) - 1)
    # values[row, x]: alive in state ``row`` at lattice node x.  fails[j]:
    # P(the bound fails after this level and by the window | j in the pool).
    values = np.full((n + 2, m + 1), driver.absorption(grid.horizon))
    fails = np.zeros(n + 1)
    for i in range(m - 1, -1, -1):
        # Row j - 1 of the kernel's top-left n x n block: k of the j - 1
        # others survive (zero for k >= j), leaving 1 + k.  The gate stays
        # open only while the next count is within the bound.
        kernel = binomial_transition_matrix(n, s[i])
        within = counts <= (thresholds[i + 1] if i + 1 < m else n)
        gated = np.where(within[:, None], values[:n], values[n])
        mixed = np.concatenate((kernel.mix(gated), values[n:]))
        expected = _backward_expectation(mixed, lattice.p_up, s[i], driver.absorption(points[i] + dt))
        values, _ = _implicit_node_solve(driver, points[i], np.where(paid, scaled[i], 0.0), expected, dt)
        if i < window:
            fails = kernel.mix(np.where(pool > thresholds[i + 1], 1.0, fails))

    return TransferSolutions(
        tilde_v_infinite=float(values[n + 1, 0]),
        tilde_v_finite=float(values[n - 1, 0]),  # the gate is open at the start
        prob_bound_fails=float(fails[n]),
    )


@dataclass(frozen=True)
class ErrorBoundReport:
    """The a-priori bound on the squared solution gap, and whether it holds."""

    gap_squared: float
    bound_constant: float
    prob_bound_fails: float
    delta: float
    rhs: float
    holds: bool


def error_bound_check(
    params: EzParams,
    level: float,
    stream: Stream,
    lam: float,
    n: int,
    table: MortalityTable,
    lattice: Lattice,
) -> ErrorBoundReport:
    """Check ``gap^2 <= C_tilde * (T * P(bound fails by T - delta) + delta)``, with ``delta = T / 10``.

    The constant combines the driver's Lipschitz data: with ``C_m`` the
    Lipschitz constant, ``eta = 1/C_m**2``, ``beta = 3 C_m**2 + 2 C_m``
    and ``K = b |alpha| / rho * m**(2 - rho/alpha)``, the constant is
    ``eta * K**2 * exp(beta T)``.  Checked as an inequality only.  A
    non-finite ``level`` has no constant: once the stream is checked, it
    raises ``ValueError`` before the pair is solved.
    """
    horizon = table.grid.horizon
    delta = horizon / 10.0
    if not math.isfinite(level):
        validate_stream(stream, table.grid, lattice)  # a bad stream is named first
        raise ValueError("the error bound needs a finite truncation level")
    driver = TruncatedDriver(params, float(level))
    pair = solve_transfer_pair(driver, stream, lam, n, table, lattice, window_end=horizon - delta)
    c_m = lipschitz_constant(params, level)
    eta = 1.0 / c_m**2
    beta = 3.0 * c_m**2 + 2.0 * c_m
    k_const = params.discount * abs(params.risk) / params.substitution * level ** (
        2.0 - params.substitution / params.risk
    )
    c_tilde = eta * k_const**2 * math.exp(beta * horizon)
    rhs = c_tilde * (horizon * pair.prob_bound_fails + delta)
    gap_sq = pair.gap**2
    return ErrorBoundReport(
        gap_squared=gap_sq,
        bound_constant=c_tilde,
        prob_bound_fails=pair.prob_bound_fails,
        delta=delta,
        rhs=rhs,
        holds=bool(gap_sq <= rhs),
    )
