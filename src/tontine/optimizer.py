"""Value functions of homogeneous collective funds.

Computes the optimal per-survivor consumption and risky allocation for a
pool of ``n`` identical investors (``n`` may be infinite) and the value
achieved by one member.  Since concave gains make the equal-split
strategy weakly dominant, the state is (time, survivor count, fund
wealth) rather than anything per-individual.

Solvers
-------
* Power and log utility factor the wealth dependence out of the Bellman
  equation exactly, leaving a recursion over (time, survivor count) with
  closed-form consumption splits; only the allocation needs a line
  search.
* The remaining families (recursive utility with adequacy, the
  multiplicative family, exponential utility) run on a geometric wealth
  grid with shape-preserving cubic interpolation.
* The infinite pool is additionally solved by the pricing route: choose
  the adapted consumption stream maximizing the gain subject to its
  replication cost not exceeding the budget, then replicate.  This is in
  closed form for power/log utility and a gradient-based numeric
  optimization otherwise, and cross-checks the dynamic-programming
  route.

Consumption policies are rates per survivor; the cash drained from the
fund at a grid point is ``count * rate * dt`` (or ``pi_t * rate * dt``
per person in the infinite pool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .fund import PathBundle, TabulatedPolicy
from .grid import TimeGrid
from .market import (
    Lattice,
    MarketModel,
    Stream,
    build_lattice,
    constant_stream,
    q_price,
    replicate,
    sample_lattice_paths,
    scale_stream,
)
from .mortality import (
    MortalityTable,
    binomial_transition_matrix,
    bound_chain,
    simulate_survivor_counts,
)
from .preferences import (
    ExpKmParams,
    ExponentialUtility,
    EzParams,
    GainFunction,
    LogUtility,
    PowerUtility,
    VnmParams,
    exp_km_value_of_rates,
    exp_km_value_on_lattice,
    ez_utility_discrete,
    vnm_value_of_rates,
    vnm_value_on_lattice,
)


class WealthGridExceeded(RuntimeError):
    """A continuation evaluation left the configured wealth grid."""


class NonConcavityDetected(RuntimeError):
    """An inner line search found a boundary beating its interior optimum."""


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
        if not (self.budget > 0):
            raise ValueError("per-person budget must be positive")
        if not (self.n == math.inf or (float(self.n).is_integer() and self.n >= 1)):
            raise ValueError("pool size must be a positive integer or infinity")

    def lattice(self) -> Lattice:
        return build_lattice(self.model, self.grid)

    def with_n(self, n) -> "HomogeneousProblem":
        return HomogeneousProblem(self.gain, self.table, self.model, self.grid, self.budget, n)

    def with_budget(self, budget: float) -> "HomogeneousProblem":
        return HomogeneousProblem(self.gain, self.table, self.model, self.grid, budget, self.n)


@dataclass
class ValueResult:
    """Solver output: achieved value, the policy, and diagnostics."""

    value: float
    method: str
    strategy: object
    error_estimate: float = 0.0
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Line-search helpers
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    iters = max(1, int(math.ceil(math.log(max(tol / max(b - a, tol), 1e-300)) / math.log(_INVPHI))))
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1)
    x = 0.5 * (a + b)
    fx = fn(x)
    for cand, fcand in ((x1, f1), (x2, f2)):
        if fcand > fx:
            x, fx = cand, fcand
    return x, fx


def golden_max_vec(
    fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, iters: int = 48
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section maximization with per-point brackets.

    Each iteration keeps the surviving interior point and its value, so
    ``fn`` is called ``iters + 2`` times: two opening probes, one per
    later iteration and one at the returned midpoint.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for i in range(iters):
        move_up = f1 < f2
        a = np.where(move_up, x1, a)
        b = np.where(move_up, b, x2)
        if i == iters - 1:
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
    x = 0.5 * (a + b)
    return x, fn(x)


def allocation_bounds(lattice: Lattice, margin: float = 1e-9) -> tuple[float, float]:
    """Risky fractions keeping one-step wealth strictly positive on both branches."""
    rf = math.exp(lattice.rate * lattice.grid.dt)
    up, down = lattice.up, lattice.down
    if up <= down + 1e-15:
        return 0.0, 0.0
    hi = rf / (rf - down) - margin if rf > down else 40.0
    lo = -rf / (up - rf) + margin if up > rf else -40.0
    return lo, hi


def _portfolio_gross(lattice: Lattice, a) -> tuple[np.ndarray, np.ndarray]:
    """Gross one-step returns on the (down, up) branches for fraction ``a``."""
    rf = math.exp(lattice.rate * lattice.grid.dt)
    a = np.asarray(a, dtype=float)
    return a * lattice.down + (1.0 - a) * rf, a * lattice.up + (1.0 - a) * rf


def best_power_growth(lattice: Lattice, alpha: float) -> tuple[float, float]:
    """Optimal fraction and E[G^alpha] for one-step power certainty equivalence."""
    lo, hi = allocation_bounds(lattice)
    if hi <= lo:
        g_down, g_up = _portfolio_gross(lattice, 0.0)
        return 0.0, float((1 - lattice.p_up) * g_down**alpha + lattice.p_up * g_up**alpha)
    p = lattice.p_up

    def objective(a: float) -> float:
        g_down, g_up = _portfolio_gross(lattice, a)
        if g_down <= 0 or g_up <= 0:
            return -np.inf
        moment = (1 - p) * g_down**alpha + p * g_up**alpha
        return moment / alpha  # increasing transform of the certainty equivalent

    a_star, _ = golden_max(objective, lo, hi)
    g_down, g_up = _portfolio_gross(lattice, a_star)
    return float(a_star), float((1 - p) * g_down**alpha + p * g_up**alpha)


def best_log_growth(lattice: Lattice) -> tuple[float, float]:
    """Optimal fraction and E[log G] for the log investor."""
    lo, hi = allocation_bounds(lattice)
    if hi <= lo:
        g_down, g_up = _portfolio_gross(lattice, 0.0)
        return 0.0, float((1 - lattice.p_up) * math.log(g_down) + lattice.p_up * math.log(g_up))
    p = lattice.p_up

    def objective(a: float) -> float:
        g_down, g_up = _portfolio_gross(lattice, a)
        if g_down <= 0 or g_up <= 0:
            return -np.inf
        return (1 - p) * math.log(g_down) + p * math.log(g_up)

    a_star, val = golden_max(objective, lo, hi)
    return float(a_star), float(val)


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
# Scale-reduction solvers (power and log utility)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProportionalPolicy:
    """Wealth-proportional policy: fraction consumed and risky fraction per step.

    Valid for both pool accountings: the per-survivor rate is
    ``kappa_t * wealth / (alive * dt)`` where ``alive`` is the count or
    the survival fraction.
    """

    grid: TimeGrid
    kappa: np.ndarray  # (m,)
    fraction: np.ndarray  # (m,)

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        alive = np.asarray(alive, dtype=float)
        safe = np.maximum(alive, 1e-300)
        return np.where(alive > 0, self.kappa[t_idx] * np.asarray(wealth) / (safe * self.grid.dt), 0.0)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return np.broadcast_to(self.fraction[t_idx], np.shape(wealth)).copy()


def _solve_power_finite(problem: HomogeneousProblem) -> ValueResult:
    alpha = problem.gain.utility.exponent
    b = problem.gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    n = int(problem.n)
    m = grid.n_steps
    dt = grid.dt
    s = problem.table.step_survival
    a_star, psi = best_power_growth(lattice, alpha)
    theta = np.zeros(n + 1)  # theta at t+dt, indexed by survivor count
    kappa_table = np.zeros((m, n + 1))
    frac_table = np.full((m, n + 1), a_star)
    disc = np.exp(-b * grid.points)
    count_weight = np.arange(1, n + 1) ** (1.0 - alpha)
    for t in range(m - 1, -1, -1):
        trans = binomial_transition_matrix(n, s[t])
        theta_mixed = trans @ theta
        a_coef = disc[t] * count_weight * dt ** (1.0 - alpha) / n
        kappa_table[t, 1:], theta[1:] = _power_split(a_coef, psi * theta_mixed[1:], alpha)
    f0 = n * problem.budget
    value = (f0**alpha / alpha) * theta[n]
    policy = TabulatedPolicy(grid, kappa_table, frac_table)
    return ValueResult(value=float(value), method="dp", strategy=policy, extras={"theta": theta[n]})


def _solve_power_infinite(problem: HomogeneousProblem) -> ValueResult:
    alpha = problem.gain.utility.exponent
    b = problem.gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    pi = problem.table.pi[:m]
    a_star, psi = best_power_growth(lattice, alpha)
    disc = np.exp(-b * grid.points)
    theta = 0.0
    kappa = np.zeros(m)
    for t in range(m - 1, -1, -1):
        if pi[t] <= 0.0:
            theta = 0.0
            kappa[t] = 0.0
            continue
        a_coef = disc[t] * pi[t] ** (1.0 - alpha) * dt ** (1.0 - alpha)
        kappa[t], theta = _power_split(a_coef, psi * theta, alpha)
    value = (problem.budget**alpha / alpha) * theta
    policy = ProportionalPolicy(grid, kappa, np.full(m, a_star))
    return ValueResult(value=float(value), method="dp", strategy=policy, extras={"theta": theta})


def _solve_log_finite(problem: HomogeneousProblem) -> ValueResult:
    b = problem.gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    n = int(problem.n)
    m = grid.n_steps
    dt = grid.dt
    s = problem.table.step_survival
    a_star, log_growth = best_log_growth(lattice)
    disc = np.exp(-b * grid.points)
    a_arr = np.zeros(n + 1)
    c_arr = np.zeros(n + 1)
    kappa_table = np.zeros((m, n + 1))
    frac_table = np.full((m, n + 1), a_star)
    counts = np.arange(1, n + 1)
    for t in range(m - 1, -1, -1):
        trans = binomial_transition_matrix(n, s[t])
        abar = (trans @ a_arr)[1:]
        c_mixed = (trans @ c_arr)[1:]
        w = disc[t] * (counts / n) * dt
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(abar <= 0, 1.0, w / (w + abar))
            cont = np.where(abar > 0, abar * (np.log(1.0 - kappa) + log_growth), 0.0)
        kappa_table[t, 1:] = kappa
        a_arr[1:] = w + abar
        c_arr[1:] = w * (np.log(kappa) - np.log(counts * dt)) + cont + c_mixed
    f0 = n * problem.budget
    value = a_arr[n] * math.log(f0) + c_arr[n]
    policy = TabulatedPolicy(grid, kappa_table, frac_table)
    return ValueResult(value=float(value), method="dp", strategy=policy)


def _solve_log_infinite(problem: HomogeneousProblem) -> ValueResult:
    b = problem.gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    pi = problem.table.pi[:m]
    a_star, log_growth = best_log_growth(lattice)
    disc = np.exp(-b * grid.points)
    a_val = 0.0
    c_val = 0.0
    kappa = np.zeros(m)
    for t in range(m - 1, -1, -1):
        if pi[t] <= 0.0:
            continue
        w = disc[t] * pi[t] * dt
        k = 1.0 if a_val <= 0 else w / (w + a_val)
        kappa[t] = k
        cont = a_val * (math.log(1.0 - k) + log_growth) if a_val > 0 else 0.0
        c_val = w * (math.log(k) - math.log(pi[t] * dt)) + cont + c_val
        a_val = w + a_val
    value = a_val * math.log(problem.budget) + c_val
    policy = ProportionalPolicy(grid, kappa, np.full(m, a_star))
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
    by_count: bool  # True: state index = survivor count; False: single state

    def _state_index(self, alive):
        if self.by_count:
            return np.clip(np.asarray(alive).astype(int), 0, self.kappa.shape[1] - 1)
        return np.zeros(np.shape(alive), dtype=int)

    def _lookup(self, table, t_idx, alive, wealth):
        states = self._state_index(alive)
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


class _FamilyAdapter:
    """Node update and survivor mixing for one gain family."""

    survivor_conditioned: bool

    def terminal(self, fgrid: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def node_value(self, t: float, drain_measure: np.ndarray, death_prob: float,
                   fgrid: np.ndarray, kappa: np.ndarray, cont: np.ndarray) -> np.ndarray:
        """Objective to maximize, given the continuation expectation.

        ``kappa`` and ``cont`` are (states x wealth) arrays; ``drain_measure``
        is the (states, 1) column of survivor counts, or of the survival
        fraction in the infinite pool.
        """
        raise NotImplementedError


class _VnmAdapter(_FamilyAdapter):
    survivor_conditioned = False

    def __init__(self, gain: VnmParams, n: float, dt: float):
        self.gain = gain
        self.n = n
        self.dt = dt

    def terminal(self, fgrid):
        return np.zeros_like(fgrid)

    def node_value(self, t, drain_measure, death_prob, fgrid, kappa, cont):
        rate = kappa * fgrid / (drain_measure * self.dt)
        weight = drain_measure / self.n if np.isfinite(self.n) else drain_measure
        return math.exp(-self.gain.discount * t) * weight * self.gain.utility(rate) * self.dt + cont


class _ExpKmAdapter(_FamilyAdapter):
    # Values stored as -R with R = E[exp(-remaining utility integral)].
    survivor_conditioned = True

    def __init__(self, gain: ExpKmParams, dt: float):
        self.gain = gain
        self.dt = dt

    def terminal(self, fgrid):
        return -np.ones_like(fgrid)

    def node_value(self, t, drain_measure, death_prob, fgrid, kappa, cont):
        rate = kappa * fgrid / (drain_measure * self.dt)
        r_next = -cont
        u = self.gain.utility(rate)
        return -np.exp(-u * self.dt) * (death_prob + (1.0 - death_prob) * r_next)


class _EzAdapter(_FamilyAdapter):
    survivor_conditioned = True

    def __init__(self, params: EzParams, dt: float):
        self.params = params
        self.dt = dt

    def terminal(self, fgrid):
        return np.full_like(fgrid, self.params.adequacy_value)

    def node_value(self, t, drain_measure, death_prob, fgrid, kappa, cont):
        p = self.params
        rate = kappa * fgrid / (drain_measure * self.dt)
        expected = death_prob * p.adequacy_value + (1.0 - death_prob) * cont
        av = p.risk * expected  # positive: continuation values stay negative
        with np.errstate(invalid="ignore", over="ignore"):
            agg = (p.discount / p.substitution) * (
                np.power(rate, p.substitution) * np.power(av, 1.0 - p.substitution / p.risk) - av
            )
        result = expected + agg * self.dt
        # The explicit aggregator step can overshoot the family's upper
        # bound (zero) at extreme probe rates; cap just below zero.  The
        # cap can bind at reachable wealth: with light mortality on a
        # 40-step annual grid the infinite-pool solve returns the cap
        # itself as the value at the starting wealth.
        cap = -1e-12 * abs(p.adequacy_value)
        return np.minimum(result, cap)


def _grid_adapter(gain: GainFunction, n: float, dt: float) -> _FamilyAdapter:
    if isinstance(gain, VnmParams):
        return _VnmAdapter(gain, n, dt)
    if isinstance(gain, ExpKmParams):
        if isinstance(gain.utility, PowerUtility) and gain.utility.exponent < 0:
            raise ValueError(
                "negative-power inner utility overflows the multiplicative recursion; "
                "use exponential or log inner utility"
            )
        return _ExpKmAdapter(gain, dt)
    if isinstance(gain, EzParams):
        return _EzAdapter(gain, dt)
    raise TypeError(f"unsupported gain family {type(gain)!r}")


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

    def __call__(self, points: np.ndarray) -> np.ndarray:
        x = self.x
        points = np.minimum(np.maximum(points, x[0]), x[-1])
        k = np.minimum(((points - x[0]) / self.step).astype(np.intp), x.size - 2)
        c3, c2, c1, c0 = np.take(self.pieces, self.row_base + k, axis=1)
        u = points - x[k]
        return ((c3 * u + c2) * u + c1) * u + c0


def _solve_on_grid(problem: HomogeneousProblem, n_points: int) -> ValueResult:
    """Backward induction on the wealth grid, finite or infinite pool.

    Each time step handles every survivor state at once: values are one
    (states x wealth) array, survivors are mixed by one product with the
    step's transition matrix, and the alternating line searches run on
    the whole array.
    """
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    finite = math.isfinite(problem.n)
    n = int(problem.n) if finite else 1
    adapter = _grid_adapter(problem.gain, problem.n, dt)
    scale = (n if finite else 1.0) * problem.budget
    fgrid = wealth_grid(scale, lattice, n_points)
    log_fgrid = np.log(fgrid)
    s = problem.table.step_survival
    pi = problem.table.pi[:m]
    p_up = lattice.p_up
    a_lo, a_hi = allocation_bounds(lattice)

    # Survivor-conditioned families mix over the other members' count:
    # from j survivors including oneself, k of the j - 1 others survive.
    # Row i of ``values`` is the state with offset + i survivors.
    offset = 1 if adapter.survivor_conditioned else 0
    counts = np.arange(offset, n + 1) if finite else None
    values = np.tile(adapter.terminal(fgrid), (counts.size if finite else 1, 1))
    kappa_pol = np.zeros((m,) + values.shape)
    frac_pol = np.zeros((m,) + values.shape)

    for t in range(m - 1, -1, -1):
        drain = counts if finite else np.array([pi[t]])
        # States with nothing to drain (no survivors) keep their values.
        live = np.flatnonzero(drain > 0)
        if live.size == 0:
            continue
        if finite:
            trans = binomial_transition_matrix(n - offset, s[t])
            mixed = trans[counts[live] - offset] @ values
        else:
            mixed = values
        interpolant = PchipInterpolator(log_fgrid, mixed)

        def continuation(log_x):
            # Expected mixed value at probe log wealths stacked as (down, up).
            # Clamped at both ends: the top carries headroom above any
            # wealth reachable from the start, so clamping only touches
            # line-search probes at extreme leverage.
            down, up = interpolant(log_x)
            return (1.0 - p_up) * down + p_up * up

        dm = drain[live, None]
        death_prob = 1.0 - s[t]
        t_now = grid.points[t]

        def objective(kappa_arr, log_post, log_gross):
            # log_post: log wealth after consumption; log_gross: (down, up)
            # log returns.  Each search holds one of them fixed.
            cont = continuation(log_post + log_gross)
            return adapter.node_value(t_now, dm, death_prob, fgrid, kappa_arr, cont)

        def log_gross_of(frac_arr):
            return np.log(np.stack(_portfolio_gross(lattice, frac_arr)))

        def log_post_of(kappa_arr):
            return np.log1p(-kappa_arr) + log_fgrid

        shape = mixed.shape
        kappa_v = np.full(shape, 0.5)
        lo_k = np.full(shape, 1e-9)
        hi_k = np.full(shape, 1.0 - 1e-9)
        lo_a = np.full(shape, a_lo)
        hi_a = np.full(shape, a_hi)
        for _ in range(3):
            log_post = log_post_of(kappa_v)
            frac_v, _ = golden_max_vec(lambda a_arr: objective(kappa_v, log_post, log_gross_of(a_arr)), lo_a, hi_a)
            log_gross = log_gross_of(frac_v)
            kappa_v, last_val = golden_max_vec(lambda k_arr: objective(k_arr, log_post_of(k_arr), log_gross), lo_k, hi_k)
        # Consuming everything may dominate when the future is worthless.
        all_in = np.full(shape, 1.0 - 1e-12)
        all_now = objective(all_in, log_post_of(all_in), log_gross)
        kappa_pol[t, live] = np.where(all_now > last_val, 1.0, kappa_v)
        frac_pol[t, live] = frac_v
        values[live] = np.maximum(all_now, last_val)

    value = float(np.interp(math.log(scale), log_fgrid, values[-1]))
    if finite and adapter.survivor_conditioned:
        padded_kappa = np.zeros((m, n + 1, fgrid.size))
        padded_frac = np.zeros((m, n + 1, fgrid.size))
        padded_kappa[:, 1:] = kappa_pol
        padded_frac[:, 1:] = frac_pol
        policy = GridPolicy(grid, fgrid, padded_kappa, padded_frac, by_count=True)
    else:
        policy = GridPolicy(grid, fgrid, kappa_pol, frac_pol, by_count=finite)
    return ValueResult(value=value, method="dp", strategy=policy, extras={"fgrid": fgrid})


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

MAX_SCALING_POOL = 512
MAX_GRID_POOL = 64


def solve_finite_dp(problem: HomogeneousProblem, wealth_points: int = 400) -> ValueResult:
    """Value of a finite pool by backward induction.

    Power and log utility use the exact wealth-scaling reduction; other
    families run on the wealth grid.  Pool sizes are capped at desk scale.
    """
    if not math.isfinite(problem.n):
        raise ValueError("use solve_infinite for the infinite pool")
    gain = problem.gain
    if isinstance(gain, VnmParams) and isinstance(gain.utility, PowerUtility):
        if problem.n > MAX_SCALING_POOL:
            raise ValueError(f"pool size beyond desk scale ({MAX_SCALING_POOL})")
        return _solve_power_finite(problem)
    if isinstance(gain, VnmParams) and isinstance(gain.utility, LogUtility):
        if problem.n > MAX_SCALING_POOL:
            raise ValueError(f"pool size beyond desk scale ({MAX_SCALING_POOL})")
        return _solve_log_finite(problem)
    if problem.n > MAX_GRID_POOL:
        raise ValueError(f"pool size beyond desk scale for gridded families ({MAX_GRID_POOL})")
    return _solve_on_grid(problem, wealth_points)


def solve_infinite(
    problem: HomogeneousProblem,
    wealth_points: int = 400,
    methods: Sequence[str] | None = None,
) -> ValueResult:
    """Value of the infinite pool, cross-checked between two routes.

    The dynamic-programming route works on per-person wealth with the
    deterministic survival drain.  The pricing route maximizes the gain
    over adapted streams costing at most the budget and replicates the
    winner.  The reported value comes from the pricing route when it is
    in closed form, otherwise from the DP; the cross-method gap is the
    error estimate.  By default every route the family has runs: the
    additive family has a pricing route for power and log utility only.
    """
    if problem.n != math.inf:
        problem = problem.with_n(math.inf)
    gain = problem.gain
    if methods is None:
        additive_without_pricing = isinstance(gain, VnmParams) and not isinstance(
            gain.utility, (PowerUtility, LogUtility)
        )
        methods = ("dp",) if additive_without_pricing else ("dp", "martingale")
    dp_result = None
    mart_result = None
    if "dp" in methods:
        if isinstance(gain, VnmParams) and isinstance(gain.utility, PowerUtility):
            dp_result = _solve_power_infinite(problem)
        elif isinstance(gain, VnmParams) and isinstance(gain.utility, LogUtility):
            dp_result = _solve_log_infinite(problem)
        else:
            dp_result = _solve_on_grid(problem, wealth_points)
    if "martingale" in methods:
        mart_result = _solve_martingale(problem)
    if dp_result is None and mart_result is None:
        raise ValueError("no solution method selected")
    if mart_result is not None and dp_result is not None:
        gap = abs(mart_result.value - dp_result.value)
        primary = mart_result if mart_result.method == "closed_form" else dp_result
        primary.error_estimate = gap
        primary.extras.update(
            {
                "dp_value": dp_result.value,
                "martingale_value": mart_result.value,
                "dp_strategy": dp_result.strategy,
                "stream": mart_result.extras.get("stream"),
                "replication": mart_result.extras.get("replication"),
            }
        )
        return primary
    return dp_result or mart_result


# ---------------------------------------------------------------------------
# Pricing (martingale) route for the infinite pool
# ---------------------------------------------------------------------------


def _stream_price_coefficients(lattice: Lattice, table: MortalityTable) -> Stream:
    """Per-node cost of one unit of per-survivor rate: dt e^{-rt} pi_t w_Q."""
    grid = lattice.grid
    pi = table.pi[: grid.n_steps]
    wq = lattice.node_weights("Q")
    disc = np.exp(-lattice.rate * grid.points)
    return [grid.dt * disc[i] * pi[i] * wq[i] for i in range(grid.n_steps)]


def _replication_of(stream: Stream, lattice: Lattice, table: MortalityTable):
    """Replicate the per-person drain of a per-survivor rate stream."""
    pi = table.pi[: lattice.grid.n_steps]
    drain = [pi[i] * np.asarray(stream[i], dtype=float) for i in range(lattice.grid.n_steps)]
    return replicate(drain, lattice)


def _martingale_crra(problem: HomogeneousProblem) -> ValueResult:
    """Pointwise first-order solution for power utility; exact closed form."""
    gain = problem.gain
    alpha = gain.utility.exponent
    b = gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    pi = problem.table.pi[:m]
    wp = lattice.node_weights("P")
    wq = lattice.node_weights("Q")
    power = 1.0 / (alpha - 1.0)
    raw: Stream = []
    for i in range(m):
        if pi[i] <= 0:
            raw.append(np.zeros(i + 1))
            continue
        with np.errstate(divide="ignore"):
            ell = np.where(wp[i] > 0, wq[i] / np.where(wp[i] > 0, wp[i], 1.0), np.inf)
        kernel = np.exp((b - lattice.rate) * grid.points[i]) * ell
        raw.append(np.power(kernel, power))
    cost = sum(c @ r for c, r in zip(_stream_price_coefficients(lattice, problem.table), raw))
    scalefac = problem.budget / cost
    stream = scale_stream(raw, scalefac)
    value = vnm_value_on_lattice(gain, stream, problem.table, lattice)
    rep = _replication_of(stream, lattice, problem.table)
    return ValueResult(
        value=float(value),
        method="closed_form",
        strategy=rep,
        extras={"stream": stream, "replication": rep, "price": q_price([pi[i] * stream[i] for i in range(m)], lattice)},
    )


def _martingale_log(problem: HomogeneousProblem) -> ValueResult:
    gain = problem.gain
    b = gain.discount
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    pi = problem.table.pi[:m]
    wp = lattice.node_weights("P")
    wq = lattice.node_weights("Q")
    disc_b = np.exp(-b * grid.points)
    nu = float(np.sum(disc_b * pi) * grid.dt) / problem.budget
    stream: Stream = []
    for i in range(m):
        if pi[i] <= 0:
            stream.append(np.zeros(i + 1))
            continue
        with np.errstate(divide="ignore"):
            ratio = np.where(wq[i] > 0, wp[i] / np.where(wq[i] > 0, wq[i], 1.0), 0.0)
        stream.append(np.exp((lattice.rate - b) * grid.points[i]) * ratio / nu)
    value = vnm_value_on_lattice(gain, stream, problem.table, lattice)
    rep = _replication_of(stream, lattice, problem.table)
    return ValueResult(
        value=float(value),
        method="closed_form",
        strategy=rep,
        extras={"stream": stream, "replication": rep},
    )


def _ez_value_and_grad(params: EzParams, stream_flat, layout, table, lattice):
    """Recursive value of a node stream and its gradient (adjoint sweep)."""
    grid = lattice.grid
    m = grid.n_steps
    dt = grid.dt
    s = table.step_survival
    p = lattice.p_up
    alpha, rho, b = params.risk, params.substitution, params.discount
    terminal = params.adequacy_value
    levels = [stream_flat[start:stop] for start, stop in layout]

    w_levels = [None] * (m + 1)
    e_levels = [None] * m
    w_levels[m] = np.full(m + 1, terminal)
    for i in range(m - 1, -1, -1):
        nxt = w_levels[i + 1]
        cont = p * nxt[1 : i + 2] + (1.0 - p) * nxt[: i + 1]
        expected = (1.0 - s[i]) * terminal + s[i] * cont
        av = alpha * expected
        agg = (b / rho) * (np.power(levels[i], rho) * np.power(av, 1.0 - rho / alpha) - av)
        e_levels[i] = expected
        w_levels[i] = expected + agg * dt

    grad_levels = [np.zeros(i + 1) for i in range(m)]
    lam = np.array([1.0])
    for i in range(m):
        expected = e_levels[i]
        av = alpha * expected
        f_gamma = b * np.power(levels[i], rho - 1.0) * np.power(av, 1.0 - rho / alpha)
        f_v = (b * alpha / rho) * ((1.0 - rho / alpha) * np.power(levels[i], rho) * np.power(av, -rho / alpha) - 1.0)
        grad_levels[i] = lam * f_gamma * dt
        w_factor = lam * (1.0 + f_v * dt) * s[i]
        nxt = np.zeros(i + 2)
        nxt[1:] += w_factor * p
        nxt[:-1] += w_factor * (1.0 - p)
        lam = nxt
    grad = np.concatenate(grad_levels) if m else np.zeros(0)
    return float(w_levels[0][0]), grad


def _expkm_value_and_grad(gain: ExpKmParams, stream_flat, layout, table, lattice):
    """Multiplicative-family value of a node stream and its gradient."""
    grid = lattice.grid
    m = grid.n_steps
    dt = grid.dt
    s = table.step_survival
    p = lattice.p_up
    u = gain.utility
    levels = [stream_flat[start:stop] for start, stop in layout]
    r_levels = [None] * (m + 1)
    r_levels[m] = np.ones(m + 1)
    for i in range(m - 1, -1, -1):
        nxt = r_levels[i + 1]
        cont = p * nxt[1 : i + 2] + (1.0 - p) * nxt[: i + 1]
        r_levels[i] = np.exp(-u(levels[i]) * dt) * ((1.0 - s[i]) + s[i] * cont)
    # dJ/dgamma with J = -R_0: adjoint on the R recursion.
    eps = 1e-7
    grad_levels = [np.zeros(i + 1) for i in range(m)]
    lam = np.array([1.0])
    for i in range(m):
        if isinstance(u, ExponentialUtility):
            uprime = np.exp(-u.rate * levels[i])
        elif isinstance(u, LogUtility):
            uprime = 1.0 / levels[i]
        elif isinstance(u, PowerUtility):
            uprime = np.power(levels[i], u.exponent - 1.0)
        else:
            uprime = (u(levels[i] + eps) - u(levels[i] - eps)) / (2 * eps)
        grad_levels[i] = lam * uprime * dt * r_levels[i]
        factor = lam * np.exp(-u(levels[i]) * dt) * s[i]
        nxt = np.zeros(i + 2)
        nxt[1:] += factor * p
        nxt[:-1] += factor * (1.0 - p)
        lam = nxt
    grad = np.concatenate(grad_levels)
    return float(-r_levels[0][0]), grad


def _martingale_numeric(problem: HomogeneousProblem) -> ValueResult:
    """Constrained stream optimization for the non-additive families."""
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    table = problem.table
    pi = table.pi[:m]
    layout = []
    start = 0
    for i in range(m):
        layout.append((start, start + i + 1))
        start += i + 1
    n_vars = start
    coeffs = np.concatenate(_stream_price_coefficients(lattice, table))
    annuity_rate = problem.budget / max(float(np.sum(pi) * grid.dt), 1e-300)
    x0 = np.full(n_vars, annuity_rate)
    gain = problem.gain

    if isinstance(gain, EzParams):
        value_and_grad = lambda x: _ez_value_and_grad(gain, x, layout, table, lattice)
    elif isinstance(gain, ExpKmParams):
        value_and_grad = lambda x: _expkm_value_and_grad(gain, x, layout, table, lattice)
    else:
        raise TypeError("numeric pricing route supports the recursive and multiplicative families")

    def neg_obj(x):
        v, g = value_and_grad(x)
        return -v, -g

    lb = 1e-10 * annuity_rate
    res = optimize.minimize(
        neg_obj,
        x0,
        jac=True,
        method="SLSQP",
        bounds=[(lb, None)] * n_vars,
        constraints=[{"type": "eq", "fun": lambda x: coeffs @ x - problem.budget, "jac": lambda x: coeffs}],
        options={"maxiter": 600, "ftol": 1e-14},
    )
    x = res.x
    stream = [np.asarray(x[a:b2], dtype=float) for (a, b2) in layout]
    value = value_and_grad(x)[0]
    rep = _replication_of(stream, lattice, table)
    return ValueResult(
        value=float(value),
        method="martingale",
        strategy=rep,
        extras={"stream": stream, "replication": rep, "converged": bool(res.success)},
    )


def _solve_martingale(problem: HomogeneousProblem) -> ValueResult:
    gain = problem.gain
    if isinstance(gain, VnmParams) and isinstance(gain.utility, PowerUtility):
        return _martingale_crra(problem)
    if isinstance(gain, VnmParams) and isinstance(gain.utility, LogUtility):
        return _martingale_log(problem)
    return _martingale_numeric(problem)


# ---------------------------------------------------------------------------
# Annuity benchmark and the abstract allocation problem
# ---------------------------------------------------------------------------


def annuity_rate(problem: HomogeneousProblem) -> float:
    """Constant rate exhausting the budget against expected survival."""
    pi = problem.table.pi[: problem.grid.n_steps]
    return problem.budget / float(np.sum(pi) * problem.grid.dt)


def annuity_value_for_budget(
    gain: GainFunction, table: MortalityTable, grid: TimeGrid, budget: float
) -> float:
    """Gain of the constant rate exhausting ``budget``; budget may be zero."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    pi = table.pi[: grid.n_steps]
    rate = budget / float(np.sum(pi) * grid.dt)
    rates = np.full(grid.n_steps, rate)
    if isinstance(gain, VnmParams):
        return vnm_value_of_rates(gain, rates, table)
    if isinstance(gain, ExpKmParams):
        return exp_km_value_of_rates(gain, rates, table)
    if isinstance(gain, EzParams):
        return ez_utility_discrete(gain, rates, table)
    raise TypeError(f"unsupported gain family {type(gain)!r}")


def annuity_value(problem: HomogeneousProblem) -> float:
    """Gain of the best constant consumption (the defined-benefit benchmark)."""
    return annuity_value_for_budget(problem.gain, problem.table, problem.grid, problem.budget)


@dataclass(frozen=True)
class MeasureProblemResult:
    allocation: np.ndarray
    value: float
    multiplier: float


def solve_measure_problem(
    mu: np.ndarray, u: Callable[[np.ndarray], np.ndarray], budget: float
) -> MeasureProblemResult:
    """Maximize sum(u(g) * mu) over g >= 0 with sum(g * mu) = budget.

    For concave ``u`` a constant allocation is optimal; the multiplier is
    found by bisection on the pointwise problem max u(g) - nu * g, which
    also covers flat (piecewise-linear) stretches.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0) or mu.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive total")
    if budget < 0:
        raise ValueError("infeasible: budget must be nonnegative")
    total = mu.sum()
    target = budget / total
    gmax = max(4.0 * target, 1.0)

    def best_g(nu: float) -> float:
        g, _ = golden_max(lambda g: float(u(np.asarray(g))) - nu * g, 0.0, gmax, tol=1e-12)
        return g

    lo_nu, hi_nu = 1e-12, 1.0
    while best_g(hi_nu) > target and hi_nu < 1e12:
        hi_nu *= 4.0
    while best_g(lo_nu) < target and lo_nu > 1e-14:
        lo_nu /= 4.0
    for _ in range(200):
        mid = 0.5 * (lo_nu + hi_nu)
        if best_g(mid) > target:
            lo_nu = mid
        else:
            hi_nu = mid
    nu = 0.5 * (lo_nu + hi_nu)
    allocation = np.full(mu.size, target)
    value = float(np.sum(u(allocation) * mu))
    return MeasureProblemResult(allocation=allocation, value=value, multiplier=nu)


# ---------------------------------------------------------------------------
# Transfer of infinite-pool streams to finite pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferResult:
    """Monte Carlo outcome of running a scaled infinite-pool stream at finite n.

    ``gain_se`` is ``math.inf`` when a sampled path scores minus infinity
    (u(0) = -inf with a closed gate): the estimate is then -inf and its
    spread is undefined.
    """

    n: int
    lam: float
    gain_estimate: float
    gain_se: float
    exact_gain: float
    target_gain: float
    admissibility_violations: int
    trials: int


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
    family.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    gain = problem.gain
    if not isinstance(gain, VnmParams):
        raise TypeError("Monte Carlo transfer gains are defined for the additive family")
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    table = problem.table
    pi = table.pi[:m]

    paths = sample_lattice_paths(lattice, trials, "P", seed)
    counts = simulate_survivor_counts(n, table, trials, seed, label="transfer-mortality")
    bound = (n / lam) * pi
    within = counts <= bound[None, :] + 1e-9
    gate = np.cumprod(within, axis=1).astype(bool)

    wealth = np.full(trials, n * problem.budget)
    node_idx = paths.node_idx
    risky = paths.risky_gross()
    bond = paths.bond_gross()
    disc = np.exp(-gain.discount * grid.points)
    path_gain = np.zeros(trials)
    violations = 0
    tol = 1e-9 * n * problem.budget
    u = gain.utility
    for t in range(m):
        rate_nodes = np.asarray(stream[t])
        rate = lam * rate_nodes[node_idx[:, t]] * gate[:, t]
        drain = counts[:, t] * rate * dt
        alive_u = np.where(gate[:, t], u(np.maximum(lam * rate_nodes[node_idx[:, t]], 0.0)), u(0.0))
        path_gain += disc[t] * (counts[:, t] / n) * np.where(counts[:, t] > 0, alive_u, 0.0) * dt
        wealth = wealth - drain
        violations += int(np.sum(wealth < -tol))
        frac = np.asarray(replication.risky_fraction[t])[node_idx[:, t]]
        wealth = wealth * (frac * risky[:, t] + (1.0 - frac) * bond)
    estimate = float(path_gain.mean())
    se = float(path_gain.std(ddof=1) / np.sqrt(trials)) if np.all(np.isfinite(path_gain)) else math.inf

    # Exact value over the joint (count, gate) chain; market factor exact.
    chain = bound_chain(n, table, lam)
    wp = lattice.node_weights("P")
    exact = 0.0
    u0 = float(u(np.asarray(0.0)))
    for t in range(m):
        expected_live = float(np.arange(n + 1) @ chain.joint[t]) / n
        expected_all = float(np.arange(n + 1) @ chain.count[t]) / n
        node_term = float(wp[t] @ u(lam * np.asarray(stream[t])))
        exact += disc[t] * dt * expected_live * node_term
        # Survivors whose gate has closed consume nothing; skipping an
        # empty gap keeps 0 * u(0) from turning into nan when u(0) = -inf.
        if expected_all > expected_live:
            exact += disc[t] * dt * (expected_all - expected_live) * u0
    target = vnm_value_on_lattice(gain, scale_stream(stream, lam), table, lattice)
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
# Convergence study and policy re-simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: float
    gap_to_infinite: float


def convergence_study(problem: HomogeneousProblem, sizes: Sequence[int]) -> tuple[list[ConvergenceRow], float]:
    """Finite-pool values across sizes plus the infinite-pool value."""
    inf_value = solve_infinite(problem).value
    rows = []
    for n in sizes:
        res = solve_finite_dp(problem.with_n(int(n)))
        rows.append(ConvergenceRow(n=int(n), value=res.value, gap_to_infinite=inf_value - res.value))
    return rows, float(inf_value)


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
    error).
    """
    gain = problem.gain
    if not isinstance(gain, VnmParams):
        raise TypeError("re-simulation consistency is defined for the additive family")
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    paths = PathBundle.from_lattice_paths(sample_lattice_paths(lattice, trials, "P", seed))
    disc = np.exp(-gain.discount * grid.points)
    if math.isfinite(problem.n):
        n = int(problem.n)
        counts = simulate_survivor_counts(n, problem.table, trials, seed, label="resim-mortality")
        from .fund import evolve_finite

        traj = evolve_finite(policy, paths, counts, np.full(n, problem.budget))
        weights = counts / n
    else:
        from .fund import evolve_infinite

        traj = evolve_infinite(policy, paths, problem.table, problem.budget)
        weights = np.broadcast_to(problem.table.pi[:m], (trials, m))
    u_vals = gain.utility(np.maximum(traj.rate, 0.0))
    u_masked = np.where(weights > 0, u_vals, 0.0)
    per_path = np.sum(disc[None, :] * weights * u_masked, axis=1) * grid.dt
    return float(per_path.mean()), float(per_path.std(ddof=1) / np.sqrt(trials))
