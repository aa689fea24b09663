"""Value functions of homogeneous collective funds.

Computes the optimal per-survivor consumption and risky allocation for a
pool of ``n`` identical investors (``n`` may be infinite) and the value
achieved by one member.  Since concave gains make the equal-split
strategy weakly dominant, the state is (time, survivor count, fund
wealth) rather than anything per-individual.

A finite pool and the infinite one differ only in how the fund drains:
by the realized survivor count, mixed over each step by the survivor
kernel, or by the deterministic survival fraction, with nothing to mix.
Each dynamic-programming solver takes either drain measure.

Solvers
-------
* Power and log utility factor the wealth dependence out of the Bellman
  equation exactly.  One scaling solver per drain measure, with log
  utility as exponent zero, runs a recursion over (time, drain state)
  with closed-form consumption splits; only the allocation needs a line
  search.
* The remaining families (recursive utility with adequacy, the
  multiplicative family, exponential utility) run on a geometric wealth
  grid with shape-preserving cubic interpolation.
* The infinite pool is additionally solved by the pricing route: choose
  the adapted consumption stream maximizing the gain subject to its
  replication cost not exceeding the budget, then replicate.  For power
  and log utility (exponent zero) the stream is one closed form,
  ``c ~ (exp((b - r) t) dQ/dP) ** (1 / (alpha - 1))``; the other
  families run a gradient-based numeric optimization.  The route
  cross-checks the dynamic-programming one.

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

from .fund import PathBundle, TabulatedPolicy, evolve_finite, evolve_infinite
from .grid import TimeGrid
from .market import (
    Lattice,
    MarketModel,
    Stream,
    build_lattice,
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
    _exp_km_levels,
    _ez_drift,
    _ez_levels,
    exp_km_value_of_rates,
    ez_utility_discrete,
    vnm_value_of_rates,
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
        if not (self.budget > 0):
            raise ValueError("per-person budget must be positive")
        if not (self.n == math.inf or (float(self.n).is_integer() and self.n >= 1)):
            raise ValueError("pool size must be a positive integer or infinity")

    def lattice(self) -> Lattice:
        return build_lattice(self.model, self.grid)

    def with_n(self, n) -> "HomogeneousProblem":
        return HomogeneousProblem(self.gain, self.table, self.model, self.grid, self.budget, n)


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
    """Optimal risky fraction and one-step growth term of a scaling investor.

    The growth term is E[G**alpha] for power utility and E[log G] for log
    utility, passed as ``alpha = 0``.
    """
    p = lattice.p_up

    def moment(g_down, g_up) -> float:
        if alpha == 0.0:
            return (1 - p) * math.log(g_down) + p * math.log(g_up)
        return (1 - p) * g_down**alpha + p * g_up**alpha

    def objective(a: float) -> float:
        g_down, g_up = _portfolio_gross(lattice, a)
        if g_down <= 0 or g_up <= 0:
            return -np.inf
        # An increasing transform of the certainty equivalent.
        return moment(g_down, g_up) if alpha == 0.0 else moment(g_down, g_up) / alpha

    lo, hi = allocation_bounds(lattice)
    a_star = golden_max(objective, lo, hi)[0] if lo < hi else 0.0
    return float(a_star), float(moment(*_portfolio_gross(lattice, a_star)))


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

    The value at fund wealth F is ``(F**alpha / alpha) * theta`` for power
    and ``a * log(F) + c`` for log utility, with coefficients that depend
    on time and the drain state alone.  A pool of ``n`` drains by the
    survivor count j, weighted j/n and mixed over each step by the survivor
    kernel; the infinite pool drains by the survival fraction, with nothing
    to mix, and is kept on scalars.  Every state consumes a closed-form
    fraction of wealth and holds the same risky fraction.
    """
    lattice = problem.lattice()
    grid = problem.grid
    m = grid.n_steps
    dt = grid.dt
    s = problem.table.step_survival
    pi = problem.table.pi[:m]
    a_star, growth = best_power_growth(lattice, alpha)
    disc = np.exp(-problem.gain.discount * grid.points)
    finite = math.isfinite(problem.n)
    # The infinite pool is one state holding one person's wealth.
    n = int(problem.n) if finite else 1
    counts = np.arange(1, n + 1)
    log = np.log if finite else math.log  # math.log keeps the infinite pool on scalars
    # Value coefficients, (theta,) or (a, c): arrays over the survivor
    # counts 0..n, or scalars in the infinite pool.
    coefs = [np.zeros(n + 1) if finite else 0.0 for _ in range(1 if alpha else 2)]
    kappa = np.zeros((m, n + 1 if finite else 1))

    for t in range(m - 1, -1, -1):
        if finite:
            trans = binomial_transition_matrix(n, s[t])
            drain, mixed = counts, [(trans @ v)[1:] for v in coefs]
        elif pi[t] > 0:
            drain, mixed = pi[t], coefs
        else:
            continue  # pi only falls, so these are the last steps: value and policy stay zero
        if alpha:
            # Weight drain/n on the utility of the per-survivor rate k F / (drain dt).
            a_coef = disc[t] * drain ** (1.0 - alpha) * dt ** (1.0 - alpha) / n
            k, theta = _power_split(a_coef, growth * mixed[0], alpha)
            new = [theta]
        else:
            a_next, c_next = mixed
            w = disc[t] * (drain / n) * dt
            # k = w / (w + a) is 1 where a = 0 (no continuation); log(1)
            # then stands in for log(1 - k) and the continuation term is 0.
            k = w / (w + a_next)
            cont = a_next * (log(1.0 - k + (a_next <= 0)) + growth)
            new = [w + a_next, w * (log(k) - log(drain * dt)) + cont + c_next]
        if finite:
            kappa[t, 1:] = k
            for v, x in zip(coefs, new):
                v[1:] = x
        else:
            kappa[t, 0] = k
            coefs = new

    initial = [v[n] for v in coefs] if finite else coefs
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
        with np.errstate(invalid="ignore", over="ignore"):
            agg = _ez_drift(p.risk, p.substitution, p.discount, rate, expected)
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
        policy = GridPolicy(grid, fgrid, padded_kappa, padded_frac)
    else:
        policy = GridPolicy(grid, fgrid, kappa_pol, frac_pol)
    return ValueResult(value=value, method="dp", strategy=policy)


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
    alpha = _scaling_exponent(gain)
    if methods is None:
        additive_without_pricing = isinstance(gain, VnmParams) and alpha is None
        methods = ("dp",) if additive_without_pricing else ("dp", "martingale")
    dp_result = None
    mart_result = None
    if "dp" in methods:
        dp_result = _solve_dp(problem, wealth_points)
    if "martingale" in methods:
        mart_result = _martingale_numeric(problem) if alpha is None else _martingale_closed_form(problem, alpha)
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


def _martingale_closed_form(problem: HomogeneousProblem, alpha: float) -> ValueResult:
    """Pointwise first-order solution for power utility, or log as ``alpha = 0``.

    The rate at a node is ``(exp((b - r) t) dQ/dP) ** (1 / (alpha - 1))``
    scaled to cost the budget: the exact optimum (Cox and Huang 1989).
    """
    gain = problem.gain
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
    stream = scale_stream(raw, problem.budget / cost)
    value = vnm_value_on_lattice(gain, stream, problem.table, lattice)
    rep = _replication_of(stream, lattice, problem.table)
    return ValueResult(
        value=float(value), method="closed_form", strategy=rep, extras={"stream": stream, "replication": rep}
    )


def _adjoint_weights(p_up: float, survival: np.ndarray, slopes: list) -> list[np.ndarray]:
    """Sensitivity of the root value to the alive value at every node.

    The adjoint of the lattice x death backward step: ``slopes[i]`` is the
    derivative of level ``i``'s values in the expectation they were
    computed from, and each level's weights pass back through that
    expectation to the next level.
    """
    lam = np.array([1.0])
    weights = []
    for i, slope in enumerate(slopes):
        weights.append(lam)
        factor = lam * slope * survival[i]
        lam = np.zeros(i + 2)
        lam[1:] += factor * p_up
        lam[:-1] += factor * (1.0 - p_up)
    return weights


def _ez_value_and_grad(params: EzParams, stream_flat, layout, table, lattice):
    """Recursive value of a node stream and its gradient (adjoint sweep)."""
    dt = lattice.grid.dt
    alpha, rho, b = params.risk, params.substitution, params.discount
    levels = [stream_flat[start:stop] for start, stop in layout]
    values, expected = _ez_levels(alpha, rho, b, params.adequacy, levels, table, lattice)
    f_c, f_v = [], []  # the aggregator's partial derivatives in consumption and value
    for c, e in zip(levels, expected):
        av = alpha * e
        f_c.append(b * np.power(c, rho - 1.0) * np.power(av, 1.0 - rho / alpha))
        f_v.append((b * alpha / rho) * ((1.0 - rho / alpha) * np.power(c, rho) * np.power(av, -rho / alpha) - 1.0))
    weights = _adjoint_weights(lattice.p_up, table.step_survival, [1.0 + d * dt for d in f_v])
    grad = np.concatenate([lam * d * dt for lam, d in zip(weights, f_c)])
    return float(values[0][0]), grad


def _marginal_utility(u, c: np.ndarray) -> np.ndarray:
    """u'(c), by central difference for a custom utility."""
    if isinstance(u, ExponentialUtility):
        return np.exp(-u.rate * c)
    if isinstance(u, LogUtility):
        return 1.0 / c
    if isinstance(u, PowerUtility):
        return np.power(c, u.exponent - 1.0)
    eps = 1e-7
    return (u(c + eps) - u(c - eps)) / (2 * eps)


def _expkm_value_and_grad(gain: ExpKmParams, stream_flat, layout, table, lattice):
    """Multiplicative-family value of a node stream and its gradient."""
    dt = lattice.grid.dt
    u = gain.utility
    levels = [stream_flat[start:stop] for start, stop in layout]
    r_levels = _exp_km_levels(gain, levels, table, lattice)
    # J = -R_0, and R at a node is exp(-u(c) dt) times its expectation.
    weights = _adjoint_weights(lattice.p_up, table.step_survival, [np.exp(-u(c) * dt) for c in levels])
    grad = [lam * _marginal_utility(u, c) * dt * r for lam, c, r in zip(weights, levels, r_levels)]
    return float(-r_levels[0][0]), np.concatenate(grad)


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


def solve_measure_problem(
    mu: np.ndarray, u: Callable[[np.ndarray], np.ndarray], budget: float
) -> MeasureProblemResult:
    """Maximize sum(u(g) * mu) over g >= 0 with sum(g * mu) = budget.

    For concave ``u`` the constant allocation budget / sum(mu) is optimal
    by Jensen's inequality, flat (piecewise-linear) stretches included.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0) or mu.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive total")
    if budget < 0:
        raise ValueError("infeasible: budget must be nonnegative")
    allocation = np.full(mu.size, budget / mu.sum())
    return MeasureProblemResult(allocation=allocation, value=float(np.sum(u(allocation) * mu)))


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
        traj = evolve_finite(policy, paths, counts, np.full(n, problem.budget))
        weights = counts / n
    else:
        traj = evolve_infinite(policy, paths, problem.table, problem.budget)
        weights = np.broadcast_to(problem.table.pi[:m], (trials, m))
    u_vals = gain.utility(np.maximum(traj.rate, 0.0))
    u_masked = np.where(weights > 0, u_vals, 0.0)
    per_path = np.sum(disc[None, :] * weights * u_masked, axis=1) * grid.dt
    return float(per_path.mean()), float(per_path.std(ddof=1) / np.sqrt(trials))
