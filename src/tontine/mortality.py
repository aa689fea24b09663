"""Mortality on the consumption grid and survivor-count machinery.

A mortality table assigns a death-mass density ``p_t`` (per year, with
respect to the grid measure) to every grid point, so ``sum(p_t) * dt = 1``:
death is certain by the horizon.  The survival fraction ``pi_t`` counts
individuals whose death time is greater than or equal to ``t``; a death at
``t`` still consumes at ``t``.  Continuous parametric laws are discretized
by matching survival at the grid points, with all residual mass placed on
the last grid point.

Survivor counts of a pool of independent lives are simulated by exact
binomial thinning with the per-step conditional death probability
``(pi_t - pi_{t+dt}) / pi_t``.

Exact count chains step the law of the survivor count by the binomial
kernel ``binomial_transition_matrix``.  It is built along lines of the
rarer outcome (deaths while a step's death probability is at most 1/2,
survivors otherwise), one bidiagonal solve per line, and each row stops
where a ratio bound proves its remaining exact mass below 2**-60.  Kept
entries are within about 1e-15 of the exact binomial law, and a row does
not depend on the kernel's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv as _tbsv

from .grid import TimeGrid
from .rng import substream


@dataclass(frozen=True)
class MortalityTable:
    """Death-mass density on the grid with derived distribution objects.

    ``p`` has one entry per grid point.  ``pi`` has ``n_steps + 1``
    entries: the survival fraction at each grid point plus the terminal
    time, where it is zero by construction.
    """

    grid: TimeGrid
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.grid.n_steps,):
            raise ValueError(f"death masses have shape {p.shape}, expected ({self.grid.n_steps},)")
        if np.any(p < 0):
            raise ValueError("death masses must be nonnegative")
        total = p.sum() * self.grid.dt
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"death masses integrate to {total}, expected 1")
        object.__setattr__(self, "p", p)

    @property
    def cdf(self) -> np.ndarray:
        """F(t) = P(death time < t) at each grid point."""
        return np.concatenate([[0.0], np.cumsum(self.p[:-1]) * self.grid.dt])

    @property
    def pi(self) -> np.ndarray:
        """Survival fraction P(death time >= t) at grid points and horizon."""
        mass = np.cumsum(self.p) * self.grid.dt
        pi = np.empty(self.grid.n_steps + 1)
        pi[0] = 1.0
        pi[1:] = np.maximum(1.0 - mass, 0.0)
        return pi

    @property
    def step_survival(self) -> np.ndarray:
        """P(alive at t+dt | alive at t) per grid point; 0 once extinct."""
        pi = self.pi
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(pi[:-1] > 0, pi[1:] / np.where(pi[:-1] > 0, pi[:-1], 1.0), 0.0)
        return np.clip(s, 0.0, 1.0)

    @property
    def almost_sure_death_time(self) -> float:
        """Earliest time by which death is certain."""
        pi = self.pi
        idx = np.nonzero(pi <= 0.0)[0]
        return float(self.grid.times[idx[0]])

    def expected_survivors(self, n: int) -> np.ndarray:
        return n * self.pi[: self.grid.n_steps]


# ---------------------------------------------------------------------------
# Table constructors
# ---------------------------------------------------------------------------


def uniform_table(grid: TimeGrid) -> MortalityTable:
    """Death time uniform over the grid points."""
    return MortalityTable(grid, np.full(grid.n_steps, 1.0 / grid.horizon))


def point_mass_table(grid: TimeGrid, at: float | None = None) -> MortalityTable:
    """All deaths at a single grid point (default: the last one).

    With the mass at the last grid point nobody dies early, which is the
    no-early-mortality benchmark.
    """
    idx = grid.n_steps - 1 if at is None else grid.index_of(at)
    p = np.zeros(grid.n_steps)
    p[idx] = 1.0 / grid.dt
    return MortalityTable(grid, p)


def gompertz_makeham_survival(a: float, b: float, c: float, t: np.ndarray) -> np.ndarray:
    """Survival function for hazard ``a + b * exp(c * t)``."""
    t = np.asarray(t, dtype=float)
    if abs(c) < 1e-14:
        hazard_integral = (a + b) * t
    else:
        hazard_integral = a * t + (b / c) * (np.exp(c * t) - 1.0)
    return np.exp(-hazard_integral)


def gompertz_makeham_table(grid: TimeGrid, a: float, b: float, c: float) -> MortalityTable:
    """Discretized Gompertz-Makeham law, truncated and renormalized.

    Survival is matched exactly at every grid point; the mass not spent by
    the last grid point is placed there so death is certain by the horizon.
    """
    if a < 0 or b < 0 or a + b <= 0:
        raise ValueError("hazard parameters must be nonnegative with a + b > 0")
    surv = gompertz_makeham_survival(a, b, c, grid.points)
    p = np.empty(grid.n_steps)
    p[:-1] = (surv[:-1] - surv[1:]) / grid.dt
    p[-1] = surv[-1] / grid.dt
    return MortalityTable(grid, p)


def explicit_table(grid: TimeGrid, p: np.ndarray) -> MortalityTable:
    """Table from explicit masses, renormalized so death is certain by T."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("death masses must be nonnegative")
    peak = p.max(initial=0.0)
    if peak <= 0:
        raise ValueError("death masses must have positive total")
    # Scale to a unit peak first: subnormal masses carry too few bits for
    # p / total to sum to one.
    p = p / peak
    return MortalityTable(grid, p / (p.sum() * grid.dt))


# ---------------------------------------------------------------------------
# Survivor simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivorPath:
    """One realized survivor-count path; counts are nonincreasing."""

    n0: int
    counts: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts[0] != self.n0:
            raise ValueError("path must start at the initial count")
        if np.any(np.diff(counts) > 0) or np.any(counts < 0):
            raise ValueError("survivor counts must be nonincreasing and nonnegative")
        object.__setattr__(self, "counts", counts)


def simulate_survivor_counts(
    n: int, table: MortalityTable, trials: int, seed: int, label: str = "mortality"
) -> np.ndarray:
    """Simulate ``trials`` independent pools of ``n`` lives; shape (trials, m)."""
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    gen = substream(seed, label)
    m = table.grid.n_steps
    s = table.step_survival
    counts = np.empty((trials, m), dtype=np.int64)
    counts[:, 0] = n
    for t in range(m - 1):
        counts[:, t + 1] = gen.binomial(counts[:, t], s[t])
    return counts


def simulate_survivors(n: int, table: MortalityTable, seed: int) -> SurvivorPath:
    """Simulate one survivor-count path by exact binomial thinning."""
    counts = simulate_survivor_counts(n, table, 1, seed)[0]
    return SurvivorPath(n, counts, int(seed))


def simulate_death_times(n: int, table: MortalityTable, seed: int, label: str = "deaths") -> np.ndarray:
    """Death times of ``n`` individual lives (each on a grid point)."""
    gen = substream(seed, label)
    u = gen.random(n)
    cdf_incl = np.cumsum(table.p) * table.grid.dt  # P(tau <= t), inclusive
    idx = np.searchsorted(cdf_incl, u, side="left")
    idx = np.minimum(idx, table.grid.n_steps - 1)
    return table.grid.points[idx]


def counts_from_death_times(taus: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Survivor counts n_t = #{i : tau_i >= t} on the grid points."""
    return np.array([(taus >= t - 1e-12).sum() for t in grid.points], dtype=np.int64)


# ---------------------------------------------------------------------------
# Survivor-bound event and its finite anchor set
# ---------------------------------------------------------------------------


def survivor_bound(n: int, table: MortalityTable, lam: float) -> np.ndarray:
    """Largest survivor count within ``1/lam`` of its mean, per grid point.

    The bound is ``n * pi_t / lam``; a count satisfies it iff it is at most
    this integer cap.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    return np.floor(table.expected_survivors(n) / lam + 1e-9).astype(int)


def survivor_bound_event(
    path: SurvivorPath, table: MortalityTable, lam: float, up_to: float | None = None
) -> bool:
    """True iff the count never exceeds ``1/lam`` times its mean up to ``up_to``."""
    bound = survivor_bound(path.n0, table, lam)
    points = table.grid.points
    limit = points[-1] if up_to is None else up_to
    mask = points <= limit + 1e-12
    return bool(np.all(path.counts[mask] <= bound[mask]))


def finite_time_points(table: MortalityTable, t0: float, eps: float) -> np.ndarray:
    """Anchor times whose pointwise survivor bounds control the whole interval.

    Starting from ``t0`` and walking toward zero, each anchor is the
    earliest grid point whose expected survivor count is within a factor
    ``1/(1-eps)`` of the previous anchor's.  If no grid point strictly
    below satisfies that (more than an ``eps`` fraction dies in one step),
    the immediately preceding grid point is used so the sequence still
    descends; when that happens on the first step, ``t0`` itself is kept
    in the set so the interval stays covered.  The result is a finite
    decreasing sequence ending at 0.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if t0 < 0 or t0 >= table.almost_sure_death_time - 1e-12:
        raise ValueError("t0 must lie in [0, T*) where T* is the almost-sure death time")
    pi = table.pi[: table.grid.n_steps]
    start = int(np.searchsorted(table.grid.points, t0 + 1e-12) - 1)
    start = max(start, 0)
    anchors: list[int] = []
    prev = start
    first_step_fallback = False
    while prev > 0:
        target = pi[prev] / (1.0 - eps)
        below = np.nonzero(pi[:prev] <= target * (1.0 + 1e-12))[0]
        if below.size:
            nxt = int(below[0])
        else:
            nxt = prev - 1
            if prev == start:
                first_step_fallback = True
        anchors.append(nxt)
        prev = nxt
    if not anchors:
        anchors = [0]
    idx = ([start] if first_step_fallback else []) + anchors
    return table.grid.points[np.asarray(idx, dtype=int)]


@dataclass(frozen=True)
class TimePointBoundReport:
    """Monte Carlo estimates of the two sides of the anchor-set bound."""

    lhs_prob: float
    rhs_prob: float
    lhs_se: float
    rhs_se: float
    anchors: np.ndarray
    trials: int
    violation: bool


def check_time_point_bound(
    n: int, table: MortalityTable, t0: float, eps: float, trials: int, seed: int
) -> TimePointBoundReport:
    """Compare P(uniform squared-factor bound on [0, t0]) with P(anchor bounds).

    The left-hand event requires ``n_t <= (1/(1-eps))^2 E(n_t)`` at every
    grid point up to ``t0``; the right-hand event requires
    ``n_t <= (1/(1-eps)) E(n_t)`` at the anchor points only.  A violation
    is reported if the left probability falls more than three combined
    standard errors below the right one.
    """
    anchors = finite_time_points(table, t0, eps)
    counts = simulate_survivor_counts(n, table, trials, seed, label="time-point-bound")
    window = table.grid.points <= t0 + 1e-12
    lhs_events = np.all(counts[:, window] <= survivor_bound(n, table, (1.0 - eps) ** 2)[window], axis=1)
    anchor_idx = np.array([table.grid.index_of(t) for t in anchors])
    rhs_events = np.all(counts[:, anchor_idx] <= survivor_bound(n, table, 1.0 - eps)[anchor_idx], axis=1)
    lhs = float(lhs_events.mean())
    rhs = float(rhs_events.mean())
    lhs_se = float(np.sqrt(max(lhs * (1 - lhs), 1e-300) / trials))
    rhs_se = float(np.sqrt(max(rhs * (1 - rhs), 1e-300) / trials))
    combined = float(np.hypot(lhs_se, rhs_se))
    return TimePointBoundReport(
        lhs_prob=lhs,
        rhs_prob=rhs,
        lhs_se=lhs_se,
        rhs_se=rhs_se,
        anchors=anchors,
        trials=trials,
        violation=bool(lhs < rhs - 3.0 * combined),
    )


# ---------------------------------------------------------------------------
# Exact count chains
# ---------------------------------------------------------------------------

# A kernel row stops once its dropped mass is provably below this.
_KERNEL_TAIL = 2.0**-60


def binomial_transition_matrix(max_count: int, survive_prob: float) -> np.ndarray:
    """Matrix T[j, k] = P(Binomial(j, survive_prob) = k), j,k <= max_count.

    Built along lines of the rarer outcome: line i holds the entries with
    i deaths (k = j - i) when q = 1 - p <= 1/2, else those with i
    survivors (k = i).  Along a line, Pascal's step
    T[j, k] = q * T[j-1, k] + p * T[j-1, k-1] reads
    ``y[j] = stay * y[j-1] + move * prev[j-1]``, where ``stay`` is the
    likelier outcome's probability, ``move`` the other's and ``prev`` the
    line before.  Line 0 is ``stay**j``; each further line is one unit
    lower-bidiagonal solve.

    From line i to line i + 1 row j changes by the ratio
    ``r = (j - i) / (i + 1) * move / stay``, which falls with i, so once
    r < 1 the row's exact mass beyond line i is at most ``T * r / (1 - r)``
    for its exact entry T.  Rows stop in order, each line starting at the
    first row still open, so row j depends on rows below it only and not
    on ``max_count``.  A kept entry falls short of its exact value by at
    most the largest entry dropped below it, which lies in a stopped row's
    tail, so T is at most the kept entry plus eps = 2**-60.  A row stops
    at the first line where ``(entry + eps) * r / (1 - r)`` is below eps
    and is zero beyond it.  Each row thus drops at most 2**-60 of its
    exact mass, and its kept entries are within about 1e-15 of the exact
    binomial law; the kernel is exact at p = 0 and p = 1.

    Below p = 1/2 the float q can differ from 1 - p in its last bit; entry
    (j, k) carries that bias as a factor (q/(1-p))^(j-k), which is divided
    out at the end so that entries near one stay correct when p is tiny.
    """
    p = float(survive_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError("survive_prob must lie in [0, 1]")
    if max_count < 0:
        raise ValueError("max_count must be nonnegative")
    q = 1.0 - p
    size = max_count + 1
    trans = np.zeros((size, size))
    # Row j's entry on line i is T[j, j - i] on death lines and T[j, i] on
    # survivor lines: flat index j * (size + 1) - i or j * size + i.
    flat = trans.reshape(-1)
    if q <= 0.5:
        stay, move, step, sign = p, q, size + 1, -1
    else:
        stay, move, step, sign = q, p, size, 1
    band = np.full((2, size), -stay, order="F")
    line = np.full(size, stay)
    line[0] = 1.0
    np.multiply.accumulate(line, out=line)
    flat[::step] = line
    nxt = np.empty(size)
    start = i = 0
    while True:
        # (T + 2 eps) * r < eps holds iff r < 1 and (T + eps) * r / (1 - r) < eps.
        limit = _KERNEL_TAIL * stay * (i + 1)
        while start < size and (line.item(start) + 2.0 * _KERNEL_TAIL) * ((start - i) * move) < limit:
            start += 1
        if start == size:
            break
        i += 1  # every row below start has stopped, so start >= i
        np.multiply(line[start - 1 : -1], move, out=nxt[start:])
        nxt[start - 1] = 0.0  # row start - 1 has stopped; the next line reads it
        # Unit lower-bidiagonal solve nxt[j] - stay * nxt[j-1] = rhs[j] from
        # row start: dtbsv(k, a, x, incx, offx, lower, trans, diag, overwrite_x).
        _tbsv(1, band[:, : size - start], nxt, 1, start, 1, 0, 1, 1)
        flat[start * step + sign * i :: step] = nxt[start:]
        line, nxt = nxt, line
    q_error = (1.0 - q) - p  # exact: (1 - p) - q
    if q_error:
        log_bias = np.log1p(q_error / q) * np.arange(size)
        trans *= np.exp(log_bias)[:, None]
        trans *= np.exp(-log_bias)[None, :]
    return trans


@dataclass(frozen=True)
class BoundChain:
    """Exact law of (survivor count, bound-still-holds flag) over time.

    ``joint[t, j]`` is P(n_t = j and the 1/lam bound held at all s <= t);
    ``count[t, j]`` is the unconditioned P(n_t = j).
    """

    n: int
    lam: float
    joint: np.ndarray
    count: np.ndarray

    def prob_bound_holds(self, up_to_idx: int) -> float:
        return float(self.joint[up_to_idx].sum())


def bound_chain(n: int, table: MortalityTable, lam: float) -> BoundChain:
    """Evolve the exact joint law of count and running bound flag."""
    thresholds = survivor_bound(n, table, lam)
    m = table.grid.n_steps
    s = table.step_survival
    joint = np.zeros((m, n + 1))
    count = np.zeros((m, n + 1))
    count[0, n] = 1.0
    joint[0, n] = 1.0  # the bound floor(n / lam) is at least n at the start
    for t in range(m - 1):
        trans = binomial_transition_matrix(n, s[t])
        count[t + 1] = count[t] @ trans
        nxt = joint[t] @ trans
        nxt[thresholds[t + 1] + 1 :] = 0.0
        joint[t + 1] = nxt
    return BoundChain(n=n, lam=lam, joint=joint, count=count)
