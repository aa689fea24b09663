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
kernel ``binomial_transition_matrix``.  It is built with numpy alone along
lines of the rarer outcome (deaths while a step's death probability is at
most 1/2, survivors otherwise).  Each line is held in units of its row
scale ``stay**j`` and a unit of its own, so Pascal's step along a line is
one ``np.add.accumulate`` of the line before; each row stops where a ratio
bound proves its remaining exact mass below 2**-60.  Kept entries are
within about 1e-15 of the exact binomial law, and a row does not depend on
the kernel's size.  ``bound_chain`` steps the count's law forward by one
kernel per step, alone and jointly with the event that the survivor bound
has held so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    def expected_survivors(self, n: int) -> np.ndarray:
        return n * self.pi[: self.grid.n_steps]


# ---------------------------------------------------------------------------
# Table constructors
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Survivor simulation
# ---------------------------------------------------------------------------


def simulate_survivor_counts(
    n: int, table: MortalityTable, trials: int, seed: int, label: str = "mortality"
) -> np.ndarray:
    """Simulate ``trials`` independent pools of ``n`` lives; shape (trials, m).

    The counts are stored time-major, one contiguous row of ``trials``
    counts per grid point, and returned as the transposed view: each step
    draws into a contiguous row, and the fund evolution reads its rows
    back the same way.  They are held in the narrowest unsigned type that
    holds ``n`` (uint8 up to 255 lives, uint16 up to 65 535): integer
    arithmetic on them wraps, so cast before subtracting or scaling.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    gen = substream(seed, label)
    m = table.grid.n_steps
    s = table.step_survival
    counts = np.empty((m, trials), dtype=np.min_scalar_type(n))
    counts[0] = n
    for t in range(m - 1):
        counts[t + 1] = gen.binomial(counts[t], s[t])
    return counts.T


# ---------------------------------------------------------------------------
# Survivor bound
# ---------------------------------------------------------------------------


def survivor_bound(n: int, table: MortalityTable, lam: float) -> np.ndarray:
    """Largest survivor count within ``1/lam`` of its mean, per grid point.

    The bound is ``n * pi_t / lam``; a count satisfies it iff it is at most
    this integer cap.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    return np.floor(table.expected_survivors(n) / lam + 1e-9).astype(int)


# ---------------------------------------------------------------------------
# Exact count chains
# ---------------------------------------------------------------------------

# A kernel row stops once its dropped mass is provably below this.
_KERNEL_TAIL = 2.0**-60
# Lines are held in units that keep every stored value below 2**1024: a row
# block's scale stay**-(j - b) stays below 2**600, a line's unit above
# 2**-360, and one step of Pascal's rule multiplies the largest value by at
# most the number of rows.  Kernels of up to 600 rows need no blocks.
_SCALE_LOG = 600.0 * math.log(2.0)
_UNIT_FLOOR = 2.0**-360
# Lines are written into the matrix this many at a time, so the scratch
# holds no more: at n = 2047, p = 1/2 the kernel took 75 ms when all of
# its lines were held and copied at once, 40 ms in copies of 64.
_CHUNK = 64


def binomial_transition_matrix(max_count: int, survive_prob: float) -> np.ndarray:
    """Matrix T[j, k] = P(Binomial(j, survive_prob) = k), j,k <= max_count.

    Built along lines of the rarer outcome: line i holds the entries with
    i deaths (k = j - i) when q = 1 - p <= 1/2, else those with i
    survivors (k = i).  Along a line, Pascal's step
    T[j, k] = q * T[j-1, k] + p * T[j-1, k-1] reads
    ``y[j] = stay * y[j-1] + move * prev[j-1]``, where ``stay`` is the
    likelier outcome's probability, ``move`` the other's and ``prev`` the
    line before.  Each line is held in units of the row scale ``stay**j``
    and of a unit ``u`` of its own, ``v[j] = y[j] / (stay**j * u)``.  Line
    0 is 1 with unit 1, and line i's unit is ``ratio = move / stay`` times
    the unit of line i - 1, so the step reads ``v[j] = v[j-1] + vprev[j-1]``
    and each line is one ``np.add.accumulate`` of the line before.  A unit
    that falls below 2**-360 is multiplied into its line and reset to 1.
    Where ``stay**-j`` would pass 2**600 (p near 1/2 beyond 600 rows) the
    rows are cut into blocks, each scaled by ``stay**(j - b)`` from its
    first row b, and the running sum enters the next block times
    ``stay**width``.  Lines are multiplied by their row scales and units
    and written into the matrix 64 at a time, one copy per batch.

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
    if q <= 0.5:
        stay, move, sign = p, q, -1  # death lines: row j's entry on line i is T[j, j - i]
    else:
        stay, move, sign = q, p, 1  # survivor lines: T[j, i]
    ratio = move / stay  # stay >= 1/2
    span = -math.log(stay)
    width = int(_SCALE_LOG / span) if span > 0.0 else size  # rows per block
    scale = np.full(min(width, size), stay)
    scale[0] = 1.0
    np.multiply.accumulate(scale, out=scale)
    trans = np.zeros((size, size))
    trans[0, 0] = 1.0
    step = size + 1 if sign < 0 else size  # row j >= 1 on line i sits at flat index j * step + sign * i

    def write(rows: np.ndarray, first: int, units: list[float]) -> None:
        # Lines first, first + 1, ... held in rows, into the matrix.  Rows
        # below a line's first open row hold 0; those below the line's own
        # index land on the matrix's upper triangle, which stays 0.  For
        # lines below size the view stays inside trans and no two of its
        # entries share an address.
        rows *= scale
        rows *= np.array(units)[:, None]
        where = np.ndarray((len(rows), size - 1), float, trans, (step + sign * first) * 8, (sign * 8, step * 8))
        where[...] = rows[:, 1:]

    # chunk[r, j]: row j's entry on line base + r in units of its row scale
    # and of unit[r]; rows that have stopped hold 0.
    chunk = np.zeros((min(_CHUNK, size) + 1, size))  # a kernel has at most size lines
    if width >= size:
        chunk[0] = 1.0
        block_starts: range | tuple = ()
    else:
        carry = stay**width
        scale = np.resize(scale, size)
        chunk[0] = carry ** (np.arange(size) // width)
        block_starts = range(width, size, width)
    row_scale = scale.tolist()
    unit = [1.0]
    eps2 = 2.0 * _KERNEL_TAIL
    start = i = base = 0
    while True:
        # (T + 2 eps) * r < eps holds iff r < 1 and (T + eps) * r / (1 - r) < eps.
        limit = _KERNEL_TAIL * stay * (i + 1)
        entry, u = chunk[i - base].item, unit[i - base]
        while start < size and (entry(start) * row_scale[start] * u + eps2) * ((start - i) * move) < limit:
            start += 1
        if start == size:
            break
        i += 1  # every row below start has stopped, so start >= i
        if i - base > _CHUNK:
            # Write out all lines but the last, which the next line reads.
            last = chunk[_CHUNK].copy()
            write(chunk[:_CHUNK], base, unit[:_CHUNK])
            chunk[0] = last
            chunk[1:] = 0.0
            unit = unit[_CHUNK:]
            base += _CHUNK
        prev, cur = chunk[i - base - 1, start - 1 : -1], chunk[i - base, start:]
        if not block_starts:
            np.add.accumulate(prev, out=cur)
        else:
            cur[...] = prev
            lo = 0  # cur[k] is row start + k
            for b in block_starts:
                if b >= start:
                    k = b - start
                    np.add.accumulate(cur[lo:k], out=cur[lo:k])
                    # Row start - 1 has stopped, so its entry on this line is 0.
                    cur[k] = carry * ((cur.item(k - 1) if k else 0.0) + cur.item(k))
                    lo = k
            np.add.accumulate(cur[lo:], out=cur[lo:])
        u *= ratio
        if u < _UNIT_FLOOR:
            cur *= u
            u = 1.0
        unit.append(u)
    if size > 1:
        write(chunk[: i - base + 1], base, unit)
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


def bound_chain(n: int, table: MortalityTable, lam: float) -> BoundChain:
    """Evolve the exact joint law of count and running bound flag.

    The joint and unconditioned laws are stepped by one product per step
    with that step's kernel; the joint law drops the counts above the bound.
    """
    thresholds = survivor_bound(n, table, lam)
    m = table.grid.n_steps
    s = table.step_survival
    laws = np.zeros((m, 2, n + 1))  # laws[t, 0] is the joint law, laws[t, 1] the count's
    laws[0, :, n] = 1.0  # the bound floor(n / lam) is at least n at the start
    for t in range(m - 1):
        laws[t + 1] = laws[t] @ binomial_transition_matrix(n, s[t])
        laws[t + 1, 0, thresholds[t + 1] + 1 :] = 0.0
    return BoundChain(n=n, lam=lam, joint=laws[:, 0], count=laws[:, 1])
