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
``(pi_t - pi_{t+dt}) / pi_t``: the draws of numpy's ``Generator.binomial``,
bit for bit.  Where ``c * min(p, 1 - p) <= 30`` numpy inverts the CDF from one
uniform ``U`` (Kachitvichyanukul & Schmeiser 1988): it subtracts the point
probabilities from ``U`` in turn, returns the first ``k`` whose probability
covers what is left, and draws again past ten standard deviations above the
mean.  That loop's rounding and the table's stay below 2**-44, so where ``U``
lies farther than 2**-36 from every CDF value, ``k`` is the number of CDF
values below ``U``.  A guide table per row (Chen & Asau 1974; Devroye 1986,
III.2) reads it from one of 1024 bins of ``U``; a bin within 2**-36 of a CDF
value is flagged, and its draws are counted against the CDF or, that close
to a value, run numpy's loop in Python floats.

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
        if not np.all(np.isfinite(p)):
            raise ValueError("death masses must be finite")
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
    A non-finite hazard parameter raises, naming the parameter.
    """
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"hazard parameter {name} must be finite, got {value}")
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


def pool_size(n) -> int:
    """A finite pool's size ``n`` as an int: a positive integer, or an integral float."""
    if not (math.isfinite(n) and float(n).is_integer() and n >= 1):
        raise ValueError(f"pool size must be an integer n >= 1, got n = {n}")
    return int(n)


# Table bins, the flag margin, the tail left to the first and last bins and a
# lookup's chunk.  numpy's loop takes a step per draw and one per event drawn;
# a table beats it from about 8000 such steps and 2000 draws per row.
_BINS = 1024
_GAP = 2.0**-36
_TAIL = 2.0**-11
_ROW_CHUNK = 8192
_TABLE_MIN_STEPS = 8000
_TABLE_MIN_DRAWS = 2000


def _inversion_draw(u: float, c: int, rare: float) -> int | None:
    """numpy's inversion loop for count ``c`` and uniform ``u``; None where numpy draws again."""
    q, mean = 1.0 - rare, c * rare
    bound = int(min(c, mean + 10.0 * math.sqrt(mean * q + 1.0)))
    x, px = 0, math.exp(c * math.log(q))
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = (c - x + 1) * rare * px / (x * q)
    return x


def _invert(u: np.ndarray, counts: np.ndarray, rare: float) -> np.ndarray | None:
    """numpy's inversion draws of Binomial(counts, rare) from uniforms ``u``.

    Needs ``counts * rare <= 30``.  None where numpy would draw again, or
    where a count's CDF at numpy's bound falls short of 1 - _TAIL.
    """
    lo = int(counts.min())
    sizes = np.arange(lo, counts.max() + 1.0)
    q, mean = 1.0 - rare, sizes * rare
    bound = np.minimum(sizes, mean + 10.0 * np.sqrt(mean * q + 1.0)).astype(np.intp)
    top = int(bound[-1])  # the bound rises with the count
    # cdf[k, i] = P(X <= k) at count lo + i, held at its bound's value past it.
    k = np.arange(1.0, top + 1.0)[:, None]
    cdf = np.empty((top + 1, sizes.size))
    np.exp(sizes * math.log(q), out=cdf[0])
    np.multiply((sizes + 1.0 - k) * rare / (k * q), k <= bound, out=cdf[1:])
    np.cumsum(np.multiply.accumulate(cdf, axis=0, out=cdf), axis=0, out=cdf)
    if cdf[-1].min() < 1.0 - _TAIL:
        return None
    # Per count: bin 0 flagged, then for each CDF value from first to last the
    # number of values below it and the bins within _GAP of it flagged, then
    # the last bin flagged.  P(X <= k) falls as the count grows, so the values
    # left out lie within _TAIL of 0 or 1, in the flagged end bins.
    first = int(np.count_nonzero(cdf[:, 0] < _TAIL))
    last = int(np.count_nonzero(cdf[:, -1] < 1.0 - _TAIL))
    edges = np.empty((2 * (last - first) + 4, sizes.size))
    edges[[0, 1, -2, -1]] = [[0.0], [1.0], [_BINS - 1.0], [_BINS]]
    edges[2:-2:2] = cdf[first:last] * _BINS - _BINS * _GAP
    edges[3:-2:2] = cdf[first:last] * _BINS + (_BINS * _GAP + 1.0)
    ends = np.maximum.accumulate(np.minimum(edges, _BINS).astype(np.intp), axis=0)
    values = np.full(2 * (last - first) + 3, 255, np.uint8)
    values[1::2] = np.arange(first, last + 1)
    table = np.repeat(np.tile(values, sizes.size), np.diff(ends, axis=0).T.ravel())
    x = np.empty(counts.size, np.uint8)
    for i in range(0, counts.size, _ROW_CHUNK):  # short-lived index arrays
        at = np.multiply(counts[i : i + _ROW_CHUNK] - lo, _BINS, dtype=np.intp)
        at += (u[i : i + _ROW_CHUNK] * _BINS).astype(np.intp)
        table.take(at, out=x[i : i + _ROW_CHUNK])
    flagged = np.flatnonzero(x == 255)
    if flagged.size:
        size, v = counts[flagged] - lo, u[flagged]
        gap = cdf[:, size].T - v[:, None]
        drawn = np.count_nonzero(gap < 0.0, axis=1)
        for j in np.flatnonzero(np.any(np.abs(gap) <= _GAP, axis=1)):
            exact = _inversion_draw(float(v[j]), lo + int(size[j]), rare)
            drawn[j] = top + 1 if exact is None else exact
        if np.any(drawn > bound[size]):
            return None
        x[flagged] = drawn
    return x


def _draw_row(gen: np.random.Generator, counts: np.ndarray, p: float, out: np.ndarray) -> bool:
    """Draw Binomial(counts, p) into ``out`` as ``gen.binomial`` would; False leaves it the row."""
    rare = p if p <= 0.5 else 1.0 - p
    live = np.count_nonzero(counts)
    if not 0.0 < p <= 1.0 or live < _TABLE_MIN_DRAWS or counts.max() * rare > 30.0:
        return False
    if live + rare * counts.sum() < _TABLE_MIN_STEPS:
        return False
    state = gen.bit_generator.state
    alive = counts != 0 if live < counts.size else slice(None)  # a zero count draws nothing
    x = _invert(gen.random(live), counts[alive], rare)
    if x is None:
        gen.bit_generator.state = state
        return False
    out[...] = 0
    out[alive] = x if p <= 0.5 else counts[alive] - x
    return True


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

    Each row holds ``gen.binomial(counts[t], s[t])``'s draws bit for bit.
    A row that numpy draws by inversion alone takes one uniform per nonzero
    count and reads each draw from its table (see the module docstring).
    Rows with a count numpy draws by BTPE (``c * min(p, 1 - p) > 30``), rows
    too small for a table to pay (fewer than 2000 nonzero counts, or fewer
    than 8000 steps of numpy's loop, one per draw and one per event), and
    rows with a uniform that numpy draws again go to ``gen.binomial``
    itself, from the same stream position.  Once every pool is extinct the
    remaining rows are zero and nothing more is drawn.
    """
    n = pool_size(n)
    if trials < 1:
        raise ValueError("need trials >= 1")
    gen = substream(seed, label)
    m = table.grid.n_steps
    s = table.step_survival
    counts = np.empty((m, trials), dtype=np.min_scalar_type(n))
    counts[0] = n
    for t in range(m - 1):
        if not counts[t].any():
            counts[t + 1 :] = 0  # a zero count draws nothing: the stream stays put
            break
        if not _draw_row(gen, counts[t], s[t], counts[t + 1]):
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
    n = pool_size(n)
    thresholds = survivor_bound(n, table, lam)
    m = table.grid.n_steps
    s = table.step_survival
    laws = np.zeros((m, 2, n + 1))  # laws[t, 0] is the joint law, laws[t, 1] the count's
    laws[0, :, n] = 1.0  # the bound floor(n / lam) is at least n at the start
    for t in range(m - 1):
        laws[t + 1] = laws[t] @ binomial_transition_matrix(n, s[t])
        laws[t + 1, 0, thresholds[t + 1] + 1 :] = 0.0
    return BoundChain(n=n, lam=lam, joint=laws[:, 0], count=laws[:, 1])
