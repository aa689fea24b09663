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
value is flagged, and its draws are counted against the CDF.  A row with a
draw that close to a value is left to numpy.

Exact count chains step the law of the survivor count by the binomial
kernel ``binomial_transition_matrix``, which is held as its band: the lines
of the rarer outcome (deaths while a step's death probability is at most
1/2, survivors otherwise), one ``(lines, max_count + 1)`` array, never a
dense (n+1)**2 matrix.  Each line is held in units of its row scale
``stay**j`` and a unit of its own, so Pascal's step along a line is one
``np.add.accumulate`` of the line before; one vectorised pass over the
finished band stops each row where a ratio bound proves its remaining exact
mass below 2**-60.  Kept entries are within about 1e-15 of the exact
binomial law, and a row does not depend on the kernel's size.  The kernel's
two products read the band directly: ``mix`` (the kernel's top-left block
times values, a backward sweep's expectation over the next count) and
``push`` (a law times the kernel, a forward step of the count's law).
``bound_chain`` pushes the joint law of the count and the event that the
survivor bound has held so far forward by one kernel per step.  That law
is zero above the bound, so each step's kernel stops at the bound, not at
the pool size.  The count alone is Binomial(n, pi_t), taken in closed form
when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import TimeGrid
from .rng import substream, whole_count


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
    return whole_count(n, "n", 1)


# Table bins, the flag margin and the tail left to the first and last bins.
_BINS = 1024
_GAP = 2.0**-36
_TAIL = 2.0**-11


def _invert(u: np.ndarray, counts: np.ndarray, rare: float) -> np.ndarray | None:
    """numpy's inversion draws of Binomial(counts, rare) from uniforms ``u``.

    Needs ``counts * rare <= 30``.  None where numpy would draw again, where
    a count's CDF at numpy's bound falls short of 1 - _TAIL, or where a
    uniform lies within _GAP of a CDF value, too close for the table to tell
    which side numpy's loop rounds it to.
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
    at = np.multiply(counts - lo, _BINS, dtype=np.intp)
    at += (u * _BINS).astype(np.intp)
    x = table.take(at)
    flagged = np.flatnonzero(x == 255)
    if flagged.size:
        size, v = counts[flagged] - lo, u[flagged]
        gap = cdf[:, size].T - v[:, None]
        drawn = np.count_nonzero(gap < 0.0, axis=1)
        if np.any(drawn > bound[size]) or np.any(np.abs(gap) <= _GAP):
            return None
        x[flagged] = drawn
    return x


def _draw_row(gen: np.random.Generator, counts: np.ndarray, p: float, out: np.ndarray) -> bool:
    """Draw Binomial(counts, p) into ``out`` as ``gen.binomial`` would; False leaves it the row."""
    rare = p if p <= 0.5 else 1.0 - p
    if not 0.0 < p <= 1.0 or counts.max() * rare > 30.0:
        return False
    live = np.count_nonzero(counts)
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
    Rows the table cannot answer exactly go to ``gen.binomial`` itself, from
    the same stream position: those with a count numpy draws by BTPE
    (``c * min(p, 1 - p) > 30``) and those with a uniform that numpy draws
    again or that lies within 2**-36 of a CDF value.  Once every pool is
    extinct the remaining rows are zero and nothing more is drawn.
    """
    n = pool_size(n)
    trials = whole_count(trials, "trials", 1)
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
# Band entries tested for their row's stop at a time, so that the test's
# scratch stays small beside the band.
_TEST_BLOCK = 2**13


def _line_capacity(top: int, move: float) -> int:
    """Lines allocated before a band grows: the last row's mean rarer count, ten root means and 12.

    The 2**-60 tail lies about nine standard deviations past the mean; a
    band that needs more lines grows.
    """
    mean = top * move
    return min(top + 1, int(mean + 10.0 * math.sqrt(mean)) + 12)


@dataclass(frozen=True)
class BinomialKernel:
    """One step's survivor kernel K[j, k] = P(Binomial(j, p) = k), held as its band.

    ``band[i, j]`` is row j's entry on line i: K[j, j - i], i deaths, when
    ``deaths`` (q = 1 - p <= 1/2), else K[j, i], i survivors.  It is zero
    where j < i and past the line where row j stops; every entry of K off
    the band is zero.  The band has ``max_count + 1`` columns and as many
    lines as the last row keeps.  ``mix`` and ``push`` are the kernel's
    products, read from the band without a dense (n+1)**2 matrix.
    """

    band: np.ndarray
    deaths: bool

    def mix(self, values: np.ndarray) -> np.ndarray:
        """``K[:r, :r] @ values`` with ``r = len(values)``, for 1-D or 2-D ``values``.

        On survivor lines this is one product with the band's transpose.  On
        death lines row j reads values[j - i] on line i, a view of the values
        shifted once per line, summed by one ``einsum``.
        """
        r = len(values)
        band = self.band[:r, :r]  # lines past r - 1 reach rows past r - 1 only
        lines = len(band)
        if not self.deaths:
            return band.T @ values[:lines]
        pad = np.zeros((lines + r,) + values.shape[1:])
        pad[lines:] = values
        row = pad.strides[0]
        shifted = np.ndarray((lines,) + values.shape, float, pad, lines * row, (-row,) + pad.strides)
        return np.einsum("ij,ij...->j...", band, shifted)

    def push(self, law: np.ndarray) -> np.ndarray:
        """``law @ K`` for a law over the counts 0 .. max_count, or one such law per row.

        On survivor lines this is one product with the band.  On death lines
        count k sums line i's entry at row k + i times law[k + i], one
        ``einsum`` over the band's diagonals and windows of the law.  The law
        is padded with zeros past its last count, where a diagonal runs on
        into the next line; the last line, which has no next line, is added
        on its own.
        """
        band = self.band
        lines, size = band.shape
        if not self.deaths:
            out = np.zeros(law.shape)
            out[..., :lines] = law @ band.T
            return out
        pad = np.zeros(law.shape[:-1] + (size + lines - 1,))
        pad[..., :size] = law
        step = pad.strides[-1]
        windows = np.ndarray(law.shape[:-1] + (lines - 1, size), float, pad, 0, pad.strides[:-1] + (step, step))
        diagonals = np.ndarray((lines - 1, size), float, band, 0, (band.strides[0] + band.strides[1], band.strides[1]))
        out = np.einsum("ik,...ik->...k", diagonals, windows)
        out[..., : size - lines + 1] += band[-1, lines - 1 :] * law[..., lines - 1 :]
        return out


def binomial_transition_matrix(max_count: int, survive_prob: float) -> BinomialKernel:
    """Kernel T[j, k] = P(Binomial(j, survive_prob) = k), j,k <= max_count, as its band.

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
    and each line is one ``np.add.accumulate`` of the line before, over
    rows i and up.  A unit that falls below 2**-360 is multiplied into its
    line and reset to 1.  Where ``stay**-j`` would pass 2**600 (p near 1/2
    beyond 600 rows) the rows are cut into blocks, each scaled by
    ``stay**(j - b)`` from its first row b, and the running sum enters the
    next block times ``stay**width``.  Once every line is built the band is
    multiplied by its row scales and units.

    From line i to line i + 1 row j changes by the ratio
    ``r = (j - i) / (i + 1) * move / stay``, which falls with i, so once
    r < 1 the row's exact mass beyond line i is at most ``T * r / (1 - r)``
    for its exact entry T.  A row stops at the first line where
    ``(T + eps) * r / (1 - r)`` is below eps = 2**-60, that is
    ``(T + 2 eps) * r < eps``, and is zero beyond it, so each row drops at
    most 2**-60 of its exact mass.  Lines are added until the last row
    stops; along a line's tail T and r rise with the row, so every row has
    stopped by then.  The test runs once over the finished band, a block of
    lines at a time, and zeroes each row past the line where it passed.
    No entry is dropped while the lines are built, so kept entries are
    within about 1e-15 of the exact binomial law, a row depends on rows
    below it only and so not on ``max_count``, and the kernel is exact at
    p = 0 and p = 1.

    Below p = 1/2 the float q can differ from 1 - p in its last bit; entry
    (j, k) carries that bias as a factor (q/(1-p))^(j-k), which is divided
    out at the end so that entries near one stay correct when p is tiny.
    A ``max_count`` that is not a nonnegative integer raises.
    """
    p = float(survive_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError("survive_prob must lie in [0, 1]")
    size = whole_count(max_count, "max_count", 0) + 1
    top = size - 1
    q = 1.0 - p
    deaths = q <= 0.5
    stay, move = (p, q) if deaths else (q, p)
    ratio = move / stay  # stay >= 1/2
    span = -math.log(stay)
    width = int(_SCALE_LOG / span) if span > 0.0 else size  # rows per block
    scale = np.full(min(width, size), stay)
    scale[0] = 1.0
    np.multiply.accumulate(scale, out=scale)
    # band[i, j]: row j's entry on line i in units of its row scale and of
    # units[i]; rows below the line hold 0, and so does a spare line past
    # the last, which the test's diagonal view reads.
    band = np.zeros((_line_capacity(top, move) + 1, size))
    if width >= size:
        band[0] = 1.0
        block_starts: range | tuple = ()
    else:
        carry = stay**width
        scale = np.resize(scale, size)
        band[0] = carry ** (np.arange(size) // width)
        block_starts = range(width, size, width)
    top_scale = scale.item(top)
    units = [1.0]
    u = 1.0
    eps2 = 2.0 * _KERNEL_TAIL
    accumulate = np.add.accumulate
    # The test needs r < 1/2, so the last row cannot stop below this line.
    earliest = int((2.0 * top * move - stay) / (2.0 * move + stay))
    i = 0
    cur = band[0]
    while i < earliest or (cur.item(-1) * top_scale * u + eps2) * ((top - i) * move) >= _KERNEL_TAIL * stay * (i + 1):
        i += 1  # the last row has not stopped, so i <= top
        if i + 1 == len(band):
            band = np.concatenate((band, np.zeros((min(i, size - i), size))))
        prev, cur = cur[:-1], band[i, i:]
        if not block_starts:
            accumulate(prev, out=cur)
        else:
            cur[...] = prev
            lo = 0  # cur[k] is row i + k
            for b in block_starts:
                if b >= i:
                    k = b - i
                    accumulate(cur[lo:k], out=cur[lo:k])
                    # Row i - 1 lies below line i, so its entry there is 0.
                    cur[k] = carry * ((cur.item(k - 1) if k else 0.0) + cur.item(k))
                    lo = k
            accumulate(cur[lo:], out=cur[lo:])
        u *= ratio
        if u < _UNIT_FLOOR:
            cur *= u
            u = 1.0
        units.append(u)
    lines = i + 1
    band[:lines] *= scale
    band[:lines] *= np.array(units)[:, None]
    # diagonal[i, c] is row i + c's entry on line i, so its ratio's factor
    # (j - i) * move is c * move in every line; past the last row it reads
    # the zeros below the next line.  Each block of lines is tested before
    # any of its entries is zeroed: from the last block down, a block
    # zeroes the entries just above those that passed.  A row fails where
    # r >= 1/2, from c = stay * (i + 1) / (2 * move) on, so no block tests
    # past that column.
    diagonal = np.ndarray((lines, size), float, band, 0, ((size + 1) * 8, 8))
    gap = np.arange(size) * move
    limit = (_KERNEL_TAIL * stay) * np.arange(1.0, lines + 1.0)[:, None]
    block = max(1, _TEST_BLOCK // size)
    for lo in range((lines - 1) // block * block, -1, -block):
        hi = min(lo + block, lines)
        cols = min(size - lo, int(hi / (2.0 * ratio)) + 2 if ratio else size)
        test = diagonal[lo:hi, :cols] + eps2
        test *= gap[:cols]
        passed = test < limit[lo:hi]
        above = diagonal[lo + 1 : hi + 1, : cols - 1]
        np.copyto(above, 0.0, where=passed[: len(above), 1:])
    band = band[:lines]
    q_error = (1.0 - q) - p  # exact: (1 - p) - q
    if q_error:
        j_minus_k = np.arange(lines)[:, None] if deaths else np.arange(size) - np.arange(lines)[:, None]
        band *= np.exp(np.log1p(q_error / q) * j_minus_k)
    return BinomialKernel(band, deaths)


@dataclass(frozen=True)
class BoundChain:
    """Exact law of (survivor count, bound-still-holds flag) over time.

    ``joint[t, j]`` is P(n_t = j and the 1/lam bound held at all s <= t);
    ``count[t, j]`` is the unconditioned P(n_t = j), Binomial(n, pi_t),
    built from the survival probabilities ``pi`` when first read.
    """

    n: int
    lam: float
    joint: np.ndarray
    pi: np.ndarray

    @cached_property
    def count(self) -> np.ndarray:
        return binomial_law(self.n, self.pi)


def binomial_law(n: int, probs: np.ndarray) -> np.ndarray:
    """P(Binomial(n, p) = k) for k = 0 .. n, one row per success probability in ``probs``.

    Summed in log space, so no binomial coefficient or power overflows or
    underflows on its own at any ``n``; p = 0 and p = 1 give the point
    masses at 0 and n.
    """
    k = np.arange(n + 1)
    p = probs[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 is -inf, and 0 * log 0 counts as 0
        log_law = np.where(k > 0, k * np.log(p), 0.0) + np.where(k < n, (n - k) * np.log1p(-p), 0.0)
    log_law[:, 1:] += np.cumsum(np.log((n - k[:-1]) / k[1:]))  # log C(n, k)
    return np.exp(log_law)


def bound_chain(n: int, table: MortalityTable, lam: float) -> BoundChain:
    """Exact law of the survivor count, alone and jointly with the running bound flag.

    The joint law is zero above the cap ``b_t = min(survivor_bound[t], n)``,
    so step t pushes its first ``b_t + 1`` counts through that step's
    banded kernel of size ``b_t``, then drops the counts above the next
    cap.  A kernel row does not depend on the kernel's size, so this is
    the law a full-size kernel gives, bit for bit.  The count alone is
    Binomial(n, pi_t) in closed form (``binomial_law``).
    """
    n = pool_size(n)
    caps = np.minimum(survivor_bound(n, table, lam), n)
    m = table.grid.n_steps
    s = table.step_survival
    joint = np.zeros((m, n + 1))
    joint[0, n] = 1.0  # the bound floor(n / lam) is at least n at the start
    for t, cap in enumerate(caps[:-1]):
        joint[t + 1, : cap + 1] = binomial_transition_matrix(cap, s[t]).push(joint[t, : cap + 1])
        joint[t + 1, caps[t + 1] + 1 :] = 0.0
    return BoundChain(n=n, lam=lam, joint=joint, pi=table.pi[:m])
