import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from survival_oracle import (
    counts_from_death_times,
    explicit_table,
    grid_index,
    numeric_survival_from_hazard,
    point_mass_table,
    simulate_death_times,
    uniform_table,
)

from tontine import mortality
from tontine.grid import TimeGrid
from tontine.market import MarketModel
from tontine.mortality import (
    MortalityTable,
    binomial_transition_matrix,
    bound_chain,
    gompertz_makeham_survival,
    gompertz_makeham_table,
    simulate_survivor_counts,
    survivor_bound,
)
from tontine.optimizer import HomogeneousProblem, solve_finite_dp
from tontine.preferences import LogUtility, PowerUtility, VnmParams
from tontine.rng import substream


def bound_gate(counts, cap):
    """True at t while every count up to t is within the survivor bound."""
    return np.logical_and.accumulate(np.asarray(counts) <= cap, axis=-1)


# --- table construction --------------------------------------------------------


def test_uniform_quarterly_table_matches_hand_arithmetic():
    table = uniform_table(TimeGrid(0.25, 1.0))
    assert np.allclose(table.p, 1.0)
    assert np.allclose(table.pi[:4], [1.0, 0.75, 0.5, 0.25])
    assert table.pi[4] == 0.0


def test_point_mass_at_last_point_has_no_early_deaths():
    grid = TimeGrid(0.5, 3.0)
    table = point_mass_table(grid)
    assert np.allclose(table.pi[: grid.n_steps], 1.0)
    assert table.pi[-1] == 0.0


def test_gompertz_makeham_against_quadrature_oracle():
    # Post-retirement scale: hazard ~1.7% at t=0 rising tenfold by t=30.
    grid = TimeGrid(0.5, 30.0)
    a, b, c = 0.002, 0.015, 0.1
    table = gompertz_makeham_table(grid, a, b, c)
    pi = table.pi[: grid.n_steps]
    assert np.all(np.diff(pi) < 0)
    assert pi[-1] < 0.1
    # Oracle: quadrature of the hazard, independent of the closed form.
    for t in [0.5, 5.0, 12.5, 29.5]:
        oracle = numeric_survival_from_hazard(lambda s: a + b * np.exp(c * s), t)
        assert pi[grid_index(grid, t)] == pytest.approx(oracle, rel=1e-8)


def test_anchor_count_growth_law():
    # Anchor count follows log(1/pi(t0)) / log(1/(1-eps)); grid quantization
    # inflates it slightly, so assert the law within 25% and the eps-scaling
    # of the counts within 15%.
    grid = TimeGrid(1.0 / 2048.0, 1.0)
    table = uniform_table(grid)
    t0 = 0.75
    counts = {}
    for eps in (0.05, 0.02):
        anchors = finite_time_points(table, t0, eps)
        predicted = np.log(1.0 / 0.25) / np.log(1.0 / (1.0 - eps))
        counts[eps] = len(anchors)
        assert abs(len(anchors) - predicted) <= 0.25 * predicted
    ratio = counts[0.02] / counts[0.05]
    predicted_ratio = np.log(1.0 / 0.95) / np.log(1.0 / 0.98)
    assert abs(ratio - predicted_ratio) <= 0.15 * predicted_ratio


def test_gompertz_makeham_closed_form_survival_matches_quad():
    for t in [0.1, 1.0, 10.0]:
        closed = gompertz_makeham_survival(0.001, 0.0007, 0.09, np.array([t]))[0]
        oracle = numeric_survival_from_hazard(lambda s: 0.001 + 0.0007 * np.exp(0.09 * s), t)
        assert closed == pytest.approx(oracle, rel=1e-9)


def test_negative_masses_rejected():
    grid = TimeGrid(0.5, 1.0)
    with pytest.raises(ValueError):
        explicit_table(grid, np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        MortalityTable(grid, np.array([-1.0, 3.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_masses_rejected(bad):
    # A NaN mass used to build a table whose survival fractions read NaN.
    with pytest.raises(ValueError, match="finite"):
        MortalityTable(TimeGrid(1.0, 4.0), [bad, 0.5, 0.25, 0.25])


HEAVY_A10 = (TimeGrid(1.0, 10.0), 0.0, 0.01, 0.1)

MORTALITY_FAULTS = {
    "masses-shape": (lambda: MortalityTable(TimeGrid(1.0, 4.0), [0.25, 0.25, 0.5]), r"shape \(3,\), expected \(4,\)"),
    "masses-total": (lambda: MortalityTable(TimeGrid(1.0, 4.0), [0.25, 0.25, 0.25, 0.5]), "integrate to 1.25"),
    "hazard-negative": (lambda: gompertz_makeham_table(TimeGrid(1.0, 10.0), -0.01, 0.01, 0.1),
                        "hazard parameters must be nonnegative"),
    "survivors-n-0": (lambda: simulate_survivor_counts(0, gompertz_makeham_table(*HEAVY_A10), 4, 1), "n = 0"),
    "survivors-n-fraction": (lambda: simulate_survivor_counts(2.5, gompertz_makeham_table(*HEAVY_A10), 4, 1),
                             "n = 2.5"),
    "survivors-n-inf": (lambda: simulate_survivor_counts(math.inf, gompertz_makeham_table(*HEAVY_A10), 4, 1),
                        "n = inf"),
    "survivors-trials-0": (lambda: simulate_survivor_counts(8, gompertz_makeham_table(*HEAVY_A10), 0, 1),
                           "trials >= 1"),
    # bound_chain raised IndexError at n = -1, "'float' object cannot be
    # interpreted as an integer" at 2.5, and returned a one-state chain at 0.
    "chain-n-negative": (lambda: bound_chain(-1, gompertz_makeham_table(*HEAVY_A10), 0.9), "n = -1"),
    "chain-n-fraction": (lambda: bound_chain(2.5, gompertz_makeham_table(*HEAVY_A10), 0.9), "n = 2.5"),
    "chain-n-0": (lambda: bound_chain(0, gompertz_makeham_table(*HEAVY_A10), 0.9), "n = 0"),
}


@pytest.mark.parametrize("case", sorted(MORTALITY_FAULTS))
def test_mortality_refuses_bad_inputs_naming_them(case):
    build, message = MORTALITY_FAULTS[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_an_integral_float_pool_size_is_the_integer_one():
    table = gompertz_makeham_table(*HEAVY_A10)
    counts = simulate_survivor_counts(8.0, table, 50, 3)
    assert counts.dtype == np.uint8
    np.testing.assert_array_equal(counts, simulate_survivor_counts(8, table, 50, 3))
    chain = bound_chain(8.0, table, 0.9)
    np.testing.assert_array_equal(chain.joint, bound_chain(8, table, 0.9).joint)
    assert chain.n == 8 and isinstance(chain.n, int)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4))
def test_table_invariants_on_random_masses(masses):
    grid = TimeGrid(0.25, 1.0)
    if sum(masses) <= 0:
        with pytest.raises(ValueError):
            explicit_table(grid, np.array(masses))
        return
    table = explicit_table(grid, np.array(masses))
    assert table.p.sum() * grid.dt == pytest.approx(1.0, abs=1e-12)
    assert table.pi[0] == 1.0
    assert np.all(np.diff(table.pi) <= 1e-12)
    # F(t) = P(death time < t) accumulates the masses before t and is 1 - pi.
    cdf = np.concatenate([[0.0], np.cumsum(table.p[:-1]) * grid.dt])
    assert np.all(np.diff(cdf) >= -1e-12)
    np.testing.assert_allclose(cdf, 1.0 - table.pi[: grid.n_steps], rtol=0, atol=1e-12)


# --- survivor simulation --------------------------------------------------------


def test_no_deaths_before_point_mass():
    grid = TimeGrid(0.25, 2.0)
    counts = simulate_survivor_counts(50, point_mass_table(grid), 1, seed=5)
    assert np.all(counts == 50)


def test_mean_survivors_within_three_binomial_se():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    n = 10_000
    counts = simulate_survivor_counts(n, table, 1, seed=11)[0]
    pi = table.pi[: grid.n_steps]
    se = np.sqrt(n * pi * (1 - pi))
    assert np.all(np.abs(counts - n * pi) <= 3 * np.maximum(se, 1.0))


def test_survivor_simulation_deterministic():
    table = uniform_table(TimeGrid(0.25, 1.0))
    a = simulate_survivor_counts(100, table, 1, seed=9)
    b = simulate_survivor_counts(100, table, 1, seed=9)
    assert np.array_equal(a, b)


def test_survivor_count_stream_is_pinned():
    # Digest of the counts' batch-first bytes as int64, taken before the
    # sampler stored them time-major and narrow: the draws must not move.
    table = gompertz_makeham_table(TimeGrid(1.0, 40.0), 0.0, 0.01, 0.1)
    counts = simulate_survivor_counts(64, table, 1000, seed=7)
    assert counts.shape == (1000, 40) and counts.dtype == np.uint8
    assert hashlib.sha256(counts.astype(np.int64).tobytes()).hexdigest() == (
        "20832a87efae5b99aa75cf409985a4beee38a8390c6cb527fd93c6f28caeb6fc"
    )


def test_survivor_simulation_stops_drawing_once_every_pool_is_extinct(monkeypatch):
    # Everyone dies at t = 0.5, the third grid point: the draws into the
    # first three rows are the only ones made, and the rest read zero.
    calls = []

    class CountedGenerator:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            return getattr(self._gen, name)

        def binomial(self, counts, p):
            calls.append(int(np.max(counts)))
            return self._gen.binomial(counts, p)

    monkeypatch.setattr(mortality, "substream", lambda *args: CountedGenerator(substream(*args)))
    table = point_mass_table(TimeGrid(0.25, 2.0), at=0.5)
    counts = simulate_survivor_counts(20, table, 5, seed=3)
    assert calls == [20, 20, 20]
    assert np.all(counts[:, :3] == 20) and np.all(counts[:, 3:] == 0)


@pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
def test_survivor_counts_take_the_narrowest_type_that_holds_the_pool(n, dtype):
    # Nobody dies before the last grid point, so every count is n itself.
    counts = simulate_survivor_counts(n, point_mass_table(TimeGrid(0.25, 2.0)), 3, seed=5)
    assert counts.dtype == dtype
    assert np.all(counts == n)


def binomial_loop_counts(n, table, trials, seed, label="mortality"):
    """The sampler as one ``gen.binomial`` call per step: the draws the tables must reproduce."""
    gen = substream(seed, label)
    m = table.grid.n_steps
    s = table.step_survival
    counts = np.empty((m, trials), dtype=np.min_scalar_type(n))
    counts[0] = n
    for t in range(m - 1):
        counts[t + 1] = gen.binomial(counts[t], s[t])
    return counts.T


def numpy_inversion(u, c, rare):
    """numpy's ``random_binomial_inversion`` for one uniform, in Python floats; None on a redraw."""
    q = 1.0 - rare
    qn = math.exp(c * math.log(q))
    np_ = c * rare
    bound = int(min(c, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((c - x + 1) * rare * px) / (x * q)
    return x


# Gompertz-Makeham (a, b, c) per step length; the constant hazards are set
# per step, to step survivals of 0.5016 and 0.30.
SAMPLER_LAWS = {
    "heavy": lambda dt: (0.0, 0.01, 0.1),
    "light": lambda dt: (5e-4, 7e-5, 0.1),
    "half": lambda dt: (0.69 / dt, 0.0, 0.0),
    "below-half": lambda dt: (1.2 / dt, 0.0, 0.0),
}
SAMPLER_GRIDS = {
    "A10": (1.0, 10.0),
    "A40": (1.0, 40.0),
    "A60": (1.0, 60.0),
    "Q2": (0.25, 2.0),
    "Q40": (0.25, 40.0),
    "M5": (1.0 / 12.0, 5.0),
}
SAMPLER_POOLS = (1, 2, 3, 8, 64, 255, 256, 512, 2000)
SAMPLER_TRIALS = (1, 2999, 20000)


@pytest.mark.parametrize("grid_name", list(SAMPLER_GRIDS))
@pytest.mark.parametrize("law", list(SAMPLER_LAWS))
def test_survivor_counts_match_the_binomial_loop_bit_for_bit(law, grid_name):
    # Each case runs every pool size once, at a trial count and seed that
    # rotate with the case, so that over the sweep every pool size meets
    # every trial count.  Rows reach BTPE (c * min(p, 1 - p) > 30) at
    # n >= 64 near p = 1/2 and at n = 2000, zero counts once pools die out,
    # and numpy's own loop where a row is too small for a table.
    dt, horizon = SAMPLER_GRIDS[grid_name]
    table = gompertz_makeham_table(TimeGrid(dt, horizon), *SAMPLER_LAWS[law](dt))
    case = list(SAMPLER_LAWS).index(law) * len(SAMPLER_GRIDS) + list(SAMPLER_GRIDS).index(grid_name)
    for i, n in enumerate(SAMPLER_POOLS):
        trials = SAMPLER_TRIALS[(case + i) % 3]
        seed = 100 + (case + i) % 5
        expected = binomial_loop_counts(n, table, trials, seed)
        counts = simulate_survivor_counts(n, table, trials, seed)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected, err_msg=f"n={n} trials={trials} seed={seed}")


@pytest.mark.parametrize("c, p", [(8, 0.3), (64, 0.95), (2000, 0.995), (1, 1.0)])
def test_numpy_inversion_transcribes_generator_binomial(c, p):
    u = substream(3, "inversion").random(5000)
    drawn = substream(3, "inversion").binomial(c, p, size=5000)
    rare = p if p <= 0.5 else 1.0 - p
    x = [numpy_inversion(float(v), c, rare) for v in u]
    assert drawn.tolist() == (x if p <= 0.5 else [c - v for v in x])


def numpy_inversion_thresholds(c, rare):
    """Each uniform k * 2**-53 at which numpy's loop first returns more than j, by bisection."""
    ulp = 2.0**-53
    bound = int(min(c, c * rare + 10.0 * math.sqrt(c * rare * (1.0 - rare) + 1)))

    def draw(k):
        x = numpy_inversion(k * ulp, c, rare)
        return bound + 1 if x is None else x

    cuts = []
    for j in range(draw(2**53 - 1)):
        lo, hi = 0, 2**53 - 1  # draw(lo) <= j < draw(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if draw(mid) > j else (mid, hi)
        cuts.append(hi)
    return cuts


@pytest.mark.parametrize(
    "c, rare", [(1, 0.3), (2, 0.048), (8, 0.3), (64, 0.05), (255, 0.1), (2000, 0.012)]
)
def test_inversion_table_matches_numpy_loop_at_its_thresholds(c, rare):
    # The table's margin of 2**-36 around each CDF value must cover the
    # loop's rounding: at each threshold of the loop and one ulp either
    # side, the table returns the loop's draw, or None where the loop draws
    # again.  The thresholds sit within 2**-44 of the exact CDF.
    ulp = 2.0**-53
    cuts = numpy_inversion_thresholds(c, rare)
    exact = stats.binom.cdf(np.arange(len(cuts)), c, rare)
    finite = [k for k, cdf in zip(cuts, exact) if cdf < 1.0 - 2.0**-44]
    assert np.all(np.abs(np.array(finite) * ulp - exact[: len(finite)]) < 2.0**-44)
    for cut in cuts:
        for k in (cut - 1, cut, min(cut + 1, 2**53 - 1)):
            u = k * ulp
            x = mortality._invert(np.array([0.5, u]), np.array([c, c]), rare)
            expected = numpy_inversion(u, c, rare)
            if expected is None:
                assert x is None
            else:
                assert x is not None and x[1] == expected, (k, x, expected)


def test_a_uniform_past_the_bounds_cdf_sends_the_row_to_numpy(monkeypatch):
    # Two lives at rare = 0.048: numpy's sum of their probabilities stops
    # short of the largest uniform, so that uniform draws again.
    u = 1.0 - 2.0**-53
    assert numpy_inversion(u, 2, 0.048) is None
    assert mortality._invert(np.array([0.5, u]), np.array([2, 2], np.uint8), 0.048) is None
    # A row sent back leaves the stream where it was: with every table
    # refused, each row draws its uniforms, rewinds and goes to numpy.
    refused = []
    monkeypatch.setattr(mortality, "_invert", lambda u, counts, rare: refused.append(u.size))
    table = gompertz_makeham_table(TimeGrid(1.0, 10.0), 0.0, 0.01, 0.1)
    counts = simulate_survivor_counts(64, table, 10000, seed=3)
    np.testing.assert_array_equal(counts, binomial_loop_counts(64, table, 10000, seed=3))
    assert len(refused) == 9


def test_death_times_consistent_with_counts():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    taus = simulate_death_times(2000, table, seed=3)
    counts = counts_from_death_times(taus, grid)
    pi = table.pi[: grid.n_steps]
    se = np.sqrt(2000 * pi * (1 - pi))
    assert np.all(np.abs(counts - 2000 * pi) <= 4 * np.maximum(se, 1.0))


# --- survivor bound event -------------------------------------------------------


def test_bound_event_trivially_true_without_mortality():
    grid = TimeGrid(0.25, 2.0)
    table = point_mass_table(grid)
    counts = simulate_survivor_counts(30, table, 1, seed=1)
    assert np.all(bound_gate(counts, survivor_bound(30, table, 1.0)))
    assert np.all(bound_gate(counts, survivor_bound(30, table, 0.5)))


def test_bound_event_false_when_count_exceeds_mean_at_lam_one():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    # A path where everyone survives to the second point: 10 > 10 * 0.75.
    gate = bound_gate([10, 10, 5, 2], survivor_bound(10, table, 1.0))
    assert not gate[-1]


def test_survivor_bound_is_the_cap_of_the_event_and_the_chain():
    grid = TimeGrid(1.0, 20.0)
    table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
    cap = survivor_bound(16, table, 0.9)
    np.testing.assert_array_equal(cap, np.floor(16 * table.pi[:20] / 0.9 + 1e-9))
    chain = bound_chain(16, table, 0.9)
    for t in range(grid.n_steps):
        assert np.all(chain.joint[t, cap[t] + 1 :] == 0.0)
    at_cap = np.minimum(cap, 16)
    assert np.all(bound_gate(at_cap, cap))
    first = int(np.argmax(cap < 16))
    above = at_cap.copy()
    above[first] += 1
    gate = bound_gate(above, cap)
    assert not gate[-1]
    assert gate[first - 1] and not gate[first]
    for lam in (0.0, 1.5):
        with pytest.raises(ValueError):
            survivor_bound(16, table, lam)


def test_bound_probability_increases_with_n():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    lam = 0.8
    probs = {}
    for n in (20, 400):
        chain = bound_chain(n, table, lam)
        probs[n] = chain.joint[grid.n_steps - 1].sum()
    assert probs[400] > probs[20]
    # Monte Carlo agrees with the exact chain within 3 standard errors.
    counts = simulate_survivor_counts(20, table, trials=40_000, seed=21, label="bound-mc")
    mean = table.expected_survivors(20)
    events = np.all(counts <= mean / lam + 1e-9, axis=1)
    se = events.std(ddof=1) / np.sqrt(events.size)
    assert abs(events.mean() - probs[20]) < 3 * se


# --- finite time points ----------------------------------------------------------


def almost_sure_death_time(table):
    """Earliest time by which death is certain."""
    times = np.arange(table.grid.n_steps + 1) * table.grid.dt  # grid points and the horizon
    return float(times[np.nonzero(table.pi <= 0.0)[0][0]])


def finite_time_points(table, t0: float, eps: float) -> np.ndarray:
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
    if t0 < 0 or t0 >= almost_sure_death_time(table) - 1e-12:
        raise ValueError("t0 must lie in [0, T*) where T* is the almost-sure death time")
    pi = table.pi[: table.grid.n_steps]
    start = max(int(np.searchsorted(table.grid.points, t0 + 1e-12) - 1), 0)
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


def test_linear_survival_anchor_points():
    # pi(t) = 1 - t on a T=1 grid: anchors {0.5, 0} for t0=0.75, eps=0.5.
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    anchors = finite_time_points(table, t0=0.75, eps=0.5)
    assert np.allclose(anchors, [0.5, 0.0])


def test_point_mass_gives_single_zero_anchor():
    grid = TimeGrid(0.25, 2.0)
    table = point_mass_table(grid)
    anchors = finite_time_points(table, t0=1.0, eps=0.3)
    assert np.allclose(anchors, [0.0])


def test_anchor_recursion_recheck_forward():
    grid = TimeGrid(1.0 / 64.0, 1.0)
    table = uniform_table(grid)
    eps = 0.3
    anchors = finite_time_points(table, t0=0.5, eps=eps)
    pi = table.pi[: grid.n_steps]
    seq = [0.5] + list(anchors)
    for prev_t, next_t in zip(seq, seq[1:]):
        prev, nxt = grid_index(grid, prev_t), grid_index(grid, next_t)
        assert nxt < prev
        target = pi[prev] / (1.0 - eps)
        # The chosen point satisfies the bound and is the earliest one to do so.
        assert pi[nxt] <= target * (1 + 1e-12)
        if nxt > 0:
            assert pi[nxt - 1] > target * (1 - 1e-12)
    assert anchors[-1] == 0.0


def test_t0_beyond_death_time_rejected():
    grid = TimeGrid(0.25, 1.0)
    table = point_mass_table(grid, at=0.5)
    with pytest.raises(ValueError):
        finite_time_points(table, t0=0.75, eps=0.3)


# --- the two-sided bound check ----------------------------------------------------


@dataclass(frozen=True)
class TimePointBoundReport:
    """Monte Carlo estimates of the two sides of the anchor-set bound."""

    lhs_prob: float
    rhs_prob: float
    lhs_se: float
    rhs_se: float
    violation: bool


def check_time_point_bound(n, table, t0: float, eps: float, trials: int, seed: int) -> TimePointBoundReport:
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
    anchor_idx = np.array([grid_index(table.grid, t) for t in anchors])
    rhs_events = np.all(counts[:, anchor_idx] <= survivor_bound(n, table, 1.0 - eps)[anchor_idx], axis=1)
    lhs = float(lhs_events.mean())
    rhs = float(rhs_events.mean())
    lhs_se = float(np.sqrt(max(lhs * (1 - lhs), 1e-300) / trials))
    rhs_se = float(np.sqrt(max(rhs * (1 - rhs), 1e-300) / trials))
    violation = bool(lhs < rhs - 3.0 * float(np.hypot(lhs_se, rhs_se)))
    return TimePointBoundReport(lhs, rhs, lhs_se, rhs_se, violation)


def test_bound_check_trivial_without_mortality():
    grid = TimeGrid(0.25, 2.0)
    table = point_mass_table(grid)
    report = check_time_point_bound(25, table, t0=1.0, eps=0.3, trials=2000, seed=2)
    assert report.lhs_prob == 1.0 and report.rhs_prob == 1.0
    assert not report.violation


def test_bound_check_uniform_table():
    grid = TimeGrid(1.0 / 16.0, 1.0)
    table = uniform_table(grid)
    report = check_time_point_bound(50, table, t0=0.5, eps=0.3, trials=20_000, seed=8)
    assert report.lhs_prob >= report.rhs_prob - 3 * np.hypot(report.lhs_se, report.rhs_se)
    assert not report.violation


def test_bound_check_single_life_matches_enumeration():
    # Oracle: with one life everything is a function of the death time, so
    # both probabilities are sums of death masses over explicit time sets.
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    eps, t0 = 0.4, 0.5
    anchors = finite_time_points(table, t0, eps)
    pi = table.pi[: grid.n_steps]
    factor = 1.0 / (1.0 - eps)
    window = grid.points <= t0 + 1e-12
    masses = table.p * grid.dt

    def count_at(tau, t):
        return 1 if tau >= t - 1e-12 else 0

    lhs = rhs = 0.0
    for tau, mass in zip(grid.points, masses):
        counts = np.array([count_at(tau, t) for t in grid.points])
        if np.all(counts[window] <= factor**2 * pi[window] + 1e-9):
            lhs += mass
        aidx = [grid_index(grid, t) for t in anchors]
        if np.all(counts[aidx] <= factor * pi[aidx] + 1e-9):
            rhs += mass
    assert lhs >= rhs - 1e-12
    report = check_time_point_bound(1, table, t0, eps, trials=40_000, seed=4)
    assert report.lhs_prob == pytest.approx(lhs, abs=4 * max(report.lhs_se, 1e-3))
    assert report.rhs_prob == pytest.approx(rhs, abs=4 * max(report.rhs_se, 1e-3))
    assert not report.violation


# --- exact chains ------------------------------------------------------------------


def test_bound_chain_count_marginal_matches_binomial():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    chain = bound_chain(8, table, lam=0.9)
    pi = table.pi[: grid.n_steps]
    for t in range(grid.n_steps):
        exact = stats.binom.pmf(np.arange(9), 8, pi[t])
        assert np.allclose(chain.count[t], exact, atol=1e-12)


def test_bound_chain_joint_below_marginal():
    grid = TimeGrid(0.25, 1.0)
    chain = bound_chain(12, uniform_table(grid), lam=0.7)
    assert np.all(chain.joint <= chain.count + 1e-15)
    probs = chain.joint.sum(axis=1)
    assert np.all(np.diff(probs) <= 1e-15)


# --- transition-matrix kernel -------------------------------------------------------


@pytest.mark.parametrize("max_count", [0, 1, 8, 64, 512])
@pytest.mark.parametrize("survive_prob", [0.0, 1e-12, 0.3, 0.987, 1.0 - 1e-12, 1.0])
def test_transition_matrix_matches_scipy_binomial(max_count, survive_prob):
    trans = binomial_transition_matrix(max_count, survive_prob)
    j = np.arange(max_count + 1)[:, None]
    k = np.arange(max_count + 1)[None, :]
    reference = stats.binom.pmf(k, j, survive_prob)
    assert trans.shape == reference.shape
    assert np.max(np.abs(trans - reference)) <= 1e-14
    assert np.max(np.abs(trans.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(np.triu(trans, 1) == 0.0)


def test_transition_matrix_exact_at_certain_death_and_survival():
    all_die = np.zeros((17, 17))
    all_die[:, 0] = 1.0
    assert np.array_equal(binomial_transition_matrix(16, 0.0), all_die)
    assert np.array_equal(binomial_transition_matrix(16, 1.0), np.eye(17))
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            binomial_transition_matrix(4, bad)


@pytest.mark.parametrize("survive_prob", [1e-9, 0.3, 0.987])
def test_transition_matrix_rows_do_not_depend_on_max_count(survive_prob):
    small = binomial_transition_matrix(8, survive_prob)
    large = binomial_transition_matrix(64, survive_prob)
    assert np.array_equal(large[:9, :9], small)


# p = 0.5 and 0.5 + 1e-12 run on death lines, 0.5 - 1e-12 on survivor lines;
# at max_count = 1100, 0.5**j underflows in the last rows.
@pytest.mark.parametrize("survive_prob", [0.5, 0.5 - 1e-12, 0.5 + 1e-12, 0.61])
def test_transition_matrix_matches_scipy_binomial_near_one_half_and_past_underflow(survive_prob):
    trans = binomial_transition_matrix(1100, survive_prob)
    j = np.arange(1101)[:, None]
    reference = stats.binom.pmf(np.arange(1101)[None, :], j, survive_prob)
    assert np.max(np.abs(trans - reference)) <= 1e-14
    assert np.max(np.abs(trans.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(np.triu(trans, 1) == 0.0)


@pytest.mark.parametrize("survive_prob", [1e-9, 0.3, 0.5, 0.61, 0.987])
def test_transition_matrix_rows_match_exact_law_and_drop_at_most_their_tail(survive_prob):
    mpmath = pytest.importorskip("mpmath")
    trans = binomial_transition_matrix(512, survive_prob)
    with mpmath.workdps(40):
        p = mpmath.mpf(survive_prob)
        for j in (0, 1, 256, 512):
            exact = [mpmath.binomial(j, k) * p**k * (1 - p) ** (j - k) for k in range(j + 1)]
            row = trans[j, : j + 1]
            kept = row != 0.0
            assert max(abs(float(e) - r) for e, r in zip(exact, row)) <= 2e-15
            assert float(mpmath.fsum(e for e, keep in zip(exact, kept) if not keep)) <= 2.0**-60
    assert np.count_nonzero(trans[512]) < 513  # the last row stops at its tail


# At 2048 rows p = 0.5 runs in row blocks (stay**-j passes 2**600 past row
# 600), and p = 0.9 and 0.99 fold their line units back into their lines
# (p = 0.9 overflows without it).
@pytest.mark.parametrize("survive_prob", [0.5, 0.9, 0.99])
def test_transition_matrix_rows_match_exact_law_past_the_scaled_range(survive_prob):
    mpmath = pytest.importorskip("mpmath")
    trans = binomial_transition_matrix(2048, survive_prob)
    with mpmath.workdps(40):
        p = mpmath.mpf(survive_prob)
        for j in (1024, 2048):
            exact = [mpmath.binomial(j, k) * p**k * (1 - p) ** (j - k) for k in range(j + 1)]
            row = trans[j, : j + 1]
            kept = row != 0.0
            assert max(abs(float(e) - r) for e, r in zip(exact, row)) <= 2e-15
            assert float(mpmath.fsum(e for e, keep in zip(exact, kept) if not keep)) <= 2.0**-60
    assert np.all(np.triu(trans, 1) == 0.0)


def test_transition_matrix_rejects_a_negative_size():
    with pytest.raises(ValueError):
        binomial_transition_matrix(-1, 0.5)


# Value and consumed fractions of the scaling recursion at n = 64 on an
# annual 40-year grid with heavy Gompertz mortality, pinned from the
# scipy.stats kernel and the per-count Python loop that the Pascal kernel
# and the array step replaced.
@pytest.mark.parametrize(
    "gain, value, first_fraction, fraction_sum",
    [
        (VnmParams(PowerUtility(-1.0), 0.02), -258.79388379861723, 0.062161716150164026, 508.89469738842905),
        (VnmParams(LogUtility(), 0.02), -44.34034937355567, 0.06054634430535109, 517.0153283786544),
    ],
)
def test_scaling_recursion_pinned(gain, value, first_fraction, fraction_sum):
    grid = TimeGrid(1.0, 40.0)
    table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    res = solve_finite_dp(HomogeneousProblem(gain, table, model, grid, 1.0, 64))
    fractions = res.strategy.consumption_fraction
    assert res.value == pytest.approx(value, rel=1e-12)
    assert fractions[0, 64] == pytest.approx(first_fraction, rel=1e-12)
    assert fractions.sum() == pytest.approx(fraction_sum, rel=1e-12)
