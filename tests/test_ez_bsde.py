import math
import tracemalloc

import numpy as np
import pytest

from tontine.ez_bsde import (
    StepTooCoarseError,
    TruncatedDriver,
    _implicit_node_solve,
    convergence_in_m,
    error_bound_check,
    lipschitz_constant,
    solve_transfer_pair,
    solve_truncated,
)
from tontine.grid import TimeGrid
from tontine.market import MarketModel, build_lattice
from tontine.mortality import bound_chain, gompertz_makeham_table
from tontine.optimizer import HomogeneousProblem, solve_infinite
from tontine.preferences import EzParams, PowerUtility, VnmParams, ez_utility_discrete

EZ = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)
HALF = VnmParams(PowerUtility(0.5), 0.02)
MODEL = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
HEAVY = (0.0, 0.01, 0.1)
LAM = 0.9


def half_stream(dt, horizon):
    """Table, lattice and the pricing-route stream of the ``half`` investor, heavy mortality."""
    grid = TimeGrid(dt, horizon)
    table = gompertz_makeham_table(grid, *HEAVY)
    problem = HomogeneousProblem(HALF, table, MODEL, grid, 1.0, math.inf)
    stream = solve_infinite(problem, methods=("martingale",)).extras["stream"]
    return table, build_lattice(MODEL, grid), stream


@pytest.fixture(scope="module")
def annual20():
    return half_stream(1.0, 20.0)


@pytest.fixture(scope="module")
def quarterly10():
    return half_stream(0.25, 10.0)


# (tilde_v_infinite, tilde_v_finite, prob_bound_fails) of the solver that
# stepped each survivor count on its own.  On the annual 20-year grid at
# level 1 the gate binds: the bound fails with probability 0.62 (n = 8) and
# 0.52 (n = 16), and the gaps are 0.12 and 0.084.  The quarterly 10-year
# case at level 4 is the benchmark's size.  Its prob_bound_fails is the exact
# value, from a 40-digit mpmath run of bound_chain (exact binomial weights) on
# the same float step survivals; the float chain is within 2.5e-13 of it.
PAIR_PINS = {
    "a20-n8": ("annual20", 1.0, 8, 3366.901726375468, 3367.022694741755, 0.6240160631514934),
    "a20-n16": ("annual20", 1.0, 16, 3366.901726375468, 3366.9853869331664, 0.5215392673541783),
    "q10-n128": ("quarterly10", 4.0, 128, 1250.4337867573208, 1250.4338752138071, 6.7553023547878296e-4),
}


@pytest.mark.parametrize("case", sorted(PAIR_PINS))
def test_transfer_pair_matches_per_count_solver(case, request):
    setting, level, n, v_inf, v_fin, p_fail = PAIR_PINS[case]
    table, lattice, stream = request.getfixturevalue(setting)
    pair = solve_transfer_pair(TruncatedDriver(EZ, level), stream, LAM, n, table, lattice, table.grid.points[-1])
    assert pair.tilde_v_infinite == pytest.approx(v_inf, rel=1e-12, abs=0)
    assert pair.tilde_v_finite == pytest.approx(v_fin, rel=1e-12, abs=0)
    assert pair.prob_bound_fails == pytest.approx(p_fail, rel=1e-12, abs=0)


def test_prob_bound_fails_matches_the_exact_value_to_rounding(quarterly10):
    # The sum of the masses that the bound cuts from the chain keeps its
    # relative accuracy: within 2e-15 of the 40-digit value pinned for
    # q10-n128, where 1 - P(bound holds) from the same chain is 2.5e-13 off.
    table, lattice, stream = quarterly10
    pair = solve_transfer_pair(TruncatedDriver(EZ, 4.0), stream, LAM, 128, table, lattice, table.grid.points[-1])
    assert pair.prob_bound_fails == pytest.approx(PAIR_PINS["q10-n128"][5], rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("window_end", [-1.0, 7.0, None, 20.0], ids=["before-start", "interior", "default", "horizon"])
def test_prob_bound_fails_matches_the_forward_chain_on_every_window(annual20, n, window_end):
    # The backward sweep against the independent forward chain; None is
    # error_bound_check's own window T - T/10.
    table, lattice, stream = annual20
    if window_end is None:
        window_end = 18.0
        p_fail = error_bound_check(EZ, 1.0, stream, LAM, n, table, lattice).prob_bound_fails
    else:
        pair = solve_transfer_pair(TruncatedDriver(EZ, 1.0), stream, LAM, n, table, lattice, window_end)
        p_fail = pair.prob_bound_fails
    points = table.grid.points
    if window_end < points[0]:
        assert p_fail == 0.0
    else:
        idx = int(np.flatnonzero(points <= window_end)[-1])
        assert p_fail == pytest.approx(1.0 - bound_chain(n, table, LAM).joint[idx].sum(), rel=0, abs=1e-13)


def test_transfer_pair_keeps_at_most_four_kernels_alive(quarterly10):
    # Each step builds its survivor kernel, uses it and drops it, so a few
    # (n + 1)**2 arrays at most are alive at once, not one per step.
    table, lattice, stream = quarterly10
    n = 512
    tracemalloc.start()
    try:
        solve_transfer_pair(TruncatedDriver(EZ, 4.0), stream, LAM, n, table, lattice, table.grid.points[-1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (n + 1) ** 2 * 8


@pytest.mark.parametrize("n", [0, -3])
def test_transfer_pair_rejects_pools_below_one(annual20, n):
    table, lattice, stream = annual20
    with pytest.raises(ValueError, match="n >= 1"):
        solve_transfer_pair(TruncatedDriver(EZ, 1.0), stream, LAM, n, table, lattice, table.grid.points[-1])


@pytest.mark.parametrize("n", [8, 16])
def test_error_bound_holds_where_the_gate_binds(annual20, n):
    table, lattice, stream = annual20
    report = error_bound_check(EZ, 1.0, stream, LAM, n, table, lattice)
    assert report.prob_bound_fails > 0.5
    assert report.gap_squared > 0
    assert report.holds


@pytest.mark.parametrize("horizon", [2.0, 5.0])
@pytest.mark.parametrize("n", [8, 16])
def test_prob_bound_fails_is_a_probability_when_the_gate_never_closes(horizon, n):
    # The chain's mass sums to one plus rounding here, so 1 - P(holds) was -4.4e-16.
    table, lattice, stream = half_stream(0.25, horizon)
    pair = solve_transfer_pair(TruncatedDriver(EZ, 4.0), stream, LAM, n, table, lattice, table.grid.points[-1])
    assert 0.0 <= pair.prob_bound_fails <= 1.0


@pytest.mark.parametrize("level", [1.0, math.inf])
def test_negative_rate_in_a_node_stream_is_rejected(level):
    table, lattice, stream = half_stream(1.0, 10.0)
    stream = [np.array(rates, dtype=float) for rates in stream]
    stream[3][1] = -0.01
    with pytest.raises(ValueError, match="level 3 contains negative rates"):
        solve_truncated(TruncatedDriver(EZ, level), stream, table, lattice)
    with pytest.raises(ValueError, match="level 3 contains negative rates"):
        error_bound_check(EZ, level, stream, LAM, 8, table, lattice)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("level", [1.0, math.inf])
def test_non_finite_rate_is_rejected(level, bad):
    # `level < 0` is false for NaN: such a rate used to reach the node solve
    # and raise StepTooCoarseError, which points at the step, not the input.
    table, lattice, stream = half_stream(1.0, 10.0)
    stream = [np.array(rates, dtype=float) for rates in stream]
    stream[3][1] = bad
    with pytest.raises(ValueError, match="level 3 contains non-finite rates"):
        solve_truncated(TruncatedDriver(EZ, level), stream, table, lattice)
    with pytest.raises(ValueError, match="level 3 contains non-finite rates"):
        error_bound_check(EZ, level, stream, LAM, 8, table, lattice)
    with pytest.raises(ValueError, match="level 0 contains non-finite rates"):
        solve_truncated(TruncatedDriver(EZ, level), bad, table)


@pytest.mark.parametrize("level", [math.inf, math.nan], ids=["inf", "nan"])
def test_error_bound_rejects_a_non_finite_truncation_level(level):
    # At level inf the constant read nan and the check returned holds=False.
    table, lattice, stream = half_stream(0.25, 2.0)
    with pytest.raises(ValueError, match="finite truncation level"):
        error_bound_check(EZ, level, stream, LAM, 8, table, lattice)


def test_error_bound_refuses_an_infinite_level_before_the_pair_solve():
    # On the annual grid the untruncated node solve does not contract, so
    # solving the pair first raised StepTooCoarseError instead.
    table, lattice, stream = half_stream(1.0, 10.0)
    with pytest.raises(StepTooCoarseError):
        solve_transfer_pair(TruncatedDriver(EZ, math.inf), stream, LAM, 8, table, lattice, 9.0)
    with pytest.raises(ValueError, match="finite truncation level"):
        error_bound_check(EZ, math.inf, stream, LAM, 8, table, lattice)


def test_tilde_v0_nonincreasing_in_truncation_level(quarterly10):
    table, lattice, stream = quarterly10
    scaled = [LAM * np.asarray(level) for level in stream]
    rows = convergence_in_m(EZ, scaled, table, (1.0, 2.0, 4.0, 8.0), lattice)
    values = [row.tilde_v0 for row in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_step_too_coarse_when_lipschitz_step_reaches_one(annual20):
    table, lattice, stream = annual20
    assert lipschitz_constant(EZ, 8.0) * table.grid.dt >= 1.0
    with pytest.raises(StepTooCoarseError):
        solve_truncated(TruncatedDriver(EZ, 8.0), stream, table, lattice)
    with pytest.raises(StepTooCoarseError):
        error_bound_check(EZ, 8.0, stream, LAM, 8, table, lattice)


def test_batched_node_solve_freezes_each_state_at_its_own_test():
    driver = TruncatedDriver(EZ, 4.0)
    expected = np.array([[3.0, 2.5, 2.0], [1.0, 0.8, 0.6], [5.0, 4.0, 3.0]])
    rates = np.array([[0.1], [0.0], [0.3]])
    batch, iters = _implicit_node_solve(driver, 0.0, rates, expected, 0.25)
    alone = [_implicit_node_solve(driver, 0.0, c, e, 0.25) for c, e in zip(rates, expected)]
    np.testing.assert_array_equal(batch, np.stack([v for v, _ in alone]))
    assert iters == max(k for _, k in alone)
    assert alone[1][1] == 1  # no consumption: the driver vanishes and the state freezes at once


def test_batched_node_solve_raises_when_any_state_fails_to_contract():
    driver = TruncatedDriver(EZ, math.inf)
    expected = np.array([[1.0, 1.0], [1.0, 1.0]])
    rates = np.array([[0.0], [1.0]])  # the second state overshoots to zero and back
    with pytest.raises(StepTooCoarseError):
        _implicit_node_solve(driver, 0.0, rates, expected, 100.0)
    values, _ = _implicit_node_solve(driver, 0.0, rates[:1], expected[:1], 100.0)
    np.testing.assert_array_equal(values, expected[:1])


def test_untruncated_solution_agrees_with_explicit_scheme_to_first_order():
    # Constant consumption 0.12 over 10 years, heavy mortality: the gap to
    # the preference module's explicit scheme halves with the step.
    gaps = []
    for dt in (1.0, 0.5, 0.25, 0.125):
        table = gompertz_makeham_table(TimeGrid(dt, 10.0), *HEAVY)
        sol = solve_truncated(TruncatedDriver(EZ, math.inf), 0.12, table)
        gaps.append(sol.utility() - ez_utility_discrete(EZ, 0.12, table))
    assert gaps[0] == pytest.approx(-16.6, abs=0.05)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= coarse / fine <= 2.2


# Every level and the largest iteration count of the transformed solve on
# an annual 4-year grid with heavy mortality, pinned from the solver's own
# backward loops that the shared lattice x death sweep replaced.  A
# deterministic rate gives every node of a level the same value, with or
# without a lattice.
TRUNCATED_RATE_PINS = {
    4.0: (2, [641.2193787989019, 643.4120021569627, 645.1655909933653, 646.2656192433793, 646.4297608771573]),
    math.inf: (16, [381.79760554439576, 435.21482572574587, 496.32055104631445, 566.2752076600806,
                    646.4297608771573]),
}
TRUNCATED_NODE_PINS = {
    4.0: (2, [[641.2798019828291],
              [643.4673159559128, 643.4286037449447],
              [645.2093251323681, 645.183216604261, 645.1591297086437],
              [646.2910358769918, 646.2777952533962, 646.2656192433793, 646.2542860895852],
              [646.4297608771573] * 5]),
    math.inf: (17, [[397.7747938472876],
                    [452.3639798774087, 440.2746744216172],
                    [512.2036887193024, 502.61713652635, 494.06454056560585],
                    [577.0689198655909, 571.3833622742694, 566.2752076599924, 561.6204757454857],
                    [646.4297608771573] * 5]),
}


def annual4():
    grid = TimeGrid(1.0, 4.0)
    return gompertz_makeham_table(grid, *HEAVY), build_lattice(MODEL, grid)


@pytest.mark.parametrize("on_lattice", [False, True], ids=["no-lattice", "lattice"])
@pytest.mark.parametrize("level", sorted(TRUNCATED_RATE_PINS))
def test_solve_truncated_deterministic_rate_pinned(level, on_lattice):
    table, lattice = annual4()
    iterations, levels = TRUNCATED_RATE_PINS[level]
    sol = solve_truncated(TruncatedDriver(EZ, level), 0.07, table, lattice if on_lattice else None)
    assert sol.iterations_max == iterations
    assert len(sol.values) == len(levels)
    for i, (values, pin) in enumerate(zip(sol.values, levels)):
        np.testing.assert_allclose(values, np.full(i + 1 if on_lattice else 1, pin), rtol=1e-14, atol=0)
    assert sol.initial == sol.values[0][0]


@pytest.mark.parametrize("level", sorted(TRUNCATED_NODE_PINS))
def test_solve_truncated_node_stream_pinned(level):
    table, lattice = annual4()
    stream = [0.05 + 0.01 * np.arange(i + 1) for i in range(4)]
    iterations, levels = TRUNCATED_NODE_PINS[level]
    sol = solve_truncated(TruncatedDriver(EZ, level), stream, table, lattice)
    assert sol.iterations_max == iterations
    assert len(sol.values) == len(levels)
    for values, pin in zip(sol.values, levels):
        np.testing.assert_allclose(values, pin, rtol=1e-14, atol=0)
    assert sol.initial == sol.values[0][0]
