import math

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
from tontine.mortality import gompertz_makeham_table
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
# case at level 4 is the benchmark's size.
PAIR_PINS = {
    "a20-n8": ("annual20", 1.0, 8, 3366.901726375468, 3367.022694741755, 0.6240160631514934),
    "a20-n16": ("annual20", 1.0, 16, 3366.901726375468, 3366.9853869331664, 0.5215392673541783),
    "q10-n128": ("quarterly10", 4.0, 128, 1250.4337867573208, 1250.4338752138071, 0.0006755302354775061),
}


@pytest.mark.parametrize("case", sorted(PAIR_PINS))
def test_transfer_pair_matches_per_count_solver(case, request):
    setting, level, n, v_inf, v_fin, p_fail = PAIR_PINS[case]
    table, lattice, stream = request.getfixturevalue(setting)
    pair = solve_transfer_pair(TruncatedDriver(EZ, level), stream, LAM, n, table, lattice)
    assert pair.tilde_v_infinite == pytest.approx(v_inf, rel=1e-12, abs=0)
    assert pair.tilde_v_finite == pytest.approx(v_fin, rel=1e-12, abs=0)
    assert pair.prob_bound_fails == pytest.approx(p_fail, rel=1e-12, abs=0)


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
    pair = solve_transfer_pair(TruncatedDriver(EZ, 4.0), stream, LAM, n, table, lattice)
    assert 0.0 <= pair.prob_bound_fails <= 1.0


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
