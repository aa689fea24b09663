import dataclasses
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator as ScipyPchip
from policy_oracle import exact_policy_value
from stream_helpers import ConstantRateStrategy
from survival_oracle import explicit_table, point_mass_table, uniform_table

from tontine import ez_bsde, fund, market, mortality, optimizer, preferences
from tontine.grid import TimeGrid
from tontine.market import MarketModel, build_lattice, q_price
from tontine.mortality import gompertz_makeham_table
from tontine.optimizer import (
    HomogeneousProblem,
    annuity_rate,
    annuity_value,
    PchipInterpolator,
    _value_and_grad,
    _pchip_slopes,
    _stream_price_coefficients,
    _solve_scaling,
    allocation_bounds,
    best_power_growth,
    golden_max_vec,
    simulate_policy_value,
    solve_finite_dp,
    solve_infinite,
    transfer_infinite_to_finite,
)
from tontine.preferences import (
    ExpKmParams,
    ExponentialUtility,
    EzParams,
    LogUtility,
    PowerUtility,
    VnmParams,
    ez_utility_discrete,
)


EZ_SHORT = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)


def make_problem(gain, n=math.inf, mu=0.0, rate=0.0, sigma=0.2, dt=0.25, horizon=1.0, table=None, budget=1.0):
    grid = TimeGrid(dt, horizon)
    model = MarketModel(rate=rate, mu=(mu,), sigma=(sigma,), s0=(1.0,))
    table = table or uniform_table(grid)
    return HomogeneousProblem(gain, table, model, grid, budget, n)


def test_problem_rejects_a_mortality_table_on_another_grid():
    # An annual 40-year heavy table and a quarterly 10-year grid both have 40
    # steps.  Solved together, log utility read -7.54: dt and discounting
    # came from the grid, survival from the table.  On the table's own grid
    # the value is -44.25.
    annual, quarterly = TimeGrid(1.0, 40.0), TimeGrid(0.25, 10.0)
    table = gompertz_makeham_table(annual, 0.0, 0.01, 0.1)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    gain = VnmParams(LogUtility(), 0.02)
    with pytest.raises(ValueError, match="grid"):
        HomogeneousProblem(gain, table, model, quarterly, 1.0, math.inf)
    own = HomogeneousProblem(gain, table, model, annual, 1.0, math.inf)
    assert solve_infinite(own, methods=("dp",)).value == pytest.approx(-44.2487, abs=1e-4)


# --- single investor, no mortality, log utility -----------------------------------


def test_lone_log_investor_consumes_budget_over_horizon():
    # With no early death, zero rates and zero drift, consuming X0/T at a
    # constant rate is optimal and worth T log(X0/T).
    grid_kwargs = dict(mu=0.0, rate=0.0, sigma=0.2, dt=0.25, horizon=1.0)
    gain = VnmParams(LogUtility(), discount=0.0)
    table = point_mass_table(TimeGrid(0.25, 1.0))
    problem = make_problem(gain, n=1, table=table, budget=2.0, **grid_kwargs)
    res = solve_finite_dp(problem)
    expected = 1.0 * np.log(2.0 / 1.0)
    assert res.value == pytest.approx(expected, rel=1e-10)
    # The tabulated policy consumes 1/(remaining points) of wealth.
    kappa = res.strategy.consumption_fraction[:, 1]
    assert np.allclose(kappa, [0.25, 1 / 3, 0.5, 1.0], atol=1e-9)


def test_point_mass_mortality_value_independent_of_pool_size():
    gain = VnmParams(PowerUtility(-1.0), discount=0.05)
    table = point_mass_table(TimeGrid(0.25, 1.0))
    values = []
    for n in (1, 2, 8, 32):
        problem = make_problem(gain, n=n, mu=0.04, rate=0.01, table=table)
        values.append(solve_finite_dp(problem).value)
    assert np.allclose(values, values[0], rtol=1e-12)


def test_point_mass_mortality_ez_value_independent_of_pool_size():
    gain = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=0.5)
    table = point_mass_table(TimeGrid(0.25, 1.0))
    values = []
    for n in (1, 4):
        problem = make_problem(gain, n=n, mu=0.04, rate=0.01, table=table)
        values.append(solve_finite_dp(problem, wealth_points=250).value)
    assert values[1] == pytest.approx(values[0], rel=1e-9)


# --- pooling is monotone --------------------------------------------------------


def test_value_nondecreasing_in_pool_size_crra():
    gain = VnmParams(PowerUtility(-1.0), discount=0.02)
    values = []
    for n in (1, 2, 4, 8, 16):
        problem = make_problem(gain, n=n, mu=0.05, rate=0.01, dt=0.25, horizon=2.0,
                               table=uniform_table(TimeGrid(0.25, 2.0)))
        values.append(solve_finite_dp(problem).value)
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-8)
    assert values[-1] > values[0]  # pooling strictly helps under mortality risk
    v_inf = solve_infinite(make_problem(gain, mu=0.05, rate=0.01, dt=0.25, horizon=2.0,
                                        table=uniform_table(TimeGrid(0.25, 2.0)))).value
    assert np.all(np.asarray(values) <= v_inf + 1e-8)


# --- tiny-instance brute force oracle ---------------------------------------------


def test_finite_dp_matches_brute_force_on_tiny_instance():
    # One investor, two periods, uniform mortality: enumerate consumed
    # fractions and allocations on a fine grid, evolving wealth exactly.
    grid = TimeGrid(0.5, 1.0)
    table = uniform_table(grid)
    model = MarketModel(rate=0.0, mu=(0.08,), sigma=(0.3,), s0=(1.0,))
    lat = build_lattice(model, grid)
    gain = VnmParams(PowerUtility(0.5), discount=0.0)
    problem = HomogeneousProblem(gain, table, model, grid, 1.0, 1)
    res = solve_finite_dp(problem)

    s = table.step_survival
    dt = grid.dt
    p = lat.p_up
    best = -np.inf
    g_dn_grid, g_up_grid = [], []
    for k0 in np.linspace(0.01, 0.99, 99):
        for a0 in np.linspace(-1.0, 2.0, 61):
            gd, gu = a0 * lat.down + (1 - a0) * 1.0, a0 * lat.up + (1 - a0) * 1.0
            if gd <= 0 or gu <= 0:
                continue
            w_up, w_dn = (1 - k0) * gu, (1 - k0) * gd
            u0 = gain.utility(k0 * 1.0 / dt) * dt
            # Second (last) period: consume everything.
            inner = 0.0
            for w, prob in ((w_up, p), (w_dn, 1 - p)):
                inner += prob * gain.utility(w / dt) * dt
            total = u0 + s[0] * inner  # weight (j/n)=1 while alive; survive w.p. s
            best = max(best, float(total))
    assert res.value == pytest.approx(best, rel=2e-3)
    assert res.value >= best - 1e-6


# --- constant consumption under the stringent hypotheses ---------------------------


def stringent_problem(gain=None, horizon=10.0, dt=0.5):
    grid = TimeGrid(dt, horizon)
    gain = gain or VnmParams(LogUtility(), discount=0.0)
    return make_problem(gain, mu=0.0, rate=0.0, sigma=0.2, dt=dt, horizon=horizon,
                        table=uniform_table(grid))


def test_constant_consumption_optimal_under_stringent_hypotheses():
    problem = stringent_problem()
    res = solve_infinite(problem)
    stream = res.extras["stream"]
    rate = annuity_rate(problem)
    for level in stream:
        assert np.allclose(level, rate, rtol=1e-9)
    assert res.value == pytest.approx(annuity_value(problem), rel=1e-9)
    # The DP route agrees and its policy also consumes at the annuity rate.
    assert res.extras["dp_value"] == pytest.approx(res.value, rel=1e-8)


def test_positive_discount_breaks_annuity_optimality():
    problem = stringent_problem(gain=VnmParams(LogUtility(), discount=0.05))
    res = solve_infinite(problem)
    gap = res.value - annuity_value(problem)
    assert gap > 1e-4


def test_drift_breaks_annuity_optimality():
    grid = TimeGrid(0.5, 10.0)
    problem = make_problem(VnmParams(LogUtility(), discount=0.0), mu=0.04, rate=0.0,
                           dt=0.5, horizon=10.0, table=uniform_table(grid))
    res = solve_infinite(problem)
    gap = res.value - annuity_value(problem)
    assert gap > 1e-4


# --- dual-route agreement -----------------------------------------------------------


def test_crra_dp_and_closed_form_agree_generic_config():
    gain = VnmParams(PowerUtility(-1.5), discount=0.04)
    problem = make_problem(gain, mu=0.06, rate=0.02, sigma=0.25, dt=0.25, horizon=2.0,
                           table=uniform_table(TimeGrid(0.25, 2.0)))
    res = solve_infinite(problem)
    assert res.method == "closed_form"
    assert res.extras["dp_value"] == pytest.approx(res.extras["martingale_value"], rel=1e-6)


def test_log_dp_and_closed_form_agree():
    gain = VnmParams(LogUtility(), discount=0.03)
    problem = make_problem(gain, mu=0.05, rate=0.01, sigma=0.2, dt=0.25, horizon=2.0,
                           table=uniform_table(TimeGrid(0.25, 2.0)))
    res = solve_infinite(problem)
    assert res.extras["dp_value"] == pytest.approx(res.extras["martingale_value"], rel=1e-6)


def test_ez_dp_and_numeric_pricing_agree():
    gain = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=0.3)
    grid = TimeGrid(0.25, 2.0)
    problem = make_problem(gain, mu=0.03, rate=0.01, sigma=0.1, dt=0.25, horizon=2.0,
                           table=uniform_table(grid))
    res = solve_infinite(problem, wealth_points=500)
    v_dp = res.extras["dp_value"]
    v_mart = res.extras["martingale_value"]
    assert abs(v_dp - v_mart) <= 1e-4 * abs(v_dp)
    # The pricing stream's recursive value re-evaluates to the same number.
    lat = problem.lattice()
    direct = ez_utility_discrete(gain, res.extras["stream"], problem.table, lat)
    assert direct == pytest.approx(v_mart, rel=1e-10)


def test_default_routes_solve_exponential_utility_by_dp_alone():
    # The pricing route covers power and log utility only; other additive
    # utilities run the DP route unless a route is asked for explicitly.
    problem = make_problem(VnmParams(ExponentialUtility(1.0), discount=0.02), mu=0.05, rate=0.01)
    res = solve_infinite(problem, wealth_points=100)
    assert res.method == "dp"
    assert res.value == solve_infinite(problem, wealth_points=100, methods=("dp",)).value
    assert res.value >= annuity_value(problem) - 1e-9
    with pytest.raises(TypeError):
        solve_infinite(problem, wealth_points=100, methods=("martingale",))


def test_unknown_route_is_named_not_skipped():
    # A misspelt route used to leave the DP to run alone, with no cross-check.
    problem = make_problem(VnmParams(LogUtility(), discount=0.02), mu=0.05, rate=0.01)
    with pytest.raises(ValueError, match="martingal'"):
        solve_infinite(problem, wealth_points=100, methods=("dp", "martingal"))


NON_FINITE_INPUTS = {
    "s0-inf": (lambda: MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(math.inf,)), "s0"),
    "s0-nan": (lambda: MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(math.nan,)), "s0"),
    "rate-nan": (lambda: MarketModel(rate=math.nan, mu=(math.nan,), sigma=(0.0,), s0=(1.0,)), "rate"),
    "mu-inf": (lambda: MarketModel(rate=0.02, mu=(math.inf,), sigma=(0.2,), s0=(1.0,)), "mu"),
    "sigma-inf": (lambda: MarketModel(rate=0.02, mu=(0.05,), sigma=(math.inf,), s0=(1.0,)), "sigma"),
    "vnm-discount-nan": (lambda: VnmParams(LogUtility(), discount=math.nan), "discount"),
    "vnm-discount-inf": (lambda: VnmParams(LogUtility(), discount=math.inf), "discount"),
    "ez-risk-inf": (lambda: dataclasses.replace(EZ_SHORT, risk=-math.inf), "risk"),
    "ez-discount-inf": (lambda: dataclasses.replace(EZ_SHORT, discount=math.inf), "discount"),
    "ez-adequacy-inf": (lambda: dataclasses.replace(EZ_SHORT, adequacy=math.inf), "adequacy"),
    "power-exponent-inf": (lambda: PowerUtility(-math.inf), "exponent"),
    "exponential-rate-inf": (lambda: ExponentialUtility(math.inf), "rate"),
    "budget-inf": (lambda: make_problem(VnmParams(LogUtility()), budget=math.inf), "budget"),
    "budget-nan": (lambda: make_problem(VnmParams(LogUtility()), budget=math.nan), "budget"),
    "dt-inf": (lambda: TimeGrid(math.inf, 1.0), "dt"),
    "horizon-inf": (lambda: TimeGrid(1.0, math.inf), "horizon"),
    # Each of these warned "invalid value encountered in multiply" before
    # refusing the masses; b = nan named the masses, not the parameter.
    "hazard-a-inf": (lambda: gompertz_makeham_table(TimeGrid(1.0, 10.0), math.inf, 0.01, 0.1), "a"),
    "hazard-b-inf": (lambda: gompertz_makeham_table(TimeGrid(1.0, 10.0), 0.0, math.inf, 0.1), "b"),
    "hazard-b-nan": (lambda: gompertz_makeham_table(TimeGrid(1.0, 10.0), 0.0, math.nan, 0.1), "b"),
    "hazard-c-inf": (lambda: gompertz_makeham_table(TimeGrid(1.0, 10.0), 0.0, 0.01, math.inf), "c"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_non_finite_inputs_are_refused_naming_the_field(case):
    # Each used to build: s0 = inf solved to 3.9769 for the half investor
    # with NaN risky fractions, a NaN rate or discount surfaced as a NaN
    # value or a later error, and an infinite budget failed inside the solver.
    build, name = NON_FINITE_INPUTS[case]
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        build()


@pytest.mark.parametrize("points", [1, 2])
def test_wealth_grid_needs_three_points(points):
    problem = make_problem(VnmParams(ExponentialUtility(1.0), discount=0.02), n=3, mu=0.05, rate=0.01)
    with pytest.raises(ValueError, match="wealth_points >= 3"):
        solve_finite_dp(problem, wealth_points=points)


# --- transfer to finite pools ----------------------------------------------------------


def transfer_setup(alpha=0.5, horizon=2.0, dt=0.25):
    grid = TimeGrid(dt, horizon)
    gain = VnmParams(PowerUtility(alpha), discount=0.0)
    problem = make_problem(gain, mu=0.05, rate=0.01, sigma=0.2, dt=dt, horizon=horizon,
                           table=uniform_table(grid))
    res = solve_infinite(problem)
    return problem, res.extras["stream"], res.extras["replication"]


def test_transfer_without_mortality_attains_scaled_gain():
    grid = TimeGrid(0.25, 1.0)
    gain = VnmParams(PowerUtility(0.5), discount=0.0)
    table = point_mass_table(grid)
    problem = make_problem(gain, mu=0.05, rate=0.01, table=table)
    res = solve_infinite(problem)
    out = transfer_infinite_to_finite(
        res.extras["stream"], res.extras["replication"], lam=0.9, n=7, problem=problem,
        trials=4000, seed=11,
    )
    # The bound never binds without mortality, so the exact gain equals the target.
    assert out.exact_gain == pytest.approx(out.target_gain, rel=1e-12)
    assert out.admissibility_violations == 0
    assert abs(out.gain_estimate - out.exact_gain) <= 3 * out.gain_se


def test_transfer_gains_increase_with_pool_size():
    problem, stream, replication = transfer_setup()
    gains = []
    target = None
    for n in (10, 100, 1000):
        out = transfer_infinite_to_finite(stream, replication, lam=0.9, n=n, problem=problem,
                                          trials=2000, seed=13)
        gains.append(out.exact_gain)
        target = out.target_gain
        assert out.admissibility_violations == 0
        assert abs(out.gain_estimate - out.exact_gain) <= 4 * out.gain_se
    assert gains[0] < gains[1] < gains[2] <= target + 1e-12


def heavy_problem(gain, dt, horizon):
    """Infinite pool with heavy Gompertz mortality in the benchmark's market."""
    grid = TimeGrid(dt, horizon)
    table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    return HomogeneousProblem(gain, table, model, grid, 1.0, math.inf)


def heavy_mortality_problem(utility):
    return heavy_problem(VnmParams(utility, discount=0.02), 1.0, 20.0)


def test_transfer_exact_gain_counts_gated_off_survivors_when_u0_is_minus_inf():
    # Under CRRA alpha = -1, u(0) = -inf: a survivor whose gate has closed
    # makes the gain -inf, on the sampled paths and in the exact chain alike.
    problem = heavy_mortality_problem(PowerUtility(-1.0))
    res = solve_infinite(problem)
    with np.errstate(invalid="ignore"):  # the standard error of -inf samples is nan
        out = transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9,
                                          n=8, problem=problem, trials=2000, seed=7)
    assert np.isneginf(out.gain_estimate)
    assert np.isneginf(out.exact_gain)
    assert out.exact_gain <= out.target_gain


def test_transfer_exact_gain_with_finite_u0_unchanged():
    # Exponential utility has u(0) = -1; the exact gain is pinned from the
    # implementation before the u(0) = -inf fix.
    stream_source = solve_infinite(heavy_mortality_problem(PowerUtility(-1.0)))
    problem = heavy_mortality_problem(ExponentialUtility(1.0))
    out = transfer_infinite_to_finite(stream_source.extras["stream"], stream_source.extras["replication"],
                                      lam=0.9, n=8, problem=problem, trials=2000, seed=7)
    assert out.exact_gain == pytest.approx(-13.324161576804459, rel=1e-12)
    assert abs(out.gain_estimate - out.exact_gain) <= 4 * out.gain_se
    assert out.exact_gain <= out.target_gain


def test_transfer_gain_se_is_inf_when_a_path_scores_minus_inf():
    # The CRRA alpha = -1 transfer above, with every warning an error: the
    # spread of -inf samples is reported as inf, not computed as nan.
    problem = heavy_mortality_problem(PowerUtility(-1.0))
    res = solve_infinite(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9,
                                          n=8, problem=problem, trials=2000, seed=7)
    assert np.isneginf(out.gain_estimate)
    assert out.gain_se == math.inf


# A table whose death mass ends at mid-horizon, quarterly over two years in
# the benchmark's market: from level 4 on nobody is alive, a case the
# solvers skip step by step and the transfer's exact gain must leave out.
EARLY_EXTINCTION_GAINS = {
    "power": VnmParams(PowerUtility(-1.0), 0.02),
    "log": VnmParams(LogUtility(), 0.02),
    "half": VnmParams(PowerUtility(0.5), 0.02),
    "exponential": VnmParams(ExponentialUtility(1.0), 0.02),
    "expkm": ExpKmParams(ExponentialUtility(1.0)),
    "ez": EZ_SHORT,
}


def early_extinction_problem(family):
    problem = heavy_problem(EARLY_EXTINCTION_GAINS[family], 0.25, 2.0)
    return dataclasses.replace(problem, table=explicit_table(problem.grid, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("family", ["power", "log"])
def test_early_extinction_scaling_dp_matches_the_closed_form(family):
    res = solve_infinite(early_extinction_problem(family))
    assert res.method == "closed_form"
    assert res.extras["dp_value"] == pytest.approx(res.extras["martingale_value"], rel=1e-12)


@pytest.mark.parametrize("family", ["ez", "expkm", "exponential"])
def test_early_extinction_grid_dp_is_at_least_the_annuity(family):
    problem = early_extinction_problem(family)
    assert solve_infinite(problem, methods=("dp",)).value >= annuity_value(problem)


@pytest.mark.parametrize("family", sorted(EARLY_EXTINCTION_GAINS))
def test_early_extinction_pool_of_four_is_below_the_infinite_pool(family):
    problem = early_extinction_problem(family)
    assert solve_finite_dp(problem.with_n(4)).value <= solve_infinite(problem, methods=("dp",)).value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["power", "log", "half"])
def test_early_extinction_transfer_exact_gain(family):
    # The exact gain used to read nan, with a RuntimeWarning, where u(0) =
    # -inf: it weighed the extinct levels' zero rates by their zero share.
    # A survivor whose gate closes consumes nothing, so the gain is -inf
    # there, as on the sampled paths.
    problem = early_extinction_problem(family)
    res = solve_infinite(problem, methods=("martingale",))
    out = transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9, n=8,
                                      problem=problem, trials=2000, seed=1)
    if family == "half":
        assert math.isfinite(out.exact_gain)
        assert abs(out.gain_estimate - out.exact_gain) <= 4 * out.gain_se
    else:
        assert np.isneginf(out.exact_gain)
        assert np.isneginf(out.gain_estimate)


# Transfer of the half investor's pricing stream at A40 into a pool of 64,
# valued with half and exponential utility (2000 paths, seed 7): estimate,
# standard error, exact and target gains, pinned from the transfer's own
# wealth loop that the fund evolution replaced.
TRANSFER_PINS = {
    "half": (PowerUtility(0.5), 7.476733753343503, 0.07099667047481266, 7.521093108816228, 8.803371386807605),
    "exponential": (ExponentialUtility(1.0), -15.40719173171509, 0.028649391005592998, -15.409835089593592,
                    -15.153512777329396),
}


@pytest.mark.parametrize("case", sorted(TRANSFER_PINS))
def test_transfer_pinned(case):
    utility, estimate, se, exact, target = TRANSFER_PINS[case]
    source = solve_infinite(heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 40.0), methods=("martingale",))
    out = transfer_infinite_to_finite(source.extras["stream"], source.extras["replication"], lam=0.9, n=64,
                                      problem=heavy_problem(VnmParams(utility, 0.02), 1.0, 40.0),
                                      trials=2000, seed=7)
    assert out.gain_estimate == pytest.approx(estimate, rel=1e-13)
    assert out.gain_se == pytest.approx(se, rel=1e-13)
    assert out.exact_gain == pytest.approx(exact, rel=1e-13)
    assert out.target_gain == pytest.approx(target, rel=1e-13)
    assert out.admissibility_violations == 0


def test_transfer_counts_each_inadmissible_path_once():
    # Doubling the stream without its replication exhausts the fund: the
    # violations are paths, at most one per trial.
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    out = transfer_infinite_to_finite([2.0 * level for level in res.extras["stream"]], res.extras["replication"],
                                      lam=0.9, n=8, problem=problem, trials=2000, seed=7)
    assert 0 < out.admissibility_violations <= out.trials


# simulate_policy_value of the DP policies of the half investor at A10
# (2000 paths, seed 7): estimate and standard error, pinned before the
# samplers stored their arrays time-major.
SIMULATION_PINS = {
    "n8": (8, 6.1764631292615295, 0.035498793591324636),
    "infinite": (math.inf, 6.1820110139137565, 0.035271594183880865),
}


@pytest.mark.parametrize("case", sorted(SIMULATION_PINS))
def test_simulated_policy_value_pinned(case):
    n, estimate, se = SIMULATION_PINS[case]
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0).with_n(n)
    policy = solve_finite_dp(problem).strategy if math.isfinite(n) else solve_infinite(problem, methods=("dp",)).strategy
    out = simulate_policy_value(problem, policy, trials=2000, seed=7)
    assert out[0] == pytest.approx(estimate, rel=1e-13)
    assert out[1] == pytest.approx(se, rel=1e-13)


@pytest.mark.parametrize("trials", [0, 1])
def test_monte_carlo_entry_points_need_two_trials(trials):
    # One path has no standard error, and none has no mean.
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    with pytest.raises(ValueError, match="trials >= 2"):
        simulate_policy_value(problem, res.strategy, trials=trials, seed=3)
    with pytest.raises(ValueError, match="trials >= 2"):
        simulate_policy_value(problem.with_n(8), ConstantRateStrategy(0.1), trials=trials, seed=3)
    with pytest.raises(ValueError, match="trials >= 2"):
        transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9, n=8,
                                    problem=problem, trials=trials, seed=3)


def test_simulated_value_of_a_minus_inf_policy_has_infinite_standard_error():
    # Consuming nothing under CRRA alpha = -1 scores -inf on every path.
    problem = heavy_problem(VnmParams(PowerUtility(-1.0), 0.02), 1.0, 10.0).with_n(8)
    est, se = simulate_policy_value(problem, ConstantRateStrategy(0.0), trials=200, seed=3)
    assert np.isneginf(est)
    assert se == math.inf


class OneNanRate(ConstantRateStrategy):
    """The constant rate, except NaN on the first path at grid point 3."""

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        rate = super().consumption_rate(t_idx, alive, wealth, node)
        if t_idx == 3:
            rate[0] = np.nan
        return rate


@pytest.mark.parametrize("n", [8, math.inf])
def test_simulated_value_of_a_nan_rate_raises(n):
    # The score used to send a NaN rate down the utility's zero branch:
    # power 1/2 with one NaN among 4 paths of rate 0.1 at A10 heavy scored
    # (5.310544591286364, 0.14378651591387248), its score with that rate 0.
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0).with_n(n)
    with pytest.raises(ValueError, match="consumption rates must not be NaN"):
        simulate_policy_value(problem, OneNanRate(0.1), trials=4, seed=3)


def test_transfer_of_a_nan_rate_raises():
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    stream = [level.copy() for level in res.extras["stream"]]
    stream[3][:] = np.nan
    with pytest.raises(ValueError, match="level 3 contains non-finite rates"):
        transfer_infinite_to_finite(stream, res.extras["replication"], lam=0.9, n=8, problem=problem,
                                    trials=4, seed=3)


@pytest.mark.parametrize("entry, n", [("simulate", 64), ("transfer", 64), ("transfer", 512)])
def test_monte_carlo_entry_points_hold_fewer_than_three_full_arrays(entry, n):
    # At Q40 heavy with 8000 paths one (trials, m) float array is 9.8 MiB.
    # The fund values and rates make two; the boolean up moves, the uint8
    # node indices and the survivor counts (uint8 at n = 64, uint16 at
    # n = 512) add a half at most, and the score works in place on the
    # rates.  With int64 node indices and counts, a float copy of the risky
    # returns and stored post-payment wealth, the peak read 6.1 such arrays.
    trials = 8000
    if entry == "simulate":
        problem = heavy_problem(VnmParams(PowerUtility(-1.0), 0.02), 0.25, 40.0).with_n(n)
        policy = solve_finite_dp(problem).strategy
        run = lambda: simulate_policy_value(problem, policy, trials, seed=7)
    else:
        problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 0.25, 40.0)
        res = solve_infinite(problem, methods=("martingale",))
        run = lambda: transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9,
                                                  n=n, problem=problem, trials=trials, seed=7)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * trials * problem.grid.n_steps * 8


# --- wealth-grid solver ----------------------------------------------------------------


def test_golden_max_vec_finds_each_argmax_with_one_probe_per_iteration():
    peaks = np.linspace(-0.9, 1.9, 150).reshape(3, 50)
    curvature = np.linspace(0.5, 4.0, 150).reshape(3, 50)
    calls = []

    def fn(x):
        calls.append(x.shape)
        return -curvature * (x - peaks) ** 2

    def derivatives(x):
        return -2.0 * curvature * (x - peaks), -2.0 * curvature

    x, fx = golden_max_vec(fn, np.full((3, 50), -1.0), np.full((3, 50), 2.0), derivatives)
    np.testing.assert_allclose(x, peaks, rtol=0, atol=1e-8)
    np.testing.assert_allclose(fx, 0.0, rtol=0, atol=1e-12)
    # 18 golden iterations, 3 Newton steps and the bracket's two ends.
    assert calls == [(3, 50)] * (18 + 1 + 3 + 2)


def test_golden_max_vec_returns_a_maximum_at_the_bracket_end_exactly():
    # Peaks beyond either end, on a concave and on a convex objective: the
    # Newton steps stop at the golden bracket, whose ends are candidates.
    peaks = np.array([[-3.0, 4.0], [-3.0, 4.0]])
    sign = np.array([[1.0, 1.0], [-1.0, -1.0]])

    def fn(x):
        return -sign * (x - peaks) ** 2 - (sign < 0) * 20.0 * np.abs(x - peaks)

    def derivatives(x):
        return -2.0 * sign * (x - peaks) - (sign < 0) * 20.0 * np.sign(x - peaks), -2.0 * sign

    lo, hi = np.full((2, 2), -1.0), np.full((2, 2), 2.0)
    x, _ = golden_max_vec(fn, lo, hi, derivatives)
    assert np.array_equal(x, np.where(peaks < 0, lo, hi))


# Value and the t = 0 policy of the endogenous-grid solver, on a quarterly
# 2-year grid with heavy mortality.  Policy rows are the states (n, 1), or
# the single infinite-pool state, at wealth (0.1, 0.5, 1, 1.5) times the
# pool's starting wealth.  The values are within 1e-8 relative of those
# of the golden-search solver the endogenous grid replaced.
GRID_PINS = {
    "ez-n8": (EZ_SHORT, 8, -121.07956077130686,
              [[0.128691, 0.129585, 0.130021, 0.130260], [0.131277, 0.132267, 0.061637, 0.005248]],
              [[1.231419, 1.012861, 0.896654, 0.823993], [0.934070, 0.657477, 2.396226, 1.465641]]),
    "expkm-n4": (ExpKmParams(ExponentialUtility(1.0)), 4, -3.2627418358909956,
                 [[0.039258, 0.119009, 0.124164, 0.125803], [0.120455, 0.126393, 0.127083, 0.127202]],
                 [[4.099708, 1.245588, 0.721800, 0.541325], [1.506340, 0.457544, 0.302491, 0.227230]]),
    "exponential-n4": (VnmParams(ExponentialUtility(1.0), 0.02), 4, -1.1542782428974723,
                       [[0.024638, 0.132129, 0.131105, 0.130217], [0.134611, 0.129600, 0.128408, 0.127986]],
                       [[6.514372, 2.844378, 1.479853, 0.977688], [3.394106, 0.748291, 0.374442, 0.245359]]),
    "ez-infinite": (EZ_SHORT, math.inf, -121.060277112395,
                    [[0.128635, 0.129508, 0.129927, 0.130151]],
                    [[1.231412, 1.012827, 0.896599, 0.823922]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(GRID_PINS))
def test_batched_grid_solver_matches_per_state_solver(case):
    gain, n, value, kappa, fraction = GRID_PINS[case]
    grid = TimeGrid(0.25, 2.0)
    table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    problem = HomogeneousProblem(gain, table, model, grid, 1.0, n)
    if math.isfinite(n):
        res = solve_finite_dp(problem)
        states, start_wealth = [n, 1], float(n)
    else:
        res = solve_infinite(problem, methods=("dp",))
        states, start_wealth = [0], 1.0
    assert res.value == pytest.approx(value, rel=1e-10)
    # Only interior wealth: near the grid ends the line searches run on
    # flat objectives and their answers carry no information.
    policy = res.strategy
    idx = np.searchsorted(policy.fgrid, start_wealth * np.array([0.1, 0.5, 1.0, 1.5]))
    np.testing.assert_allclose(policy.kappa[0][states][:, idx], kappa, rtol=0, atol=1e-4)
    np.testing.assert_allclose(policy.fraction[0][states][:, idx], fraction, rtol=0, atol=1e-4)


# Infinite-pool wealth-grid values of the multiplicative family with log and
# power-1/2 inner utility, on an annual 10-year grid with heavy mortality in
# the benchmark's market: the inner utilities GRID_PINS leaves out.
EXPKM_GRID_PINS = {
    "log": (LogUtility(), -1718686131.922054),
    "half": (PowerUtility(0.5), -0.008274895483374213),
}


@pytest.mark.parametrize("case", sorted(EXPKM_GRID_PINS))
def test_multiplicative_grid_value_pinned_for_log_and_power_inner_utility(case):
    utility, value = EXPKM_GRID_PINS[case]
    res = solve_infinite(heavy_problem(ExpKmParams(utility), 1.0, 10.0), methods=("dp",))
    assert res.value == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize(
    "n, route",
    [pytest.param(math.inf, "dp", id="inf"), pytest.param(4, "dp", id="4"),
     pytest.param(math.inf, "martingale", id="inf-pricing")],
)
def test_grid_rejects_a_negative_power_inner_utility(n, route):
    # The pricing route used to accept this gain and return -1.7746951292298218e37 as converged.
    problem = heavy_problem(ExpKmParams(PowerUtility(-1.0)), 1.0, 10.0).with_n(n)
    with pytest.raises(ValueError, match="negative-power inner utility overflows the multiplicative recursion"):
        solve_finite_dp(problem) if math.isfinite(n) else solve_infinite(problem, methods=(route,))


# The EZ solver's reported value against the exact value of its own policy
# on the full binary tree, infinite pool with heavy mortality: the quarterly
# 2-year grid of GRID_PINS and annual grids of 10, 16 and 20 years.  The
# gaps read 7.8e-10, 1.0e-7, 1.8e-7 and 2.1e-7 relative; the golden-search
# solver's read 9.6e-10, 1.0e-7, 1.4e-4 and 0.22.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt, horizon, rtol", [(0.25, 2.0, 1e-9), (1.0, 10.0, 3e-7), (1.0, 16.0, 3e-7),
                                               (1.0, 20.0, 3e-7)], ids=["q2", "a10", "a16", "a20"])
def test_ez_grid_value_is_the_exact_value_of_its_policy(dt, horizon, rtol):
    problem = heavy_problem(EZ_SHORT, dt, horizon)
    res = solve_infinite(problem, methods=("dp",))
    assert abs(res.value - exact_policy_value(problem, res.strategy)) <= rtol * abs(res.value)
    # The last step's continuation is the constant adequacy value: flat everywhere.
    assert set(res.extras) == {"flat_continuation_points", "no_root_points", "non_monotone_points", "capped_points"}
    assert res.extras["flat_continuation_points"] >= res.strategy.fgrid.size


@pytest.mark.parametrize("gain, capped", [(EZ_SHORT, 400), (ExpKmParams(ExponentialUtility(1.0)), 0)],
                         ids=["ez", "expkm"])
def test_grid_counts_the_values_the_cap_lowers(gain, capped):
    # EZ heavy A10: the cap binds at 400 of the 4,000 grid values; the
    # multiplicative family has no cap.
    res = solve_infinite(heavy_problem(gain, 1.0, 10.0), methods=("dp",))
    assert res.extras["capped_points"] == capped


def test_benchmark_tracer_sees_one_portfolio_search_per_step(monkeypatch):
    # The benchmark's traced mode wraps golden_max_vec and PchipInterpolator
    # by name; a solver that stops calling either would leave its per-layer
    # figures silently empty.  Imported without writing bytecode beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import tracer

    problem = heavy_problem(EZ_SHORT, 0.25, 1.0)
    modules = dict(market=market, mortality=mortality, fund=fund, preferences=preferences, optimizer=optimizer,
                   ez_bsde=ez_bsde)
    log = tracer.Tracer()
    with tracer.instrument(log, modules):
        optimizer.solve_infinite(problem, methods=("dp",))
    summary = tracer.summarize(log)
    steps = problem.grid.n_steps
    # The last step's continuation is the flat death value: it runs no search.
    assert summary["layers"]["optimizer.golden_max_vec"]["calls"] == steps - 1
    assert summary["counts"]["optimizer.golden_max_vec.evals"] == 24 * (steps - 1)
    assert summary["counts"]["optimizer.PchipInterpolator.builds"] > 0
    assert optimizer.golden_max_vec is golden_max_vec and optimizer.PchipInterpolator is PchipInterpolator


# Infinite-pool scaling DP on a quarterly 40-year grid with heavy mortality:
# value, first consumed fraction and the fractions' sum over time, pinned
# from the separate finite- and infinite-pool solvers that one solver over
# a drain measure replaced.
@pytest.mark.parametrize(
    "gain, value, first_fraction, fraction_sum",
    [
        (VnmParams(PowerUtility(-1.0), 0.02), -245.1207390326598, 0.015967980000535523, 10.482726509932078),
        (VnmParams(LogUtility(), 0.02), -42.91195721394339, 0.01548964424638223, 10.40432285337306),
    ],
)
def test_infinite_scaling_dp_pinned(gain, value, first_fraction, fraction_sum):
    res = solve_infinite(heavy_problem(gain, 0.25, 40.0), methods=("dp",))
    fractions = res.strategy.consumption_fraction
    assert fractions.shape == (160, 1)
    assert res.value == pytest.approx(value, rel=1e-12)
    assert fractions[0, 0] == pytest.approx(first_fraction, rel=1e-12)
    assert fractions.sum() == pytest.approx(fraction_sum, rel=1e-12)


# Finite-pool scaling DP on a quarterly 40-year grid with heavy mortality:
# the value, and the whole consumed-fraction table from
# ``data/scaling_dp_fractions.npz``, pinned from the pool-level recursion
# (all n counts mixed, utility weighted j/n) that the investor's chain
# replaced.
FINITE_SCALING_PINS = {
    ("power", 8): -262.6289939488236,
    ("power", 64): -247.59943133257124,
    ("log", 8): -43.628725602416566,
    ("log", 64): -43.00477612007023,
    ("half", 8): 8.985973369697545,
    ("half", 64): 9.133886431094972,
}
SCALING_UTILITIES = {"power": PowerUtility(-1.0), "log": LogUtility(), "half": PowerUtility(0.5)}


@pytest.mark.parametrize("case", sorted(FINITE_SCALING_PINS), ids=lambda case: f"{case[0]}-n{case[1]}")
def test_finite_scaling_dp_pinned(case):
    name, n = case
    problem = heavy_problem(VnmParams(SCALING_UTILITIES[name], 0.02), 0.25, 40.0).with_n(n)
    res = solve_finite_dp(problem)
    with np.load(Path(__file__).parent / "data" / "scaling_dp_fractions.npz") as pinned:
        fractions = pinned[f"{name}-n{n}"]
    assert res.value == pytest.approx(FINITE_SCALING_PINS[case], rel=1e-13)
    assert res.strategy.consumption_fraction.shape == fractions.shape
    np.testing.assert_allclose(res.strategy.consumption_fraction, fractions, rtol=0, atol=1e-14)


# Pool-size ordering on a quarterly 40-year grid with heavy mortality, at
# the benchmark's pool sizes up to the scaling cap: a larger pool shares
# mortality risk better, and no finite pool beats the infinite one.
@pytest.mark.parametrize("family", sorted(SCALING_UTILITIES))
def test_pool_value_nondecreasing_in_n_and_below_infinite(family):
    problem = heavy_problem(VnmParams(SCALING_UTILITIES[family], 0.02), 0.25, 40.0)
    v_inf = solve_infinite(problem, methods=("dp",)).value
    values = [solve_finite_dp(problem.with_n(n)).value for n in (1, 8, 64, 512)]
    assert np.all(np.diff(values) >= 0.0)
    assert values[-1] <= v_inf


# The finite-pool gap closes at rate 1/n on the same grid: n * (V_inf - V_n)
# reads 158.64, 163.95 and 165.79 at n = 64, 256 and 1024 for power utility
# (alpha = -1), rising, and 5.940, 5.837 and 5.753 for log utility, falling.
# n = 1024 is past the desk cap of solve_finite_dp, so the scaling solver
# is called directly.
@pytest.mark.parametrize("family, alpha", [("power", -1.0), ("log", 0.0)], ids=["power", "log"])
def test_finite_pool_gap_closes_at_rate_one_over_n(family, alpha):
    problem = heavy_problem(VnmParams(SCALING_UTILITIES[family], 0.02), 0.25, 40.0)
    v_inf = solve_infinite(problem, methods=("dp",)).value
    scaled_gaps = [n * (v_inf - _solve_scaling(problem.with_n(n), alpha).value) for n in (64, 256, 1024)]
    if family == "power":
        assert np.all(np.diff(scaled_gaps) >= 0.0)
        assert 155.0 <= scaled_gaps[0] and scaled_gaps[-1] <= 170.0
    else:
        assert all(5.5 <= gap <= 6.1 for gap in scaled_gaps)


# Exponential utility on the wealth grid, annual 10-year grid with heavy
# mortality, pinned from the endogenous-grid solver (within 1.7e-6 relative
# of the golden-search solver it replaced).
@pytest.mark.parametrize("n, value", [(4, -7.438720110059771), (8, -7.436239421726909),
                                      (math.inf, -7.4343352369624025)], ids=["n4", "n8", "infinite"])
def test_exponential_grid_dp_pinned(n, value):
    problem = heavy_problem(VnmParams(ExponentialUtility(1.0), 0.02), 1.0, 10.0).with_n(n)
    res = solve_finite_dp(problem) if math.isfinite(n) else solve_infinite(problem, methods=("dp",))
    assert res.value == pytest.approx(value, rel=1e-12)


# Wealth-grid values at the sizes the benchmark's ez-grid workload solves:
# annual grids in its market, heavy mortality over 10 years and light
# mortality over 40, pinned from the 48-iteration golden-search solver.
BENCHMARK_GRID_PINS = {
    "ez-a10-inf": (EZ_SHORT, 10.0, "heavy", math.inf, -117.85024562890602),
    "ez-a10-n4": (EZ_SHORT, 10.0, "heavy", 4, -118.50889119863858),
    "ez-a10-n8": (EZ_SHORT, 10.0, "heavy", 8, -118.16092806227957),
    "expkm-a10-inf": (ExpKmParams(ExponentialUtility(1.0)), 10.0, "heavy", math.inf, -5713.731385857547),
    "ez-light-a40-inf": (EZ_SHORT, 40.0, "light", math.inf, -261.52164448836385),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_GRID_PINS))
def test_grid_dp_pinned_at_benchmark_sizes(case):
    gain, horizon, mortality, n, value = BENCHMARK_GRID_PINS[case]
    problem = pricing_problem(gain, horizon, mortality).with_n(n)
    res = solve_finite_dp(problem) if math.isfinite(n) else solve_infinite(problem, methods=("dp",))
    assert res.value == pytest.approx(value, rel=1e-10)


# Closed-form pricing streams over 40 years with heavy mortality: value,
# first rate and the sum of every node's rate, pinned from the separate
# power and log routes that log as exponent zero replaced.
CLOSED_FORM_PINS = {
    "power-q40": (PowerUtility(-1.0), 0.25, -245.1207390326567, 0.06387192000214252, 7958.845267911406),
    "power-a40": (PowerUtility(-1.0), 1.0, -256.29337823905627, 0.06246421797862436, 92.40451944558362),
    "log-q40": (LogUtility(), 0.25, -42.91195721394339, 0.06195857698552889, 669666.9220914019),
    "log-a40": (LogUtility(), 1.0, -44.24869817261841, 0.06054634430535111, 452.727862984124),
    "half-q40": (PowerUtility(0.5), 0.25, 9.154941436677174, 0.04772532014101215, 15324751367.9892),
    "half-a40": (PowerUtility(0.5), 1.0, 9.279568223555744, 0.04645200383486101, 29017.235392771796),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_PINS))
def test_closed_form_stream_pinned(case):
    utility, dt, value, first_rate, rate_sum = CLOSED_FORM_PINS[case]
    res = solve_infinite(heavy_problem(VnmParams(utility, 0.02), dt, 40.0), methods=("martingale",))
    stream = res.extras["stream"]
    assert res.value == pytest.approx(value, rel=1e-12)
    assert stream[0][0] == pytest.approx(first_rate, rel=1e-12)
    assert sum(level.sum() for level in stream) == pytest.approx(rate_sum, rel=1e-12)


# The closed-form route and its replication at the benchmark's settings
# (quarterly 40-year grid, heavy mortality): value, sum of every node's
# rate, initial wealth, first risky fraction and the sum of every node's
# absolute risky fraction, pinned from the per-level code at commit 849c23b.
REPLICATION_PINS = {
    "power": (PowerUtility(-1.0), -245.1207390326567, 7958.845267911406, 1.000000000000001, 0.3794711981917759,
              4826.873640999377),
    "log": (LogUtility(), -42.91195721394338, 669666.9220914022, 1.000000000000001, 0.7578559547753363,
            9639.92774474226),
    "half": (PowerUtility(0.5), 9.154941436677174, 15324751367.9892, 1.0000000000000002, 1.5071039011921536,
             19170.36162316419),
}


@pytest.mark.parametrize("case", sorted(REPLICATION_PINS))
def test_closed_form_replication_pinned(case):
    utility, value, rate_sum, wealth, first_fraction, fraction_sum = REPLICATION_PINS[case]
    res = solve_infinite(heavy_problem(VnmParams(utility, 0.02), 0.25, 40.0), methods=("martingale",))
    rep = res.extras["replication"]
    assert res.value == pytest.approx(value, rel=1e-12)
    assert sum(level.sum() for level in res.extras["stream"]) == pytest.approx(rate_sum, rel=1e-12)
    assert rep.wealth[0][0] == pytest.approx(wealth, rel=1e-12)
    assert rep.risky_fraction[0][0] == pytest.approx(first_fraction, rel=1e-12)
    assert sum(np.abs(level).sum() for level in rep.risky_fraction) == pytest.approx(fraction_sum, rel=1e-12)
    assert [level.shape for level in rep.wealth] == [(i + 1,) for i in range(161)]
    assert [level.shape for level in rep.risky_fraction] == [(i + 1,) for i in range(160)]


MERTON_CASES = {
    "q40-heavy": lambda gain: heavy_problem(gain, 0.25, 40.0),
    "a40-heavy": lambda gain: pricing_problem(gain, 40.0, "heavy"),
    "a40-light": lambda gain: pricing_problem(gain, 40.0, "light"),
}


@pytest.mark.parametrize("utility", [PowerUtility(-1.0), LogUtility(), PowerUtility(0.5)], ids=["power", "log", "half"])
@pytest.mark.parametrize("case", sorted(MERTON_CASES))
def test_pricing_replication_holds_the_dp_merton_fraction(case, utility):
    # The two infinite routes agree on the policy as well as the value: the
    # replication of the closed-form stream holds the scaling DP's one risky
    # fraction at every node where wealth is carried to the next level.
    problem = MERTON_CASES[case](VnmParams(utility, 0.02))
    alpha = 0.0 if isinstance(utility, LogUtility) else utility.exponent
    merton = best_power_growth(problem.lattice(), alpha)[0]
    rep = solve_infinite(problem, methods=("martingale",)).extras["replication"]
    m = problem.grid.n_steps
    for i in range(m - 1):
        post = rep.wealth[i] - rep.cashflow[i] * problem.grid.dt
        live = post > 0
        assert live.any()
        assert np.max(np.abs(rep.risky_fraction[i][live] - merton)) <= 1e-13


# Value and gradient of the pricing route's objective at the annuity
# stream, on an annual 10-year grid with heavy mortality: value, first
# and last entries and sum of the gradient, pinned from the hand-written
# forward and adjoint sweeps that the shared lattice x death step replaced.
GRADIENT_PINS = {
    "ez": (EZ_SHORT,
           -129.25750354693866, 100.12137059587432, 0.4504996472805797, 807.9310957242099),
    "expkm": (ExpKmParams(ExponentialUtility(1.0)),
              -7042.787918066223, 6331.743027037855, 44.54395486361487, 63163.30342453127),
    "expkm-log": (ExpKmParams(LogUtility()),
                  -4647736123.608778, 43670014733.70131, 311094778.2414134, 436565107808.36505),
    "expkm-half": (ExpKmParams(PowerUtility(0.5)),
                   -0.013811470145735695, 0.04233609984825482, 2.7756937315862546e-05, 0.12566019570491893),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_PINS))
def test_pricing_objective_gradient_pinned(case):
    gain, value, first, last, total = GRADIENT_PINS[case]
    problem = heavy_problem(gain, 1.0, 10.0)
    sizes = np.arange(1, problem.grid.n_steps + 1)
    stops = np.cumsum(sizes)
    layout = list(zip(stops - sizes, stops))
    x = np.full(stops[-1], annuity_rate(problem))
    v, grad = _value_and_grad(gain, x, layout, problem.table, problem.lattice())
    assert v == pytest.approx(value, rel=1e-12)
    assert grad.shape == x.shape
    assert grad[0] == pytest.approx(first, rel=1e-12)
    assert grad[-1] == pytest.approx(last, rel=1e-12)
    assert grad.sum() == pytest.approx(total, rel=1e-12)


def test_additive_step_sweep_matches_the_lattice_evaluator():
    # The additive family's step, which the wealth grid and the annuity
    # use, swept over a node stream against the closed sum of
    # vnm_value_on_lattice.
    gain = VnmParams(ExponentialUtility(1.0), 0.02)
    problem = heavy_problem(gain, 1.0, 10.0)
    lattice = problem.lattice()
    sizes = np.arange(1, problem.grid.n_steps + 1)
    stops = np.cumsum(sizes)
    x = annuity_rate(problem) * np.linspace(0.5, 1.5, stops[-1])
    stream = [x[a:b] for a, b in zip(stops - sizes, stops)]
    value = preferences._gain_levels(gain, stream, problem.table, lattice)[0][0][0]
    assert value == pytest.approx(preferences.vnm_value_on_lattice(gain, stream, problem.table, lattice), rel=1e-13)


# The numeric pricing route, solved from its first-order conditions, on
# annual grids in the benchmark's market.  The EZ A10 value and the ExpKm
# A10 floor are pinned from SLSQP solves of the same problems (SLSQP
# stopped short of convergence on ExpKm).
PRICING_ROUTE_CASES = {
    "ez-a10-heavy": (EZ_SHORT, 10.0, "heavy"),
    "expkm-a10-heavy": (ExpKmParams(ExponentialUtility(1.0)), 10.0, "heavy"),
    "expkm-a20-light": (ExpKmParams(ExponentialUtility(1.0)), 20.0, "light"),
    "ez-a20-heavy": (EZ_SHORT, 20.0, "heavy"),
    "ez-a20-light": (EZ_SHORT, 20.0, "light"),
    "ez-a40-heavy": (EZ_SHORT, 40.0, "heavy"),
}


def pricing_problem(gain, horizon, mortality):
    problem = heavy_problem(gain, 1.0, horizon)
    if mortality == "light":
        problem = dataclasses.replace(problem, table=gompertz_makeham_table(problem.grid, 5e-4, 7e-5, 0.1))
    return problem


def pricing_value_and_grad(problem, stream):
    sizes = np.array([level.size for level in stream])
    stops = np.cumsum(sizes)
    layout = list(zip(stops - sizes, stops))
    return _value_and_grad(problem.gain, np.concatenate(stream), layout, problem.table, problem.lattice())


def kkt_residual(problem, stream):
    """Largest violation of dJ/dc = nu price: |ratio - 1| on free nodes, ratio - 1 on floored ones.

    Nodes of zero price (nobody alive) are left out.
    """
    m = problem.grid.n_steps
    x = np.concatenate(stream)
    _, grad = pricing_value_and_grad(problem, stream)
    price = _stream_price_coefficients(problem.lattice(), problem.table)[np.tri(m, m + 1, dtype=bool)]
    live = price > 0
    x, grad, price = x[live], grad[live], price[live]
    gap = grad / ((x @ grad) / problem.budget * price) - 1.0
    floored = x <= 1e-10 * annuity_rate(problem)
    return max(np.max(np.abs(gap[~floored]), initial=0.0), np.max(gap[floored], initial=0.0))


def assert_priced_to_budget(problem, res):
    pi = problem.table.pi[: problem.grid.n_steps]
    stream = res.extras["stream"]
    price = q_price([pi[i] * level for i, level in enumerate(stream)], problem.lattice())
    assert price == pytest.approx(problem.budget, rel=1e-12)
    assert res.extras["replication"].initial_budget == pytest.approx(problem.budget, rel=1e-12)


@pytest.mark.parametrize("case", sorted(PRICING_ROUTE_CASES))
def test_numeric_pricing_route_meets_first_order_conditions(case):
    gain, horizon, mortality = PRICING_ROUTE_CASES[case]
    problem = pricing_problem(gain, horizon, mortality)
    res = solve_infinite(problem, methods=("martingale",))
    assert res.extras["converged"] is True
    assert kkt_residual(problem, res.extras["stream"]) <= 1e-10
    assert_priced_to_budget(problem, res)
    assert pricing_value_and_grad(problem, res.extras["stream"])[0] == res.value
    if isinstance(gain, EzParams):
        direct = ez_utility_discrete(gain, res.extras["stream"], problem.table, problem.lattice())
        assert direct == pytest.approx(res.value, rel=1e-10)
    if case == "ez-a10-heavy":
        assert res.value == pytest.approx(-117.96728449041498, rel=1e-10)
    if case == "expkm-a10-heavy":
        assert res.value >= -5742.918977490961 * (1.0 + 1e-12)


def test_numeric_pricing_route_rejects_steps_outside_the_ez_domain():
    # Under light mortality at A40 the ascent runs into the explicit EZ
    # step's domain edge (a node value reaching zero).  The trial steps
    # that cross it are rejected without a RuntimeWarning, and the stream
    # returned is still priced to the budget and re-evaluates to its value.
    problem = pricing_problem(EZ_SHORT, 40.0, "light")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_infinite(problem, methods=("martingale",))
    assert math.isfinite(res.value)
    assert res.value >= annuity_value(problem)
    assert_priced_to_budget(problem, res)
    direct = ez_utility_discrete(EZ_SHORT, res.extras["stream"], problem.table, problem.lattice())
    assert direct == pytest.approx(res.value, rel=1e-10)


@pytest.mark.parametrize("gain", [EZ_SHORT, ExpKmParams(ExponentialUtility(1.0))], ids=["ez", "expkm"])
def test_numeric_pricing_route_keeps_rates_where_nobody_is_alive(gain):
    # Death is certain by mid-horizon, so the later nodes cost nothing and
    # carry no gain; they keep the starting annuity rate.
    grid = TimeGrid(0.25, 2.0)
    table = explicit_table(grid, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    problem = dataclasses.replace(heavy_problem(gain, 0.25, 2.0), table=table)
    res = solve_infinite(problem, methods=("martingale",))
    assert res.extras["converged"] is True
    assert kkt_residual(problem, res.extras["stream"]) <= 1e-10
    for level in res.extras["stream"][4:]:
        assert np.all(level == annuity_rate(problem))
    assert_priced_to_budget(problem, res)


def pchip_rows(x):
    rng = np.random.default_rng(0)
    return np.array([
        np.cumsum(rng.normal(size=x.size)),  # secants that change sign
        np.round(np.cumsum(rng.normal(size=x.size))),  # flat stretches: zero secants
        -np.exp(-np.linspace(0.0, 800.0, x.size)),  # secants tiny enough to overflow w / secant
        x**3,
    ])


def scipy_pchip(x, y, **kwargs):
    with np.errstate(over="ignore"):  # scipy's own overflow on the third row
        return ScipyPchip(x, y, **kwargs)


@pytest.mark.filterwarnings("error")
def test_pchip_slopes_match_scipy_without_overflow():
    x = np.log(np.geomspace(0.01, 50.0, 60))  # the solver's uniform log-wealth grid
    y = pchip_rows(x)
    slopes = _pchip_slopes(np.diff(x), np.diff(y, axis=1) / np.diff(x))
    expected = scipy_pchip(x, y, axis=1)(x, nu=1)
    assert np.all(np.isfinite(expected))
    np.testing.assert_allclose(slopes, expected, rtol=1e-12, atol=1e-12)
    flat_left = np.diff(y[1])[:-1] == 0.0
    assert flat_left.any() and np.all(slopes[1, 1:-1][flat_left] == 0.0)


@pytest.mark.filterwarnings("error")
def test_pchip_interpolant_matches_scipy_per_row_and_clamps():
    x = np.log(np.geomspace(0.01, 50.0, 60))
    y = pchip_rows(x)
    points = np.random.default_rng(1).uniform(x[0], x[-1], size=(2, 4, 30))
    values = PchipInterpolator(x, y)(points)
    for r in range(4):
        np.testing.assert_allclose(values[:, r], scipy_pchip(x, y[r])(points[:, r]), rtol=1e-12, atol=1e-12)
    outside = np.broadcast_to(np.array([x[0] - 1.0, x[-1] + 1.0])[:, None, None], (2, 4, 1))
    np.testing.assert_allclose(PchipInterpolator(x, y)(outside)[:, :, 0], y[:, [0, -1]].T, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_pchip_slopes_match_scipy_and_vanish_beyond_the_ends_and_on_flat_segments():
    x = np.log(np.geomspace(0.01, 50.0, 60))
    y = pchip_rows(x)
    interpolant = PchipInterpolator(x, y)
    points = np.random.default_rng(2).uniform(x[0], x[-1], size=(2, 4, 30))
    slopes = interpolant(points, 1)
    for r in range(4):
        expected = scipy_pchip(x, y[r]).derivative()(points[:, r])
        np.testing.assert_allclose(slopes[:, r], expected, rtol=1e-12, atol=1e-12)
    first, second = interpolant(points, 2)
    assert np.array_equal(first, slopes)
    for r in range(4):
        expected = scipy_pchip(x, y[r]).derivative(2)(points[:, r])
        np.testing.assert_allclose(second[:, r], expected, rtol=1e-9, atol=1e-9)
    outside = np.broadcast_to(np.array([x[0] - 1e-9, x[-1] + 1e-9, x[0] - 5.0, x[-1] + 5.0])[:, None, None], (4, 4, 1))
    assert np.all(interpolant(outside, 1) == 0.0)
    assert all(np.all(d == 0.0) for d in interpolant(outside, 2))
    flat = np.flatnonzero(np.diff(y[1]) == 0.0)
    assert flat.size
    midpoints = np.broadcast_to(0.5 * (x[flat] + x[flat + 1]), (4, flat.size))
    assert np.all(interpolant(midpoints, 1)[1] == 0.0)


# --- consistency of reported values ------------------------------------------------------


def test_resimulated_policy_reproduces_reported_value_finite():
    gain = VnmParams(PowerUtility(-1.0), discount=0.02)
    problem = make_problem(gain, n=4, mu=0.05, rate=0.01, dt=0.25, horizon=1.0)
    res = solve_finite_dp(problem)
    est, se = simulate_policy_value(problem, res.strategy, trials=40_000, seed=3)
    assert abs(est - res.value) <= 3 * se


def test_resimulated_policy_reproduces_reported_value_infinite():
    gain = VnmParams(LogUtility(), discount=0.01)
    problem = make_problem(gain, mu=0.05, rate=0.02, dt=0.25, horizon=1.0)
    res = solve_infinite(problem)
    est, se = simulate_policy_value(problem, res.extras["dp_strategy"], trials=40_000, seed=5)
    assert abs(est - res.value) <= 3 * se


@pytest.mark.parametrize("gain", [VnmParams(PowerUtility(-1.0), 0.02), VnmParams(LogUtility(), 0.02),
                                  VnmParams(PowerUtility(0.5), 0.02)], ids=["power-1", "log", "half"])
def test_default_solve_runs_its_own_strategy_to_its_value(gain):
    # The closed-form route's strategy was its ReplicatingStrategy, which
    # the fund cannot run: simulate_policy_value raised AttributeError.
    problem = heavy_problem(gain, 1.0, 40.0)
    res = solve_infinite(problem)
    assert res.method == "closed_form"
    assert isinstance(res.strategy, fund.NodePolicy)
    assert res.strategy.fractions is res.extras["replication"].risky_fraction
    est, se = simulate_policy_value(problem, res.strategy, trials=20_000, seed=1)
    assert abs(est - res.value) <= 4 * se


def test_numeric_pricing_strategy_runs_admissibly_in_the_fund():
    problem = heavy_problem(EZ_SHORT, 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    paths = market.sample_lattice_paths(problem.lattice(), 2000, seed=4)
    traj = fund.evolve_infinite(res.strategy, paths, problem.table, problem.budget)
    assert np.all(traj.admissible)
    # The fund pays the stream's node rates while anyone is alive.
    m = problem.grid.n_steps
    expected = np.stack([res.extras["stream"][t][paths.node_idx[:, t]] for t in range(m)], axis=1)
    np.testing.assert_array_equal(traj.rate, expected)


HALF_INVESTOR = VnmParams(PowerUtility(0.5), 0.02)
EXPONENTIAL_INVESTOR = VnmParams(ExponentialUtility(1.0), 0.02)


def _dp_solve(problem):
    return solve_finite_dp(problem) if math.isfinite(problem.n) else solve_infinite(problem, methods=("dp",))


@pytest.mark.parametrize("n", [4, math.inf])
def test_resimulated_wealth_grid_policy_reproduces_its_value(n):
    # Runs the wealth grid's interpolated policy through the fund; at these
    # paths the estimates read z = -0.15 (n = 4) and +0.22 (infinite pool).
    problem = heavy_problem(EXPONENTIAL_INVESTOR, 1.0, 10.0).with_n(n)
    res = _dp_solve(problem)
    assert isinstance(res.strategy, optimizer.GridPolicy)
    est, se = simulate_policy_value(problem, res.strategy, trials=20_000, seed=3)
    assert abs(est - res.value) <= 4 * se


@pytest.mark.parametrize("n, overdrawn", [(8, 10_092), (64, 10_028)])
def test_resimulation_refuses_paths_the_fund_could_not_pay(n, overdrawn):
    # The infinite pool's pricing stream overdraws a finite pool's fund on
    # half the paths.  Scoring their consumption anyway read 9.3002 +- 0.0309
    # at n = 8 and 9.3132 +- 0.0286 at n = 64, above the pools' optima
    # V8 = 9.1098 and V64 = 9.2587.
    problem = heavy_problem(HALF_INVESTOR, 1.0, 40.0)
    policy = solve_infinite(problem, methods=("martingale",)).strategy
    with pytest.raises(ValueError, match=f"{overdrawn} of 20000 sampled paths were inadmissible"):
        simulate_policy_value(problem.with_n(n), policy, trials=20_000, seed=3)


def _simulate_elsewhere(gain, solved_for, run_in):
    """Re-simulate the DP policy solved for (dt, horizon, n) ``solved_for`` in the problem ``run_in``."""
    solved, run = (heavy_problem(gain, dt, horizon).with_n(n) for dt, horizon, n in (solved_for, run_in))
    return simulate_policy_value(run, _dp_solve(solved).strategy, trials=4000, seed=1)


def _transfer_replicating_on(dt, horizon):
    """Transfer the A40 pricing stream with the replication solved on (dt, horizon)."""
    problem = heavy_problem(HALF_INVESTOR, 1.0, 40.0)
    stream = solve_infinite(problem, methods=("martingale",)).extras["stream"]
    replication = solve_infinite(heavy_problem(HALF_INVESTOR, dt, horizon), methods=("martingale",)).extras["replication"]
    return transfer_infinite_to_finite(stream, replication, 0.9, 8, problem, trials=100, seed=1)


A40 = r"TimeGrid\(dt=1.0, horizon=40.0, n_steps=40\)"
Q10 = r"TimeGrid\(dt=0.25, horizon=10.0, n_steps=40\)"
# Each ran silently or failed deep inside: the Q10 policy on A40 (both 40
# steps) read 8.6672 +- 0.0473 against the A40 policy's 9.1703 +- 0.0622
# (n = 8, 4000 paths); the n = 8 policy in the infinite pool read
# 0.5008 +- 0.0, its survival fraction indexing count columns 0 and 1; the
# A10 replication raised IndexError inside the fund evolution, and the Q10
# one was accepted.
MISMATCHED_INPUTS = {
    "table-policy-grid": (lambda: _simulate_elsewhere(HALF_INVESTOR, (0.25, 10.0, 8), (1.0, 40.0, 8)),
                          f"the policy was solved on {Q10}, the problem is on {A40}"),
    "table-policy-finite-in-infinite": (lambda: _simulate_elsewhere(HALF_INVESTOR, (1.0, 40.0, 8), (1.0, 40.0, math.inf)),
                                        "the policy was solved for a pool of 8, the problem's pool is inf"),
    "table-policy-infinite-in-finite": (lambda: _simulate_elsewhere(HALF_INVESTOR, (1.0, 40.0, math.inf), (1.0, 40.0, 8)),
                                        "the policy was solved for a pool of inf, the problem's pool is 8"),
    "grid-policy-grid": (lambda: _simulate_elsewhere(EXPONENTIAL_INVESTOR, (0.5, 5.0, 4), (1.0, 10.0, 4)),
                         r"the policy was solved on TimeGrid\(dt=0.5, horizon=5.0, n_steps=10\)"),
    "grid-policy-pool": (lambda: _simulate_elsewhere(EXPONENTIAL_INVESTOR, (1.0, 10.0, 4), (1.0, 10.0, 8)),
                         "the policy was solved for a pool of 4, the problem's pool is 8"),
    "replication-a10": (lambda: _transfer_replicating_on(1.0, 10.0),
                        rf"the replication is on TimeGrid\(dt=1.0, horizon=10.0, n_steps=10\), the problem on {A40}"),
    "replication-q10": (lambda: _transfer_replicating_on(0.25, 10.0), f"the replication is on {Q10}, the problem on {A40}"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_INPUTS))
def test_policies_and_replications_for_another_problem_are_refused(case):
    call, message = MISMATCHED_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_infinite_solve_of_a_finite_problem_solves_its_infinite_pool():
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    for methods in (("dp",), ("martingale",)):
        finite = solve_infinite(problem.with_n(8), methods=methods)
        assert finite.value == solve_infinite(problem, methods=methods).value


def _tiny_grid_policy():
    fgrid = np.array([1.0, 2.0, 4.0])
    return optimizer.GridPolicy(TimeGrid(1.0, 1.0), fgrid, np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))


OPTIMIZER_FAULTS = {
    "problem-n-fraction": (lambda: heavy_problem(VnmParams(LogUtility()), 1.0, 10.0).with_n(2.5), ValueError,
                           "pool size must be a positive integer or infinity"),
    "problem-n-0": (lambda: heavy_problem(VnmParams(LogUtility()), 1.0, 10.0).with_n(0), ValueError,
                    "pool size must be a positive integer or infinity"),
    "grid-policy-beyond-top": (lambda: _tiny_grid_policy().consumption_rate(0, np.ones(1), np.array([17.0])),
                               optimizer.WealthGridExceeded, "far beyond the solved grid top"),
    "finite-dp-infinite-pool": (lambda: solve_finite_dp(heavy_problem(VnmParams(LogUtility()), 1.0, 10.0)),
                                ValueError, "use solve_infinite"),
    "no-route": (lambda: solve_infinite(heavy_problem(VnmParams(LogUtility()), 1.0, 10.0), methods=()),
                 ValueError, "no solution method selected"),
    # Log inner utility at a budget of 1e-30 overflows the multiplicative step.
    "annuity-not-finite": (lambda: annuity_value(dataclasses.replace(
        heavy_problem(ExpKmParams(LogUtility()), 1.0, 10.0), budget=1e-30)), ValueError,
        "annuity value -inf is not finite"),
    "simulate-ez": (lambda: simulate_policy_value(heavy_problem(EZ_SHORT, 1.0, 10.0), ConstantRateStrategy(0.1),
                                                  trials=4, seed=3),
                    TypeError, "re-simulation consistency is defined for the additive family"),
    "transfer-ez": (lambda: transfer_infinite_to_finite(0.1, None, 0.9, 8, heavy_problem(EZ_SHORT, 1.0, 10.0),
                                                        trials=4, seed=3),
                    TypeError, "Monte Carlo transfer gains are defined for the additive family"),
    "transfer-lam-0": (lambda: transfer_infinite_to_finite(0.1, None, 0.0, 8, heavy_problem(
        VnmParams(LogUtility()), 1.0, 10.0), trials=4, seed=3), ValueError, r"lam must lie in \(0, 1\)"),
    "transfer-lam-1": (lambda: transfer_infinite_to_finite(0.1, None, 1.0, 8, heavy_problem(
        VnmParams(LogUtility()), 1.0, 10.0), trials=4, seed=3), ValueError, r"lam must lie in \(0, 1\)"),
}


@pytest.mark.parametrize("case", sorted(OPTIMIZER_FAULTS))
def test_optimizer_refuses_bad_inputs_naming_them(case):
    call, error, message = OPTIMIZER_FAULTS[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n", [2.5, math.inf, 0])
def test_transfer_refuses_a_pool_size_that_is_not_a_positive_integer(n, monkeypatch):
    # A float pool size failed inside simulate_survivor_counts, casting
    # float16 to int64; no path may be drawn before n is checked.
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    monkeypatch.setattr(optimizer, "sample_lattice_paths", None)
    with pytest.raises(ValueError, match=f"n = {n}"):
        transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9, n=n, problem=problem,
                                    trials=100, seed=3)


def test_transfer_takes_an_integral_float_pool_size_as_the_integer():
    problem = heavy_problem(VnmParams(PowerUtility(0.5), 0.02), 1.0, 10.0)
    res = solve_infinite(problem, methods=("martingale",))
    runs = [transfer_infinite_to_finite(res.extras["stream"], res.extras["replication"], lam=0.9, n=n,
                                        problem=problem, trials=200, seed=3) for n in (64, 64.0)]
    assert runs[0] == runs[1]


def test_pool_size_caps():
    gain = VnmParams(PowerUtility(-1.0))
    problem = make_problem(gain, n=1000)
    with pytest.raises(ValueError):
        solve_finite_dp(problem)


def growth_terms(lattice, alpha, a):
    """One-step growth objective (increasing in the certainty equivalent) and its derivative at ``a``."""
    rf = math.exp(lattice.rate * lattice.grid.dt)
    p = lattice.p_up
    g_down, g_up = a * lattice.down + (1 - a) * rf, a * lattice.up + (1 - a) * rf
    if alpha == 0.0:
        objective = (1 - p) * math.log(g_down) + p * math.log(g_up)
    else:
        objective = ((1 - p) * g_down**alpha + p * g_up**alpha) / alpha
    slope = (1 - p) * g_down ** (alpha - 1) * (lattice.down - rf) + p * g_up ** (alpha - 1) * (lattice.up - rf)
    return objective, slope


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("dt", [0.25, 1.0], ids=["q40", "a40"])
def test_best_power_growth_solves_its_first_order_condition(dt, alpha):
    lattice = heavy_problem(VnmParams(LogUtility()), dt, 40.0).lattice()
    a_star, growth = best_power_growth(lattice, alpha)
    lo, hi = allocation_bounds(lattice)
    assert lo < a_star < hi
    objective, slope = growth_terms(lattice, alpha, a_star)
    assert abs(slope) <= 1e-12
    assert objective == pytest.approx(growth if alpha == 0.0 else growth / alpha, rel=1e-15)
    for a in (a_star - 1e-3, a_star + 1e-3):  # a maximum, not a minimum
        assert growth_terms(lattice, alpha, a)[0] < objective


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
def test_best_power_growth_edge_cases(alpha):
    # Without volatility nothing is risky; with one branch certain the
    # objective is monotone and the fraction sits on the bracket edge.
    flat = make_problem(VnmParams(LogUtility()), mu=0.01, rate=0.01, sigma=0.0).lattice()
    assert best_power_growth(flat, alpha)[0] == 0.0
    lattice = heavy_problem(VnmParams(LogUtility()), 1.0, 40.0).lattice()
    lo, hi = allocation_bounds(lattice)
    assert best_power_growth(dataclasses.replace(lattice, p_up=1.0), alpha)[0] == hi
    assert best_power_growth(dataclasses.replace(lattice, p_up=0.0), alpha)[0] == lo
