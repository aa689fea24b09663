import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator as ScipyPchip

from tontine.grid import TimeGrid
from tontine.market import MarketModel, build_lattice
from tontine.mortality import gompertz_makeham_table, point_mass_table, uniform_table
from tontine.optimizer import (
    annuity_value_for_budget,
    HomogeneousProblem,
    annuity_rate,
    annuity_value,
    convergence_study,
    PchipInterpolator,
    _expkm_value_and_grad,
    _ez_value_and_grad,
    _pchip_slopes,
    golden_max_vec,
    simulate_policy_value,
    solve_finite_dp,
    solve_infinite,
    solve_measure_problem,
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


def make_problem(gain, n=math.inf, mu=0.0, rate=0.0, sigma=0.2, dt=0.25, horizon=1.0, table=None, budget=1.0):
    grid = TimeGrid(dt, horizon)
    model = MarketModel(rate=rate, mu=(mu,), sigma=(sigma,), s0=(1.0,))
    table = table or uniform_table(grid)
    return HomogeneousProblem(gain, table, model, grid, budget, n)


# --- measure problem ------------------------------------------------------------


def test_measure_problem_constant_for_strictly_concave():
    mu = np.array([0.5, 1.5, 2.0])
    res = solve_measure_problem(mu, LogUtility(), budget=8.0)
    assert np.allclose(res.allocation, 2.0)
    assert res.value == pytest.approx(np.sum(np.log(2.0) * mu))


def test_measure_problem_uniform_four_points_log():
    res = solve_measure_problem(np.ones(4), LogUtility(), budget=4.0)
    assert np.allclose(res.allocation, 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_measure_problem_piecewise_linear_matches_brute_force():
    # Oracle: brute-force search over a coarse discretized simplex.
    def u(g):
        g = np.asarray(g, dtype=float)
        return np.minimum(g, 0.5 + 0.5 * g)  # concave, kink at 1

    mu = np.array([1.0, 2.0])
    budget = 3.0
    res = solve_measure_problem(mu, u, budget)
    best = -np.inf
    for g1 in np.linspace(0, 3, 1201):
        g2 = (budget - g1 * mu[0]) / mu[1]
        if g2 < 0:
            continue
        best = max(best, float(u(g1) * mu[0] + u(g2) * mu[1]))
    assert res.value >= best - 1e-6
    assert abs(np.sum(res.allocation * mu) - budget) < 1e-9


def test_measure_problem_rejects_negative_budget():
    with pytest.raises(ValueError):
        solve_measure_problem(np.ones(3), LogUtility(), budget=-1.0)


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


def test_zero_budget_annuity_value_is_minus_inf_for_log():
    grid = TimeGrid(0.25, 1.0)
    assert np.isneginf(
        annuity_value_for_budget(VnmParams(LogUtility()), uniform_table(grid), grid, 0.0)
    )
    assert np.isneginf(
        annuity_value_for_budget(VnmParams(PowerUtility(-1.0)), uniform_table(grid), grid, 0.0)
    )


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


# --- wealth-grid solver ----------------------------------------------------------------


def test_golden_max_vec_finds_each_argmax_with_one_probe_per_iteration():
    peaks = np.linspace(-0.9, 1.9, 150).reshape(3, 50)
    curvature = np.linspace(0.5, 4.0, 150).reshape(3, 50)
    calls = []

    def fn(x):
        calls.append(x.shape)
        return -curvature * (x - peaks) ** 2

    x, fx = golden_max_vec(fn, np.full((3, 50), -1.0), np.full((3, 50), 2.0))
    np.testing.assert_allclose(x, peaks, rtol=0, atol=1e-8)
    np.testing.assert_allclose(fx, 0.0, rtol=0, atol=1e-12)
    assert calls == [(3, 50)] * (48 + 2)


EZ_SHORT = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)

# Value and the t = 0 policy of the per-state solver (one line search per
# survivor state), on a quarterly 2-year grid with heavy mortality.  Policy
# rows are the states (n, 1), or the single infinite-pool state, at wealth
# (0.1, 0.5, 1, 1.5) times the pool's starting wealth.
GRID_PINS = {
    "ez-n8": (EZ_SHORT, 8, -121.0795607474017,
              [[0.128691, 0.129585, 0.130021, 0.130260], [0.131277, 0.132266, 0.045595, 0.002351]],
              [[1.231412, 1.012878, 0.896664, 0.823974], [0.934133, 0.657720, 3.377926, 1.387879]]),
    "expkm-n4": (ExpKmParams(ExponentialUtility(1.0)), 4, -3.2627418114197897,
                 [[0.039668, 0.119029, 0.124144, 0.125809], [0.120402, 0.126397, 0.127075, 0.127208]],
                 [[4.094230, 1.244727, 0.721680, 0.541178], [1.505513, 0.457834, 0.302755, 0.226802]]),
    "exponential-n4": (VnmParams(ExponentialUtility(1.0), 0.02), 4, -1.1542782329639583,
                       [[0.024773, 0.132363, 0.131109, 0.130216], [0.135228, 0.129600, 0.128404, 0.127990]],
                       [[6.513073, 2.856457, 1.479415, 0.977911], [3.456531, 0.748218, 0.374377, 0.244968]]),
    "ez-infinite": (EZ_SHORT, math.inf, -121.06027708861059,
                    [[0.128635, 0.129508, 0.129927, 0.130151]],
                    [[1.231404, 1.012839, 0.896608, 0.823905]]),
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


# Value and gradient of the pricing route's objective at the annuity
# stream, on an annual 10-year grid with heavy mortality: value, first
# and last entries and sum of the gradient, pinned from the hand-written
# forward and adjoint sweeps that the shared lattice x death step replaced.
GRADIENT_PINS = {
    "ez": (EZ_SHORT, _ez_value_and_grad,
           -129.25750354693866, 100.12137059587432, 0.4504996472805797, 807.9310957242099),
    "expkm": (ExpKmParams(ExponentialUtility(1.0)), _expkm_value_and_grad,
              -7042.787918066223, 6331.743027037855, 44.54395486361487, 63163.30342453127),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_PINS))
def test_pricing_objective_gradient_pinned(case):
    gain, value_and_grad, value, first, last, total = GRADIENT_PINS[case]
    problem = heavy_problem(gain, 1.0, 10.0)
    sizes = np.arange(1, problem.grid.n_steps + 1)
    stops = np.cumsum(sizes)
    layout = list(zip(stops - sizes, stops))
    x = np.full(stops[-1], annuity_rate(problem))
    v, grad = value_and_grad(gain, x, layout, problem.table, problem.lattice())
    assert v == pytest.approx(value, rel=1e-12)
    assert grad.shape == x.shape
    assert grad[0] == pytest.approx(first, rel=1e-12)
    assert grad[-1] == pytest.approx(last, rel=1e-12)
    assert grad.sum() == pytest.approx(total, rel=1e-12)


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


def test_convergence_study_monotone_rows():
    gain = VnmParams(PowerUtility(-1.0), discount=0.0)
    problem = make_problem(gain, mu=0.04, rate=0.01, dt=0.25, horizon=1.0)
    rows, v_inf = convergence_study(problem, sizes=[1, 2, 4, 8])
    gaps = [r.gap_to_infinite for r in rows]
    assert np.all(np.diff([r.value for r in rows]) >= -1e-8)
    assert np.all(np.asarray(gaps) >= -1e-8)


def test_pool_size_caps():
    gain = VnmParams(PowerUtility(-1.0))
    problem = make_problem(gain, n=1000)
    with pytest.raises(ValueError):
        solve_finite_dp(problem)
