import math

import numpy as np
import pytest
import sympy
from scenario_reference import exp_km_utility, vnm_utility
from stream_helpers import constant_stream, stream_from_function
from survival_oracle import explicit_table, point_mass_table, uniform_table

from tontine.grid import TimeGrid
from tontine.market import MarketModel, build_lattice
from tontine.mortality import gompertz_makeham_table
from tontine.optimizer import HomogeneousProblem, solve_infinite
from tontine.preferences import (
    ExpKmParams,
    ExponentialUtility,
    EzParams,
    LogUtility,
    PowerUtility,
    VnmParams,
    _ez_drift,
    exp_km_value_of_rates,
    exp_km_value_on_lattice,
    ez_utility_discrete,
    ez_value_unrestricted,
    vnm_value_of_rates,
    vnm_value_on_lattice,
)
from tontine.rng import substream


def quarter_grid():
    return TimeGrid(0.25, 1.0)


# --- utilities ---------------------------------------------------------------


def test_utility_zero_conventions():
    assert np.isneginf(LogUtility()(0.0))
    assert np.isneginf(PowerUtility(-1.0)(0.0))
    assert PowerUtility(0.5)(0.0) == 0.0
    assert ExponentialUtility(2.0)(0.0) == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "utility, at_zero, at_inf",
    [(PowerUtility(-1.0), -np.inf, -0.0), (PowerUtility(0.5), 0.0, np.inf), (LogUtility(), -np.inf, np.inf),
     (ExponentialUtility(1.0), -1.0, -0.0)],
    ids=["power-1", "power-half", "log", "exponential"],
)
def test_utility_written_in_place_equals_the_allocating_call(utility, at_zero, at_inf):
    # The Monte Carlo score writes the utility into its own rate array.
    c = np.array([0.0, 5e-324, 1e-300, 0.1, 1.0, 1e300, np.inf])
    expected = utility(c)
    assert expected[0] == at_zero and expected[-1] == at_inf
    assert np.signbit(expected[-1]) == np.signbit(at_inf)
    buf = np.full_like(c, np.nan)
    assert utility(c, out=buf) is buf
    assert buf.tobytes() == expected.tobytes()
    rows = np.tile(c, (3, 1)).T  # a transposed view, as the score's rates are
    assert utility(rows, out=rows) is rows
    assert np.ascontiguousarray(rows.T).tobytes() == np.tile(expected, 3).tobytes()


def test_parameter_validation():
    with pytest.raises(ValueError):
        PowerUtility(1.5)
    with pytest.raises(ValueError):
        PowerUtility(0.0)
    with pytest.raises(ValueError):
        ExponentialUtility(0.0)
    with pytest.raises(ValueError):
        EzParams(risk=0.5, substitution=0.5, discount=0.1, adequacy=1.0)
    with pytest.raises(ValueError):
        EzParams(risk=-1.0, substitution=1.2, discount=0.1, adequacy=1.0)
    with pytest.raises(ValueError):
        EzParams(risk=-1.0, substitution=0.5, discount=0.0, adequacy=1.0)
    with pytest.raises(ValueError):
        VnmParams(LogUtility(), discount=-0.1)


# --- expected-utility family ---------------------------------------------------


def test_log_utility_constant_stream_deterministic_death():
    grid = quarter_grid()
    gain = VnmParams(LogUtility(), discount=0.0)
    c = 2.0
    value = vnm_utility(
        gain,
        np.full((1, grid.n_steps), c),
        death=np.array([grid.horizon]),
        weights=np.array([1.0]),
        grid_points=grid.points,
        dt=grid.dt,
    )
    assert value == pytest.approx(grid.horizon * np.log(c), rel=1e-14)


def test_power_unit_stream_matches_survival_weighted_sum():
    # Enumerating death times with their masses must reproduce the
    # analytic sum  sum_t exp(-b t) pi_t dt * u(1).
    grid = quarter_grid()
    table = uniform_table(grid)
    alpha, b = -1.0, 0.3
    gain = VnmParams(PowerUtility(alpha), discount=b)
    scen_death = grid.points
    weights = table.p * grid.dt
    consumption = np.ones((grid.n_steps, grid.n_steps))
    value = vnm_utility(gain, consumption, scen_death, weights, grid.points, grid.dt)
    pi = table.pi[: grid.n_steps]
    closed = np.sum(np.exp(-b * grid.points) * pi * grid.dt) * (1.0 / alpha)
    assert value == pytest.approx(closed, rel=1e-13)
    assert vnm_value_of_rates(gain, np.ones(grid.n_steps), table) == pytest.approx(closed, rel=1e-13)


def test_negative_consumption_sentinel():
    grid = quarter_grid()
    gain = VnmParams(LogUtility())
    consumption = np.array([[1.0, -0.5, 1.0, 1.0]])
    value = vnm_utility(gain, consumption, np.array([1.0]), np.array([1.0]), grid.points, grid.dt)
    assert np.isneginf(value)
    # Negative consumption after death is never received and is ignored.
    value_dead = vnm_utility(
        gain, np.array([[1.0, 1.0, -5.0, -5.0]]), np.array([0.25]), np.array([1.0]), grid.points, grid.dt
    )
    assert np.isfinite(value_dead)


def test_zero_consumption_hits_log_singularity():
    grid = quarter_grid()
    gain = VnmParams(LogUtility())
    value = vnm_utility(
        gain, np.zeros((1, grid.n_steps)), np.array([1.0]), np.array([1.0]), grid.points, grid.dt
    )
    assert np.isneginf(value)


def test_vnm_on_lattice_matches_scenario_enumeration():
    grid = quarter_grid()
    table = uniform_table(grid)
    model = MarketModel(rate=0.0, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    lat = build_lattice(model, grid)
    gain = VnmParams(PowerUtility(0.5), discount=0.1)
    stream = stream_from_function(lat, lambda t, s: 0.5 + 0.2 * s)
    value = vnm_value_on_lattice(gain, stream, table, lat)
    # Oracle: enumerate (node path weights x death times). Node value at
    # each level suffices because utility is additive over time.
    total = 0.0
    weights = lat.node_weights("P")
    pi = table.pi[: grid.n_steps]
    for i in range(grid.n_steps):
        total += (
            np.exp(-0.1 * grid.points[i])
            * pi[i]
            * grid.dt
            * float(weights[i, : i + 1] @ gain.utility(stream[i]))
        )
    assert value == pytest.approx(total, rel=1e-13)


# --- multiplicative family -----------------------------------------------------


def test_exp_km_zero_utility_stub_is_minus_one():
    # Log utility at the unit rate is zero, so every lifetime integral is zero.
    grid = quarter_grid()
    gain = ExpKmParams(LogUtility())
    value = exp_km_utility(
        gain,
        np.ones((3, grid.n_steps)),
        death=np.array([0.25, 0.5, 1.0]),
        weights=np.array([0.2, 0.3, 0.5]),
        grid_points=grid.points,
        dt=grid.dt,
    )
    assert value == pytest.approx(-1.0, rel=1e-14)


def test_exp_km_constant_stream_deterministic_death():
    grid = quarter_grid()
    eta, c = 1.5, 0.8
    gain = ExpKmParams(ExponentialUtility(eta))
    tau = 0.5  # alive at 0, 0.25, 0.5 -> three grid points consumed
    value = exp_km_utility(
        gain, np.full((1, grid.n_steps), c), np.array([tau]), np.array([1.0]), grid.points, grid.dt
    )
    u = -np.exp(-eta * c) / eta
    expected = -np.exp(-u * 3 * grid.dt)
    assert value == pytest.approx(expected, rel=1e-14)


def test_exp_km_two_scenario_mix_hand_computed():
    grid = quarter_grid()
    gain = ExpKmParams(ExponentialUtility(1.0))
    consumption = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 0.5, 0.0, 3.0]])
    death = np.array([1.0, 0.5])
    weights = np.array([0.6, 0.4])
    u = gain.utility
    s0 = -np.exp(-np.sum(u(consumption[0])) * grid.dt)
    s1 = -np.exp(-np.sum(u(consumption[1][:3])) * grid.dt)
    expected = 0.6 * s0 + 0.4 * s1
    value = exp_km_utility(gain, consumption, death, weights, grid.points, grid.dt)
    assert value == pytest.approx(expected, rel=1e-14)


def test_exp_km_lattice_recursion_matches_rate_enumeration():
    grid = quarter_grid()
    table = uniform_table(grid)
    model = MarketModel(rate=0.0, mu=(0.0,), sigma=(0.2,), s0=(1.0,))
    lat = build_lattice(model, grid)
    gain = ExpKmParams(ExponentialUtility(1.0))
    rates = np.array([1.0, 0.8, 1.2, 0.6])
    via_lattice = exp_km_value_on_lattice(gain, constant_stream(lat, rates), table, lat)
    via_law = exp_km_value_of_rates(gain, rates, table)
    assert via_lattice == pytest.approx(via_law, rel=1e-12)


# --- aggregator -----------------------------------------------------------------


def test_aggregator_fixed_point_is_zero():
    params = EzParams(risk=-1.5, substitution=0.4, discount=0.08, adequacy=0.7)
    val = _ez_drift(params.risk, params.substitution, params.discount, params.adequacy, params.adequacy_value)
    assert abs(val) < 1e-14


def test_aggregator_at_zero_consumption():
    params = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=2.0)
    expected = -params.discount * params.adequacy**params.risk / params.substitution
    value = _ez_drift(params.risk, params.substitution, params.discount, 0.0, params.adequacy_value)
    assert value == pytest.approx(expected, rel=1e-14)


def test_aggregator_matches_symbolic_oracle():
    alpha, rho, b = -1.0, 0.5, 0.1
    gamma_v, v_v = 1.3, -0.6
    a_sym, r_sym, b_sym, g_sym, v_sym = sympy.symbols("alpha rho b gamma v")
    expr = b_sym * (a_sym * v_sym / r_sym) * ((g_sym / (a_sym * v_sym) ** (1 / a_sym)) ** r_sym - 1)
    oracle = float(expr.subs({a_sym: alpha, r_sym: rho, b_sym: b, g_sym: gamma_v, v_sym: v_v}))
    assert _ez_drift(alpha, rho, b, gamma_v, v_v) == pytest.approx(oracle, rel=1e-12)


# --- recursive utility -----------------------------------------------------------


def mortality_zoo(grid):
    return [
        uniform_table(grid),
        point_mass_table(grid),
        point_mass_table(grid, at=grid.points[grid.n_steps // 2]),
        gompertz_makeham_table(grid, 0.01, 0.05, 0.3),
        explicit_table(grid, np.linspace(1.0, 3.0, grid.n_steps)),
    ]


def test_adequacy_rate_gives_adequacy_value_for_all_laws():
    grid = TimeGrid(0.25, 2.0)
    params = EzParams(risk=-2.0, substitution=0.6, discount=0.15, adequacy=0.9)
    for table in mortality_zoo(grid):
        value = ez_utility_discrete(params, params.adequacy, table)
        assert value == pytest.approx(params.adequacy_value, rel=1e-12)


def test_adequacy_fixed_point_on_lattice_stream():
    grid = TimeGrid(0.25, 1.0)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.25,), s0=(1.0,))
    lat = build_lattice(model, grid)
    params = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=1.3)
    value = ez_utility_discrete(params, constant_stream(lat, params.adequacy), uniform_table(grid), lat)
    assert value == pytest.approx(params.adequacy_value, rel=1e-12)


def test_joint_scaling_of_consumption_and_adequacy():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    base = EzParams(risk=-1.2, substitution=0.45, discount=0.1, adequacy=0.8)
    rates = np.array([0.5, 1.5, 0.9, 1.1])
    v1 = ez_utility_discrete(base, rates, table)
    k = 2.0
    scaled = EzParams(risk=-1.2, substitution=0.45, discount=0.1, adequacy=k * 0.8)
    v2 = ez_utility_discrete(scaled, k * rates, table)
    assert v2 == pytest.approx(k**base.risk * v1, rel=1e-11)


def test_value_always_negative_and_monotone_in_consumption():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    params = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=1.0)
    lo = ez_utility_discrete(params, np.full(4, 0.5), table)
    hi = ez_utility_discrete(params, np.full(4, 1.5), table)
    assert lo < hi < 0.0


def test_substitution_equal_risk_matches_discounted_power_utility():
    # With substitution == risk the recursion degenerates to
    # V_t = (1 - b dt) V_{t+dt} + b u(c_t) dt, whose continuum limit is
    # int exp(-b t) b u(c_t) dt + exp(-b T) * adequacy value. The gap to
    # that oracle must shrink linearly in dt.
    alpha, b, adequacy, horizon = -1.0, 0.2, 1.0, 1.0

    def stream_fn(t):
        return adequacy * (0.8 + 0.6 * t / horizon)

    fine = np.linspace(0.0, horizon, 200001)
    u = np.power(stream_fn(fine), alpha) / alpha
    oracle = np.trapezoid(np.exp(-b * fine) * b * u, fine) + np.exp(-b * horizon) * adequacy**alpha / alpha

    gaps = []
    for m in (32, 64, 128):
        grid = TimeGrid(horizon / m, horizon)
        table = point_mass_table(grid)  # no early deaths
        rates = stream_fn(grid.points)
        val = ez_value_unrestricted(alpha, alpha, b, adequacy, rates, table)
        gaps.append(abs(val - oracle))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.35)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.35)


def test_negative_consumption_gives_minus_inf():
    grid = quarter_grid()
    params = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=1.0)
    assert np.isneginf(ez_utility_discrete(params, np.array([1.0, -0.2, 1.0, 1.0]), uniform_table(grid)))


# --- functional properties --------------------------------------------------------


def concavity_violations(evaluate, sample_stream, trials: int, seed: int, tol: float = 1e-10) -> list:
    """Sample stream pairs and mixing weights; return the concavity violations.

    ``evaluate`` maps a consumption array to a gain value; pairs where
    either endpoint is -inf are skipped (the inequality is vacuous there).
    """
    gen = substream(seed, "concavity")
    violations = []
    for k in range(trials):
        a = sample_stream(gen)
        b = sample_stream(gen)
        lam = gen.uniform(0.05, 0.95)
        ja, jb = evaluate(a), evaluate(b)
        if not (np.isfinite(ja) and np.isfinite(jb)):
            continue
        jmix = evaluate(lam * a + (1.0 - lam) * b)
        bound = lam * ja + (1.0 - lam) * jb
        scale = max(1.0, abs(ja), abs(jb))
        if jmix < bound - tol * scale:
            violations.append({"trial": k, "gap": bound - jmix, "lam": lam})
    return violations


def monotonicity_violations(evaluate, sample_stream, trials: int, seed: int, tol: float = 1e-10) -> list:
    """Sample streams and nonnegative bumps; return the monotonicity violations."""
    gen = substream(seed, "monotonicity")
    violations = []
    for k in range(trials):
        a = sample_stream(gen)
        bump = gen.uniform(0.0, 1.0, size=np.shape(a)) * gen.uniform(0.0, 0.5)
        ja, jb = evaluate(a), evaluate(a + bump)
        if np.isneginf(ja):
            continue
        scale = max(1.0, abs(ja))
        if jb < ja - tol * scale:
            violations.append({"trial": k, "gap": ja - jb})
    return violations


def test_concavity_equality_for_identical_pair():
    grid = quarter_grid()
    table = uniform_table(grid)
    gain = VnmParams(LogUtility())
    fixed = np.full(grid.n_steps, 1.3)

    def evaluate(rates):
        return vnm_value_of_rates(gain, rates, table)

    violations = concavity_violations(evaluate, lambda gen: fixed.copy(), trials=5, seed=0)
    assert not violations


def test_vnm_log_concavity_property():
    grid = quarter_grid()
    table = uniform_table(grid)
    gain = VnmParams(LogUtility(), discount=0.05)

    def evaluate(rates):
        return vnm_value_of_rates(gain, rates, table)

    violations = concavity_violations(
        evaluate, lambda gen: gen.uniform(0.05, 3.0, grid.n_steps), trials=1000, seed=1
    )
    assert not violations


def test_ez_concavity_property():
    grid = quarter_grid()
    table = uniform_table(grid)
    params = EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=1.0)

    def evaluate(rates):
        return ez_utility_discrete(params, rates, table)

    violations = concavity_violations(
        evaluate, lambda gen: gen.uniform(0.05, 3.0, grid.n_steps), trials=1000, seed=2
    )
    assert not violations


def test_exp_km_concavity_property():
    grid = quarter_grid()
    table = uniform_table(grid)
    gain = ExpKmParams(ExponentialUtility(1.0))

    def evaluate(rates):
        return exp_km_value_of_rates(gain, rates, table)

    violations = concavity_violations(
        evaluate, lambda gen: gen.uniform(0.0, 3.0, grid.n_steps), trials=1000, seed=3
    )
    assert not violations


def test_monotonicity_and_non_saturation_all_families():
    grid = quarter_grid()
    table = uniform_table(grid)
    evaluators = [
        lambda r: vnm_value_of_rates(VnmParams(PowerUtility(-0.5), 0.1), r, table),
        lambda r: exp_km_value_of_rates(ExpKmParams(ExponentialUtility(0.8)), r, table),
        lambda r: ez_utility_discrete(
            EzParams(risk=-1.0, substitution=0.5, discount=0.1, adequacy=1.0), r, table
        ),
    ]
    for idx, evaluate in enumerate(evaluators):
        violations = monotonicity_violations(
            evaluate, lambda gen: gen.uniform(0.05, 2.0, grid.n_steps), trials=300, seed=10 + idx
        )
        assert not violations
        # Non-saturation: a strictly positive bump strictly improves.
        base = np.full(grid.n_steps, 0.7)
        assert evaluate(base + 0.05) > evaluate(base)


# --- deterministic rates on the shared sweep ------------------------------------------

EZ_BENCH = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)


def heavy_annual10():
    grid = TimeGrid(1.0, 10.0)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    return gompertz_makeham_table(grid, 0.0, 0.01, 0.1), build_lattice(model, grid)


def test_ez_deterministic_rates_pinned():
    # Pinned from the death-only loop that the shared sweep replaced.
    table, _ = heavy_annual10()
    assert ez_utility_discrete(EZ_BENCH, 0.07, table) == pytest.approx(-167.28802895650634, rel=1e-14)
    rates = np.linspace(0.05, 0.1, 10)
    assert ez_utility_discrete(EZ_BENCH, rates, table) == pytest.approx(-164.5459544840312, rel=1e-14)


def test_ez_deterministic_rates_on_a_lattice_match_the_value_without_one():
    table, lattice = heavy_annual10()
    for rates in (0.07, np.linspace(0.05, 0.1, 10)):
        without = ez_utility_discrete(EZ_BENCH, rates, table)
        assert ez_utility_discrete(EZ_BENCH, rates, table, lattice) == pytest.approx(without, rel=1e-14)
        raw = ez_value_unrestricted(-2.0, 0.5, 0.03, 0.05, rates, table, lattice)
        assert raw == pytest.approx(without, rel=1e-14)


# --- negative consumption and values that leave the recursion's domain ----------------


def test_negative_rate_on_a_lattice_gives_minus_inf_for_every_family():
    # A unit stream lowered by 2 at level 3 consumes -1 with positive
    # probability; every evaluator returns -inf, on the lattice as for rates.
    table, lattice = heavy_annual10()
    stream = constant_stream(lattice, 1.0)
    stream[3] = stream[3] - 2.0
    rates = np.array([level[0] for level in stream])
    for utility in (ExponentialUtility(1.0), PowerUtility(0.5)):
        gain = VnmParams(utility, 0.02)
        assert vnm_value_of_rates(gain, rates, table) == -np.inf
        assert vnm_value_on_lattice(gain, stream, table, lattice) == -np.inf
    expkm = ExpKmParams(ExponentialUtility(1.0))
    assert exp_km_value_of_rates(expkm, rates, table) == -np.inf
    assert exp_km_value_on_lattice(expkm, stream, table, lattice) == -np.inf
    assert ez_utility_discrete(EZ_BENCH, stream, table, lattice) == -np.inf


@pytest.mark.parametrize("law", [(0.0, 0.01, 0.1), (5e-4, 7e-5, 0.1)], ids=["heavy", "light"])
def test_ez_value_outside_the_recursion_domain_raises(law):
    # The half investor's 40-year pricing stream drives the explicit
    # aggregator step above zero at a node of level 39, and every earlier
    # level out of the value's domain: the evaluation raises, naming level 38.
    grid = TimeGrid(1.0, 40.0)
    table = gompertz_makeham_table(grid, *law)
    model = MarketModel(rate=0.02, mu=(0.05,), sigma=(0.2,), s0=(1.0,))
    problem = HomogeneousProblem(VnmParams(PowerUtility(0.5), 0.02), table, model, grid, 1.0, math.inf)
    stream = solve_infinite(problem, methods=("martingale",)).extras["stream"]
    with pytest.raises(ValueError, match="level 38"):
        ez_utility_discrete(EZ_BENCH, stream, table, problem.lattice())


# --- NaN rates ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "evaluate, gain",
    [
        (vnm_value_of_rates, VnmParams(PowerUtility(0.5), 0.02)),
        (vnm_value_on_lattice, VnmParams(PowerUtility(0.5), 0.02)),
        (exp_km_value_of_rates, ExpKmParams(LogUtility())),
        (exp_km_value_on_lattice, ExpKmParams(LogUtility())),
    ],
    ids=["vnm-rates", "vnm-lattice", "expkm-rates", "expkm-lattice"],
)
def test_a_nan_rate_raises(evaluate, gain):
    # These evaluators used to score a NaN rate as zero consumption: the
    # additive power-1/2 value of rates 0.1 with a NaN at level 3 read
    # 4.879185043544746, its value with that rate set to zero.
    table, lattice = heavy_annual10()
    if evaluate in (vnm_value_on_lattice, exp_km_value_on_lattice):
        stream = constant_stream(lattice, 0.1)
        stream[3][1] = np.nan
        args = (stream, table, lattice)
    else:
        rates = np.full(10, 0.1)
        rates[3] = np.nan
        args = (rates, table)
    with pytest.raises(ValueError, match="NaN"):
        evaluate(gain, *args)
