import dataclasses
import hashlib
import math

import numpy as np
import pytest
from stream_helpers import constant_stream, level_prices, stream_from_function

from tontine.ez_bsde import TruncatedDriver, convergence_in_m, error_bound_check, solve_transfer_pair, solve_truncated
from tontine.grid import TimeGrid
from tontine.market import (
    IncompatibleStepError,
    MarketModel,
    NonReplicableError,
    build_lattice,
    q_price,
    replicate,
    sample_lattice_paths,
    validate_stream,
)
from tontine.mortality import gompertz_makeham_table
from tontine.optimizer import HomogeneousProblem, solve_infinite, transfer_infinite_to_finite
from tontine.preferences import (
    ExpKmParams,
    ExponentialUtility,
    EzParams,
    LogUtility,
    PowerUtility,
    VnmParams,
    exp_km_value_on_lattice,
    ez_utility_discrete,
    vnm_value_on_lattice,
)


def one_asset(rate=0.0, mu=0.0, sigma=0.2, s0=1.0):
    return MarketModel(rate=rate, mu=(mu,), sigma=(sigma,), s0=(s0,))


# --- independent oracles -----------------------------------------------------


def backward_induction_value(lattice, payoff_amounts_last_level):
    """Oracle: discounted Q-expectation by plain backward induction."""
    disc = np.exp(-lattice.rate * lattice.grid.dt)
    q = lattice.q_up
    v = np.asarray(payoff_amounts_last_level, dtype=float)
    for _ in range(len(v) - 1):
        v = disc * (q * v[1:] + (1.0 - q) * v[:-1])
    return float(v[0])


def backward_induction_deltas(lattice, payoff_amounts_last_level):
    """Oracle: option values and deltas level by level."""
    disc = np.exp(-lattice.rate * lattice.grid.dt)
    q = lattice.q_up
    values = [np.asarray(payoff_amounts_last_level, dtype=float)]
    while len(values[-1]) > 1:
        v = values[-1]
        values.append(disc * (q * v[1:] + (1.0 - q) * v[:-1]))
    values = values[::-1]
    deltas = []
    for i in range(len(values) - 1):
        s = level_prices(lattice, i)
        deltas.append((values[i + 1][1:] - values[i + 1][:-1]) / (s * (lattice.up - lattice.down)))
    return values, deltas


# --- lattice construction ----------------------------------------------------


def test_degenerate_zero_vol_lattice():
    lat = build_lattice(one_asset(rate=0.0, mu=0.0, sigma=0.0), TimeGrid(0.5, 2.0))
    assert lat.up == 1.0 and lat.down == 1.0
    assert lat.q_up == 0.5 and lat.p_up == 0.5


def test_zero_drift_zero_rate_p_equals_q():
    lat = build_lattice(one_asset(rate=0.0, mu=0.0, sigma=0.3), TimeGrid(0.25, 1.0))
    assert lat.p_up == pytest.approx(lat.q_up, abs=0.0)


def test_node_martingale_identity_everywhere():
    lat = build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.2), TimeGrid(1.0, 5.0))
    disc = np.exp(-lat.rate * lat.grid.dt)
    for i in range(lat.n_steps):
        s = level_prices(lat, i)
        expected = disc * (lat.q_up * s * lat.up + (1 - lat.q_up) * s * lat.down)
        assert np.allclose(expected, s, rtol=0, atol=1e-14)


def test_coarse_step_rejected():
    with pytest.raises(IncompatibleStepError):
        build_lattice(one_asset(rate=0.5, mu=0.5, sigma=0.1), TimeGrid(4.0, 4.0))


def test_multi_asset_lattice_rejected():
    # The market has one risky asset; a second is rejected at construction.
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(0.0, 0.0), sigma=(0.2, 0.3), s0=(1.0, 1.0))


def test_model_validation():
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(0.1,), sigma=(0.0,), s0=(1.0,))  # vol-0 must drift at r
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(0.0,), sigma=(0.2,), s0=(-1.0,))
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(0.0,), sigma=(-0.2,), s0=(1.0,))
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(), sigma=(), s0=())
    with pytest.raises(ValueError):
        MarketModel(rate=0.0, mu=(0.0,), sigma=(0.2, 0.2), s0=(1.0,))


GRID_AND_STREAM_FAULTS = {
    "grid-off-multiple": (lambda: TimeGrid(0.3, 1.0), ValueError, "1.0 is not an integer multiple of dt 0.3"),
    "stream-without-lattice": (lambda: validate_stream(constant_stream(build_lattice(one_asset(), TimeGrid(0.5, 2.0)),
                                                                       1.0), TimeGrid(0.5, 2.0)),
                               ValueError, "node-adapted streams require a lattice"),
    "stream-level-count": (lambda: validate_stream([np.ones(1), np.ones(2), np.ones(3)], TimeGrid(0.5, 2.0),
                                                   build_lattice(one_asset(), TimeGrid(0.5, 2.0))),
                           NonReplicableError, "stream has 3 levels, the grid has 4 points"),
    "rates-shape": (lambda: validate_stream(np.ones(3), TimeGrid(0.5, 2.0)),
                    NonReplicableError, r"deterministic rates have shape \(3,\), expected \(\) or \(4,\)"),
}


@pytest.mark.parametrize("case", sorted(GRID_AND_STREAM_FAULTS))
def test_grid_and_stream_faults_are_named(case):
    build, error, message = GRID_AND_STREAM_FAULTS[case]
    with pytest.raises(ValueError, match=message) as excinfo:
        build()
    assert excinfo.type is error


# --- simulation ---------------------------------------------------------------


def test_seed_determinism_bit_identical():
    lat = build_lattice(one_asset(rate=0.01, mu=0.04, sigma=0.2), TimeGrid(0.5, 2.0))
    a = sample_lattice_paths(lat, 100, seed=42)
    b = sample_lattice_paths(lat, 100, seed=42)
    assert np.array_equal(a.ups, b.ups) and np.array_equal(a.node_idx, b.node_idx)
    assert not np.array_equal(a.ups, sample_lattice_paths(lat, 100, seed=43).ups)


def test_lattice_path_stream_is_pinned():
    # Digests of the paths' batch-first bytes with node indices as int64,
    # taken before the samplers stored them time-major and narrow: the
    # draws must not move.
    lat = build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.2), TimeGrid(1.0, 40.0))
    paths = sample_lattice_paths(lat, 1000, 7)
    assert paths.ups.shape == (1000, 40) and paths.ups.dtype == np.bool_
    assert paths.node_idx.shape == (1000, 41) and paths.node_idx.dtype == np.uint8
    assert hashlib.sha256(paths.ups.tobytes()).hexdigest() == (
        "2ea2fe7f283791e024855980009d1683fc773c995314ef5cc231d5b26aa4e8d6"
    )
    assert hashlib.sha256(paths.node_idx.astype(np.int64).tobytes()).hexdigest() == (
        "3ed880b195616b188a6773fde7d20e5eb52ee5cd204c55533f6acbc000a90dba"
    )


@pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.uint16)])
def test_node_indices_take_the_narrowest_type_that_holds_every_level(m, dtype):
    # Every path moves up at every step, so the last level reaches m itself.
    lat = dataclasses.replace(build_lattice(one_asset(), TimeGrid(1.0, float(m))), p_up=1.0)
    paths = sample_lattice_paths(lat, 3, 1)
    assert paths.node_idx.dtype == dtype
    np.testing.assert_array_equal(paths.node_idx, np.broadcast_to(np.arange(m + 1), (3, m + 1)))


def test_lattice_path_sampling_rejects_an_empty_batch():
    lat = build_lattice(one_asset(), TimeGrid(0.5, 2.0))
    with pytest.raises(ValueError, match="n_paths >= 1"):
        sample_lattice_paths(lat, 0, 1)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_lattice_path_sampling_refuses_a_count_that_is_not_an_integer(bad):
    # Each raised numpy's TypeError "'float' object cannot be interpreted as an integer".
    lat = build_lattice(one_asset(), TimeGrid(0.5, 2.0))
    with pytest.raises(ValueError, match=f"n_paths = {bad}"):
        sample_lattice_paths(lat, bad, 1)


def test_lattice_path_sampling_takes_an_integral_float_count():
    lat = build_lattice(one_asset(), TimeGrid(0.5, 2.0))
    paths, expected = sample_lattice_paths(lat, 20.0, 1), sample_lattice_paths(lat, 20, 1)
    np.testing.assert_array_equal(paths.ups, expected.ups)
    np.testing.assert_array_equal(paths.node_idx, expected.node_idx)


def test_lattice_path_sampling_matches_branch_probabilities():
    lat = build_lattice(one_asset(rate=0.0, mu=0.05, sigma=0.2), TimeGrid(0.5, 5.0))
    paths = sample_lattice_paths(lat, 50_000, seed=3)
    frac_up = paths.ups.mean()
    se = np.sqrt(lat.p_up * (1 - lat.p_up) / paths.ups.size)
    assert abs(frac_up - lat.p_up) < 4 * se
    assert np.array_equal(paths.node_idx[:, 1:], np.cumsum(paths.ups, axis=1))


# --- pricing ------------------------------------------------------------------


def test_price_of_immediate_unit_payment():
    lat = build_lattice(one_asset(sigma=0.2), TimeGrid(0.25, 1.0))
    stream = [np.zeros(i + 1) for i in range(lat.n_steps)]
    stream[0] = np.array([1.0])
    assert q_price(stream, lat) == pytest.approx(0.25, abs=1e-15)


def test_zero_rate_constant_stream_prices_at_c_times_T():
    lat = build_lattice(one_asset(rate=0.0, sigma=0.2), TimeGrid(0.25, 2.0))
    assert q_price(constant_stream(lat, 3.0), lat) == pytest.approx(3.0 * 2.0, rel=1e-14)


def test_call_payoff_price_matches_backward_induction_oracle():
    lat = build_lattice(one_asset(rate=0.03, mu=0.07, sigma=0.2, s0=1.0), TimeGrid(0.25, 3.0))
    strike = 1.05
    m = lat.n_steps
    # Payoff paid at the last grid point, as a rate: amount / dt.
    payoff_amount = np.maximum(level_prices(lat, m - 1) - strike, 0.0)
    stream = [np.zeros(i + 1) for i in range(m)]
    stream[m - 1] = payoff_amount / lat.grid.dt
    oracle = backward_induction_value(lat, payoff_amount)
    assert q_price(stream, lat) == pytest.approx(oracle, rel=1e-13)


def test_price_additivity_machine_precision():
    lat = build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.3), TimeGrid(0.5, 4.0))
    a = stream_from_function(lat, lambda t, s: 0.5 + 0.1 * s)
    b = stream_from_function(lat, lambda t, s: np.maximum(s - 1.0, 0.0))
    lhs = q_price([x + y for x, y in zip(a, b)], lat)
    rhs = q_price(a, lat) + q_price(b, lat)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_negative_cashflow_rejected():
    lat = build_lattice(one_asset(sigma=0.2), TimeGrid(0.5, 1.0))
    stream = constant_stream(lat, 1.0)
    stream[1] = stream[1].copy()
    stream[1][0] = -0.1
    with pytest.raises(ValueError):
        q_price(stream, lat)


# --- replication ---------------------------------------------------------------


def test_deterministic_stream_replicates_all_bond():
    lat = build_lattice(one_asset(rate=0.04, mu=0.07, sigma=0.2), TimeGrid(0.5, 3.0))
    strat = replicate(constant_stream(lat, 1.0), lat)
    for frac in strat.risky_fraction:
        assert np.allclose(frac, 0.0, atol=1e-12)
    assert strat.initial_budget == pytest.approx(q_price(constant_stream(lat, 1.0), lat), rel=1e-14)


def test_bond_clone_replicates_all_bond():
    # up == down: the fraction's denominator (up - down) * post is zero at
    # every node, and the all-bond answer is kept without dividing by it.
    lat = build_lattice(one_asset(rate=0.03, mu=0.03, sigma=0.0), TimeGrid(0.25, 5.0))
    stream = constant_stream(lat, 1.0)
    strat = replicate(stream, lat)
    for frac in strat.risky_fraction:
        assert np.array_equal(frac, np.zeros_like(frac))
    assert strat.initial_budget == pytest.approx(q_price(stream, lat), rel=0, abs=1e-14)


def test_zero_cashflow_zero_budget_zero_positions():
    lat = build_lattice(one_asset(sigma=0.2), TimeGrid(0.5, 2.0))
    strat = replicate(constant_stream(lat, 0.0), lat)
    assert strat.initial_budget == 0.0
    for frac, w in zip(strat.risky_fraction, strat.wealth):
        assert np.all(frac == 0.0) and np.all(w == 0.0)


def test_call_replication_matches_delta_oracle():
    lat = build_lattice(one_asset(rate=0.03, mu=0.06, sigma=0.25, s0=1.0), TimeGrid(0.25, 2.0))
    strike = 1.0
    m = lat.n_steps
    payoff_amount = np.maximum(level_prices(lat, m - 1) - strike, 0.0)
    stream = [np.zeros(i + 1) for i in range(m)]
    stream[m - 1] = payoff_amount / lat.grid.dt
    strat = replicate(stream, lat)
    # Oracle deltas for the payoff treated as an option expiring at level m-1.
    values, deltas = backward_induction_deltas(lat, payoff_amount)
    for i in range(m - 1):
        post = strat.wealth[i] - np.asarray(stream[i]) * lat.grid.dt
        shares = np.where(post > 0, strat.risky_fraction[i] * post / level_prices(lat, i), 0.0)
        assert np.allclose(shares, deltas[i], atol=1e-12)


def test_replication_self_financing_and_conservation():
    # Portfolio value after funding each payment compounds exactly to the
    # next-level requirement, and equals the price of the remaining stream.
    lat = build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.3), TimeGrid(0.5, 3.0))
    stream = stream_from_function(lat, lambda t, s: 0.2 + 0.3 * np.maximum(s - 0.9, 0.0))
    strat = replicate(stream, lat)
    dt = lat.grid.dt
    bond_growth = np.exp(lat.rate * dt)
    for i in range(lat.n_steps):
        post = strat.wealth[i] - np.asarray(stream[i]) * dt
        assert np.all(post > -1e-12)
        prices = level_prices(lat, i)
        risky_value = strat.risky_fraction[i] * post
        bond_value = post - risky_value
        up_val = bond_value * bond_growth + risky_value * lat.up
        down_val = bond_value * bond_growth + risky_value * lat.down
        nxt = strat.wealth[i + 1]
        assert np.allclose(up_val, nxt[1:], atol=1e-12)
        assert np.allclose(down_val, nxt[:-1], atol=1e-12)
    # Conservation against remaining-stream prices at every node: wealth at a
    # node equals the node-conditional price of the remaining cashflows, which
    # backward induction produces by construction; check the root identity.
    assert strat.initial_budget == pytest.approx(q_price(stream, lat), rel=1e-13)


def test_non_adapted_stream_rejected():
    lat = build_lattice(one_asset(sigma=0.2), TimeGrid(0.5, 2.0))
    bad = [np.zeros(1), np.zeros(3), np.zeros(3), np.zeros(4)]
    with pytest.raises(ValueError):
        replicate(bad, lat)


# --- validation order -------------------------------------------------------------


def _faulty(lat, faults):
    stream = constant_stream(lat, 1.0)
    for level, fault in faults:
        if fault == "shape":
            stream[level] = np.ones(level + 2)
        else:
            stream[level] = stream[level].copy()
            stream[level][-1] = {"nan": np.nan, "negative": -0.1}[fault]
    return stream


@pytest.mark.parametrize(
    "faults, error, message",
    [
        ([(1, "nan"), (3, "shape")], ValueError, "level 1 contains non-finite rates"),
        ([(1, "shape"), (2, "nan")], NonReplicableError, r"level 1 has shape \(3,\), expected \(2,\)"),
        ([(1, "negative"), (3, "nan")], ValueError, "level 1 contains negative rates"),
        ([(2, "nan"), (0, "negative")], ValueError, "level 0 contains negative rates"),
        ([(2, "negative"), (2, "nan")], ValueError, "level 2 contains non-finite rates"),
        ([(3, "shape"), (2, "negative")], ValueError, "level 2 contains negative rates"),
    ],
)
def test_first_faulty_level_wins(faults, error, message):
    # Two faults, given in any order: the earlier level raises, and within a
    # level a non-finite rate is reported before a negative one.
    lat = build_lattice(one_asset(sigma=0.2), TimeGrid(0.5, 2.0))
    with pytest.raises(ValueError, match=message) as excinfo:
        replicate(_faulty(lat, faults), lat)
    assert excinfo.type is error


# --- one check on consumption input, at every entry point ------------------------


ONE_RULE_MODEL = one_asset(rate=0.02, mu=0.05, sigma=0.2)
ONE_RULE_EZ = EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)


def _problem_a10():
    grid = TimeGrid(1.0, 10.0)
    table = gompertz_makeham_table(grid, 0.0, 0.01, 0.1)
    return HomogeneousProblem(VnmParams(PowerUtility(0.5), 0.02), table, ONE_RULE_MODEL, grid, 1.0, math.inf)


def _transfer(stream, table, lattice):
    problem = _problem_a10()
    replication = replicate(constant_stream(lattice, 0.05), lattice)
    return transfer_infinite_to_finite(stream, replication, 0.9, 8, problem, trials=4, seed=1)


# Each entry point that takes rates, called on (stream, table, lattice).
RATE_ENTRY_POINTS = {
    "q_price": lambda stream, table, lattice: q_price(stream, lattice),
    "replicate": lambda stream, table, lattice: replicate(stream, lattice),
    "vnm_value_on_lattice": lambda stream, table, lattice: vnm_value_on_lattice(
        VnmParams(PowerUtility(0.5), 0.02), stream, table, lattice),
    "exp_km_value_on_lattice": lambda stream, table, lattice: exp_km_value_on_lattice(
        ExpKmParams(ExponentialUtility(1.0)), stream, table, lattice),
    "ez_utility_discrete": lambda stream, table, lattice: ez_utility_discrete(ONE_RULE_EZ, stream, table, lattice),
    "solve_truncated": lambda stream, table, lattice: solve_truncated(
        TruncatedDriver(ONE_RULE_EZ, 1.0), stream, table, lattice),
    "convergence_in_m": lambda stream, table, lattice: convergence_in_m(ONE_RULE_EZ, stream, table, (1.0,), lattice),
    "solve_transfer_pair": lambda stream, table, lattice: solve_transfer_pair(
        TruncatedDriver(ONE_RULE_EZ, 1.0), stream, 0.9, 8, table, lattice, 9.0),
    "error_bound_check": lambda stream, table, lattice: error_bound_check(
        ONE_RULE_EZ, 1.0, stream, 0.9, 8, table, lattice),
    "transfer_infinite_to_finite": _transfer,
}


def _faulty_input(fault):
    """A stream of 0.05 on A10 with one fault, its table and its lattice."""
    table = _problem_a10().table
    lattice = build_lattice(ONE_RULE_MODEL, table.grid)
    if fault == "grid":  # ten steps as well, on another grid
        lattice = build_lattice(ONE_RULE_MODEL, TimeGrid(0.5, 5.0))
    stream = constant_stream(lattice, 0.05)
    if fault == "shape":
        stream[2] = np.full(1, 0.05)
    elif fault in ("inf", "negative"):
        stream[2][-1] = {"inf": np.inf, "negative": -0.01}[fault]
    return stream, table, lattice


ONE_RULE_FAULTS = {
    "grid": "grid",
    "shape": r"level 2 has shape \(1,\)",
    "inf": "level 2 contains non-finite rates",
    "negative": "level 2 contains negative rates",
}
# These take no table: the lattice is the stream's own, or the problem's.
OWN_GRID = ("q_price", "replicate", "transfer_infinite_to_finite")


@pytest.mark.parametrize(
    "entry, fault",
    [(entry, fault) for entry in sorted(RATE_ENTRY_POINTS) for fault in ONE_RULE_FAULTS
     if not (fault == "grid" and entry in OWN_GRID)],
)
def test_every_rate_entry_point_refuses_a_faulty_stream(entry, fault):
    # Before the entry points shared one check, the three evaluators and
    # solve_truncated valued a lattice on another grid of the same step
    # count, ez_utility_discrete and solve_truncated broadcast a level of
    # shape (1,), the VnM and multiplicative evaluators valued an inf rate,
    # the transfer scored a negative rate, and the rest raised other messages.
    stream, table, lattice = _faulty_input(fault)
    with pytest.raises(ValueError, match=ONE_RULE_FAULTS[fault]):
        RATE_ENTRY_POINTS[entry](stream, table, lattice)


def test_every_rate_entry_point_accepts_the_unfaulted_stream():
    stream, table, lattice = _faulty_input(None)
    for entry, call in RATE_ENTRY_POINTS.items():
        call(stream, table, lattice)


# --- the node-weight triangle -------------------------------------------------------


def q40_lattice():
    return build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.2), TimeGrid(0.25, 40.0))


@pytest.mark.parametrize("measure", ["P", "Q"])
def test_node_weights_bitwise_pascal_recursion(measure):
    lat = q40_lattice()
    pu = {"P": lat.p_up, "Q": lat.q_up}[measure]
    levels = [np.array([1.0])]
    for _ in range(lat.n_steps):
        prev = levels[-1]
        nxt = np.zeros(prev.size + 1)
        nxt[:-1] += prev * (1.0 - pu)
        nxt[1:] += prev * pu
        levels.append(nxt)
    weights = lat.node_weights(measure)
    assert weights.shape == (lat.n_steps + 1, lat.n_steps + 1)
    for i, level in enumerate(levels):
        assert np.array_equal(weights[i, : i + 1], level)


@pytest.mark.parametrize("measure", ["P", "Q"])
def test_node_weights_triangle_is_a_read_only_distribution(measure):
    lat = q40_lattice()
    weights = lat.node_weights(measure)
    assert np.all(np.triu(weights, 1) == 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert lat.node_weights(measure) is weights
    with pytest.raises(ValueError):
        weights[1, 0] = 0.5


def test_equal_market_and_grid_share_one_lattice():
    grid = TimeGrid(0.25, 40.0)
    problem = HomogeneousProblem(
        VnmParams(LogUtility(), 0.02), gompertz_makeham_table(grid, 0.0, 0.01, 0.1), q40_lattice().model,
        grid, 1.0, np.inf,
    )
    first = problem.lattice()
    assert problem.lattice() is first
    assert build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.2), TimeGrid(0.25, 40.0)) is first
    for measure, pu in (("P", first.p_up), ("Q", first.q_up)):
        weights = first.node_weights(measure)
        assert problem.lattice().node_weights(measure) is weights
        fresh = np.zeros_like(weights)
        fresh[0, 0] = 1.0
        for i in range(first.n_steps):
            fresh[i + 1, : i + 1] = fresh[i, : i + 1] * (1.0 - pu)
            fresh[i + 1, 1 : i + 2] += fresh[i, : i + 1] * pu
        assert np.array_equal(weights, fresh)
        with pytest.raises(ValueError):
            weights[1, 0] = 0.5
    assert build_lattice(first.model, TimeGrid(1.0, 40.0)) is not first
    assert build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.25), grid) is not first


@pytest.mark.parametrize("sequence", [list, np.array])
def test_model_from_any_sequence_is_its_tuple_twin(sequence):
    # Built from lists, the model used to keep them: it passed validation
    # but compared unequal to its tuple twin and could not be hashed.
    twin = one_asset(rate=0.02, mu=0.05, sigma=0.2)
    model = MarketModel(rate=0.02, mu=sequence([0.05]), sigma=sequence([0.2]), s0=sequence([1.0]))
    assert model == twin
    assert hash(model) == hash(twin)
    assert model.mu == (0.05,) and type(model.mu[0]) is float
    grid = TimeGrid(1.0, 10.0)
    assert build_lattice(model, grid) is build_lattice(twin, grid)
    problem = HomogeneousProblem(VnmParams(LogUtility(), 0.02), gompertz_makeham_table(grid, 0.0, 0.01, 0.1),
                                 model, grid, 1.0, np.inf)
    assert np.isfinite(solve_infinite(problem).value)
