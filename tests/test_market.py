import numpy as np
import pytest

from tontine.grid import TimeGrid
from tontine.market import (
    IncompatibleStepError,
    MarketModel,
    add_streams,
    build_lattice,
    constant_stream,
    q_price,
    replicate,
    sample_lattice_paths,
    stream_from_function,
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
        s = lattice.level_prices(i)
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
        s = lat.level_prices(i)
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


# --- simulation ---------------------------------------------------------------


def test_seed_determinism_bit_identical():
    lat = build_lattice(one_asset(rate=0.01, mu=0.04, sigma=0.2), TimeGrid(0.5, 2.0))
    a = sample_lattice_paths(lat, 100, "P", seed=42)
    b = sample_lattice_paths(lat, 100, "P", seed=42)
    assert np.array_equal(a.ups, b.ups) and np.array_equal(a.node_idx, b.node_idx)
    assert not np.array_equal(a.ups, sample_lattice_paths(lat, 100, "P", seed=43).ups)
    assert not np.array_equal(a.ups, sample_lattice_paths(lat, 100, "Q", seed=42).ups)


def test_lattice_path_sampling_matches_branch_probabilities():
    lat = build_lattice(one_asset(rate=0.0, mu=0.05, sigma=0.2), TimeGrid(0.5, 5.0))
    paths = sample_lattice_paths(lat, 50_000, "P", seed=3)
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
    payoff_amount = np.maximum(lat.level_prices(m - 1) - strike, 0.0)
    stream = [np.zeros(i + 1) for i in range(m)]
    stream[m - 1] = payoff_amount / lat.grid.dt
    oracle = backward_induction_value(lat, payoff_amount)
    assert q_price(stream, lat) == pytest.approx(oracle, rel=1e-13)


def test_price_additivity_machine_precision():
    lat = build_lattice(one_asset(rate=0.02, mu=0.05, sigma=0.3), TimeGrid(0.5, 4.0))
    a = stream_from_function(lat, lambda t, s: 0.5 + 0.1 * s)
    b = stream_from_function(lat, lambda t, s: np.maximum(s - 1.0, 0.0))
    lhs = q_price(add_streams(a, b), lat)
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
    payoff_amount = np.maximum(lat.level_prices(m - 1) - strike, 0.0)
    stream = [np.zeros(i + 1) for i in range(m)]
    stream[m - 1] = payoff_amount / lat.grid.dt
    strat = replicate(stream, lat)
    # Oracle deltas for the payoff treated as an option expiring at level m-1.
    values, deltas = backward_induction_deltas(lat, payoff_amount)
    for i in range(m - 1):
        post = strat.wealth[i] - np.asarray(stream[i]) * lat.grid.dt
        shares = np.where(post > 0, strat.risky_fraction[i] * post / lat.level_prices(i), 0.0)
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
        prices = lat.level_prices(i)
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
