from dataclasses import dataclass, replace

import numpy as np
import pytest
from scenario_reference import equal_split, vnm_utility
from stream_helpers import ConstantRateStrategy
from survival_oracle import point_mass_table, uniform_table

from tontine.fund import TabulatedPolicy, evolve_finite, evolve_infinite
from tontine.grid import TimeGrid
from tontine.market import MarketModel, build_lattice, sample_lattice_paths
from tontine.mortality import simulate_survivor_counts
from tontine.preferences import LogUtility, VnmParams
from tontine.rng import substream


def flat_paths(grid, rate=0.0, n_paths=1, seed=0):
    """Paths on a zero-volatility lattice: every return is the bond's."""
    model = MarketModel(rate=rate, mu=(rate,), sigma=(0.0,), s0=(1.0,))
    return sample_lattice_paths(build_lattice(model, grid), n_paths, seed)


def lattice_paths(grid, n_paths=32, seed=0, mu=0.05, sigma=0.2, rate=0.01):
    model = MarketModel(rate=rate, mu=(mu,), sigma=(sigma,), s0=(1.0,))
    lat = build_lattice(model, grid)
    return lat, sample_lattice_paths(lat, n_paths, seed)


def post_value(traj):
    """Fund values after each step's payments, by the evolution's own expression (the same bits)."""
    return traj.pre_value[..., :-1] - traj.alive * traj.rate * traj.grid.dt


# --- finite pools -----------------------------------------------------------------


def test_zero_consumption_all_bond_conserves_wealth():
    grid = TimeGrid(0.25, 2.0)
    counts = np.full((1, grid.n_steps), 5)
    traj = evolve_finite(ConstantRateStrategy(0.0), flat_paths(grid), counts, np.full(5, 2.0))
    assert np.allclose(traj.pre_value, 10.0)
    assert traj.admissible.all()


def test_equal_drawdown_exhausts_fund_exactly():
    # Consume total F / (remaining points) at each point, bond at r=0.
    grid = TimeGrid(0.25, 1.0)
    m = grid.n_steps
    n = 4

    class Drawdown:
        def consumption_rate(self, t_idx, alive, wealth, node=None):
            remaining = m - t_idx
            return wealth / (alive * remaining * grid.dt)

        def risky_fraction(self, t_idx, alive, wealth, node=None):
            return np.zeros_like(np.asarray(wealth))

    counts = np.full((1, m), n)
    traj = evolve_finite(Drawdown(), flat_paths(grid), counts, np.ones(n))
    assert post_value(traj)[0, -1] == pytest.approx(0.0, abs=1e-12)
    assert traj.pre_value[0, -1] == pytest.approx(0.0, abs=1e-12)
    assert traj.admissible.all()
    # Budget identity at r=0: total consumption + terminal = initial.
    total_consumption = np.sum(traj.alive * traj.rate, axis=-1) * grid.dt
    assert total_consumption[0] + traj.pre_value[0, -1] == pytest.approx(4.0, rel=1e-12)


def test_overdraw_flagged_not_thrown():
    grid = TimeGrid(0.25, 1.0)
    counts = np.full((1, grid.n_steps), 2)
    traj = evolve_finite(ConstantRateStrategy(100.0), flat_paths(grid), counts, np.ones(2))
    assert not traj.admissible[0]
    assert traj.first_violation[0] == 0


def test_self_financing_identity_on_lattice_paths():
    grid = TimeGrid(0.25, 2.0)
    lat, paths = lattice_paths(grid, n_paths=64, seed=4)
    counts = simulate_survivor_counts(10, uniform_table(grid), trials=64, seed=5)
    traj = evolve_finite(ConstantRateStrategy(0.02, fraction=0.4), paths, counts, np.ones(10))
    gross = 0.4 * np.where(paths.ups, lat.up, lat.down) + 0.6 * paths.bond_gross()
    assert np.allclose(traj.pre_value[:, 1:], post_value(traj) * gross, rtol=1e-13)
    drains = counts * traj.rate * grid.dt
    assert np.allclose(post_value(traj), traj.pre_value[:, :-1] - drains, rtol=1e-13)


def test_sampled_arrays_are_time_major_and_evolve_the_same_either_way():
    # The evolution reads one row per step; the samplers store exactly that.
    grid = TimeGrid(0.25, 2.0)
    lat = build_lattice(MarketModel(rate=0.01, mu=(0.05,), sigma=(0.2,), s0=(1.0,)), grid)
    paths = sample_lattice_paths(lat, 300, 6)
    counts = simulate_survivor_counts(10, uniform_table(grid), trials=300, seed=8)
    for x in (counts, paths.ups, paths.node_idx):
        assert np.moveaxis(x, -1, 0).flags.c_contiguous
    strategy = ConstantRateStrategy(0.05, fraction=0.6)
    c_ordered = replace(paths, ups=np.ascontiguousarray(paths.ups), node_idx=np.ascontiguousarray(paths.node_idx))
    a = evolve_finite(strategy, paths, counts, np.ones(10))
    b = evolve_finite(strategy, c_ordered, np.ascontiguousarray(counts), np.ones(10))
    for field in ("pre_value", "alive", "rate", "admissible", "first_violation"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@dataclass(frozen=True)
class NodeAndCountPolicy:
    """Consumption tabulated by survivor count, risky fraction by lattice node."""

    counts: TabulatedPolicy
    node_fraction: np.ndarray  # (m, m + 1)

    def consumption_rate(self, t_idx, alive, wealth, node=None):
        return self.counts.consumption_rate(t_idx, alive, wealth)

    def risky_fraction(self, t_idx, alive, wealth, node=None):
        return self.node_fraction[t_idx, node]


def test_narrow_counts_and_nodes_evolve_as_their_int64_copies():
    # The samplers store counts and node indices in uint8 here; they only
    # index tables and multiply floats, so int64 copies give the same bits.
    grid = TimeGrid(0.25, 5.0)
    m, n = grid.n_steps, 12
    lat = build_lattice(MarketModel(rate=0.01, mu=(0.05,), sigma=(0.2,), s0=(1.0,)), grid)
    narrow = sample_lattice_paths(lat, 200, 3)
    counts = simulate_survivor_counts(n, uniform_table(grid), trials=200, seed=4)
    assert narrow.node_idx.dtype == counts.dtype == np.uint8
    gen = substream(5, "narrow-evolution-test")
    kappa = gen.uniform(0.0, 0.2, (m, n + 1))
    policy = NodeAndCountPolicy(TabulatedPolicy(grid, kappa, np.zeros((m, n + 1))),
                                gen.uniform(0.0, 1.0, (m, m + 1)))
    wide = replace(narrow, node_idx=narrow.node_idx.astype(np.int64))
    a = evolve_finite(policy, narrow, counts, np.ones(n))
    b = evolve_finite(policy, wide, counts.astype(np.int64), np.ones(n))
    for field in ("pre_value", "rate", "admissible", "first_violation"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.alive.dtype == np.uint8 and np.array_equal(a.alive, b.alive)


def test_post_value_is_the_wealth_the_evolution_compounded():
    # A step that is not a power of two, and rates and fractions that vary
    # by count and node, make any change in rounding order show.
    grid = TimeGrid(0.1, 2.0)
    m, n = grid.n_steps, 10
    lat, paths = lattice_paths(grid, n_paths=64, seed=4)
    counts = simulate_survivor_counts(n, uniform_table(grid), trials=64, seed=5)
    gen = substream(6, "post-value-test")
    kappa = gen.uniform(0.0, 0.2, (m, n + 1))
    node_fraction = gen.uniform(0.0, 1.0, (m, m + 1))
    policy = NodeAndCountPolicy(TabulatedPolicy(grid, kappa, np.zeros((m, n + 1))), node_fraction)
    traj = evolve_finite(policy, paths, counts, np.ones(n))
    post = post_value(traj)
    frac = node_fraction[np.arange(m), paths.node_idx[:, :-1]]
    gross = frac * np.where(paths.ups, lat.up, lat.down) + (1.0 - frac) * paths.bond_gross()
    assert np.array_equal(traj.pre_value[:, 1:], post * gross)


def test_zero_volatility_paths_compound_at_the_bond_rate_whatever_their_moves():
    grid = TimeGrid(0.25, 2.0)
    paths = flat_paths(grid, rate=0.03, n_paths=64, seed=9)
    assert paths.ups.any() and not paths.ups.all()
    traj = evolve_infinite(ConstantRateStrategy(0.0, fraction=1.0), paths, point_mass_table(grid), 1.0)
    assert np.all(traj.pre_value == traj.pre_value[0])
    assert traj.pre_value[0, -1] == pytest.approx(np.exp(0.03 * grid.horizon), rel=1e-14)


# --- infinite pools -----------------------------------------------------------------


def test_infinite_zero_consumption_compounds_at_portfolio_return():
    grid = TimeGrid(0.5, 2.0)
    lat, paths = lattice_paths(grid, n_paths=8, seed=1)
    table = uniform_table(grid)
    traj = evolve_infinite(ConstantRateStrategy(0.0, fraction=1.0), paths, table, 1.0)
    assert np.allclose(traj.pre_value[:, -1], np.prod(np.where(paths.ups, lat.up, lat.down), axis=1), rtol=1e-13)


def test_point_mass_mortality_finite_equals_infinite_per_unit_budget():
    grid = TimeGrid(0.25, 1.0)
    table = point_mass_table(grid)
    strategy = ConstantRateStrategy(0.3, fraction=0.5)
    lat, paths = lattice_paths(grid, n_paths=16, seed=2)
    n = 7
    counts = np.broadcast_to(n, (16, grid.n_steps)).copy()
    fin = evolve_finite(strategy, paths, counts, np.ones(n))
    inf = evolve_infinite(strategy, paths, table, 1.0)
    assert np.allclose(fin.pre_value / n, inf.pre_value, rtol=1e-12)


def test_annuity_rate_exhausts_budget_against_expected_survival():
    grid = TimeGrid(0.25, 1.0)
    table = uniform_table(grid)
    x0 = 1.0
    rate = x0 / (np.sum(table.pi[: grid.n_steps]) * grid.dt)
    traj = evolve_infinite(ConstantRateStrategy(rate), flat_paths(grid), table, x0)
    assert post_value(traj)[0, -1] == pytest.approx(0.0, abs=1e-12)
    assert traj.admissible.all()


# --- equal split ------------------------------------------------------------------------


def test_equal_split_identity_for_equal_consumptions():
    grid = TimeGrid(0.25, 1.0)
    death = np.array([1.0, 1.0, 1.0])
    cons = np.full((3, grid.n_steps), 1.2)
    out = equal_split(cons, death, grid)
    assert np.allclose(out, cons)


def test_equal_split_single_survivor_takes_total():
    grid = TimeGrid(0.25, 1.0)
    death = np.array([0.0, 0.25, 1.0])
    cons = np.array(
        [
            [1.0, 9.0, 9.0, 9.0],
            [1.0, 1.0, 9.0, 9.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )
    out = equal_split(cons, death, grid)
    # At t=0.5 and t=0.75 only individual 2 is alive and takes the total.
    assert out[2, 2] == pytest.approx(cons[:, 2].sum())
    assert out[0, 2] == 0.0 and out[1, 2] == 0.0
    # Totals preserved at every point with a survivor.
    assert np.allclose(out.sum(axis=0), cons.sum(axis=0))


def test_equal_split_weakly_improves_concave_gain():
    grid = TimeGrid(0.25, 1.0)
    gain = VnmParams(LogUtility())
    gen = substream(77, "equal-split-test")
    n = 5
    for _ in range(300):
        death = grid.points[gen.integers(0, grid.n_steps, size=n)]
        alive = grid.points[None, :] <= death[:, None] + 1e-12
        cons = np.where(alive, gen.uniform(0.2, 2.0, (n, grid.n_steps)), 0.0)
        split = equal_split(cons, death, grid)
        weights = np.full(n, 1.0 / n)
        before = np.mean(
            [
                vnm_utility(gain, cons[i : i + 1], death[i : i + 1], np.array([1.0]), grid.points, grid.dt)
                for i in range(n)
            ]
        )
        after = np.mean(
            [
                vnm_utility(gain, split[i : i + 1], death[i : i + 1], np.array([1.0]), grid.points, grid.dt)
                for i in range(n)
            ]
        )
        assert after >= before - 1e-10
