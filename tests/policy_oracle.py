"""Exact value of an infinite-pool wealth-grid policy, on the full binary tree."""

import numpy as np

from tontine.optimizer import _portfolio_gross


def exact_policy_value(problem, policy) -> float:
    """Value at the budget of ``policy`` run on all 2**m market paths of the infinite pool.

    One forward pass carries per-person wealth down every path (the children
    of node k are 2k, down, and 2k + 1, up); one backward pass applies the
    family's node value, with the solver's explicit EZ step and cap, at the
    policy's own consumption and risky fraction.  Every step must have
    someone alive.
    """
    grid, table = problem.grid, problem.table
    m, dt = grid.n_steps, grid.dt
    lattice = problem.lattice()
    pi, survival = table.pi[:m], table.step_survival
    assert np.all(pi > 0)
    wealth, kappas = [np.array([problem.budget])], []
    for t in range(m):
        w = wealth[-1]
        drained = policy.consumption_rate(t, pi[t], w) * pi[t] * dt
        kappas.append(np.divide(drained, w, out=np.zeros_like(w), where=w > 0))
        down, up = _portfolio_gross(lattice, policy.risky_fraction(t, pi[t], w))
        post = w * (1.0 - kappas[-1])
        wealth.append(np.stack([post * down, post * up], axis=1).ravel())
    gain = problem.gain
    values = np.full(wealth[m].shape, gain.death_value)
    for t in range(m - 1, -1, -1):
        cont = (1.0 - lattice.p_up) * values[0::2] + lattice.p_up * values[1::2]
        death_prob = 1.0 - survival[t]
        expected = death_prob * gain.death_value + (1.0 - death_prob) * cont
        rate = kappas[t] * wealth[t] / (pi[t] * dt)
        values = np.minimum(gain.step(grid.points[t], rate, expected, dt), gain.value_cap)
    return float(values[0])
