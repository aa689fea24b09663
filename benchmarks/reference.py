"""Values computed apart from the package, for the benchmark's checks.

Nothing here imports ``tontine``: survival comes straight from the
Gompertz-Makeham hazard, node probabilities from the binomial law of the
lattice's branch probabilities, and the infinite-pool optimum of power
and log utility from the first-order conditions of the pricing problem,

    c(t, x) = K * (exp((b - r) t) * dQ/dP(t, x)) ** (1 / (alpha - 1)),

with ``K`` fixed by the budget (``alpha = 0`` stands for log utility).
"""

from __future__ import annotations

import math

import numpy as np


def gm_survival(law: tuple[float, float, float], times: np.ndarray) -> np.ndarray:
    """P(death time >= t) for the hazard ``a + b * exp(c * t)``."""
    a, b, c = law
    t = np.asarray(times, dtype=float)
    return np.exp(-(a * t + (b / c) * np.expm1(c * t)))


def branch_probabilities(rate: float, mu: float, sigma: float, dt: float) -> tuple[float, float, float, float]:
    """(up, down, p_up, q_up) of the recombining lattice with ``up = exp(sigma sqrt(dt))``."""
    up = math.exp(sigma * math.sqrt(dt))
    down = 1.0 / up
    q_up = (math.exp(rate * dt) - down) / (up - down)
    p_up = (math.exp(mu * dt) - down) / (up - down)
    return up, down, p_up, q_up


def binomial_level(i: int, prob: float, log_fact: np.ndarray) -> np.ndarray:
    """P(j up-moves in i steps), j = 0..i, from log-factorials."""
    j = np.arange(i + 1)
    log_w = log_fact[i] - log_fact[j] - log_fact[i - j] + j * math.log(prob) + (i - j) * math.log1p(-prob)
    return np.exp(log_w)


def crra_infinite_value(
    alpha: float,
    discount: float,
    rate: float,
    mu: float,
    sigma: float,
    dt: float,
    horizon: float,
    law: tuple[float, float, float],
    budget: float,
) -> float:
    """Optimal infinite-pool value of power (``alpha`` != 0) or log (``alpha`` = 0) utility."""
    m = int(round(horizon / dt))
    t = np.arange(m) * dt
    pi = gm_survival(law, t)
    _, _, p_up, q_up = branch_probabilities(rate, mu, sigma, dt)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, m + 1)))])
    raw, wp, wq = [], [], []
    for i in range(m):
        j = np.arange(i + 1)
        ratio = (q_up / p_up) ** j * ((1.0 - q_up) / (1.0 - p_up)) ** (i - j)
        raw.append((math.exp((discount - rate) * t[i]) * ratio) ** (1.0 / (alpha - 1.0)))
        wp.append(binomial_level(i, p_up, log_fact))
        wq.append(binomial_level(i, q_up, log_fact))
    cost = sum(dt * math.exp(-rate * t[i]) * pi[i] * (wq[i] @ raw[i]) for i in range(m))
    scale = budget / cost
    total = 0.0
    for i in range(m):
        c = scale * raw[i]
        u = np.log(c) if alpha == 0.0 else c**alpha / alpha
        total += dt * math.exp(-discount * t[i]) * pi[i] * (wp[i] @ u)
    return float(total)
