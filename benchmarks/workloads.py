"""The benchmark's workloads: their inputs, timed calls and checks.

A workload is an ordered list of operations. Each operation is one call
of a public entry point (timed), followed by the checks on its output
(not timed). A pass runs every operation once, in order; later
operations read the outputs of earlier ones from the pass context.
All market, mortality and preference inputs are fixed; ``--seed``
chooses the Monte Carlo seeds handed to the package.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference
from tontine import ez_bsde, market, mortality, optimizer, preferences
from tontine.grid import TimeGrid

RATE, MU, SIGMA = 0.02, 0.05, 0.2
BUDGET = 1.0
HEAVY = (0.0, 0.01, 0.1)
LIGHT = (5e-4, 7e-5, 0.1)
LAM = 0.9
MODEL = market.MarketModel(rate=RATE, mu=(MU,), sigma=(SIGMA,), s0=(1.0,))

POWER = preferences.VnmParams(preferences.PowerUtility(-1.0), 0.02)
LOG = preferences.VnmParams(preferences.LogUtility(), 0.02)
HALF = preferences.VnmParams(preferences.PowerUtility(0.5), 0.02)
EXPO = preferences.VnmParams(preferences.ExponentialUtility(1.0), 0.02)
EZ = preferences.EzParams(risk=-2.0, substitution=0.5, discount=0.03, adequacy=0.05)
EXPKM = preferences.ExpKmParams(preferences.ExponentialUtility(1.0))
# Exponent of each closed-form family in reference.crra_infinite_value (0 = log).
CLOSED_FORM_ALPHA = {POWER: -1.0, LOG: 0.0, HALF: 0.5}

# error_bound_check: truncation level with C_m * dt well below 1 at dt = 0.25,
# and the levels whose tilde_v0 must not increase.
BOUND_LEVEL = 4.0
CONVERGENCE_LEVELS = (1.0, 2.0, 4.0, 8.0)

# End-to-end metric that each group of operations adds its time to.
GROUP_METRICS = {
    "infinite": "infinite_s",
    "finite": "finite_s",
    "monte_carlo": "monte_carlo_s",
    "bound_check": "bound_check_s",
}


@dataclass(frozen=True)
class Op:
    """One timed operation and the checks on its output.

    The operation makes ``repeat`` identical calls, each timed on its own,
    so that a call of a few milliseconds gives several samples a pass; the
    checks run on the last call's output.
    """

    name: str
    group: str
    call: Callable[[dict], object]
    check: Callable[[dict, object], list[str]]
    known_failure: bool = False
    repeat: int = 1


@dataclass(frozen=True)
class Setting:
    """A grid and the mortality law on it."""

    dt: float
    horizon: float
    law: tuple[float, float, float]

    def problem(self, gain, n=math.inf) -> optimizer.HomogeneousProblem:
        grid = TimeGrid(self.dt, self.horizon)
        table = mortality.gompertz_makeham_table(grid, *self.law)
        return optimizer.HomogeneousProblem(gain, table, MODEL, grid, BUDGET, n)


Q40 = Setting(0.25, 40.0, HEAVY)
Q10 = Setting(0.25, 10.0, HEAVY)
A40 = Setting(1.0, 40.0, HEAVY)
A10 = Setting(1.0, 10.0, HEAVY)
A40_LIGHT = Setting(1.0, 40.0, LIGHT)


def mc_seed(seed: int, name: str) -> int:
    """Monte Carlo seed of one operation, derived from the run's seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{name}".encode()).digest()[:4], "little")


class Builder:
    """Collects the operations of one workload over shared problem inputs."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[Op] = []
        self._problems: dict = {}
        self._lattices: dict = {}
        self._annuities: dict = {}
        self._closed_forms: dict = {}

    # -- inputs ---------------------------------------------------------------

    def problem(self, setting: Setting, gain, n=math.inf):
        key = (setting, gain, n)
        if key not in self._problems:
            self._problems[key] = setting.problem(gain, n)
        return self._problems[key]

    def lattice(self, setting: Setting) -> market.Lattice:
        if setting not in self._lattices:
            self._lattices[setting] = market.build_lattice(MODEL, TimeGrid(setting.dt, setting.horizon))
        return self._lattices[setting]

    def annuity(self, setting: Setting, gain) -> float:
        key = (setting, gain)
        if key not in self._annuities:
            self._annuities[key] = optimizer.annuity_value(self.problem(setting, gain))
        return self._annuities[key]

    def closed_form(self, setting: Setting, gain) -> float:
        """Infinite-pool optimum of a power or log gain, computed in reference.py."""
        key = (setting, gain)
        if key not in self._closed_forms:
            alpha, discount = CLOSED_FORM_ALPHA[gain], gain.discount
            self._closed_forms[key] = reference.crra_infinite_value(
                alpha, discount, RATE, MU, SIGMA, setting.dt, setting.horizon, setting.law, BUDGET
            )
        return self._closed_forms[key]

    # -- operations -------------------------------------------------------------

    def infinite(self, key: str, setting: Setting, gain, repeat: int = 1) -> None:
        """Both infinite-pool routes, each called on its own."""
        prob = self.problem(setting, gain)
        lattice = self.lattice(setting)
        dp_name, mart_name = f"{key}.infinite.dp", f"{key}.infinite.martingale"
        alpha = CLOSED_FORM_ALPHA.get(gain)

        def check_dp(ctx, res):
            out = checks.at_least(f"{dp_name} >= annuity", res.value, self.annuity(setting, gain))
            if alpha is not None:
                reference_value = self.closed_form(setting, gain)
                out += checks.close(f"{dp_name} vs closed form", res.value, reference_value, checks.CLOSED_FORM_RTOL)
            return out

        def check_mart(ctx, res):
            stream = res.extras["stream"]
            pi = prob.table.pi[: prob.grid.n_steps]
            price = market.q_price([pi[i] * stream[i] for i in range(len(stream))], lattice)
            budget_rtol = checks.BUDGET_RTOL_NUMERIC if alpha is None else checks.BUDGET_RTOL_CLOSED
            out = checks.at_least(f"{mart_name} >= annuity", res.value, self.annuity(setting, gain))
            out += checks.close(f"{mart_name} q_price", price, BUDGET, budget_rtol)
            out += checks.close(
                f"{mart_name} replication wealth", res.extras["replication"].initial_budget, BUDGET, budget_rtol
            )
            out += checks.close(
                f"{mart_name} re-evaluated", evaluate_stream(gain, stream, prob.table, lattice), res.value,
                checks.REEVALUATION_RTOL,
            )
            dp_value = ctx[dp_name].value
            if alpha is None:
                out += checks.close(f"{key} DP vs pricing route", dp_value, res.value, checks.GRID_ROUTE_RTOL)
            else:
                reference_value = self.closed_form(setting, gain)
                out += checks.close(f"{mart_name} vs closed form", res.value, reference_value, checks.CLOSED_FORM_RTOL)
                out += checks.close(f"{key} DP vs pricing route", dp_value, res.value, checks.CLOSED_FORM_RTOL)
            return out

        self.ops.append(
            Op(
                dp_name, "infinite", lambda ctx: optimizer.solve_infinite(prob, methods=("dp",)), check_dp,
                repeat=repeat,
            )
        )
        self.ops.append(
            Op(
                mart_name, "infinite", lambda ctx: optimizer.solve_infinite(prob, methods=("martingale",)), check_mart,
                repeat=repeat,
            )
        )

    def finite(self, key: str, setting: Setting, gain, sizes: tuple[int, ...], repeat: int = 1) -> None:
        """Finite pools of increasing size; values must rise toward both infinite routes."""
        names = [f"{key}.finite.n{n}" for n in sizes]
        for k, n in enumerate(sizes):
            prob = self.problem(setting, gain, n)

            def check(ctx, res, k=k):
                below = [ctx[names[k - 1]].value] if k else []
                out = []
                for route in ("dp", "martingale"):
                    top = ctx[f"{key}.infinite.{route}"].value
                    out += checks.nondecreasing(f"{names[k]} <= V(inf, {route})", below + [res.value, top])
                return out

            self.ops.append(
                Op(names[k], "finite", lambda ctx, prob=prob: optimizer.solve_finite_dp(prob), check, repeat=repeat)
            )

    def simulate(self, key: str, setting: Setting, gain, n, trials: int) -> None:
        """Re-simulate a DP policy; the estimate must match the DP value."""
        source = f"{key}.finite.n{n}" if math.isfinite(n) else f"{key}.infinite.dp"
        name = f"{key}.simulate.{'n%d' % n if math.isfinite(n) else 'inf'}"
        prob = self.problem(setting, gain, n)
        seed = mc_seed(self.seed, name)

        def check(ctx, res):
            return checks.within_standard_errors(name, res[0], res[1], ctx[source].value)

        self.ops.append(
            Op(
                name,
                "monte_carlo",
                lambda ctx: optimizer.simulate_policy_value(prob, ctx[source].strategy, trials, seed),
                check,
            )
        )

    def transfer(self, key: str, setting: Setting, gain, n: int, trials: int, chain_check: bool) -> None:
        """Run the scaled pricing stream of ``key`` in a pool of ``n``, valued with ``gain``."""
        source = f"{key}.infinite.martingale"
        name = f"{key}.transfer.{gain.utility.__class__.__name__}.n{n}"
        prob = self.problem(setting, gain)
        seed = mc_seed(self.seed, name)

        def call(ctx):
            extras = ctx[source].extras
            return optimizer.transfer_infinite_to_finite(
                extras["stream"], extras["replication"], LAM, n, prob, trials, seed
            )

        def check(ctx, res):
            out = checks.within_standard_errors(name, res.gain_estimate, res.gain_se, res.exact_gain)
            out += checks.equals(f"{name} admissibility violations", res.admissibility_violations, 0)
            out += checks.at_least(f"{name} target_gain >= exact_gain", res.target_gain, res.exact_gain)
            if chain_check:
                chain = mortality.bound_chain(n, prob.table, LAM)
                out += checks.chain_rows(f"bound_chain n={n}", chain.count, n, prob.table.pi[: prob.grid.n_steps])
            return out

        self.ops.append(Op(name, "monte_carlo", call, check))

    def error_bound(self, key: str, setting: Setting, n: int, repeat: int = 1) -> None:
        """The transfer error bound for the scaled pricing stream of ``key``."""
        source = f"{key}.infinite.martingale"
        name = f"{key}.error_bound.n{n}"
        table = self.problem(setting, EZ).table
        lattice = self.lattice(setting)

        def call(ctx):
            return ez_bsde.error_bound_check(EZ, BOUND_LEVEL, ctx[source].extras["stream"], LAM, n, table, lattice)

        def check(ctx, res):
            scaled = [LAM * np.asarray(level) for level in ctx[source].extras["stream"]]
            rows = ez_bsde.convergence_in_m(EZ, scaled, table, CONVERGENCE_LEVELS, lattice)
            out = checks.holds(f"{name} gap^2 <= bound", res.holds)
            out += checks.nonincreasing(f"{name} tilde_v0 over levels", [row.tilde_v0 for row in rows])
            return out

        self.ops.append(Op(name, "bound_check", call, check, repeat=repeat))

    def capped_ez(self, key: str, setting: Setting) -> None:
        """EZ infinite DP that returns the value cap: fails today, counted as failed."""
        prob = self.problem(setting, EZ)
        name = f"{key}.infinite.dp"
        cap = -1e-12 * abs(EZ.adequacy_value)

        def check(ctx, res):
            out = checks.not_at_cap(name, res.value, cap)
            out += checks.at_least(f"{name} >= annuity", res.value, self.annuity(setting, EZ))
            return out

        self.ops.append(
            Op(name, "infinite", lambda ctx: optimizer.solve_infinite(prob, methods=("dp",)), check, known_failure=True)
        )


def evaluate_stream(gain, stream, table, lattice) -> float:
    """Value of a node-adapted stream by the preferences module's evaluator."""
    if isinstance(gain, preferences.VnmParams):
        return preferences.vnm_value_on_lattice(gain, stream, table, lattice)
    if isinstance(gain, preferences.EzParams):
        return preferences.ez_utility_discrete(gain, stream, table, lattice)
    return preferences.exp_km_value_on_lattice(gain, stream, table, lattice)


def scaling_desk(b: Builder) -> None:
    for key, gain in (("power.q40", POWER), ("log.q40", LOG)):
        b.infinite(key, Q40, gain, repeat=10)
    for key, gain in (("power.q40", POWER), ("log.q40", LOG)):
        b.finite(key, Q40, gain, (64, 512))
    b.infinite("half.q40", Q40, HALF, repeat=10)
    b.simulate("power.q40", Q40, POWER, 64, 8000)
    b.simulate("power.q40", Q40, POWER, math.inf, 8000)
    b.transfer("half.q40", Q40, HALF, 64, 8000, chain_check=True)
    b.infinite("half.q10", Q10, HALF, repeat=10)
    b.error_bound("half.q10", Q10, 128, repeat=2)


def ez_grid(b: Builder) -> None:
    b.infinite("ez.a10", A10, EZ)
    b.infinite("expkm.a10", A10, EXPKM)
    b.finite("ez.a10", A10, EZ, (4, 8))
    b.capped_ez("ez-light.a40", A40_LIGHT)
    b.infinite("half.a10", A10, HALF)
    b.finite("half.a10", A10, HALF, (8,))
    b.simulate("half.a10", A10, HALF, 8, 100000)
    b.simulate("half.a10", A10, HALF, math.inf, 100000)
    b.transfer("half.a10", A10, HALF, 8, 100000, chain_check=True)
    b.infinite("half.q10", Q10, HALF)
    b.error_bound("half.q10", Q10, 128, repeat=2)


def transfer_mc(b: Builder) -> None:
    b.infinite("half.a40", A40, HALF, repeat=10)
    b.finite("half.a40", A40, HALF, (64,), repeat=6)
    b.infinite("half.q40", Q40, HALF, repeat=10)
    b.finite("half.q40", Q40, HALF, (64,), repeat=6)
    for n in (64, 512):
        b.transfer("half.a40", A40, HALF, n, 20000, chain_check=True)
        b.transfer("half.a40", A40, EXPO, n, 20000, chain_check=False)
    b.simulate("half.a40", A40, HALF, 64, 20000)
    b.simulate("half.a40", A40, HALF, math.inf, 20000)
    b.infinite("half.q10", Q10, HALF, repeat=10)
    b.error_bound("half.q10", Q10, 128)


WORKLOADS = {"scaling-desk": scaling_desk, "ez-grid": ez_grid, "transfer-mc": transfer_mc}


def build(workload: str, seed: int) -> list[Op]:
    """Inputs and operations of a workload; builds every problem and lattice."""
    b = Builder(seed)
    WORKLOADS[workload](b)
    return b.ops


def warm_up() -> None:
    """Call each entry point once on a 4-step problem, loading what they load lazily."""
    tiny = Setting(0.25, 1.0, HEAVY)
    b = Builder(0)
    b.infinite("half", tiny, HALF)
    b.infinite("ez", tiny, EZ)
    b.finite("half", tiny, HALF, (4,))
    b.simulate("half", tiny, HALF, 4, 100)
    b.transfer("half", tiny, HALF, 4, 100, chain_check=False)
    b.error_bound("half", tiny, 4)
    ctx: dict = {}
    for op in b.ops:
        ctx[op.name] = op.call(ctx)
