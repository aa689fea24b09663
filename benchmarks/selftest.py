"""Self-test of the benchmark: its checks catch perturbed outputs, its tracer adds up.

Run from the root of the repository:

    python3 benchmarks/selftest.py

Each case runs a workload's real check on a real (small) solver output,
confirms it passes, then perturbs one value and confirms the check fails.
The tracer cases check the self-time arithmetic on a synthetic nested
call with a scripted clock, and that instrumenting the package accounts
for every traced second and restores the package afterwards. Exits 1 if
any case fails.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import calibration
import checks
import tracer as tracing
import worker
import workloads as wl
from tontine import ez_bsde, fund, market, mortality, optimizer, preferences

TINY = wl.Setting(0.25, 2.0, wl.HEAVY)
CASES = []


class SelfTestFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def case(fn):
    CASES.append(fn)
    return fn


def run_ops(builder: wl.Builder) -> tuple[dict, dict]:
    """Run every operation once; return the context and the ops by name."""
    ctx: dict = {}
    for op in builder.ops:
        ctx[op.name] = op.call(ctx)
    return ctx, {op.name: op for op in builder.ops}


def passes_then_fails(op, ctx, good, bad, needle: str) -> None:
    """The check passes on ``good`` and reports ``needle`` on ``bad``."""
    ok = op.check(ctx, good)
    expect(ok == [], f"{op.name}: check fails on the unperturbed output: {ok}")
    messages = op.check(ctx, bad)
    expect(any(needle in m for m in messages), f"{op.name}: perturbation not caught ({needle!r}); got {messages}")


def with_value(result, value):
    return dataclasses.replace(result, value=value)


# -- checks on infinite-pool routes --------------------------------------------


@case
def closed_form_routes():
    b = wl.Builder(1)
    b.infinite("power", TINY, wl.POWER)
    ctx, ops = run_ops(b)
    dp, mart = ops["power.infinite.dp"], ops["power.infinite.martingale"]
    res = ctx[dp.name]
    passes_then_fails(dp, ctx, res, with_value(res, res.value * (1 + 1e-6)), "vs closed form")
    passes_then_fails(dp, ctx, res, with_value(res, wl.Builder(1).annuity(TINY, wl.POWER) - 1.0), ">= annuity")
    res = ctx[mart.name]
    scaled = dict(res.extras, stream=[1.01 * level for level in res.extras["stream"]])
    passes_then_fails(mart, ctx, res, dataclasses.replace(res, extras=scaled), "q_price")
    original = res.extras["replication"]
    rep = dict(res.extras, replication=market.replicate([1.01 * c for c in original.cashflow], original.lattice))
    passes_then_fails(mart, ctx, res, dataclasses.replace(res, extras=rep), "replication wealth")
    passes_then_fails(mart, ctx, res, with_value(res, res.value * (1 + 1e-6)), "re-evaluated")
    ctx_bad = dict(ctx, **{dp.name: with_value(ctx[dp.name], ctx[dp.name].value * (1 + 1e-6))})
    expect(any("DP vs pricing route" in m for m in mart.check(ctx_bad, res)), "power routes: DP shift not caught")


@case
def grid_routes_agree():
    b = wl.Builder(1)
    b.infinite("ez", TINY, wl.EZ)
    ctx, ops = run_ops(b)
    mart = ops["ez.infinite.martingale"]
    res = ctx[mart.name]
    expect(mart.check(ctx, res) == [], f"ez routes: {mart.check(ctx, res)}")
    far = with_value(ctx["ez.infinite.dp"], res.value * (1 - 2 * checks.GRID_ROUTE_RTOL))
    ctx_bad = dict(ctx, **{"ez.infinite.dp": far})
    expect(any("DP vs pricing route" in m for m in mart.check(ctx_bad, res)), "ez routes: 2% gap not caught")
    scaled = dict(res.extras, stream=[1.01 * level for level in res.extras["stream"]])
    expect(any("q_price" in m for m in mart.check(ctx, dataclasses.replace(res, extras=scaled))), "ez q_price")


@case
def finite_ordering():
    b = wl.Builder(1)
    b.infinite("half", TINY, wl.HALF)
    b.finite("half", TINY, wl.HALF, (4, 8))
    ctx, ops = run_ops(b)
    op = ops["half.finite.n8"]
    res = ctx[op.name]
    passes_then_fails(op, ctx, res, with_value(res, ctx["half.finite.n4"].value - 1e-6), "<= V(inf")
    passes_then_fails(op, ctx, res, with_value(res, ctx["half.infinite.dp"].value + 1e-6), "<= V(inf")


@case
def capped_value():
    b = wl.Builder(1)
    b.capped_ez("ez-light", wl.Setting(1.0, 10.0, wl.LIGHT))
    (op,) = b.ops
    cap = -1e-12 * abs(wl.EZ.adequacy_value)
    expect(op.known_failure, "the capped EZ operation is not marked as a known failure")
    passes_then_fails(op, {}, SimpleNamespace(value=-1.0), SimpleNamespace(value=cap), "value cap")


# -- Monte Carlo checks -----------------------------------------------------------


@case
def transfer_checks():
    b = wl.Builder(1)
    b.infinite("half", TINY, wl.HALF)
    b.transfer("half", TINY, wl.EXPO, 8, 4000, chain_check=True)
    ctx, ops = run_ops(b)
    op = ops["half.transfer.ExponentialUtility.n8"]
    res = ctx[op.name]
    shifted = dataclasses.replace(res, gain_estimate=res.exact_gain + 5 * res.gain_se)
    passes_then_fails(op, ctx, res, shifted, "se from")
    passes_then_fails(op, ctx, res, dataclasses.replace(res, admissibility_violations=1), "admissibility")
    above = dataclasses.replace(res, exact_gain=res.target_gain + 1e-9, gain_estimate=res.target_gain)
    passes_then_fails(op, ctx, res, above, "target_gain >= exact_gain")


@case
def simulate_checks():
    b = wl.Builder(1)
    b.infinite("half", TINY, wl.HALF)
    b.simulate("half", TINY, wl.HALF, math.inf, 4000)
    ctx, ops = run_ops(b)
    op = ops["half.simulate.inf"]
    est, se = ctx[op.name]
    exact = ctx["half.infinite.dp"].value
    passes_then_fails(op, ctx, (est, se), (exact + 5 * se, se), "se from")


@case
def chain_rows():
    prob = wl.Builder(1).problem(wl.Setting(1.0, 10.0, wl.HEAVY), wl.HALF)
    pi = prob.table.pi[: prob.grid.n_steps]
    count = mortality.bound_chain(16, prob.table, wl.LAM).count
    expect(checks.chain_rows("chain", count, 16, pi) == [], "bound_chain rows fail unperturbed")
    leaky = count.copy()
    leaky[3] *= 0.999
    expect(any("row sums" in m for m in checks.chain_rows("chain", leaky, 16, pi)), "lost mass not caught")
    shifted = count.copy()
    shifted[3] = np.roll(shifted[3], -1)
    expect(any("row means" in m for m in checks.chain_rows("chain", shifted, 16, pi)), "shifted mean not caught")


@case
def error_bound_checks():
    b = wl.Builder(1)
    b.infinite("half", TINY, wl.HALF)
    b.error_bound("half", TINY, 4)
    ctx, ops = run_ops(b)
    op = ops["half.error_bound.n4"]
    res = ctx[op.name]
    passes_then_fails(op, ctx, res, dataclasses.replace(res, holds=False), "gap^2 <= bound")
    expect(checks.nonincreasing("v", [3.0, 2.0, 2.0]) == [], "nonincreasing rejects a nonincreasing list")
    expect(checks.nonincreasing("v", [3.0, 2.0, 2.5]) != [], "an increase in tilde_v0 not caught")


@case
def reference_closed_form_is_independent():
    # The reference and the package agree, and the reference moves with its inputs.
    prob = wl.Builder(1).problem(TINY, wl.LOG)
    value = optimizer.solve_infinite(prob, methods=("martingale",)).value
    ref = wl.reference.crra_infinite_value(0.0, 0.02, wl.RATE, wl.MU, wl.SIGMA, 0.25, 2.0, wl.HEAVY, 1.0)
    expect(abs(value - ref) <= 1e-12 * abs(ref), f"log closed form {value} vs reference {ref}")
    ref_rich = wl.reference.crra_infinite_value(0.0, 0.02, wl.RATE, wl.MU, wl.SIGMA, 0.25, 2.0, wl.HEAVY, 1.01)
    expect(checks.close("x", value, ref_rich, checks.CLOSED_FORM_RTOL) != [], "a 1% budget change not caught")


# -- timing -------------------------------------------------------------------------


@case
def group_times_from_median_calls():
    ops = [wl.Op("a", "finite", None, None, repeat=3), wl.Op("b", "finite", None, None), wl.Op("c", "infinite", None, None)]
    ref = calibration.REFERENCE_S

    def records(slowdown):
        calls = [{"a": [1.0, 9.0, 2.0], "b": [0.5], "c": [4.0]}, {"a": [3.0, 2.0, 2.0], "b": [0.7], "c": [5.0]}]
        return [
            {"calls": {k: [slowdown * t for t in v] for k, v in c.items()}, "chunk_s": [slowdown * ref] * len(ops)}
            for c in calls
        ]

    # a: 3 calls x median(1, 9, 2, 3, 2, 2) = 6; b: median(0.5, 0.7) = 0.6; c: 4.5
    for slowdown in (1.0, 1.5):
        got = worker.median_group_times(ops, records(slowdown))
        expect(abs(got["finite"] - 6.6) < 1e-12, f"finite {got} at slowdown {slowdown}")
        expect(abs(got["infinite"] - 4.5) < 1e-12, f"infinite {got} at slowdown {slowdown}")
        expect(got["monte_carlo"] == 0.0 and got["bound_check"] == 0.0, f"empty groups {got}")
    raw = worker.median_group_times(ops, records(1.5), scaled=False)
    expect(abs(raw["finite"] - 9.9) < 1e-12, f"unscaled {raw}")
    speeds = calibration.local_speeds([1.0, 2.0, 100.0, 3.0, 4.0], window=1)
    expect(speeds == [1.5, 2.0, 3.0, 4.0, 3.5], f"local speeds {speeds}")
    expect(0.0 < calibration.sample() < 1.0, "speed sample")


# -- tracer -------------------------------------------------------------------------


@case
def tracer_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    entry = tracing.ENTRY_SPANS[0]
    with tr.span(entry):  # [0, 10]
        with tr.span("layer.b"):  # [1, 4]
            with tr.span("layer.c"):  # [2, 3]
                tr.add("layer.c.count", 2)
        with tr.span("layer.d"):  # [5, 9]
            pass
    with tr.span("checks"):  # [11, 12]: outside every entry point
        tr.add("layer.c.count", 100)
    expect(tracing.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0, 1.0], f"self times {tracing.self_times(tr.spans)}")
    summary = tracing.summarize(tr)
    e = summary["entries"][entry]
    expect(e["wall_s"] == 10.0 and sum(e["self_s"].values()) == 10.0, f"accounting {e}")
    expect("checks" not in summary["layers"], "a span outside the entry points was counted")
    expect(summary["counts"] == {"layer.c.count": 2}, f"counters {summary['counts']}")


@case
def instrumented_package_accounts_and_restores():
    modules = {"market": market, "mortality": mortality, "fund": fund, "preferences": preferences,
               "optimizer": optimizer, "ez_bsde": ez_bsde}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    node_weights = market.Lattice.node_weights
    b = wl.Builder(1)
    b.infinite("ez", TINY, wl.EZ)
    b.finite("ez", TINY, wl.EZ, (2,))
    b.infinite("half", TINY, wl.HALF)
    b.transfer("half", TINY, wl.HALF, 8, 200, chain_check=False)
    b.error_bound("half", TINY, 4)
    tr = tracing.Tracer()
    with tracing.instrument(tr, modules):
        run_ops(b)
    summary = tracing.summarize(tr)
    for entry, e in summary["entries"].items():
        total = sum(e["self_s"].values())
        expect(abs(total - e["wall_s"]) <= 1e-9 * max(e["wall_s"], 1.0), f"{entry}: self {total} vs wall {e['wall_s']}")
    expect(set(summary["entries"]) == set(tracing.ENTRY_SPANS) - {"optimizer.simulate_policy_value"},
           f"entries {sorted(summary['entries'])}")
    counts = summary["counts"]
    expect(counts["optimizer.golden_max_vec.evals"] > 0, f"{counts}")
    expect(counts["optimizer.PchipInterpolator.builds"] > 0, f"{counts}")
    expect(counts["optimizer.pricing_minimize.nfev"] > 0, f"{counts}")
    after = {name: dict(vars(m)) for name, m in modules.items()}
    expect(all(after[name][k] is v for name in before for k, v in before[name].items()), "package not restored")
    expect(market.Lattice.node_weights is node_weights, "Lattice.node_weights not restored")


def main() -> int:
    failed = 0
    for fn in CASES:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL  {fn.__name__}")
            traceback.print_exc()
    print(f"{len(CASES) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
