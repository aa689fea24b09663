"""Runs one workload in one process: set-up, passes, checks, metrics.

Started by run.py, which pins the BLAS thread pools to one thread before
this process imports numpy. Prints a human-readable report and, as its
last line, a JSON object that run.py completes and passes on.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import gzip
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402  (the package path is set just above)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tontine import ez_bsde, fund, market, mortality, optimizer, preferences  # noqa: E402

MODULES = {m.__name__.rsplit(".", 1)[-1]: m for m in (market, mortality, fund, preferences, optimizer, ez_bsde)}

# Per-layer metrics reported by the traced run: name -> (unit, how it is read
# from a pass summary).  "self" is the summed self time of the spans of that
# name under entry points, "calls" their number, "count" a counter.
PER_LAYER = {
    "mortality.binomial_transition_matrix.calls": ("count", "calls"),
    "mortality.binomial_transition_matrix.self_s": ("s", "self"),
    "mortality.binomial_transition_matrix.bytes": ("B", "count"),
    "mortality.bound_chain.self_s": ("s", "self"),
    "mortality.simulate_survivor_counts.self_s": ("s", "self"),
    "market.build_lattice.calls": ("count", "calls"),
    "market.Lattice.node_weights.calls": ("count", "calls"),
    "market.Lattice.node_weights.self_s": ("s", "self"),
    "market.replicate.self_s": ("s", "self"),
    "market.sample_lattice_paths.self_s": ("s", "self"),
    "preferences.vnm_value_on_lattice.self_s": ("s", "self"),
    "preferences.ez_utility_discrete.self_s": ("s", "self"),
    "preferences.exp_km_value_on_lattice.self_s": ("s", "self"),
    "optimizer.solve_finite_dp.self_s": ("s", "self"),
    "optimizer.solve_infinite.dp.self_s": ("s", "self"),
    "optimizer.solve_infinite.martingale.self_s": ("s", "self"),
    "optimizer.golden_max_vec.calls": ("count", "calls"),
    "optimizer.golden_max_vec.evals": ("count", "count"),
    "optimizer.golden_max_vec.edge_hits": ("count", "count"),
    "optimizer.golden_max_vec.self_s": ("s", "self"),
    "optimizer.PchipInterpolator.builds": ("count", "count"),
    "optimizer.PchipInterpolator.evals": ("count", "count"),
    "optimizer.PchipInterpolator.s": ("s", "self"),
    "optimizer.PchipInterpolator.clamped_points": ("count", "count"),
    "optimizer.pricing_minimize.nit": ("count", "count"),
    "optimizer.pricing_minimize.nfev": ("count", "count"),
    "optimizer.pricing_minimize.self_s": ("s", "self"),
    "optimizer.transfer_infinite_to_finite.self_s": ("s", "self"),
    "optimizer.simulate_policy_value.self_s": ("s", "self"),
    "fund.evolve_finite.self_s": ("s", "self"),
    "fund.evolve_infinite.self_s": ("s", "self"),
    "ez_bsde.error_bound_check.self_s": ("s", "self"),
    "ez_bsde.solve_transfer_pair.self_s": ("s", "self"),
    "ez_bsde.solve_truncated.calls": ("count", "calls"),
    "ez_bsde.solve_truncated.iterations_max": ("count", "count"),
}


def layer_value(summary: dict, metric: str, how: str) -> float:
    if how == "count":
        return float(summary["counts"].get(metric, 0.0))
    layer = summary["layers"].get(metric.rsplit(".", 1)[0], {"calls": 0, "self_s": 0.0})
    return float(layer["calls"] if how == "calls" else layer["self_s"])


def run_pass(ops) -> dict:
    """Run every operation once; time each call, then check the outputs.

    A speed sample (calibration.py) is taken just before each operation.
    """
    ctx: dict = {}
    record = {"times": {}, "calls": {}, "chunk_s": [], "failures": {}, "failed": 0, "unexpected": 0}
    for op in ops:
        record["chunk_s"].append(calibration.sample())
        calls: list[float] = []
        try:
            for _ in range(op.repeat):
                t0 = time.perf_counter()
                try:
                    out = op.call(ctx)
                finally:
                    calls.append(time.perf_counter() - t0)
            error = None
        except Exception as exc:  # a raising call is a failed operation, not a crash
            out, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
        record["times"][op.name] = sum(calls)
        record["calls"][op.name] = calls
        ctx[op.name] = out
        if error is None:
            try:
                messages = op.check(ctx, out)
            except Exception as exc:
                messages = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        else:
            messages = [error]
        if messages:
            record["failures"][op.name] = messages
            record["failed"] += 1
            record["unexpected"] += 0 if op.known_failure else 1
    return record


def median_group_times(ops, records, scaled: bool = True) -> dict[str, float]:
    """Time per pass of each group, from median call times.

    Each operation contributes its number of calls per pass times the
    median of its call times over every pass of the run, so an operation
    made of many short calls gives a median over all of them rather than
    over a handful of passes. With ``scaled``, each call time is first
    brought to the reference speed by the local speed around its operation.
    """
    speeds = calibration.local_speeds([c for r in records for c in r["chunk_s"]])
    sums = dict.fromkeys(workloads.GROUP_METRICS, 0.0)
    for i, op in enumerate(ops):
        samples = [
            calibration.normalise(t, speeds[k * len(ops) + i]) if scaled else t
            for k, r in enumerate(records)
            for t in r["calls"][op.name]
        ]
        sums[op.group] += op.repeat * statistics.median(samples)
    return sums


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "check", "time", "trace"), required=True)
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    setup_raw_s = time.perf_counter() - START
    setup_chunk_s = statistics.median(calibration.sample() for _ in range(2 * calibration.WINDOW + 1))
    setup = {"setup_s": calibration.normalise(setup_raw_s, setup_chunk_s), "raw_s": setup_raw_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    records, summaries, last_spans = [], [], []
    begin = time.perf_counter()
    while True:
        traced = args.mode == "trace" and len(records) % 2 == 1
        if traced:
            tr = tracing.Tracer()
            with tracing.instrument(tr, MODULES):
                record = run_pass(ops)
            summaries.append(tracing.summarize(tr))
            last_spans = tr.spans
        else:
            record = run_pass(ops)
        record["traced"] = traced
        records.append(record)
        done = time.perf_counter() - begin >= args.seconds
        if args.mode == "check" or (done and (args.mode == "time" or len(records) >= 2)):
            break

    attempted = len(records) * len(ops)
    failed = sum(r["failed"] for r in records)
    correct = all(r["unexpected"] == 0 for r in records)
    metrics: dict[str, dict] = {}
    notes: list[str] = []
    plain = [r for r in records if not r["traced"]]
    if args.mode == "time":
        raw = median_group_times(ops, plain, scaled=False)
        for group, value in median_group_times(ops, plain).items():
            metrics[workloads.GROUP_METRICS[group]] = {"value": value, "unit": "s"}
            notes.append(f"  {group + ' wall time, not scaled':<48} {raw[group]:>14.6g} s")
        chunks = [c for r in plain for c in r["chunk_s"]]
        notes.append(f"  {'speed sample (median)':<48} {statistics.median(chunks):>14.6g} s")
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    elif args.mode == "trace":
        for name, (unit, how) in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(layer_value(s, name, how) for s in summaries), "unit": unit}
        traced_totals = [sum(r["times"].values()) for r in records if r["traced"]]
        plain_totals = [sum(r["times"].values()) for r in plain]
        entry_wall = [sum(e["wall_s"] for e in s["entries"].values()) for s in summaries]
        entry_self = [sum(sum(e["self_s"].values()) for e in s["entries"].values()) for s in summaries]
        overhead = statistics.median(traced_totals) - statistics.median(plain_totals)
        metrics["trace.entry_wall_s"] = {"value": statistics.median(entry_wall), "unit": "s"}
        metrics["trace.accounted_share"] = {"value": sum(entry_self) / sum(entry_wall), "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / statistics.median(plain_totals), "unit": "ratio"}

    report(args, ops, records, summaries, metrics, notes, attempted, failed, correct)
    write_raw(args, ops, records, summaries, last_spans, setup)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.mode == "time":
        result["setup"] = setup
    print(json.dumps(result))
    return 0


def report(args, ops, records, summaries, metrics, notes, attempted, failed, correct) -> None:
    """Human-readable lines; run.py prints the JSON result after them."""
    print(f"workload {args.workload}  seed {args.seed}  mode {args.mode}  passes {len(records)}")
    print(f"  operations attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    seen = set()
    for r in records:
        for name, messages in r["failures"].items():
            for msg in messages:
                if msg not in seen:
                    seen.add(msg)
                    known = next(op.known_failure for op in ops if op.name == name)
                    print(f"  {'known failure' if known else 'FAILED'}: {msg}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(line)
    if summaries:
        last = summaries[-1]["entries"]
        print("  self time under each entry point (last traced pass):")
        for entry, e in sorted(last.items()):
            total = sum(e["self_s"].values())
            print(f"    {entry}  calls {e['calls']}  wall {e['wall_s']:.4f} s  summed self {total:.4f} s")
            for layer, s in sorted(e["self_s"].items(), key=lambda kv: -kv[1]):
                print(f"      {layer:<46} {s:.4f} s")


def write_raw(args, ops, records, summaries, spans, setup) -> None:
    """Per-pass timings, failures and trace summaries; spans of the last traced pass."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.mode}"
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup": setup,
        "reference_s": calibration.REFERENCE_S,
        "operations": [{"name": op.name, "group": op.group, "known_failure": op.known_failure} for op in ops],
        "passes": records,
        "trace_summaries": summaries,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(raw, indent=1, default=float))
    if spans:
        with gzip.open(OUT_DIR / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
