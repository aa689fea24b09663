"""Spans recorded around the package's public functions, from outside it.

``instrument`` replaces each traced function, in every package module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent) in a ``Tracer``; leaving the context restores the originals.
Counts that a span alone cannot give (bytes of a transition matrix,
objective calls of a line search, iterations of a solver) are recorded
by the same wrappers.

A span's self time is its duration minus the durations of its child
spans. Calls are single-threaded and nest, so children never overlap
and the self times of a span's subtree add up to the span's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType

import numpy as np

# Public entry points: the roots whose subtrees the per-layer figures cover.
ENTRY_SPANS = (
    "optimizer.solve_infinite.dp",
    "optimizer.solve_infinite.martingale",
    "optimizer.solve_finite_dp",
    "optimizer.transfer_infinite_to_finite",
    "optimizer.simulate_policy_value",
    "ez_bsde.error_bound_check",
)

# A line search "hits the edge" when its answer lies this close to a bracket end.
EDGE_RTOL = 1e-6


class Tracer:
    """In-memory span log plus named counters; one per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _in_entry(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] in ENTRY_SPANS

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter; only work under an entry point is counted."""
        if self._in_entry():
            self.counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        if self._in_entry():
            self.counts[key] = max(self.counts.get(key, value), value)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer) -> dict:
    """Per-layer figures of the spans under entry points, plus accounting.

    Returns ``layers`` (name -> calls and self seconds), ``entries``
    (entry name -> wall seconds and the layer self times in its subtree)
    and the counters.  Spans outside every entry point (the benchmark's
    own checks) are left out.
    """
    spans = tracer.spans
    own = self_times(spans)
    root = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    entries: dict[str, dict] = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": defaultdict(float)})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = spans[root[i]][0]
        if entry not in ENTRY_SPANS:
            continue
        layers[name]["calls"] += 1
        layers[name]["self_s"] += own[i]
        entries[entry]["self_s"][name] += own[i]
        if parent < 0:
            entries[entry]["calls"] += 1
            entries[entry]["wall_s"] += end - start
    return {"layers": dict(layers), "entries": dict(entries), "counts": dict(tracer.counts)}


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


class _TracedInterpolator:
    """Wraps one PCHIP interpolant: evaluations become spans and are counted."""

    def __init__(self, tracer: Tracer, inner, x: np.ndarray):
        self._tracer = tracer
        self._inner = inner
        span = float(x[-1] - x[0])
        self._lo = float(x[0]) + 1e-12 * span
        self._hi = float(x[-1]) - 1e-12 * span

    def __call__(self, x, *args, **kwargs):
        tracer = self._tracer
        idx = tracer.begin("optimizer.PchipInterpolator")
        try:
            out = self._inner(x, *args, **kwargs)
        finally:
            tracer.end(idx)
        xs = np.asarray(x)
        tracer.add("optimizer.PchipInterpolator.evals", xs.size)
        tracer.add("optimizer.PchipInterpolator.clamped_points", np.count_nonzero((xs <= self._lo) | (xs >= self._hi)))
        return out


class _ModuleProxy:
    """Stands in for a module with some attributes replaced."""

    def __init__(self, module: ModuleType, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrument(tracer: Tracer, tontine: dict[str, ModuleType]):
    """Trace the package's public layers while the context is open.

    ``tontine`` maps the short module names (``market``, ``mortality``,
    ``fund``, ``preferences``, ``optimizer``, ``ez_bsde``) to the modules.
    """
    market, mortality, fund = tontine["market"], tontine["mortality"], tontine["fund"]
    preferences, optimizer, ez_bsde = tontine["preferences"], tontine["optimizer"], tontine["ez_bsde"]
    modules = list(tontine.values())
    undo: list[tuple[object, str, object]] = []

    def replace(original, replacement):
        for module in modules:
            for attr in [k for k, v in vars(module).items() if v is original]:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)

    def trace(module, attr, after=None):
        fn = getattr(module, attr)
        replace(fn, _spanned(tracer, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", fn, after))

    def matrix_bytes(args, kwargs, out):
        tracer.add("mortality.binomial_transition_matrix.bytes", (args[0] + 1) ** 2 * 8)

    def truncated_iterations(args, kwargs, out):
        tracer.maximum("ez_bsde.solve_truncated.iterations_max", out.iterations_max)

    trace(mortality, "binomial_transition_matrix", matrix_bytes)
    trace(mortality, "bound_chain")
    trace(mortality, "simulate_survivor_counts")
    trace(market, "build_lattice")
    trace(market, "replicate")
    trace(market, "sample_lattice_paths")
    for attr in ("vnm_value_on_lattice", "ez_utility_discrete", "exp_km_value_on_lattice"):
        trace(preferences, attr)
    trace(fund, "evolve_finite")
    trace(fund, "evolve_infinite")
    trace(optimizer, "solve_finite_dp")
    trace(optimizer, "transfer_infinite_to_finite")
    trace(optimizer, "simulate_policy_value")
    trace(ez_bsde, "error_bound_check")
    trace(ez_bsde, "solve_transfer_pair")
    trace(ez_bsde, "solve_truncated", truncated_iterations)

    node_weights = market.Lattice.node_weights
    market.Lattice.node_weights = _spanned(tracer, "market.Lattice.node_weights", node_weights)
    undo.append((market.Lattice, "node_weights", node_weights))

    solve_infinite = optimizer.solve_infinite

    @functools.wraps(solve_infinite)
    def traced_solve_infinite(problem, *args, methods, **kwargs):
        (route,) = methods  # the benchmark times each route on its own
        with tracer.span(f"optimizer.solve_infinite.{route}"):
            return solve_infinite(problem, *args, methods=methods, **kwargs)

    replace(solve_infinite, traced_solve_infinite)

    golden_max_vec = optimizer.golden_max_vec

    @functools.wraps(golden_max_vec)
    def traced_golden_max_vec(fn, lo, hi, *args, **kwargs):
        def counted(x):
            tracer.add("optimizer.golden_max_vec.evals")
            return fn(x)

        with tracer.span("optimizer.golden_max_vec"):
            x, fx = golden_max_vec(counted, lo, hi, *args, **kwargs)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        edge = np.minimum(x - lo, hi - x) <= EDGE_RTOL * (hi - lo)
        tracer.add("optimizer.golden_max_vec.edge_hits", np.count_nonzero(edge))
        return x, fx

    replace(golden_max_vec, traced_golden_max_vec)

    pchip = optimizer.PchipInterpolator

    def traced_pchip(x, y, *args, **kwargs):
        with tracer.span("optimizer.PchipInterpolator"):
            inner = pchip(x, y, *args, **kwargs)
        tracer.add("optimizer.PchipInterpolator.builds")
        return _TracedInterpolator(tracer, inner, np.asarray(x, dtype=float))

    undo.append((optimizer, "PchipInterpolator", pchip))
    optimizer.PchipInterpolator = traced_pchip

    def minimize_counts(args, kwargs, res):
        tracer.add("optimizer.pricing_minimize.nit", res.nit)
        tracer.add("optimizer.pricing_minimize.nfev", res.nfev)

    scipy_optimize = optimizer.optimize
    undo.append((optimizer, "optimize", scipy_optimize))
    optimizer.optimize = _ModuleProxy(
        scipy_optimize,
        minimize=_spanned(tracer, "optimizer.pricing_minimize", scipy_optimize.minimize, minimize_counts),
    )
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
