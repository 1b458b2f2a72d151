"""Spans and counters around the calls into each `planmenu` module.

The tracer replaces public functions by wrappers from outside the
package.  It replaces every module attribute bound to the original, so
the names re-bound by `from .market import valuation, cost` inside
`discrete`, `grouped` and `oracles` are wrapped too, and calls through
them do not escape.  Mid-level functions (a solve, a half-step, an
oracle) record spans; leaf kernels called 10^5-10^6 times per operation
(`valuation`, `cost`, the market's `pdf`/`cdf`, golden-section
evaluations) only bump counters, and the `normals` kernels add to one
timer.  Spans stay in memory; metrics are derived once the run ends.

Recording is on only while an operation runs, so the harness's own
checks (certificates, residuals) are not counted.
"""

import sys
import time
from collections import Counter, defaultdict
from types import ModuleType

import numpy as np

from planmenu import discrete, distributions, grouped, market, normals, oracles, runner, scenarios

SPANS = {
    "scenarios.load_scenario": (scenarios, "load_scenario"),
    "runner.run": (runner, "run"),
    "runner.verify_solution_csv": (runner, "verify_solution_csv"),
    "discrete.solve_discrete": (discrete, "solve_discrete"),
    "discrete.feasibility_check": (discrete, "feasibility_check"),
    "discrete.repair_monotone": (discrete, "repair_monotone"),
    "grouped.solve_with_restarts": (grouped, "solve_with_restarts"),
    "grouped.solve_alternating": (grouped, "solve_alternating"),
    "grouped.step1_periods": (grouped, "step1_periods"),
    "grouped.step2_boundaries": (grouped, "step2_boundaries"),
    "oracles.brute_force_ic_ir": (oracles, "brute_force_ic_ir"),
    "oracles.build_comparison": (oracles, "build_comparison"),
    "oracles.grid_oracle_discrete": (oracles, "grid_oracle_discrete"),
    "oracles.grid_oracle_grouped": (oracles, "grid_oracle_grouped"),
}
NORMALS = ("std_normal_pdf", "std_normal_cdf", "std_normal_sf", "std_normal_quantile", "expected_excess")


def _artifact_bytes(args, kwargs, out):
    return sum(p.stat().st_size for p in out.paths.values())


def _alternation(args, kwargs, out):
    return (out.iterations, out.total_profit)


def _pools(args, kwargs, out):
    return len(out[1])


def _grid_cells(args, kwargs, out):
    n_groups, sigma_grid, t_grid = args[3:6]
    return int(n_groups) * len(sigma_grid) * len(t_grid)


ON_RETURN = {
    "runner.run": _artifact_bytes,
    "grouped.solve_alternating": _alternation,
    "discrete.repair_monotone": _pools,
    "oracles.grid_oracle_grouped": _grid_cells,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "raised")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        self.raised = False


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._normals_depth = 0
        self._restore = []

    # --- installation ------------------------------------------------

    def install(self):
        for name, (module, attr) in SPANS.items():
            self._replace(getattr(module, attr), self._span(name, getattr(module, attr), ON_RETURN.get(name)))
        self._replace(market.valuation, self._valuation(market.valuation))
        self._replace(market.cost, self._counter("market.cost.calls", market.cost))
        self._replace(discrete.golden_section_max, self._golden(discrete.golden_section_max))
        for attr in NORMALS:
            self._replace(getattr(normals, attr), self._normals_timer(getattr(normals, attr)))
        cls = distributions.ContinuousMarket
        self._replace_method(cls, "cdf", self._counter("distributions.cdf.calls", cls.cdf))
        self._replace_method(cls, "pdf", self._counter("distributions.pdf.calls", cls.pdf))
        self._replace_method(
            cls, "verify_theorem3", self._span("distributions.verify_theorem3", cls.verify_theorem3, None)
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if not isinstance(module, ModuleType) or not (name == "planmenu" or name.startswith("planmenu.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # --- wrappers ----------------------------------------------------

    def _span(self, name, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                span.info = on_return(args, kwargs, out)
            return out

        return wrapped

    def _counter(self, key, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _valuation(self, fn):
        counts = self.counts

        def wrapped(profile, sigma, t):
            if self.active:
                counts["market.valuation.calls"] += 1
                if np.ndim(sigma) or np.ndim(t):
                    counts["market.valuation.points"] += np.broadcast(sigma, t).size
            return fn(profile, sigma, t)

        return wrapped

    def _golden(self, fn):
        counts = self.counts

        def wrapped(f, lo, hi, *args, **kwargs):
            if not self.active:
                return fn(f, lo, hi, *args, **kwargs)
            counts["discrete.golden_section_max.searches"] += 1

            def counted(x):
                counts["discrete.golden_section_max.evals"] += 1
                return f(x)

            return fn(counted, lo, hi, *args, **kwargs)

        return wrapped

    def _normals_timer(self, fn):
        counts, clock = self.counts, time.perf_counter

        def wrapped(*args, **kwargs):
            if not self.active or self._normals_depth:
                return fn(*args, **kwargs)
            self._normals_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["normals.self_s"] += clock() - start
                self._normals_depth -= 1

        return wrapped

    # --- derived metrics ---------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics over `passes` traced passes.

        Counts are per pass; `<module>.<function>.s` is the mean duration
        of one completed call, except `distributions.verify_theorem3.s`,
        which is the total per pass (most of its calls are cache hits, and
        a mean over them would fall as more hits were added);
        `self_s` excludes time in child spans.
        """
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            if not span.raised:
                durations[span.name].append((i, span.end - span.start))

        def mean_s(name):
            d = durations.get(name, [])
            return sum(x for _, x in d) / len(d) if d else 0.0

        def total_per_pass(name):
            return sum(x for _, x in durations.get(name, [])) / passes

        def per_pass(key):
            return self.counts[key] / passes

        runs = durations.get("runner.run", [])
        alternations = durations.get("grouped.solve_alternating", [])
        searches = self.counts["discrete.golden_section_max.searches"]
        cells = sum(self.spans[i].info for i, _ in durations.get("oracles.grid_oracle_grouped", []))
        oracle_time = sum(x for _, x in durations.get("oracles.grid_oracle_grouped", []))

        return {
            "market.valuation.calls": (per_pass("market.valuation.calls"), "count"),
            "market.valuation.points": (per_pass("market.valuation.points"), "count"),
            "market.cost.calls": (per_pass("market.cost.calls"), "count"),
            "normals.self_s": (per_pass("normals.self_s"), "s"),
            "distributions.cdf.calls": (per_pass("distributions.cdf.calls"), "count"),
            "distributions.pdf.calls": (per_pass("distributions.pdf.calls"), "count"),
            "distributions.verify_theorem3.s": (total_per_pass("distributions.verify_theorem3"), "s"),
            "discrete.golden_section_max.searches": (searches / passes, "count"),
            "discrete.golden_section_max.evals_per_search": (
                self.counts["discrete.golden_section_max.evals"] / searches if searches else 0.0,
                "count",
            ),
            "discrete.repair_monotone.pools": (
                sum(self.spans[i].info for i, _ in durations.get("discrete.repair_monotone", [])) / passes,
                "count",
            ),
            "discrete.solve_discrete.s": (mean_s("discrete.solve_discrete"), "s"),
            "discrete.feasibility_check.s": (mean_s("discrete.feasibility_check"), "s"),
            "grouped.rounds": (sum(self.spans[i].info[0] for i, _ in alternations) / passes, "count"),
            "grouped.starts": (len(alternations) / passes, "count"),
            "grouped.step1_periods.s": (mean_s("grouped.step1_periods"), "s"),
            "grouped.step2_boundaries.s": (mean_s("grouped.step2_boundaries"), "s"),
            "grouped.restart_waste_ratio": (self._restart_waste(), "ratio"),
            "oracles.grid_oracle_grouped.ns_per_cell": (1e9 * oracle_time / cells if cells else 0.0, "ns"),
            "oracles.grid_oracle_discrete.s": (mean_s("oracles.grid_oracle_discrete"), "s"),
            "oracles.brute_force_ic_ir.s": (mean_s("oracles.brute_force_ic_ir"), "s"),
            "oracles.build_comparison.s": (mean_s("oracles.build_comparison"), "s"),
            "scenarios.load_scenario.s": (mean_s("scenarios.load_scenario"), "s"),
            "runner.run.self_s": (
                sum(x - child_time[i] for i, x in runs) / len(runs) if runs else 0.0,
                "s",
            ),
            "runner.artifact_bytes": (
                sum(self.spans[i].info for i, _ in runs) / len(runs) if runs else 0.0,
                "bytes",
            ),
            "runner.verify_solution_csv.s": (mean_s("runner.verify_solution_csv"), "s"),
        }

    def _restart_waste(self):
        """Share of start time spent in starts whose menu was not returned."""
        starts = defaultdict(list)
        for span in self.spans:
            if span.name == "grouped.solve_alternating" and not span.raised and span.parent >= 0:
                starts[span.parent].append(span)
        wasted = total = 0.0
        for group in starts.values():
            # the solver keeps the best profit, first found on ties
            best = max(range(len(group)), key=lambda i: (group[i].info[1], -i))
            for i, span in enumerate(group):
                total += span.end - span.start
                if i != best:
                    wasted += span.end - span.start
        return wasted / total if total else 0.0


def valuation_kernel_ns(repeats=5, scalar_calls=20000, grid=(400, 250)):
    """ns per point of one valuation, scalar call and array call, on fixed inputs."""
    profile = market.DemandProfile(alpha=1.0, mu=13.0, q=15.0)
    sigma = np.linspace(0.01, 6.0, grid[0])[:, None]
    t = np.linspace(0.05, 30.0, grid[1])[None, :]
    valuation = market.valuation
    scalar, array = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(scalar_calls):
            valuation(profile, 2.5, 1.3)
        scalar.append(1e9 * (time.perf_counter() - start) / scalar_calls)
        start = time.perf_counter()
        valuation(profile, sigma, t)
        array.append(1e9 * (time.perf_counter() - start) / (grid[0] * grid[1]))
    return float(np.median(scalar)), float(np.median(array))
