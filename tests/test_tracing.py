"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracing.py replaces functions and methods of `planmenu` by
name; a renamed or deleted name makes `install` raise.  Checking it here
makes such a change fail the test suite, not only the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np

from planmenu import discrete, distributions, grouped, market, oracles, runner, scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = load_tracing(monkeypatch)
    originals = {name: getattr(module, attr) for name, (module, attr) in tracing.SPANS.items()}
    valuation, cdf = market.valuation, distributions.ContinuousMarket.cdf
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (module, attr) in tracing.SPANS.items():
            assert getattr(module, attr) is not originals[name], name
        assert market.valuation is not valuation
        assert distributions.ContinuousMarket.cdf is not cdf
    finally:
        tracer.uninstall()
    for name, (module, attr) in tracing.SPANS.items():
        assert getattr(module, attr) is originals[name], name
    assert market.valuation is valuation
    assert distributions.ContinuousMarket.cdf is cdf


def test_traced_runs_give_layer_metrics(monkeypatch, tmp_path):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        runner.run(scenarios.load_scenario("case1_discrete"), tmp_path / "case1")
        sc = scenarios.load_scenario("uniform_k6")
        grouped.solve_alternating(sc.profile, sc.cost_model, sc.market, 2)
        # no solver runs golden section any more, but the tracer still
        # wraps and counts it
        discrete.golden_section_max(lambda x: -((x - 1.0) ** 2), 0.0, 3.0)
        oracles.grid_oracle_grouped(
            sc.profile, sc.cost_model, sc.market, 2, np.linspace(0.0, 6.0, 13), np.linspace(0.5, 6.0, 12)
        )
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.layer_metrics(passes=1)
    for key in (
        "market.valuation.calls",
        "market.cost.calls",
        "discrete.golden_section_max.searches",
        "discrete.solve_discrete.s",
        "oracles.brute_force_ic_ir.s",
        "oracles.grid_oracle_grouped.ns_per_cell",
        "runner.artifact_bytes",
    ):
        assert metrics[key][0] > 0, key
