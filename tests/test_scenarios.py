"""Scenario files, the end-to-end runner, artifact determinism, and the CLI."""

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import planmenu
from planmenu import cli, discrete, grouped, market, oracles, runner
from planmenu.distributions import ContinuousMarket, DiscreteMarket
from planmenu.market import CostModel, DemandProfile
from planmenu.oracles import fixed_period_baseline
from planmenu.scenarios import (
    Scenario,
    SolverSpec,
    bundled_scenario_names,
    load_scenario,
)

BUNDLED = [
    "case1_discrete",
    "case2_mountain",
    "exponential_k6",
    "truncated_normal_k6",
    "uniform_k6",
]


def small_grouped_scenario(n_groups=2, restarts=2, seed=11):
    return Scenario(
        name="uniform_small",
        profile=DemandProfile(alpha=1.0, mu=13.0, q=15.0),
        cost_model=CostModel(c0=10.0, c1=0.5),
        market=ContinuousMarket(kind="uniform", sigma_min=0.0, sigma_max=6.0),
        solver=SolverSpec(kind="grouped", n_groups=n_groups, restarts=restarts, seed=seed),
        baselines=[1.0],
    )


@pytest.fixture(scope="module")
def case1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1_run")
    scenario = load_scenario("case1_discrete")
    artifacts = runner.run(scenario, out)
    return scenario, artifacts


# --- scenario loading -------------------------------------------------------

def test_bundled_names():
    assert bundled_scenario_names() == BUNDLED


def test_load_case1():
    sc = load_scenario("case1_discrete")
    assert sc.name == "case1_discrete"
    assert sc.solver.kind == "discrete"
    assert isinstance(sc.market, DiscreteMarket)
    assert sc.market.n_types == 11
    assert np.allclose(sc.market.sigmas, np.arange(0.1, 6.2, 0.6))
    assert np.all(sc.market.counts == 1.0)
    assert (sc.profile.alpha, sc.profile.mu, sc.profile.q) == (1.0, 13.0, 15.0)
    assert (sc.cost_model.c0, sc.cost_model.c1) == (10.0, 0.5)
    assert sc.baselines == [1.0, 2.0]


def test_load_case2_counts():
    sc = load_scenario("case2_mountain")
    assert isinstance(sc.market, DiscreteMarket)
    assert sc.market.counts.tolist() == [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]


@pytest.mark.parametrize("name,kind,param", [
    ("uniform_k6", "uniform", None),
    ("exponential_k6", "exponential", ("rate", 0.5)),
    ("truncated_normal_k6", "truncated_normal", ("loc", 3.0)),
])
def test_load_grouped_bundles(name, kind, param):
    sc = load_scenario(name)
    assert sc.solver.kind == "grouped"
    assert sc.solver.n_groups == 6
    assert sc.solver.restarts >= 1
    assert sc.solver.seed is not None
    assert isinstance(sc.market, ContinuousMarket)
    assert sc.market.kind == kind
    assert (sc.market.sigma_min, sc.market.sigma_max) == (0.0, 6.0)
    if param:
        attr, expect = param
        assert getattr(sc.market, attr) == expect
    if kind == "truncated_normal":
        assert sc.market.scale == 1.5


def test_load_from_path(tmp_path):
    cfg = {
        "name": "two_types",
        "alpha": 1.0, "mu": 13.0, "q": 15.0,
        "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "discrete", "sigmas": [1.0, 3.0], "counts": [2.0, 1.0]},
        "solver": {"kind": "discrete"},
        "baselines": [1],
    }
    p = tmp_path / "two_types.json"
    p.write_text(json.dumps(cfg))
    sc = load_scenario(p)
    assert sc.name == "two_types"
    assert sc.market.n_types == 2
    assert sc.baselines == [1.0]


def test_load_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario("no_such_scenario")

    base = {
        "name": "x", "alpha": 1.0, "mu": 13.0, "q": 15.0,
        "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0},
        "solver": {"kind": "grouped", "K": 2},
    }

    missing = {k: v for k, v in base.items() if k != "alpha"}
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(missing))
    with pytest.raises(ValueError, match="alpha"):
        load_scenario(p)

    bad_solver = dict(base, solver={"kind": "simplex"})
    p = tmp_path / "bad_solver.json"
    p.write_text(json.dumps(bad_solver))
    with pytest.raises(ValueError, match="solver kind"):
        load_scenario(p)

    mismatch = dict(base, market={"kind": "discrete", "sigmas": [1.0], "counts": [1.0]})
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(mismatch))
    with pytest.raises(ValueError, match="continuous"):
        load_scenario(p)

    cap_below_mean = dict(base, q=12.0)
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(cap_below_mean))
    with pytest.raises(ValueError, match="cap"):
        load_scenario(p)


# --- the runner ---------------------------------------------------------------

def test_run_writes_artifacts(case1_run):
    scenario, artifacts = case1_run
    assert artifacts.ok
    for key in ("solution", "comparison", "certificate"):
        assert artifacts.paths[key].is_file()

    with open(artifacts.paths["solution"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert list(rows[0]) == ["group_index", "sigma_boundary", "period", "price", "count", "item_profit"]
    periods = np.array([float(r["period"]) for r in rows])
    assert np.all(np.diff(periods) >= 0)

    cert = json.loads(artifacts.paths["certificate"].read_text())
    assert cert["passed"] is True
    assert cert["scenario"] == "case1_discrete"
    assert cert["solver"] == "discrete"
    assert cert["ic_ir"]["passed"] is True
    assert cert["chain_feasibility"]["passed"] is True
    assert abs(cert["profit"] - artifacts.solution.total_profit) < 1e-12


def test_comparison_csv_recomputable(case1_run):
    scenario, artifacts = case1_run
    with open(artifacts.paths["comparison"], newline="") as fh:
        rows = {r["label"]: r for r in csv.DictReader(fh)}
    opt = float(rows["optimal"]["profit"])
    assert abs(opt - artifacts.solution.total_profit) < 1e-9
    for t in scenario.baselines:
        for cov, key in (("full", "full_coverage"), ("optimized", "optimized_cutoff")):
            row = rows[f"fixed_t={t:g}_{key}"]
            base = fixed_period_baseline(scenario.profile, scenario.cost_model, scenario.market, t, coverage=cov)
            assert abs(float(row["profit"]) - base.profit) < 1e-9
            assert abs(float(row["uplift_percent"]) - 100.0 * (opt / base.profit - 1.0)) < 1e-6
    ratio = float(rows["social_surplus_ratio_percent"]["profit"])
    contract = float(rows["social_surplus_contract"]["profit"])
    first_best = float(rows["social_surplus_first_best"]["profit"])
    assert abs(ratio - 100.0 * contract / first_best) < 1e-6


def test_run_grouped_scenario(tmp_path):
    scenario = small_grouped_scenario()
    artifacts = runner.run(scenario, tmp_path)
    assert artifacts.ok
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["chain_feasibility"] is None
    assert cert["convergence"]["converged"] is True
    assert cert["convergence"]["iterations"] <= 200
    assert cert["convergence"]["kkt_residual"] <= 1e-9
    trace = np.array(cert["convergence"]["profit_trace"])
    assert len(trace) == 2 * cert["convergence"]["iterations"] + cert["convergence"]["newton_steps"]
    assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
    # every start (quantile start and two restarts) reaches the one menu
    conv = cert["convergence"]
    assert len(conv["start_profits"]) == len(conv["start_kkt_residuals"]) == 3
    assert conv["distinct_optima"] == 1
    assert max(conv["start_kkt_residuals"]) <= 1e-9
    assert conv["start_profits"][0] == cert["profit"]
    with open(tmp_path / "solution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert cert["seed"] == 11


def test_run_seed_override(tmp_path):
    scenario = small_grouped_scenario(seed=11)
    artifacts = runner.run(scenario, tmp_path, seed=123)
    assert artifacts.certificate["seed"] == 123


def test_artifacts_byte_deterministic(tmp_path):
    # a small grouped solve, the bundled mountain market, a discrete
    # market that pools (every other type is rare), and a group sweep
    pooling = Scenario(
        name="alternating_counts",
        profile=DemandProfile(alpha=1.0, mu=13.0, q=15.0),
        cost_model=CostModel(c0=10.0, c1=0.5),
        market=DiscreteMarket(sigmas=np.linspace(0.5, 6.0, 5), counts=[5.0, 1.0, 5.0, 1.0, 5.0]),
        solver=SolverSpec(kind="discrete"),
        baselines=[1.0],
    )
    for scenario in (small_grouped_scenario(), load_scenario("case2_mountain"), pooling):
        a, b = tmp_path / scenario.name / "a", tmp_path / scenario.name / "b"
        artifacts = runner.run(scenario, a)
        runner.run(scenario, b)
        for name in ("solution.csv", "comparison.csv", "certificate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    assert len(artifacts.solution.pooled_blocks) == 2
    sweep = load_scenario("uniform_k6")
    a, b = tmp_path / "sweep" / "a", tmp_path / "sweep" / "b"
    runner.sweep_groups(sweep, [1, 2, 3], a)
    runner.sweep_groups(sweep, [1, 2, 3], b)
    assert (a / "fig8_sweep.csv").read_bytes() == (b / "fig8_sweep.csv").read_bytes()


def test_case1_run_makes_one_period_search(tmp_path, monkeypatch):
    # the menu and the social first-best share one lockstep search, and
    # each check values all its points in one valuation call
    calls, kernel, root = Counter(), market.valuation, discrete._lockstep_root

    def counted_valuation(*args):
        calls["valuation"] += 1
        return kernel(*args)

    def counted_root(slopes, *args):
        def counted_slopes(x):
            calls["slope"] += 1
            return slopes(x)

        calls["search"] += 1
        return root(counted_slopes, *args)

    for module in (market, discrete, grouped, oracles, runner):
        if getattr(module, "valuation", None) is kernel:
            monkeypatch.setattr(module, "valuation", counted_valuation)
    monkeypatch.setattr(discrete, "_lockstep_root", counted_root)
    assert runner.run(load_scenario("case1_discrete"), tmp_path).ok
    assert calls["search"] == 1
    assert 0 < calls["valuation"] <= 10 and 0 < calls["slope"] <= 10


def test_verify_solution_csv_roundtrip(case1_run, tmp_path):
    scenario, artifacts = case1_run
    ok, details = runner.verify_solution_csv(scenario, artifacts.paths["solution"])
    assert ok
    assert details["ic_ir"]["passed"] is True

    # corrupt one price and the verification must fail
    lines = artifacts.paths["solution"].read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    first[3] = str(float(first[3]) + 0.01)
    bad = tmp_path / "tampered.csv"
    bad.write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")
    ok, details = runner.verify_solution_csv(scenario, bad)
    assert not ok


def test_sweep_groups(tmp_path):
    scenario = small_grouped_scenario(restarts=1)
    rows = runner.sweep_groups(scenario, [1, 2, 3], tmp_path)
    assert [r["groups"] for r in rows] == [1, 2, 3]
    profits = [r["profit"] for r in rows]
    assert profits == sorted(profits)
    base = fixed_period_baseline(
        scenario.profile, scenario.cost_model, scenario.market, 1.0, coverage="full"
    )
    for r in rows:
        assert abs(r["uplift_percent"] - 100.0 * (r["profit"] / base.profit - 1.0)) < 1e-9
    with open(tmp_path / "fig8_sweep.csv", newline="") as fh:
        disk = list(csv.DictReader(fh))
    assert [int(r["groups"]) for r in disk] == [1, 2, 3]
    assert abs(float(disk[-1]["profit"]) - profits[-1]) < 1e-9


def test_sweep_rejects_discrete(tmp_path):
    scenario = load_scenario("case1_discrete")
    with pytest.raises(ValueError):
        runner.sweep_groups(scenario, [1, 2], tmp_path)


# --- CLI ------------------------------------------------------------------------

def test_cli_solve_and_verify(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--scenario", "case1_discrete", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured
    assert (out / "solution.csv").is_file()

    code = cli.main([
        "verify", "--solution", str(out / "solution.csv"), "--scenario", "case1_discrete",
    ])
    assert code == 0
    assert "verification PASS" in capsys.readouterr().out


def costly_scenario(tmp_path, name):
    """A bundled scenario's file with a fixed cost of 100 per plan, above
    what any type values any period at (mu = 13)."""
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / f"{name}.json").read_text())
    cfg["cost"]["c0"] = 100.0
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def uplift_cells(csv_path):
    with open(csv_path, newline="") as fh:
        return [row["uplift_percent"] for row in csv.DictReader(fh) if row["label"].startswith("fixed_")]


def test_uplift_against_baseline_serving_nobody_is_nan(tmp_path, capsys):
    # the optimized-cutoff baseline serves nobody (profit 0) and the
    # full-coverage one loses money: no percent uplift over either
    path = costly_scenario(tmp_path, "uniform_k6")
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    assert uplift_cells(tmp_path / "run" / "comparison.csv") == ["nan"] * 4
    assert "vs fixed t=1: n/a (full coverage), n/a (optimized cutoff)" in capsys.readouterr().out
    assert cli.main(["sweep", "--scenario", str(path), "--groups", "1,2", "--out", str(tmp_path / "sweep")]) == 0
    out = capsys.readouterr().out
    assert out.count("(n/a vs fixed)") == 2 and "+-" not in out


def test_uplift_against_losing_baseline_is_nan(tmp_path, capsys):
    # every menu loses money: a loss of 975 against a baseline's loss of
    # 87.5 is no uplift of 1014.5%, and the CLI prints no "+-" sign
    path = costly_scenario(tmp_path, "case1_discrete")
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    assert uplift_cells(tmp_path / "run" / "comparison.csv") == ["nan"] * 4
    out = capsys.readouterr().out
    assert out.count("n/a") == 5 and "+-" not in out  # four uplift cells and the social ratio


def test_social_ratio_without_first_best_surplus_prints_na(tmp_path, capsys):
    # no type is worth serving at c0 = 100, so both surpluses are at most 0
    # and the first-best is exactly 0: the ratio is NaN, printed as n/a
    path = costly_scenario(tmp_path, "case1_discrete")
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "  social surplus ratio n/a\n" in out and "nan" not in out


def test_cli_prints_uplift_with_its_own_sign(capsys):
    assert [cli._percent(x) for x in (37.25, 0.0, -0.5, float("nan"))] == ["+37.2%", "+0.0%", "-0.5%", "n/a"]


def test_cli_check_dist(capsys):
    code = cli.main(["check-dist", "--scenario", "uniform_k6"])
    assert code == 0
    assert "HOLDS" in capsys.readouterr().out


def test_cli_oracle_discrete(tmp_path, capsys):
    cfg = {
        "name": "tiny",
        "alpha": 1.0, "mu": 13.0, "q": 15.0,
        "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "discrete", "sigmas": [1.0, 3.0], "counts": [1.0, 1.0]},
        "solver": {"kind": "discrete"},
    }
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(cfg))
    code = cli.main(["oracle", "--scenario", str(p), "--grid-step", "0.05"])
    assert code == 0
    assert capsys.readouterr().out == "grid optimum 4.40802328 at periods [0.35, 1.45]\n"


def test_cli_oracle_grouped(tmp_path, capsys):
    cfg = {
        "name": "small_grouped",
        "alpha": 1.0, "mu": 13.0, "q": 15.0,
        "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0},
        "solver": {"kind": "grouped", "K": 2},
    }
    p = tmp_path / "small_grouped.json"
    p.write_text(json.dumps(cfg))
    code = cli.main(["oracle", "--scenario", str(p), "--grid-step", "0.1", "--t-max", "20"])
    assert code == 0
    assert capsys.readouterr().out == "grid optimum 1.29061962 at boundaries [1.7, 5.3] periods [0.6, 1.9]\n"


def test_cli_sweep(tmp_path, capsys):
    cfg = {
        "name": "sweep_me",
        "alpha": 1.0, "mu": 13.0, "q": 15.0,
        "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0},
        "solver": {"kind": "grouped", "K": 2, "seed": 5},
        "baselines": [1],
    }
    p = tmp_path / "sweep_me.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep_out"
    code = cli.main([
        "sweep", "--scenario", str(p), "--groups", "1,2", "--out", str(out),
    ])
    assert code == 0
    assert (out / "fig8_sweep.csv").is_file()
    assert "K=2" in capsys.readouterr().out


HEADER = "group_index,sigma_boundary,period,price,count,item_profit"


def solution_text(sigmas, prices):
    rows = [f"{k + 1},{s:g},{1.0 + k:g},{p},1,0" for k, (s, p) in enumerate(zip(sigmas, prices))]
    return "\n".join([HEADER] + rows) + "\n"


@pytest.mark.parametrize(
    "scenario, text, problem",
    [
        ("case1_discrete", "group_index,sigma_boundary,price\n1,0.1,12.0\n", "missing column 'period'"),
        ("case1_discrete", HEADER + "\n1,0.1,two,12.0,1,2.0\n", "non-numeric"),
        ("uniform_k6", HEADER + "\n", "no solution rows"),
        # NaN parses as a float and fails every comparison of the checks
        ("case1_discrete", solution_text(np.arange(0.1, 6.2, 0.6), ["nan"] * 11), "non-finite"),
        ("uniform_k6", solution_text(np.arange(1.0, 7.0), ["nan"] * 6), "non-finite"),
        ("uniform_k6", solution_text([1.0, 3.0, 2.0], [11.0, 11.5, 12.0]), "sigma_boundary values must ascend"),
    ],
    ids=[
        "no_period_column", "non_numeric_cell", "grouped_header_only", "nan_prices_discrete",
        "nan_prices_grouped", "descending_boundaries",
    ],
)
def test_cli_verify_rejects_malformed_csv(tmp_path, capsys, scenario, text, problem):
    bad = tmp_path / "solution.csv"
    bad.write_text(text)
    with pytest.raises(ValueError, match=problem):
        runner.verify_solution_csv(load_scenario(scenario), bad)
    code = cli.main(["verify", "--solution", str(bad), "--scenario", scenario])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("planmenu: error: ") and str(bad) in err and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err


def grouped_json(**solver):
    """A small grouped scenario file's text, with solver keys overridden."""
    return json.dumps({
        "name": "bad_solver", "alpha": 1.0, "mu": 13.0, "q": 15.0, "cost": {"c0": 10.0, "c1": 0.5},
        "market": {"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0},
        "solver": {"kind": "grouped", "K": 2, **solver},
    })


def scenario_json(**keys):
    """A small grouped scenario file's text, with top-level keys overridden."""
    return json.dumps({**json.loads(grouped_json()), **keys})


INF = float("inf")


def market_json(**keys):
    """A small grouped scenario file's text, with market keys overridden."""
    return scenario_json(market={"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0, **keys})


def discrete_json(**keys):
    """A small discrete scenario file's text, with market keys overridden."""
    market = {"kind": "discrete", "sigmas": [1.0, 2.0, 3.0], "counts": [1, 1, 1], **keys}
    return scenario_json(market=market, solver={"kind": "discrete"})


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"name": "broken", "alpha": 1.0,', "not valid JSON"),
        (
            json.dumps({
                "name": "no_window", "alpha": 1.0, "mu": 13.0, "q": 15.0,
                "cost": {"c0": 10.0}, "market": {"kind": "uniform", "sigma_max": 6.0},
                "solver": {"kind": "grouped"},
            }),
            "missing required key 'sigma_min'",
        ),
        (grouped_json(K=2.7), "solver key 'K' must be an integer >= 1, got 2.7"),
        (grouped_json(K="two"), "solver key 'K' must be an integer >= 1, got 'two'"),
        (grouped_json(restarts=-3), "solver key 'restarts' must be an integer >= 0, got -3"),
        (grouped_json(seed="abc"), "solver key 'seed' must be an integer or null, got 'abc'"),
        (grouped_json(seed=1.5), "solver key 'seed' must be an integer or null, got 1.5"),
        (scenario_json(alpha=None), "scenario key 'alpha' must be a number, got None"),
        (scenario_json(alpha="abc"), "scenario key 'alpha' must be a number, got 'abc'"),
        (scenario_json(cost=[1]), "scenario key 'cost' must be a JSON object, got [1]"),
        (scenario_json(baselines=[None]), "scenario key 'baselines' must be a list of numbers, got [None]"),
        (
            scenario_json(market={"kind": "uniform", "sigma_min": 0.0, "sigma_max": 6.0, "N": "x"}),
            "scenario market key 'N' must be a number, got 'x'",
        ),
        ('["solver"]', "a scenario must be a JSON object"),
        # json reads NaN and Infinity as floats
        (
            discrete_json(counts=[1, INF, 1]),
            "scenario market key 'counts' must be a list of numbers, got [1, inf, 1]",
        ),
        (market_json(N=INF), "scenario market key 'N' must be a number, got inf"),
        (market_json(sigma_max=INF), "scenario market key 'sigma_max' must be a number, got inf"),
        (
            market_json(kind="exponential", **{"lambda": INF}),
            "scenario market key 'lambda' must be a number, got inf",
        ),
        (scenario_json(alpha=INF), "scenario key 'alpha' must be a number, got inf"),
        (scenario_json(mu=-INF), "scenario key 'mu' must be a number, got -inf"),
        (scenario_json(q=float("nan")), "scenario key 'q' must be a number, got nan"),
        (scenario_json(cost={"c0": INF}), "scenario cost key 'c0' must be a number, got inf"),
        (scenario_json(cost={"c0": 10.0, "c1": INF}), "scenario cost key 'c1' must be a number, got inf"),
        (scenario_json(baselines=[1, INF]), "scenario key 'baselines' must be a list of numbers, got [1, inf]"),
        # an integer past the float range would overflow float()
        (scenario_json(alpha=10**400), "scenario key 'alpha' must be a number, got 1000"),
    ],
    ids=[
        "invalid_json", "market_key_missing", "K_fraction", "K_string", "restarts_negative", "seed_string",
        "seed_fraction", "alpha_null", "alpha_string", "cost_list", "baseline_null", "market_N_string", "not_object",
        "counts_infinite", "market_N_infinite", "sigma_max_infinite", "lambda_infinite", "alpha_infinite",
        "mu_negative_infinite", "q_nan", "c0_infinite", "c1_infinite", "baseline_infinite", "alpha_huge_integer",
    ],
)
def test_cli_rejects_malformed_scenario(tmp_path, capsys, text, problem):
    bad = tmp_path / "broken.json"
    bad.write_text(text)
    assert cli.main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("planmenu: error: ") and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["oracle", "--scenario", "uniform_k6", "--grid-step", "0"], "0 < grid step <= t-max"),
        (["oracle", "--scenario", "case1_discrete", "--grid-step", "0"], "0 < grid step <= t-max"),
        (["oracle", "--scenario", "uniform_k6", "--grid-step", "-0.1"], "0 < grid step <= t-max"),
        (["oracle", "--scenario", "case1_discrete", "--grid-step", "0.5", "--t-max", "0"], "0 < grid step <= t-max"),
        (["oracle", "--scenario", "uniform_k6", "--grid-step", "nan"], "0 < grid step <= t-max"),
        (["oracle", "--scenario", "uniform_k6", "--grid-step", "0.001"], "exceeds the work budget"),
        (["check-dist", "--scenario", "uniform_k6", "--grid-points", "0"], "at least 2 points"),
        (["check-dist", "--scenario", "uniform_k6", "--grid-points", "1"], "at least 2 points"),
        # refused before any allocation
        (["check-dist", "--scenario", "uniform_k6", "--grid-points", str(10**12)], "at most 1000000, got 1000000000000"),
        (["sweep", "--scenario", "uniform_k6", "--groups", ","], "nonempty list of distinct K"),
        (["sweep", "--scenario", "uniform_k6", "--groups", "2,2"], "nonempty list of distinct K"),
    ],
    ids=[
        "step_zero", "step_zero_discrete", "step_negative", "t_max_zero", "step_nan", "grid_over_budget",
        "grid_points_zero", "grid_points_one", "grid_points_huge", "groups_empty", "groups_repeated",
    ],
)
def test_cli_rejects_malformed_option(tmp_path, capsys, argv, problem):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("planmenu: error: ") and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded(tmp_path):
    # every planmenu command is a fresh process, so its imports are part of
    # its wall time; the package loads no scipy module at all, neither to
    # import nor to solve (a discrete and a grouped scenario, in one process)
    src = str(Path(planmenu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = f"""
import contextlib, io, sys
import planmenu.cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("case1_discrete", "uniform_k6"):
        assert planmenu.cli.main(["solve", "--scenario", name, "--out", {str(tmp_path)!r} + "/" + name]) == 0
print(scipy_modules())
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
