"""Scenario files, the end-to-end runner, artifact determinism, and the CLI."""

import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planmenu
from planmenu import cli, discrete, grouped, market, oracles, runner
from planmenu.distributions import ContinuousMarket, DiscreteMarket, make_market
from planmenu.market import CostModel, DemandProfile
from planmenu.oracles import full_coverage_profit, optimized_cutoff_profit
from planmenu.scenarios import (
    Scenario,
    SolverSpec,
    bundled_scenario_names,
    load_scenario,
)

from conftest import equal_runs

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
        solver=SolverSpec(n_groups=n_groups, restarts=restarts, seed=seed),
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
    assert sc.solver is None
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
    assert isinstance(sc.market, ContinuousMarket)
    assert sc.solver.n_groups == 6
    assert sc.solver.restarts >= 1
    assert sc.solver.seed == 20260822
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
    with pytest.raises(ValueError, match="solver key 'kind' must be 'discrete' or 'grouped', got 'simplex'"):
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
        for baseline, key in ((full_coverage_profit, "full_coverage"), (optimized_cutoff_profit, "optimized_cutoff")):
            row = rows[f"fixed_t={t:g}_{key}"]
            base = baseline(scenario.profile, scenario.cost_model, scenario.market, t)
            assert abs(float(row["profit"]) - base) < 1e-9
            assert abs(float(row["uplift_percent"]) - 100.0 * (opt / base - 1.0)) < 1e-6
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
    # verify reads back the certificate's two reports, the chain check's as None
    ok, details = runner.verify_solution_csv(scenario, tmp_path / "solution.csv")
    assert ok and list(details) == ["chain_feasibility", "ic_ir"]
    assert details["chain_feasibility"] is None and details["ic_ir"]["passed"] is True


def test_run_seed_override(tmp_path):
    scenario = small_grouped_scenario(seed=11)
    artifacts = runner.run(scenario, tmp_path, seed=123)
    assert artifacts.certificate["seed"] == 123


def nested_values(obj):
    """obj and every value nested in its dicts, lists and tuples."""
    yield obj
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()
    for value in children:
        yield from nested_values(value)


@pytest.mark.parametrize("name", BUNDLED)
def test_certificate_holds_plain_values(tmp_path, name):
    # the certificate is built from plain Python values (a tuple where a
    # report holds one), so json.dump needs no numpy conversions; a numpy
    # integer seed is written as the integer it equals
    seed = np.int64(7) if name == "uniform_k6" else None
    artifacts = runner.run(load_scenario(name), tmp_path, seed=seed)
    plain = (dict, list, str, int, float, bool, type(None))
    assert {type(v) for v in nested_values(artifacts.certificate)} <= set(plain) | {tuple}
    text = (tmp_path / "certificate.json").read_text()
    assert {type(v) for v in nested_values(json.loads(text))} <= set(plain)
    if seed is not None:
        assert type(artifacts.certificate["seed"]) is int and '\n  "seed": 7,\n' in text


def pooling_scenario():
    """A discrete market that pools: every other type is rare, and each
    rare type shares one period with the heavy type above it."""
    return Scenario(
        name="alternating_counts",
        profile=DemandProfile(alpha=1.0, mu=13.0, q=15.0),
        cost_model=CostModel(c0=10.0, c1=0.5),
        market=DiscreteMarket(sigmas=np.linspace(0.5, 6.0, 5), counts=[5.0, 1.0, 5.0, 1.0, 5.0]),
        solver=None,
        baselines=[1.0],
    )


def test_artifacts_byte_deterministic(tmp_path):
    # a small grouped solve, the bundled mountain market, a discrete
    # market that pools (every other type is rare), and a group sweep
    for scenario in (small_grouped_scenario(), load_scenario("case2_mountain"), pooling_scenario()):
        a, b = tmp_path / scenario.name / "a", tmp_path / scenario.name / "b"
        artifacts = runner.run(scenario, a)
        runner.run(scenario, b)
        for name in ("solution.csv", "comparison.csv", "certificate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    assert len(equal_runs(artifacts.solution.periods)) == 2
    sweep = load_scenario("uniform_k6")
    a, b = tmp_path / "sweep" / "a", tmp_path / "sweep" / "b"
    runner.sweep_groups(sweep, [1, 2, 3], a)
    runner.sweep_groups(sweep, [1, 2, 3], b)
    assert (a / "fig8_sweep.csv").read_bytes() == (b / "fig8_sweep.csv").read_bytes()


def test_solution_csv_shows_pooled_blocks_as_runs_of_equal_periods(tmp_path):
    # a pooled block is a run of equal periods in the written menu: two
    # runs on the market that pools, none on the bundled mountain market
    for scenario, runs in ((pooling_scenario(), [(1, 2), (3, 4)]), (load_scenario("case2_mountain"), [])):
        runner.run(scenario, tmp_path / scenario.name)
        with open(tmp_path / scenario.name / "solution.csv", newline="") as fh:
            periods = [float(row["period"]) for row in csv.DictReader(fh)]
        assert [run[:2] for run in equal_runs(periods)] == runs


def test_interrupted_rewrite_keeps_the_previous_artifacts(tmp_path, monkeypatch):
    # a rerun into the same out_dir that fails while serializing, or
    # while writing a file, leaves the first run's bytes and no .part file
    scenario = load_scenario("case1_discrete")
    names = ["certificate.json", "comparison.csv", "solution.csv"]
    runner.run(scenario, tmp_path)
    first = {name: (tmp_path / name).read_bytes() for name in names}

    def refuse(*args, **kwargs):
        raise RuntimeError("serializer failed")

    def full_disk(path, *args, **kwargs):
        with open(path, *args, **kwargs) as fh:
            fh.write("half a row")
        raise OSError(28, "No space left on device")

    for target, name, fault, error in (
        (json.JSONEncoder, "iterencode", refuse, RuntimeError),
        (runner, "open", full_disk, OSError),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fault, raising=False)
            with pytest.raises(error):
                runner.run(scenario, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert {name: (tmp_path / name).read_bytes() for name in names} == first


def test_solve_without_seed_is_reproducible(tmp_path, capsys):
    # a grouped scenario with no seed draws its restarts from seed 0, so
    # two runs write the same bytes as a run with "seed": 0
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / "uniform_k6.json").read_text())
    del cfg["solver"]["seed"]
    cfg["solver"]["K"] = 3
    runs = []
    for label, solver in (("a", {}), ("b", {}), ("seed_0", {"seed": 0})):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(dict(cfg, solver=dict(cfg["solver"], **solver))))
        assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / label)]) == 0
        runs.append([(tmp_path / label / name).read_bytes() for name in ("solution.csv", "comparison.csv", "certificate.json")])
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0][2])["seed"] == 0


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
    assert list(details) == ["chain_feasibility", "ic_ir"]
    assert details["ic_ir"]["passed"] is True and details["chain_feasibility"]["passed"] is True

    # corrupt one price and the verification must fail
    lines = artifacts.paths["solution"].read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    first[3] = str(float(first[3]) + 0.01)
    bad = tmp_path / "tampered.csv"
    bad.write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")
    ok, details = runner.verify_solution_csv(scenario, bad)
    assert not ok


def test_cli_verify_fails_a_discrete_solution_with_the_wrong_row_count(case1_run, tmp_path, capsys):
    # one row short of the market's 11 types: no certificate is computed
    scenario, artifacts = case1_run
    lines = artifacts.paths["solution"].read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    code = cli.main(["verify", "--solution", str(short), "--scenario", "case1_discrete"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out[: out.rindex("}") + 1]) == {"error": "row count does not match the market's types"}
    assert out.endswith("verification FAIL\n")


def test_json_safe_writes_non_finite_floats_as_text():
    # json.dump would write the bare tokens Infinity and NaN, which are not JSON
    nested = {"a": [1.5, (float("inf"), [float("nan"), -float("inf")])], "b": {"c": (2, "x", None)}}
    safe = runner._json_safe(nested)
    assert safe == {"a": [1.5, ["inf", ["nan", "-inf"]]], "b": {"c": [2, "x", None]}}
    assert json.loads(json.dumps(safe, allow_nan=False)) == safe


def test_sweep_groups(tmp_path):
    scenario = small_grouped_scenario(restarts=1)
    rows = runner.sweep_groups(scenario, [1, 2, 3], tmp_path)
    assert [r["groups"] for r in rows] == [1, 2, 3]
    profits = [r["profit"] for r in rows]
    assert profits == sorted(profits)
    base = full_coverage_profit(scenario.profile, scenario.cost_model, scenario.market, 1.0)
    for r in rows:
        assert abs(r["uplift_percent"] - 100.0 * (r["profit"] / base - 1.0)) < 1e-9
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


def test_cli_check_dist_on_a_discrete_market(capsys):
    assert cli.main(["check-dist", "--scenario", "case1_discrete"]) == 0
    assert capsys.readouterr().out == "discrete market: no density shape condition to check\n"


def market_scenario(tmp_path, name, solver=None, **market):
    """A bundled scenario's file with its market keys (and solver keys) replaced."""
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / f"{name}.json").read_text())
    cfg["market"].update(market)
    cfg["solver"].update(solver or {})
    path = tmp_path / f"{name}_changed.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_refuses_window_without_representable_mass(tmp_path, capsys):
    # the window's mass is 1.1e-322, subnormal, and the density NaN at its low end
    path = market_scenario(
        tmp_path, "truncated_normal_k6",
        sigma_min=0.0008500924234097232, sigma_max=0.024961482377190522,
        M=0.42271125469901566, W=0.010361583498001061,
    )
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("planmenu: error: window carries no representable probability mass")


def test_cli_market_whose_density_underflows(tmp_path, capsys):
    # g underflows to 0 on most of the window: the shape condition holds
    # where it is defined, the solve takes the lockstep boundary search,
    # and the first-best surplus, integrated on the contract's nodes,
    # stays above the contract's
    path = market_scenario(tmp_path, "exponential_k6", solver={"K": 2}, sigma_max=106.9, **{"lambda": 582.6})
    assert cli.main(["check-dist", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.endswith("-> HOLDS\n")
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "profit 2.999889\n" in out and "(PASS)" in out
    with open(tmp_path / "run" / "comparison.csv", newline="") as fh:
        ratio = float({r["label"]: r for r in csv.DictReader(fh)}["social_surplus_ratio_percent"]["profit"])
    assert 99.998 < ratio <= 100.0


@pytest.mark.parametrize(
    "name, market, profit",
    [
        # G and g are 0 near sigma_min: Step II sat a boundary there and the solve raised
        ("truncated_normal_k6", {"M": 5.0, "W": 0.1}, "1.350550"),
        # quantile(1) was NaN, and the window check refused the quantile start
        ("exponential_k6", {"sigma_min": 0.12, "sigma_max": 6.12, "lambda": 10.0}, "2.900649"),
    ],
    ids=["no_mass_at_floor", "steep_exponential"],
)
def test_cli_solves_markets_with_tails_beyond_the_floats(tmp_path, capsys, name, market, profit):
    path = market_scenario(tmp_path, name, solver={"K": 2}, **market)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert f"profit {profit}\n" in out and "(PASS)" in out
    with open(tmp_path / "run" / "comparison.csv", newline="") as fh:
        rows = {r["label"]: float(r["profit"]) for r in csv.DictReader(fh)}
    for t in (1, 2):
        assert 0 < rows[f"fixed_t={t}_optimized_cutoff"] < rows["optimal"]


def mp_truncated_normal_cdf(market, sigma):
    """G(sigma) of a truncated normal market at 50 digits, from the upper
    tail erfc(z / sqrt(2)) / 2."""
    with mpmath.workdps(50):
        tail = [mpmath.erfc((mpmath.mpf(x) - mpmath.mpf(market.loc)) / mpmath.mpf(market.scale) / mpmath.sqrt(2)) / 2
                for x in (market.sigma_min, sigma, market.sigma_max)]
        return float((tail[0] - tail[1]) / (tail[0] - tail[2]))


def once_raising_scenario(tmp_path, kind):
    """The two valid markets whose solves once ended in a traceback: four
    adjacent-float types with the bundled discrete economics (the
    first-best row pooled on a rounding tie), and a truncated normal
    window above loc (Phi(z) - Phi(z_lo) cancelled, and the grouped
    solve saw its profit fall)."""
    if kind == "adjacent_floats":
        cfg = json.loads((Path(planmenu.__file__).parent / "data" / "case1_discrete.json").read_text())
        sigmas = [5.113845414205562, 5.113845414205563, 5.113845414205564, 5.1138454142055645]
        assert sigmas[1:] == [float(np.nextafter(s, np.inf)) for s in sigmas[:-1]]
        cfg["market"].update(sigmas=sigmas, counts=[1] * 4)
    else:
        cfg = json.loads((Path(planmenu.__file__).parent / "data" / "truncated_normal_k6.json").read_text())
        cfg.update(alpha=1.2077035919279555, mu=8.900430456089964, q=8.900430456089964)
        cfg["cost"].update(c0=0.7872551634314793, c1=1.351588179821651)
        cfg["market"].update(
            sigma_min=1.8116449468809894, sigma_max=3.271355401538763,
            M=0.7834729382496802, W=0.19666471407174763, N=99.63545826698237,
        )
        cfg["solver"].update(K=3, restarts=1, seed=45)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("kind", ["adjacent_floats", "upper_tail"])
def test_cli_solves_markets_that_raised(tmp_path, capsys, kind):
    path = once_raising_scenario(tmp_path, kind)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.endswith("(PASS)\n")
    assert json.loads((tmp_path / "run" / "certificate.json").read_text())["passed"] is True
    m = load_scenario(str(path)).market
    if kind == "upper_tail":
        # G(2.1766) was 4.6e-10 off and G(2.5415) read exactly 1.0
        for sigma in np.append(np.linspace(m.sigma_min, m.sigma_max, 9), [2.1766, 2.5415]):
            assert abs(m.cdf(sigma) - mp_truncated_normal_cdf(m, sigma)) <= 1e-12
        assert m.cdf(2.5415) < 1.0


@st.composite
def once_raising_markets(draw):
    """Random scenarios of the two shapes once_raising_scenario records:
    2 to 6 discrete types, each the next float above the one before, or a
    truncated normal window whose floor lies above loc (z_lo > 0)."""
    mu = draw(st.floats(5.0, 20.0))
    profile = DemandProfile(alpha=draw(st.floats(0.5, 2.0)), mu=mu, q=mu + draw(st.sampled_from([0.0, 0.5, 2.0, 5.0])))
    cost_model = CostModel(c0=draw(st.floats(0.05, 0.95)) * mu, c1=draw(st.floats(0.05, 1.5)))
    if draw(st.booleans()):
        sigmas = [draw(st.floats(0.1, 8.0))]
        for _ in range(draw(st.integers(1, 5))):
            sigmas.append(float(np.nextafter(sigmas[-1], np.inf)))
        counts = draw(st.lists(st.floats(0.5, 5.0), min_size=len(sigmas), max_size=len(sigmas)))
        return Scenario("fuzzed", profile, cost_model, DiscreteMarket(sigmas, counts), None, [1.0])
    loc, scale = draw(st.floats(0.0, 3.0)), draw(st.floats(0.05, 1.0))
    lo = loc + scale * draw(st.floats(0.01, 8.0))
    window = ContinuousMarket(
        "truncated_normal", lo, lo + scale * draw(st.floats(0.5, 10.0)), size=draw(st.floats(1.0, 100.0)), loc=loc, scale=scale
    )
    solver = SolverSpec(n_groups=draw(st.integers(1, 3)), restarts=draw(st.integers(0, 1)), seed=draw(st.integers(0, 99)))
    return Scenario("fuzzed", profile, cost_model, window, solver, [1.0])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(once_raising_markets())
def test_fuzzed_markets_of_the_raising_shapes_solve_and_certify(scenario):
    with tempfile.TemporaryDirectory() as out:
        assert runner.run(scenario, out).ok
    m = scenario.market
    if isinstance(m, ContinuousMarket):
        for sigma in np.linspace(m.sigma_min, m.sigma_max, 5):
            assert abs(m.cdf(sigma) - mp_truncated_normal_cdf(m, sigma)) <= 1e-12


@st.composite
def run_then_verify_markets(draw):
    """Random scenarios for the run-then-verify property: 1 to 6 discrete
    types, or a grouped market at K = 1..3 in test_grouped.py's
    random-market ranges, each held to baselines at t = 1 and 2.  A
    discrete market's period cost has a positive slope: at c1 = 0 its
    periods press against the search cap, which warns."""
    discrete = draw(st.booleans())
    mu = draw(st.floats(5.0, 20.0))
    profile = DemandProfile(alpha=1.0, mu=mu, q=mu + draw(st.floats(0.5, 5.0)))
    cost_model = CostModel(c0=draw(st.floats(0.5, 0.95)) * mu, c1=draw(st.floats(0.05 if discrete else 0.0, 1.0)))
    if discrete:
        n = draw(st.integers(1, 6))
        sigmas = sorted(draw(st.lists(st.floats(0.1, 8.0), min_size=n, max_size=n, unique=True)))
        counts = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
        return Scenario("random", profile, cost_model, DiscreteMarket(sigmas, counts), None, [1.0, 2.0])
    kind = draw(st.sampled_from(["uniform", "exponential", "truncated_normal"]))
    lo = draw(st.sampled_from([0.0, 0.5]))
    hi = lo + draw(st.floats(1.0, 8.0))
    params = {}
    if kind == "exponential":
        params["rate"] = draw(st.floats(0.1, 30.0))
    elif kind == "truncated_normal":
        params.update(loc=draw(st.floats(lo, hi)), scale=draw(st.floats(0.1, 3.0)))
    market = make_market(kind, lo, hi, size=draw(st.sampled_from([1.0, 50.0])), **params)
    solver = SolverSpec(n_groups=draw(st.integers(1, 3)), restarts=0, seed=0)
    return Scenario("random", profile, cost_model, market, solver, [1.0, 2.0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(run_then_verify_markets())
@example(
    Scenario(
        "edge", DemandProfile(alpha=1.0, mu=5.0, q=6.0), CostModel(c0=2.5, c1=0.0),
        make_market("uniform", 0.0, 1.1301796333952883), SolverSpec(n_groups=1, restarts=0, seed=0), [1.0, 2.0],
    )
)
def test_verify_passes_every_menu_that_run_passes(scenario):
    # run and verify reach their verdicts through the one certify: a
    # solve that passes writes a solution.csv that verify passes, with
    # the same IC/IR and chain verdicts.  The example serves the whole
    # window, and its top boundary is written as 1.1301796334, above
    # sigma_max: verify once raised "sigma outside the market window"
    with tempfile.TemporaryDirectory() as out:
        artifacts = runner.run(scenario, out)
        ok, details = runner.verify_solution_csv(scenario, artifacts.paths["solution"])
    if artifacts.ok:
        cert = artifacts.certificate
        assert ok and "below_baseline" not in details
        assert details["ic_ir"]["passed"] is cert["ic_ir"]["passed"] is True
        if cert["chain_feasibility"] is not None:
            assert details["chain_feasibility"]["passed"] is cert["chain_feasibility"]["passed"] is True


def test_cli_writes_failing_discrete_menu_as_fail(tmp_path, capsys, monkeypatch):
    # a menu that breaks the chain check (the top price above the top
    # type's valuation) is certified, written and reported as FAIL, not
    # raised from the solver; verify reads back the same verdict
    prices = discrete.optimal_prices
    monkeypatch.setattr(discrete, "optimal_prices", lambda *args: prices(*args) + 0.01)
    out = tmp_path / "run"
    assert cli.main(["solve", "--scenario", "case1_discrete", "--out", str(out)]) == 2
    assert capsys.readouterr().out.endswith("(FAIL)\n")
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is False and cert["ic_ir"]["passed"] is False
    assert cert["chain_feasibility"]["condition"] == "top_participation"
    assert (out / "solution.csv").is_file() and (out / "comparison.csv").is_file()
    ok, details = runner.verify_solution_csv(load_scenario("case1_discrete"), out / "solution.csv")
    assert not ok and list(details) == ["chain_feasibility", "ic_ir"]
    assert details["chain_feasibility"]["condition"] == "top_participation"


def empty_menu_scenario(tmp_path):
    """A K = 1 scenario file whose solve from the quantile start alone ends
    on the empty menu, below its own t = 1 optimized-cutoff baseline."""
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / "truncated_normal_k6.json").read_text())
    cfg.update(mu=15.1761, q=18.2418, cost={"c0": 14.0924, "c1": 0.6079})
    cfg["market"].update(sigma_min=0.5, sigma_max=8.4287, N=50.0, M=5.3517, W=2.1650)
    cfg["solver"].update(K=1, restarts=0, seed=0)
    path = tmp_path / "empty_menu.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_solve_fails_a_menu_below_its_own_baseline(tmp_path, capsys):
    # from the quantile start alone this K = 1 solve ends on the empty
    # menu (profit -0.0), a converged menu that passes IC/IR, 100% below
    # its own t = 1 optimized-cutoff baseline of 1.6575: it is written and
    # reported as FAIL, naming that comparison.csv row
    path = empty_menu_scenario(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert "profit -0.000000\n" in printed and "  below baseline fixed_t=1_optimized_cutoff (1.657522)\n" in printed
    assert printed.endswith("(FAIL)\n")
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is False and cert["ic_ir"]["passed"] is True and cert["convergence"]["converged"] is True
    assert cert["below_baseline"]["label"] == "fixed_t=1_optimized_cutoff"
    with open(out / "comparison.csv", newline="") as fh:
        rows = {r["label"]: float(r["profit"]) for r in csv.DictReader(fh)}
    assert abs(cert["below_baseline"]["profit"] - rows["fixed_t=1_optimized_cutoff"]) <= 1e-11


def test_cli_verify_fails_a_menu_below_its_own_baseline(tmp_path, capsys):
    # the empty menu that K = 1 solve writes passes IC/IR, and verify
    # holds it to the scenario's baselines as solve does: exit 2, naming
    # the same row
    path = empty_menu_scenario(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--scenario", str(path), "--solution", str(out / "solution.csv")]) == 2
    printed = capsys.readouterr().out
    assert printed.endswith("  below baseline fixed_t=1_optimized_cutoff (1.657522)\nverification FAIL\n")
    details = json.loads(printed[: printed.rindex("}") + 1])
    assert details["ic_ir"]["passed"] is True
    assert details["below_baseline"]["label"] == "fixed_t=1_optimized_cutoff"
    assert abs(details["below_baseline"]["profit"] - 1.6575218) <= 1e-7


def test_cli_sweep_fails_a_menu_below_its_own_baseline(tmp_path, capsys):
    # the K = 1 row of a sweep solves the same empty menu as solve does:
    # sweep holds it to the same baselines, prints the row it falls below
    # and exits 2; fig8_sweep.csv is still written
    path = empty_menu_scenario(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", str(path), "--groups", "1", "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert printed == "K=1: profit -0.000000 (n/a vs fixed) FAIL\n  below baseline fixed_t=1_optimized_cutoff (1.657522)\n"
    rows = runner.sweep_groups(load_scenario(str(path)), [1], out)
    assert rows[0]["converged"] is True and rows[0]["passed"] is False
    assert rows[0]["below_baseline"]["label"] == "fixed_t=1_optimized_cutoff"
    assert (out / "fig8_sweep.csv").read_text().splitlines()[0] == "groups,profit,uplift_percent"


def lowered_menu(scenario, artifacts, tmp_path, share):
    """case1's written menu with every price lowered by one constant: share
    of the gap between the menu's profit and its best full-coverage row,
    per head.  Price gaps and periods stay, so IC/IR and the chain hold."""
    best_full = max(row.profit_full for row in artifacts.report.baselines)
    drop = share * (artifacts.solution.total_profit - best_full) / float(scenario.market.counts.sum())
    with open(artifacts.paths["solution"], newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[3] = repr(float(row[3]) - drop)
    path = tmp_path / f"lowered_{share}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def test_verify_fails_a_discrete_menu_below_its_full_coverage_row(case1_run, tmp_path):
    scenario, artifacts = case1_run
    ok, details = runner.verify_solution_csv(scenario, lowered_menu(scenario, artifacts, tmp_path, 0.9))
    assert ok and "below_baseline" not in details
    ok, details = runner.verify_solution_csv(scenario, lowered_menu(scenario, artifacts, tmp_path, 1.1))
    assert details["ic_ir"]["passed"] is True and details["chain_feasibility"]["passed"] is True
    assert not ok
    assert details["below_baseline"]["label"] == "fixed_t=2_full_coverage"
    row = max(artifacts.report.baselines, key=lambda r: r.profit_full)
    assert details["below_baseline"]["profit"] == row.profit_full


def one_price_menu(tmp_path, boundaries, period, price, drop=0.0):
    """A solution.csv, written at solve's 12 significant digits, of one
    period and one price less drop for every row."""
    rows = [("group_index", "sigma_boundary", "period", "price", "count", "item_profit")]
    rows += [(k + 1, float(b), period, price - drop, 0.0, 0.0) for k, b in enumerate(boundaries)]
    path = tmp_path / f"menu_{drop}.csv"
    path.write_text(runner._csv_text(rows))
    return path


@pytest.mark.parametrize("margin", [None, 1e-3])
def test_verify_passes_a_discrete_menu_equal_to_its_full_coverage_row(tmp_path, margin):
    # every type on the t = 2 plan at the top type's valuation is the t = 2
    # full-coverage row itself; its price reads back 4.1e-11 low, which on
    # a per-head margin of 1e-3 is more than REL_PROFIT_TOL of the row
    # (this file failed verify before the written digits were allowed
    # for), while a price 1e-9 lower is a true shortfall
    scenario = load_scenario("case1_discrete")
    price = market.valuation(scenario.profile, scenario.market.sigmas[-1], 2.0)
    if margin is not None:
        scenario = dataclasses.replace(scenario, cost_model=CostModel(c0=price - 1.0 - margin, c1=0.5))
    ok, details = runner.verify_solution_csv(scenario, one_price_menu(tmp_path, scenario.market.sigmas, 2.0, price))
    assert ok and "below_baseline" not in details
    ok, details = runner.verify_solution_csv(scenario, one_price_menu(tmp_path, scenario.market.sigmas, 2.0, price, 1e-9))
    assert details["ic_ir"]["passed"] is True and details["chain_feasibility"]["passed"] is True
    assert not ok and details["below_baseline"]["label"] == "fixed_t=2_full_coverage"


def test_written_slack_sums_the_shift_of_each_written_value():
    # the slack is, to first order, the sum over every price, period and
    # boundary of how far the profit moves when that value alone moves
    # by WRITTEN_RTOL of itself
    scenario = load_scenario("truncated_normal_k6")
    m, eps = scenario.market, runner.WRITTEN_RTOL
    menu = [np.array([1.5, 4.0]), np.array([1.0, 3.0]), np.array([12.0, 11.5])]

    def profit(boundaries, periods, prices):
        return m.size * np.dot(grouped.group_counts(m, boundaries), prices - market.cost(scenario.cost_model, periods))

    shifts = 0.0
    for i, j in itertools.product(range(3), range(2)):
        moved = [x.copy() for x in menu]
        moved[i][j] *= 1 + eps
        shifts += abs(profit(*moved) - profit(*menu))
    mass = m.size * grouped.group_counts(m, menu[0])
    margins = menu[2] - market.cost(scenario.cost_model, menu[1])
    assert runner._written_slack(scenario, *menu, mass, margins) == pytest.approx(shifts, rel=1e-3)


def test_verify_passes_a_grouped_menu_equal_to_its_optimized_cutoff_row(tmp_path):
    # the t = 1 plan sold up to the optimized cutoff at its valuation is
    # that baseline row; on N = 1e5 with thin margins the read-back
    # boundary and price move the profit by more than REL_PROFIT_TOL of
    # the row, while a price 1e-7 lower is a true shortfall
    scenario = load_scenario("exponential_k6")
    scenario = dataclasses.replace(scenario, market=dataclasses.replace(scenario.market, size=1e5), cost_model=CostModel(c0=12.49, c1=0.5))
    items = np.arange(1)
    cutoff = grouped.block_boundaries(scenario.profile, scenario.cost_model, scenario.market, np.ones((1, 1)), items, items)
    price = market.valuation(scenario.profile, float(cutoff[0]), 1.0)
    ok, details = runner.verify_solution_csv(scenario, one_price_menu(tmp_path, cutoff, 1.0, price))
    assert ok and "below_baseline" not in details
    ok, details = runner.verify_solution_csv(scenario, one_price_menu(tmp_path, cutoff, 1.0, price, 1e-7))
    assert details["ic_ir"]["passed"] is True
    assert not ok and details["below_baseline"]["label"] == "fixed_t=1_optimized_cutoff"


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_menus_are_below_no_baseline(tmp_path, name):
    # every bundled solve beats each baseline row it is held to
    artifacts = runner.run(load_scenario(name), tmp_path)
    assert artifacts.certificate["below_baseline"] is None and artifacts.ok


def test_discrete_menu_is_held_to_full_coverage_rows_alone():
    # a discrete menu below an optimized-cutoff row still passes (that
    # baseline may leave types unserved), but not below a full-coverage
    # row; a grouped menu is held to both, and a shortfall within
    # REL_PROFIT_TOL of the row is rounding
    baselines = [oracles.BaselineRow(1.0, 1.5, 2.5), oracles.BaselineRow(2.0, 2.0 + 1e-11, 3.0)]
    assert runner._below_baseline(2.0, baselines, discrete=True) is None
    assert runner._below_baseline(2.0, baselines, discrete=False) == {"label": "fixed_t=2_optimized_cutoff", "profit": 3.0}
    baselines[1] = oracles.BaselineRow(2.0, 2.5, 3.0)
    assert runner._below_baseline(2.0, baselines, discrete=True) == {"label": "fixed_t=2_full_coverage", "profit": 2.5}


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


def test_cli_sweep_fails_on_an_unconverged_k(tmp_path, capsys, monkeypatch):
    # one round and a zero residual tolerance: K = 1's Newton finish
    # still lands on a residual of exactly 0, K = 6 stops unconverged;
    # like solve, the sweep still writes its table and exits 2
    monkeypatch.setattr(grouped, "MAX_ROUNDS", 1)
    monkeypatch.setattr(grouped, "KKT_TOL", 0.0)
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "--scenario", "uniform_k6", "--groups", "1,6", "--out", str(out)]) == 2
    k1, k6 = capsys.readouterr().out.splitlines()
    assert k1.startswith("K=1: ") and "NOT CONVERGED" not in k1
    assert k6.startswith("K=6: ") and k6.endswith(" NOT CONVERGED")
    assert (out / "fig8_sweep.csv").read_text().splitlines()[0] == "groups,profit,uplift_percent"


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


def discrete_json(solver=None, **keys):
    """A small discrete scenario file's text, with market keys (and solver keys) overridden."""
    market = {"kind": "discrete", "sigmas": [1.0, 2.0, 3.0], "counts": [1, 1, 1], **keys}
    return scenario_json(market=market, solver={"kind": "discrete", **(solver or {})})


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
        (grouped_json(seed="abc"), "solver key 'seed' must be an integer >= 0, got 'abc'"),
        (grouped_json(seed=1.5), "solver key 'seed' must be an integer >= 0, got 1.5"),
        (grouped_json(seed=-1), "solver key 'seed' must be an integer >= 0, got -1"),
        (grouped_json(seed=None), "solver key 'seed' must be an integer >= 0, got None"),
        # a discrete market gives every type its own item: no solver settings
        (discrete_json(solver={"K": 2}), "solver key 'K' is not used by this scenario"),
        (discrete_json(solver={"restarts": 1}), "solver key 'restarts' is not used by this scenario"),
        (discrete_json(solver={"seed": 0}), "solver key 'seed' is not used by this scenario"),
        # keys that nothing reads: a typo, another family's parameter
        (grouped_json(Seed=5), "solver key 'Seed' is not used by this scenario"),
        (market_json(**{"lambda": 0.5}), "scenario market key 'lambda' is not used by this scenario"),
        (market_json(M=3.0), "scenario market key 'M' is not used by this scenario"),
        (market_json(kind="exponential", W=1.5, **{"lambda": 0.5}), "scenario market key 'W' is not used by this scenario"),
        (discrete_json(N=1.0), "scenario market key 'N' is not used by this scenario"),
        (scenario_json(cost={"c0": 10.0, "c2": 0.5}), "scenario cost key 'c2' is not used by this scenario"),
        (scenario_json(baseline=[1]), "scenario key 'baseline' is not used by this scenario"),
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
        # a comparison needs at least one fixed-period plan, and a period > 0
        (scenario_json(baselines=[]), "scenario key 'baselines' must be a nonempty list of periods > 0, got []"),
        (scenario_json(baselines=[0]), "scenario key 'baselines' must be a nonempty list of periods > 0, got [0.0]"),
        (scenario_json(baselines=[-1.5]), "scenario key 'baselines' must be a nonempty list of periods > 0, got [-1.5]"),
        # a fixed-period plan keeps to the menu's period window: far outside
        # it its valuation divides by zero or overflows
        (scenario_json(baselines=[1, 1e-300]), "scenario key 'baselines' must list periods in the plan window [0.0001, 600], got [1.0, 1e-300]"),
        (scenario_json(baselines=[1e300]), "scenario key 'baselines' must list periods in the plan window [0.0001, 600], got [1e+300]"),
        (
            json.dumps({**json.loads(discrete_json()), "baselines": [1e308]}),
            "scenario key 'baselines' must list periods in the plan window [0.0001, 600], got [1e+308]",
        ),
        # an integer past the float range would overflow float()
        (scenario_json(alpha=10**400), "scenario key 'alpha' must be a number, got 1000"),
        # refused by the solver before it allocates its start array (7.45 GiB)
        (grouped_json(K=10**9), "n_groups = 1000000000 with restarts = 0 exceeds the work budget (1e+08 values per Newton probe)"),
    ],
    ids=[
        "invalid_json", "market_key_missing", "K_fraction", "K_string", "restarts_negative", "seed_string",
        "seed_fraction", "seed_negative", "seed_null", "discrete_K", "discrete_restarts", "discrete_seed",
        "solver_typo", "uniform_lambda", "uniform_M", "exponential_W", "discrete_N", "cost_typo", "top_level_typo",
        "alpha_null", "alpha_string", "cost_list", "baseline_null",
        "market_N_string", "not_object", "counts_infinite", "market_N_infinite", "sigma_max_infinite", "lambda_infinite", "alpha_infinite",
        "mu_negative_infinite", "q_nan", "c0_infinite", "c1_infinite", "baseline_infinite", "baselines_empty",
        "baselines_zero", "baselines_negative", "baselines_tiny", "baselines_huge", "discrete_baselines_huge",
        "alpha_huge_integer", "K_over_budget",
    ],
)
def test_cli_rejects_malformed_scenario(tmp_path, capsys, text, problem):
    bad = tmp_path / "broken.json"
    bad.write_text(text)
    assert cli.main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("planmenu: error: ") and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_refuses_baselines_at_load(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(scenario_json(baselines=[0]))
    assert cli.main(["sweep", "--scenario", str(bad), "--groups", "1,2", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "planmenu: error: scenario key 'baselines' must be a nonempty list of periods > 0, got [0.0]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6"])
def test_cli_market_size_near_the_float_limit(tmp_path, capsys, name):
    # N times a consumer's money figures overflows: every command that
    # loads the scenario refuses it by name and writes nothing; at
    # N = 1e300 the solve runs without a warning
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / f"{name}.json").read_text())
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**cfg, "market": {**cfg["market"], "N": 1.7e308}}))
    for command in (["solve"], ["sweep", "--groups", "1,2"], ["oracle", "--grid-step", "0.5"]):
        out = ["--out", str(tmp_path / "out")] if command[0] != "oracle" else []
        assert cli.main(command + ["--scenario", str(huge)] + out) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("planmenu: error: scenario market key 'N' = 1.7e+308 ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
    large = tmp_path / "large.json"
    large.write_text(json.dumps({**cfg, "market": {**cfg["market"], "N": 1e300}}))
    assert cli.main(["solve", "--scenario", str(large), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "name, edit, problem",
    [
        ("case1_discrete", lambda cfg: {**cfg, "market": {**cfg["market"], "counts": [1e308] * len(cfg["market"]["counts"])}},
         "scenario market key 'counts' (total inf) is too large"),
        ("case1_discrete", lambda cfg: {**cfg, "cost": {**cfg["cost"], "c1": 1e306}},
         "scenario keys 'alpha', 'mu' and 'cost' give a consumer a largest money figure"),
        ("uniform_k6", lambda cfg: {**cfg, "cost": {**cfg["cost"], "c1": 1e306}},
         "scenario keys 'alpha', 'mu' and 'cost' give a consumer a largest money figure"),
    ],
    ids=["discrete_counts", "discrete_cost", "continuous_cost"],
)
def test_cli_money_figures_overflow_on_every_market(tmp_path, capsys, name, edit, problem):
    # one money rule for both market kinds: a consumer's largest money
    # figure must be finite, and so must the market's mass (N, or the sum
    # of the counts) times it; the error names the keys at fault
    cfg = json.loads((Path(planmenu.__file__).parent / "data" / f"{name}.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(cfg)))
    assert cli.main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("planmenu: error: " + problem) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "verify", "oracle", "check-dist"])
def test_cli_help_names_every_bundled_scenario(capsys, command):
    # --scenario is one option shared by every command, so each command's
    # help lists the names it accepts without a path
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert all(name in help_text for name in bundled_scenario_names()), help_text


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
        (["sweep", "--scenario", "uniform_k6", "--groups", "1,a"], "--groups takes comma-separated integers >= 1, got '1,a'"),
        (["sweep", "--scenario", "uniform_k6", "--groups", "0,2"], "--groups takes comma-separated integers >= 1, got '0,2'"),
        (
            ["sweep", "--scenario", "uniform_k6", "--groups", "1,1000000000"],
            "n_groups = 1000000000 with restarts = 4 exceeds the work budget (1e+08 values per Newton probe)",
        ),
    ],
    ids=[
        "step_zero", "step_zero_discrete", "step_negative", "t_max_zero", "step_nan", "grid_over_budget",
        "grid_points_zero", "grid_points_one", "grid_points_huge", "groups_empty", "groups_repeated",
        "groups_not_integer", "groups_zero", "groups_over_budget",
    ],
)
def test_cli_rejects_malformed_option(tmp_path, capsys, monkeypatch, argv, problem):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "out")]
    solves, solve_starts = [], grouped._solve_starts
    monkeypatch.setattr(grouped, "_solve_starts", lambda *args: solves.append(args) or solve_starts(*args))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("planmenu: error: ") and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # refused before any solve, also a sweep whose later K is too large
    assert solves == []


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--groups", "1,2"]], ids=["solve", "sweep"])
def test_cli_refuses_negative_seed(tmp_path, capsys, command):
    argv = command + ["--scenario", "uniform_k6", "--seed", "-1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "planmenu: error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["5", "-1"])
def test_cli_refuses_seed_for_discrete_scenario(tmp_path, capsys, seed):
    # a discrete market has no restarts, so a seed would be an option that does nothing
    argv = ["solve", "--scenario", "case1_discrete", "--seed", seed, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"planmenu: error: seed applies to grouped scenarios only, and case1_discrete is discrete (got {seed})\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded(tmp_path):
    # every planmenu command is a fresh process, so its imports are part of
    # its wall time; the package loads no scipy module at all, neither to
    # import nor to solve (a discrete and a grouped scenario and a sweep,
    # in one process), and seeded restarts load neither numpy's generator
    # nor the secrets and hashlib modules it brings in
    src = str(Path(planmenu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = f"""
import contextlib, io, sys
import planmenu.cli

def heavy_modules():
    return [m for m in sys.modules if m.split(".")[0] in ("scipy", "secrets", "hashlib") or m.startswith("numpy.random")]

print(heavy_modules())
out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("case1_discrete", "uniform_k6"):
        assert planmenu.cli.main(["solve", "--scenario", name, "--out", out + "/" + name]) == 0
    assert planmenu.cli.main(["sweep", "--scenario", "uniform_k6", "--groups", "1,2", "--out", out + "/sweep"]) == 0
print(heavy_modules())
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
