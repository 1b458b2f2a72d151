"""Acceptance gate: one test per acceptance criterion.

Each test prints a single CRITERION line carrying the measured value
and the tolerance it is held to, then asserts.  Expensive solves are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from planmenu import runner
from planmenu.discrete import solve_discrete, feasibility_check
from planmenu.distributions import ContinuousMarket, DiscreteMarket, make_market
from planmenu.grouped import solve_with_restarts
from planmenu.market import (
    cost,
    valuation,
    valuation_dsigma,
    valuation_dt,
)
from planmenu.oracles import (
    brute_force_ic_ir,
    full_coverage_profit,
    grid_oracle_discrete,
    grid_oracle_grouped,
    monte_carlo_valuation,
    social_metrics,
)
from planmenu.scenarios import load_scenario

GROUPED_SCENARIOS = ("uniform_k6", "exponential_k6", "truncated_normal_k6")


def report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def uplift(profit, base_profit):
    return 100.0 * (profit / base_profit - 1.0)


@pytest.fixture(scope="module")
def case1():
    sc = load_scenario("case1_discrete")
    t0 = time.perf_counter()
    sol = solve_discrete(sc.profile, sc.cost_model, sc.market)
    return sc, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def case2():
    sc = load_scenario("case2_mountain")
    return sc, solve_discrete(sc.profile, sc.cost_model, sc.market)


@pytest.fixture(scope="module")
def grouped():
    out = {}
    for name in GROUPED_SCENARIOS:
        sc = load_scenario(name)
        sol = solve_with_restarts(
            sc.profile,
            sc.cost_model,
            sc.market,
            sc.solver.n_groups,
            restarts=sc.solver.restarts,
            seed=sc.solver.seed,
        )
        out[name] = (sc, sol)
    return out


@pytest.fixture(scope="module")
def uniform_sweep(tmp_path_factory):
    sc = load_scenario("uniform_k6")
    return runner.sweep_groups(sc, [1, 2, 3, 4, 5, 6], tmp_path_factory.mktemp("sweep"))


def test_criterion_01_discrete_case1_uplift_and_runtime(case1):
    sc, sol, runtime = case1
    base = full_coverage_profit(sc.profile, sc.cost_model, sc.market, 1.0)
    up = uplift(sol.total_profit, base)
    ok = abs(up - 41.0) <= 4.0 and runtime < 5.0
    report(1, ok, f"case1 uplift vs monthly baseline {up:.2f}% (target 41±4), solve {runtime * 1e3:.0f} ms (< 5 s)")


def test_criterion_02_case1_social_surplus_ratio(case1):
    sc, sol, _ = case1
    social = social_metrics(sc.profile, sc.cost_model, sc.market, sol)
    pct = 100.0 * social.ratio
    ok = abs(pct - 93.0) <= 3.0
    report(2, ok, f"case1 social surplus ratio {pct:.2f}% (target 93±3)")


def test_criterion_03_uniform_k6_uplifts(grouped):
    sc, sol = grouped["uniform_k6"]
    ups = {}
    for t in (1.0, 2.0):
        base = full_coverage_profit(sc.profile, sc.cost_model, sc.market, t)
        ups[t] = uplift(sol.total_profit, base)
    ok = abs(ups[1.0] - 37.0) <= 5.0 and abs(ups[2.0] - 21.0) <= 5.0
    report(3, ok, f"uniform K=6 uplift {ups[1.0]:.2f}% vs t=1 (37±5), {ups[2.0]:.2f}% vs t=2 (21±5)")


def test_criterion_04_group_count_sweep(uniform_sweep):
    profits = np.array([row["profit"] for row in uniform_sweep])
    monotone = bool(np.all(np.diff(profits) >= -1e-9 * np.abs(profits[:-1])))
    share = profits[3] / profits[5]
    ok = monotone and share >= 0.98
    report(4, ok, f"profit(K) nondecreasing for K=1..6: {monotone}; profit(4)/profit(6) = {share:.4f} (>= 0.98)")


def test_criterion_05_uplift_ordering_across_families(grouped):
    ups = {}
    for name in GROUPED_SCENARIOS:
        sc, sol = grouped[name]
        base = full_coverage_profit(sc.profile, sc.cost_model, sc.market, 1.0)
        ups[name] = uplift(sol.total_profit, base)
    u, e, n = (ups[k] for k in GROUPED_SCENARIOS)
    ok = e > n > u > 0.0
    report(5, ok, f"K=6 uplifts: exponential {e:.2f}% > truncated normal {n:.2f}% > uniform {u:.2f}% > 0")


def test_criterion_06_solver_matches_grid_oracles():
    profile = load_scenario("uniform_k6").profile
    from planmenu.market import CostModel

    cost_model = CostModel(c0=10.0, c1=0.5)
    market = ContinuousMarket(kind="uniform", sigma_min=0.0, sigma_max=6.0)
    sigma_grid = np.arange(1, 601) * 0.01
    t_grid = np.arange(1, 801) * 0.01
    worst_rel = 0.0
    worst_above = -np.inf
    for k in (2, 3):
        sol = solve_with_restarts(profile, cost_model, market, k, restarts=2, seed=7)
        pure, _, _ = grid_oracle_grouped(profile, cost_model, market, k, sigma_grid, t_grid)
        worst_rel = max(worst_rel, abs(sol.total_profit - pure) / pure)
        union_s = np.union1d(sigma_grid, sol.boundaries)
        union_t = np.union1d(t_grid, sol.periods)
        refined, _, _ = grid_oracle_grouped(profile, cost_model, market, k, union_s, union_t)
        worst_above = max(worst_above, sol.total_profit - refined)

    t_small = np.arange(1, 241) * 0.05
    worst_step = 0.0
    worst_deficit = -np.inf
    for sigmas in ([2.0], [1.5, 4.0], [1.0, 3.0, 5.0]):
        m = DiscreteMarket(sigmas=sigmas, counts=np.ones(len(sigmas)))
        sol = solve_discrete(profile, cost_model, m)
        oracle_profit, oracle_periods = grid_oracle_discrete(profile, cost_model, m, t_small)
        worst_step = max(worst_step, float(np.max(np.abs(sol.periods - oracle_periods))))
        worst_deficit = max(worst_deficit, oracle_profit - sol.total_profit)

    ok = (
        worst_rel <= 0.01
        and worst_above <= 1e-6
        and worst_step <= 0.05 + 1e-12
        and worst_deficit <= 1e-9
    )
    report(
        6,
        ok,
        "grouped K=2,3 vs grid oracle: rel gap "
        f"{worst_rel:.2e} (<= 1%), excess over refined grid {worst_above:.2e} (<= 1e-6); "
        f"discrete I<=3: period offset {worst_step:.3f} (<= one 0.05 step), "
        f"profit deficit {worst_deficit:.2e} (<= 1e-9)",
    )


def test_criterion_07_feasibility_suite(case1, case2, grouped):
    sc1, sol1, _ = case1
    sc2, sol2 = case2
    certs = [
        brute_force_ic_ir(sc1.profile, sc1.market, sol1.periods, sol1.prices),
        brute_force_ic_ir(sc2.profile, sc2.market, sol2.periods, sol2.prices),
    ]
    for name in GROUPED_SCENARIOS:
        sc, sol = grouped[name]
        certs.append(
            brute_force_ic_ir(
                sc.profile, sc.market, sol.periods, sol.prices,
                boundaries=sol.boundaries,
            )
        )
    worst = max(max(c.worst_ic_violation, c.worst_ir_violation) for c in certs)
    all_passed = all(c.passed for c in certs)

    # random feasible price vectors sampled inside the IC/IR sandwich
    market, periods = sc1.market, sol1.periods
    n = market.n_types
    drops_hi = valuation(sc1.profile, market.sigmas[1:], periods[:-1]) - valuation(
        sc1.profile, market.sigmas[1:], periods[1:]
    )
    drops_lo = valuation(sc1.profile, market.sigmas[:-1], periods[:-1]) - valuation(
        sc1.profile, market.sigmas[:-1], periods[1:]
    )
    v_top = valuation(sc1.profile, market.sigmas[-1], periods[-1])
    costs = cost(sc1.cost_model, periods)
    rng = np.random.default_rng(20260822)
    beaten = 0
    for _ in range(1000):
        prices = np.empty(n)
        prices[-1] = v_top - rng.uniform(0.0, 0.3)
        for i in range(n - 2, -1, -1):
            prices[i] = prices[i + 1] + rng.uniform(drops_hi[i], drops_lo[i])
        assert feasibility_check(sc1.profile, market, periods, prices).passed
        if float(market.counts @ (prices - costs)) > sol1.total_profit + 1e-9:
            beaten += 1

    ok = all_passed and worst <= 1e-9 and beaten == 0
    report(
        7,
        ok,
        f"all 5 solver outputs IC/IR-feasible, worst violation {worst:.2e} (tol 1e-9); "
        f"{beaten}/1000 random feasible price vectors beat the telescoping chain (must be 0)",
    )


def test_criterion_08_valuation_against_simulation_and_derivatives():
    sc = load_scenario("uniform_k6")
    profile = sc.profile
    rng = np.random.default_rng(78)
    worst_z = 0.0
    accepted = 0
    while accepted < 20:
        sigma = float(rng.uniform(0.3, 6.0))
        t = float(rng.uniform(0.3, 6.0))
        # keep pairs where the cap binds often enough for a million
        # samples to resolve the overage term at all
        if np.sqrt(t) * (profile.q - profile.mu) / sigma > 3.5:
            continue
        accepted += 1
        est, se = monte_carlo_valuation(profile, sigma, t, 1_000_000, seed=int(rng.integers(2**31)))
        worst_z = max(worst_z, abs(est - valuation(profile, sigma, t)) / se)
    mc_ok = worst_z <= 3.0

    worst_fd = 0.0
    for sigma, t in ((1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (0.7, 0.5), (5.0, 4.0)):
        h = 1e-6 * t
        fd_t = (valuation(profile, sigma, t + h) - valuation(profile, sigma, t - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd_t / valuation_dt(profile, sigma, t) - 1.0))
        h = 1e-6 * sigma
        fd_s = (valuation(profile, sigma + h, t) - valuation(profile, sigma - h, t)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd_s / valuation_dsigma(profile, sigma, t) - 1.0))
    fd_ok = worst_fd <= 1e-5

    worst_scale = 0.0
    for _ in range(20):
        sigma = float(rng.uniform(0.2, 4.0))
        t = float(rng.uniform(0.2, 4.0))
        k = float(rng.uniform(0.5, 3.0))
        worst_scale = max(
            worst_scale,
            abs(valuation(profile, sigma, t) - valuation(profile, k * sigma, k * k * t)),
        )
    scale_ok = worst_scale <= 1e-12

    ok = mc_ok and fd_ok and scale_ok
    report(
        8,
        ok,
        f"Monte Carlo worst |z| {worst_z:.2f} over 20 pairs at 1e6 samples (<= 3 SE); "
        f"derivative vs finite difference rel err {worst_fd:.2e} (<= 1e-5); "
        f"scaling symmetry gap {worst_scale:.2e} (<= 1e-12)",
    )


def test_criterion_09_shape_condition_across_families():
    markets = [make_market("uniform", 0.0, 6.0)]
    markets += [make_market("exponential", 0.0, 6.0, rate=r) for r in (0.25, 0.5, 1.0)]
    markets += [
        make_market("truncated_normal", 0.0, 6.0, loc=m, scale=w)
        for m, w in ((1.0, 1.0), (3.0, 1.0), (3.0, 2.0), (5.0, 1.0))
    ]
    reports = [m.verify_theorem3(grid_points=1000) for m in markets]
    min_slack = min(r.min_slack for r in reports)
    ok = all(r.holds for r in reports) and min_slack >= -1e-10
    report(
        9,
        ok,
        f"boundary-unimodality condition holds on all 8 built-in markets; min slack {min_slack:.2e} (>= -1e-10)",
    )


def test_criterion_10_alternation_traces(grouped):
    worst_iters = 0
    monotone = True
    converged = True
    for name in GROUPED_SCENARIOS:
        _, sol = grouped[name]
        trace = np.asarray(sol.profit_trace)
        monotone &= bool(np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1]))))
        converged &= sol.converged
        worst_iters = max(worst_iters, sol.iterations)
    ok = monotone and converged and worst_iters <= 200
    report(
        10,
        ok,
        f"profit traces monotone on all bundled continuous scenarios: {monotone}; "
        f"converged: {converged}; max iterations {worst_iters} (<= 200)",
    )
