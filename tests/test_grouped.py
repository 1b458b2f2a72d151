"""Continuum-market menu solver: boundary terms, alternation, restarts."""

import contextlib
import tempfile
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from planmenu import grouped, runner
from planmenu.discrete import DEFAULT_T_DOMAIN, optimal_prices, period_objective, solve_discrete
from planmenu.distributions import DiscreteMarket, make_market
from planmenu.grouped import (
    FALLBACK_GRID,
    KKT_TOL,
    REL_PROFIT_TOL,
    _blocks,
    _boundary_slopes,
    _menu_terms,
    block_boundaries,
    group_counts,
    menu_profit,
    solve_alternating,
    solve_with_restarts,
    split_heaviest_group,
    step1_periods,
    step2_boundaries,
)
from planmenu.market import CostModel, DemandProfile, cost, valuation, valuation_dsigma, valuation_dt_dtt
from planmenu.oracles import brute_force_ic_ir, fixed_period_baseline
from planmenu.runner import sweep_groups
from planmenu.scenarios import Scenario, SolverSpec, load_scenario

# quadrature-oracle values (alpha=1, mu=13, q=15)
V_6_4 = 12.546641058526790  # equals V(3, 1) by scaling
V_3_4 = 12.936407327437745
V_6_1 = 11.474583314205567


def uniform06(size=1.0):
    return make_market("uniform", 0.0, 6.0, size=size)


def exponential06(size=1.0):
    return make_market("exponential", 0.0, 6.0, size=size, rate=0.5)


def truncnorm06(size=1.0):
    return make_market("truncated_normal", 0.0, 6.0, size=size, loc=3.0, scale=1.5)


ALL_MARKETS = [uniform06, exponential06, truncnorm06]


def boundary_objective(profile, cost_model, market, periods, k, sigma):
    """Q_k(sigma): the profit terms containing boundary k, periods fixed,
    N G(s) (V(s, t_k) - V(s, t_{k+1}) + C(t_{k+1}) - C(t_k)), with
    V = C = 0 for the outside option above the top item."""
    t = np.asarray(periods, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if k + 1 < t.size:
        wedge = valuation(profile, s, t[k]) - valuation(profile, s, t[k + 1]) + cost(cost_model, t[k + 1]) - cost(cost_model, t[k])
    else:
        wedge = valuation(profile, s, t[k]) - cost(cost_model, t[k])
    return market.size * market.cdf(s) * wedge


def chain_profit(profile, cost_model, market, boundaries, periods):
    """Direct profit: group masses times per-item margins at chain prices."""
    prices = optimal_prices(profile, boundaries, periods)
    return float(np.dot(group_counts(market, boundaries), prices - cost(cost_model, np.asarray(periods, dtype=float))))


# --- lockstep boundary search and the dense-grid fallback ----------------

def test_block_boundaries_match_find_root(profile, rng):
    # random periods cut into random blocks; each block's boundary is the
    # root of its slope Q' (the telescoped sum of its members' terms),
    # found by scipy's bracketing root finder one block at a time, or the
    # window edge its slope's sign points to
    inside = 0
    for factory in ALL_MARKETS:
        mkt = factory(size=float(rng.uniform(0.5, 3.0)))
        lo, hi = mkt.sigma_min, mkt.sigma_max
        for _ in range(8):
            n = int(rng.integers(1, 7))
            t = np.sort(rng.uniform(0.1, 12.0, n))
            model = CostModel(c0=10.0, c1=float(rng.uniform(0.05, 1.0)))
            cuts = np.flatnonzero(rng.random(n - 1) < 0.5)
            first = np.concatenate(([0], cuts + 1))
            last = np.concatenate((cuts, [n - 1]))
            got = block_boundaries(profile, model, mkt, t, first, last)
            for j in range(first.size):
                block = _blocks(model, t, first[j : j + 1], last[j : j + 1])
                slope = lambda s: _boundary_slopes(profile, mkt, np.reshape(s, (-1, 1)), block)[1].reshape(np.shape(s))
                if slope(lo) <= 0 or slope(hi) >= 0:
                    assert got[j] == (lo if slope(lo) <= 0 else hi)
                    continue
                ref = float(find_root(slope, (lo, hi)).x)
                assert abs(got[j] - ref) <= 1e-12 * ref
                inside += 1
    assert inside >= 20


def test_boundary_curvature_symbolic(profile):
    # Q(s) = N G(s) (V(s, t1) - V(s, t2) + C(t2) - C(t1)) on a truncated
    # exponential market, differentiated twice by sympy
    s, x = sp.Symbol("sigma", positive=True), sp.Symbol("x", real=True)
    phi = sp.exp(-x**2 / 2) / sp.sqrt(2 * sp.pi)
    excess = phi - x * sp.erfc(x / sp.sqrt(2)) / 2
    alpha, mu, d = (sp.nsimplify(z) for z in (profile.alpha, profile.mu, profile.q - profile.mu))

    def v(t):
        return alpha * (mu - s / sp.sqrt(t) * excess.subs(x, sp.sqrt(t) * d / s))

    rate, size, t1, t2 = sp.Rational(1, 2), 3, sp.Rational(9, 10), sp.Rational(5, 2)
    G = (1 - sp.exp(-rate * s)) / (1 - sp.exp(-6 * rate))
    model = CostModel(c0=10.0, c1=0.5)
    dcost = sp.nsimplify(float(cost(model, 2.5) - cost(model, 0.9)))
    q = size * G * (v(t1) - v(t2) + dcost)
    ref = sp.lambdify(s, [q, sp.diff(q, s), sp.diff(q, s, 2)], "mpmath")

    mkt = make_market("exponential", 0.0, 6.0, size=3.0, rate=0.5)
    item = np.array([0])
    sig = np.array([0.05, 0.4, 1.5, 3.0, 5.9])
    got = _boundary_slopes(profile, mkt, sig[:, None], _blocks(model, [0.9, 2.5], item, item))
    with mpmath.workdps(50):
        for k, sk in enumerate(sig):
            for value, want in zip((got[0], got[1], got[3]), ref(mpmath.mpf(sk))):
                assert abs(value[k, 0] - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_boundary_fallback_finds_global_peak(profile, cost_model, valley_market):
    # the valley density fails the shape condition: the boundary term of
    # a one-item menu has two peaks, and the dense scan plus the lockstep
    # search in the best grid point's bracket lands on the taller one
    one = np.zeros(1, dtype=int)
    for t in (0.5, 1.0, 3.0):
        sig = np.linspace(0.0, 6.0, 200_001)
        scan = boundary_objective(profile, cost_model, valley_market, [t], 0, sig)
        x = block_boundaries(profile, cost_model, valley_market, [t], one, one)[0]
        best = boundary_objective(profile, cost_model, valley_market, [t], 0, x)
        assert best >= scan.max() - 1e-12
        assert abs(x - sig[np.argmax(scan)]) <= 6.0 / FALLBACK_GRID


# --- group masses and prices ----------------------------------------------

def test_group_counts_uniform():
    mkt = uniform06()
    counts = group_counts(mkt, [2.0, 6.0])
    assert np.allclose(counts, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    counts = group_counts(mkt, [6.0, 6.0])
    assert np.allclose(counts, [1.0, 0.0], atol=1e-12)
    mkt3 = uniform06(size=3.0)
    assert np.allclose(group_counts(mkt3, [3.0, 6.0]), [1.5, 1.5], atol=1e-12)


def test_group_counts_exponential():
    mkt = exponential06()
    counts = group_counts(mkt, [1.0, 3.0, 6.0])
    expect = np.diff([0.0, mkt.cdf(1.0), mkt.cdf(3.0), 1.0])
    assert np.allclose(counts, expect, atol=1e-12)
    assert abs(counts.sum() - 1.0) < 1e-12


def test_group_counts_rejects_unordered():
    with pytest.raises(ValueError):
        group_counts(uniform06(), [3.0, 1.0])


def test_group_counts_rejects_nan():
    with pytest.raises(ValueError, match="outside the market window"):
        group_counts(exponential06(), [np.nan, 6.0])


def test_optimal_prices_grouped_single(profile):
    prices = optimal_prices(profile, [6.0], [1.0])
    assert abs(prices[0] - V_6_1) < 1e-12


def test_optimal_prices_grouped_two_frozen(profile):
    # boundaries (3, 6), periods (1, 4): the top boundary type pays her
    # valuation; the lower price follows from boundary-3 indifference
    prices = optimal_prices(profile, [3.0, 6.0], [1.0, 4.0])
    assert abs(prices[1] - V_6_4) < 1e-12
    assert abs(prices[0] - (V_6_4 + V_6_4 - V_3_4)) < 1e-12  # V(3,1) = V(6,4)


def test_optimal_prices_grouped_equal_periods(profile):
    prices = optimal_prices(profile, [2.0, 4.0, 6.0], [3.0, 3.0, 3.0])
    assert np.max(np.abs(np.diff(prices))) < 1e-14
    with pytest.raises(ValueError):
        optimal_prices(profile, [2.0, 6.0], [1.0, 2.0, 3.0])


# --- per-group and per-boundary objectives --------------------------------

def test_group_objective_bottom_group(profile, cost_model):
    # the bottom group of boundaries (2, 6) has no rent mass below it
    mkt = uniform06()
    t = 1.3
    own = mkt.cdf(2.0) * (valuation(profile, 2.0, t) - cost(cost_model, t))
    assert abs(period_objective(profile, cost_model, mkt.cdf(2.0), 0.0, 2.0, 2.0, t) - own) < 1e-12


def test_group_objective_single_group_serves_all(profile, cost_model):
    mkt = uniform06()
    for t in (0.7, 1.0, 5.0):
        val = period_objective(profile, cost_model, mkt.size, 0.0, 6.0, 6.0, t)
        assert abs(val - (valuation(profile, 6.0, t) - cost(cost_model, t))) < 1e-12


def test_group_objective_matches_discrete_analog(profile, cost_model):
    # with the boundaries fixed, Step I is the discrete problem whose types
    # are the boundaries and whose counts are the band masses
    cases = [
        (uniform06(), [3.0, 6.0]),
        (uniform06(), [1.5, 3.0, 6.0]),
        (uniform06(size=4.0), [0.75, 1.5, 3.0, 4.5]),
        (exponential06(), [2.0, 5.0]),
        (truncnorm06(), [2.5, 4.0]),
    ]
    for mkt, boundaries in cases:
        periods, _ = step1_periods(profile, cost_model, mkt, boundaries)
        dm = DiscreteMarket(sigmas=boundaries, counts=group_counts(mkt, boundaries))
        assert np.array_equal(periods, solve_discrete(profile, cost_model, dm).periods)


def test_boundary_objective_zero_at_bottom(profile, cost_model):
    mkt = uniform06()
    assert abs(boundary_objective(profile, cost_model, mkt, [1.0, 4.0], 0, 0.0)) < 1e-15


def test_boundary_objective_vanishes_for_equal_periods(profile, cost_model):
    mkt = uniform06()
    for s in (0.5, 2.0, 5.5):
        assert abs(boundary_objective(profile, cost_model, mkt, [2.0, 2.0], 0, s)) < 1e-15


def test_boundary_objective_top_is_coverage_times_margin(profile, cost_model):
    mkt = uniform06()
    val = boundary_objective(profile, cost_model, mkt, [1.0], 0, 6.0)
    assert abs(val - (V_6_1 - 10.5)) < 1e-12
    val = boundary_objective(profile, cost_model, mkt, [1.0], 0, 3.0)
    assert abs(val - 0.5 * (valuation(profile, 3.0, 1.0) - 10.5)) < 1e-12


def test_boundary_objective_rejects_outside_window(profile, cost_model):
    mkt = uniform06()
    with pytest.raises(ValueError):
        boundary_objective(profile, cost_model, mkt, [1.0, 4.0], 0, 7.0)


def h_function(profile, market, sigma, t_low, t_high):
    """H(sigma) = V(sigma,t_low) - V(sigma,t_high) + (G/g)(V_s(sigma,t_low) - V_s(sigma,t_high)).

    dQ_k/dsigma = N * g(sigma) * (H + C(t_high) - C(t_low)); the shape
    condition keeps each Q_k single-peaked by controlling H's descent.
    """
    g = market.pdf(sigma)
    G = market.cdf(sigma)
    dv = valuation(profile, sigma, t_low) - valuation(profile, sigma, t_high)
    dvs = valuation_dsigma(profile, sigma, t_low) - valuation_dsigma(profile, sigma, t_high)
    return dv + (G / g) * dvs


def test_h_function_identities(profile, cost_model):
    mkt = uniform06()
    # equal periods: H == 0
    for s in (0.5, 3.0, 5.5):
        assert abs(h_function(profile, mkt, s, 2.0, 2.0)) < 1e-15
    # dQ_k/dsigma = N * g(sigma) * (H + C(t_high) - C(t_low))
    t_low, t_high = 1.0, 4.0
    dcost = cost(cost_model, t_high) - cost(cost_model, t_low)
    h = 1e-6
    for s in (0.8, 2.5, 4.7):
        fd = (
            boundary_objective(profile, cost_model, mkt, [t_low, t_high], 0, s + h)
            - boundary_objective(profile, cost_model, mkt, [t_low, t_high], 0, s - h)
        ) / (2 * h)
        exact = mkt.size * mkt.pdf(s) * (h_function(profile, mkt, s, t_low, t_high) + dcost)
        assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def test_h_function_nonincreasing(profile):
    # the descent of H is what makes each boundary objective single-peaked
    mkt = uniform06()
    sig = np.linspace(0.05, 6.0, 400)
    H = np.array([h_function(profile, mkt, s, 1.0, 4.0) for s in sig])
    assert np.all(np.diff(H) <= 1e-12)


def test_profit_accounting_identity(profile, cost_model, rng):
    # sum of boundary terms at the boundaries == group masses times margins
    for factory in ALL_MARKETS:
        mkt = factory()
        for k in (1, 2, 4):
            for _ in range(5):
                b = np.sort(rng.uniform(0.2, 6.0, size=k))
                t = np.sort(rng.uniform(0.3, 15.0, size=k))
                direct = chain_profit(profile, cost_model, mkt, b, t)
                viaq = sum(
                    boundary_objective(profile, cost_model, mkt, t, j, b[j]) for j in range(k)
                )
                assert abs(direct - viaq) < 1e-8 * max(1.0, abs(direct))
                assert abs(menu_profit(profile, cost_model, mkt, b, t) - viaq) <= 1e-14 * max(1.0, abs(viaq))


def test_boundary_objective_single_peaked(profile, cost_model):
    # scan each Q_k on a dense grid: values rise to the peak, then fall
    for factory in ALL_MARKETS:
        mkt = factory()
        sig = np.linspace(0.0, 6.0, 2000)
        for k, periods in ((0, [1.0, 4.0]), (1, [1.0, 4.0]), (0, [2.0])):
            vals = boundary_objective(profile, cost_model, mkt, periods, k, sig)
            j = int(np.argmax(vals))
            d = np.diff(vals)
            assert np.all(d[: max(j - 1, 0)] >= -1e-12)
            assert np.all(d[j:] <= 1e-12)


# --- half-steps ------------------------------------------------------------

def test_step1_improves_and_ascends(profile, cost_model):
    mkt = uniform06()
    b = np.array([2.0, 4.0, 6.0])
    t_start = np.array([2.0, 2.0, 2.0])
    t_new, blocks = step1_periods(profile, cost_model, mkt, b)
    assert np.all(np.diff(t_new) >= -1e-12)
    before = menu_profit(profile, cost_model, mkt, b, t_start)
    after = menu_profit(profile, cost_model, mkt, b, t_new)
    assert after >= before - 1e-12


def test_step2_improves_and_ascends(profile, cost_model):
    mkt = uniform06()
    t = np.array([0.8, 1.5, 3.0])
    b_start = np.array([2.0, 4.0, 6.0])
    b_new, blocks = step2_boundaries(profile, cost_model, mkt, t)
    assert np.all(np.diff(b_new) >= -1e-12)
    assert np.all((b_new >= 0.0) & (b_new <= 6.0))
    before = menu_profit(profile, cost_model, mkt, b_start, t)
    after = menu_profit(profile, cost_model, mkt, b_new, t)
    assert after >= before - 1e-12


# --- the alternating solver -------------------------------------------------

def test_single_group_matches_joint_grid(profile, cost_model):
    # K = 1 is a 2-D problem: marginal type and period; brute-force the
    # rectangle and confirm the alternation lands on the same optimum
    mkt = uniform06()
    sol = solve_alternating(profile, cost_model, mkt, 1)
    ss = np.linspace(0.01, 6.0, 600)[:, None]
    tt = np.linspace(0.2, 20.0, 1981)[None, :]
    grid = mkt.cdf(ss) * (valuation(profile, ss + 0 * tt, 0 * ss + tt) - cost(cost_model, tt))
    gmax = float(grid.max())
    assert sol.total_profit >= gmax - 1e-8
    assert sol.total_profit <= gmax + 1e-5
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    assert abs(sol.boundaries[0] - ss[i, 0]) < 0.02
    assert abs(sol.periods[0] - tt[0, j]) < 0.02
    # the most volatile types are left out on purpose
    assert sol.boundaries[0] < 6.0
    assert sol.boundary_edge_hits == []


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_alternation_trace_monotone_and_converges(profile, cost_model, factory):
    sol = solve_alternating(profile, cost_model, factory(), 3)
    trace = np.array(sol.profit_trace)
    scale = np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -1e-9 * scale)
    assert sol.converged
    assert sol.iterations <= 200
    assert len(trace) == 2 * sol.iterations + sol.newton_steps
    assert abs(trace[-1] - sol.total_profit) < 1e-8 * max(1.0, abs(sol.total_profit))


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_solution_menu_is_feasible(profile, cost_model, factory):
    sol = solve_alternating(profile, cost_model, factory(), 4)
    assert np.all(np.diff(sol.boundaries) > 0)
    assert np.all(np.diff(sol.periods) >= -1e-12)
    assert np.all(np.diff(sol.prices) >= -1e-12)
    assert np.all(sol.counts > 0)
    assert sol.requested_groups == 4
    # marginal (boundary) types are indifferent along the chain; the top
    # boundary type keeps nothing
    u_top = valuation(profile, sol.boundaries[-1], sol.periods[-1]) - sol.prices[-1]
    assert abs(u_top) < 1e-9
    for k in range(len(sol.boundaries) - 1):
        own = valuation(profile, sol.boundaries[k], sol.periods[k]) - sol.prices[k]
        up = valuation(profile, sol.boundaries[k], sol.periods[k + 1]) - sol.prices[k + 1]
        assert abs(own - up) < 1e-9


def test_optimized_fixed_period_baseline_matches_grid_scan(profile, cost_model):
    # the one-item menu at a fixed period serves every type up to the
    # cutoff s at the price V(s, t): profit N G(s) (V(s, t) - C(t))
    for mkt in (uniform06(), exponential06(), truncnorm06()):
        sig = np.linspace(mkt.sigma_min, mkt.sigma_max, 200_001)
        for t_fixed in (1.0, 2.0):
            scan = mkt.size * mkt.cdf(sig) * (valuation(profile, sig, t_fixed) - cost(cost_model, t_fixed))
            j = int(np.argmax(scan))
            base = fixed_period_baseline(profile, cost_model, mkt, t_fixed, coverage="optimized")
            assert scan[j] - 1e-10 <= base.profit <= scan[j] + 1e-8
            assert abs(base.marginal_sigma - sig[j]) < 1e-4
            assert abs(base.price - valuation(profile, base.marginal_sigma, t_fixed)) < 1e-15
            assert abs(base.served - mkt.size * mkt.cdf(base.marginal_sigma)) < 1e-15


def test_solver_input_validation(profile, cost_model):
    mkt = uniform06()
    with pytest.raises(ValueError):
        solve_alternating(profile, cost_model, mkt, 0)
    with pytest.raises(ValueError):
        solve_alternating(profile, cost_model, mkt, 2, init_boundaries=[1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2, restarts=-2), "restarts"),
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2, restarts=1.7), "restarts"),
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2.5), "n_groups"),
        (lambda sc, out: sweep_groups(sc, [1.5, 2], out), "group_counts"),
        (lambda sc, out: fixed_period_baseline(sc.profile, sc.cost_model, sc.market, 1.0, coverage="bogus"), "coverage"),
    ],
    ids=["negative_restarts", "fractional_restarts", "fractional_groups", "fractional_sweep_groups", "unknown_coverage"],
)
def test_library_refuses_inputs_the_loader_refuses(call, name, tmp_path):
    # the scenario loader refuses these values by key; the library
    # functions name the argument instead of running something else
    with pytest.raises(ValueError, match=name):
        call(load_scenario("uniform_k6"), tmp_path)


def test_more_groups_never_hurt(profile, cost_model):
    mkt = uniform06()
    profits = [
        solve_alternating(profile, cost_model, mkt, k).total_profit for k in (1, 2, 3)
    ]
    assert profits[1] >= profits[0] - 1e-10
    assert profits[2] >= profits[1] - 1e-10


def test_restarts_deterministic(profile, cost_model):
    mkt = exponential06()
    a = solve_with_restarts(profile, cost_model, mkt, 2, restarts=3, seed=7)
    b = solve_with_restarts(profile, cost_model, mkt, 2, restarts=3, seed=7)
    assert a.total_profit == b.total_profit
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.periods, b.periods)


def test_restarts_never_lose_to_single_start(profile, cost_model):
    mkt = truncnorm06()
    plain = solve_alternating(profile, cost_model, mkt, 3)
    multi = solve_with_restarts(
        profile, cost_model, mkt, 3, restarts=2, seed=11, extra_inits=[[1.0, 2.0, 3.0]]
    )
    assert multi.total_profit >= plain.total_profit - 1e-12


def test_fine_discretization_agrees_with_grouped(profile, cost_model):
    # 50 equal-mass atoms at quantile midpoints: the discrete solver's
    # 50-item menu should land within a couple percent of the 6-group
    # continuum solution (finer screening, so a bit above)
    mkt = uniform06()
    grouped = solve_alternating(profile, cost_model, mkt, 6)
    mid = (np.arange(50) + 0.5) / 50
    atoms = np.array([mkt.quantile(p) for p in mid])
    dm = DiscreteMarket(sigmas=atoms, counts=np.full(50, 1.0 / 50))
    dsol = solve_discrete(profile, cost_model, dm)
    rel = (dsol.total_profit - grouped.total_profit) / grouped.total_profit
    assert -0.005 < rel < 0.02


def test_shape_condition_failure_falls_back_and_solves(profile, cost_model, valley_market):
    with pytest.warns(RuntimeWarning, match="boundary-unimodality"):
        sol = solve_alternating(profile, cost_model, valley_market, 2)
    assert not sol.theorem3_ok
    assert sol.total_profit > 0
    trace = np.array(sol.profit_trace)
    assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
    assert np.all(sol.counts > 0)
    assert np.all(np.diff(sol.boundaries) > 0)


#: Valley-market profits at K = 1..4 (2 restarts, seed 1) as golden-section
#: refinement of each block's best grid bracket found them; the lockstep
#: search in the same brackets must keep them.
VALLEY_PROFITS = [1.8429303708073757, 1.892995236774517, 1.9103895912561897, 1.9183981937575456]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_valley_restart_profits_pinned(profile, cost_model, valley_market, k):
    with pytest.warns(RuntimeWarning, match="boundary-unimodality"):
        sol = solve_with_restarts(profile, cost_model, valley_market, k, restarts=2, seed=1)
    want = VALLEY_PROFITS[k - 1]
    assert abs(sol.total_profit - want) <= 1e-12 * want
    assert sol.converged and sol.kkt_residual <= KKT_TOL * valley_market.size


def test_empty_group_is_dropped():
    # at K = 3 the bottom boundary ends on sigma_min, so the bottom
    # group's band has no mass; the solution drops it and serves two items
    profile = DemandProfile(alpha=1.0, mu=7.0, q=10.0)
    mkt = make_market("uniform", 0.5, 8.5)
    sol = solve_alternating(profile, CostModel(c0=6.4, c1=0.05), mkt, 3)
    assert sol.boundaries.size == sol.periods.size == sol.prices.size == sol.counts.size == 2
    assert sol.requested_groups == 3
    assert np.all(sol.counts > 0)
    assert sol.converged
    assert brute_force_ic_ir(profile, mkt, sol.periods, sol.prices, sol.boundaries).passed


# --- first-order finish: gradient, residual, Newton steps -------------------

def fd_gradient(profile, cost_model, market, boundaries, periods, rel_step=1e-4):
    """Fourth-order central differences of the boundary-term profit."""
    x = np.concatenate([boundaries, periods]).astype(float)
    k = len(boundaries)

    def profit(y):
        return menu_profit(profile, cost_model, market, y[:k], y[k:])

    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = rel_step * max(1.0, abs(x[i]))
        near = profit(x + e) - profit(x - e)
        far = profit(x + 2 * e) - profit(x - 2 * e)
        grad[i] = (8.0 * near - far) / (12.0 * e[i])
    return grad


#: Profits of the parent revision's profit-stall solver at the quantile
#: start and at the seeded restart below; the Newton finish must not lose.
STALL_RULE_PROFITS = {
    ("uniform_k6", 1): (1.1918885306218623, 1.1918885306233955),
    ("uniform_k6", 2): (1.2907610981162168, 1.2907610980739859),
    ("uniform_k6", 3): (1.3171587537573244, 1.3171587537766443),
    ("uniform_k6", 6): (1.3365625744457927, 1.3365625744209368),
    ("exponential_k6", 1): (1.6752301493402064, 1.6752301493385313),
    ("exponential_k6", 2): (1.8090536008852944, 1.8090536008451985),
    ("exponential_k6", 3): (1.8468439397767633, 1.8468439397430112),
    ("exponential_k6", 6): (1.875543341687167, 1.875543341703141),
    ("truncated_normal_k6", 1): (1.3537781669508369, 1.3537781669517663),
    ("truncated_normal_k6", 2): (1.4066422997747123, 1.4066422997696675),
    ("truncated_normal_k6", 3): (1.4239445167937934, 1.4239445167548213),
    ("truncated_normal_k6", 6): (1.4380478278526463, 1.4380478278652207),
}
BUNDLED_GROUPED = ("uniform_k6", "exponential_k6", "truncated_normal_k6")
#: Most kernel calls a restart solve may make, as a share of the calls its
#: starts make when solved one by one.  Starts leave the batch as they
#: converge, and each start's Newton bursts land in the round that start
#: reaches them, so the K = 6 markets make 0.48-0.62 of the one-by-one
#: calls; a solve that ran its starts one by one would make all of them.
BATCH_CALL_SHARE = 2.0 / 3.0
STARTS = ("quantile", "restart")


@lru_cache(maxsize=None)
def bundled_solve(name, k, start):
    sc = load_scenario(name)
    init = None
    if start == "restart":
        u = np.sort(np.random.default_rng(20260822).random(k))
        init = np.atleast_1d(sc.market.quantile(u))
    return sc, solve_alternating(sc.profile, sc.cost_model, sc.market, k, init_boundaries=init)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_newton_finish_reaches_first_order_optimum(name, k, start):
    sc, sol = bundled_solve(name, k, start)
    assert sol.converged
    assert sol.iterations <= 20
    assert sol.boundary_edge_hits == [] and not sol.pooled_period_blocks and not sol.pooled_boundary_blocks
    # every coordinate is interior, so the residual is max |dP/dx|
    fd = fd_gradient(sc.profile, sc.cost_model, sc.market, sol.boundaries, sol.periods)
    assert np.max(np.abs(fd)) <= 1e-9
    assert sol.kkt_residual <= 1e-9
    stall_profit = STALL_RULE_PROFITS[name, k][STARTS.index(start)]
    assert sol.total_profit >= stall_profit - 1e-12 * stall_profit


@lru_cache(maxsize=None)
def counted_restart_solve(name, k):
    """solve_with_restarts on a bundled market with its own restarts and
    seed, and the slope-kernel calls each Step II block search made (one
    search covers every block of every start still active)."""
    sc = load_scenario(name)
    calls, per_search = [0], []
    slopes, search = grouped._boundary_slopes, grouped.block_boundaries

    def counted_slopes(*args):
        calls[0] += 1
        return slopes(*args)

    def counted_search(*args, **kwargs):
        calls[0] = 0
        out = search(*args, **kwargs)
        per_search.append(calls[0])
        return out

    grouped._boundary_slopes, grouped.block_boundaries = counted_slopes, counted_search
    try:
        sol = solve_with_restarts(
            sc.profile, sc.cost_model, sc.market, k, restarts=sc.solver.restarts, seed=sc.solver.seed
        )
    finally:
        grouped._boundary_slopes, grouped.block_boundaries = slopes, search
    return sol, per_search


@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_step2_search_takes_few_kernel_calls(name):
    # the [lo, hi, start] call plus Newton-bisection steps; warm starts
    # after the first round mostly confirm the root at once
    counts = [c for k in (1, 2, 3, 6) for c in counted_restart_solve(name, k)[1]]
    assert counts and max(counts) <= 12
    assert np.median(counts) <= 6


def test_restarts_keep_quantile_start_unless_beaten():
    # every restart of truncated_normal_k6 reaches the quantile start's
    # menu up to rounding, so the quantile start's solve is returned whole
    sol, _ = counted_restart_solve("truncated_normal_k6", 6)
    _, alone = bundled_solve("truncated_normal_k6", 6, "quantile")
    assert sol.iterations == alone.iterations
    assert sol.profit_trace == alone.profit_trace
    assert np.array_equal(sol.boundaries, alone.boundaries)


@lru_cache(maxsize=None)
def batched_and_alone(name, k):
    """The starts of a bundled market's restart solve (its own restarts
    and seed), solved as one batch and one by one, with the
    valuation_dsigma2 calls (every boundary slope and gradient) the one
    by one solves made."""
    sc = load_scenario(name)
    inits = grouped._start_inits(sc.market, k, sc.solver.restarts, sc.solver.seed, None)
    batch = grouped._solve_starts(sc.profile, sc.cost_model, sc.market, k, inits)
    with counted_kernel() as calls:
        alone = [solve_alternating(sc.profile, sc.cost_model, sc.market, k, init_boundaries=b) for b in inits]
    return batch, alone, calls[0]


@contextlib.contextmanager
def counted_kernel():
    kernel, calls = grouped.valuation_dsigma2, [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    grouped.valuation_dsigma2 = counted
    try:
        yield calls
    finally:
        grouped.valuation_dsigma2 = kernel


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_batched_starts_match_starts_solved_alone(name, k):
    batch, alone, _ = batched_and_alone(name, k)
    assert len(batch) == len(alone) == 1 + load_scenario(name).solver.restarts
    for a, b in zip(batch, alone):
        assert np.array_equal(a.boundaries, b.boundaries) and np.array_equal(a.periods, b.periods)
        assert a.total_profit == b.total_profit and a.profit_trace == b.profit_trace
        assert (a.iterations, a.newton_steps, a.kkt_residual) == (b.iterations, b.newton_steps, b.kkt_residual)


@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_restart_solve_shares_kernel_calls_across_starts(name):
    # a restart solve calls the kernels once per lockstep iteration for
    # all its starts; starts solved one by one call them once each
    sc = load_scenario(name)
    _, _, alone_calls = batched_and_alone(name, 6)
    with counted_kernel() as calls:
        solve_with_restarts(sc.profile, sc.cost_model, sc.market, 6, restarts=sc.solver.restarts, seed=sc.solver.seed)
    assert calls[0] < BATCH_CALL_SHARE * alone_calls


def test_restart_solve_records_every_start():
    sol, _ = counted_restart_solve("truncated_normal_k6", 6)
    batch, _, _ = batched_and_alone("truncated_normal_k6", 6)
    assert sol.start_profits == [s.total_profit for s in batch]
    assert sol.start_kkt_residuals == [s.kkt_residual for s in batch]
    assert sol.distinct_optima == 1
    # profits further apart than REL_PROFIT_TOL count apart
    sol = grouped.GroupedSolution(*[None] * 7, start_profits=[1.0, 1.0 + 1e-11, 1.0 + 3e-10, 2.0, 1.0 + 1e-10])
    assert sol.distinct_optima == 3
    assert grouped.GroupedSolution(*[None] * 7).distinct_optima == 0


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_grouped_residual_at_float_floor(name, k, kkt):
    # the benchmark's solver-independent first-order residual: the polish
    # step leaves it at the rounding floor, far inside KKT_TOL
    sc, sol = bundled_solve(name, k, "quantile")
    residual = kkt.grouped_residual(sc.profile, sc.cost_model, sc.market, sol.boundaries, sol.periods, DEFAULT_T_DOMAIN)
    assert residual <= 1e-12 * sc.market.size


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_quantile_start_and_restart_reach_same_menu(name, k):
    _, a = bundled_solve(name, k, "quantile")
    _, b = bundled_solve(name, k, "restart")
    assert np.max(np.abs(a.boundaries - b.boundaries)) <= 1e-8
    assert np.max(np.abs(a.periods - b.periods)) <= 1e-8


def test_newton_finish_releases_edge_coordinate():
    # the K = 1 menu padded with a copy of its top boundary puts the
    # bottom period on its window edge with a gradient pointing inward;
    # the finish moves it off the edge instead of leaving it to alternation
    sc = load_scenario("uniform_k6")
    k1 = solve_with_restarts(sc.profile, sc.cost_model, sc.market, 1, restarts=sc.solver.restarts, seed=sc.solver.seed)
    sol = solve_alternating(sc.profile, sc.cost_model, sc.market, 2, init_boundaries=np.repeat(k1.boundaries, 2))
    assert sol.converged and sol.kkt_residual <= 1e-12
    assert sol.iterations <= 3
    _, alone = bundled_solve("uniform_k6", 2, "quantile")
    assert abs(sol.total_profit - alone.total_profit) <= 1e-12 * alone.total_profit


def test_split_heaviest_group_halves_its_mass():
    # uniform on [0, 6]: (1, 4] is the heaviest band and splits at its
    # middle; then the top band (4, 6] outweighs each half
    mkt = uniform06()
    once = split_heaviest_group(mkt, [1.0, 4.0, 6.0])
    np.testing.assert_allclose(once, [1.0, 2.5, 4.0, 6.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(split_heaviest_group(mkt, once), [1.0, 2.5, 4.0, 5.0, 6.0], rtol=0, atol=1e-12)
    # on a skewed market the halves carry equal mass, not equal width
    for mkt in (exponential06(), truncnorm06()):
        b = split_heaviest_group(mkt, [1.0, 6.0])
        assert b.size == 3 and b[0] == 1.0 and b[2] == 6.0
        counts = group_counts(mkt, b)
        assert abs(counts[1] - counts[2]) <= 1e-12


@pytest.mark.parametrize(
    "name, ks",
    [(name, (1, 2, 3, 4, 5, 6)) for name in BUNDLED_GROUPED] + [("uniform_k6", (1, 4)), ("exponential_k6", (2, 6))],
    ids=lambda v: "K" + ",".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_sweep_warm_start_does_useful_work(name, ks, monkeypatch, tmp_path):
    # each K's warm start (start 1, after the quantile start) is the
    # previous menu with its heaviest group split once per added group:
    # it keeps the previous boundaries and reaches the best start's
    # profit in as few rounds and Newton steps as the other starts
    sc = load_scenario(name)
    calls = []  # [inits, each start's solution, the returned solution] of each solve
    solve_starts, solve = grouped._solve_starts, runner.solve_with_restarts

    def tap_starts(*args):
        calls.append([args[-1], solve_starts(*args)])
        return calls[-1][1]

    def tap_solve(*args, **kwargs):
        best = solve(*args, **kwargs)
        calls[-1].append(best)
        return best

    monkeypatch.setattr(grouped, "_solve_starts", tap_starts)
    monkeypatch.setattr(runner, "solve_with_restarts", tap_solve)
    sweep_groups(sc, ks, tmp_path)
    assert len(calls) == len(ks)
    for k, (_, _, prev), (inits, starts, best) in zip(ks[1:], calls, calls[1:]):
        warm, start = inits[1], starts[1]
        expected = prev.boundaries
        for _ in range(k - prev.boundaries.size):
            expected = split_heaviest_group(sc.market, expected)
        assert np.array_equal(warm, expected) and np.all(np.isin(prev.boundaries, warm))
        assert best.total_profit - start.total_profit <= REL_PROFIT_TOL * max(1.0, abs(best.total_profit))
        assert start.iterations <= 3 and start.newton_steps <= 10


@pytest.mark.parametrize("name", ["exponential_k6", "truncated_normal_k6"])
def test_shortened_newton_step_saves_a_round(name, monkeypatch):
    # the quantile start's first full Newton step would push a period
    # below 0; the finish projects it on the window and converges in the
    # first round (confirmed by the second), and every trial menu it
    # probes stays ascending inside the window
    sc = load_scenario(name)
    probed, probe = [], grouped._probe

    def recorded(profile, cost_model, market, x, lo, hi):
        probed.append((x.copy(), lo, hi))
        return probe(profile, cost_model, market, x, lo, hi)

    monkeypatch.setattr(grouped, "_probe", recorded)
    sol = solve_alternating(sc.profile, sc.cost_model, sc.market, 2)
    assert sol.converged and sol.iterations == 2
    assert probed
    for x, lo, hi in probed:
        assert np.all((x >= lo) & (x <= hi))
        assert np.all(np.diff(x[:, :2]) > 0) and np.all(np.diff(x[:, 2:]) > 0)


#: float.hex of the uniform_k6_K2 benchmark solve (K = 2, one restart) at
#: three restart seeds, recorded with every Newton step, the last one
#: included, solved by np.linalg.solve with the Hessian of the menu it
#: starts from, and E(a) by math.erfc:
#: (boundaries, periods, profit, every start's profit).  Starts that
#: converge by full interior Newton steps return them bit for bit.
UNIFORM_K2_MENU = (
    ["0x1.b7cf83398fe4cp+0", "0x1.50432131b909ap+2"],
    ["0x1.304b756762472p-1", "0x1.e6c204fdb2f08p+0"],
    "0x1.4a6f51bf86f07p+0",
)
UNIFORM_K2_START_PROFITS = {
    20260822: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86efdp+0"],
    20260823: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86f05p+0"],
    20260824: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86f09p+0"],
}


@pytest.mark.parametrize("seed", sorted(UNIFORM_K2_START_PROFITS))
def test_full_step_starts_unchanged_bit_for_bit(seed):
    sc = load_scenario("uniform_k6")
    sol = solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2, restarts=1, seed=seed)
    got = ([v.hex() for v in sol.boundaries], [v.hex() for v in sol.periods], sol.total_profit.hex())
    assert got == UNIFORM_K2_MENU
    assert [p.hex() for p in sol.start_profits] == UNIFORM_K2_START_PROFITS[seed]


@pytest.mark.parametrize("name", ["uniform_k6", "truncated_normal_k6"])
def test_restart_starts_converge_in_few_rounds(name):
    # shortened steps and released edge coordinates end every start of
    # the bundled K = 6 restart solve within a few rounds
    batch, _, _ = batched_and_alone(name, 6)
    assert all(sol.converged and sol.iterations <= 4 for sol in batch)


@pytest.mark.parametrize("w", [None, lambda t: 0.05 * t * t], ids=["linear", "quadratic"])
def test_profit_gradient_matches_finite_differences(profile, rng, w):
    cost_model = CostModel(c0=10.0, c1=0.5, w=w)
    for factory in ALL_MARKETS:
        mkt = factory(size=3.0)
        for k in (1, 2, 4):
            b = np.sort(rng.uniform(0.3, 5.7, size=k))
            t = np.sort(rng.uniform(0.3, 8.0, size=k))
            d_b, d_t = _menu_terms(profile, cost_model, mkt, b, t)[1:]
            fd = fd_gradient(profile, cost_model, mkt, b, t)
            assert np.allclose(np.concatenate([d_b, d_t]), fd, rtol=1e-7, atol=1e-9)


def test_menu_terms_evaluate_each_point_once(profile, cost_model, rng, monkeypatch):
    # one gradient evaluation of rows of menus: one valuation kernel call
    # (V, V_sigma, V_sigma_sigma and V_t together) and one density call
    # behind one window check
    mkt = truncnorm06(size=3.0)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("valuation", "valuation_dt", "valuation_dt_dtt", "valuation_dsigma", "valuation_dsigma2"):
        if hasattr(grouped, name):
            monkeypatch.setattr(grouped, name, counted(name, getattr(grouped, name)))
    monkeypatch.setattr(mkt, "_check_support", counted("_check_support", mkt._check_support))
    b = np.sort(rng.uniform(0.3, 5.7, size=(4, 3)), axis=1)
    t = np.sort(rng.uniform(0.5, 12.0, size=(4, 3)), axis=1)
    _menu_terms(profile, cost_model, mkt, b, t)
    assert sorted(calls) == ["_check_support", "valuation_dsigma2"]


def closed_form_hessian(profile, cost_model, market, b, t, dc, ddc):
    """Hessian of total profit in x = (b, t), given C'(t) = dc and
    C''(t) = ddc.  Q_k'' is the curvature _boundary_slopes returns, and
    V_sigma_t = V_t (1 + a^2) / sigma with a = sqrt(t) (q - mu) / sigma."""
    K, N = b.size, market.size
    items = np.arange(K)
    G, g = market.cdf(b), market.pdf(b)
    G_lo = np.concatenate(([0.0], G[:-1]))
    vt, vtt = valuation_dt_dtt(profile, b, t)  # at (b_k, t_k)
    vt_lo, vtt_lo = valuation_dt_dtt(profile, b[:-1], t[1:])  # at (b_{k-1}, t_k)
    vst = lambda s, tt, v: v * (1.0 + tt * (profile.excess_cap / s) ** 2) / s
    H = np.zeros((2 * K, 2 * K))
    H[items, items] = _boundary_slopes(profile, market, b, _blocks(cost_model, t, items, items))[3]
    H[K + items, K + items] = N * ((G - G_lo) * (vtt - ddc) + G_lo * (vtt - np.concatenate(([0.0], vtt_lo))))
    H[items, K + items] = N * (g * (vt - dc) + G * vst(b, t, vt))
    H[items[:-1], K + items[1:]] = -N * (g[:-1] * (vt_lo - dc[1:]) + G[:-1] * vst(b[:-1], t[1:], vt_lo))
    return H + np.triu(H, 1).T


@pytest.mark.parametrize(
    "w, dc, ddc, tol",
    [(None, lambda t: np.full_like(t, 0.5), lambda t: np.zeros_like(t), 1e-7),
     (lambda t: 0.05 * t * t, lambda t: 0.1 * t, lambda t: np.full_like(t, 0.1), 1e-5)],
    ids=["linear", "quadratic"],
)
def test_probe_hessian_matches_closed_form(profile, rng, w, dc, ddc, tol):
    # _probe's -H is a central difference of the gradient (and, for a
    # custom W, of a central-difference C'); rows of random ascending
    # menus go through one batched call
    cost_model = CostModel(c0=10.0, c1=0.5, w=w)
    for factory in ALL_MARKETS:
        mkt = factory(size=3.0)
        for k in (1, 2, 4, 6):
            b = np.sort(rng.uniform(0.3, 5.7, size=(3, k)), axis=1)
            t = np.sort(rng.uniform(0.5, 12.0, size=(3, k)), axis=1)
            lo = np.repeat([mkt.sigma_min, DEFAULT_T_DOMAIN[0]], k)
            hi = np.repeat([mkt.sigma_max, DEFAULT_T_DOMAIN[1]], k)
            _, _, free, _, neg_hessians = grouped._probe(profile, cost_model, mkt, np.concatenate([b, t], axis=1), lo, hi)
            assert free.all()
            for r in range(3):
                H = closed_form_hessian(profile, cost_model, mkt, b[r], t[r], dc(t[r]), ddc(t[r]))
                assert np.abs(H + neg_hessians[r]).max() <= tol * np.abs(H).max()


def test_probe_residual_is_menu_residual_bit_for_bit(rng, monkeypatch):
    # on strictly ascending menus the largest |gradient| over the
    # coordinates a step may move is the projected first-order residual,
    # also with coordinates on each window edge, within EDGE_RTOL of it
    # or just at that distance, and gradients into and out of the window
    mkt, K, R = uniform06(), 3, 400
    lo = np.repeat([mkt.sigma_min, DEFAULT_T_DOMAIN[0]], K)
    hi = np.repeat([mkt.sigma_max, DEFAULT_T_DOMAIN[1]], K)
    edge = grouped.EDGE_RTOL * (hi - lo)
    near = 0.5 * edge
    x = np.concatenate(
        [np.sort(rng.uniform(lo[:K], hi[:K], size=(R, K)), axis=1),
         np.sort(np.exp(rng.uniform(*np.log(DEFAULT_T_DOMAIN), size=(R, K))), axis=1)],
        axis=1,
    )
    for j in (0, K):  # the bottom and top boundary, the bottom and top period
        x[0::3, j], x[1::3, j], x[2::6, j] = lo[j], lo[j] + near[j], lo[j] + edge[j]
        x[0::4, j + K - 1], x[1::4, j + K - 1], x[2::8, j + K - 1] = hi[j], hi[j] - near[j], hi[j] - edge[j]
    assert np.all(np.diff(x[:, :K]) > 0) and np.all(np.diff(x[:, K:]) > 0)
    grad = rng.standard_normal((R, 2 * K)) * 10.0 ** rng.uniform(-16.0, 0.0, size=(R, 2 * K))

    def menu_terms(profile, cost_model, market, b, t):
        # every point of a row's probe gets the row's gradient
        F = np.broadcast_to(grad[:, None, :], b.shape[:-1] + (2 * K,))
        return np.zeros_like(b), F[..., :K], F[..., K:]

    monkeypatch.setattr(grouped, "_menu_terms", menu_terms)
    _, g, _, residual, _ = grouped._probe(None, None, mkt, x, lo, hi)
    low, high = x <= lo + edge, x >= hi - edge
    for hits in (low & (g > 0), low & (g < 0), high & (g > 0), high & (g < 0)):
        assert hits.sum() >= 10
    expected = grouped._menu_residual(mkt, x[:, :K], x[:, K:], g[:, :K], g[:, K:])
    assert residual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("c0, c1, b, t", [(20.0, 0.0, 1.5, 10.0), (100.0, 1000.0, 3.0, 0.001), (20.0, 0.0, 1.0, 0.1)])
def test_newton_finish_stops_with_every_coordinate_on_an_edge(profile, c0, c1, b, t):
    # serving loses money, and one Newton step lands on the empty menu:
    # the boundary on sigma_min and the period on its floor, both
    # gradients pointing out of the window, so no coordinate is free
    mkt = make_market("uniform", 0.5, 6.0)
    boundaries, periods, profit, residual, steps = grouped._newton_finish(
        profile, CostModel(c0=c0, c1=c1), mkt, np.array([[b]]), np.array([[t]]), [[]], np.zeros(1, dtype=int)
    )
    assert (boundaries[0, 0], periods[0, 0]) == (mkt.sigma_min, DEFAULT_T_DOMAIN[0])
    assert profit[0] == 0.0 and residual[0] == 0.0 and steps[0] == 1


@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6"])
@pytest.mark.parametrize("k", [1, 2])
def test_every_newton_step_factors_its_own_hessian(name, k, monkeypatch):
    # every Newton step, the last one included, solves with the -H probed
    # at the menu it starts from, once it passes Cholesky: one solve per
    # factorization
    calls = {"cholesky": 0, "solve": 0}

    def counted(routine):
        original = getattr(np.linalg, routine)

        def call(*args, **kwargs):
            calls[routine] += 1
            return original(*args, **kwargs)

        return call

    for routine in calls:
        monkeypatch.setattr(np.linalg, routine, counted(routine))
    sc = load_scenario(name)
    sol = solve_alternating(sc.profile, sc.cost_model, sc.market, k)
    assert sol.converged and sol.newton_steps > 0
    assert calls["cholesky"] == calls["solve"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_boundary_on_window_edge_solves(profile, cost_model, k):
    # on a narrow window serving every type pays, so the top boundary
    # stays on sigma_max and is held fixed through the Newton steps
    mkt = make_market("uniform", 0.0, 2.0)
    sol = solve_alternating(profile, cost_model, mkt, k)
    assert sol.boundary_edge_hits == [k - 1]
    assert 2.0 - sol.boundaries[-1] <= 1e-9 * 2.0
    assert sol.converged and sol.iterations <= 20
    assert sol.kkt_residual <= 1e-9
    d_b, _ = _menu_terms(profile, cost_model, mkt, sol.boundaries, sol.periods)[1:]
    assert d_b[-1] > 0  # profit would still rise past the edge


def test_scaling_market_size_scales_profit_only(profile, cost_model):
    for factory in ALL_MARKETS:
        small = solve_alternating(profile, cost_model, factory(), 3)
        large = solve_alternating(profile, cost_model, factory(size=1000.0), 3)
        assert np.max(np.abs(large.boundaries - small.boundaries)) <= 1e-9
        assert np.max(np.abs(large.periods - small.periods)) <= 1e-9
        assert abs(large.total_profit - 1000.0 * small.total_profit) <= 1e-9 * large.total_profit


@pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_scaling_volatility_scales_periods(name, k):
    # V(k sigma, k^2 t) = V(sigma, t), and C(k^2 t) = C(t) once c1 becomes
    # c1 / k^2, so scaling every type and the market window by k scales the
    # boundaries by k and the periods by k^2 and leaves profit.  (With
    # c1 = 0 alone every period would sit on the window's cap.)
    sc = load_scenario(name)
    m = sc.market
    base = solve_alternating(sc.profile, sc.cost_model, m, 3)
    params = {}
    if m.rate is not None:
        params["rate"] = m.rate / k
    if m.loc is not None:
        params.update(loc=k * m.loc, scale=k * m.scale)
    scaled_market = make_market(m.kind, k * m.sigma_min, k * m.sigma_max, size=m.size, **params)
    scaled_cost = CostModel(c0=sc.cost_model.c0, c1=sc.cost_model.c1 / k**2)
    scaled = solve_alternating(sc.profile, scaled_cost, scaled_market, 3)
    lo, hi = DEFAULT_T_DOMAIN
    assert 10 * lo < k**2 * base.periods.min() and k**2 * base.periods.max() < 0.1 * hi  # well inside
    assert np.max(np.abs(scaled.periods / (k**2 * base.periods) - 1.0)) <= 1e-11
    assert np.max(np.abs(scaled.boundaries / (k * base.boundaries) - 1.0)) <= 1e-11
    assert abs(scaled.total_profit - base.total_profit) <= 1e-12 * base.total_profit


@st.composite
def random_grouped_scenarios(draw):
    kind = draw(st.sampled_from(["uniform", "exponential", "truncated_normal"]))
    lo = draw(st.sampled_from([0.0, 0.5]))
    hi = lo + draw(st.floats(1.0, 8.0))
    params = {}
    if kind == "exponential":
        params["rate"] = draw(st.floats(0.1, 1.5))
    elif kind == "truncated_normal":
        params.update(loc=draw(st.floats(lo, hi)), scale=draw(st.floats(0.5, 3.0)))
    market = make_market(kind, lo, hi, size=draw(st.sampled_from([1.0, 50.0])), **params)
    mu = draw(st.floats(5.0, 20.0))
    profile = DemandProfile(alpha=1.0, mu=mu, q=mu + draw(st.floats(0.5, 5.0)))
    cost_model = CostModel(c0=draw(st.floats(0.5, 0.95)) * mu, c1=draw(st.floats(0.0, 1.0)))
    solver = SolverSpec(kind="grouped", n_groups=3, restarts=0, seed=0)
    return Scenario("random", profile, cost_model, market, solver, baselines=[1.0])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(random_grouped_scenarios())
def test_random_markets_pass_certificate_and_sweep_rises(scenario):
    sol = solve_alternating(scenario.profile, scenario.cost_model, scenario.market, 3)
    assert sol.converged
    cert = brute_force_ic_ir(scenario.profile, scenario.market, sol.periods, sol.prices, boundaries=sol.boundaries)
    assert cert.passed
    # a one-item menu at a fixed period is a restricted K = 1 menu
    baseline = max(
        fixed_period_baseline(scenario.profile, scenario.cost_model, scenario.market, t, coverage="optimized").profit
        for t in scenario.baselines
    )
    assert sol.total_profit >= baseline - 1e-12 * max(1.0, abs(baseline))
    with tempfile.TemporaryDirectory() as out:
        profits = [row["profit"] for row in sweep_groups(scenario, [1, 2, 3], out)]
    assert all(b >= a - 1e-10 * max(1.0, abs(a)) for a, b in zip(profits, profits[1:]))
