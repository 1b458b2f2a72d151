"""Continuum-market menu solver: boundary terms, alternation, restarts."""

import contextlib
import dataclasses
import tempfile
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from planmenu import grouped, runner
from planmenu.discrete import DEFAULT_T_DOMAIN, optimal_prices, period_objective, solve_discrete
from planmenu.distributions import DiscreteMarket, make_market
from planmenu.grouped import (
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
from planmenu.market import CostModel, DemandProfile, _dt_dtt, _types, cost, valuation, valuation_dsigma
from planmenu.oracles import brute_force_ic_ir, grid_oracle_grouped, optimized_cutoff_profit
from planmenu.runner import sweep_groups
from planmenu.scenarios import Scenario, SolverSpec, load_scenario

from conftest import equal_runs

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

# G and g underflow to 0 below sigma = 1.14: the boundary slope and its
# rounding scale are both exactly 0 there
NO_MASS_AT_FLOOR = make_market("truncated_normal", 0.0, 6.0, loc=5.0, scale=0.1)
# rate * (sigma_max - sigma_min) = 60: the window's mass rounds to exp(-rate * sigma_min)
STEEP_EXPONENTIAL = make_market("exponential", 0.12, 6.12, rate=10.0)


def boundary_objective(profile, cost_model, market, periods, k, sigma):
    """Q_k(sigma): the profit terms per unit mass containing boundary k,
    periods fixed, G(s) (V(s, t_k) - V(s, t_{k+1}) + C(t_{k+1}) - C(t_k)),
    with V = C = 0 for the outside option above the top item."""
    t = np.asarray(periods, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if k + 1 < t.size:
        wedge = valuation(profile, s, t[k]) - valuation(profile, s, t[k + 1]) + cost(cost_model, t[k + 1]) - cost(cost_model, t[k])
    else:
        wedge = valuation(profile, s, t[k]) - cost(cost_model, t[k])
    return market.cdf(s) * wedge


def chain_profit(profile, cost_model, market, boundaries, periods):
    """Direct profit per unit mass: group probabilities times per-item
    margins at chain prices."""
    prices = optimal_prices(profile, boundaries, periods)
    return float(np.dot(group_counts(market, boundaries), prices - cost(cost_model, np.asarray(periods, dtype=float))))


# --- lockstep boundary search -----------------------------------------------

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
    # Q(s) = G(s) (V(s, t1) - V(s, t2) + C(t2) - C(t1)) on a truncated
    # exponential market of size 3, differentiated twice by sympy; the
    # terms are per unit mass, so the size does not enter them
    s, x = sp.Symbol("sigma", positive=True), sp.Symbol("x", real=True)
    phi = sp.exp(-x**2 / 2) / sp.sqrt(2 * sp.pi)
    excess = phi - x * sp.erfc(x / sp.sqrt(2)) / 2
    alpha, mu, d = (sp.nsimplify(z) for z in (profile.alpha, profile.mu, profile.q - profile.mu))

    def v(t):
        return alpha * (mu - s / sp.sqrt(t) * excess.subs(x, sp.sqrt(t) * d / s))

    rate, t1, t2 = sp.Rational(1, 2), sp.Rational(9, 10), sp.Rational(5, 2)
    G = (1 - sp.exp(-rate * s)) / (1 - sp.exp(-6 * rate))
    model = CostModel(c0=10.0, c1=0.5)
    dcost = sp.nsimplify(float(cost(model, 2.5) - cost(model, 0.9)))
    q = G * (v(t1) - v(t2) + dcost)
    ref = sp.lambdify(s, [q, sp.diff(q, s), sp.diff(q, s, 2)], "mpmath")

    mkt = make_market("exponential", 0.0, 6.0, size=3.0, rate=0.5)
    item = np.array([0])
    sig = np.array([0.05, 0.4, 1.5, 3.0, 5.9])
    got = _boundary_slopes(profile, mkt, sig[:, None], _blocks(model, [0.9, 2.5], item, item))
    with mpmath.workdps(50):
        for k, sk in enumerate(sig):
            for value, want in zip((got[0], got[1], got[3]), ref(mpmath.mpf(sk))):
                assert abs(value[k, 0] - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_boundary_search_climbs_out_of_a_massless_floor(profile, cost_model):
    # a point with no representable mass below it counts as below the
    # peak: from every guess, sigma_min included, the search ends on the
    # peak of Q, not on sigma_min, where Q' is exactly 0
    items = np.array([0])
    sigma = np.linspace(4.5, 6.0, 15001)
    peak = sigma[np.argmax(boundary_objective(profile, cost_model, NO_MASS_AT_FLOOR, [1.5], 0, sigma))]
    for guess in [None] + [np.array([s]) for s in (0.0, 1.0, 5.0, 6.0)]:
        got = block_boundaries(profile, cost_model, NO_MASS_AT_FLOOR, np.array([1.5]), items, items, guess)
        assert abs(got[0] - peak) <= 1e-4


def test_market_without_mass_at_its_floor_solves(profile, cost_model):
    # K = 1, 2 and 3 converge and pass their certificates, K = 1 just
    # above the grid optimum, and the optimized baselines are positive
    solved = []
    for k in (1, 2, 3):
        sol = solve_with_restarts(profile, cost_model, NO_MASS_AT_FLOOR, k, restarts=2, seed=1)
        assert sol.converged
        assert brute_force_ic_ir(profile, NO_MASS_AT_FLOOR, sol.periods, sol.prices, sol.boundaries).passed
        solved.append(sol.total_profit)
    assert np.allclose(solved, [1.3489465, 1.3505497, 1.3510483], rtol=0, atol=1e-7)
    grid, _, _ = grid_oracle_grouped(
        profile, cost_model, NO_MASS_AT_FLOOR, 1, np.linspace(0.0, 6.0, 601), np.arange(1, 1501) * 0.02
    )
    assert solved[0] - 1e-4 < grid <= solved[0]
    base = optimized_cutoff_profit(profile, cost_model, NO_MASS_AT_FLOOR, [1.0, 2.0])
    assert np.allclose(base, [1.2493, 1.3010], rtol=0, atol=1e-4)


# --- group masses and prices ----------------------------------------------

def test_group_counts_uniform():
    mkt = uniform06()
    counts = group_counts(mkt, [2.0, 6.0])
    assert np.allclose(counts, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    counts = group_counts(mkt, [6.0, 6.0])
    assert np.allclose(counts, [1.0, 0.0], atol=1e-12)
    # probabilities, whatever the market size
    mkt3 = uniform06(size=3.0)
    assert np.allclose(group_counts(mkt3, [3.0, 6.0]), [0.5, 0.5], atol=1e-12)


def test_group_counts_band_masses():
    # each group's band (b_{k-1}, b_k] holds its CDF difference of the
    # probability mass, whatever the market size
    mkt = make_market("uniform", 0.0, 6.0, size=3.0)
    assert abs(group_counts(mkt, [2.0])[0] - 1.0 / 3.0) < 1e-12
    # a repeated boundary makes a zero-width band, and the masses add up to 1
    counts = group_counts(mkt, [1.0, 1.0, 2.5, 6.0])
    assert counts[1] == 0.0
    assert abs(counts.sum() - 1.0) < 1e-12 and mkt.size == 3.0
    # rows of boundaries give one row of masses each
    rows = group_counts(mkt, [[2.0, 6.0], [1.0, 1.0]])
    assert rows.shape == (2, 2) and np.allclose(rows, [[1.0 / 3.0, 2.0 / 3.0], [1.0 / 6.0, 0.0]], atol=1e-12)
    with pytest.raises(ValueError, match="boundaries must be ascending"):
        group_counts(mkt, [2.0, 1.0])


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
        periods = step1_periods(profile, cost_model, mkt, boundaries)
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
    # dQ_k/dsigma = g(sigma) * (H + C(t_high) - C(t_low))
    t_low, t_high = 1.0, 4.0
    dcost = cost(cost_model, t_high) - cost(cost_model, t_low)
    h = 1e-6
    for s in (0.8, 2.5, 4.7):
        fd = (
            boundary_objective(profile, cost_model, mkt, [t_low, t_high], 0, s + h)
            - boundary_objective(profile, cost_model, mkt, [t_low, t_high], 0, s - h)
        ) / (2 * h)
        exact = mkt.pdf(s) * (h_function(profile, mkt, s, t_low, t_high) + dcost)
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
    t_new = step1_periods(profile, cost_model, mkt, b)
    assert np.all(np.diff(t_new) >= -1e-12)
    before = menu_profit(profile, cost_model, mkt, b, t_start)
    after = menu_profit(profile, cost_model, mkt, b, t_new)
    assert after >= before - 1e-12


def test_step2_improves_and_ascends(profile, cost_model):
    mkt = uniform06()
    t = np.array([0.8, 1.5, 3.0])
    b_start = np.array([2.0, 4.0, 6.0])
    b_new = step2_boundaries(profile, cost_model, mkt, t)
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
            base = optimized_cutoff_profit(profile, cost_model, mkt, t_fixed)
            assert scan[j] - 1e-10 <= base <= scan[j] + 1e-8


def test_solver_input_validation(profile, cost_model):
    mkt = uniform06()
    with pytest.raises(ValueError):
        solve_alternating(profile, cost_model, mkt, 0)
    with pytest.raises(ValueError):
        solve_with_restarts(profile, cost_model, mkt, 2, warm=[1.0, 2.0, 3.0])


def test_solve_size_is_bounded_before_anything_is_allocated(profile, cost_model):
    # one Newton probe holds (starts) x (4K + 1) x 2K values; a solve whose
    # probe would exceed the oracles' work budget is refused by name before
    # a start row is made (np.arange(10**9) alone would take 7.45 GiB)
    mkt = uniform06()
    budget = r"exceeds the work budget \(1e\+08 values per Newton probe\)"
    with pytest.raises(ValueError, match="n_groups = 1 with restarts = 1000000000 " + budget):
        solve_with_restarts(profile, cost_model, mkt, 1, restarts=10**9)
    with pytest.raises(ValueError, match="n_groups = 1000000000 with restarts = 0 " + budget):
        solve_with_restarts(profile, cost_model, mkt, 10**9)
    # the bound is the probe's: 3535 groups alone fit, 3536 do not, nor 3535 with a warm start
    assert 8 * 3535**2 + 2 * 3535 <= grouped.TUPLE_BUDGET < 8 * 3536**2 + 2 * 3536
    assert grouped._start_inits(mkt, 3535, 0, 0, None).shape == (1, 3535)
    with pytest.raises(ValueError, match="n_groups = 3536 with restarts = 0"):
        grouped._start_inits(mkt, 3536, 0, 0, None)
    with pytest.raises(ValueError, match="n_groups = 3535 with restarts = 0"):
        grouped._start_inits(mkt, 3535, 0, 0, [1.0])
    # bundled sizes run as before: K = 6 with 4 restarts, and K = 24
    assert grouped._start_inits(mkt, 6, 4, 0, None).shape == (5, 6)
    assert solve_alternating(profile, cost_model, mkt, 24).boundaries.size == 24


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2, restarts=-2), "restarts"),
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2, restarts=1.7), "restarts"),
        (lambda sc, out: solve_with_restarts(sc.profile, sc.cost_model, sc.market, 2.5), "n_groups"),
        (lambda sc, out: sweep_groups(sc, [1.5, 2], out), "group_counts"),
    ],
    ids=["negative_restarts", "fractional_restarts", "fractional_groups", "fractional_sweep_groups"],
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


def test_same_seed_draws_the_same_restart_starts():
    mkt = exponential06()
    first, again = (grouped._start_inits(mkt, 3, 4, 7, None) for _ in range(2))
    assert np.array_equal(first[0], mkt.quantile(np.arange(1, 4) / 3)) and len(first) == 5
    for a, b in zip(first[1:], again[1:]):
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0) and mkt.sigma_min <= a[0] and a[-1] <= mkt.sigma_max
    other = grouped._start_inits(mkt, 3, 4, 8, None)
    assert not any(np.array_equal(a, b) for a, b in zip(first[1:], other[1:]))
    # the seed is always an integer, so no call draws a fresh one
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got None"):
        grouped._start_inits(mkt, 3, 4, None, None)


def test_start_inits_makes_every_start_row():
    # one (starts, K) array: the quantile start, the warm start sorted
    # and split up to K, then the seeded restarts
    mkt = exponential06()
    rows = grouped._start_inits(mkt, 3, 2, 7, [2.0])
    assert isinstance(rows, np.ndarray) and rows.dtype == float and rows.shape == (4, 3)
    assert np.array_equal(rows[0], mkt.quantile(np.arange(1, 4) / 3))
    # a one-boundary start comes back split twice, its boundary kept
    assert np.array_equal(rows[1], split_heaviest_group(mkt, split_heaviest_group(mkt, [2.0])))
    assert 2.0 in rows[1] and np.all(np.diff(rows[1]) > 0)
    assert np.array_equal(grouped._start_inits(mkt, 3, 0, 0, [5.0, 1.0, 3.0])[1], [1.0, 3.0, 5.0])
    for restart in rows[2:]:
        assert np.all(np.diff(restart) >= 0) and mkt.sigma_min <= restart[0] and restart[-1] <= mkt.sigma_max
    assert np.array_equal(rows[2:], grouped._start_inits(mkt, 3, 2, 7, None)[1:])
    # a start with more boundaries than groups, none, or more than one menu is refused by name
    with pytest.raises(ValueError, match=r"warm start \[1\.0, 2\.0, 3\.0, 4\.0\] must hold 1 to n_groups = 3"):
        grouped._start_inits(mkt, 3, 0, 0, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"warm start \[\] must hold 1 to n_groups = 3"):
        grouped._start_inits(mkt, 3, 0, 0, [])
    with pytest.raises(ValueError, match=r"warm start \[\[1\.0\], \[2\.0\]\] must hold 1 to n_groups = 3"):
        grouped._start_inits(mkt, 3, 0, 0, [[1.0], [2.0]])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"], ids=["negative", "float", "bool", "string"])
def test_restart_seed_must_be_a_whole_number(profile, cost_model, seed):
    # random.Random would take -1 as seed 1 and hash a string or a float
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        solve_with_restarts(profile, cost_model, uniform06(), 2, restarts=1, seed=seed)


def test_restarts_never_lose_to_single_start(profile, cost_model):
    mkt = truncnorm06()
    plain = solve_alternating(profile, cost_model, mkt, 3)
    multi = solve_with_restarts(
        profile, cost_model, mkt, 3, restarts=2, seed=11, warm=[1.0, 2.0, 3.0]
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


def test_empty_group_is_dropped():
    # from the quantile start at K = 3 the bottom boundary ends on
    # sigma_min, so the bottom group's band has no mass; that solution
    # drops it and serves two items
    profile, cost_model = DemandProfile(alpha=1.0, mu=7.0, q=10.0), CostModel(c0=6.4, c1=0.05)
    mkt = make_market("uniform", 0.5, 8.5)
    sol = grouped._solve_starts(profile, cost_model, mkt, grouped._start_inits(mkt, 3, 0, 0, None))[0]
    assert sol.boundaries.size == sol.periods.size == sol.prices.size == sol.counts.size == 2
    assert sol.requested_groups == 3
    assert np.all(sol.counts > 0)
    assert sol.converged and abs(sol.total_profit - 0.175869108) <= 1e-9
    assert brute_force_ic_ir(profile, mkt, sol.periods, sol.prices, sol.boundaries).passed
    # the solve re-solves that short stop from its own menu, split up to
    # three groups, and serves all three for more profit
    full = solve_alternating(profile, cost_model, mkt, 3)
    assert full.counts.size == 3 and np.all(full.counts > 0)
    assert full.converged and full.total_profit >= 0.182747
    assert full.start_profits == [sol.total_profit, full.total_profit]
    assert brute_force_ic_ir(profile, mkt, full.periods, full.prices, full.boundaries).passed


def test_confirming_round_keeps_the_served_menu():
    # the quantile start's Newton finish ends on the empty menu (profit 0)
    # for this market at K = 1, a short stop; the re-solve from that
    # menu's own boundary escapes it and serves the one group
    profile = DemandProfile(alpha=1.0, mu=7.316916215921598, q=9.021113086458632)
    mkt = make_market("uniform", 0.0, 6.810334108612219)
    sol = solve_alternating(profile, CostModel(c0=6.55705058374758, c1=0.5097908098684232), mkt, 1)
    assert sol.total_profit == 0.06551781562784512
    assert sol.counts.size == 1 and sol.counts[0] > 0
    assert sol.converged


#: Markets where a solve stopped short of K served groups: (market,
#: profile, cost model, {K: the best known profit}).  The uniform market
#: reported convergence at a residual 10^4 x KKT_TOL N with 3 of 6 groups
#: served; on the truncated normal the quantile start and four restarts
#: all served one group at K = 2, 8.4% below the best known menu; the
#: narrow uniform market served 1, 1 and 2 groups at K = 2, 3 and 4; the
#: tiny-group market's quantile start counted a group of 1.57e-25
#: consumers as served at K = 2 and stopped at 9.30783.
SHORT_STOP_MARKETS = {
    "found_uniform": (
        make_market("uniform", 0.711685533819926, 7.145079072928397, size=48.25587193941592),
        DemandProfile(alpha=1.0, mu=8.960564149865379, q=13.14138928470777),
        CostModel(c0=7.990999144942705, c1=0.8980828588220268),
        {2: 5.18615, 3: 5.32118, 6: 5.41320},
    ),
    "missed_optimum": (
        make_market("truncated_normal", 0.5, 8.4287, size=50.0, loc=5.3517, scale=2.1650),
        DemandProfile(alpha=1.0, mu=15.1761, q=18.2418),
        CostModel(c0=14.0924, c1=0.6079),
        {2: 2.13169, 3: 2.18130},
    ),
    "narrow_uniform": (
        make_market("uniform", 0.5, 1.5),
        DemandProfile(alpha=1.0, mu=5.0, q=6.0),
        CostModel(c0=4.375, c1=1.0),
        {2: 0.0381795, 3: 0.0383760, 4: 0.0384459},
    ),
    "tiny_group": (
        make_market("truncated_normal", 0.0, 7.7799, size=50.0, loc=2.4887, scale=0.2210),
        DemandProfile(alpha=1.0, mu=7.3006, q=8.1691),
        CostModel(c0=5.5159, c1=0.9536),
        {2: 9.36995},
    ),
}


@pytest.mark.parametrize(
    "name, k", [(name, k) for name, (*_, best) in SHORT_STOP_MARKETS.items() for k in best], ids=lambda v: v if isinstance(v, str) else f"K{v}"
)
def test_short_stops_are_solved_to_k_groups(name, k):
    # with no restarts and with two (seed 57), the solve serves all K
    # groups, each more than one rounding of G, reaches the best known
    # profit and converges by its residual
    market, profile, cost_model, best = SHORT_STOP_MARKETS[name]
    for restarts, seed in ((0, 0), (2, 57)):
        sol = solve_with_restarts(profile, cost_model, market, k, restarts=restarts, seed=seed)
        assert sol.counts.size == k and np.all(sol.counts > np.finfo(float).eps * market.size)
        assert sol.total_profit >= best[k]
        assert sol.converged and sol.kkt_residual <= KKT_TOL * market.size
        assert brute_force_ic_ir(profile, market, sol.periods, sol.prices, sol.boundaries).passed


def test_short_stop_re_solve_needs_no_budget_of_its_own(monkeypatch):
    # a K = 2 Newton probe of one start holds 36 values, of two 72: under a
    # budget of 50 the one-start solve runs, and so does the one-start
    # re-solve of its short stop, since the solve already checked its K
    market, profile, cost_model, best = SHORT_STOP_MARKETS["narrow_uniform"]
    monkeypatch.setattr(grouped, "TUPLE_BUDGET", 50)
    sol = solve_with_restarts(profile, cost_model, market, 2)
    assert len(sol.start_profits) == 2  # the quantile start stopped short and was re-solved
    assert sol.counts.size == 2 and np.all(sol.counts > 0)
    assert sol.total_profit >= best[2]
    with pytest.raises(ValueError, match="exceeds the work budget"):
        solve_with_restarts(profile, cost_model, market, 2, restarts=1)


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


#: The profit the Newton finish must not lose, at the quantile start and
#: at the restart drawn below (random.Random(20260822)).  The quantile
#: column is the old profit-stall solver's; the restart column is the
#: finish's own profit from that restart, recorded when the restarts moved
#: from numpy's generator (the stall rule's profits from numpy's restart
#: were lower by 3.5e-14 to 1.5e-9).
STALL_RULE_PROFITS = {
    ("uniform_k6", 1): (1.1918885306218623, 1.1918885306241647),
    ("uniform_k6", 2): (1.2907610981162168, 1.2907610981555424),
    ("uniform_k6", 3): (1.3171587537573244, 1.3171587539482212),
    ("uniform_k6", 6): (1.3365625744457927, 1.3365625754287935),
    ("exponential_k6", 1): (1.6752301493402064, 1.6752301493419586),
    ("exponential_k6", 2): (1.8090536008852944, 1.8090536009562668),
    ("exponential_k6", 3): (1.8468439397767633, 1.8468439400427983),
    ("exponential_k6", 6): (1.875543341687167, 1.8755433431958017),
    ("truncated_normal_k6", 1): (1.3537781669508369, 1.3537781669518016),
    ("truncated_normal_k6", 2): (1.4066422997747123, 1.406642299872454),
    ("truncated_normal_k6", 3): (1.4239445167937934, 1.4239445170340517),
    ("truncated_normal_k6", 6): (1.4380478278526463, 1.4380478289948349),
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
def bundled_solve(name, k, start, size=None):
    """A bundled market's solve from one start: the quantile start (row 0
    of _start_inits) or the restart that seed 20260822 draws (row 1), on
    the market as bundled or, given a size, on the market of that size."""
    sc = load_scenario(name)
    market = sc.market if size is None else dataclasses.replace(sc.market, size=size)
    row = grouped._start_inits(market, k, 1, 20260822, None)[STARTS.index(start)]
    return sc, grouped._solve_starts(sc.profile, sc.cost_model, market, row[None])[0]


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_newton_finish_reaches_first_order_optimum(name, k, start):
    sc, sol = bundled_solve(name, k, start)
    assert sol.converged
    assert sol.iterations <= 20
    # nothing pooled: no run of equal periods, and no group dropped
    assert sol.boundary_edge_hits == [] and not equal_runs(sol.periods) and sol.boundaries.size == k
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


def test_step2_search_ends_on_a_wide_window(profile, cost_model, monkeypatch):
    # on a window reaching 1e10, cubic steps from the far end of each
    # bracket land just inside it and creep down by about 0.26% a step;
    # a cubic step that does not halve the step before last bisects
    # instead, so the search takes dozens of slope calls, not thousands
    market = make_market("truncated_normal", 0.0, 1e10, loc=3.0, scale=1.5)
    periods = np.array([1e-4, 0.37315, 0.85423, 1.26625, 1.69314, 2.26247])
    guess = np.array([0.0, 1.08149, 2.12655, 3.07268, 3.93902, 4.74056])
    slopes, calls = grouped._boundary_slopes, [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] > 100:
            raise AssertionError("Step II search took more than 100 slope calls")
        return slopes(*args)

    monkeypatch.setattr(grouped, "_boundary_slopes", counted)
    blocks = np.arange(periods.size)
    boundaries = block_boundaries(profile, cost_model, market, periods, blocks, blocks, guess)
    assert np.all(np.diff(boundaries) > 0) and boundaries[-1] < 5.0


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
    starts = grouped._start_inits(sc.market, k, sc.solver.restarts, sc.solver.seed, None)
    batch = grouped._solve_starts(sc.profile, sc.cost_model, sc.market, starts)
    with counted_kernel() as calls:
        alone = [grouped._solve_starts(sc.profile, sc.cost_model, sc.market, row[None])[0] for row in starts]
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


@pytest.mark.parametrize("size", [1e-300, 3.0, 48.25587193941592, 1e300])
@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("name", BUNDLED_GROUPED)
def test_market_size_only_scales_the_solve(name, k, size):
    # IC, IR and the menu do not see the market size: the bundled markets
    # (N = 1) at another size give the same menu and search bit for bit,
    # and N times their counts, profits and residual
    _, one = bundled_solve(name, k, "quantile")
    _, sol = bundled_solve(name, k, "quantile", size)
    for field in ("boundaries", "periods", "prices"):
        assert np.array_equal(getattr(sol, field), getattr(one, field)), field
    same = ("iterations", "converged", "newton_steps", "boundary_edge_hits")
    assert [getattr(sol, f) for f in same] == [getattr(one, f) for f in same]
    assert equal_runs(sol.periods) == equal_runs(one.periods)
    assert np.array_equal(sol.counts, size * one.counts)
    assert sol.total_profit == size * one.total_profit and sol.kkt_residual == size * one.kkt_residual
    assert sol.profit_trace == [size * p for p in one.profit_trace]


def test_restart_pick_does_not_depend_on_market_size():
    # a restart beats the quantile start by 7.9% per consumer on this
    # market; the best start is chosen at every market size
    market = make_market("truncated_normal", 0.5, 8.25, loc=4.0, scale=2.5)
    profile, cost_model = DemandProfile(alpha=1.0, mu=5.8, q=8.0), CostModel(c0=4.4, c1=0.6)
    one = solve_with_restarts(profile, cost_model, market, 3, restarts=8, seed=0)
    assert one.total_profit > 1.07 * one.start_profits[0]
    for size in (1e-300, 3.0, 1e300):
        sol = solve_with_restarts(profile, cost_model, dataclasses.replace(market, size=size), 3, restarts=8, seed=0)
        assert np.array_equal(sol.boundaries, one.boundaries) and np.array_equal(sol.periods, one.periods)
        assert sol.start_profits == [size * p for p in one.start_profits]
        # the best start serves two of three groups; its re-solve, split
        # up to three, finds a third optimum (0.141604 against 0.139020)
        assert sol.distinct_optima == one.distinct_optima == 3


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
    sol = grouped._solve_starts(sc.profile, sc.cost_model, sc.market, np.repeat(k1.boundaries, 2)[None])[0]
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
    # each K's warm start (row 1 of the start array, after the quantile
    # start) is the previous menu with its heaviest group split once per
    # added group: it keeps the previous boundaries and reaches the best
    # start's profit in as few rounds and Newton steps as the other starts
    sc = load_scenario(name)
    calls = []  # [start rows, each start's solution, the returned solution] of each solve
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
    for k, (_, _, prev), (rows, starts, best) in zip(ks[1:], calls, calls[1:]):
        assert rows.shape == (2 + sc.solver.restarts, k)
        warm, start = rows[1], starts[1]
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
    # first round, which ends the solve, and every trial menu it probes
    # stays ascending inside the window
    sc = load_scenario(name)
    probed, probe = [], grouped._probe

    def recorded(profile, cost_model, market, x, lo, hi):
        probed.append((x.copy(), lo, hi))
        return probe(profile, cost_model, market, x, lo, hi)

    monkeypatch.setattr(grouped, "_probe", recorded)
    sol = solve_alternating(sc.profile, sc.cost_model, sc.market, 2)
    assert sol.converged and sol.iterations == 1
    assert probed
    for x, lo, hi in probed:
        assert np.all((x >= lo) & (x <= hi))
        assert np.all(np.diff(x[:, :2]) > 0) and np.all(np.diff(x[:, 2:]) > 0)


#: float.hex of the uniform_k6_K2 benchmark solve (K = 2, one restart) at
#: three restart seeds, recorded with every Newton step, the last one
#: included, solved by np.linalg.solve with the Hessian of the menu it
#: starts from, E(a) by math.erfc and the restart drawn by
#: random.Random(seed):
#: (boundaries, periods, profit, every start's profit).  Starts that
#: converge by full interior Newton steps return them bit for bit.
UNIFORM_K2_MENU = (
    ["0x1.b7cf83398fe4cp+0", "0x1.50432131b909ap+2"],
    ["0x1.304b756762472p-1", "0x1.e6c204fdb2f08p+0"],
    "0x1.4a6f51bf86f07p+0",
)
UNIFORM_K2_START_PROFITS = {
    20260822: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86f01p+0"],
    20260823: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86f06p+0"],
    20260824: ["0x1.4a6f51bf86f07p+0", "0x1.4a6f51bf86f04p+0"],
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


@pytest.mark.parametrize(
    "cost_model",
    [CostModel(c0=10.0, c1=0.5), CostModel(c0=10.0, w=lambda t: 0.05 * t * t)],
    ids=["linear", "quadratic"],
)
def test_profit_gradient_matches_finite_differences(profile, rng, cost_model):
    for factory in ALL_MARKETS:
        mkt = factory(size=3.0)
        for k in (1, 2, 4):
            b = np.sort(rng.uniform(0.3, 5.7, size=k))
            t = np.sort(rng.uniform(0.3, 8.0, size=k))
            grad = _menu_terms(profile, cost_model, mkt, b, t)[1]
            fd = fd_gradient(profile, cost_model, mkt, b, t)
            assert np.allclose(grad, fd, rtol=1e-7, atol=1e-9)


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

    for name in ("valuation", "valuation_dt", "valuation_dsigma", "valuation_dsigma2"):
        if hasattr(grouped, name):
            monkeypatch.setattr(grouped, name, counted(name, getattr(grouped, name)))
    monkeypatch.setattr(mkt, "_check_support", counted("_check_support", mkt._check_support))
    b = np.sort(rng.uniform(0.3, 5.7, size=(4, 3)), axis=1)
    t = np.sort(rng.uniform(0.5, 12.0, size=(4, 3)), axis=1)
    _menu_terms(profile, cost_model, mkt, b, t)
    assert sorted(calls) == ["_check_support", "valuation_dsigma2"]


def closed_form_hessian(profile, cost_model, market, b, t, dc, ddc):
    """Hessian of profit per unit mass in x = (b, t), given C'(t) = dc and
    C''(t) = ddc.  Q_k'' is the curvature _boundary_slopes returns, and
    V_sigma_t = V_t (1 + a^2) / sigma with a = sqrt(t) (q - mu) / sigma."""
    K = b.size
    items = np.arange(K)
    G, g = market.cdf(b), market.pdf(b)
    G_lo = np.concatenate(([0.0], G[:-1]))
    vt, vtt = _dt_dtt(profile, _types(b), t)  # at (b_k, t_k)
    vt_lo, vtt_lo = _dt_dtt(profile, _types(b[:-1]), t[1:])  # at (b_{k-1}, t_k)
    vst = lambda s, tt, v: v * (1.0 + tt * (profile.excess_cap / s) ** 2) / s
    H = np.zeros((2 * K, 2 * K))
    H[items, items] = _boundary_slopes(profile, market, b, _blocks(cost_model, t, items, items))[3]
    H[K + items, K + items] = (G - G_lo) * (vtt - ddc) + G_lo * (vtt - np.concatenate(([0.0], vtt_lo)))
    H[items, K + items] = g * (vt - dc) + G * vst(b, t, vt)
    H[items[:-1], K + items[1:]] = -(g[:-1] * (vt_lo - dc[1:]) + G[:-1] * vst(b[:-1], t[1:], vt_lo))
    return H + np.triu(H, 1).T


@pytest.mark.parametrize(
    "cost_model, dc, ddc, tol",
    [(CostModel(c0=10.0, c1=0.5), lambda t: np.full_like(t, 0.5), lambda t: np.zeros_like(t), 1e-7),
     (CostModel(c0=10.0, w=lambda t: 0.05 * t * t), lambda t: 0.1 * t, lambda t: np.full_like(t, 0.1), 1e-5)],
    ids=["linear", "quadratic"],
)
def test_probe_hessian_matches_closed_form(profile, rng, cost_model, dc, ddc, tol):
    # _probe's -H is a central difference of the gradient (and, for a
    # custom W, of a central-difference C'); rows of random ascending
    # menus go through one batched call
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
    # _probe's residual is _menu_residual of its gradient, and on strictly
    # ascending menus the coordinates a step may move (free) are exactly
    # those whose |gradient| it counts: it is the largest |gradient| over
    # them, also with coordinates on each window edge, within EDGE_RTOL of
    # it or just at that distance, and gradients into and out of the window
    mkt, K, R = uniform06(), 3, 400
    lo, hi = grouped._window(mkt, K)
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
        return np.zeros_like(b), np.broadcast_to(grad[:, None, :], b.shape[:-1] + (2 * K,))

    monkeypatch.setattr(grouped, "_menu_terms", menu_terms)
    _, g, free, residual, _ = grouped._probe(None, None, mkt, x, lo, hi)
    low, high = x <= lo + edge, x >= hi - edge
    for hits in (low & (g > 0), low & (g < 0), high & (g > 0), high & (g < 0)):
        assert hits.sum() >= 10
    expected = grouped._menu_residual(x, g, lo, hi)
    assert residual.tobytes() == expected.tobytes()
    assert residual.tobytes() == np.max(np.abs(g), axis=1, where=free, initial=0.0).tobytes()


@st.composite
def pooled_chains(draw):
    """Rows of ascending chains in [0, 5] with runs of equal values, values
    on both edges and within EDGE_RTOL of them, and a gradient per value."""
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    levels = st.sampled_from([0.0, 1e-10, 1.0, 2.5, 4.0, 5.0 - 1e-10, 5.0])
    x = np.array([sorted(draw(st.lists(levels, min_size=n, max_size=n))) for _ in range(rows)])
    grad = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), min_size=rows, max_size=rows)))
    return x, grad


@settings(max_examples=100, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pooled_chains(), st.sampled_from([(0.0, 5.0), DEFAULT_T_DOMAIN]))
@example((np.array([[1.0, 1.0, 1.0, 2.5], [0.0, 0.0, 5.0, 5.0]]), np.array([[-1.0, 2.0, -0.5, 0.25], [0.5, -1.0, 1.0, -0.75]])), (0.0, 5.0))
@example((np.array([[0.0, 2.5, 5.0], [1.0, 1.0, 1.0]]), np.array([[0.5, -1.0, 0.25], [-0.75, 1.0, -0.5]])), DEFAULT_T_DOMAIN)
def test_chain_residual_matches_independent_run_by_run_residual(kkt, chain, window):
    # a run of equal values moves as a whole or splits, and a run on an edge
    # cannot leave it: each chain's residual is the one perfbench/kkt.py finds
    # walking the chain run by run.  A menu's residual is its larger chain's:
    # each row of chains is the menu (row, row), whose b_K >= t_1, and the
    # menu (row, next row), both chains in one window, so a run that joined
    # them across the b/t seam would show
    x, grad = chain
    lo, hi = window
    x = lo + (hi - lo) * (x / 5.0)  # the levels on [0, 5] carried onto the window
    n, rows = x.shape[1], range(len(x))
    pairs = [(r, r) for r in rows] + [(r, (r + 1) % len(x)) for r in rows]
    menus = np.array([np.concatenate([x[r], x[s]]) for r, s in pairs])
    got = grouped._menu_residual(menus, np.array([np.concatenate([grad[r], grad[s]]) for r, s in pairs]), np.full(2 * n, lo), np.full(2 * n, hi))
    assert got.shape == (len(pairs),)
    for i, (r, s) in enumerate(pairs):
        expected = max(kkt.chain_residual(x[j], grad[j], lo, hi, grouped.EDGE_RTOL * (hi - lo)) for j in (r, s))
        assert abs(got[i] - expected) <= 1e-12 * max(np.abs(grad[j]).sum() for j in (r, s))


@pytest.mark.parametrize("c0, c1, b, t", [(20.0, 0.0, 1.5, 10.0), (100.0, 1000.0, 3.0, 0.001), (20.0, 0.0, 1.0, 0.1)])
def test_newton_finish_stops_with_every_coordinate_on_an_edge(profile, c0, c1, b, t):
    # serving loses money, and one Newton step lands on the empty menu:
    # the boundary on sigma_min and the period on its floor, both
    # gradients pointing out of the window, so no coordinate is free
    mkt = make_market("uniform", 0.5, 6.0)
    menus, profit, residual, steps, spent = grouped._newton_finish(
        profile, CostModel(c0=c0, c1=c1), mkt, np.array([[b, t]]), [[]], np.zeros(1, dtype=int)
    )
    assert (menus[0, 0], menus[0, 1]) == (mkt.sigma_min, DEFAULT_T_DOMAIN[0])
    assert profit[0] == 0.0 and residual[0] == 0.0 and steps[0] == 1 and spent[0] == 1


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
    d_b = _menu_terms(profile, cost_model, mkt, sol.boundaries, sol.periods)[1][:k]
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
        params["rate"] = draw(st.floats(0.1, 30.0))
    elif kind == "truncated_normal":
        params.update(loc=draw(st.floats(lo, hi)), scale=draw(st.floats(0.1, 3.0)))
    market = make_market(kind, lo, hi, size=draw(st.sampled_from([1.0, 50.0])), **params)
    mu = draw(st.floats(5.0, 20.0))
    profile = DemandProfile(alpha=1.0, mu=mu, q=mu + draw(st.floats(0.5, 5.0)))
    cost_model = CostModel(c0=draw(st.floats(0.5, 0.95)) * mu, c1=draw(st.floats(0.0, 1.0)))
    solver = SolverSpec(n_groups=3, restarts=0, seed=0)
    return Scenario("random", profile, cost_model, market, solver, baselines=[1.0])


def bundled_economics_scenario(market):
    """A K = 3 grouped scenario on market with the bundled scenarios'
    economics (alpha = 1, mu = 13, q = 15, c0 = 10, c1 = 0.5)."""
    solver = SolverSpec(n_groups=3, restarts=0, seed=0)
    profile, cost_model = DemandProfile(alpha=1.0, mu=13.0, q=15.0), CostModel(c0=10.0, c1=0.5)
    return Scenario("example", profile, cost_model, market, solver, baselines=[1.0])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(random_grouped_scenarios())
@example(bundled_economics_scenario(NO_MASS_AT_FLOOR))
@example(bundled_economics_scenario(STEEP_EXPONENTIAL))
def test_random_markets_pass_certificate_and_sweep_rises(scenario):
    sol = solve_alternating(scenario.profile, scenario.cost_model, scenario.market, 3)
    assert sol.converged and sol.kkt_residual <= KKT_TOL * scenario.market.size
    # fewer than three groups only where no three-group menu on a grid
    # earns more: free periods (c1 = 0) that put every type on the period
    # cap make the items one, and a market may pay best serving no one
    if sol.counts.size < 3:
        m = scenario.market
        grid, _, _ = grid_oracle_grouped(
            scenario.profile, scenario.cost_model, m, 3, np.linspace(m.sigma_min, m.sigma_max, 201), np.geomspace(1e-3, 600.0, 300)
        )
        assert grid <= sol.total_profit + 1e-9 * max(1.0, abs(sol.total_profit))
    cert = brute_force_ic_ir(scenario.profile, scenario.market, sol.periods, sol.prices, boundaries=sol.boundaries)
    assert cert.passed
    # a one-item menu at a fixed period is a restricted K = 1 menu
    baseline = max(
        optimized_cutoff_profit(scenario.profile, scenario.cost_model, scenario.market, t) for t in scenario.baselines
    )
    assert sol.total_profit >= baseline - 1e-12 * max(1.0, abs(baseline))
    with tempfile.TemporaryDirectory() as out:
        profits = [row["profit"] for row in sweep_groups(scenario, [1, 2, 3], out)]
    assert all(b >= a - 1e-10 * max(1.0, abs(a)) for a, b in zip(profits, profits[1:]))
