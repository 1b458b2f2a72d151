"""Discrete-market menu solver: per-type search, pooling repair, price chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from planmenu import discrete
from planmenu.discrete import (
    DEFAULT_T_DOMAIN,
    FEASIBILITY_TOL,
    FeasibilityReport,
    _lockstep_root,
    block_periods,
    feasibility_check,
    golden_section_max,
    optimal_prices,
    period_objective,
    repair_monotone,
    solve_discrete,
)
from planmenu.distributions import DiscreteMarket
from planmenu import market as market_module
from planmenu.market import CostModel, DemandProfile, _dt_dtt, _types, cost, valuation, valuation_dt
from planmenu.oracles import full_coverage_profit, optimized_cutoff_profit
from planmenu.scenarios import load_scenario

from conftest import equal_runs

# quadrature-oracle values (alpha=1, mu=13, q=15)
V_2_1 = 12.833369058824628
V_2_4 = 12.991509297383171  # equals V(1, 1) by the scaling identity
V_1_4 = 12.999996427370784
P1_AT_T1 = 2.175228820266085  # type (sigma=2) objective with one sigma=1 type below


def case1_market():
    return DiscreteMarket(sigmas=np.arange(0.1, 6.2, 0.6), counts=np.ones(11))


def type_objective(profile, cost_model, market, i, t):
    """P_i(t): type i's contribution to total profit at the price optimum."""
    sig = market.sigmas
    return period_objective(
        profile, cost_model, market.counts[i], market.counts[:i].sum(), sig[i], sig[max(i - 1, 0)], t
    )


# --- one-dimensional searches --------------------------------------------

def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda t: -(t - 3.0) ** 2, 0.0, 10.0)
    assert abs(x - 3.0) < 1e-8
    assert abs(fx) < 1e-15


def test_golden_section_monotone_edges():
    x, _ = golden_section_max(lambda t: t, 0.0, 5.0)
    assert abs(x - 5.0) < 1e-8
    x, _ = golden_section_max(lambda t: -t, 0.0, 5.0)
    assert abs(x) < 1e-8
    with pytest.raises(ValueError):
        golden_section_max(lambda t: t, 1.0, 1.0)


def test_lockstep_root_takes_one_bracket_per_item():
    # slopes c - x^3 (roots at cbrt(c)), each item in its own window: two
    # roots inside, one slope already <= 0 at its lo and one still >= 0 at
    # its hi; the first root lies outside the second item's window
    c = np.array([8.0, 1.0, 0.001, 1000.0])
    lo, hi = np.array([0.5, 0.9, 0.5, 1.0]), np.array([5.0, 1.5, 2.0, 4.0])
    start = np.array([4.5, 1.5, 1.0, 2.0])

    def slopes(x):
        return c - x**3, np.abs(c) + np.abs(x**3), (-3.0 * x * x,)

    def newton(x, slope, state):
        return x - slope / state[0]

    def mid(a, b):
        return 0.5 * (a + b)

    got = _lockstep_root(slopes, newton, mid, start, lo, hi)
    assert abs(got[0] - 2.0) <= 1e-12 * 2.0 and abs(got[1] - 1.0) <= 1e-12
    assert got[2] == lo[2] and got[3] == hi[3]
    for i in range(c.size):  # every item as if searched alone in its own window
        alone = lambda x, i=i: (c[i] - x**3, abs(c[i]) + np.abs(x**3), (-3.0 * x * x,))
        assert _lockstep_root(alone, newton, mid, start[i : i + 1], lo[i], hi[i])[0] == got[i]


@pytest.mark.parametrize("start", [0.1, 0.2, 0.3, 2.5])
def test_lockstep_root_cubic_rules_cross_a_flat_floor(start):
    # the slope 1 - 50 exp(-1/(2 x^2)) is flat to every order at 0, like a
    # boundary slope near sigma_min = 0, so a Newton step from near the
    # floor lands far past the root: the cubic rules find the same root
    # in fewer slope calls
    root = 1.0 / np.sqrt(2.0 * np.log(50.0))
    found, calls = [], []
    for cubic in (False, True):
        count = [0]

        def slopes(x):
            count[0] += 1
            e = 50.0 * np.exp(-0.5 / (x * x))
            return 1.0 - e, 1.0 + e, (-e / x**3,)

        newton, mid = (lambda x, s, st: x - s / st[0]), (lambda a, b: 0.5 * (a + b))
        x = _lockstep_root(slopes, newton, mid, np.array([start]), 0.05, 3.0, cubic)
        found.append(x[0])
        calls.append(count[0])
    assert all(abs(x - root) <= 1e-12 * root for x in found)
    assert calls[1] < calls[0]


def test_period_search_rejects_convex_objective(profile):
    # a falling quadratic W would make every P_i convex in t: CostModel
    # refuses it where it is built, so no search ever sees it
    with pytest.raises(ValueError, match=r"^cost w must give one finite value per period, convex in t, on the plan window \(0.0001, 600.0\)$"):
        CostModel(c0=1.0, w=lambda t: -0.01 * t * t)
    # a slope that never turns positive pins the period to the window's
    # low edge exactly: sigma = 0 has V_t = 0, so P' = -c1
    one = np.ones(1)
    items = np.arange(1)
    t = block_periods(profile, CostModel(c0=10.0, c1=0.5), 0 * one, one, 0 * one, items, items)
    assert t[0] == DEFAULT_T_DOMAIN[0]


def test_period_search_matches_grid(profile, cost_model):
    # lowest-volatility type: the profit objective peaks at a short period
    market = DiscreteMarket(sigmas=[0.1], counts=[1.0])
    f = lambda t: type_objective(profile, cost_model, market, 0, t)
    x = solve_discrete(profile, cost_model, market).periods[0]
    grid = np.arange(1e-4, 0.05, 1e-5)
    vals = f(grid)
    assert 0.005 < x < 0.03  # interior, far from both ends
    assert abs(x - grid[np.argmax(vals)]) < 2e-5
    assert f(x) >= vals.max() - 1e-10


# --- ascending repair ----------------------------------------------------

def golden_blocks(objectives, lo, hi):
    """Block solver for repair_monotone: golden section on each block's
    summed objective, as Step II runs it."""

    def solve(first, last, _guess):
        return [
            golden_section_max(lambda x: sum(f(x) for f in objectives[i : j + 1]), lo, hi)[0]
            for i, j in zip(first, last)
        ]

    return solve


def test_repair_monotone_ascending_input_untouched():
    objectives = [lambda x, c=c: -(x - c) ** 2 for c in (1.0, 2.0, 3.0)]
    out, blocks = repair_monotone(golden_blocks(objectives, 0.0, 10.0), 3)
    assert np.allclose(out, [1.0, 2.0, 3.0], atol=1e-7)
    assert blocks == []


def test_repair_monotone_pools_reversed_pair():
    objectives = [lambda x: -(x - 5.0) ** 2, lambda x: -(x - 2.0) ** 2]
    out, blocks = repair_monotone(golden_blocks(objectives, 0.0, 10.0), 2)
    # pooled objective is the sum, maximized at the midpoint 3.5
    assert np.allclose(out, [3.5, 3.5], atol=1e-7)
    assert len(blocks) == 1
    assert (blocks[0].start, blocks[0].stop) == (0, 1)
    assert abs(blocks[0].value - 3.5) < 1e-7


def test_repair_monotone_cascades():
    # peaks (5, 2, 3): pooling {0,1} at 3.5 re-violates against 3, so the
    # final answer pools all three at the grand mean 10/3
    objectives = [lambda x, c=c: -(x - c) ** 2 for c in (5.0, 2.0, 3.0)]
    out, blocks = repair_monotone(golden_blocks(objectives, 0.0, 10.0), 3)
    assert np.allclose(out, [10.0 / 3.0] * 3, atol=1e-7)
    assert len(blocks) == 1
    assert (blocks[0].start, blocks[0].stop) == (0, 2)


def test_repair_monotone_never_pools_across_rows():
    # three rows of three items; rows 1 and 2 each start below the end of
    # the row before, which is no descent: only each row's own descents
    # pool, (4, 2) at 3 and (0.5, 0.2) at 0.35
    peaks = (1.0, 4.0, 2.0, 0.5, 0.2, 6.0, 1.0, 2.0, 3.0)
    objectives = [lambda x, c=c: -(x - c) ** 2 for c in peaks]
    out, blocks = repair_monotone(golden_blocks(objectives, 0.0, 10.0), (3, 3))
    assert out.shape == (3, 3)
    assert np.allclose(out, [[1.0, 3.0, 3.0], [0.35, 0.35, 6.0], [1.0, 2.0, 3.0]], atol=1e-7)
    assert [(b.start, b.stop) for b in blocks] == [(1, 2), (3, 4)]  # flat indices
    for r in range(3):
        alone, _ = repair_monotone(golden_blocks(objectives[3 * r : 3 * r + 3], 0.0, 10.0), 3)
        assert np.array_equal(out[r], alone)


def _ascending_dp_optimum(objectives, grid):
    # exact maximizer of sum_i f_i(x_i) over ascending grid tuples:
    # M_i(x) = f_i(x) + max_{x' <= x} M_{i-1}(x')
    best = None
    for f in objectives:
        vals = f(grid)
        best = vals if best is None else vals + np.maximum.accumulate(best)
    return float(np.max(best))


def test_repair_monotone_matches_dp(rng):
    grid = np.linspace(0.0, 8.0, 8001)
    for _ in range(10):
        peaks = rng.uniform(0.5, 7.5, size=3)
        curvs = rng.uniform(0.3, 3.0, size=3)
        objectives = [
            (lambda c, k: (lambda x: -k * (x - c) ** 2))(c, k)
            for c, k in zip(peaks, curvs)
        ]
        out, blocks = repair_monotone(golden_blocks(objectives, 0.0, 8.0), 3)
        assert np.all(np.diff(out) >= -1e-12)
        total = sum(f(float(x)) for f, x in zip(objectives, out))
        dp = _ascending_dp_optimum(objectives, grid)
        # DP is exact up to one grid cell of curvature loss
        assert total >= dp - 3.0 * 3.0 * (grid[1] - grid[0]) ** 2
        assert total <= dp + 1e-6
        for blk in blocks:
            members = range(blk.start, blk.stop + 1)
            fsum = lambda x: sum(objectives[i](x) for i in members)
            assert fsum(blk.value) >= fsum(blk.value + 0.01) - 1e-12
            assert fsum(blk.value) >= fsum(blk.value - 0.01) - 1e-12


# --- per-type objectives and the price chain -----------------------------

def test_type_objective_bottom_type_has_no_rent(profile, cost_model):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    t = 1.7
    own = valuation(profile, 1.0, t) - cost(cost_model, t)
    assert abs(type_objective(profile, cost_model, market, 0, t) - own) < 1e-15


def test_type_objective_frozen_value(profile, cost_model):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    assert abs(type_objective(profile, cost_model, market, 1, 1.0) - P1_AT_T1) < 1e-12


def test_type_objective_counts_scale_rent(profile, cost_model):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[5.0, 1.0])
    t = 1.0
    own = valuation(profile, 2.0, t) - cost(cost_model, t)
    rent = valuation(profile, 2.0, t) - valuation(profile, 1.0, t)
    assert abs(type_objective(profile, cost_model, market, 1, t) - (own + 5.0 * rent)) < 1e-12


def test_type_objective_rejects_bad_period(profile, cost_model):
    market = DiscreteMarket(sigmas=[1.0], counts=[1.0])
    with pytest.raises(ValueError):
        type_objective(profile, cost_model, market, 0, 0.0)
    with pytest.raises(ValueError):
        type_objective(profile, cost_model, market, 0, -1.0)


def test_optimal_prices_single_type(profile):
    market = DiscreteMarket(sigmas=[2.0], counts=[1.0])
    prices = optimal_prices(profile, market.sigmas, [1.0])
    assert abs(prices[0] - V_2_1) < 1e-12


def test_optimal_prices_two_types_frozen(profile):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    prices = optimal_prices(profile, market.sigmas, [1.0, 4.0])
    # top type pays her valuation; the lower price telescopes down by the
    # lower type's valuation drop between the two periods
    assert abs(prices[1] - V_2_4) < 1e-12
    assert abs(prices[0] - (V_2_4 + V_2_4 - V_1_4)) < 1e-12  # V(1,1) = V(2,4)


def test_optimal_prices_equal_periods_collapse(profile):
    market = DiscreteMarket(sigmas=[0.5, 1.5, 3.0], counts=[1.0, 1.0, 1.0])
    prices = optimal_prices(profile, market.sigmas, [2.0, 2.0, 2.0])
    assert abs(prices[0] - prices[1]) < 1e-14
    assert abs(prices[1] - prices[2]) < 1e-14
    assert abs(prices[2] - valuation(profile, 3.0, 2.0)) < 1e-12


def test_optimal_prices_rejects_descending(profile):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    with pytest.raises(ValueError):
        optimal_prices(profile, market.sigmas, [4.0, 1.0])
    with pytest.raises(ValueError):
        optimal_prices(profile, market.sigmas, [1.0, 2.0, 3.0])


def _chain_by_recursion(profile, sigmas, periods):
    # the literal top-down recursion, one scalar valuation at a time
    prices = np.empty(len(sigmas))
    prices[-1] = valuation(profile, sigmas[-1], periods[-1])
    for i in range(len(sigmas) - 2, -1, -1):
        drop = valuation(profile, sigmas[i], periods[i]) - valuation(profile, sigmas[i], periods[i + 1])
        prices[i] = prices[i + 1] + drop
    return prices


@st.composite
def chain_inputs(draw):
    n = draw(st.integers(1, 8))
    sigmas = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)))
    # periods from a small set, so equal neighbours (pooled items) are common
    periods = np.sort(draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 7.0, 40.0]), min_size=n, max_size=n)))
    return sigmas, periods


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain_inputs())
def test_optimal_prices_matches_recursion(profile, inputs):
    sigmas, periods = inputs
    prices = optimal_prices(profile, sigmas, periods)
    ref = _chain_by_recursion(profile, sigmas, periods)
    assert prices.shape == ref.shape
    assert np.max(np.abs(prices - ref)) <= 1e-12


# --- the solver ----------------------------------------------------------

def test_solve_single_type_is_monopoly(profile, cost_model):
    market = DiscreteMarket(sigmas=[2.0], counts=[3.0])
    sol = solve_discrete(profile, cost_model, market)
    t = np.arange(0.5, 20.0, 1e-4)
    surplus = valuation(profile, 2.0, t) - cost(cost_model, t)
    assert abs(sol.periods[0] - t[np.argmax(surplus)]) < 2e-4
    assert sol.total_profit >= 3.0 * surplus.max() - 1e-8
    assert abs(sol.prices[0] - valuation(profile, 2.0, sol.periods[0])) < 1e-12


def test_solve_case1_menu_structure(profile, cost_model):
    market = case1_market()
    sol = solve_discrete(profile, cost_model, market)
    n = market.n_types

    assert feasibility_check(profile, market, sol.periods, sol.prices).passed
    assert np.all(np.diff(sol.periods) >= 0)
    assert np.all(np.diff(sol.prices) >= 0)  # longer periods sell for more

    # top participation binds exactly; everyone else keeps a strict rent
    utils = np.array([
        valuation(profile, market.sigmas[i], sol.periods[i]) - sol.prices[i]
        for i in range(n)
    ])
    assert abs(utils[-1]) < 1e-12
    assert np.all(utils[:-1] > 0)

    # each type is exactly indifferent to the next item up the menu
    for i in range(n - 1):
        alt = valuation(profile, market.sigmas[i], sol.periods[i + 1]) - sol.prices[i + 1]
        assert abs(utils[i] - alt) < 1e-12

    # profit identities: margins sum to the per-type objective total
    margins = sol.prices - cost(cost_model, sol.periods)
    assert abs(sol.total_profit - float(market.counts @ margins)) < 1e-12
    objectives = [type_objective(profile, cost_model, market, i, sol.periods[i]) for i in range(n)]
    assert abs(sol.total_profit - float(np.sum(objectives))) < 1e-9


def test_solve_case1_periods_distorted_upward(profile, cost_model):
    # information rents lengthen periods relative to the surplus-efficient
    # menu, except for the bottom type, which is undistorted
    market = case1_market()
    sol = solve_discrete(profile, cost_model, market)
    # each type's surplus-efficient period: one buyer, no rent
    one = np.ones(market.n_types)
    items = np.arange(market.n_types)
    efficient = block_periods(profile, cost_model, market.sigmas, one, 0 * one, items, items)
    assert abs(sol.periods[0] - efficient[0]) < 1e-6
    assert np.all(sol.periods >= efficient - 1e-6)
    assert np.any(sol.periods > efficient + 1e-3)


def test_feasibility_check_flags_each_condition(profile, cost_model):
    market = case1_market()
    sol = solve_discrete(profile, cost_model, market)
    periods, prices = sol.periods, sol.prices

    assert feasibility_check(profile, market, periods, prices).passed

    bad = prices.copy()
    bad[0] += 1e-3  # price gap now exceeds the lower type's valuation drop
    rep = feasibility_check(profile, market, periods, bad)
    assert (rep.passed, rep.condition, rep.index) == (False, "price_ceiling", 0)
    assert abs(rep.violation - 1e-3) < 1e-9

    # push the gap below the higher type's valuation drop
    i = 0
    drop_hi = valuation(profile, market.sigmas[i + 1], periods[i]) - valuation(
        profile, market.sigmas[i + 1], periods[i + 1]
    )
    drop_lo = valuation(profile, market.sigmas[i], periods[i]) - valuation(
        profile, market.sigmas[i], periods[i + 1]
    )
    wedge = drop_lo - drop_hi
    assert wedge > 0
    bad = prices.copy()
    bad[0] -= wedge + 1e-3
    rep = feasibility_check(profile, market, periods, bad)
    assert (rep.passed, rep.condition, rep.index) == (False, "price_floor", 0)

    bad = prices.copy()
    bad[-1] += 1e-3  # top type priced out
    rep = feasibility_check(profile, market, periods, bad)
    assert (rep.passed, rep.condition) == (False, "top_participation")

    rep = feasibility_check(profile, market, periods[::-1].copy(), prices)
    assert (rep.passed, rep.condition) == (False, "periods_ascending")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_feasibility_check_fails_non_finite_prices(profile, cost_model, bad):
    market = case1_market()
    sol = solve_discrete(profile, cost_model, market)
    rep = feasibility_check(profile, market, sol.periods, np.full_like(sol.prices, bad))
    assert (rep.passed, rep.condition, rep.index, rep.violation) == (False, "finite_prices", 0, np.inf)
    prices = sol.prices.copy()
    prices[4] = bad
    rep = feasibility_check(profile, market, sol.periods, prices)
    assert (rep.passed, rep.condition, rep.index) == (False, "finite_prices", 4)


def test_random_feasible_prices_never_beat_chain(profile, cost_model, rng):
    # sample price vectors inside the feasibility sandwich and confirm the
    # telescoping chain tops them all
    market = case1_market()
    sol = solve_discrete(profile, cost_model, market)
    periods = sol.periods
    n = market.n_types
    drops_hi = np.array([
        valuation(profile, market.sigmas[i + 1], periods[i])
        - valuation(profile, market.sigmas[i + 1], periods[i + 1])
        for i in range(n - 1)
    ])
    drops_lo = np.array([
        valuation(profile, market.sigmas[i], periods[i])
        - valuation(profile, market.sigmas[i], periods[i + 1])
        for i in range(n - 1)
    ])
    v_top = valuation(profile, market.sigmas[-1], periods[-1])
    costs = cost(cost_model, periods)
    for _ in range(200):
        prices = np.empty(n)
        prices[-1] = v_top - rng.uniform(0.0, 0.3)
        for i in range(n - 2, -1, -1):
            prices[i] = prices[i + 1] + rng.uniform(drops_hi[i], drops_lo[i])
        assert feasibility_check(profile, market, periods, prices).passed
        profit = float(market.counts @ (prices - costs))
        assert profit <= sol.total_profit + 1e-9


def test_solver_warns_when_period_cap_binds(profile):
    # a cost that keeps falling in t makes longer periods strictly better
    # everywhere, so the argmax presses against the search cap
    falling = CostModel(c0=1.0, w=lambda t: -0.05 * t)
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    with pytest.warns(RuntimeWarning, match="search cap"):
        sol = solve_discrete(profile, falling, market)
    assert np.all(sol.periods > DEFAULT_T_DOMAIN[1] - 1e-3)


# --- the lockstep period search against references ----------------------

def _slope_reference(profile, slope_c, sig, sig_prev, own, below):
    """A block's P'(t) from valuation_dt and the analytic C'."""

    def slope(t):
        t = np.asarray(t, dtype=float)[..., None]
        vt, vt_prev = valuation_dt(profile, sig, t), valuation_dt(profile, sig_prev, t)
        return np.sum(own * (vt - slope_c(t)) + below * (vt - vt_prev), axis=-1)

    return slope


@pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
def test_block_periods_match_find_root(profile, rng, quadratic):
    # random markets cut into random blocks of adjacent types; each block's
    # period is the root of its summed slope, found by scipy's bracketing
    # root finder one block at a time, or the window edge its slope's sign
    # points to
    lo, hi = DEFAULT_T_DOMAIN
    edges = inside = 0
    for _ in range(12):
        n = int(rng.integers(2, 8))
        sig = np.sort(rng.uniform(0.05, 6.5, n))
        own = rng.uniform(0.5, 5.0, n)
        below = np.concatenate(([0.0], np.cumsum(own)[:-1]))
        c1 = float(rng.uniform(0.05, 1.0))
        if quadratic:  # W = 0.02 t^2 + c1 t, C' = 0.04 t + c1
            model = CostModel(c0=10.0, w=lambda t, c1=c1: 0.02 * t * t + c1 * t)
            slope_c = lambda t, c1=c1: 0.04 * t + c1
        else:
            model = CostModel(c0=10.0, c1=c1)
            slope_c = lambda t, c1=c1: c1
        cuts = np.flatnonzero(rng.random(n - 1) < 0.5)
        first = np.concatenate(([0], cuts + 1))
        last = np.concatenate((cuts, [n - 1]))
        got = block_periods(profile, model, sig, own, below, first, last)
        for j, (i, k) in enumerate(zip(first, last)):
            members = np.arange(i, k + 1)
            rent = np.maximum(members - 1, 0)
            slope = _slope_reference(profile, slope_c, sig[members], sig[rent], own[members], below[members])
            if slope(lo) <= 0 or slope(hi) >= 0:
                assert got[j] == (lo if slope(lo) <= 0 else hi)
                edges += 1
                continue
            ref = float(find_root(slope, (lo, hi)).x)
            assert abs(got[j] - ref) <= 1e-12 * ref
            inside += 1
    assert inside >= 20


def scaled_solves(profile, cost_model, market, k):
    """The menus of a market and of its twin with every type times k.

    V(k sigma, k^2 t) = V(sigma, t) and C(k^2 t) = C(t) once c1 becomes
    c1 / k^2, so the twin's periods are k^2 times the market's and its
    profit is the same.  (With c1 = 0 alone every P_i' = own V_t + rent
    > 0, so every period would sit on the window's cap and nothing would
    scale.)
    """
    base = solve_discrete(profile, cost_model, market)
    scaled_cost = CostModel(c0=cost_model.c0, c1=cost_model.c1 / k**2)
    scaled = solve_discrete(profile, scaled_cost, DiscreteMarket(sigmas=k * market.sigmas, counts=market.counts))
    lo, hi = DEFAULT_T_DOMAIN
    assert 10 * lo < k**2 * base.periods.min() and k**2 * base.periods.max() < 0.1 * hi  # well inside
    assert abs(scaled.total_profit - base.total_profit) <= 1e-12 * base.total_profit
    return base, scaled


@pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_scaling_volatility_scales_periods(name, k):
    sc = load_scenario(name)
    base, scaled = scaled_solves(sc.profile, sc.cost_model, sc.market, k)
    assert np.max(np.abs(scaled.periods / (k**2 * base.periods) - 1.0)) <= 1e-11
    assert [run[:2] for run in equal_runs(scaled.periods)] == [run[:2] for run in equal_runs(base.periods)]


@pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
def test_scaling_volatility_keeps_pooled_blocks(profile, cost_model, k):
    # thin types between heavy ones pool with the heavy type above them
    # (neither bundled discrete market pools); scaling keeps the blocks
    market = DiscreteMarket(sigmas=np.linspace(0.5, 6.0, 5), counts=np.array([5.0, 1.0, 5.0, 1.0, 5.0]))
    base, scaled = scaled_solves(profile, cost_model, market, k)
    for sol in (base, scaled):
        assert [run[:2] for run in equal_runs(sol.periods)] == [(1, 2), (3, 4)]
    assert np.max(np.abs(scaled.periods / (k**2 * base.periods) - 1.0)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_discrete_residual_at_float_floor(name, kkt):
    # the benchmark's solver-independent first-order residual
    sc = load_scenario(name)
    sol = solve_discrete(sc.profile, sc.cost_model, sc.market)
    assert kkt.discrete_residual(sc.profile, sc.cost_model, sc.market, sol.periods, DEFAULT_T_DOMAIN) <= 1e-11


# --- the first-best row of the menu's search -------------------------------


@st.composite
def near_duplicate_markets(draw):
    """Discrete markets of up to 12 types in clusters: each drawn
    volatility may bring a twin 1e-12 to 1e-6 relative above it."""
    base = draw(st.lists(st.floats(0.1, 6.0), min_size=1, max_size=6, unique=True))
    twins = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), min_size=len(base), max_size=len(base)))
    sigmas = np.unique(np.concatenate([base, [s * (1.0 + g) for s, g in zip(base, twins) if g]]))
    counts = draw(st.lists(st.floats(0.1, 5.0), min_size=sigmas.size, max_size=sigmas.size))
    return DiscreteMarket(sigmas=sigmas, counts=counts)


def seeded_ladders():
    """Seeded discrete markets of 3 to 80 ascending types with uneven counts."""
    rng = np.random.default_rng(20)
    for n in (3, 7, 20, 80):
        yield DiscreteMarket(sigmas=np.sort(rng.uniform(0.05, 6.5, n)), counts=rng.integers(1, 40, n).astype(float))


def assert_first_best_row_is_the_lone_search(profile, cost_model, market):
    """solve_discrete's menu passes the chain check, its first-best
    periods are, bit for bit, the lone search with one buyer per type and
    no rent, no pooled block of the two-row search lands in the
    first-best row, and the menu's runs of equal periods are the search's
    blocks."""
    searched = []

    def tap(*args, **kwargs):
        searched.append(repair(*args, **kwargs))
        return searched[-1]

    repair = discrete.repair_monotone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "repair_monotone", tap)
        sol = solve_discrete(profile, cost_model, market)
    assert feasibility_check(profile, market, sol.periods, sol.prices).passed
    n, items = market.n_types, np.arange(market.n_types)
    alone = block_periods(profile, cost_model, market.sigmas, np.ones(n), np.zeros(n), items, items)
    assert (sol.first_best_periods == alone).all()
    [(rows, pooled)] = searched
    assert rows.shape == (2, n) and (rows[0] == sol.periods).all() and (rows[1] == alone).all()
    assert all(block.stop < n for block in pooled)
    assert equal_runs(sol.periods) == [(b.start, b.stop, b.value) for b in pooled]


@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_first_best_row_of_bundled_markets(name):
    sc = load_scenario(name)
    assert_first_best_row_is_the_lone_search(sc.profile, sc.cost_model, sc.market)


@pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
def test_first_best_row_of_seeded_ladders(profile, quadratic):
    model = CostModel(c0=10.0, w=lambda t: 0.05 * t * t) if quadratic else CostModel(c0=10.0, c1=0.5)
    for market in seeded_ladders():
        assert_first_best_row_is_the_lone_search(profile, model, market)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(market=near_duplicate_markets())
def test_first_best_row_of_near_duplicate_markets(profile, cost_model, market):
    assert_first_best_row_is_the_lone_search(profile, cost_model, market)


def test_first_best_row_that_pools_keeps_the_menu_blocks(profile, cost_model):
    # four adjacent floats: two first-best searches descend by a rounding,
    # so the first-best row pools; the solve returns, the menu's runs of
    # equal periods are the menu row's blocks alone, and the shared
    # first-best period is the lone searches' to within one rounding
    sig = [5.113845414205562]
    for _ in range(3):
        sig.append(float(np.nextafter(sig[-1], np.inf)))
    market = DiscreteMarket(sigmas=sig, counts=np.ones(4))
    searched = []
    repair = discrete.repair_monotone

    def tap(*args):
        searched.append(repair(*args))
        return searched[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "repair_monotone", tap)
        sol = solve_discrete(profile, cost_model, market)
    [(_, pooled)] = searched
    assert any(block.start >= 4 for block in pooled)
    assert [run[:2] for run in equal_runs(sol.periods)] == [(b.start, b.stop) for b in pooled if b.start < 4]
    items = np.arange(4)
    alone = block_periods(profile, cost_model, market.sigmas, np.ones(4), np.zeros(4), items, items)
    assert np.all(np.abs(sol.first_best_periods - alone) <= 1e-15 * alone)
    assert feasibility_check(profile, market, sol.periods, sol.prices).passed


def seeded_pooling_markets(shape, count=30):
    """Seeded discrete markets of 2 to 12 types on uniform volatilities,
    with counts of one shape: "flat" (one count for every type),
    "mountain" (rising to a drawn peak type, then falling) or
    "near_duplicate" (uneven counts, and each type may bring a twin 1e-12
    to 1e-6 relative above it)."""
    rng = np.random.default_rng(["flat", "mountain", "near_duplicate"].index(shape))
    for _ in range(count):
        n = int(rng.integers(2, 13))
        sig = np.sort(rng.uniform(0.1, 6.0, n))
        if shape == "flat":
            counts = np.full(n, rng.uniform(0.5, 5.0))
        elif shape == "mountain":
            counts = 1.0 + rng.uniform(0.2, 3.0) * (n - np.abs(np.arange(n) - rng.integers(0, n)))
        else:
            gaps = rng.choice([0.0, 1e-12, 1e-9, 1e-6], n)
            sig = np.unique(np.concatenate([sig, sig[gaps > 0] * (1.0 + gaps[gaps > 0])]))
            counts = rng.uniform(0.1, 5.0, sig.size)
        yield DiscreteMarket(sigmas=sig, counts=counts)


@pytest.mark.parametrize("shape", ["flat", "mountain", "near_duplicate"])
def test_menu_runs_of_equal_periods_are_the_pooled_blocks(profile, cost_model, shape):
    # a pooled block is a run of equal periods in the menu and nothing
    # else is: the menu's maximal runs are the menu row's blocks of its
    # search, start, stop and value; most of these markets pool
    searched, repair = [], discrete.repair_monotone

    def tap(*args):
        searched.append(repair(*args))
        return searched[-1]

    pooling = 0
    for market in seeded_pooling_markets(shape):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discrete, "repair_monotone", tap)
            sol = solve_discrete(profile, cost_model, market)
        blocks = [(b.start, b.stop, b.value) for b in searched.pop()[1] if b.start < market.n_types]
        assert equal_runs(sol.periods) == blocks
        pooling += bool(blocks)
    assert pooling >= 15


def test_period_search_values_nothing(profile, monkeypatch):
    # a period search reads slopes alone: it calls neither valuation nor
    # cost, for the linear cost and for a custom w, pooled blocks included
    calls = []
    for module in (discrete, market_module):
        for name in ("valuation", "cost"):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    sig, n = np.array([0.5, 1.0, 2.0, 3.0]), 4
    own, below = np.ones(n), np.arange(n, dtype=float)
    for model in (CostModel(c0=10.0, c1=0.5), CostModel(c0=10.0, w=lambda t: 0.05 * t * t)):
        block_periods(profile, model, sig, own, below, np.arange(n), np.arange(n))
        block_periods(profile, model, sig, own, below, np.array([0, 1]), np.array([0, 3]))
        discrete.search_periods(profile, model, np.stack([sig, sig]), np.stack([own, own]), np.stack([below, 0 * below]))
    assert calls == []


@st.composite
def period_blocks(draw):
    """n ascending positive types, each with its rent type (the one
    below) and counts, a demand profile (q = mu included) and the
    curvature c2 of W = c2 t^2 + c1 t (0: a linear cost)."""
    n = draw(st.integers(1, 4))
    sig = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=n + 1, max_size=n + 1)))
    own = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    below = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)))
    mu = draw(st.floats(5.0, 20.0))
    profile = DemandProfile(alpha=draw(st.floats(0.5, 2.0)), mu=mu, q=mu + draw(st.sampled_from([0.0, 0.5, 2.0, 5.0])))
    return sig, own, below, profile, draw(st.sampled_from([0.0, 1e-3, 0.05]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(period_blocks())
def test_period_objective_is_strictly_concave(block):
    # the closed-form P'' = own (V_tt(sigma_i) - C'') + below (V_tt(sigma_i) - V_tt(sigma_{i-1}))
    # of a block is negative across the plan window, and each member's rent
    # term is <= 0: |V_tt| grows with sigma (block_periods' docstring)
    sig, own, below, profile, c2 = block
    t = np.geomspace(*DEFAULT_T_DOMAIN, 400)[:, None]
    _, vtt = _dt_dtt(profile, _types(sig), t)
    vtt_own, rent = vtt[:, 1:], vtt[:, 1:] - vtt[:, :-1]
    assert np.all(rent <= 0)
    p2 = np.sum(own * (vtt_own - 2.0 * c2) + below * rent, axis=1)
    # P'' is 0 only where every V_tt underflows and the cost is linear
    assert np.all((p2 < 0) | ((vtt_own == 0).all(axis=1) & (c2 == 0)))


# --- one valuation call per check, against the per-call formulations --------


def prices_per_call(profile, sigmas, periods):
    """optimal_prices from three valuation calls."""
    sig, t = np.asarray(sigmas, dtype=float), np.asarray(periods, dtype=float)
    own, up = valuation(profile, sig[:-1], t[:-1]), valuation(profile, sig[:-1], t[1:])
    steps = np.stack([own, -up], axis=1)[::-1].ravel()
    return np.cumsum(np.append(valuation(profile, sig[-1], t[-1]), steps))[::2][::-1]


def feasibility_per_call(profile, market, periods, prices):
    """feasibility_check's report from five valuation calls."""
    periods, prices = np.asarray(periods, dtype=float), np.asarray(prices, dtype=float)
    tol, n, sig = FEASIBILITY_TOL, market.n_types, market.sigmas
    if not np.all(np.isfinite(prices)):
        return FeasibilityReport(False, "finite_prices", int(np.argmin(np.isfinite(prices))), float("inf"), tol)
    descent = -np.diff(periods)
    if n > 1 and descent.max() > tol:
        i = int(np.argmax(descent))
        return FeasibilityReport(False, "periods_ascending", i, float(descent[i]), tol)
    gap = prices[-1] - valuation(profile, sig[-1], periods[-1])
    if gap > tol:
        return FeasibilityReport(False, "top_participation", n - 1, float(gap), tol)
    drop_hi = valuation(profile, sig[1:], periods[:-1]) - valuation(profile, sig[1:], periods[1:])
    drop_lo = valuation(profile, sig[:-1], periods[:-1]) - valuation(profile, sig[:-1], periods[1:])
    gap = prices[:-1] - prices[1:]
    floor, ceiling = drop_hi - gap, gap - drop_lo
    bad = (floor > tol) | (ceiling > tol)
    if bad.any():
        i = int(np.argmax(bad))
        if floor[i] > tol:
            return FeasibilityReport(False, "price_floor", i, float(floor[i]), tol)
        return FeasibilityReport(False, "price_ceiling", i, float(ceiling[i]), tol)
    return FeasibilityReport(True, None, None, float(max(floor.max(initial=0.0), ceiling.max(initial=0.0))), tol)


def discrete_baseline_per_call(profile, cost_model, market, periods, coverage):
    """The profit of a discrete market's full-coverage ("full") or
    optimized-cutoff ("optimized") baseline, its price from a second
    valuation call."""
    c = cost(cost_model, periods)
    counts = np.cumsum(market.counts)
    profits = counts[:, None] * (valuation(profile, market.sigmas[:, None], periods) - c)
    j = np.full(periods.size, market.n_types - 1) if coverage == "full" else np.argmax(profits, axis=0)
    sig, served = market.sigmas[j], counts[j]
    price = valuation(profile, sig, periods)
    profit = served * (price - c)
    if coverage == "optimized":
        profit = np.where(~(profit > 0), 0.0, profit)
    return profit


def period_objective_per_call(profile, cost_model, own, below, sigma, sigma_prev, t):
    v = valuation(profile, sigma, t)
    return own * (v - cost(cost_model, t)) + below * (v - valuation(profile, sigma_prev, t))


def feasibility_cases(profile, market, sol, scale):
    """(periods, prices) that pass, and that fail each condition: a NaN
    price, descending periods, the top type priced out, and the first
    price gap widened past its ceiling or narrowed past its floor (the
    chain's gap sits on its ceiling, the wedge above its floor)."""
    t, p = sol.periods, sol.prices
    first, last = np.arange(p.size) == 0, np.arange(p.size) == p.size - 1
    yield t, p
    yield t, np.where(np.arange(p.size) == p.size // 2, np.nan, p)
    yield t, p + np.where(last, scale, 0.0)
    if p.size > 1:
        yield t[::-1].copy(), p
        yield t, p + np.where(first, scale, 0.0)
        sig = market.sigmas
        wedge = (valuation(profile, sig[0], t[0]) - valuation(profile, sig[0], t[1])) - (
            valuation(profile, sig[1], t[0]) - valuation(profile, sig[1], t[1])
        )
        yield t, p - np.where(first, wedge + scale, 0.0)


def assert_merged_calls_match_per_call(profile, cost_model, market, scale=1e-3):
    sol = solve_discrete(profile, cost_model, market)
    assert feasibility_check(profile, market, sol.periods, sol.prices).passed
    sig, periods = market.sigmas, sol.periods
    assert (optimal_prices(profile, sig, periods) == prices_per_call(profile, sig, periods)).all()
    own, below = market.counts, np.concatenate(([0.0], np.cumsum(market.counts)[:-1]))
    rent = sig[np.maximum(np.arange(sig.size) - 1, 0)]
    got = period_objective(profile, cost_model, own, below, sig, rent, periods)
    assert (got == period_objective_per_call(profile, cost_model, own, below, sig, rent, periods)).all()
    conditions = set()
    for t, p in feasibility_cases(profile, market, sol, scale):
        ref = feasibility_per_call(profile, market, t, p)
        assert feasibility_check(profile, market, t, p) == ref
        conditions.add(ref.condition)
    t = np.geomspace(0.05, 50.0, 9)
    for coverage, baseline in (("full", full_coverage_profit), ("optimized", optimized_cutoff_profit)):
        got = baseline(profile, cost_model, market, t)
        assert np.array_equal(got, discrete_baseline_per_call(profile, cost_model, market, t, coverage), equal_nan=True)
    return conditions


@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_merged_valuation_calls_of_bundled_markets(name):
    sc = load_scenario(name)
    conditions = assert_merged_calls_match_per_call(sc.profile, sc.cost_model, sc.market)
    assert conditions == {None, "finite_prices", "top_participation", "periods_ascending", "price_ceiling", "price_floor"}
    expensive = CostModel(c0=12.9, c1=0.5)  # serves only some types at some periods: NaN baseline rows
    assert_merged_calls_match_per_call(sc.profile, expensive, sc.market)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(market=near_duplicate_markets(), scale=st.sampled_from([1e-8, 1e-3, 1.0]))
def test_merged_valuation_calls_of_near_duplicate_markets(profile, cost_model, market, scale):
    assert_merged_calls_match_per_call(profile, cost_model, market, scale)
