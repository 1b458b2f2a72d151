"""Independent verification tools: brute-force IC/IR, grid oracles,
Monte Carlo valuation, baselines, and welfare accounting."""

import csv
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import _quadrature, fixed_quad, quad
from scipy.optimize.elementwise import find_root
from scipy.special import roots_legendre

from planmenu import runner
from planmenu.discrete import (
    DEFAULT_T_DOMAIN,
    FEASIBILITY_TOL,
    block_periods,
    feasibility_check,
    optimal_prices,
    solve_discrete,
)
from planmenu.distributions import DiscreteMarket, make_market
from planmenu.grouped import solve_alternating
from planmenu.market import CostModel, _valuation, cost, valuation, valuation_dt
from planmenu.normals import _excess_table
from planmenu.oracles import (
    _GL_NODES,
    _GL_WEIGHTS,
    _PSI_CHUNK_CELLS,
    IC_SCAN_POINTS,
    TUPLE_BUDGET,
    _first_best_surplus_rates,
    _grid_dp,
    brute_force_ic_ir,
    build_comparison,
    full_coverage_profit,
    grid_oracle_discrete,
    grid_oracle_grouped,
    monte_carlo_valuation,
    optimized_cutoff_profit,
    social_metrics,
    uplift_percent,
)
from planmenu.scenarios import load_scenario

V_2_1 = 12.833369058824628
V_6_1 = 11.474583314205567
V_6_2 = 12.122774823746962
V_61_1 = 11.436810600586934  # V(6.1, 1)


def case1_market():
    return DiscreteMarket(sigmas=np.arange(0.1, 6.2, 0.6), counts=np.ones(11))


@pytest.fixture(scope="module")
def case1(profile, cost_model):
    market = case1_market()
    return market, solve_discrete(profile, cost_model, market)


@pytest.fixture(scope="module")
def uniform_k2(profile, cost_model):
    market = make_market("uniform", 0.0, 6.0)
    return market, solve_alternating(profile, cost_model, market, 2)


# --- brute-force IC/IR certificate ---------------------------------------

def test_certificate_passes_on_discrete_solution(profile, case1):
    market, sol = case1
    cert = brute_force_ic_ir(profile, market, sol.periods, sol.prices)
    assert cert.passed
    assert cert.worst_ic_violation <= 1e-9
    assert cert.worst_ir_violation <= 1e-9
    assert cert.n_consumers_checked == market.n_types


def test_certificate_passes_on_grouped_solution(profile, uniform_k2):
    market, sol = uniform_k2
    cert = brute_force_ic_ir(
        profile, market, sol.periods, sol.prices, boundaries=sol.boundaries
    )
    assert cert.passed
    assert cert.worst_ic_violation <= 1e-9
    assert cert.worst_ir_violation <= 1e-9
    assert cert.n_consumers_checked >= 500


def test_certificate_flags_ic_violation(profile, case1):
    market, sol = case1
    bad = sol.prices.copy()
    bad[0] += 0.01  # item 0 overpriced: type 0 defects one item up
    cert = brute_force_ic_ir(profile, market, sol.periods, bad)
    assert not cert.passed
    assert abs(cert.worst_ic_violation - 0.01) < 1e-9
    sig, chosen, assigned = cert.violating_pair
    assert abs(sig - market.sigmas[0]) < 1e-12
    assert (chosen, assigned) == (1, 0)


def test_certificate_names_pair_only_beyond_tolerance():
    # the solved menu leaves rounding-level temptations along its binding
    # chain; they name no pair, so the certificate does not follow last bits
    sc = load_scenario("case1_discrete")
    sol = solve_discrete(sc.profile, sc.cost_model, sc.market)
    cert = brute_force_ic_ir(sc.profile, sc.market, sol.periods, sol.prices)
    assert cert.passed and cert.violating_pair is None
    # a price cut of 1e-6 tempts the type just below, which is indifferent
    # between its own item and the cut one
    cut = sol.prices.copy()
    cut[5] -= 1e-6
    cert = brute_force_ic_ir(sc.profile, sc.market, sol.periods, cut)
    assert not cert.passed
    assert abs(cert.worst_ic_violation - 1e-6) <= 1e-9
    assert cert.violating_pair == (float(sc.market.sigmas[4]), 5, 4)


def test_certificate_flags_ir_violation(profile, case1):
    market, sol = case1
    bad = sol.prices + 0.01  # uniform price shift: temptations unchanged
    cert = brute_force_ic_ir(profile, market, sol.periods, bad)
    assert not cert.passed
    assert abs(cert.worst_ir_violation - 0.01) < 1e-9
    assert cert.worst_ic_violation <= 1e-9


def test_certificate_flags_tempted_outsider(profile, cost_model):
    # price the single item at an interior type's valuation: every type
    # between the boundary and that type is unserved yet strictly tempted
    market = make_market("uniform", 0.0, 6.0)
    price = valuation(profile, 4.5, 1.0)
    cert = brute_force_ic_ir(
        profile, market, [1.0], [price], boundaries=[3.0]
    )
    assert not cert.passed
    sig, chosen, assigned = cert.violating_pair
    assert assigned == -1  # an opt-out consumer is the worst offender
    assert chosen == 0
    assert 3.0 < sig < 4.5
    # the reported magnitude is that consumer's forgone utility, and it
    # approaches the supremum at the boundary up to the sample spacing
    assert abs(cert.worst_ic_violation - (valuation(profile, sig, 1.0) - price)) < 1e-12
    assert abs(cert.worst_ic_violation - (valuation(profile, 3.0, 1.0) - price)) < 0.01


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_certificate_fails_non_finite_prices(profile, case1, uniform_k2, bad):
    # NaN fails every comparison, so without an explicit check a NaN price
    # vector read as a clean pass
    market, sol = case1
    for prices in (np.full_like(sol.prices, bad), np.where(np.arange(sol.prices.size) == 3, bad, sol.prices)):
        cert = brute_force_ic_ir(profile, market, sol.periods, prices)
        assert not cert.passed
        assert cert.worst_ic_violation == np.inf and cert.worst_ir_violation == np.inf
    market, sol = uniform_k2
    cert = brute_force_ic_ir(profile, market, sol.periods, np.full_like(sol.prices, bad), boundaries=sol.boundaries)
    assert not cert.passed and cert.worst_ic_violation == np.inf


def test_certificate_requires_boundaries_for_continuum(profile):
    market = make_market("uniform", 0.0, 6.0)
    with pytest.raises(ValueError):
        brute_force_ic_ir(profile, market, [1.0], [11.0])


def ic_ir_by_loop(profile, market, periods, prices, boundaries=None):
    """brute_force_ic_ir's certificate numbers, one consumer at a time:
    (worst IC violation, worst IR violation, violating pair, consumers)."""
    t = np.asarray(periods, dtype=float)
    p = np.asarray(prices, dtype=float)
    if isinstance(market, DiscreteMarket):
        sigmas = market.sigmas
        assigned = np.arange(market.n_types)
    else:
        b = np.asarray(boundaries, dtype=float)
        sigmas = np.unique(np.concatenate([np.linspace(market.sigma_min, market.sigma_max, IC_SCAN_POINTS), b]))
        assigned = np.searchsorted(b, sigmas, side="left")
    utilities = np.empty((sigmas.size, t.size))
    for j in range(t.size):
        utilities[:, j] = valuation(profile, sigmas, t[j]) - p[j]
    worst_ic = worst_ir = 0.0
    pair = None
    for u, sig, k in zip(utilities, sigmas, assigned):
        if k >= t.size:  # unserved: opting out must be best
            j = int(np.argmax(u))
            if u[j] > worst_ic:
                worst_ic, pair = float(u[j]), (float(sig), j, -1)
            continue
        if t.size > 1:
            masked = np.where(np.arange(t.size) == k, -np.inf, u)
            j = int(np.argmax(masked))
            if masked[j] - u[k] > worst_ic:
                worst_ic, pair = float(masked[j] - u[k]), (float(sig), j, int(k))
        worst_ir = max(worst_ir, float(-u[k]))
    if worst_ic <= FEASIBILITY_TOL:  # rounding-level temptations name no pair
        pair = None
    return worst_ic, worst_ir, pair, int(sigmas.size)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certificate_matches_per_consumer_loop(profile, data):
    # ascending periods at chain prices (binding ties) or priced near the
    # sigma=3 valuation (violations); discrete markets and exponential continua
    n = data.draw(st.integers(1, 6))
    periods = np.sort(data.draw(st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n)))
    sigmas = np.sort(data.draw(st.lists(st.floats(0.05, 6.0), min_size=n, max_size=n, unique=True)))
    if data.draw(st.booleans()):
        prices = optimal_prices(profile, sigmas, periods)
    else:
        shifts = data.draw(st.lists(st.floats(-1.5, 0.5), min_size=n, max_size=n))
        prices = valuation(profile, 3.0, periods) + np.array(shifts)
    if data.draw(st.booleans()):
        market, boundaries = DiscreteMarket(sigmas=sigmas, counts=np.ones(n)), None
    else:
        market, boundaries = make_market("exponential", 0.0, 6.0, rate=0.3), sigmas
    cert = brute_force_ic_ir(profile, market, periods, prices, boundaries=boundaries)
    ref = ic_ir_by_loop(profile, market, periods, prices, boundaries)
    assert (cert.worst_ic_violation, cert.worst_ir_violation, cert.violating_pair, cert.n_consumers_checked) == ref


def realized_profit(profile, cost_model, market, periods, prices):
    """Profit when every type freely picks its utility-maximizing item
    (or walks away): checks that no price perturbation beats the
    telescoping chain."""
    t = np.asarray(periods, dtype=float)
    p = np.asarray(prices, dtype=float)
    total = 0.0
    for sig, n in zip(market.sigmas, market.counts):
        u = valuation(profile, sig, t) - p
        j = int(np.argmax(u))
        if u[j] >= 0.0:
            total += n * (p[j] - cost(cost_model, t[j]))
    return total


def test_realized_profit_hand_example(profile, cost_model):
    market = DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, 1.0])
    # both types prefer the cheap item; the dear one sells nothing
    total = realized_profit(profile, cost_model, market, [1.0, 1.0], [12.0, 12.9])
    assert abs(total - 2.0 * (12.0 - 10.5)) < 1e-12
    # price above every valuation: nobody buys
    total = realized_profit(profile, cost_model, market, [1.0], [13.5])
    assert total == 0.0


def test_realized_profit_matches_chain_at_solution(profile, cost_model, case1):
    # at the optimum every type is exactly indifferent to the next item,
    # so free choice is only pinned down after an epsilon price sweetener
    # on the lower items; with it, realized profit reproduces the chain
    market, sol = case1
    n = market.n_types
    eps = 1e-9
    sweetened = sol.prices - eps * np.arange(n, 0, -1)
    total = realized_profit(profile, cost_model, market, sol.periods, sweetened)
    assert abs(total - sol.total_profit) < 1e-6
    # raw ties break upward and can only hand the provider less
    raw = realized_profit(profile, cost_model, market, sol.periods, sol.prices)
    assert raw <= sol.total_profit + 1e-9


# --- exhaustive grid oracles ----------------------------------------------

def test_grid_oracle_single_type_is_best_grid_point(profile, cost_model):
    market = DiscreteMarket(sigmas=[2.0], counts=[3.0])
    grid = np.arange(0.5, 10.0, 0.01)
    best, periods = grid_oracle_discrete(profile, cost_model, market, grid)
    scan = 3.0 * (valuation(profile, 2.0, grid) - cost(cost_model, grid))
    assert best == float(scan.max())
    assert periods[0] == grid[np.argmax(scan)]


def enumerate_discrete(profile, cost_model, market, grid):
    """Literal enumeration: every ascending period tuple on the grid,
    priced by the telescoping chain down from the top type's valuation,
    count-weighted margins summed."""
    V = [valuation(profile, sig, grid) for sig in market.sigmas]
    C = cost(cost_model, grid)
    N = market.counts
    top = market.n_types - 1
    best = -np.inf
    for js in itertools.combinations_with_replacement(range(grid.size), market.n_types):
        price = V[top][js[top]]
        prof = N[top] * (price - C[js[top]])
        for i in range(top - 1, -1, -1):
            price += V[i][js[i]] - V[i][js[i + 1]]
            prof += N[i] * (price - C[js[i]])
        best = max(best, prof)
    return best


def chain_profit(profile, cost_model, market, periods):
    prices = optimal_prices(profile, market.sigmas, periods)
    return float(np.dot(market.counts, prices - cost(cost_model, periods)))


ENUMERATION_MARKETS = {
    1: DiscreteMarket(sigmas=[2.5], counts=[1.5]),
    2: DiscreteMarket(sigmas=[1.0, 3.0], counts=[2.0, 1.0]),
    3: DiscreteMarket(sigmas=[0.8, 2.2, 4.0], counts=[1.0, 3.0, 0.5]),
}


@pytest.mark.parametrize("n_types", [1, 2, 3])
def test_grid_oracle_matches_enumeration(profile, cost_model, n_types):
    market = ENUMERATION_MARKETS[n_types]
    grid = np.linspace(0.3, 12.0, 40)
    best, periods = grid_oracle_discrete(profile, cost_model, market, grid)
    assert abs(best - enumerate_discrete(profile, cost_model, market, grid)) < 1e-12
    # the reported periods ascend, sit on the grid and reproduce the profit
    assert periods.shape == (n_types,)
    assert np.all(np.diff(periods) >= 0)
    assert np.all(np.isin(periods, grid))
    assert abs(chain_profit(profile, cost_model, market, periods) - best) < 1e-12


@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_grid_oracle_trails_solver_on_eleven_types(name):
    sc = load_scenario(name)
    assert sc.market.n_types == 11
    sol = solve_discrete(sc.profile, sc.cost_model, sc.market)
    best, periods = grid_oracle_discrete(sc.profile, sc.cost_model, sc.market, np.arange(1, 601) * 0.05)
    assert sol.total_profit >= best - 1e-9
    assert sol.total_profit - best < 0.01 * sol.total_profit
    assert np.all(np.diff(periods) >= 0)
    assert abs(chain_profit(sc.profile, sc.cost_model, sc.market, periods) - best) < 1e-9


def test_grid_oracle_three_types_agrees_with_solver(profile, cost_model):
    market = DiscreteMarket(sigmas=[0.8, 2.2, 4.0], counts=[1.0, 1.0, 1.0])
    sol = solve_discrete(profile, cost_model, market)
    grid = np.arange(0.05, 30.0, 0.05)
    best, periods = grid_oracle_discrete(profile, cost_model, market, grid)
    assert sol.total_profit >= best - 1e-9
    assert sol.total_profit - best < 5e-3
    assert np.max(np.abs(periods - sol.periods)) <= 0.05 + 1e-12


def test_grid_oracle_pools_near_identical_types(profile, cost_model):
    market = DiscreteMarket(sigmas=[2.0, 2.0001], counts=[1.0, 1.0])
    grid = np.arange(0.5, 15.0, 0.05)
    _, periods = grid_oracle_discrete(profile, cost_model, market, grid)
    assert periods[0] == periods[1]


def test_grid_oracle_refuses_oversized_work(profile, cost_model):
    # 10_001 types x 10_001 periods just exceeds the budget; the check
    # comes before any table is built
    n = 10_001
    assert n * n > TUPLE_BUDGET
    many = DiscreteMarket(sigmas=np.linspace(0.1, 6.0, n), counts=np.ones(n))
    with pytest.raises(ValueError, match="work budget"):
        grid_oracle_discrete(profile, cost_model, many, np.linspace(0.1, 30, n))
    market = DiscreteMarket(sigmas=[1.0, 2.0, 3.0, 4.0], counts=np.ones(4))
    with pytest.raises(ValueError, match="strictly ascending"):
        grid_oracle_discrete(profile, cost_model, market, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="at least one stage and nonempty grids"):
        grid_oracle_discrete(profile, cost_model, market, [])
    # no cap on the number of types: five fit once the work does
    five = DiscreteMarket(sigmas=np.arange(1.0, 6.0), counts=np.ones(5))
    grid = np.linspace(0.1, 30, 10)
    best, periods = grid_oracle_discrete(profile, cost_model, five, grid)
    assert abs(best - enumerate_discrete(profile, cost_model, five, grid)) < 1e-12
    assert periods.shape == (5,)


def random_markets(max_types):
    """Discrete markets of 1..max_types types with distinct volatilities."""
    return st.integers(1, max_types).flatmap(
        lambda n: st.builds(
            lambda sigmas, counts: DiscreteMarket(sigmas=np.sort(sigmas), counts=counts),
            st.lists(st.floats(0.1, 6.0), min_size=n, max_size=n, unique=True),
            st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n),
        )
    )


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(market=random_markets(3))
def test_grid_oracle_property_matches_enumeration(profile, cost_model, market):
    grid = np.linspace(0.3, 15.0, 12)
    best, _ = grid_oracle_discrete(profile, cost_model, market, grid)
    assert abs(best - enumerate_discrete(profile, cost_model, market, grid)) < 1e-12


@PROPERTY_SETTINGS
@given(market=random_markets(12))
def test_grid_oracle_property_never_beats_solver(profile, cost_model, market):
    sol = solve_discrete(profile, cost_model, market)
    assert feasibility_check(profile, market, sol.periods, sol.prices).passed
    best, _ = grid_oracle_discrete(profile, cost_model, market, np.arange(1, 121) * 0.25)
    assert best <= sol.total_profit + 1e-9


def grouped_chain_profit(profile, cost_model, market, boundaries, periods):
    """Direct profit of a grouped menu: group masses, N times the CDF
    differences, times per-item margins at chain prices."""
    prices = optimal_prices(profile, boundaries, periods)
    masses = market.size * np.diff(market.cdf(np.concatenate(([market.sigma_min], boundaries))))
    return float(np.dot(masses, prices - cost(cost_model, np.asarray(periods, dtype=float))))


# the exponential market's mass N*G(s) is neither linear in s nor of size 1
GRID_UNIFORM = make_market("uniform", 0.0, 6.0)
GRID_EXPONENTIAL = make_market("exponential", 0.0, 6.0, size=2.5, rate=0.4)


@pytest.mark.parametrize(
    "n_groups, market",
    [
        pytest.param(2, GRID_UNIFORM, id="2"),
        pytest.param(3, GRID_UNIFORM, id="3"),
        pytest.param(2, GRID_EXPONENTIAL, id="2-exponential"),
        pytest.param(3, GRID_EXPONENTIAL, id="3-exponential"),
    ],
)
def test_grouped_grid_oracle_matches_literal_enumeration(profile, cost_model, n_groups, market):
    sigma_grid = np.linspace(0.5, 6.0, 7)
    t_grid = np.linspace(0.5, 12.0, 6)
    best, bnd, per = grid_oracle_grouped(
        profile, cost_model, market, n_groups, sigma_grid, t_grid
    )
    ref = -np.inf
    for bs in itertools.combinations_with_replacement(sigma_grid, n_groups):
        for ts in itertools.combinations_with_replacement(t_grid, n_groups):
            prof = grouped_chain_profit(profile, cost_model, market, list(bs), list(ts))
            ref = max(ref, prof)
    assert abs(best - ref) < 1e-12
    # the reported configuration reproduces the reported profit
    again = grouped_chain_profit(profile, cost_model, market, bnd, per)
    assert abs(again - best) < 1e-9
    assert np.all(np.diff(bnd) >= 0) and np.all(np.diff(per) >= 0)


@pytest.mark.parametrize("n_groups", [3, 8])
def test_grouped_grid_oracle_ties_take_latest_index(profile, cost_model, n_groups):
    # sigma = 0 carries no mass, so its row of psi is all zeros and ties
    # every period; a group beyond the two that pay ties with that row and
    # with repeating its upper neighbour, and the DP keeps the latest index:
    # the repeat, never (0, t_grid[0])
    market = make_market("exponential", 0.0, 6.0, rate=0.5)
    sigma_grid, t_grid = np.linspace(0.0, 6.0, 4), np.arange(1.0, 4.5)
    two, _, _ = grid_oracle_grouped(profile, cost_model, market, 2, sigma_grid, t_grid)
    best, bnd, per = grid_oracle_grouped(profile, cost_model, market, n_groups, sigma_grid, t_grid)
    assert best == two
    assert bnd.tolist() == [2.0] + [4.0] * (n_groups - 1)
    assert per.tolist() == [1.0] + [2.0] * (n_groups - 1)


def test_grouped_grid_oracle_validation(profile, cost_model):
    market = make_market("uniform", 0.0, 6.0)
    assert 3 * 6000 * 6000 > TUPLE_BUDGET
    with pytest.raises(ValueError, match="work budget"):
        grid_oracle_grouped(
            profile, cost_model, market, 3, np.linspace(0.1, 6, 6000), np.linspace(0.1, 30, 6000)
        )
    with pytest.raises(ValueError, match="strictly ascending"):
        grid_oracle_grouped(
            profile, cost_model, market, 2, np.array([1.0, 1.0]), np.array([1.0, 2.0])
        )
    # an empty grid: one error, even where the work product is 0
    sigma_grid, t_grid = np.linspace(0.5, 6.0, 4), np.linspace(0.5, 12.0, 3)
    for sg, tg in [([], t_grid), (sigma_grid, [])]:
        with pytest.raises(ValueError, match="at least one stage and nonempty grids"):
            grid_oracle_grouped(profile, cost_model, market, 2, sg, tg)
    # a group count that is not a whole number >= 1 is named, as the solvers name it
    for n_groups in [2.5, 2.0, True, 0, -1]:
        with pytest.raises(ValueError, match="n_groups must be an integer >= 1"):
            grid_oracle_grouped(profile, cost_model, market, n_groups, sigma_grid, t_grid)


def reference_grid_dp(profile, cost_model, sigmas, mass, n_stages, t):
    """The grid DP as the recursion D_k = psi_k + cummax_s(cummax_t D_{k-1}
    - psi_{k-1}), each stage a fresh array and psi valued in one call
    (by the table kernel, as the oracles value it), with the backtrack
    that takes the latest index on ties."""
    psi = mass[:, :, None] * (_valuation(profile, sigmas[:, :, None], t, _excess_table) - cost(cost_model, t))
    psi = np.broadcast_to(psi, (n_stages,) + psi.shape[1:])
    D = [psi[0]]
    for k in range(1, n_stages):
        D.append(psi[k] + np.maximum.accumulate(np.maximum.accumulate(D[-1], axis=1) - psi[k - 1], axis=0))
    s, j = map(int, np.unravel_index(int(np.argmax(D[-1])), D[-1].shape))
    profit, s_idx, j_idx = float(D[-1][s, j]), [s], [j]
    for k in range(n_stages - 1, 0, -1):
        s -= int(np.argmax((D[k - 1][: s + 1, : j + 1].max(axis=1) - psi[k - 1][: s + 1, j])[::-1]))
        j -= int(np.argmax(D[k - 1][s, : j + 1][::-1]))
        s_idx.insert(0, s)
        j_idx.insert(0, j)
    return profit, np.broadcast_to(sigmas, (n_stages, sigmas.shape[1]))[np.arange(n_stages), s_idx], t[j_idx]


ORACLE_STEP = 0.05
ORACLE_T_GRID = np.arange(1, 601) * ORACLE_STEP
# more types than one chunk of psi holds on ORACLE_T_GRID: 200 rows span eight
MANY_TYPES = DiscreteMarket(sigmas=np.linspace(0.2, 6.0, 200), counts=np.linspace(0.5, 3.0, 200))


def bundled_sigma_grid(market):
    return np.linspace(market.sigma_min, market.sigma_max, int(round((market.sigma_max - market.sigma_min) / ORACLE_STEP)) + 1)


def assert_discrete_oracle_is_reference(profile, cost_model, market, t_grid):
    best, periods = grid_oracle_discrete(profile, cost_model, market, t_grid)
    ref = reference_grid_dp(profile, cost_model, market.sigmas[:, None], np.cumsum(market.counts)[:, None], market.n_types, t_grid)
    assert best.hex() == ref[0].hex()  # == cannot tell -0.0 from 0.0
    assert periods.tolist() == ref[2].tolist()


def dp_row_blocks(n_rows, n_periods):
    """How many blocks of rows _grid_dp sweeps a shared row of n_rows
    types in, over n_periods periods."""
    return -(-n_rows // max(1, _PSI_CHUNK_CELLS // n_periods))


def assert_grouped_oracle_is_reference(profile, cost_model, market, n_groups, sigma_grid, t_grid):
    # the oracle may cut its periods; _grid_dp, handed the full grid, sweeps
    # it in the blocks of rows the full grid takes
    mass = market.cdf(sigma_grid[None, :]) * market.size
    ref = reference_grid_dp(profile, cost_model, sigma_grid[None, :], mass, n_groups, t_grid)
    for got in (
        grid_oracle_grouped(profile, cost_model, market, n_groups, sigma_grid, t_grid),
        _grid_dp(profile, cost_model, sigma_grid[None, :], mass, n_groups, t_grid),
    ):
        assert got[0].hex() == ref[0].hex()
        assert [x.tolist() for x in got[1:]] == [x.tolist() for x in ref[1:]]


@pytest.mark.parametrize("n_groups", [1, 2, 6])
@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6"])
def test_grouped_grid_oracle_is_reference_dp_bit_for_bit(name, n_groups):
    sc = load_scenario(name)
    assert_grouped_oracle_is_reference(sc.profile, sc.cost_model, sc.market, n_groups, bundled_sigma_grid(sc.market), ORACLE_T_GRID)


@pytest.mark.parametrize("name", ["case1_discrete", "case2_mountain"])
def test_discrete_grid_oracle_is_reference_dp_bit_for_bit(name):
    sc = load_scenario(name)
    assert_discrete_oracle_is_reference(sc.profile, sc.cost_model, sc.market, ORACLE_T_GRID)


def test_discrete_grid_oracle_over_many_chunks_is_reference_dp_bit_for_bit(profile, cost_model):
    assert_discrete_oracle_is_reference(profile, cost_model, MANY_TYPES, ORACLE_T_GRID)


@PROPERTY_SETTINGS
@given(market=random_markets(12))
def test_grid_oracle_property_is_reference_dp_bit_for_bit(profile, cost_model, market):
    assert_discrete_oracle_is_reference(profile, cost_model, market, np.arange(1, 121) * 0.25)


@pytest.mark.parametrize("c1", [0.5, 0.0])
def test_tie_heavy_grids_are_reference_dp_bit_for_bit(profile, c1):
    # sigma = 0 values V at alpha*mu for every period, and a zero-mass row
    # values psi at 0 for every period, so running maxima tie across whole
    # rows (with no cost slope, the flat row's every cell ties); the
    # backtrack must still take the reference's latest index, over a
    # sigma grid that spans three blocks of rows on the full period grid
    # (the oracle cuts it at c1 = 0.5, to one block)
    cost_model = CostModel(c0=10.0, c1=c1)
    flat_lowest = DiscreteMarket(sigmas=[0.0, 0.0001, 1.5, 1.5001, 4.0], counts=[2.0, 1.0, 1.0, 0.5, 1.0])
    assert_discrete_oracle_is_reference(profile, cost_model, flat_lowest, ORACLE_T_GRID)
    market = make_market("exponential", 0.0, 6.0, rate=0.5)
    sigma_grid = np.linspace(0.0, 6.0, 61)
    assert market.cdf(sigma_grid[0]) == 0.0 and dp_row_blocks(sigma_grid.size, ORACLE_T_GRID.size) == 3
    for n_groups in (1, 2, 3, 8):
        assert_grouped_oracle_is_reference(profile, cost_model, market, n_groups, sigma_grid, ORACLE_T_GRID)


def test_unprofitable_grid_ties_its_zero_across_blocks(profile):
    # c0 above alpha*mu: no cell earns, and the 34 rows below sigma = 1.65,
    # where G underflows to 0, value psi at -0.0; on the full period grid
    # the optimum ties across _grid_dp's first two blocks of rows and is
    # the first of them, with its sign.  The oracle cuts the grid to its
    # first period, one block, and finds the same menu
    market = make_market("truncated_normal", 0.0, 6.0, loc=5.5, scale=0.1)
    sigma_grid = bundled_sigma_grid(market)
    mass = market.cdf(sigma_grid[None, :]) * market.size
    assert np.count_nonzero(mass == 0.0) > _PSI_CHUNK_CELLS // ORACLE_T_GRID.size
    no_profit = CostModel(c0=20.0, c1=0.5)
    for n_groups in (1, 2, 3):
        assert_grouped_oracle_is_reference(profile, no_profit, market, n_groups, sigma_grid, ORACLE_T_GRID)
    for best, bnd, per in (
        grid_oracle_grouped(profile, no_profit, market, 1, sigma_grid, ORACLE_T_GRID),
        _grid_dp(profile, no_profit, sigma_grid[None, :], mass, 1, ORACLE_T_GRID),
    ):
        assert best.hex() == "-0x0.0p+0"
        assert (bnd.tolist(), per.tolist()) == ([0.0], [ORACLE_T_GRID[0]])


@st.composite
def period_cut_cases(draw):
    """A grouped oracle on small grids: a market of each family, a sigma
    grid from sigma_min (zero mass, so the oracle cuts its periods) or from
    above it (no cut), and a linear cost whose C(t) crosses alpha*mu = 13
    inside the period grid [0.25, 12], stays below it (c1 = 0, no cut) or
    lies above it at every period (c0 > 13, every menu loses money)."""
    kind = draw(st.sampled_from(["uniform", "exponential", "truncated_normal"]))
    params = {"exponential": {"rate": 0.5}, "truncated_normal": {"loc": 3.0, "scale": 1.5}}.get(kind, {})
    market = make_market(kind, 0.0, 6.0, size=draw(st.floats(0.5, 3.0)), **params)
    sigma_grid = np.linspace(draw(st.sampled_from([0.0, 0.3, 1.0])), 6.0, draw(st.integers(3, 9)))
    t_grid = np.linspace(0.25, 12.0, draw(st.integers(3, 12)))
    shape = draw(st.sampled_from(["crossing", "below", "losing"]))
    if shape == "crossing":
        c0 = draw(st.floats(5.0, 12.5))
        c1 = draw(st.floats((13.0 - c0) / 11.0, 2.0))  # C(12) > 13
    else:
        c0, c1 = draw(st.floats(5.0, 12.9) if shape == "below" else st.floats(13.5, 15.0)), 0.0
    return market, CostModel(c0=c0, c1=c1), draw(st.integers(1, 3)), sigma_grid, t_grid


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=period_cut_cases())
# every period costs more than alpha*mu and the sigma grid starts above
# sigma_min, so every menu loses money: the least loss has the longest period
@example(case=(GRID_UNIFORM, CostModel(c0=14.0, c1=0.0), 2, np.linspace(1.0, 6.0, 6), np.linspace(0.25, 12.0, 8)))
# C(t) lies between 0.9 * alpha*mu and alpha*mu at every period: no period is cut
@example(case=(GRID_EXPONENTIAL, CostModel(c0=12.0, c1=0.05), 2, np.linspace(0.0, 6.0, 7), np.linspace(0.25, 12.0, 8)))
def test_grouped_oracle_period_cut_keeps_the_full_grid_optimum(profile, case):
    market, cost_model, n_groups, sigma_grid, t_grid = case
    best, bnd, per = grid_oracle_grouped(profile, cost_model, market, n_groups, sigma_grid, t_grid)
    mass = market.cdf(sigma_grid[None, :]) * market.size
    ref = reference_grid_dp(profile, cost_model, sigma_grid[None, :], mass, n_groups, t_grid)
    assert abs(best - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
    assert abs(grouped_chain_profit(profile, cost_model, market, bnd, per) - best) <= 1e-9
    if ref[0] > 0 and np.all(cost(cost_model, ref[2]) < profile.alpha * profile.mu):
        assert best.hex() == ref[0].hex()
        assert (bnd.tolist(), per.tolist()) == (ref[1].tolist(), ref[2].tolist())


def traced_peak_bytes(oracle, *args):
    oracle(*args)  # a first call, so lazily built state is not counted
    tracemalloc.start()
    try:
        oracle(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dp_footprint_bytes(n_stages, n_types, n_periods, blocks_share_a_row=True):
    """What the grid DP may hold at once: ten chunk-sized arrays for the
    valuation's temporaries, two blocks' psi and the two work tables with
    their flags, then per stage after the first two packed bits per cell
    and, where the blocks split one shared row, one running-max row."""
    bits = 2 * n_types * -(-n_periods // 8)
    return 10 * _PSI_CHUNK_CELLS * 8 + (n_stages - 1) * (bits + 8 * n_periods * blocks_share_a_row)


@pytest.mark.parametrize("n_groups", [1, 2, 6, 24])
def test_grouped_grid_oracle_memory_is_its_tables(n_groups):
    # no stage keeps a float table: one float table per stage would take
    # 8 bytes per cell and stage, 32 times the bits, and at K = 24 more than
    # seven times the bound for _grid_dp on the full 121 x 600 grid.  The
    # oracle searches the 119 periods before its cost cut and is held to
    # the bound for that grid, which such tables would exceed more than
    # 1.8 times
    sc = load_scenario("uniform_k6")
    sg = bundled_sigma_grid(sc.market)
    mass = sc.market.cdf(sg[None, :]) * sc.market.size
    peak = traced_peak_bytes(_grid_dp, sc.profile, sc.cost_model, sg[None, :], mass, n_groups, ORACLE_T_GRID)
    assert peak <= dp_footprint_bytes(n_groups, sg.size, ORACLE_T_GRID.size)
    searched = np.count_nonzero(cost(sc.cost_model, ORACLE_T_GRID) < sc.profile.alpha * sc.profile.mu)
    assert searched == 119
    peak = traced_peak_bytes(grid_oracle_grouped, sc.profile, sc.cost_model, sc.market, n_groups, sg, ORACLE_T_GRID)
    assert peak <= dp_footprint_bytes(n_groups, sg.size, searched)


def test_discrete_grid_oracle_memory_is_its_tables(profile, cost_model):
    # the types' psi rows are valued a chunk at a time, and one stage's row
    # is one block: no psi row or stage table per type is kept
    peak = traced_peak_bytes(grid_oracle_discrete, profile, cost_model, MANY_TYPES, ORACLE_T_GRID)
    assert peak <= dp_footprint_bytes(MANY_TYPES.n_types, 1, ORACLE_T_GRID.size, blocks_share_a_row=False)


# --- Monte Carlo cross-check ------------------------------------------------

def test_monte_carlo_deterministic_type_is_exact(profile):
    est, se = monte_carlo_valuation(profile, 0.0, 1.0, n_samples=1000, seed=4)
    assert est == 13.0
    assert se == 0.0


def test_monte_carlo_hits_quadrature_value(profile):
    est, se = monte_carlo_valuation(profile, 2.0, 1.0, n_samples=200_000, seed=1)
    assert se > 0
    assert abs(est - V_2_1) <= 3.0 * se


def test_monte_carlo_scaling_pair(profile):
    # (2, 1) and (4, 4) share the same true valuation
    e1, s1 = monte_carlo_valuation(profile, 2.0, 1.0, n_samples=100_000, seed=2)
    e2, s2 = monte_carlo_valuation(profile, 4.0, 4.0, n_samples=100_000, seed=3)
    assert abs(e1 - e2) <= 3.0 * np.hypot(s1, s2)


def test_monte_carlo_seed_reproducible(profile):
    a = monte_carlo_valuation(profile, 1.5, 2.0, n_samples=50_000, seed=9)
    b = monte_carlo_valuation(profile, 1.5, 2.0, n_samples=50_000, seed=9)
    assert a == b
    c = monte_carlo_valuation(profile, 1.5, 2.0, n_samples=50_000, seed=10)
    assert c != a


def test_monte_carlo_pooled_seeds(profile):
    ests, ses = zip(*(
        monte_carlo_valuation(profile, 3.0, 2.0, n_samples=100_000, seed=s)
        for s in range(50)
    ))
    pooled = float(np.mean(ests))
    pooled_se = float(np.mean(ses)) / np.sqrt(50)
    truth = valuation(profile, 3.0, 2.0)
    assert abs(pooled - truth) <= 3.0 * pooled_se


def test_monte_carlo_validation(profile):
    with pytest.raises(ValueError):
        monte_carlo_valuation(profile, -1.0, 1.0)
    with pytest.raises(ValueError):
        monte_carlo_valuation(profile, 1.0, 0.0)


# --- baselines ---------------------------------------------------------------

def test_full_coverage_baseline_continuous(profile, cost_model):
    market = make_market("uniform", 0.0, 6.0)
    base = full_coverage_profit(profile, cost_model, market, 1.0)
    assert abs(base - (V_6_1 - 10.5)) < 1e-12
    base2 = full_coverage_profit(profile, cost_model, market, 2.0)
    assert abs(base2 - (V_6_2 - 11.0)) < 1e-12


def test_optimized_baseline_matches_scan(profile, cost_model):
    market = make_market("uniform", 0.0, 6.0)
    base = optimized_cutoff_profit(profile, cost_model, market, 1.0)
    sig = np.arange(1e-3, 6.0, 1e-3)
    scan = market.cdf(sig) * (valuation(profile, sig, 1.0) - cost(cost_model, 1.0))
    assert base >= float(scan.max()) - 1e-9
    assert base - float(scan.max()) < 1e-6


def test_discrete_baselines(profile, cost_model, case1):
    market, _ = case1
    full = full_coverage_profit(profile, cost_model, market, 1.0)
    assert abs(full - 11.0 * (V_61_1 - 10.5)) < 1e-12

    opt = optimized_cutoff_profit(profile, cost_model, market, 1.0)
    margins = valuation(profile, market.sigmas, 1.0) - 10.5
    profits = np.cumsum(market.counts) * margins
    assert opt == float(profits.max())
    assert opt >= full


def test_baseline_rejects_bad_period(profile, cost_model):
    baselines = (full_coverage_profit, optimized_cutoff_profit)
    for market, baseline in itertools.product((make_market("uniform", 0.0, 6.0), case1_market()), baselines):
        for bad in (0.0, -1.0, np.array([1.0, 0.0]), np.array([-1.0, 2.0])):
            with pytest.raises(ValueError):
                baseline(profile, cost_model, market, bad)


@pytest.mark.parametrize("baseline", [full_coverage_profit, optimized_cutoff_profit], ids=["full", "optimized"])
@pytest.mark.parametrize(
    "name", ["case1_discrete", "case2_mountain", "uniform_k6", "exponential_k6", "truncated_normal_k6"]
)
def test_baseline_over_array_of_periods_is_each_period_bit_for_bit(name, baseline):
    # one call over every period does each period's arithmetic alone; a
    # scalar call returns a Python float
    sc = load_scenario(name)
    periods = (0.5, 1.0, 2.0, 3.0)
    batch = baseline(sc.profile, sc.cost_model, sc.market, np.array(periods))
    for i, t in enumerate(periods):
        one = baseline(sc.profile, sc.cost_model, sc.market, t)
        assert type(one) is float
        assert batch[i] == one


@pytest.mark.parametrize("name", ["case1_discrete", "uniform_k6"])
def test_optimized_baseline_serves_no_one_when_every_cutoff_loses(name, tmp_path):
    # at c0 = 100 every served prefix loses money: the provider serves no
    # one and earns +0, never a loss or -0, and comparison.csv writes 0
    sc = load_scenario(name)
    sc = dataclasses.replace(
        sc,
        cost_model=dataclasses.replace(sc.cost_model, c0=100.0),
        solver=sc.solver and dataclasses.replace(sc.solver, n_groups=1, restarts=0),  # None for a discrete market
    )
    for t in sc.baselines:
        base = optimized_cutoff_profit(sc.profile, sc.cost_model, sc.market, t)
        assert base == 0.0 and math.copysign(1.0, base) == 1.0
    with open(runner.run(sc, tmp_path).paths["comparison"], newline="") as fh:
        rows = {r["label"]: r for r in csv.DictReader(fh)}
    for t in sc.baselines:
        assert rows[f"fixed_t={t:g}_optimized_cutoff"]["profit"] == "0"


# --- welfare -------------------------------------------------------------------

def test_social_ratio_is_one_for_single_type(profile, cost_model):
    market = DiscreteMarket(sigmas=[2.0], counts=[1.0])
    sol = solve_discrete(profile, cost_model, market)
    rep = social_metrics(profile, cost_model, market, sol)
    assert abs(rep.ratio - 1.0) < 1e-9
    assert abs(rep.surplus_contract - rep.surplus_first_best) < 1e-9


def test_social_ratio_bounded_by_first_best(profile, cost_model, case1, uniform_k2):
    market, sol = case1
    rep = social_metrics(profile, cost_model, market, sol)
    assert rep.ratio <= 1.0 + 1e-9
    assert 0.9 < rep.ratio < 0.99
    cmarket, csol = uniform_k2
    crep = social_metrics(profile, cost_model, cmarket, csol)
    assert crep.ratio <= 1.0 + 1e-9
    assert crep.surplus_contract > 0


def test_social_quadrature_matches_riemann(profile, cost_model, uniform_k2):
    market, sol = uniform_k2
    rep = social_metrics(profile, cost_model, market, sol)
    total = 0.0
    lo = market.sigma_min
    for sig_hi, t_k in zip(sol.boundaries, sol.periods):
        s = np.linspace(lo, sig_hi, 20001)
        mid = 0.5 * (s[1:] + s[:-1])
        f = (valuation(profile, mid, t_k) - cost(cost_model, t_k)) * market.pdf(mid)
        total += float(np.sum(f) * (s[1] - s[0]))
        lo = sig_hi
    assert abs(rep.surplus_contract - total) < 1e-6


@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6"])
def test_social_quadrature_bit_identical_to_fixed_quad(name, monkeypatch):
    # both floats must be the ones scipy.integrate.fixed_quad gives, bit
    # for bit, when it runs on the package's own 96-point rule (put in its
    # rule cache) over each band
    monkeypatch.setitem(_quadrature._cached_roots_legendre.cache, 96, (_GL_NODES, _GL_WEIGHTS))
    sc = load_scenario(name)
    profile, model, market = sc.profile, sc.cost_model, sc.market
    sol = solve_alternating(profile, model, market, sc.solver.n_groups)
    rep = social_metrics(profile, model, market, sol)
    b, t = sol.boundaries, sol.periods
    lo = np.concatenate(([market.sigma_min], b[:-1]))[:, None]
    width = b[:, None] - lo
    # the first-best's bands: the menu's, then the unserved one above them
    top = np.array([[b[-1]]])
    all_lo, all_width = np.vstack([lo, top]), np.vstack([width, market.sigma_max - top])

    def surplus(u):
        s = lo + width * u
        return (valuation(profile, s, t[:, None]) - cost(model, t)[:, None]) * market.pdf(s) * width

    def first_best(u):
        s = all_lo + all_width * u
        return _first_best_surplus_rates(profile, model, s.ravel()).reshape(s.shape) * market.pdf(s) * all_width

    contract = float(np.sum(market.size * fixed_quad(surplus, 0.0, 1.0, n=96)[0]))
    best = float(np.sum(market.size * fixed_quad(first_best, 0.0, 1.0, n=96)[0]))
    assert rep.surplus_contract.hex() == contract.hex()
    assert rep.surplus_first_best.hex() == best.hex()


@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6"])
def test_social_first_best_matches_adaptive_quad(name):
    # integrated band by band on the contract's nodes, the first-best
    # surplus agrees with adaptive quadrature broken at the boundaries
    # (over the whole window on one 96-point rule it was off by up to 7.7e-9)
    sc = load_scenario(name)
    profile, model, market = sc.profile, sc.cost_model, sc.market
    sol = solve_alternating(profile, model, market, sc.solver.n_groups)
    rep = social_metrics(profile, model, market, sol)
    rate = lambda s: float(_first_best_surplus_rates(profile, model, s)[0] * market.pdf(s))
    ref = quad(rate, market.sigma_min, market.sigma_max, points=sol.boundaries, limit=500, epsabs=0.0, epsrel=1e-12)[0]
    assert abs(rep.surplus_first_best / (market.size * ref) - 1.0) <= 2e-10
    assert rep.surplus_contract < rep.surplus_first_best


def test_first_best_surplus_holds_on_wide_windows():
    # the first-best rate falls in sigma and reaches 0 near sigma_0 = 10.424
    # on this market, so widening the window past it adds no surplus: one
    # menu, solved at sigma_max = 20, gives the adaptive-quad first-best
    # surplus on every wider window
    sc = load_scenario("truncated_normal_k6")
    profile, model = sc.profile, sc.cost_model
    market = dataclasses.replace(sc.market, sigma_max=20.0)
    sol = solve_alternating(profile, model, market, 6)
    rate = lambda s: float(_first_best_surplus_rates(profile, model, s)[0] * market.pdf(s))
    ref = market.size * quad(rate, market.sigma_min, market.sigma_max, points=sol.boundaries, limit=500, epsabs=0.0, epsrel=1e-12)[0]
    assert abs(ref - 2.034947580285) <= 1e-12
    for sigma_max in (20.0, 1e3, 1e4, 1e5, 1e10):
        rep = social_metrics(profile, model, dataclasses.replace(market, sigma_max=sigma_max), sol)
        assert abs(rep.surplus_first_best / ref - 1.0) <= 1e-9, (sigma_max, rep.surplus_first_best)


def test_gauss_legendre_rule_matches_roots_legendre_and_is_exact():
    # the 96-point rule from Newton on the Legendre recurrence: scipy's
    # nodes to an ulp and its weights to its own error (up to ~1e-12 at
    # the ends), and it integrates every polynomial of degree <= 191
    nodes, weights = roots_legendre(96)
    assert np.all(np.diff(_GL_NODES) > 0) and np.array_equal(_GL_NODES, -_GL_NODES[::-1])
    assert np.max(np.abs(_GL_NODES - nodes)) <= 2.3e-16
    assert np.allclose(_GL_WEIGHTS, weights, rtol=2e-12, atol=0.0)
    P = np.polynomial.legendre.legvander(_GL_NODES, 192)  # P_0 .. P_192 at the nodes
    integrals = P.T @ _GL_WEIGHTS
    assert abs(integrals[0] - 2.0) <= 1e-15
    assert np.max(np.abs(integrals[1:192])) <= 1e-15
    monomials = np.vander(_GL_NODES, 192, increasing=True).T @ _GL_WEIGHTS
    exact = np.where(np.arange(192) % 2 == 0, 2.0 / (np.arange(192) + 1.0), 0.0)
    assert np.max(np.abs(monomials - exact)) <= 2e-15
    # and no more: P_96^2, of degree 192, vanishes at every node
    assert abs(P[:, 96] ** 2 @ _GL_WEIGHTS) <= 1e-15 < 2.0 / 193.0


@pytest.mark.parametrize("name", ["uniform_k6", "exponential_k6", "truncated_normal_k6", "case1_discrete", "case2_mountain"])
def test_table_kernel_valuation_matches_valuation_on_oracle_grids(name):
    # the grid oracles' psi takes E(a) from the table kernel; on every
    # bundled oracle grid its V is valuation's to 4e-15 relative
    sc = load_scenario(name)
    market = sc.market
    sigmas = market.sigmas if isinstance(market, DiscreteMarket) else bundled_sigma_grid(market)
    got = _valuation(sc.profile, sigmas[:, None], ORACLE_T_GRID, _excess_table)
    ref = valuation(sc.profile, sigmas[:, None], ORACLE_T_GRID)
    assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref))


def test_first_best_surplus_never_negative(profile, cost_model):
    # a type whose best-case surplus is negative contributes zero (the
    # planner simply would not serve it)
    expensive = type(cost_model)(c0=13.5, c1=0.5)
    market = DiscreteMarket(sigmas=[5.0], counts=[1.0])
    t = np.geomspace(*DEFAULT_T_DOMAIN, 200_001)
    assert np.max(valuation(profile, 5.0, t) - cost(expensive, t)) < 0
    sol_like = solve_discrete  # only social_metrics matters; build by hand
    from planmenu.discrete import DiscreteSolution

    items, one = np.arange(1), np.ones(1)
    sol = DiscreteSolution(
        periods=np.array([1.0]),
        prices=np.array([11.0]),
        total_profit=0.0,
        objective_values=np.array([0.0]),
        first_best_periods=block_periods(profile, expensive, market.sigmas, one, 0 * one, items, items),
    )
    rep = social_metrics(profile, expensive, market, sol)
    assert rep.surplus_first_best == 0.0


def test_lockstep_first_best_matches_scalar_searches(profile, cost_model):
    # reference: scipy's bracketing root finder on V_t = C' for each type,
    # with the analytic C'; types whose slope has one sign over the whole
    # window sit on its edge
    lo, hi = DEFAULT_T_DOMAIN
    quadratic = type(cost_model)(c0=10.0, w=lambda t: 0.05 * t * t)
    sigmas = np.concatenate([np.linspace(0.0, 6.0, 301), [1e-9, 30.0]])
    expensive = type(cost_model)(c0=13.5, c1=0.5)
    for model, slope in ((cost_model, lambda t: 0.5), (quadratic, lambda t: 0.1 * t), (expensive, lambda t: 0.5)):
        f = lambda t, s: valuation_dt(profile, s, t) - slope(t)
        t_ref = np.where(f(lo, sigmas) <= 0, lo, hi)
        inside = (f(lo, sigmas) > 0) & (f(hi, sigmas) < 0)
        t_ref[inside] = find_root(f, (lo, hi), args=(sigmas[inside],)).x
        ref = np.maximum(valuation(profile, sigmas, t_ref) - cost(model, t_ref), 0.0)
        rates = _first_best_surplus_rates(profile, model, sigmas)
        assert np.max(np.abs(rates - ref)) <= 1e-13


# --- comparison assembly ---------------------------------------------------------

def test_build_comparison_arithmetic(profile, cost_model, case1):
    market, sol = case1
    report = build_comparison(
        profile, cost_model, market, sol, baseline_periods=(1.0, 2.0)
    )
    assert report.optimal_profit == sol.total_profit
    assert [row.period for row in report.baselines] == [1.0, 2.0]
    for row in report.baselines:
        full = full_coverage_profit(profile, cost_model, market, row.period)
        opt = optimized_cutoff_profit(profile, cost_model, market, row.period)
        assert row.profit_full == full
        assert row.profit_optimized == opt
        up_full = uplift_percent(report.optimal_profit, row.profit_full)
        up_opt = uplift_percent(report.optimal_profit, row.profit_optimized)
        assert abs(up_full - 100.0 * (sol.total_profit / full - 1.0)) < 1e-9
        assert abs(up_opt - 100.0 * (sol.total_profit / opt - 1.0)) < 1e-9
        assert up_opt <= up_full
    assert report.social is not None and report.social.ratio <= 1.0 + 1e-9
