"""An arbitrary-precision replay of the bundled runs.

Each bundled scenario is solved in process by runner.run.  Its menu's
prices, masses and profit are then recomputed at 40 digits from the
scenario file and the run's periods (and boundaries) alone, with the
replay code below using only mpmath and the standard library, so it
shares no kernel with planmenu's normals, market or distributions:

  V(s, t) = alpha (mu - s / sqrt(t) E(a)),  a = sqrt(t) (q - mu) / s,
  E(a) = phi(a) - a Phi(-a),  V(0, t) = alpha mu;
  G per family on [sigma_min, sigma_max];
  the chain prices telescoped from the top item, p_K = V(s_K, t_K) and
  p_k = p_{k+1} + V(s_k, t_k) - V(s_k, t_{k+1}), where s_k is item k's
  marginal type (a discrete type, or a group's upper boundary);
  masses N (G(b_k) - G(b_{k-1})) or the discrete counts, and profit
  sum_k mass_k (p_k - C(t_k)).

The IC/IR verdict is replayed the same way: each consumer of the menu
(every discrete type, or each group boundary and 51 equispaced types
across the window, a type above the top boundary opting out) values
every item and opting out at 40 digits, and neither her best
alternative's gain over her own choice nor her shortfall below zero
utility may exceed the feasibility tolerance.

So is a grouped menu's first-order optimality: the replayed profit's
gradient in x = (b, t), taken at 40 digits by mpmath.diff, is projected
on each chain (the boundaries in the market window, the periods in
DEFAULT_T_DOMAIN) by perfbench/kkt.py's run-by-run chain_residual, which
calls no planmenu kernel: a run of equal values moves as a whole or
splits, a leading part down and a trailing part up, and a run within
EDGE_RTOL of a window edge cannot leave it.  The largest rate left is at
most KKT_TOL N.
"""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

import planmenu
from planmenu import runner
from planmenu.discrete import DEFAULT_T_DOMAIN, FEASIBILITY_TOL
from planmenu.grouped import EDGE_RTOL, KKT_TOL
from planmenu.scenarios import load_scenario

DIGITS = 40
RTOL = 1e-12
DATA = Path(planmenu.__file__).parent / "data"
BUNDLED = sorted(p.stem for p in DATA.glob("*.json"))
GROUPED = [name for name in BUNDLED if json.loads((DATA / f"{name}.json").read_text())["market"]["kind"] != "discrete"]


def replay_valuation(cfg, s, t):
    alpha, mu, q = (mpmath.mpf(cfg[key]) for key in ("alpha", "mu", "q"))
    if s == 0:
        return alpha * mu
    a = mpmath.sqrt(t) * (q - mu) / s
    return alpha * (mu - s / mpmath.sqrt(t) * (mpmath.npdf(a) - a * mpmath.ncdf(-a)))


def replay_cdf(market, s):
    lo, hi = mpmath.mpf(market["sigma_min"]), mpmath.mpf(market["sigma_max"])
    if market["kind"] == "uniform":
        return (s - lo) / (hi - lo)
    if market["kind"] == "exponential":
        rate = mpmath.mpf(market["lambda"])
        return (mpmath.exp(-rate * lo) - mpmath.exp(-rate * s)) / (mpmath.exp(-rate * lo) - mpmath.exp(-rate * hi))
    Phi = lambda x: mpmath.ncdf((x - mpmath.mpf(market["M"])) / mpmath.mpf(market["W"]))
    return (Phi(s) - Phi(lo)) / (Phi(hi) - Phi(lo))


def replay(cfg, periods, boundaries=None):
    """(prices, masses, profit) of the menu at DIGITS digits."""
    market = cfg["market"]
    t = [mpmath.mpf(x) for x in periods]
    if boundaries is None:
        types = [mpmath.mpf(x) for x in market["sigmas"]]
        masses = [mpmath.mpf(x) for x in market["counts"]]
    else:
        types = [mpmath.mpf(x) for x in boundaries]
        G = [replay_cdf(market, s) for s in [mpmath.mpf(market["sigma_min"])] + types]
        masses = [mpmath.mpf(market.get("N", 1.0)) * (upper - lower) for lower, upper in zip(G, G[1:])]
    prices = [replay_valuation(cfg, types[-1], t[-1])]
    for k in range(len(t) - 2, -1, -1):
        prices.insert(0, prices[0] + replay_valuation(cfg, types[k], t[k]) - replay_valuation(cfg, types[k], t[k + 1]))
    c0, c1 = mpmath.mpf(cfg["cost"]["c0"]), mpmath.mpf(cfg["cost"].get("c1", 0.0))
    profit = mpmath.fsum(n * (p - (c0 + c1 * tk)) for n, p, tk in zip(masses, prices, t))
    return prices, masses, profit


def assert_close(name, computed, exact):
    for i, (x, ref) in enumerate(zip(computed, exact)):
        assert abs(mpmath.mpf(float(x)) - ref) <= RTOL * abs(ref), (name, i, float(x), ref)


def replay_incentives(cfg, periods, prices, boundaries=None):
    """(worst temptation, worst IR shortfall) over the menu's consumers
    at DIGITS digits; a consumer's temptation is her best other choice,
    items and opting out (utility 0), over her own."""
    market = cfg["market"]
    t, p = [mpmath.mpf(x) for x in periods], [mpmath.mpf(x) for x in prices]
    if boundaries is None:
        consumers = [(mpmath.mpf(s), k) for k, s in enumerate(market["sigmas"])]
    else:
        b = [mpmath.mpf(x) for x in boundaries]
        lo, hi = mpmath.mpf(market["sigma_min"]), mpmath.mpf(market["sigma_max"])
        types = b + [lo + i * (hi - lo) / 50 for i in range(51)]
        # served by the first group whose upper boundary she does not pass
        consumers = [(s, next((k for k, upper in enumerate(b) if s <= upper), len(b))) for s in types]
    temptation = shortfall = mpmath.mpf(-1)
    for s, own in consumers:
        utilities = [replay_valuation(cfg, s, tk) - pk for tk, pk in zip(t, p)] + [mpmath.mpf(0)]
        mine = utilities[own]
        temptation = max(temptation, max(u - mine for j, u in enumerate(utilities) if j != own))
        if own < len(t):
            shortfall = max(shortfall, -mine)
    return temptation, shortfall


def replay_gradient(cfg, periods, boundaries):
    """Gradient of a grouped menu's replayed profit in x = (b, t) at
    DIGITS digits, by mpmath.diff in each coordinate."""
    x = [mpmath.mpf(v) for v in boundaries] + [mpmath.mpf(v) for v in periods]
    K = len(periods)

    def profit(i, v):
        y = x[:i] + [v] + x[i + 1 :]
        return replay(cfg, y[K:], y[:K])[2]

    return [mpmath.diff(lambda v: profit(i, v), x[i]) for i in range(2 * K)]


@lru_cache(maxsize=None)
def bundled_solution(name):
    with tempfile.TemporaryDirectory() as out:
        return runner.run(load_scenario(name), out).solution


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_replays_in_arbitrary_precision(name):
    cfg = json.loads((DATA / f"{name}.json").read_text())
    sol = bundled_solution(name)
    grouped = cfg["market"]["kind"] != "discrete"
    with mpmath.workdps(DIGITS):
        prices, masses, profit = replay(cfg, sol.periods, sol.boundaries if grouped else None)
        assert len(prices) == len(sol.prices)
        assert_close("prices", sol.prices, prices)
        assert_close("profit", [sol.total_profit], [profit])
        if grouped:
            assert len(masses) == len(sol.counts)
            assert_close("counts", sol.counts, masses)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_menu_is_incentive_compatible_in_arbitrary_precision(name):
    cfg = json.loads((DATA / f"{name}.json").read_text())
    sol = bundled_solution(name)
    grouped = cfg["market"]["kind"] != "discrete"
    with mpmath.workdps(DIGITS):
        temptation, shortfall = replay_incentives(cfg, sol.periods, sol.prices, sol.boundaries if grouped else None)
    assert temptation <= FEASIBILITY_TOL, float(temptation)
    assert shortfall <= FEASIBILITY_TOL, float(shortfall)


@pytest.mark.parametrize("name", GROUPED)
def test_bundled_grouped_menu_is_first_order_optimal_in_arbitrary_precision(name, kkt):
    cfg = json.loads((DATA / f"{name}.json").read_text())
    market, sol = cfg["market"], bundled_solution(name)
    with mpmath.workdps(DIGITS):
        grad = [float(g) for g in replay_gradient(cfg, sol.periods, sol.boundaries)]
    K = len(sol.periods)
    chains = [(sol.boundaries, grad[:K], market["sigma_min"], market["sigma_max"]), (sol.periods, grad[K:], *DEFAULT_T_DOMAIN)]
    residual = max(kkt.chain_residual(x, g, lo, hi, EDGE_RTOL * (hi - lo)) for x, g, lo, hi in chains)
    assert residual <= KKT_TOL * market.get("N", 1.0), residual
