"""The benchmark's KKT residual against central differences of a profit
built from the same public closed forms.

    PYTHONPATH=src python -m pytest -q perfbench/test_kkt.py
"""

import numpy as np
import pytest

from planmenu.distributions import DiscreteMarket, make_market
from planmenu.market import CostModel, DemandProfile, cost, valuation

import kkt  # pytest puts this directory on sys.path

PROFILE = DemandProfile(alpha=1.0, mu=13.0, q=15.0)
COSTS = {"linear": CostModel(c0=10.0, c1=0.5), "quadratic": CostModel(c0=10.0, w=lambda t: 0.1 * t * t)}
MARKETS = {
    "uniform": make_market("uniform", 0.0, 6.0),
    "exponential": make_market("exponential", 0.0, 6.0, rate=0.5),
    "truncated_normal": make_market("truncated_normal", 0.0, 6.0, loc=3.0, scale=1.5),
}


def chain_prices(sigmas, periods):
    prices = np.empty(len(periods))
    prices[-1] = valuation(PROFILE, sigmas[-1], periods[-1])
    for i in range(len(periods) - 2, -1, -1):
        prices[i] = prices[i + 1] + valuation(PROFILE, sigmas[i], periods[i]) - valuation(PROFILE, sigmas[i], periods[i + 1])
    return prices


def grouped_profit(cost_model, market, b, t):
    counts = market.size * np.diff(np.concatenate(([0.0], market.cdf(b))))
    return float(np.dot(counts, chain_prices(b, t) - cost(cost_model, t)))


def discrete_profit(cost_model, market, t):
    return float(np.dot(market.counts, chain_prices(market.sigmas, t) - cost(cost_model, t)))


def central_difference(f, x, rel_step=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


@pytest.mark.parametrize("cost_name", sorted(COSTS))
@pytest.mark.parametrize("market_name", sorted(MARKETS))
@pytest.mark.parametrize("k", [2, 3])
def test_grouped_gradient_matches_central_differences(k, market_name, cost_name):
    rng = np.random.default_rng(k)
    market, cost_model = MARKETS[market_name], COSTS[cost_name]
    b = np.sort(rng.uniform(0.3, 5.7, k))
    t = np.sort(rng.uniform(0.2, 3.0, k))
    d_b, d_t = kkt.grouped_gradient(PROFILE, cost_model, market, b, t)
    fd_b = central_difference(lambda x: grouped_profit(cost_model, market, x, t), b)
    fd_t = central_difference(lambda x: grouped_profit(cost_model, market, b, x), t)
    np.testing.assert_allclose(d_b, fd_b, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(d_t, fd_t, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("cost_name", sorted(COSTS))
def test_discrete_gradient_matches_central_differences(cost_name):
    market = DiscreteMarket(sigmas=[0.5, 1.7, 3.2], counts=[4.0, 1.0, 2.0])
    cost_model = COSTS[cost_name]
    t = np.array([0.3, 0.9, 2.4])
    grad = kkt.discrete_gradient(PROFILE, cost_model, market, t)
    fd = central_difference(lambda x: discrete_profit(cost_model, market, x), t)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize(
    "x, grad, expected",
    [
        ([1.0, 2.0, 3.0], [0.5, -0.25, 0.0], 0.5),  # free coordinates: max |g|
        ([1.0, 2.0, 2.0, 3.0], [0.0, 1.0, -1.0, 0.0], 0.0),  # balanced pooled block
        ([1.0, 2.0, 2.0, 3.0], [0.0, -1.0, 1.0, 0.0], 1.0),  # block should split apart
        ([1.0, 2.0, 2.0, 3.0], [0.0, 0.5, 0.25, 0.0], 0.75),  # whole block should rise
        ([1.0, 5.0], [0.0, 2.0], 0.0),  # pressing on the upper edge
        ([1.0, 5.0], [0.0, -2.0], 2.0),  # should leave the upper edge
        ([0.0, 1.0], [-3.0, 0.0], 0.0),  # pressing on the lower edge
    ],
)
def test_chain_residual_projects_on_blocks_and_edges(x, grad, expected):
    assert kkt.chain_residual(np.array(x), np.array(grad), 0.0, 5.0, 1e-12) == pytest.approx(expected)
