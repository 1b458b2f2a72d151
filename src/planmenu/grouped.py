"""Menu design for a continuum of types: group, price, iterate.

With continuously distributed volatility the provider offers K items;
item k serves the type band (sigma_{k-1}, sigma_k].  Profit splits into
one term per boundary,

    Q_k(s) = N * G(s) * (V(s, t_k) - V(s, t_{k+1}) + C(t_{k+1}) - C(t_k)),
    Q_K(s) = N * G(s) * (V(s, t_K) - C(t_K)),

so boundaries interact only through the ascending constraint, exactly
like periods do.  The solver alternates two half-steps to a fixed
point:

  Step I   periods given boundaries: per-group concave search plus
           ascending repair (pooling);
  Step II  boundaries given periods: per-boundary unimodal search plus
           ascending repair.

Each half-step maximizes the exact same total profit in its own block
of coordinates, so the profit trace is nondecreasing and convergence
follows.  Unimodality of Q_k is guaranteed by the market shape
condition (see distributions.theorem3_condition); if a market fails
it, searches fall back to a dense grid scan with golden refinement.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (
    DEFAULT_T_DOMAIN,
    PooledBlock,
    golden_section_max,
    maximize_concave,
    optimal_prices,
    period_objective,
    repair_monotone,
)
from .market import cost, valuation, valuation_dsigma

#: Convergence: stop when one full round improves relative profit by
#: no more than this.
REL_PROFIT_TOL = 1e-10
MAX_ROUNDS = 200


def maximize_unimodal(f, lo, hi, rel_arg_tol=1e-10, coarse_grid=None):
    """Golden-section maximum for a unimodal f on [lo, hi].

    With coarse_grid set, f is first evaluated on that many equispaced
    points in one array call (so f must broadcast) and golden-section
    only refines the best bracket — the fallback for objectives without
    a unimodality certificate.
    """
    if coarse_grid:
        xs = np.linspace(lo, hi, int(coarse_grid))
        vals = f(xs)
        j = int(np.argmax(vals))
        a = xs[max(j - 1, 0)]
        b = xs[min(j + 1, len(xs) - 1)]
        if b <= a:
            return float(xs[j]), float(vals[j])
        return golden_section_max(f, a, b, rel_arg_tol=rel_arg_tol)
    return golden_section_max(f, lo, hi, rel_arg_tol=rel_arg_tol)


def group_counts(market, boundaries):
    """Consumer mass per group for ascending upper boundaries."""
    b = np.asarray(boundaries, dtype=float)
    if np.any(np.diff(b) < 0):
        raise ValueError("boundaries must be ascending")
    lows = np.concatenate(([market.sigma_min], b[:-1]))
    return market.count_between(lows, b)


def _boundary_term(profile, market, t_k, t_next, dcost, sigma):
    # Q_k(s) with period-dependent constants pinned to floats; t_next
    # None marks the top boundary, where dcost = -C(t_K).
    if t_next is None:
        wedge = valuation(profile, sigma, t_k) + dcost
    else:
        wedge = valuation(profile, sigma, t_k) - valuation(profile, sigma, t_next) + dcost
    return market.size * market.cdf(sigma) * wedge


def boundary_objective(profile, cost_model, market, periods, k, sigma):
    """Q_k(sigma): profit terms containing boundary k, periods fixed."""
    t = np.asarray(periods, dtype=float)
    if k == t.size - 1:
        return _boundary_term(profile, market, float(t[k]), None, -cost(cost_model, float(t[k])), sigma)
    dcost = cost(cost_model, float(t[k + 1])) - cost(cost_model, float(t[k]))
    return _boundary_term(profile, market, float(t[k]), float(t[k + 1]), dcost, sigma)


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


def step1_periods(profile, cost_model, market, boundaries, t_domain=DEFAULT_T_DOMAIN):
    """Optimal ascending periods for fixed boundaries.

    This is the discrete problem with the boundary types as marginal
    types and the band masses as counts; the rent mass of group k is
    N*G(sigma_{k-1}).
    """
    lo, hi = t_domain
    b = np.asarray(boundaries, dtype=float)
    G = np.atleast_1d(np.asarray(market.cdf(b), dtype=float))
    G_lo = np.append(0.0, G[:-1])
    objectives = [
        partial(
            period_objective,
            profile,
            cost_model,
            market.size * (float(G[k]) - float(G_lo[k])),
            market.size * float(G_lo[k]),
            float(b[k]),
            float(b[max(k - 1, 0)]),
        )
        for k in range(b.size)
    ]
    return repair_monotone(objectives, lo, hi, optimizer=maximize_concave)


def step2_boundaries(profile, cost_model, market, periods, coarse_grid=None):
    """Optimal ascending boundaries for fixed periods."""
    lo, hi = market.sigma_min, market.sigma_max

    def optimizer(f, a, b):
        return maximize_unimodal(f, a, b, coarse_grid=coarse_grid)

    t = np.asarray(periods, dtype=float)
    costs = cost(cost_model, t)
    objectives = []
    for k in range(t.size):
        if k == t.size - 1:
            t_k, t_next, dcost = float(t[k]), None, -float(costs[k])
        else:
            t_k, t_next, dcost = float(t[k]), float(t[k + 1]), float(costs[k + 1] - costs[k])
        objectives.append(
            (lambda t_k, t_next, dcost: (lambda s: _boundary_term(profile, market, t_k, t_next, dcost, s)))(
                t_k, t_next, dcost
            )
        )
    return repair_monotone(objectives, lo, hi, optimizer=optimizer)


def total_profit_grouped(profile, cost_model, market, boundaries, periods):
    """Direct profit: group masses times per-item margins at chain prices."""
    counts = group_counts(market, boundaries)
    prices = optimal_prices(profile, boundaries, periods)
    margins = prices - cost(cost_model, np.asarray(periods, dtype=float))
    return float(np.dot(counts, margins))


def _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods):
    return float(
        sum(
            boundary_objective(profile, cost_model, market, periods, k, boundaries[k])
            for k in range(len(boundaries))
        )
    )


@dataclass
class GroupedSolution:
    boundaries: np.ndarray
    periods: np.ndarray
    prices: np.ndarray
    counts: np.ndarray
    total_profit: float
    iterations: int
    converged: bool
    profit_trace: List[float] = field(default_factory=list)
    pooled_period_blocks: List[PooledBlock] = field(default_factory=list)
    pooled_boundary_blocks: List[PooledBlock] = field(default_factory=list)
    boundary_edge_hits: List[int] = field(default_factory=list)
    theorem3_ok: bool = True
    requested_groups: int = 0


def _collapse_empty_groups(market, boundaries, periods):
    """Drop groups whose type band has zero mass (duplicate boundaries)."""
    counts = group_counts(market, boundaries)
    keep = counts > 0
    if not np.any(keep):
        keep[-1] = True
    return boundaries[keep], periods[keep]


def solve_alternating(
    profile,
    cost_model,
    market,
    n_groups,
    t_domain=DEFAULT_T_DOMAIN,
    init_boundaries: Optional[Sequence[float]] = None,
    frozen_periods: Optional[Sequence[float]] = None,
    max_rounds=MAX_ROUNDS,
    rel_tol=REL_PROFIT_TOL,
) -> GroupedSolution:
    """Alternate period and boundary optimization until profit stalls.

    Starts from quantile-equispaced boundaries (or init_boundaries).
    With frozen_periods given, Step I is skipped and only boundaries
    move — that is the single-item fixed-period problem when K = 1.
    The profit trace is checked nondecreasing at each half-step.
    """
    if n_groups < 1:
        raise ValueError("need at least one group")
    t3 = market.verify_theorem3()
    coarse = None
    if not t3.holds:
        warnings.warn(
            f"market fails the boundary-unimodality condition (min slack {t3.min_slack:.3g}); "
            "falling back to dense-grid boundary searches",
            RuntimeWarning,
        )
        coarse = 2000

    if init_boundaries is not None:
        boundaries = np.sort(np.asarray(init_boundaries, dtype=float))
        if boundaries.size != n_groups:
            raise ValueError("init_boundaries must supply one value per group")
    else:
        boundaries = market.quantile((np.arange(n_groups) + 1.0) / n_groups)
        boundaries = np.atleast_1d(np.asarray(boundaries, dtype=float))

    if frozen_periods is not None:
        frozen = np.asarray(frozen_periods, dtype=float)
        if frozen.shape != (n_groups,):
            raise ValueError("frozen_periods must supply one period per group")
        if np.any(np.diff(frozen) < 0):
            raise ValueError("frozen_periods must be ascending")

    trace = []
    period_blocks: List[PooledBlock] = []
    boundary_blocks: List[PooledBlock] = []
    periods = None
    profit = -np.inf
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if frozen_periods is not None:
            periods = frozen.copy()
            period_blocks = []
        else:
            periods, period_blocks = step1_periods(profile, cost_model, market, boundaries, t_domain)
        p1 = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
        _check_monotone(trace, p1)
        trace.append(p1)

        boundaries, boundary_blocks = step2_boundaries(profile, cost_model, market, periods, coarse_grid=coarse)
        p2 = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
        _check_monotone(trace, p2)
        trace.append(p2)

        if profit > -np.inf and p2 - profit <= rel_tol * max(1.0, abs(p2)):
            profit = max(profit, p2)
            converged = True
            break
        profit = p2

    edge_tol = 1e-9 * (market.sigma_max - market.sigma_min)
    edge_hits = [int(k) for k, s in enumerate(boundaries) if s >= market.sigma_max - edge_tol or s <= market.sigma_min + edge_tol]

    boundaries, periods = _collapse_empty_groups(market, boundaries, np.asarray(periods, dtype=float))
    direct = total_profit_grouped(profile, cost_model, market, boundaries, periods)
    telescoped = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
    if abs(direct - telescoped) > 1e-8 * max(1.0, abs(direct)):
        raise RuntimeError("profit accounting mismatch between price chain and boundary terms")

    return GroupedSolution(
        boundaries=boundaries,
        periods=periods,
        prices=optimal_prices(profile, boundaries, periods),
        counts=group_counts(market, boundaries),
        total_profit=direct,
        iterations=rounds,
        converged=converged,
        profit_trace=trace,
        pooled_period_blocks=period_blocks,
        pooled_boundary_blocks=boundary_blocks,
        boundary_edge_hits=edge_hits,
        theorem3_ok=t3.holds,
        requested_groups=n_groups,
    )


def _check_monotone(trace, new):
    if trace and new < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
        raise RuntimeError(f"profit decreased during alternation: {trace[-1]} -> {new}")


def solve_with_restarts(
    profile,
    cost_model,
    market,
    n_groups,
    restarts=0,
    seed=None,
    t_domain=DEFAULT_T_DOMAIN,
    extra_inits: Optional[List[Sequence[float]]] = None,
) -> GroupedSolution:
    """Best of the quantile start, any extra starts, and seeded random
    restarts (quantile-transformed uniforms, so restarts respect the
    type distribution).  Deterministic for a fixed seed: candidates are
    solved independently and the best final profit wins, first-found on
    ties."""
    inits: List[Optional[np.ndarray]] = [None]
    if extra_inits:
        inits.extend(np.asarray(b, dtype=float) for b in extra_inits)
    if restarts:
        rng = np.random.default_rng(seed)
        for _ in range(int(restarts)):
            u = np.sort(rng.random(n_groups))
            inits.append(np.atleast_1d(market.quantile(u)))

    solutions = [
        solve_alternating(profile, cost_model, market, n_groups, t_domain=t_domain, init_boundaries=init)
        for init in inits
    ]
    best = max(range(len(solutions)), key=lambda i: (solutions[i].total_profit, -i))
    return solutions[best]
