"""Menu design for a continuum of types: group, price, iterate.

With continuously distributed volatility the provider offers K items;
item k serves the type band (sigma_{k-1}, sigma_k].  Profit splits into
one term per boundary,

    Q_k(s) = N * G(s) * (V(s, t_k) - V(s, t_{k+1}) + C(t_{k+1}) - C(t_k)),
    Q_K(s) = N * G(s) * (V(s, t_K) - C(t_K)),

so boundaries interact only through the ascending constraint, exactly
like periods do.  The solver alternates two half-steps:

  Step I   periods given boundaries: the discrete solver's lockstep
           Newton-bisection period search, warm-started from the last
           round's periods, plus ascending repair (pooling);
  Step II  boundaries given periods: per-boundary golden-section search
           plus ascending repair.

Each half-step maximizes the exact same total profit in its own block
of coordinates, so the profit trace is nondecreasing.  Unimodality of
Q_k is guaranteed by the market shape condition (see
distributions.theorem3_condition); if a market fails it, searches fall
back to a dense grid scan with golden refinement.

Alternation alone converges only linearly.  After a round that pools
nothing, safeguarded projected-Newton steps on the 2K stationarity
system dP/d(b, t) = 0 finish the job, holding coordinates on a window
edge fixed, and one last step on the final Hessian factor once the
projected first-order (KKT) residual is at most KKT_TOL * N.  The
solver converges once that residual holds and one more round gains at
most REL_PROFIT_TOL in relative profit; a round that pools stops the
solve when profit stalls.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy import linalg

from .discrete import (
    DEFAULT_T_DOMAIN,
    PooledBlock,
    _cost_slopes,
    golden_section_max,
    optimal_prices,
    repair_monotone,
    search_periods,
)
from .market import cost, valuation, valuation_dsigma, valuation_dt

#: Convergence: one full round improves relative profit by no more than
#: this, and (rounds that pool nothing) the projected first-order
#: residual is at most KKT_TOL times the market size.
REL_PROFIT_TOL = 1e-10
KKT_TOL = 1e-10
MAX_ROUNDS = 200
#: Newton steps tried after one round before alternation resumes.
MAX_NEWTON_STEPS = 8
#: A coordinate this close to its window edge, relative to the window
#: width, sits on the edge.
EDGE_RTOL = 1e-9


def maximize_unimodal(f, lo, hi, coarse_grid=None):
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
        return golden_section_max(f, a, b)
    return golden_section_max(f, lo, hi)


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


def _valuation_dsigma(profile, sigma, t):
    # V_sigma without the sigma = 0 warning: sigma = 0 is only reached at
    # sigma_min = 0, where G = 0 multiplies the one-sided limit 0
    pos = np.asarray(sigma) > 0
    return np.where(pos, valuation_dsigma(profile, np.where(pos, sigma, 1.0), t), 0.0)


def profit_gradient(profile, cost_model, market, boundaries, periods):
    """(dP/db, dP/dt) of total profit in closed form.

      dP/dt_k = own_k (V_t(b_k, t_k) - C'(t_k)) + below_k (V_t(b_k, t_k) - V_t(b_{k-1}, t_k))
      dP/db_k = N g(b_k) (H(b_k) + C(t_{k+1}) - C(t_k))    (k < K)
      dP/db_K = N (g(b_K) (V(b_K, t_K) - C(t_K)) + G(b_K) V_s(b_K, t_K))

    with own_k = N (G(b_k) - G(b_{k-1})), below_k = N G(b_{k-1}) and
    H(s) = V(s, t_k) - V(s, t_{k+1}) + (G/g)(s) (V_s(s, t_k) - V_s(s, t_{k+1})).
    The top line is the others' with item K+1 the outside option
    (V = V_s = C = 0), so all boundaries share one expression; V and V_s
    at (b_k, t_k) and (b_k, t_{k+1}) come from one stacked call each.
    Rows of boundaries and periods (shape (..., K)) are evaluated in one
    batched call; the market sees 1-D arrays only.
    """
    b = np.asarray(boundaries, dtype=float)
    t = np.asarray(periods, dtype=float)
    K = b.shape[-1]
    N = market.size

    def on_types(f, s):
        return np.asarray(f(s.ravel()), dtype=float).reshape(s.shape)

    def with_outside(x):  # item k+1's values at b_k, then the outside option's 0
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)

    G = on_types(market.cdf, b)
    g = on_types(market.pdf, b)
    G_below = np.concatenate([np.zeros_like(G[..., :1]), G[..., :-1]], axis=-1)
    b_below = np.concatenate([b[..., :1], b[..., :-1]], axis=-1)
    vt = valuation_dt(profile, np.concatenate([b, b_below], axis=-1), np.concatenate([t, t], axis=-1))
    vt_own, vt_rent = vt[..., :K], vt[..., K:]
    d_t = N * ((G - G_below) * (vt_own - _cost_slopes(cost_model, t)[0]) + G_below * (vt_own - vt_rent))

    pairs = np.concatenate([b, b[..., :-1]], axis=-1), np.concatenate([t, t[..., 1:]], axis=-1)
    v = valuation(profile, *pairs)
    vs = _valuation_dsigma(profile, *pairs)
    C = cost(cost_model, t)
    wedge = v[..., :K] - with_outside(v[..., K:]) + with_outside(C[..., 1:]) - C
    d_b = N * (g * wedge + G * (vs[..., :K] - with_outside(vs[..., K:])))
    return d_b, d_t


def _chain_residual(x, grad, lo, hi):
    """Largest feasible ascent rate of a maximization over x_1 <= ... <= x_n in [lo, hi].

    A run of equal values moves as a whole or splits (a leading part
    down, a trailing part up); a run on a window edge cannot leave it.
    For distinct interior values this is max |grad|.
    """
    edge = EDGE_RTOL * (hi - lo)
    worst = 0.0
    for run in np.split(np.arange(x.size), np.flatnonzero(np.diff(x) > 0) + 1):
        g = grad[run]
        if x[run[0]] < hi - edge:
            worst = max(worst, float(np.cumsum(g[::-1]).max()))
        if x[run[0]] > lo + edge:
            worst = max(worst, float(-np.cumsum(g).min()))
    return worst


def _menu_residual(market, b, t, d_b, d_t):
    """Projected first-order (KKT) residual of a menu: the largest rate at
    which a feasible move of the boundaries and periods raises profit.
    0 at an exact optimum."""
    return max(
        _chain_residual(b, d_b, market.sigma_min, market.sigma_max),
        _chain_residual(t, d_t, *DEFAULT_T_DOMAIN),
    )


def _hessian_factor(profile, cost_model, market, x, free, lo, hi):
    """Cholesky factor of -H on the free coordinates of x = (b, t), or
    None where the Hessian H is not negative definite.

    H is a symmetrized central difference of the gradient, all perturbed
    points in one batched call; each difference step is
    1e-6 * max(1, |x|), at most half the distance to the window edge.
    """
    K = x.size // 2
    idx = np.flatnonzero(free)
    n = idx.size
    xf = x[idx]
    h = np.minimum(1e-6 * np.maximum(1.0, np.abs(xf)), 0.5 * np.minimum(xf - lo[idx], hi[idx] - xf))
    rows = np.tile(x, (2 * n, 1))
    rows[np.arange(n), idx] += h
    rows[n + np.arange(n), idx] -= h
    d_b, d_t = profit_gradient(profile, cost_model, market, rows[:, :K], rows[:, K:])
    F = np.concatenate([d_b, d_t], axis=1)[:, idx]
    hess = (F[:n] - F[n:]) / (2.0 * h[:, None])
    try:
        return linalg.cho_factor(-0.5 * (hess + hess.T))
    except linalg.LinAlgError:
        return None


def _newton_finish(profile, cost_model, market, boundaries, periods, profit, trace):
    """Safeguarded projected-Newton steps from an ascending, unpooled menu.

    Coordinates on a window edge stay fixed.  Once the residual is at
    most KKT_TOL * N, one more (polish) step reuses the last Hessian
    factor, so where the finish stops inside that tolerance does not
    hang on the bits it started from.  A step is taken only if the new
    boundaries and periods stay strictly ascending inside their windows
    and profit does not fall (up to rounding); each accepted profit
    joins the trace.  Returns (boundaries, periods, profit, residual,
    steps), the residual measured at the returned menu.
    """
    K = boundaries.size
    lo = np.repeat([market.sigma_min, DEFAULT_T_DOMAIN[0]], K)
    hi = np.repeat([market.sigma_max, DEFAULT_T_DOMAIN[1]], K)
    edge = EDGE_RTOL * (hi - lo)
    tol = KKT_TOL * market.size
    x = np.concatenate([boundaries, periods])
    steps = 0
    factor = None
    while True:
        d_b, d_t = profit_gradient(profile, cost_model, market, x[:K], x[K:])
        grad = np.concatenate([d_b, d_t])
        residual = _menu_residual(market, x[:K], x[K:], d_b, d_t)
        if residual <= tol:
            if factor is None:
                break
            step, factor = linalg.cho_solve(factor, grad[free]), None
        elif steps >= MAX_NEWTON_STEPS:
            break
        else:
            free = (x > lo + edge) & (x < hi - edge)
            factor = _hessian_factor(profile, cost_model, market, x, free, lo, hi)
            if factor is None:
                break
            step = linalg.cho_solve(factor, grad[free])
        trial = x.copy()
        trial[free] += step
        b, t = trial[:K], trial[K:]
        if not (np.all(np.diff(b) > 0) and np.all(np.diff(t) > 0) and np.all((trial >= lo) & (trial <= hi))):
            break
        p = _profit_via_boundary_terms(profile, cost_model, market, b, t)
        if p < profit - 1e-12 * max(1.0, abs(profit)):
            break
        x, profit = trial, p
        trace.append(p)
        steps += 1
    return x[:K], x[K:], profit, residual, steps


def step1_periods(profile, cost_model, market, boundaries, guess=None):
    """Optimal ascending periods for fixed boundaries: (periods, pooled blocks).

    This is the discrete problem with the boundary types as marginal
    types and the band masses as counts; the rent mass of group k is
    N*G(sigma_{k-1}).  The search starts from guess (one period per
    group) if given.
    """
    b = np.asarray(boundaries, dtype=float)
    G = np.atleast_1d(np.asarray(market.cdf(b), dtype=float))
    G_lo = np.append(0.0, G[:-1])
    return search_periods(profile, cost_model, b, market.size * (G - G_lo), market.size * G_lo, guess)


def step2_boundaries(profile, cost_model, market, periods, coarse_grid=None):
    """Optimal ascending boundaries for fixed periods: one golden-section
    search per block of boundaries."""
    lo, hi = market.sigma_min, market.sigma_max
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

    def solve_blocks(first, last, _guess):
        argmaxes = []
        for i, j in zip(first, last):
            members = objectives[i : j + 1]
            f = members[0] if i == j else (lambda s: sum(g(s) for g in members))
            argmaxes.append(maximize_unimodal(f, lo, hi, coarse_grid=coarse_grid)[0])
        return argmaxes

    return repair_monotone(solve_blocks, t.size)


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
    kkt_residual: float = float("nan")
    newton_steps: int = 0


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
    init_boundaries: Optional[Sequence[float]] = None,
) -> GroupedSolution:
    """Alternate period and boundary optimization, finishing with Newton steps.

    Starts from quantile-equispaced boundaries (or init_boundaries).
    After each round that pools nothing, projected-Newton steps drive
    the first-order residual down; the solve converges once that
    residual is at most KKT_TOL * market.size, both before and after a
    round that gains no more than REL_PROFIT_TOL in relative profit.  A
    round that pools stops the solve when profit stalls, and MAX_ROUNDS
    rounds stop it unconverged.  The profit trace is checked
    nondecreasing at each half-step.
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

    tol = KKT_TOL * market.size
    trace = []
    period_blocks: List[PooledBlock] = []
    boundary_blocks: List[PooledBlock] = []
    periods = None
    profit = -np.inf
    residual = np.inf  # first-order residual of the menu the next round starts from
    newton_steps = 0
    converged = False
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        start = boundaries, periods
        periods, period_blocks = step1_periods(profile, cost_model, market, boundaries, guess=periods)
        p1 = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
        _check_monotone(trace, p1)
        trace.append(p1)

        boundaries, boundary_blocks = step2_boundaries(profile, cost_model, market, periods, coarse_grid=coarse)
        p2 = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
        _check_monotone(trace, p2)
        trace.append(p2)

        stalled = p2 - profit <= REL_PROFIT_TOL * max(1.0, abs(p2))
        ascending = np.all(np.diff(boundaries) > 0) and np.all(np.diff(periods) > 0)
        if period_blocks or boundary_blocks or not ascending:
            converged, profit, residual = stalled, p2, np.inf
        elif stalled and residual <= tol:
            # the round only confirmed the Newton-finished menu it started from
            boundaries, periods = start
            converged = True
        else:
            boundaries, periods, profit, residual, steps = _newton_finish(
                profile, cost_model, market, boundaries, periods, p2, trace
            )
            newton_steps += steps
        if converged:
            break

    edge_tol = EDGE_RTOL * (market.sigma_max - market.sigma_min)
    edge_hits = [int(k) for k, s in enumerate(boundaries) if s >= market.sigma_max - edge_tol or s <= market.sigma_min + edge_tol]

    boundaries, periods = _collapse_empty_groups(market, boundaries, np.asarray(periods, dtype=float))
    direct = total_profit_grouped(profile, cost_model, market, boundaries, periods)
    telescoped = _profit_via_boundary_terms(profile, cost_model, market, boundaries, periods)
    if abs(direct - telescoped) > 1e-8 * max(1.0, abs(direct)):
        raise RuntimeError("profit accounting mismatch between price chain and boundary terms")
    d_b, d_t = profit_gradient(profile, cost_model, market, boundaries, periods)

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
        kkt_residual=_menu_residual(market, boundaries, periods, d_b, d_t),
        newton_steps=newton_steps,
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
        solve_alternating(profile, cost_model, market, n_groups, init_boundaries=init)
        for init in inits
    ]
    best = max(range(len(solutions)), key=lambda i: (solutions[i].total_profit, -i))
    return solutions[best]
