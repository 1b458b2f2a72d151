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
  Step II  boundaries given periods: the same lockstep Newton-bisection
           on every block's closed-form slope Q', warm-started from the
           last round's boundaries, plus ascending repair (pooling).

Each half-step maximizes the exact same total profit in its own block
of coordinates, so the profit trace is nondecreasing.  Unimodality of
Q_k is guaranteed by the market shape condition (see
distributions.theorem3_condition), so Q_k' changes sign once; if a
market fails it, Step II falls back to a dense grid scan with golden
refinement of each block's best bracket.

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
from functools import partial
from typing import List, Optional, Sequence

import numpy as np
from scipy import linalg

from .discrete import (
    DEFAULT_T_DOMAIN,
    PooledBlock,
    _cost_slopes,
    _lockstep_root,
    golden_section_max,
    optimal_prices,
    repair_monotone,
    search_periods,
)
from .market import cost, valuation, valuation_dsigma2, valuation_dt

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
#: Points of the dense boundary scan for markets that fail the shape condition.
FALLBACK_GRID = 2000


def group_counts(market, boundaries):
    """Consumer mass per group for ascending upper boundaries."""
    b = np.asarray(boundaries, dtype=float)
    if np.any(np.diff(b) < 0):
        raise ValueError("boundaries must be ascending")
    lows = np.concatenate(([market.sigma_min], b[:-1]))
    return market.count_between(lows, b)


def _blocks(cost_model, periods, first, last):
    """Block j pools items first[j]..last[j] on one boundary; its boundary
    terms telescope to one, N G(s) (V(s, t_first) - V(s, t_next) + C(t_next)
    - C(t_first)) with t_next = t_{last+1}, or the outside option (V = C = 0)
    above the top item.  Periods may come in rows (shape (..., K)).
    Returns (own and next periods stacked on axis -2, next-item mask,
    cost step)."""
    t = np.asarray(periods, dtype=float)
    C = cost(cost_model, t)
    above = last < t.shape[-1] - 1
    nxt = np.minimum(last + 1, t.shape[-1] - 1)
    return np.stack([t[..., first], t[..., nxt]], axis=-2), above, np.where(above, C[..., nxt], 0.0) - C[..., first]


def _boundary_terms(profile, market, sigma, blocks):
    """Each block's boundary term Q_j at sigma_j (see _blocks); sigma of
    shape (..., n) broadcasts against n blocks."""
    periods, above, dcost = blocks
    s = np.asarray(sigma, dtype=float)
    v = valuation(profile, s[..., None, :], periods)
    return market.size * market.cdf(s) * (v[..., 0, :] - above * v[..., 1, :] + dcost)


def menu_profit(profile, cost_model, market, boundaries, periods):
    """Total profit as the sum of the boundary terms Q_k(b_k)."""
    items = np.arange(np.size(periods))
    return float(_boundary_terms(profile, market, boundaries, _blocks(cost_model, periods, items, items)).sum())


def _boundary_slopes(profile, market, sigma, blocks):
    """Each block's boundary term Q = N G w at sigma, its slope
    Q' = N (g w + G w'), the sum of the slope's absolute terms (its
    rounding scale), its curvature Q'' = N (g' w + 2 g w' + G w''), and
    G(sigma); w = V(s, t_first) - V(s, t_next) + C(t_next) - C(t_first) is
    the block's wedge (see _blocks)."""
    periods, above, dcost = blocks
    s = np.asarray(sigma, dtype=float)
    v, vs, vss = valuation_dsigma2(profile, s[..., None, :], periods)
    G, g, dg = market.cdf(s), market.pdf(s), market.pdf_dsigma(s)
    w = v[..., 0, :] - above * v[..., 1, :] + dcost
    dw = vs[..., 0, :] - above * vs[..., 1, :]
    ddw = vss[..., 0, :] - above * vss[..., 1, :]
    scale = g * (np.abs(v[..., 0, :]) + above * np.abs(v[..., 1, :]) + np.abs(dcost))
    scale += G * (np.abs(vs[..., 0, :]) + above * np.abs(vs[..., 1, :]))
    N = market.size
    return N * G * w, N * (g * w + G * dw), N * scale, N * (dg * w + 2.0 * g * dw + G * ddw), G


def block_boundaries(profile, cost_model, market, periods, first, last, guess=None):
    """The boundary maximizing each block's boundary term on the market
    window, all blocks in lockstep.

    Under the shape condition (Theorem 3) each term is single-peaked, so
    the search is _lockstep_root on the closed-form slope Q' with plain
    Newton steps on Q'' and arithmetic bisection (sigma_min may be 0),
    from guess (one boundary per block) or the window's midpoint.  A
    market that fails the condition gets a dense-grid scan instead,
    golden section refining each block's best bracket.
    """
    lo, hi = market.sigma_min, market.sigma_max
    blocks = _blocks(cost_model, periods, first, last)
    if not market.verify_theorem3().holds:
        xs = np.linspace(lo, hi, FALLBACK_GRID)
        best = np.argmax(_boundary_terms(profile, market, xs[:, None], blocks), axis=0)
        out = []
        for j, i in enumerate(best):
            block = tuple(z[..., j : j + 1] for z in blocks)
            f = lambda s: _boundary_terms(profile, market, np.atleast_1d(s), block)[..., 0]
            out.append(golden_section_max(f, xs[max(i - 1, 0)], xs[min(i + 1, FALLBACK_GRID - 1)])[0])
        return np.array(out)

    def slopes(s):
        _, slope, scale, curvature, _ = _boundary_slopes(profile, market, s, blocks)
        return slope, scale, (curvature,)

    x = np.full(first.size, 0.5 * (lo + hi)) if guess is None else np.clip(guess, lo, hi)
    return _lockstep_root(slopes, lambda s, slope, state: s - slope / state[0], lambda a, b: 0.5 * (a + b), x, lo, hi)


def _menu_terms(profile, cost_model, market, boundaries, periods):
    """(Q_k(b_k), dP/db, dP/dt) of a menu: its boundary terms, which sum to
    total profit, and the closed-form gradient

      dP/dt_k = own_k (V_t(b_k, t_k) - C'(t_k)) + below_k (V_t(b_k, t_k) - V_t(b_{k-1}, t_k))
      dP/db_k = Q_k'(b_k)    (see _boundary_slopes)

    with own_k = N (G(b_k) - G(b_{k-1})) and below_k = N G(b_{k-1}).
    Rows of boundaries and periods (shape (..., K)) are evaluated in one
    batched call.
    """
    b = np.asarray(boundaries, dtype=float)
    t = np.asarray(periods, dtype=float)
    K = b.shape[-1]
    items = np.arange(K)
    q, d_b, _, _, G = _boundary_slopes(profile, market, b, _blocks(cost_model, t, items, items))
    G_below = np.concatenate([np.zeros_like(G[..., :1]), G[..., :-1]], axis=-1)
    b_below = np.concatenate([b[..., :1], b[..., :-1]], axis=-1)
    vt = valuation_dt(profile, np.concatenate([b, b_below], axis=-1), np.concatenate([t, t], axis=-1))
    vt_own, vt_rent = vt[..., :K], vt[..., K:]
    d_t = market.size * ((G - G_below) * (vt_own - _cost_slopes(cost_model, t)[0]) + G_below * (vt_own - vt_rent))
    return q, d_b, d_t


def profit_gradient(profile, cost_model, market, boundaries, periods):
    """(dP/db, dP/dt) of total profit in closed form (see _menu_terms)."""
    return _menu_terms(profile, cost_model, market, boundaries, periods)[1:]


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
    _, d_b, d_t = _menu_terms(profile, cost_model, market, boundaries, periods)
    steps = 0
    factor = None
    while True:
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
        q, trial_d_b, trial_d_t = _menu_terms(profile, cost_model, market, b, t)
        p = float(q.sum())
        if p < profit - 1e-12 * max(1.0, abs(profit)):
            break
        x, profit, d_b, d_t = trial, p, trial_d_b, trial_d_t
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


def step2_boundaries(profile, cost_model, market, periods, guess=None):
    """Optimal ascending boundaries for fixed periods: (boundaries, pooled
    blocks), every block searched in lockstep from guess (one boundary
    per group) if given."""
    t = np.asarray(periods, dtype=float)
    return repair_monotone(partial(block_boundaries, profile, cost_model, market, t), t.size, guess)


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
    if not t3.holds:
        warnings.warn(
            f"market fails the boundary-unimodality condition (min slack {t3.min_slack:.3g}); "
            "falling back to dense-grid boundary searches",
            RuntimeWarning,
        )

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
        p1 = menu_profit(profile, cost_model, market, boundaries, periods)
        _check_monotone(trace, p1)
        trace.append(p1)

        boundaries, boundary_blocks = step2_boundaries(profile, cost_model, market, periods, guess=boundaries)
        p2 = menu_profit(profile, cost_model, market, boundaries, periods)
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
    # accounting identity: group masses times chain-price margins equal the boundary terms
    prices = optimal_prices(profile, boundaries, periods)
    counts = group_counts(market, boundaries)
    direct = float(np.dot(counts, prices - cost(cost_model, periods)))
    q, d_b, d_t = _menu_terms(profile, cost_model, market, boundaries, periods)
    if abs(direct - float(q.sum())) > 1e-8 * max(1.0, abs(direct)):
        raise RuntimeError("profit accounting mismatch between price chain and boundary terms")

    return GroupedSolution(
        boundaries=boundaries,
        periods=periods,
        prices=prices,
        counts=counts,
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
    solved independently, and a later start replaces the best so far only
    if it gains more than REL_PROFIT_TOL in relative profit, so rounding
    noise never picks the winner."""
    inits: List[Optional[np.ndarray]] = [None]
    if extra_inits:
        inits.extend(np.asarray(b, dtype=float) for b in extra_inits)
    if restarts:
        rng = np.random.default_rng(seed)
        for _ in range(int(restarts)):
            u = np.sort(rng.random(n_groups))
            inits.append(np.atleast_1d(market.quantile(u)))

    best = None
    for init in inits:
        sol = solve_alternating(profile, cost_model, market, n_groups, init_boundaries=init)
        if best is None or sol.total_profit - best.total_profit > REL_PROFIT_TOL * max(1.0, abs(best.total_profit)):
            best = sol
    return best
