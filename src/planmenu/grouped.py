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
market fails it, a dense grid scan first narrows each block's search to
the bracket around its best grid point.

Alternation alone converges only linearly.  After a round that pools
nothing, safeguarded projected-Newton steps on the 2K stationarity
system dP/d(b, t) = 0 finish the job: a coordinate on a window edge
moves only if its gradient points into the window, a step is projected
on the window and halved until it keeps the menu ascending and profit
from falling.  Every step solves with the Hessian of the menu it starts
from, and the last one is the step taken once the projected
first-order (KKT) residual is at most KKT_TOL * N.
The solver converges once that residual holds and one more round
gains at most REL_PROFIT_TOL in relative profit; a round that pools
stops the solve when profit stalls.

The profit is not jointly concave, so a solve may run several starts.
They run as one batch: each start is a row of a (starts, K) menu array,
Step I, Step II and every Newton step of a round are one lockstep call
over the rows still active, and a row leaves once it converges.  No
search, pooling or reduction crosses a row edge, so every start does
exactly the arithmetic it would do alone, and the batch costs about its
slowest start.
"""

import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .discrete import (
    DEFAULT_T_DOMAIN,
    PooledBlock,
    _cost_slopes,
    _lockstep_root,
    optimal_prices,
    repair_monotone,
    search_periods,
)
from .market import cost, valuation_dsigma2

#: Convergence: one full round improves relative profit by no more than
#: this, and (rounds that pool nothing) the projected first-order
#: residual is at most KKT_TOL times the market size.
REL_PROFIT_TOL = 1e-10
KKT_TOL = 1e-10
MAX_ROUNDS = 200
#: Newton trials (probed steps, taken or not) one start may spend over a solve.
MAX_NEWTON_STEPS = 64
#: A coordinate this close to its window edge, relative to the window
#: width, sits on the edge.
EDGE_RTOL = 1e-9
#: Points of the dense boundary scan for markets that fail the shape condition.
FALLBACK_GRID = 2000


def _whole(name, value, least):
    """value as an int; a ValueError naming it unless it is an integer
    (not a bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def group_counts(market, boundaries):
    """Consumer mass per group for ascending upper boundaries."""
    b = np.asarray(boundaries, dtype=float)
    if np.any(np.diff(b) < 0):
        raise ValueError("boundaries must be ascending")
    lows = np.concatenate(([market.sigma_min], b[:-1]))
    return market.count_between(lows, b)


def split_heaviest_group(market, boundaries):
    """The ascending boundaries with one more: the heaviest group's band
    split at its mass midpoint, G^-1 of the mean of the band's two CDF
    ends.  Every given boundary stays, so the two halves priced at the
    group's one period make the given menu again."""
    b = np.asarray(boundaries, dtype=float)
    j = int(np.argmax(group_counts(market, b)))
    G = market.cdf(np.array([market.sigma_min if j == 0 else b[j - 1], b[j]]))
    return np.sort(np.append(b, market.quantile(0.5 * (G[0] + G[1]))))


def _blocks(cost_model, periods, first, last, end=None):
    """Block j pools items first[j]..last[j] on one boundary; its boundary
    terms telescope to one, N G(s) (V(s, t_first) - V(s, t_next) + C(t_next)
    - C(t_first)) with t_next = t_{last+1}, or the outside option (V = C = 0)
    above the top item.  Periods may come in rows (shape (..., K)).  end
    is one past the top item of each block's menu (default K); flat
    indices into several menus pass the end of each block's own menu.
    Returns (own and next periods stacked on axis -2, next-item mask,
    cost step)."""
    t = np.asarray(periods, dtype=float)
    end = t.shape[-1] if end is None else end
    C = cost(cost_model, t)
    above = last + 1 < end
    nxt = np.minimum(last + 1, end - 1)
    return np.stack([t[..., first], t[..., nxt]], axis=-2), above, np.where(above, C[..., nxt], 0.0) - C[..., first]


def menu_profit(profile, cost_model, market, boundaries, periods):
    """Total profit as the sum of the boundary terms Q_k(b_k); rows of
    menus (shape (R, K)) give one profit per row."""
    t = np.atleast_1d(np.asarray(periods, dtype=float))
    items = np.arange(t.shape[-1])
    total = _boundary_slopes(profile, market, boundaries, _blocks(cost_model, t, items, items))[0].sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _boundary_slopes(profile, market, sigma, blocks):
    """Each block's boundary term Q = N G w at sigma, its slope
    Q' = N (g w + G w'), the sum of the slope's absolute terms (its
    rounding scale), its curvature Q'' = N (g' w + 2 g w' + G w''),
    G(sigma), and V_t at the block's own and next points (stacked on axis
    -2); w = V(s, t_first) - V(s, t_next) + C(t_next) - C(t_first) is the
    block's wedge (see _blocks).  sigma of shape (..., n) broadcasts
    against n blocks."""
    periods, above, dcost = blocks
    s = np.asarray(sigma, dtype=float)
    v, vs, vss, vt = valuation_dsigma2(profile, s[..., None, :], periods)
    G, g, dg = market.density(s)
    w = v[..., 0, :] - above * v[..., 1, :] + dcost
    dw = vs[..., 0, :] - above * vs[..., 1, :]
    ddw = vss[..., 0, :] - above * vss[..., 1, :]
    scale = g * (np.abs(v[..., 0, :]) + above * np.abs(v[..., 1, :]) + np.abs(dcost))
    scale += G * (np.abs(vs[..., 0, :]) + above * np.abs(vs[..., 1, :]))
    N = market.size
    return N * G * w, N * (g * w + G * dw), N * scale, N * (dg * w + 2.0 * g * dw + G * ddw), G, vt


def block_boundaries(profile, cost_model, market, periods, first, last, guess=None):
    """The boundary maximizing each block's boundary term on the market
    window, all blocks in lockstep.  Periods may come in rows (shape
    (R, K)); first and last then index the flattened periods, and "above
    the top item" means the top item of the block's own row.

    The search is _lockstep_root on the closed-form slope Q' with plain
    Newton steps on Q'' and arithmetic bisection (sigma_min may be 0).
    Under the shape condition (Theorem 3) each term is single-peaked, so
    it searches the whole window from guess (one boundary per block) or
    the window's midpoint.  A market that fails the condition first
    scans a dense grid: each block then starts from its best grid point
    and searches only between that point's two neighbours.
    """
    lo, hi = market.sigma_min, market.sigma_max
    t = np.asarray(periods, dtype=float)
    K = t.shape[-1]
    blocks = _blocks(cost_model, t.ravel(), first, last, (first // K + 1) * K)
    if market.verify_theorem3().holds:
        x = np.full(first.size, 0.5 * (lo + hi)) if guess is None else np.clip(guess, lo, hi)
    else:
        xs = np.linspace(lo, hi, FALLBACK_GRID)
        best = np.argmax(_boundary_slopes(profile, market, xs[:, None], blocks)[0], axis=0)
        x, lo, hi = xs[best], xs[np.maximum(best - 1, 0)], xs[np.minimum(best + 1, FALLBACK_GRID - 1)]

    def slopes(s):
        _, slope, scale, curvature, _, _ = _boundary_slopes(profile, market, s, blocks)
        return slope, scale, (curvature,)

    return _lockstep_root(slopes, lambda s, slope, state: s - slope / state[0], lambda a, b: 0.5 * (a + b), x, lo, hi)


def _menu_terms(profile, cost_model, market, boundaries, periods):
    """(Q_k(b_k), dP/db, dP/dt) of a menu: its boundary terms, which sum to
    total profit, and the closed-form gradient

      dP/dt_k = own_k (V_t(b_k, t_k) - C'(t_k)) + below_k (V_t(b_k, t_k) - V_t(b_{k-1}, t_k))
      dP/db_k = Q_k'(b_k)    (see _boundary_slopes)

    with own_k = N (G(b_k) - G(b_{k-1})) and below_k = N G(b_{k-1}).
    Rows of boundaries and periods (shape (..., K)) are evaluated in one
    batched call.  V_t(b_k, t_k) is boundary k's own-item point and
    V_t(b_{k-1}, t_k) boundary k-1's next-item point; item 0, whose rent
    mass is 0, takes its own.
    """
    t = np.asarray(periods, dtype=float)
    items = np.arange(t.shape[-1])
    q, d_b, _, _, G, vt = _boundary_slopes(profile, market, boundaries, _blocks(cost_model, t, items, items))
    G_below = np.concatenate([np.zeros_like(G[..., :1]), G[..., :-1]], axis=-1)
    vt_own = vt[..., 0, :]
    vt_rent = np.concatenate([vt_own[..., :1], vt[..., 1, :-1]], axis=-1)
    d_t = market.size * ((G - G_below) * (vt_own - _cost_slopes(cost_model, t)[0]) + G_below * (vt_own - vt_rent))
    return q, d_b, d_t


def _chain_residual(x, grad, lo, hi):
    """Largest feasible ascent rate of a maximization over x_1 <= ... <= x_n
    in [lo, hi], one per row of x (shape (..., n)).

    A run of equal values moves as a whole or splits (a leading part
    down, a trailing part up); a run on a window edge cannot leave it.
    For distinct interior values this is max |grad|.
    """
    edge = EDGE_RTOL * (hi - lo)
    joined = np.diff(x, axis=-1) <= 0  # item i + 1 continues the run of item i
    # each item's sum of grad from its run's first item (down) and to its
    # run's last item (up), accumulated in the order of a cumsum
    down, up = grad.copy(), grad.copy()
    if joined.any():
        for i in range(1, x.shape[-1]):
            down[..., i] = np.where(joined[..., i - 1], down[..., i - 1] + grad[..., i], grad[..., i])
        for i in range(x.shape[-1] - 2, -1, -1):
            up[..., i] = np.where(joined[..., i], up[..., i + 1] + grad[..., i], grad[..., i])
    rates = np.concatenate([np.where(x < hi - edge, up, -np.inf), np.where(x > lo + edge, -down, -np.inf)], axis=-1)
    return np.fmax.reduce(rates, axis=-1, initial=0.0)


def _menu_residual(market, b, t, d_b, d_t):
    """Projected first-order (KKT) residual of a menu: the largest rate at
    which a feasible move of the boundaries and periods raises profit.
    0 at an exact optimum.  Rows of menus give one residual per row."""
    residual = np.maximum(
        _chain_residual(b, d_b, market.sigma_min, market.sigma_max),
        _chain_residual(t, d_t, *DEFAULT_T_DOMAIN),
    )
    return float(residual) if residual.ndim == 0 else residual


def _probe(profile, cost_model, market, x, lo, hi):
    """Each row of x = (b, t) with what a Newton step from it needs, all
    from one batched _menu_terms call: (profit, gradient, free, residual,
    -H) per row.  free marks the coordinates a step may move: those off
    the window edges, and those on an edge whose gradient points into the
    window.  The residual is the largest |gradient| over them, which on a
    strictly ascending menu is its projected first-order residual (see
    _menu_residual).  -H is the symmetrized differences of the gradient,
    over all 2K coordinates: central ones for a coordinate off the edges,
    stepping by 1e-6 * max(1, |x|), at most half the distance to the
    nearer edge, and one-sided ones into the window, by
    1e-6 * max(1, |x|), for a coordinate on an edge (its copy shifted out
    of the window stays at x, so no extra point is evaluated).
    """
    K, D = x.shape[1] // 2, x.shape[1]
    edge = EDGE_RTOL * (hi - lo)
    low, high = x <= lo + edge, x >= hi - edge
    step = 1e-6 * np.maximum(1.0, np.abs(x))
    h = np.minimum(step, 0.5 * np.minimum(x - lo, hi - x))
    # shift of each coordinate's up- and down-shifted copy
    up, down = np.where(low, step, np.where(high, 0.0, h)), np.where(high, step, np.where(low, 0.0, h))
    eye = np.eye(D)
    # the menu, then D up- and D down-shifted copies
    points = np.concatenate([x[:, None, :], x[:, None, :] + eye * up[:, None, :], x[:, None, :] - eye * down[:, None, :]], axis=1)
    q, d_b, d_t = _menu_terms(profile, cost_model, market, points[..., :K], points[..., K:])
    F = np.concatenate([d_b, d_t], axis=-1)
    quotients = (F[:, 1 : D + 1] - F[:, D + 1 :]) / (up + down)[:, :, None]  # [r, j]: dF / dx_j
    grad = F[:, 0]
    free = ~(low | high) | (low & (grad > 0)) | (high & (grad < 0))
    residual = np.max(np.abs(grad), axis=1, where=free, initial=0.0)
    return q[:, 0].sum(axis=-1), grad, free, residual, -0.5 * (quotients + quotients.transpose(0, 2, 1))


def _ascending(x):
    """Whether x = (b, t) is strictly ascending in b and in t."""
    return bool((np.diff(x.reshape(2, -1)) > 0).all())


def _newton_finish(profile, cost_model, market, boundaries, periods, traces, spent):
    """Safeguarded projected-Newton steps from ascending, unpooled menus,
    one menu per row of boundaries and periods, all rows in lockstep.

    Every step moves the free coordinates (see _probe) of the current
    menu by the Newton step (-H)^-1 g of their block of the current -H
    (np.linalg.solve), once that block passes Cholesky
    (np.linalg.cholesky).  The trial menu is the step
    projected on the window and halved until the menu stays strictly
    ascending; a trial that loses more than rounding in profit is halved
    again at the row's next trial.  A full step that stays inside and
    keeps profit is taken as it is.  A row stops on its own at a menu
    whose residual is at most KKT_TOL * N, unless a step from outside
    that tolerance led there: then one more step follows, so where the
    finish stops inside the tolerance does not hang on the bits it
    started from.  It also stops when no coordinate is free, -H fails
    Cholesky, its trial would not change the menu, or it has spent
    MAX_NEWTON_STEPS trials over the solve (spent holds each row's count
    and is updated in place).  The trial menus of all rows still
    stepping are evaluated in one _probe call, which also gives each
    one's residual and its next step's Hessian.  Each row's trace gets
    the profit of the menu it starts from, checked nondecreasing, then
    each accepted one.  Returns (boundaries, periods, profit, residual,
    steps) per row, the residual measured at the returned menu.
    """
    K = boundaries.shape[1]
    lo = np.repeat([market.sigma_min, DEFAULT_T_DOMAIN[0]], K)
    hi = np.repeat([market.sigma_max, DEFAULT_T_DOMAIN[1]], K)
    tol = KKT_TOL * market.size
    x = np.concatenate([boundaries, periods], axis=1)
    profit, grad, free, residual, neg_hessian = _probe(profile, cost_model, market, x, lo, hi)
    rows = len(x)
    _extend_traces(traces, range(rows), profit)
    steps = np.zeros(rows, dtype=int)
    met = np.ones(rows, dtype=bool)  # whether each row's last step started within the tolerance; true before its first
    pending = []  # (row, full Newton step, share of it to try) of each row's next trial
    stepping = range(rows)  # rows at a new menu
    while True:
        for r in stepping:
            f = free[r]
            was_met, met[r] = met[r], residual[r] <= tol
            if (was_met and met[r]) or not f.any():
                continue
            block = neg_hessian[r][np.ix_(f, f)]
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:  # -H is not positive definite
                continue
            step = np.zeros_like(x[r])
            step[f] = np.linalg.solve(block, grad[r, f])
            pending.append((r, step, 1.0))
        moving, trials = [], []
        for r, step, share in pending:
            if spent[r] >= MAX_NEWTON_STEPS:
                continue
            trial = np.clip(x[r] + share * step, lo, hi)
            while not _ascending(trial):
                share *= 0.5
                trial = np.clip(x[r] + share * step, lo, hi)
            # a step that halves or projects to nothing ends the row
            if (trial != x[r]).any():
                moving.append((r, step, share))
                trials.append(trial)
        if not moving:
            break
        p, trial_grad, trial_free, trial_residual, trial_neg_hessian = _probe(profile, cost_model, market, np.array(trials), lo, hi)
        pending, stepping = [], []
        for i, (r, step, share) in enumerate(moving):
            spent[r] += 1
            if p[i] < profit[r] - 1e-12 * max(1.0, abs(profit[r])):
                pending.append((r, step, 0.5 * share))
                continue
            x[r], profit[r], grad[r], free[r], residual[r] = trials[i], p[i], trial_grad[i], trial_free[i], trial_residual[i]
            neg_hessian[r] = trial_neg_hessian[i]
            traces[r].append(float(p[i]))
            steps[r] += 1
            stepping.append(r)
    return x[:, :K], x[:, K:], profit, residual, steps


def _by_row(values, blocks):
    """(values, pooled blocks) of a search over rows of K items, the
    flat-indexed blocks regrouped into one list per row with in-row
    indices (the one row's list for 1-D values)."""
    K = values.shape[-1]
    rows = [[] for _ in range(values.size // K)]
    for block in blocks:
        r = block.start // K
        rows[r].append(PooledBlock(start=block.start - r * K, stop=block.stop - r * K, value=block.value))
    return values, rows if values.ndim > 1 else rows[0]


def step1_periods(profile, cost_model, market, boundaries, guess=None):
    """Optimal ascending periods for fixed boundaries: (periods, pooled blocks).

    This is the discrete problem with the boundary types as marginal
    types and the band masses as counts; the rent mass of group k is
    N*G(sigma_{k-1}).  The search starts from guess (one period per
    group) if given.  Rows of boundaries (shape (R, K)) are searched
    together, and give one list of pooled blocks per row.
    """
    b = np.atleast_1d(np.asarray(boundaries, dtype=float))
    G = np.asarray(market.cdf(b), dtype=float)
    G_lo = np.concatenate([np.zeros_like(G[..., :1]), G[..., :-1]], axis=-1)
    return _by_row(*search_periods(profile, cost_model, b, market.size * (G - G_lo), market.size * G_lo, guess))


def step2_boundaries(profile, cost_model, market, periods, guess=None):
    """Optimal ascending boundaries for fixed periods: (boundaries, pooled
    blocks), every block searched in lockstep from guess (one boundary
    per group) if given.  Rows of periods (shape (R, K)) are searched
    together, and give one list of pooled blocks per row."""
    t = np.asarray(periods, dtype=float)
    return _by_row(*repair_monotone(partial(block_boundaries, profile, cost_model, market, t), t.shape, guess))


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
    #: Final profit and KKT residual of every start of the solve, in start order.
    start_profits: List[float] = field(default_factory=list)
    start_kkt_residuals: List[float] = field(default_factory=list)

    @property
    def distinct_optima(self):
        """Number of distinct final profits among the starts, profits within
        REL_PROFIT_TOL (relative) of the next lower one counting as one."""
        p = np.sort(self.start_profits)
        return int(p.size > 0) + int(np.sum(np.diff(p) > REL_PROFIT_TOL * np.maximum(1.0, np.abs(p[1:]))))


def _collapse_empty_groups(market, boundaries, periods):
    """(boundaries, periods, counts) without the groups whose band has no mass."""
    counts = group_counts(market, boundaries)
    keep = counts > 0
    if not np.any(keep):
        keep[-1] = True
    return boundaries[keep], periods[keep], counts[keep]


def _solve_starts(profile, cost_model, market, n_groups, inits) -> List[GroupedSolution]:
    """Alternate period and boundary optimization from every start at once,
    finishing with Newton steps; one GroupedSolution per start.

    Each start (init boundaries, or None for quantile-equispaced ones) is
    one row of a (starts, K) menu array.  Every round runs Step I and
    Step II on all rows still active in one lockstep search each, and
    the Newton finish on the rows that take it; a row leaves once it
    converges.  Rows never mix: each start does exactly the arithmetic
    it would do alone, so the batch costs about its slowest start.
    """
    t3 = market.verify_theorem3()
    if not t3.holds:
        warnings.warn(
            f"market fails the boundary-unimodality condition (min slack {t3.min_slack:.3g}); "
            "falling back to dense-grid boundary searches",
            RuntimeWarning,
        )

    quantile = market.quantile((np.arange(n_groups) + 1.0) / n_groups)
    rows = [quantile if init is None else np.sort(np.asarray(init, dtype=float)) for init in inits]
    if any(row.shape != (n_groups,) for row in rows):
        raise ValueError("init_boundaries must supply one value per group")
    b = np.array(rows)

    n = len(inits)
    tol = KKT_TOL * market.size
    t = np.empty_like(b)
    traces = [[] for _ in range(n)]
    period_blocks: List[List[PooledBlock]] = [[] for _ in range(n)]
    boundary_blocks: List[List[PooledBlock]] = [[] for _ in range(n)]
    profit = np.full(n, -np.inf)
    residual = np.full(n, np.inf)  # first-order residual of the menu each row's next round starts from
    newton_steps = np.zeros(n, dtype=int)
    trials = np.zeros(n, dtype=int)  # Newton trials each row has spent
    converged = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=int)
    active = np.arange(n)
    for round_no in range(1, MAX_ROUNDS + 1):
        start_b = b[active]
        periods, p_blocks = step1_periods(profile, cost_model, market, start_b, guess=t[active] if round_no > 1 else None)
        _extend_traces(traces, active, menu_profit(profile, cost_model, market, start_b, periods))

        boundaries, b_blocks = step2_boundaries(profile, cost_model, market, periods, guess=start_b)
        pooled = np.array([bool(pb or bb) for pb, bb in zip(p_blocks, b_blocks)])
        ascending = np.all(np.diff(boundaries, axis=1) > 0, axis=1) & np.all(np.diff(periods, axis=1) > 0, axis=1)
        for i, r in enumerate(active):
            period_blocks[r], boundary_blocks[r] = p_blocks[i], b_blocks[i]
        # a row that pooled or broke ascent ends the solve once profit
        # stalls, and one whose round started from a Newton-finished menu
        # has confirmed it if profit stalls: those rows are judged by
        # their profit, and the finish takes the rest's from its first probe
        settle = pooled | ~ascending
        judged = settle | (residual[active] <= tol)
        p2 = np.full(active.size, np.nan)
        if judged.any():
            p2[judged] = menu_profit(profile, cost_model, market, boundaries[judged], periods[judged])
        stalled = p2 - profit[active] <= REL_PROFIT_TOL * np.maximum(1.0, np.abs(p2))
        rows = active[settle]
        b[rows], t[rows] = boundaries[settle], periods[settle]
        converged[rows], profit[rows], residual[rows] = stalled[settle], p2[settle], np.inf
        # a confirmed row keeps the menu it started from in b[r], t[r]
        done = settle | (judged & stalled)
        converged[active[done & ~settle]] = True
        _extend_traces(traces, active[done], p2[done])
        if not done.all():
            finish = ~done
            rows = active[finish]
            spent = trials[rows]
            b[rows], t[rows], profit[rows], residual[rows], steps = _newton_finish(
                profile, cost_model, market, boundaries[finish], periods[finish], [traces[r] for r in rows], spent
            )
            trials[rows] = spent
            newton_steps[rows] += steps
        rounds[active] = round_no
        active = active[~converged[active]]
        if not active.size:
            break

    edge_tol = EDGE_RTOL * (market.sigma_max - market.sigma_min)
    solutions = []
    for r in range(n):
        edge_hits = [int(k) for k, s in enumerate(b[r]) if s >= market.sigma_max - edge_tol or s <= market.sigma_min + edge_tol]
        boundaries, periods, counts = _collapse_empty_groups(market, b[r], t[r])
        # accounting identity: group masses times chain-price margins equal the boundary terms
        prices = optimal_prices(profile, boundaries, periods)
        direct = float(np.dot(counts, prices - cost(cost_model, periods)))
        if np.isfinite(residual[r]) and counts.size == n_groups:
            # the Newton finish's last probe evaluated this very menu
            terms, kkt = profit[r], residual[r]
        else:
            q, d_b, d_t = _menu_terms(profile, cost_model, market, boundaries, periods)
            terms, kkt = q.sum(), _menu_residual(market, boundaries, periods, d_b, d_t)
        if abs(direct - float(terms)) > 1e-8 * max(1.0, abs(direct)):
            raise RuntimeError("profit accounting mismatch between price chain and boundary terms")
        solutions.append(
            GroupedSolution(
                boundaries=boundaries,
                periods=periods,
                prices=prices,
                counts=counts,
                total_profit=direct,
                iterations=int(rounds[r]),
                converged=bool(converged[r]),
                profit_trace=traces[r],
                pooled_period_blocks=period_blocks[r],
                pooled_boundary_blocks=boundary_blocks[r],
                boundary_edge_hits=edge_hits,
                theorem3_ok=t3.holds,
                requested_groups=n_groups,
                kkt_residual=float(kkt),
                newton_steps=int(newton_steps[r]),
                start_profits=[direct],
                start_kkt_residuals=[float(kkt)],
            )
        )
    return solutions


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
    the first-order residual down, shortened where a full step would
    leave the window, break ascent or lose profit, and moving a
    coordinate off a window edge where its gradient points inward (see
    _newton_finish); the solve converges once that
    residual is at most KKT_TOL * market.size, both before and after a
    round that gains no more than REL_PROFIT_TOL in relative profit.  A
    round that pools stops the solve when profit stalls, and MAX_ROUNDS
    rounds stop it unconverged.  The profit trace is checked
    nondecreasing at each half-step.  This is the one-start case of the
    batched solve that solve_with_restarts runs.
    """
    return _solve_starts(profile, cost_model, market, _whole("n_groups", n_groups, 1), [init_boundaries])[0]


def _extend_traces(traces, rows, profits):
    """Append each row's profit to its trace, checked nondecreasing."""
    for trace, new in zip((traces[r] for r in rows), profits.tolist()):
        if trace and new < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
            raise RuntimeError(f"profit decreased during alternation: {trace[-1]} -> {new}")
        trace.append(new)


def _start_inits(market, n_groups, restarts, seed, extra_inits):
    """The starts of a restart solve, in order: the quantile start (None),
    any extra starts, then the seeded restarts (quantile-transformed
    uniforms, so restarts respect the type distribution)."""
    inits: List[Optional[np.ndarray]] = [None]
    if extra_inits:
        inits.extend(np.asarray(b, dtype=float) for b in extra_inits)
    if restarts:
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            u = np.sort(rng.random(n_groups))
            inits.append(np.atleast_1d(market.quantile(u)))
    return inits


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
    type distribution).  All starts are solved together as one batch
    (see _solve_starts), each exactly as it would be alone, so the solve
    costs about its slowest start rather than the sum.  Deterministic for
    a fixed seed: a later start replaces the best so far only if it
    gains more than REL_PROFIT_TOL in relative profit, so rounding noise
    never picks the winner.  The returned solution records every start's
    final profit and residual (start_profits, start_kkt_residuals)."""
    n_groups, restarts = _whole("n_groups", n_groups, 1), _whole("restarts", restarts, 0)
    solutions = _solve_starts(profile, cost_model, market, n_groups, _start_inits(market, n_groups, restarts, seed, extra_inits))
    best = solutions[0]
    for sol in solutions[1:]:
        if sol.total_profit - best.total_profit > REL_PROFIT_TOL * max(1.0, abs(best.total_profit)):
            best = sol
    best.start_profits = [sol.total_profit for sol in solutions]
    best.start_kkt_residuals = [sol.kkt_residual for sol in solutions]
    return best
