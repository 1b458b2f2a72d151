"""Menu design for a continuum of types: group, price, iterate.

With continuously distributed volatility the provider offers K items;
item k serves the type band (sigma_{k-1}, sigma_k].  Profit is the
market size N times one consumer's expected margin, and that splits
into one term per boundary,

    Q_k(s) = G(s) * (V(s, t_k) - V(s, t_{k+1}) + C(t_{k+1}) - C(t_k)),
    Q_K(s) = G(s) * (V(s, t_K) - C(t_K)),

so boundaries interact only through the ascending constraint, exactly
like periods do.  N enters neither the terms nor IC and IR, so the
whole search runs per unit mass, and N scales the counts, profits and
residuals of each finished menu once, at the end.  The solver
alternates two half-steps:

  Step I   periods given boundaries: the discrete solver's lockstep
           Newton-bisection period search, warm-started from the last
           round's periods, plus ascending repair (pooling);
  Step II  boundaries given periods: the same lockstep Newton-bisection
           on every block's closed-form slope Q', with cubic
           interpolation where a Newton step leaves the bracket or
           overshoots, warm-started from the last round's boundaries,
           plus ascending repair (pooling).

Each half-step maximizes the exact same total profit in its own block
of coordinates, so the profit trace is nondecreasing.  Unimodality of
Q_k is guaranteed by the market shape condition (see
distributions.theorem3_condition), so Q_k' changes sign once.  Every
density family satisfies it on every window, as the distributions
module proves, so Step II checks nothing; `planmenu check-dist`
reports the condition for a scenario.

Alternation alone converges only linearly.  After a round that ends on
a strictly ascending menu (so pools nothing), safeguarded
projected-Newton steps on the 2K stationarity system dP/d(b, t) = 0
finish the job: a coordinate on a window edge moves only if its
gradient points into the window, a step is projected on the window and
halved until it keeps the menu ascending and profit from falling.
Every step solves with the Hessian of the menu it starts from, and the
last one is the step taken once the projected first-order (KKT)
residual is at most KKT_TOL.  The finish holds each menu as one array
x = (b, t) of 2K coordinates, with one definition of each fact about
it: _window gives every coordinate's window (the market window for a
boundary, DEFAULT_T_DOMAIN for a period), _on_edges says which
coordinates sit on an edge (within EDGE_RTOL of the window's width,
for the Newton step's free coordinates, the residual and the reported
boundary edge hits), and _menu_residual is the residual, one scan over
both chains as the two rows of a (..., 2, K) view, so no run of equal
values joins b_K and t_1.
Each round either settles, as it ends on a menu not strictly ascending
(every round that pools does), and stops its start once it gains at
most REL_PROFIT_TOL in relative profit; or takes the Newton finish, and
stops its start once the finish ends within KKT_TOL.  MAX_ROUNDS rounds
stop a start in any case.  Whatever stopped it, a solution is converged
exactly when the residual of the menu it returns is at most KKT_TOL per
unit mass, the residual certificate.json reports.  A group serves no
one unless its mass per unit exceeds machine epsilon, one rounding of
G, and a best menu that serves fewer than K groups is re-solved from
its own boundaries (see solve_with_restarts).

The profit is not jointly concave, so a solve may run several starts:
the quantile start, one warm start such as a sweep's previous menu, and
seeded restarts, whose uniforms come from the standard library's
Mersenne Twister (random.Random(seed)), so drawing them loads neither
numpy.random nor the hashing modules it imports.  _start_inits makes
and checks every start, as one row of a (starts, K) menu array.  The
starts run as one batch: Step I, Step II and every Newton step of a
round are one lockstep call over the rows still active, and a row
leaves once it stops.  No search, pooling or reduction crosses a
row edge, so every start does exactly the arithmetic it would do alone,
and the batch costs about its slowest start.
"""

import numbers
import random
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import List

import numpy as np

from .discrete import _lockstep_root, optimal_prices, repair_monotone, search_periods
from .market import DEFAULT_T_DOMAIN, _cost_slopes, cost, valuation_dsigma2

#: A settled round stops its start once it improves relative profit by no
#: more than REL_PROFIT_TOL, which is also the gain a later start needs to
#: replace the best one; a solution is converged once the projected
#: first-order residual per unit mass of its menu is at most KKT_TOL.
REL_PROFIT_TOL = 1e-10
KKT_TOL = 1e-10
MAX_ROUNDS = 200
#: Newton trials (probed steps, taken or not) one start may spend over a solve.
MAX_NEWTON_STEPS = 64
#: A coordinate this close to its window edge, relative to the window
#: width, sits on the edge.
EDGE_RTOL = 1e-9
#: Most values one unit of work may hold: a grid oracle's DP table
#: (cells, 8 bytes each), or the coordinates of the menus one Newton
#: probe of a grouped solve's starts values (see _start_inits).
TUPLE_BUDGET = 1e8


def _whole(name, value, least):
    """value as an int; a ValueError naming it unless it is an integer
    (not a bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def group_counts(market, boundaries):
    """Probability mass per group for ascending upper boundaries, the
    differences of one market.cdf call on [sigma_min, b_1, ..., b_K];
    rows of boundaries (shape (R, K)) give one row of masses each."""
    b = np.asarray(boundaries, dtype=float)
    if np.any(np.diff(b) < 0):
        raise ValueError("boundaries must be ascending")
    G = market.cdf(np.concatenate([np.full_like(b[..., :1], market.sigma_min), b], axis=-1))
    return np.diff(G)


def split_heaviest_group(market, boundaries):
    """The ascending boundaries with one more: the heaviest group's band
    split at its mass midpoint, G^-1 of the mean of the band's two CDF
    ends.  Every given boundary stays, so the two halves priced at the
    group's one period make the given menu again."""
    b = np.asarray(boundaries, dtype=float)
    G = market.cdf(np.concatenate([[market.sigma_min], b]))
    j = int(np.argmax(np.diff(G)))
    return np.sort(np.append(b, market.quantile(0.5 * (G[j] + G[j + 1]))))


def _blocks(cost_model, periods, first, last, end=None):
    """Block j pools items first[j]..last[j] on one boundary; its boundary
    terms telescope to one, G(s) (V(s, t_first) - V(s, t_next) + C(t_next)
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
    """Profit per unit mass, the sum of the boundary terms Q_k(b_k) of
    _menu_terms; rows of menus (shape (R, K)) give one profit per row."""
    return _menu_terms(profile, cost_model, market, boundaries, periods)[0].sum(axis=-1)


def _boundary_slopes(profile, market, sigma, blocks):
    """Each block's boundary term Q = G w at sigma, its slope
    Q' = g w + G w', the sum of the slope's absolute terms (its
    rounding scale), its curvature Q'' = g' w + 2 g w' + G w'',
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
    return G * w, g * w + G * dw, scale, dg * w + 2.0 * g * dw + G * ddw, G, vt


def block_boundaries(profile, cost_model, market, periods, first, last, guess=None):
    """The boundary maximizing each block's boundary term on the market
    window, all blocks in lockstep.  Periods may come in rows (shape
    (R, K)); first and last then index the flattened periods, and "above
    the top item" means the top item of the block's own row.

    The search is _lockstep_root on the closed-form slope Q' with Newton
    steps on Q'', its cubic rules (a step that would leave the bracket or
    that follows an overshoot goes to the root of the cubic through both
    bracket ends, and an item stops once quadratic convergence puts its
    next step within tolerance) and arithmetic bisection (sigma_min may
    be 0).  The cubic rules matter near sigma_min = 0, where V is flat
    to every order in sigma (its sigma-derivatives carry phi(a) with
    a ~ 1/sigma): Q'' there says little about where Q' turns, so a
    Newton step from a start near the floor can land far past the root.
    Each term is single-peaked under the shape condition (Theorem 3),
    which every density family satisfies on every window (proved in
    distributions; `planmenu check-dist` reports it), so the search
    checks nothing and searches the whole window from guess (one boundary
    per block) or the window's midpoint.  A point with no representable
    mass below it, where G and g underflow and the slope and its scale
    are both exactly 0, counts as below the peak.
    """
    lo, hi = market.sigma_min, market.sigma_max
    t = np.asarray(periods, dtype=float)
    K = t.shape[-1]
    blocks = _blocks(cost_model, t.ravel(), first, last, (first // K + 1) * K)
    x = np.full(first.size, 0.5 * (lo + hi)) if guess is None else np.clip(guess, lo, hi)

    def slopes(s):
        _, slope, scale, curvature, _, _ = _boundary_slopes(profile, market, s, blocks)
        return np.where(scale > 0, slope, 1.0), scale, (curvature,)

    return _lockstep_root(
        slopes, lambda s, slope, state: s - slope / state[0], lambda a, b: 0.5 * (a + b), x, lo, hi, cubic=True
    )


def _menu_terms(profile, cost_model, market, boundaries, periods):
    """(Q_k(b_k), dP/dx) of a menu x = (b, t): its boundary terms, which sum
    to total profit, and the closed-form gradient, dP/db then dP/dt,

      dP/dt_k = own_k (V_t(b_k, t_k) - C'(t_k)) + below_k (V_t(b_k, t_k) - V_t(b_{k-1}, t_k))
      dP/db_k = Q_k'(b_k)    (see _boundary_slopes)

    with own_k = G(b_k) - G(b_{k-1}) and below_k = G(b_{k-1}), all per
    unit mass.
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
    d_t = (G - G_below) * (vt_own - _cost_slopes(cost_model, t)[0]) + G_below * (vt_own - vt_rent)
    return q, np.concatenate([d_b, d_t], axis=-1)


def _window(market, K):
    """(lo, hi) of a K-group menu x = (b, t), one bound per coordinate: the
    market window for each boundary and DEFAULT_T_DOMAIN for each period."""
    return np.repeat([market.sigma_min, DEFAULT_T_DOMAIN[0]], K), np.repeat([market.sigma_max, DEFAULT_T_DOMAIN[1]], K)


def _on_edges(x, lo, hi):
    """(low, high): whether each coordinate of x sits on the lower or the
    upper edge of its window [lo, hi], within EDGE_RTOL of its width."""
    edge = EDGE_RTOL * (hi - lo)
    return x <= lo + edge, x >= hi - edge


def _chains(x):
    """Menus x = (b, t) of shape (..., 2K) as their two chains, b and t, on
    axis -2: a (..., 2, K) view."""
    return x.reshape(x.shape[:-1] + (2, -1))


def _menu_residual(x, grad, lo, hi):
    """Projected first-order (KKT) residual of menus x = (b, t) (shape
    (..., 2K)) in the window (lo, hi) of _window, given the profit gradient:
    the largest rate at which a feasible move raises profit, 0 at an exact
    optimum, one per row.

    Both chains are scanned at once, and neither reaches into the other.
    In each, a run of equal values moves as a whole or splits (a leading
    part down, a trailing part up), and a run on a window edge cannot leave
    it.  For distinct interior values this is max |grad|.
    """
    low, high, x, grad = map(_chains, (*_on_edges(x, lo, hi), x, grad))
    joined = x[..., 1:] <= x[..., :-1]  # item i + 1 continues the run of item i
    # each item's sum of grad from its run's first item (down) and to its
    # run's last item (up), accumulated in the order of a cumsum
    down = up = grad
    if joined.any():
        down, up = grad.copy(), grad.copy()
        for i in range(1, x.shape[-1]):
            down[..., i] = np.where(joined[..., i - 1], down[..., i - 1] + grad[..., i], grad[..., i])
        for i in range(x.shape[-1] - 2, -1, -1):
            up[..., i] = np.where(joined[..., i], up[..., i + 1] + grad[..., i], grad[..., i])
    rates = np.concatenate([np.where(high, -np.inf, up), np.where(low, -np.inf, -down)], axis=-1)
    # reduced chain by chain, then across the two chains: one fmax pass over
    # both can give a zero residual the other sign
    return np.fmax.reduce(rates, axis=-1, initial=0.0).max(axis=-1)


def _probe(profile, cost_model, market, x, lo, hi):
    """Each row of x = (b, t) with what a Newton step from it needs, all
    from one batched _menu_terms call: (profit, gradient, free, residual,
    -H) per row.  free marks the coordinates a step may move: those off
    the window edges, and those on an edge whose gradient points into the
    window.  The residual is _menu_residual of the gradient, and on a
    strictly ascending menu free marks exactly the coordinates whose
    |gradient| it counts.  -H is the symmetrized differences of the
    gradient, over all 2K coordinates: central ones for a coordinate off
    the edges, stepping by 1e-6 * max(1, |x|), at most half the distance
    to the nearer edge, and one-sided ones into the window, by
    1e-6 * max(1, |x|), for a coordinate on an edge (its copy shifted out
    of the window stays at x, so no extra point is evaluated).
    """
    K, D = x.shape[1] // 2, x.shape[1]
    low, high = _on_edges(x, lo, hi)
    step = 1e-6 * np.maximum(1.0, np.abs(x))
    h = np.minimum(step, 0.5 * np.minimum(x - lo, hi - x))
    # shift of each coordinate's up- and down-shifted copy
    up, down = np.where(low, step, np.where(high, 0.0, h)), np.where(high, step, np.where(low, 0.0, h))
    eye = np.eye(D)
    # the menu, then D up- and D down-shifted copies
    points = np.concatenate([x[:, None, :], x[:, None, :] + eye * up[:, None, :], x[:, None, :] - eye * down[:, None, :]], axis=1)
    q, F = _menu_terms(profile, cost_model, market, points[..., :K], points[..., K:])
    quotients = (F[:, 1 : D + 1] - F[:, D + 1 :]) / (up + down)[:, :, None]  # [r, j]: dF / dx_j
    grad = F[:, 0]
    free = ~(low | high) | (low & (grad > 0)) | (high & (grad < 0))
    return q[:, 0].sum(axis=-1), grad, free, _menu_residual(x, grad, lo, hi), -0.5 * (quotients + quotients.transpose(0, 2, 1))


def _ascending(x):
    """Whether each menu x = (b, t), one per row, is strictly ascending in b
    and in t."""
    return np.all(np.diff(_chains(x)) > 0, axis=(-2, -1))


def _newton_finish(profile, cost_model, market, menus, traces, spent):
    """Safeguarded projected-Newton steps from ascending, unpooled menus
    x = (b, t), one per row of menus (shape (R, 2K)), all rows in lockstep.

    Every step moves the free coordinates (see _probe) of the current
    menu by the Newton step (-H)^-1 g of their block of the current -H
    (np.linalg.solve), once that block passes Cholesky
    (np.linalg.cholesky).  The trial menu is the step
    projected on the window and halved until the menu stays strictly
    ascending; a trial that loses more than rounding in profit is halved
    again at the row's next trial.  A full step that stays inside and
    keeps profit is taken as it is.  Profits and residuals are per unit
    mass.  A row stops on its own at a menu whose residual is at most
    KKT_TOL, unless a step from outside that tolerance led there: then
    one more step follows, so where the finish stops inside the
    tolerance does not hang on the bits it started from.  It also stops when no coordinate is free, -H fails
    Cholesky, its trial would not change the menu, or it has spent
    MAX_NEWTON_STEPS trials over the solve (spent holds each row's count
    so far).  The trial menus of all rows still
    stepping are evaluated in one _probe call, which also gives each
    one's residual and its next step's Hessian.  Each row's trace gets
    the profit of the menu it starts from, checked nondecreasing, then
    each accepted one.  Returns (menus, profit, residual, steps, trials
    spent) per row, the residual measured at the returned menu.
    """
    x = np.array(menus, dtype=float)
    lo, hi = _window(market, x.shape[1] // 2)
    profit, grad, free, residual, neg_hessian = _probe(profile, cost_model, market, x, lo, hi)
    rows = len(x)
    _extend_traces(traces, range(rows), profit)
    steps, spent = np.zeros(rows, dtype=int), np.array(spent)
    met = np.ones(rows, dtype=bool)  # whether each row's last step started within the tolerance; true before its first
    pending = []  # (row, full Newton step, share of it to try) of each row's next trial
    stepping = range(rows)  # rows at a new menu
    while True:
        for r in stepping:
            f = free[r]
            was_met, met[r] = met[r], residual[r] <= KKT_TOL
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
    return x, profit, residual, steps, spent


def step1_periods(profile, cost_model, market, boundaries, guess=None):
    """Optimal ascending periods for fixed boundaries.

    This is the discrete problem per unit mass, with the boundary types
    as marginal types and the band probabilities as counts; the rent
    mass of group k is G(sigma_{k-1}).  The search starts from guess
    (one period per group) if given.  Rows of boundaries (shape (R, K))
    are searched together and give one row of periods each; a pooled
    block shows as a run of equal periods.
    """
    b = np.atleast_1d(np.asarray(boundaries, dtype=float))
    G = np.asarray(market.cdf(b), dtype=float)
    G_lo = np.concatenate([np.zeros_like(G[..., :1]), G[..., :-1]], axis=-1)
    return search_periods(profile, cost_model, b, G - G_lo, G_lo, guess)[0]


def step2_boundaries(profile, cost_model, market, periods, guess=None):
    """Optimal ascending boundaries for fixed periods, every block searched
    in lockstep from guess (one boundary per group) if given.  Rows of
    periods (shape (R, K)) are searched together and give one row of
    boundaries each; a pooled block shows as a run of equal boundaries,
    whose groups above the first are empty, and the solve drops them."""
    t = np.asarray(periods, dtype=float)
    return repair_monotone(partial(block_boundaries, profile, cost_model, market, t), t.shape, guess)[0]


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
    boundary_edge_hits: List[int] = field(default_factory=list)
    requested_groups: int = 0
    kkt_residual: float = float("nan")
    newton_steps: int = 0
    #: Final profit and KKT residual of every start of the solve, in start
    #: order, then of each re-solve of a short stop (see solve_with_restarts).
    start_profits: List[float] = field(default_factory=list)
    start_kkt_residuals: List[float] = field(default_factory=list)

    @property
    def distinct_optima(self):
        """Number of distinct final profits among the starts, a profit within
        REL_PROFIT_TOL of itself above the next lower one counting as one."""
        p = np.sort(self.start_profits)
        return int(p.size > 0) + int(np.sum(np.diff(p) > REL_PROFIT_TOL * np.abs(p[1:])))


def _solve_starts(profile, cost_model, market, starts) -> List[GroupedSolution]:
    """Alternate period and boundary optimization from every row of starts
    (shape (starts, K), made by _start_inits, or by _split_to for the
    short-stop re-solve) at once, finishing with
    Newton steps; one GroupedSolution per row.

    Every round runs Step I and Step II on all rows still active in one
    lockstep search each, and the Newton finish on the rows that do not
    settle; a row leaves once it stops (see the module docstring).  Each
    solution's converged is its returned menu's residual within KKT_TOL,
    however the row stopped.  Rows never mix: each start does
    exactly the arithmetic it would do alone, so the batch costs about
    its slowest start.  The search runs per unit mass; each solution's
    counts, profits and residuals are then scaled by the market size.
    """
    starts = np.array(starts, dtype=float)
    n, n_groups = starts.shape
    x = np.concatenate([starts, np.empty_like(starts)], axis=1)  # each row's menu (b, t)
    traces = [[] for _ in range(n)]
    profit = np.full(n, -np.inf)
    residual = np.full(n, np.inf)  # first-order residual of each row's Newton-finished menu; inf once a round settles
    newton_steps = np.zeros(n, dtype=int)
    trials = np.zeros(n, dtype=int)  # Newton trials each row has spent
    stopped = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=int)
    active = np.arange(n)
    for round_no in range(1, MAX_ROUNDS + 1):
        start_b = x[active, :n_groups]
        periods = step1_periods(profile, cost_model, market, start_b, guess=x[active, n_groups:] if round_no > 1 else None)
        _extend_traces(traces, active, menu_profit(profile, cost_model, market, start_b, periods))

        boundaries = step2_boundaries(profile, cost_model, market, periods, guess=start_b)
        # a round that breaks strict ascent (every pooled block does)
        # settles, and stops its row once profit stalls; every other round
        # takes the Newton finish, and stops its row once the finish ends
        # within KKT_TOL
        menus = np.concatenate([boundaries, periods], axis=1)
        settle = ~_ascending(menus)
        if settle.any():
            rows = active[settle]
            p2 = menu_profit(profile, cost_model, market, boundaries[settle], periods[settle])
            stopped[rows] = p2 - profit[rows] <= REL_PROFIT_TOL * np.maximum(1.0, np.abs(p2))
            x[rows], profit[rows], residual[rows] = menus[settle], p2, np.inf
            _extend_traces(traces, rows, p2)
        if not settle.all():
            rows = active[~settle]
            x[rows], profit[rows], residual[rows], steps, trials[rows] = _newton_finish(
                profile, cost_model, market, menus[~settle], [traces[r] for r in rows], trials[rows]
            )
            newton_steps[rows] += steps
            stopped[rows] = residual[rows] <= KKT_TOL
        rounds[active] = round_no
        active = active[~stopped[active]]
        if not active.size:
            break

    on_edge = np.logical_or(*_on_edges(x, *_window(market, n_groups)))[:, :n_groups]
    N = market.size
    solutions = []
    for r in range(n):
        # the groups whose band has more mass per unit than one rounding of
        # G; a menu that serves no one keeps its top group
        mass = group_counts(market, x[r, :n_groups])
        keep = mass > np.finfo(float).eps
        keep[-1] |= not keep.any()
        menu, mass = _chains(x[r])[:, keep], mass[keep]
        boundaries, periods = menu
        # accounting identity: group masses times chain-price margins equal the boundary terms
        prices = optimal_prices(profile, boundaries, periods)
        direct = float(np.dot(mass, prices - cost(cost_model, periods)))
        if np.isfinite(residual[r]) and mass.size == n_groups:
            # the Newton finish's last probe evaluated this very menu
            terms, kkt = profit[r], residual[r]
        else:
            q, grad = _menu_terms(profile, cost_model, market, boundaries, periods)
            terms, kkt = q.sum(), _menu_residual(menu.ravel(), grad, *_window(market, mass.size))
        if abs(direct - float(terms)) > 1e-8 * max(1.0, abs(direct)):
            raise RuntimeError("profit accounting mismatch between price chain and boundary terms")
        solutions.append(
            GroupedSolution(
                boundaries=boundaries,
                periods=periods,
                prices=prices,
                counts=N * mass,
                total_profit=N * direct,
                iterations=int(rounds[r]),
                converged=bool(kkt <= KKT_TOL),
                profit_trace=[N * p for p in traces[r]],
                boundary_edge_hits=np.flatnonzero(on_edge[r]).tolist(),
                requested_groups=n_groups,
                kkt_residual=N * float(kkt),
                newton_steps=int(newton_steps[r]),
                start_profits=[N * direct],
                start_kkt_residuals=[N * float(kkt)],
            )
        )
    return solutions


def solve_alternating(profile, cost_model, market, n_groups) -> GroupedSolution:
    """The one-start solve: solve_with_restarts from the quantile start
    alone, with its re-solve of a short stop."""
    return solve_with_restarts(profile, cost_model, market, n_groups)


def _extend_traces(traces, rows, profits):
    """Append each row's profit to its trace, checked nondecreasing."""
    for trace, new in zip((traces[r] for r in rows), profits.tolist()):
        if trace and new < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
            raise RuntimeError(f"profit decreased during alternation: {trace[-1]} -> {new}")
        trace.append(new)


def _split_to(market, boundaries, K):
    """The boundaries sorted, their heaviest group split
    (split_heaviest_group) until there are K, so every given one stays."""
    return reduce(lambda b, _: split_heaviest_group(market, b), range(K - len(boundaries)), np.sort(boundaries))


def _check_solve_size(K, restarts, warm):
    """A ValueError naming K and restarts if the Newton probe of a K-group
    solve from the quantile start, a warm start if warm (a bool) is true
    and the restarts, (starts) x (4K + 1) x 2K values, would exceed
    TUPLE_BUDGET."""
    # a Newton probe values each start's menu and its 4K shifted copies at 2K coordinates
    if (1 + warm + restarts) * (4 * K + 1) * 2 * K > TUPLE_BUDGET:
        raise ValueError(f"n_groups = {K} with restarts = {restarts} exceeds the work budget ({TUPLE_BUDGET:.0e} values per Newton probe)")


def _start_inits(market, n_groups, restarts, seed, warm):
    """Every start of a grouped solve, as one (starts, K) array whose rows
    are, in order:

      the quantile start, boundaries at the quantiles k / K;
      the warm start, the boundaries of one menu such as a sweep's
        previous one, if warm is not None, sorted and split up to K
        groups (_split_to), so it keeps every boundary it was given; one
        with none or more than K is a ValueError naming it;
      the seeded restarts, quantile-transformed uniforms, so restarts
        respect the type distribution.  Each takes its K sorted uniforms
        in turn from one random.Random(seed), so a seed gives the same
        starts on every call.

    n_groups must be an integer >= 1, and restarts and seed integers >= 0
    (random.Random would draw a fresh seed for None, take -1 as 1 and
    hash a float or a string); anything else is a ValueError naming it.
    So is a solve too large for the work budget (see _check_solve_size):
    it is refused before any row is made."""
    K, restarts, seed = _whole("n_groups", n_groups, 1), _whole("restarts", restarts, 0), _whole("seed", seed, 0)
    _check_solve_size(K, restarts, warm is not None)
    rows = [market.quantile((np.arange(K) + 1.0) / K)]
    if warm is not None:
        b = np.asarray(warm, dtype=float)
        if b.ndim != 1 or not 0 < b.size <= K:
            raise ValueError(f"warm start {b.tolist()} must hold 1 to n_groups = {K} boundaries")
        rows.append(_split_to(market, b, K))
    rng = random.Random(seed)
    for _ in range(restarts):
        rows.append(market.quantile(np.sort([rng.random() for _ in range(K)])))
    return np.array(rows)


def solve_with_restarts(profile, cost_model, market, n_groups, restarts=0, seed=0, warm=None) -> GroupedSolution:
    """Best of the starts _start_inits makes: the quantile start, the warm
    start (the boundaries of one menu) if given, then the seeded
    restarts.  All starts are solved together as one batch (see
    _solve_starts), each exactly as it would be alone, so the solve costs
    about its slowest start rather than the sum.  Deterministic, as the
    seed is always an integer (0 by default): a later start replaces the
    best so far only if it gains more than REL_PROFIT_TOL of the best's
    profit, so neither rounding noise nor the market size picks the
    winner.  A best menu that serves fewer than n_groups groups has
    stopped short, and is solved once more, alone, from its own
    boundaries split up to n_groups groups (_split_to, as a warm start
    is); the first solve already passed the work budget for one start
    of n_groups.  The re-solve replaces it on the same
    rule, and one that wins but still stops short is re-solved in turn,
    at most once per group the best start left unserved: a menu that
    serves no one splits into a start with every boundary on sigma_min,
    whose solve may serve one group where the next re-solve serves them
    all.  The returned solution records every start's final profit and
    residual (start_profits, start_kkt_residuals), the re-solves' last,
    in order."""

    def pick(best, sol):
        return sol if sol.total_profit - best.total_profit > REL_PROFIT_TOL * abs(best.total_profit) else best

    solutions = _solve_starts(profile, cost_model, market, _start_inits(market, n_groups, restarts, seed, warm))
    best = reduce(pick, solutions)
    for _ in range(n_groups - np.count_nonzero(best.counts)):
        solutions += _solve_starts(profile, cost_model, market, [_split_to(market, best.boundaries, n_groups)])
        best, last = pick(best, solutions[-1]), best
        if best is last or np.count_nonzero(best.counts) == n_groups:
            break
    best.start_profits = [sol.total_profit for sol in solutions]
    best.start_kkt_residuals = [sol.kkt_residual for sol in solutions]
    return best
