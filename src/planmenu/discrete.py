"""Optimal menu design for finitely many consumer types.

The provider offers one (period, price) item per type.  With types
ascending in volatility, feasibility (every consumer prefers her own
item and participates) reduces to four checks: periods ascend, the top
price leaves the top type at zero utility or better, and each adjacent
price gap is sandwiched between the two types' valuation drops.  At the
profit maximum the price chain telescopes down from the top type's
valuation, and the provider's profit separates into one concave
objective per type:

    P_i(t) = N_i * (V(sigma_i, t) - C(t))
             + (sum of counts below i) * (V(sigma_i, t) - V(sigma_i-1, t))

The second term is the information rent every lower type extracts when
type i's item grows more attractive.  Maximizing each P_i alone can
break the ascending-period requirement; the repair step pools adjacent
violators onto one shared period (the pooled objective is the block
sum), which is exactly the constrained optimum.  Every type and every
pooled block is searched at once, by a safeguarded Newton-bisection on
the closed-form slope P_i'(t).

solve_discrete searches two rows in that one lockstep: the menu, and
the social first-best (one buyer per type and no rent, so each type's
period maximizes V(sigma_i, t) - C(t)), which the welfare accounting in
oracles.social_metrics reads off the solution.
"""

import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .market import DEFAULT_T_DOMAIN, _cost_slopes, _dt_dtt, _types, cost, valuation

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0

#: Golden-section searches stop once the bracket is this fraction of the
#: starting interval (~50 iterations).
ARG_RTOL = 1e-10
#: Period searches stop once a Newton step or the sign bracket is
#: STEP_RTOL of t, or the slope is within SLOPE_RTOL of the sum of its
#: absolute terms (16 roundings: its floating-point floor).
STEP_RTOL = 1e-12
SLOPE_RTOL = 16 * np.finfo(float).eps
#: Newton steps on the interpolating cubic per _hermite_root call.
HERMITE_STEPS = 6
#: Roundoff allowance of the menu checks: feasibility here, IC/IR in oracles.
FEASIBILITY_TOL = 1e-9


def golden_section_max(f, lo, hi):
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (argmax, value), the argmax to ARG_RTOL of the interval width.
    """
    if not (hi > lo):
        raise ValueError("need lo < hi")
    a, b = float(lo), float(hi)
    h = b - a
    tol = ARG_RTOL * h
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc = f(c)
    fd = f(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass
class PooledBlock:
    """A run of menu positions forced onto one shared decision value."""

    start: int  # first index in the run (0-based, inclusive)
    stop: int  # last index (inclusive)
    value: float  # the shared argmax


def repair_monotone(solve_blocks, shape, guess=None) -> Tuple[np.ndarray, List[PooledBlock]]:
    """Ascending joint maximizer of sum_i f_i(x_i) s.t. x_1 <= ... <= x_n.

    shape is n (one row) or (rows, n), independent rows solved together:
    item i of the flattened values belongs to row i // n, and no descent
    is counted, nor any block pooled, across a row edge.
    solve_blocks(first, last, guess) maximizes, for each block j, the
    summed objective of flat indices first[j]..last[j] (from guess[j]
    where the solver can use one; guess may be None) and returns one
    argmax per block.  Starts from the unconstrained argmaxes; while any
    strict descent remains, pools every maximal nonincreasing run of
    blocks that contains one and re-solves all new blocks in one call,
    each from the midpoint of its run.  Returns the values in `shape`
    plus the blocks that ended up pooled, in flat indices.
    """
    n = shape[-1] if np.ndim(shape) else shape
    first = np.arange(int(np.prod(shape)))
    last = first.copy()
    row = first // n
    x = np.asarray(solve_blocks(first, last, None if guess is None else np.ravel(guess)), dtype=float)
    while True:
        same = row[:-1] == row[1:]
        drop, run = (x[:-1] > x[1:]) & same, (x[:-1] >= x[1:]) & same
        if not drop.any():
            break
        # maximal runs of nonincreasing gaps between adjacent blocks of a row
        edges = np.diff(np.concatenate(([0], run.astype(np.int8), [0])))
        lead, tail = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        strict = np.add.reduceat(drop, lead) > 0  # gaps between runs never descend
        lead, tail = lead[strict], tail[strict]
        absorbed = np.cumsum(np.bincount(lead + 1, minlength=x.size + 1) - np.bincount(tail + 1, minlength=x.size + 1))
        keep = absorbed[: x.size] == 0
        last[lead] = last[tail]
        x[lead] = solve_blocks(first[lead], last[lead], 0.5 * (x[lead] + x[tail]))
        first, last, x, row = first[keep], last[keep], x[keep], row[keep]
    pooled = [PooledBlock(start=int(a), stop=int(b), value=float(v)) for a, b, v in zip(first, last, x) if b > a]
    return np.repeat(x, last - first + 1).reshape(shape), pooled


# --- the discrete menu problem -----------------------------------------


def period_objective(profile, cost_model, own, below, sigma, sigma_prev, t):
    """own * (V(sigma, t) - C(t)) + below * (V(sigma, t) - V(sigma_prev, t)).

    The profit terms containing one menu item's period t: `own` consumers
    buy it, `below` lower consumers draw the information rent, and sigma
    is the item's marginal type.  solve_discrete values its menu's
    objective_values with it; broadcasts.
    Both valuations come from one call.
    """
    sigma, sigma_prev, t = np.broadcast_arrays(sigma, sigma_prev, t)
    v, v_prev = valuation(profile, np.stack([sigma, sigma_prev]), t)
    return own * (v - cost(cost_model, t)) + below * (v - v_prev)


def _hermite_root(a, b, fa, fb, da, db):
    """A root in (a, b) of the cubic that matches the slope f and its
    derivative d at both ends of a sign bracket (fa > 0 > fb), for each
    item: HERMITE_STEPS Newton steps on the cubic from the secant point,
    each kept inside the cubic's own sign bracket."""
    span = b - a
    c0, c1 = fa, span * da
    c2 = 3.0 * (fb - fa) - 2.0 * c1 - span * db
    c3 = 2.0 * (fa - fb) + c1 + span * db
    below, above = np.zeros_like(a), np.ones_like(a)
    u = fa / (fa - fb)
    for _ in range(HERMITE_STEPS):
        p = ((c3 * u + c2) * u + c1) * u + c0
        np.copyto(below, u, where=p > 0)
        np.copyto(above, u, where=p <= 0)
        u_next = u - p / ((3.0 * c3 * u + 2.0 * c2) * u + c1)
        u = np.where((u_next > below) & (u_next < above), u_next, 0.5 * (below + above))
    return a + u * span


def _lockstep_root(slopes, newton, midpoint, x, lo, hi, cubic=False):
    """Where each of a batch of slopes that changes sign once, from
    positive to negative, on [lo, hi] crosses zero: the maximizer of each
    single-peaked objective, all in lockstep by safeguarded
    Newton-bisection ("rtsafe"; Brent 1973).

    slopes(x), for points x of shape (..., n), returns the slope, the sum
    of its absolute terms and a tuple of what newton needs.
    newton(x, slope, state) proposes the next point; a proposal outside
    the sign bracket [a, b] gives way to midpoint(a, b).  The window's
    ends lo, hi (scalars shared by every item) and the start x are
    evaluated in one call: an item whose slope is <= 0 at lo sits at
    lo, one whose slope is >= 0 at hi at hi.  Each item stops once its
    step or its bracket is STEP_RTOL of x, or |slope| is within
    SLOPE_RTOL of the sum of its absolute terms.

    With cubic=True, state[0] is the slope's derivative, and two rules
    save evaluations on a search that starts far from its root.  A step
    whose Newton proposal leaves the bracket, or that follows a step
    across the root to a larger |slope|, goes to the root of the cubic
    that matches slope and derivative at both bracket ends
    (_hermite_root) instead, if that lies inside; a cubic step not under
    half the step before last gives way to midpoint(a, b), so cubic
    roots that keep landing just inside a wide bracket's far end cannot
    creep across it (Brent's safeguard).  And an item stops
    without evaluating a Newton point once the step that reached it,
    cubed and over the previous Newton step squared (the next step at
    quadratic convergence), is within STEP_RTOL of x.
    """
    a, b = np.full_like(x, lo), np.full_like(x, hi)
    slope, scale, state = slopes(np.stack([a, b, x]))
    at_lo = slope[0] <= 0
    at_hi = ~at_lo & (slope[1] >= 0)
    x = np.where(at_lo, lo, np.where(at_hi, hi, x))
    if cubic:  # slope and derivative at both bracket ends, and the last point's slope and Newton step
        fa, fb, da, db = (np.array(z) for z in (slope[0], slope[1], state[0][0], state[0][1]))
        last_slope, last_step = slope[2], np.full_like(x, np.nan)
        moved = (np.inf, np.inf)  # sizes of the step before last and of the last step
    slope, scale, state = slope[2], scale[2], tuple(z[2] for z in state)
    active = ~(at_lo | at_hi)
    while True:
        active &= np.abs(slope) > SLOPE_RTOL * scale
        rising = active & (slope > 0)
        falling = active & ~rising
        np.copyto(a, x, where=rising)
        np.copyto(b, x, where=falling)
        active &= b - a > STEP_RTOL * x
        if not active.any():
            return x
        with np.errstate(all="ignore"):  # a degenerate proposal is NaN or out of bracket: bisect
            proposal = newton(x, slope, state)
        inside = (proposal > a) & (proposal < b)
        new = np.where(inside, proposal, midpoint(a, b))
        if cubic:
            for f, d, where in ((fa, da, rising), (fb, db, falling)):
                np.copyto(f, slope, where=where)
                np.copyto(d, state[0], where=where)
            overshot = ((slope > 0) != (last_slope > 0)) & (np.abs(slope) > np.abs(last_slope))
            cubic_step = active & (~inside | overshot)
            if cubic_step.any():
                with np.errstate(all="ignore"):
                    root = _hermite_root(a, b, fa, fb, da, db)
                cubic_step &= (root > a) & (root < b)
                slow = cubic_step & (np.abs(root - x) >= 0.5 * moved[0])
                new = np.where(cubic_step, np.where(slow, midpoint(a, b), root), new)
            newton_step = inside & ~cubic_step
        step, x = new - x, np.where(active, new, x)
        active &= np.abs(step) > STEP_RTOL * x
        if cubic:
            size = np.abs(step)
            active &= ~(newton_step & (size < last_step) & (size**3 <= STEP_RTOL * x * last_step**2))
            last_slope, last_step = slope, np.where(newton_step, size, np.nan)
            moved = (moved[1], size)
        if not active.any():
            return x
        slope, scale, state = slopes(x)


def block_periods(profile, cost_model, sigmas, own, below, first, last, guess=None):
    """The period maximizing each block's summed period objective on
    DEFAULT_T_DOMAIN, all blocks in lockstep.

    Item i has marginal type sigmas[i], own[i] buyers and below[i]
    rent-drawing consumers, its rent measured against sigmas[i-1]; block
    j pools items first[j]..last[j].  The search is _lockstep_root on
    the closed-form slope P' (the sum of the members' slopes), split as
    P' = gain - loss: gain = (own + below) V_t(sigma_i) and
    loss = own C' + below V_t(sigma_{i-1}).  Each step is Newton's on
    log(gain / loss) against log t, exact where V_t follows a power of
    t (from a cold start plain Newton on P' creeps up by a factor of
    about 1.5 per step); bisection takes the bracket's geometric
    midpoint.  Starts from guess (one period per block), else from
    sqrt(lo * hi).  The (own, rent) types are checked and prepared once
    per call, not once per step.

    Nothing is probed: every cost CostModel admits is convex, and then
    each P is strictly concave in t wherever its type sigma_i > 0, so P'
    changes sign at most once and the root found is the maximum.  With
    sigmas ascending and V_tt = -V_t (a^2 + 3) / (2t) (market._dt_dtt),

        P'' = own (V_tt(sigma_i) - C'') + below (V_tt(sigma_i) - V_tt(sigma_{i-1})) < 0:

    C'' >= 0, V_tt(sigma_i) < 0, and the rent term is <= 0 because
    |V_tt| = alpha (q - mu) (a^2 + 3) phi(a) / (4 t^2 a), with
    a = sqrt(t) (q - mu) / sigma, grows with sigma: (a^2 + 3) phi(a) / a
    has slope -(a^2 + 2 + 3 / a^2) phi(a) < 0 in a, and a falls as sigma
    rises.  Where q = mu (a = 0), |V_tt| = 3 alpha sigma phi(0) / (4 t^2.5)
    is proportional to sigma.  A pooled block sums its members' P, so it
    is concave too; at sigma_i = 0, V_t = 0 and P'' = -own C'' <= 0.
    """
    lo, hi = DEFAULT_T_DOMAIN
    sizes = last - first + 1
    offsets = np.cumsum(sizes) - sizes
    pooled = sizes.size < sizes.sum()
    members = np.arange(sizes.sum()) + np.repeat(first - offsets, sizes)
    sig = np.stack([sigmas[members], sigmas[np.maximum(members - 1, 0)]])  # own and rent types
    own, below = own[members], below[members]
    types, weight = _types(sig), own + below  # weight: everyone whose value moves with V(sigma_i, t)

    def slopes(t):  # P', gain + loss and (gain, loss, gain', loss') per block, for t of shape (..., blocks)
        tm = np.repeat(t, sizes, axis=-1) if pooled else t
        vt, vtt = _dt_dtt(profile, types, tm[..., None, :])
        c1, c2 = _cost_slopes(cost_model, tm)
        terms = (
            weight * vt[..., 0, :],
            own * c1 + below * vt[..., 1, :],
            weight * vtt[..., 0, :],
            own * c2 + below * vtt[..., 1, :],
        )
        if pooled:  # pooled blocks sum their members
            terms = tuple(np.add.reduceat(z, offsets, axis=-1) for z in terms)
        gain, loss = terms[:2]
        return gain - loss, gain + loss, terms

    def newton(t, _slope, terms):
        gain, loss, dgain, dloss = terms
        return t * np.exp(-np.log(gain / loss) / (t * (dgain / gain - dloss / loss)))

    x = np.full(first.size, np.sqrt(lo * hi)) if guess is None else np.clip(guess, lo, hi)
    return _lockstep_root(slopes, newton, lambda a, b: np.sqrt(a * b), x, lo, hi)


def search_periods(profile, cost_model, sigmas, own, below, guess=None):
    """Ascending periods maximizing the summed period objectives of a menu.

    Item i has marginal type sigmas[i], own[i] buyers and below[i]
    rent-drawing consumers (float arrays).  Rows of menus (shape (R, n))
    are independent problems searched together: a row's first item has
    below = 0, so the rent type block_periods pairs it with is
    multiplied by an exact zero.  All items are searched in lockstep
    (from guess, one period per item, if given) and descents are pooled
    within each row.  Returns (periods, pooled blocks in flat indices).
    """
    search = partial(block_periods, profile, cost_model, np.ravel(sigmas), np.ravel(own), np.ravel(below))
    return repair_monotone(search, own.shape, guess)


def optimal_prices(profile, sigmas, periods):
    """Profit-maximizing prices for ascending periods and their marginal
    types: the top type pays her full valuation; each lower price adds
    the valuation drop of the type just below the gap (binding
    indifference), summed top-down."""
    sig = np.asarray(sigmas, dtype=float)
    t = np.asarray(periods, dtype=float)
    if sig.ndim != 1 or t.shape != sig.shape:
        raise ValueError("need one period per type")
    if np.any(np.diff(t) < 0):
        raise ValueError("periods must be ascending")
    # One valuation call: V_i(t_i), then V_i(t_{i+1}), below the top, and the
    # top type's V(t_top) last.  Interleaving +V_i(t_i) and -V_i(t_{i+1})
    # makes the running sum round exactly like the recursion
    # p_i = (p_{i+1} + V_i(t_i)) - V_i(t_{i+1}).
    v = valuation(profile, np.concatenate((sig[:-1], sig[:-1], sig[-1:])), np.concatenate((t[:-1], t[1:], t[-1:])))
    own, up = v[:-1].reshape(2, -1)
    steps = np.stack([own, -up], axis=1)[::-1].ravel()
    return np.cumsum(np.append(v[-1], steps))[::2][::-1]


@dataclass
class FeasibilityReport:
    """Outcome of the four-condition menu feasibility check."""

    passed: bool
    condition: Optional[str] = None  # first violated condition, if any
    index: Optional[int] = None  # menu position where it failed
    violation: float = 0.0  # magnitude of the worst violation
    tol: float = FEASIBILITY_TOL


def feasibility_check(profile, market, periods, prices) -> FeasibilityReport:
    """Check the four menu-feasibility conditions at tolerance FEASIBILITY_TOL:

    (a) periods ascend;
    (b) the top type participates: pi_I <= V(sigma_I, t_I);
    (c/d) each adjacent price gap pi_i - pi_{i+1} lies between the
          valuation drop of the higher type and that of the lower type.

    A non-finite price fails before all four, as "finite_prices".  Every
    valuation (b)-(d) read comes from one call.
    """
    periods = np.asarray(periods, dtype=float)
    prices = np.asarray(prices, dtype=float)
    tol = FEASIBILITY_TOL
    n = market.n_types
    if not np.all(np.isfinite(prices)):
        i = int(np.argmin(np.isfinite(prices)))
        return FeasibilityReport(False, "finite_prices", i, float("inf"), tol)
    descent = -np.diff(periods)
    if n > 1 and descent.max() > tol:
        i = int(np.argmax(descent))
        return FeasibilityReport(False, "periods_ascending", i, float(descent[i]), tol)
    # the top type at its own period, then the higher and the lower type of
    # each adjacent pair at the pair's lower and upper period
    sig, t = market.sigmas, periods
    v = valuation(
        profile,
        np.concatenate((sig[-1:], sig[1:], sig[1:], sig[:-1], sig[:-1])),
        np.concatenate((t[-1:], t[:-1], t[1:], t[:-1], t[1:])),
    )
    gap = prices[-1] - v[0]
    if gap > tol:
        return FeasibilityReport(False, "top_participation", n - 1, float(gap), tol)
    hi_lower, hi_upper, lo_lower, lo_upper = v[1:].reshape(4, -1)
    drop_hi, drop_lo = hi_lower - hi_upper, lo_lower - lo_upper
    gap = prices[:-1] - prices[1:]
    floor, ceiling = drop_hi - gap, gap - drop_lo
    bad = (floor > tol) | (ceiling > tol)
    if bad.any():
        i = int(np.argmax(bad))
        if floor[i] > tol:
            return FeasibilityReport(False, "price_floor", i, float(floor[i]), tol)
        return FeasibilityReport(False, "price_ceiling", i, float(ceiling[i]), tol)
    worst = max(floor.max(initial=0.0), ceiling.max(initial=0.0))
    return FeasibilityReport(True, None, None, float(worst), tol)


@dataclass
class DiscreteSolution:
    periods: np.ndarray
    prices: np.ndarray
    total_profit: float
    objective_values: np.ndarray  # P_i at the chosen periods
    first_best_periods: np.ndarray  # each type's period in the social first-best


def solve_discrete(profile, cost_model, market) -> DiscreteSolution:
    """Profit-maximizing menu for a discrete market.

    Lockstep per-type search, ascending repair by pooling, then the
    telescoping price chain.  The period cap is asserted non-binding;
    the menu itself is judged by runner.certify, not here.
    The search carries a second row, the social first-best (own = 1,
    below = 0: each type's own V - C, no rent).  V - C is strictly
    concave in t and V_sigma_t > 0, so its periods ascend strictly and
    each is the lone search block_periods makes for its type; the row can
    pool only where adjacent types' searches tie to rounding (types a few
    ulps apart), and then the shared period is within rounding of each
    lone search.  A pooled block of the menu shows in its periods, as a
    run of equal values.
    """
    lo, hi = DEFAULT_T_DOMAIN
    sig = market.sigmas
    own = market.counts
    below = np.concatenate(([0.0], np.cumsum(own)[:-1]))
    (periods, first_best), _ = search_periods(
        profile,
        cost_model,
        np.stack([sig, sig]),
        np.stack([own, np.ones(sig.size)]),  # the first-best row: one buyer per type
        np.stack([below, np.zeros(sig.size)]),  # and no rent
    )
    if np.any(periods > hi - 1e-6 * (hi - lo)):
        warnings.warn("a period argmax pressed against the search cap DEFAULT_T_DOMAIN", RuntimeWarning)
    prices = optimal_prices(profile, sig, periods)
    margins = prices - cost(cost_model, periods)
    total = float(np.dot(market.counts, margins))
    rent_types = sig[np.maximum(np.arange(sig.size) - 1, 0)]
    values = period_objective(profile, cost_model, own, below, sig, rent_types, periods)
    return DiscreteSolution(
        periods=periods,
        prices=prices,
        total_profit=total,
        objective_values=values,
        first_best_periods=first_best,
    )
