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
sum), which is exactly the constrained optimum.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .market import cost, valuation

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0

#: Search window for service periods (days, say): strictly positive,
#: generous upper end.  Objectives flatten far below the cap; the
#: solver warns if an argmax presses against it.
DEFAULT_T_DOMAIN = (1e-4, 600.0)
#: Golden-section searches stop once the bracket is this fraction of the
#: starting interval (~50 iterations).
ARG_RTOL = 1e-10
#: Roundoff allowance of the concavity probe, relative to max(1, |f|).
PROBE_RTOL = 1e-9
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


def maximize_concave(f, lo, hi):
    """Golden-section maximum of a concave f on [lo, hi].

    A three-point midpoint-concavity probe guards against misuse: for
    equally spaced x1 < x2 < x3, concavity demands
    f(x2) >= (f(x1) + f(x3)) / 2 up to roundoff.
    """
    x1 = lo + 0.25 * (hi - lo)
    x2 = lo + 0.50 * (hi - lo)
    x3 = lo + 0.75 * (hi - lo)
    f1, f2, f3 = f(x1), f(x2), f(x3)
    scale = max(1.0, abs(f1), abs(f2), abs(f3))
    if f2 - 0.5 * (f1 + f3) < -PROBE_RTOL * scale:
        raise ValueError("objective failed the three-point concavity probe")
    return golden_section_max(f, lo, hi)


@dataclass
class PooledBlock:
    """A run of menu positions forced onto one shared decision value."""

    start: int  # first index in the run (0-based, inclusive)
    stop: int  # last index (inclusive)
    value: float  # the shared argmax


def repair_monotone(objectives, lo, hi, optimizer=maximize_concave) -> Tuple[np.ndarray, List[PooledBlock]]:
    """Ascending joint maximizer of sum_i f_i(x_i) s.t. x_1 <= ... <= x_n.

    objectives: list of 1-D callables, each maximized on [lo, hi].
    Starts from the unconstrained argmaxes; while any strict descent
    remains, pools the leftmost maximal nonincreasing run containing a
    strict descent onto the single value maximizing the run's summed
    objective, then rescans.  Returns the per-index values plus the
    blocks that ended up pooled.
    """
    n = len(objectives)
    blocks = []  # (index list, argmax, value)
    for i, f in enumerate(objectives):
        x, fx = optimizer(f, lo, hi)
        blocks.append(([i], x, fx))

    def leftmost_violating_run():
        j = 0
        while j + 1 < len(blocks):
            if blocks[j][1] > blocks[j + 1][1]:  # strict descent
                start = j
                while start > 0 and blocks[start - 1][1] >= blocks[start][1]:
                    start -= 1
                stop = j + 1
                while stop + 1 < len(blocks) and blocks[stop][1] >= blocks[stop + 1][1]:
                    stop += 1
                return start, stop
            j += 1
        return None

    while True:
        run = leftmost_violating_run()
        if run is None:
            break
        start, stop = run
        members = [i for b in blocks[start : stop + 1] for i in b[0]]
        pooled = [objectives[i] for i in members]
        x, fx = optimizer(lambda t: sum(f(t) for f in pooled), lo, hi)
        blocks[start : stop + 1] = [(members, x, fx)]

    out = np.empty(n)
    pooled_blocks = []
    for members, x, _ in blocks:
        out[members] = x
        if len(members) > 1:
            pooled_blocks.append(PooledBlock(start=members[0], stop=members[-1], value=x))
    return out, pooled_blocks


# --- the discrete menu problem -----------------------------------------


def period_objective(profile, cost_model, own, below, sigma, sigma_prev, t):
    """own * (V(sigma, t) - C(t)) + below * (V(sigma, t) - V(sigma_prev, t)).

    The profit terms containing one menu item's period t: `own` consumers
    buy it, `below` lower consumers draw the information rent, and sigma
    is the item's marginal type.  Shared by both solvers; the rent term
    is skipped when below = 0.
    """
    v = valuation(profile, sigma, t)
    out = own * (v - cost(cost_model, t))
    if below == 0.0:
        return out
    return out + below * (v - valuation(profile, sigma_prev, t))


def search_periods(profile, cost_model, sigmas, own, below):
    """Ascending periods maximizing the summed period objectives of a menu.

    Item i has marginal type sigmas[i], `own[i]` buyers and `below[i]`
    rent-drawing consumers (floats).  Each objective is searched on
    DEFAULT_T_DOMAIN and descents are pooled.  Returns (objectives,
    periods, pooled blocks).
    """
    objectives = [
        partial(period_objective, profile, cost_model, own[i], below[i], float(sigmas[i]), float(sigmas[max(i - 1, 0)]))
        for i in range(len(own))
    ]
    periods, pooled = repair_monotone(objectives, *DEFAULT_T_DOMAIN)
    return objectives, periods, pooled


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
    # Interleaving +V_i(t_i) and -V_i(t_{i+1}) makes the running sum round
    # exactly like the recursion p_i = (p_{i+1} + V_i(t_i)) - V_i(t_{i+1}).
    own, up = valuation(profile, sig[:-1], t[:-1]), valuation(profile, sig[:-1], t[1:])
    steps = np.stack([own, -up], axis=1)[::-1].ravel()
    return np.cumsum(np.append(valuation(profile, sig[-1], t[-1]), steps))[::2][::-1]


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
    """
    periods = np.asarray(periods, dtype=float)
    prices = np.asarray(prices, dtype=float)
    tol = FEASIBILITY_TOL
    n = market.n_types
    descent = -np.diff(periods)
    if n > 1 and descent.max() > tol:
        i = int(np.argmax(descent))
        return FeasibilityReport(False, "periods_ascending", i, float(descent[i]), tol)
    gap = prices[-1] - valuation(profile, market.sigmas[-1], periods[-1])
    if gap > tol:
        return FeasibilityReport(False, "top_participation", n - 1, float(gap), tol)
    sig = market.sigmas
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
    worst = max(floor.max(initial=0.0), ceiling.max(initial=0.0))
    return FeasibilityReport(True, None, None, float(worst), tol)


@dataclass
class DiscreteSolution:
    periods: np.ndarray
    prices: np.ndarray
    total_profit: float
    objective_values: np.ndarray  # P_i at the chosen periods
    pooled_blocks: List[PooledBlock] = field(default_factory=list)
    feasibility: Optional[FeasibilityReport] = None


def solve_discrete(profile, cost_model, market) -> DiscreteSolution:
    """Profit-maximizing menu for a discrete market.

    Per-type concave search, ascending repair by pooling, then the
    telescoping price chain.  The period cap is asserted non-binding.
    """
    lo, hi = DEFAULT_T_DOMAIN
    sig = market.sigmas
    own = [float(n) for n in market.counts]
    below = [market.count_below(i) for i in range(market.n_types)]
    objectives, periods, pooled = search_periods(profile, cost_model, sig, own, below)
    if np.any(periods > hi - 1e-6 * (hi - lo)):
        warnings.warn("a period argmax pressed against the search cap DEFAULT_T_DOMAIN", RuntimeWarning)
    prices = optimal_prices(profile, sig, periods)
    report = feasibility_check(profile, market, periods, prices)
    if not report.passed:
        raise RuntimeError(f"constructed menu failed feasibility: {report}")
    margins = prices - cost(cost_model, periods)
    total = float(np.dot(market.counts, margins))
    values = np.array([f(periods[i]) for i, f in enumerate(objectives)])
    return DiscreteSolution(
        periods=periods,
        prices=prices,
        total_profit=total,
        objective_values=values,
        pooled_blocks=pooled,
        feasibility=report,
    )
