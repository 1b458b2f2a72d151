"""Checks and baselines for the solvers.  The IC/IR certificate, the
grid oracles and the Monte Carlo check reuse no solver logic; the
fixed-period baseline's cutoff and the social first-best do, as their
bullets below say.

- brute_force_ic_ir re-derives every consumer's best choice from raw
  utilities and confirms the menu's assignment wins (or that opting
  out is right for unserved types).
- grid_oracle_discrete and grid_oracle_grouped maximize over ascending
  period (and, for groups, boundary) tuples on grids by one exact
  dynamic program: profit splits into per-stage terms linked only
  through adjacent stages, so two running maxima per stage return the
  same optimum literal enumeration would.  The per-stage terms are
  valued in chunks of type rows, with E(a) from the vectorized table
  kernel (normals._excess_table), and the running-maximum tables are one
  preallocated array, each stage computed in place into its slice (the
  running maximum over types taken row by row); only those tables are
  kept, and the backtrack recomputes the argmax along the optimal
  path.  The discrete oracle is the grouped one with stage i pinned to
  type i at mass S_i, the count of types up to i; both price by the
  telescoping chain from raw valuations and costs — no per-type
  objective, no pooling.
- monte_carlo_valuation estimates the valuation integral by simulating
  period demand (standard-normal draws from a seeded 64-bit generator).
- fixed_period_baseline prices a single fixed-period plan, either
  covering the whole market (price at the top type's valuation) or
  with a profit-maximizing marginal type (or no one, where no cutoff
  earns a positive profit), found by the grouped solver's boundary
  search at K = 1; an array of periods is evaluated in one call.
- social_metrics compares realized social surplus against the
  first-best that ignores incentive constraints.  It is accounting, not
  a check: the first-best periods come from the solvers' period search.
  A discrete solution carries them (solve_discrete searches them in
  the menu's own lockstep), so both surpluses there take one valuation
  call; a grouped menu's surpluses are integrals by a 96-point
  Gauss-Legendre rule built once at import by Newton's method on the
  Legendre recurrence (_legendre_rule), summed in the arithmetic of
  scipy.integrate.fixed_quad.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .discrete import FEASIBILITY_TOL, DiscreteSolution, block_periods
from .distributions import ContinuousMarket, DiscreteMarket
from .grouped import GroupedSolution, _whole, block_boundaries
from .market import _valuation, cost, valuation
from .normals import _excess_table

#: Largest grid-DP table (cells) the grid oracles accept.  The DP holds
#: psi and one table per stage after the first, 8 bytes a cell, so the
#: budget bounds its memory: at most 0.8 GB for a grouped oracle, and
#: twice that for a discrete one, whose stages each carry their own psi.
TUPLE_BUDGET = 1e8
# cells of psi valued at once: the six chunk-sized arrays the valuation and its table kernel hold then fit in cache
_PSI_CHUNK_CELLS = 2**14
#: Equispaced types the IC/IR scan checks across a continuous market's window.
IC_SCAN_POINTS = 500


def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], n even, nodes ascending.

    Newton's method on P_n from the estimates cos(pi (i - 1/4) / (n + 1/2)),
    i = 1..n/2, finds the positive roots, stopping once no step reaches
    1e-15; the weights are 2 / ((1 - x^2) P_n'(x)^2) there, and the
    negative half mirrors the positive one exactly.
    """
    x = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    while True:
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


# the 96-point Gauss-Legendre rule on [-1, 1] the social-surplus integrals share
_GL_NODES, _GL_WEIGHTS = _legendre_rule(96)


# --- incentive compatibility / participation ---------------------------


@dataclass
class FeasibilityCertificate:
    passed: bool
    worst_ic_violation: float
    worst_ir_violation: float
    violating_pair: Optional[Tuple[float, int, int]]  # (type, item chosen, item assigned; -1 = opt out)
    tol: float
    n_consumers_checked: int


def brute_force_ic_ir(profile, market, periods, prices, boundaries=None) -> FeasibilityCertificate:
    """Check every consumer prefers her assigned item (IC) and gets
    nonnegative utility from it (IR), both within FEASIBILITY_TOL.

    Discrete markets are checked type by type against their own menu
    position.  Continuous markets need the group boundaries;
    IC_SCAN_POINTS types are scanned across the whole window (plus the
    boundaries themselves), and types above the top boundary must
    prefer opting out — no item may tempt them beyond the tolerance.
    A non-finite price fails both checks with an infinite violation.
    Where the worst temptation exceeds the tolerance, the reported pair
    is the first worst consumer, with her first best other item.
    """
    t = np.asarray(periods, dtype=float)
    p = np.asarray(prices, dtype=float)
    if isinstance(market, DiscreteMarket):
        sigmas = market.sigmas
        assigned = np.arange(market.n_types)
    else:
        if boundaries is None:
            raise ValueError("continuous markets need boundaries for the assignment")
        b = np.asarray(boundaries, dtype=float)
        # np.unique's sort and mask, without the numpy.ma import (12-15 ms
        # of a cold start) that np.unique makes on its first call
        sigmas = np.sort(np.concatenate([np.linspace(market.sigma_min, market.sigma_max, IC_SCAN_POINTS), b]))
        sigmas = sigmas[np.concatenate(([True], sigmas[1:] != sigmas[:-1]))]
        assigned = np.searchsorted(b, sigmas, side="left")  # == len(b) above the top boundary

    if not np.all(np.isfinite(p)):  # NaN would fail every comparison below silently
        return FeasibilityCertificate(False, np.inf, np.inf, None, FEASIBILITY_TOL, int(sigmas.size))
    utilities = valuation(profile, sigmas[:, None], t) - p
    rows = np.arange(sigmas.size)
    served = assigned < t.size
    own = np.where(served, utilities[rows, np.minimum(assigned, t.size - 1)], 0.0)
    # a served consumer's temptation is her best other item over her own;
    # an unserved one's is her best item over opting out (utility 0)
    others = np.where(served[:, None] & (np.arange(t.size) == assigned[:, None]), -np.inf, utilities)
    choice = np.argmax(others, axis=1)
    temptation = others[rows, choice] - own

    # violation magnitudes; 0 when every check is comfortable
    worst = int(np.argmax(temptation))
    worst_ic = max(0.0, float(temptation[worst]))
    worst_ir = max(0.0, float(np.max(-own[served], initial=-np.inf)))
    pair = None
    if temptation[worst] > FEASIBILITY_TOL:
        pair = (float(sigmas[worst]), int(choice[worst]), int(assigned[worst]) if served[worst] else -1)
    passed = worst_ic <= FEASIBILITY_TOL and worst_ir <= FEASIBILITY_TOL
    return FeasibilityCertificate(
        passed=passed,
        worst_ic_violation=float(worst_ic),
        worst_ir_violation=float(worst_ir),
        violating_pair=pair,
        tol=FEASIBILITY_TOL,
        n_consumers_checked=int(sigmas.size),
    )


# --- grid oracles -------------------------------------------------------


def _grid_dp(profile, cost_model, sigmas, mass, n_stages, t_grid):
    """Exact maximum over ascending stage tuples (s_k, t_k) of
    sum_k [psi_k(s_k, t_k) - psi_k(s_k, t_{k+1})], the last stage keeping
    its own psi, with psi_k(s, t) = mass_k(s) * (V(sigmas_k[s], t) - C(t)).

    sigmas and mass hold one type row per stage, or one row all stages
    share; psi is valued _PSI_CHUNK_CELLS cells at a time over their
    flattened rows, its E(a) by the table kernel normals._excess_table.  Two running maxima per stage,
    D_k = psi_k + cummax_s[cummax_t D_{k-1} - psi_{k-1}], yield the
    maximum literal enumeration would; ties go to the latest index.  The
    tables D_1..D_{K-1} are one preallocated array, each computed in
    place into its slice, with the running maximum over s taken row by
    row; max is exact and each sum sees the same operands, so every
    table is bit for bit the expression's.
    Returns (profit, the types and the periods of a maximizing tuple).
    """
    t = np.asarray(t_grid, dtype=float)
    if n_stages < 1 or sigmas.shape[1] == 0 or t.size == 0:
        raise ValueError("grid DP needs at least one stage and nonempty grids")
    if np.any(np.diff(sigmas, axis=1) <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("grids must be strictly ascending")
    if n_stages * sigmas.shape[1] * t.size > TUPLE_BUDGET:
        raise ValueError("grid DP exceeds the work budget")

    rows = np.broadcast_to(sigmas, (n_stages, sigmas.shape[1]))
    psi = np.empty(sigmas.shape + t.shape)
    flat_s, flat_m, flat_psi = sigmas.reshape(-1, 1), mass.reshape(-1, 1), psi.reshape(-1, t.size)
    c, step = cost(cost_model, t), max(1, _PSI_CHUNK_CELLS // t.size)
    for i in range(0, flat_s.shape[0], step):
        chunk = slice(i, i + step)
        np.multiply(flat_m[chunk], _valuation(profile, flat_s[chunk], t, _excess_table) - c, out=flat_psi[chunk])
    psi = np.broadcast_to(psi, (n_stages,) + psi.shape[1:])

    D = [psi[0], *np.empty((n_stages - 1,) + psi.shape[1:])]
    for k in range(1, n_stages):  # D_k in place, its running max over s row by row
        T = D[k]
        np.maximum.accumulate(D[k - 1], axis=1, out=T)
        T -= psi[k - 1]
        for i in range(1, T.shape[0]):
            np.maximum(T[i - 1], T[i], out=T[i])
        T += psi[k]

    s, j = map(int, np.unravel_index(int(np.argmax(D[-1])), D[-1].shape))
    profit, s_idx, j_idx = float(D[-1][s, j]), [s], [j]
    for k in range(n_stages - 1, 0, -1):  # the latest type, then period, attaining stage k-1's running maxima
        s -= int(np.argmax((D[k - 1][: s + 1, : j + 1].max(axis=1) - psi[k - 1][: s + 1, j])[::-1]))
        j -= int(np.argmax(D[k - 1][s, : j + 1][::-1]))
        s_idx.insert(0, s)
        j_idx.insert(0, j)
    return profit, rows[np.arange(n_stages), s_idx], t[j_idx]


def grid_oracle_discrete(profile, cost_model, market: DiscreteMarket, t_grid):
    """Exact grid optimum over ascending period tuples on t_grid.

    With the price chain telescoped from the top type's valuation and
    S_i the count of types up to i, chain-priced profit is

        sum_i [S_i V_i(t_i) - N_i C(t_i)] - sum_{i<I-1} S_i V_i(t_{i+1}),

    the grouped profit with stage i pinned to type i and mass S_i
    (the C terms telescope to N_i C(t_i)).  Returns (profit, periods).
    """
    S = np.cumsum(market.counts)
    profit, _, periods = _grid_dp(profile, cost_model, market.sigmas[:, None], S[:, None], market.n_types, t_grid)
    return profit, periods


def grid_oracle_grouped(profile, cost_model, market: ContinuousMarket, n_groups, sigma_grid, t_grid):
    """Exact grid optimum over ascending boundary AND period tuples.

    Profit decomposes into per-boundary terms
    psi(s, t_k) - psi(s, t_{k+1}) with psi = N*G*(V - C), the last
    group keeping its own psi.  n_groups must be an integer >= 1.
    Returns (profit, boundaries, periods).
    """
    n_groups = _whole("n_groups", n_groups, 1)
    sg = np.asarray(sigma_grid, dtype=float)[None, :]
    return _grid_dp(profile, cost_model, sg, market.cdf(sg) * market.size, n_groups, t_grid)


# --- Monte Carlo check of the valuation formula -------------------------


def monte_carlo_valuation(profile, sigma, t, n_samples=1_000_000, seed=0):
    """Simulate period demand and average the unmet excess.

    Demand over a period of length t is normal with mean mu*t and sd
    sigma*sqrt(t); the standard-normal draws come from a seeded 64-bit
    generator (numpy's default_rng).  Returns (estimate, standard_error) of the
    per-unit-time valuation.
    """
    if sigma < 0 or t <= 0:
        raise ValueError("need sigma >= 0 and t > 0")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(int(n_samples))
    demand = profile.mu * t + sigma * np.sqrt(t) * z
    unmet = np.maximum(demand - profile.q * t, 0.0)
    estimate = profile.alpha * (profile.mu - unmet.mean() / t)
    if n_samples > 1:
        se = profile.alpha * unmet.std(ddof=1) / (t * np.sqrt(n_samples))
    else:
        se = float("inf")
    return float(estimate), float(se)


# --- baselines and welfare ----------------------------------------------


@dataclass
class BaselineResult:
    period: float
    coverage: str  # "full" or "optimized"
    price: float
    marginal_sigma: float
    served: float
    profit: float


def fixed_period_baseline(profile, cost_model, market, t_fixed, coverage="full") -> BaselineResult:
    """Best single-item menu at a frozen period, or at each of an array of
    periods at once (every field but coverage then an array).

    coverage="full": price at the top type's valuation so the whole
    market participates (the incumbent's one-size-fits-all plan).
    coverage="optimized": choose the marginal served type to maximize
    profit (a stronger baseline; uplifts against it are conservative):
    the best prefix of a discrete market's types, all from one valuation
    call, or the grouped boundary search at K = 1, one lockstep search
    over every period.  Where no cutoff earns a positive profit the
    provider serves no one: served and profit are 0, and marginal_sigma
    and price are NaN.
    """
    if coverage not in ("full", "optimized"):
        raise ValueError(f"coverage must be 'full' or 'optimized', got {coverage!r}")
    t = np.asarray(t_fixed, dtype=float)
    periods = t.ravel()
    c = cost(cost_model, periods)
    if isinstance(market, DiscreteMarket):  # every prefix's price is in one valuation matrix
        counts = np.cumsum(market.counts)
        v = valuation(profile, market.sigmas[:, None], periods)
        if coverage == "full":
            j = np.full(periods.size, market.n_types - 1)
        else:
            j = np.argmax(counts[:, None] * (v - c), axis=0)
        sig, served, price = market.sigmas[j], counts[j], v[j, np.arange(periods.size)]
    else:
        sig = np.full(periods.size, market.sigma_max)
        if coverage == "optimized":
            items = np.arange(periods.size)
            sig = block_boundaries(profile, cost_model, market, periods[:, None], items, items)
        served = market.size * market.cdf(sig)
        price = valuation(profile, sig, periods)
    profit = served * (price - c)
    if coverage == "optimized":
        nobody = ~(profit > 0)
        sig, price = np.where(nobody, np.nan, sig), np.where(nobody, np.nan, price)
        served, profit = np.where(nobody, 0.0, served), np.where(nobody, 0.0, profit)

    def shaped(x):  # a Python float for a single period
        x = np.reshape(x, t.shape)
        return float(x) if x.ndim == 0 else x

    return BaselineResult(
        period=shaped(periods),
        coverage=coverage,
        price=shaped(price),
        marginal_sigma=shaped(sig),
        served=shaped(served),
        profit=shaped(profit),
    )


@dataclass
class SocialReport:
    surplus_contract: float
    surplus_first_best: float
    ratio: float


def _first_best_surplus_rates(profile, cost_model, sigmas):
    """Each type's first-best surplus rate max_t V(sigma, t) - C(t), floored
    at 0 (the planner would not serve a type that loses money).  The
    period comes from the solvers' lockstep search with one buyer per
    type and no rent: the row solve_discrete searches beside its menu,
    searched here on its own for the grouped integrand's nodes."""
    s = np.atleast_1d(np.asarray(sigmas, dtype=float))
    items = np.arange(s.size)
    t = block_periods(profile, cost_model, s, np.ones_like(s), np.zeros_like(s), items, items)
    return np.maximum(valuation(profile, s, t) - cost(cost_model, t), 0.0)


def _gauss_legendre(f, a, b):
    """Integral of f over [a, b], along its last axis, in scipy.integrate.fixed_quad's arithmetic."""
    y = (b - a) * (_GL_NODES + 1) / 2.0 + a
    return (b - a) / 2.0 * np.sum(_GL_WEIGHTS * f(y), axis=-1)


def social_metrics(profile, cost_model, market, solution) -> SocialReport:
    """Realized vs first-best social surplus (value minus cost; prices
    are transfers and cancel).  A discrete solution comes with its
    first-best periods, so its types are valued at both its own and
    those periods in one call, the first-best rates floored at 0.  A
    grouped menu's bands share one Gauss-Legendre rule, band k mapped
    onto u in [0, 1] by sigma = b_{k-1} + (b_k - b_{k-1}) u."""
    if isinstance(solution, DiscreteSolution):
        t = np.stack([solution.periods, solution.first_best_periods])
        rates = valuation(profile, market.sigmas, t) - cost(cost_model, t)
        contract = float(np.dot(market.counts, rates[0]))
        first_best = float(np.dot(market.counts, np.maximum(rates[1], 0.0)))
    elif isinstance(solution, GroupedSolution):
        b, t = solution.boundaries, solution.periods
        lo = np.concatenate(([market.sigma_min], b[:-1]))[:, None]
        width = b[:, None] - lo

        def surplus(u):
            s = lo + width * u
            return (valuation(profile, s, t[:, None]) - cost(cost_model, t)[:, None]) * market.pdf(s) * width

        def first_best_surplus(s):
            return _first_best_surplus_rates(profile, cost_model, s) * market.pdf(s)

        contract = float(np.sum(market.size * _gauss_legendre(surplus, 0.0, 1.0)))
        first_best = market.size * float(_gauss_legendre(first_best_surplus, market.sigma_min, market.sigma_max))
    else:
        raise TypeError("unknown solution type")
    return SocialReport(
        surplus_contract=contract,
        surplus_first_best=first_best,
        ratio=contract / first_best if first_best else float("nan"),
    )


@dataclass
class BaselineRow:
    period: float
    profit_full: float
    profit_optimized: float
    uplift_full_percent: float
    uplift_optimized_percent: float


@dataclass
class ComparisonReport:
    optimal_profit: float
    baselines: List[BaselineRow] = field(default_factory=list)
    social: Optional[SocialReport] = None


def uplift_percent(profit, baseline_profit):
    """Percent by which profit beats a baseline's profit; NaN unless the
    baseline earns a positive profit, against which no percent is
    meaningful."""
    return 100.0 * (profit / baseline_profit - 1.0) if baseline_profit > 0 else float("nan")


def build_comparison(
    profile, cost_model, market, solution, baseline_periods: Sequence[float] = (1.0,)
) -> ComparisonReport:
    """The solution's profit against both baselines at each of
    baseline_periods (one batched fixed_period_baseline call per
    coverage), and its social surplus."""
    report = ComparisonReport(optimal_profit=float(solution.total_profit))
    periods = np.asarray(baseline_periods, dtype=float)
    full = fixed_period_baseline(profile, cost_model, market, periods, coverage="full").profit.tolist()
    opt = fixed_period_baseline(profile, cost_model, market, periods, coverage="optimized").profit.tolist()
    for t_fixed, profit_full, profit_optimized in zip(periods.tolist(), full, opt):
        report.baselines.append(
            BaselineRow(
                period=t_fixed,
                profit_full=profit_full,
                profit_optimized=profit_optimized,
                uplift_full_percent=uplift_percent(solution.total_profit, profit_full),
                uplift_optimized_percent=uplift_percent(solution.total_profit, profit_optimized),
            )
        )
    report.social = social_metrics(profile, cost_model, market, solution)
    return report
