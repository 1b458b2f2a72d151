"""Checks and baselines for the solvers.  The IC/IR certificate, the
grid oracles and the Monte Carlo check reuse no solver logic; the
optimized-cutoff baseline and the social first-best do, as their
bullets below say.  Each function that takes a market switches on its
type (DiscreteMarket or not), never on a solution's class, so the
module imports no solver's solution type.

- brute_force_ic_ir re-derives every consumer's best choice from raw
  utilities and confirms the menu's assignment wins (or that opting
  out is right for unserved types), within a tolerance in money that
  its caller may widen (runner.certify scales it with the prices): type
  by type in a discrete market, and at both ends of every band in a
  continuous one, which single crossing makes exact.
- grid_oracle_discrete and grid_oracle_grouped maximize over ascending
  period (and, for groups, boundary) tuples on grids by one exact
  dynamic program: profit splits into per-stage terms linked only
  through adjacent stages, so two running maxima per stage return the
  same optimum literal enumeration would.  The DP sweeps the type rows
  in blocks: each block values its per-stage terms once, with E(a) from
  the vectorized table kernel (normals._excess_table), runs every stage
  on two block-sized work tables and hands the next block each stage's
  running maximum over types so far.  No float table outlives its
  block; two packed bits per cell and stage mark where each running
  maximum is attained, and the backtrack follows them.  The discrete
  oracle is the grouped one with stage i pinned to type i at mass S_i,
  the count of types up to i; both price by the telescoping chain from
  raw valuations and costs — no per-type objective, no pooling.  Where
  the sigma grid's first point carries no mass (every grid from
  sigma_min does), the grouped oracle searches only the periods up to
  the last with C(t) < alpha*mu: a chain price never exceeds
  alpha*mu, so groups at a later period earn no margin, and emptying
  them onto the group below loses nothing (the proof is in
  grid_oracle_grouped's docstring; Myerson's exclusion of unprofitable
  types, on the grid).  The discrete oracle serves every type, so it
  keeps its whole period grid.  The DP alone counts the cells it is
  handed, after that cut, against the work budget (_check_cells),
  before it values any of them, so a refusal names the cells the DP
  would search.
- monte_carlo_valuation estimates the valuation integral by simulating
  period demand (standard-normal draws from a seeded 64-bit generator).
- full_coverage_profit and optimized_cutoff_profit are the profits of
  a single fixed-period plan, covering the whole market (price at the
  top type's valuation) or with a profit-maximizing marginal type (or
  no one, profit 0, where no cutoff earns a positive profit), found by
  the grouped solver's boundary search at K = 1; either takes a float
  period or an array of periods, evaluated in one call.  baseline_rows
  tabulates both at a scenario's baseline periods, a property of the
  scenario alone: the runner holds every menu it certifies to that
  table, and applies uplift_percent where it writes uplifts.
- social_metrics compares realized social surplus against the
  first-best that ignores incentive constraints.  It is accounting, not
  a check: the first-best periods come from the solvers' period search.
  A discrete market's solution carries them (solve_discrete searches
  them in the menu's own lockstep), so both surpluses there take one
  valuation call; a grouped menu's surpluses are integrals, band by
  band, by a 96-point Gauss-Legendre rule built once at import by
  Newton's method on the Legendre recurrence (_legendre_rule), summed
  in the arithmetic of scipy.integrate.fixed_quad.  The first-best's
  unserved band above the menu ends where its rate reaches 0, which the
  solvers' Newton-bisection finds only where the rate is 0 at sigma_max.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .discrete import FEASIBILITY_TOL, _lockstep_root, block_periods
from .distributions import ContinuousMarket, DiscreteMarket
from .grouped import TUPLE_BUDGET, _whole, block_boundaries
from .market import _valuation, cost, valuation, valuation_dsigma2
from .normals import _excess_table

# The grid DP keeps two bits per cell and stage after the first, which
# TUPLE_BUDGET (shared with the grouped solver) bounds to 25 MB.  Its floats
# are a few blocks of _PSI_CHUNK_CELLS cells (of one type row, where a row
# holds more) and, where blocks split a shared row, one running-max row per
# stage: at most the bits' size again while a block holds 32 rows or more,
# as it does on grids of up to 512 periods.
# cells of psi valued at once, and of a DP block: the six chunk-sized arrays the valuation and its table kernel hold then fit in cache
_PSI_CHUNK_CELLS = 2**14


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


def brute_force_ic_ir(profile, market, periods, prices, boundaries=None, tol=FEASIBILITY_TOL) -> FeasibilityCertificate:
    """Check every consumer prefers her assigned item (IC) and gets
    nonnegative utility from it (IR), both within tol, an amount of money.

    Discrete markets are checked type by type against their own menu
    position.  Continuous markets need the group boundaries b_1..b_K:
    item k serves the band (b_{k-1}, b_k] (b_0 = sigma_min) and the types
    above b_K opt out, each band clipped to the window.  Both ends of
    every band of positive width are checked under that band's choice,
    2(K + 1) types at most, and that check is exact.  Proof: V_sigma < 0
    and V_sigma_t > 0 (single crossing, Mussa and Rosen 1978), so an
    item's utility V(sigma, t_j) - p_j falls in sigma, and the difference
    u_j - u_k = V(sigma, t_j) - V(sigma, t_k) - (p_j - p_k) between two
    items is monotone in sigma (constant where t_j = t_k).  Every
    temptation, and every IR shortfall, is then monotone across a band,
    so its supremum over the band lies at one of the band's two ends.
    An interior boundary is checked from both sides, so a passing menu
    is priced on its chain, within the tolerance, given its boundaries
    and periods.  A non-finite price fails both checks with an infinite
    violation.  Where the worst temptation exceeds the tolerance, the
    reported pair is the first worst consumer, in ascending order of
    bands, with her first best other item.
    """
    t = np.asarray(periods, dtype=float)
    p = np.asarray(prices, dtype=float)
    if isinstance(market, DiscreteMarket):
        sigmas = market.sigmas
        assigned = np.arange(market.n_types)
    else:
        if boundaries is None:
            raise ValueError("continuous markets need boundaries for the assignment")
        edges = np.clip(np.concatenate(([market.sigma_min], boundaries, [market.sigma_max])), market.sigma_min, market.sigma_max)
        wide = edges[1:] > edges[:-1]  # band k lies between edges k and k + 1; the last opts out
        sigmas = np.stack([edges[:-1], edges[1:]], axis=1)[wide].ravel()
        assigned = np.repeat(np.flatnonzero(wide), 2)  # == len(boundaries) above the top boundary

    if not np.all(np.isfinite(p)):  # NaN would fail every comparison below silently
        return FeasibilityCertificate(False, np.inf, np.inf, None, tol, int(sigmas.size))
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
    if temptation[worst] > tol:
        pair = (float(sigmas[worst]), int(choice[worst]), int(assigned[worst]) if served[worst] else -1)
    passed = worst_ic <= tol and worst_ir <= tol
    return FeasibilityCertificate(
        passed=passed,
        worst_ic_violation=float(worst_ic),
        worst_ir_violation=float(worst_ir),
        violating_pair=pair,
        tol=tol,
        n_consumers_checked=int(sigmas.size),
    )


# --- grid oracles -------------------------------------------------------


def _check_cells(cells):
    """A ValueError if a grid DP of cells cells exceeds TUPLE_BUDGET."""
    if cells > TUPLE_BUDGET:
        raise ValueError(f"grid DP of {cells:.3g} cells exceeds the work budget ({TUPLE_BUDGET:.0e})")


def _grid_dp(profile, cost_model, sigmas, mass, n_stages, t_grid):
    """Exact maximum over ascending stage tuples (s_k, t_k) of
    sum_k [psi_k(s_k, t_k) - psi_k(s_k, t_{k+1})], the last stage keeping
    its own psi, with psi_k(s, t) = mass_k(s) * (V(sigmas_k[s], t) - C(t)).

    sigmas and mass hold one type row per stage, or one row all stages
    share.  Two running maxima per stage,
    D_k = psi_k + cummax_s[cummax_t D_{k-1} - psi_{k-1}], yield the
    maximum literal enumeration would.  A shared row is swept in blocks
    of _PSI_CHUNK_CELLS cells: each block values its psi once (E(a) by
    the table kernel normals._excess_table), runs every stage on two
    block-sized work tables and hands the next block one row per stage,
    the running max over s so far.  A grid of more than TUPLE_BUDGET cells
    (stages x types x periods) is refused (_check_cells) before any cell
    is valued.  Rows of their own are valued in
    chunks of that many cells too, and swept as one block.  max is exact
    and each sum sees the same operands, so every table is bit for bit
    the expression's.  No table outlives its block: per stage and cell,
    two packed bits mark where D_{k-1} reaches its running max over t
    and where stage k's running max over s is the row's own term, and
    the backtrack follows them to the latest index on ties, as an argmax
    over the reversed tables would.
    Returns (profit, the types and the periods of a maximizing tuple).
    """
    t = np.asarray(t_grid, dtype=float)
    if n_stages < 1 or sigmas.shape[1] == 0 or t.size == 0:
        raise ValueError("grid DP needs at least one stage and nonempty grids")
    if np.any(np.diff(sigmas, axis=1) <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("grids must be strictly ascending")
    _check_cells(n_stages * sigmas.shape[1] * t.size)

    K, S, T = n_stages, sigmas.shape[1], t.size
    c, step = cost(cost_model, t), max(1, _PSI_CHUNK_CELLS // T)

    def psi(s, m):  # psi of a run of types and their masses, one row each: V - C, times the mass, in place
        v = _valuation(profile, s[:, None], t, _excess_table)
        v -= c
        v *= m[:, None]
        return v

    shared = sigmas.shape[0] == 1
    if shared:  # blocks of the shared row, each valued once for every stage
        blocks = ((i, itertools.repeat(psi(sigmas[0, i : i + step], mass[0, i : i + step]), K)) for i in range(0, S, step))
    else:  # one block of all S types, the stages' rows valued a chunk at a time
        chunk = max(1, step // S)
        stage_rows = (row for k in range(0, K, chunk) for row in psi(sigmas[k : k + chunk].ravel(), mass[k : k + chunk].ravel()).reshape(-1, S, T))
        blocks = [(0, stage_rows)]

    # [0] D_{k-1} reaches its running max over t, [1] stage k's running max over s is the row's own term
    bits = np.empty((2, K - 1, S, -(-T // 8)), dtype=np.uint8)
    # each stage's running max over the rows of earlier blocks, written only where another block follows
    carry = np.full((K - 1, T), -np.inf) if shared and S > step else np.broadcast_to(-np.inf, (K - 1, T))
    work = np.empty((2, min(step, S) if shared else S, T))
    flags = np.empty(work.shape, dtype=bool)
    best = None
    for r0, stage_psi in blocks:
        D = prev = next(stage_psi)
        n = len(D)
        X, Y, E, rows = work[0, :n], work[1, :n], flags[:, :n], slice(r0, r0 + n)
        for k in range(1, K):
            cur = next(stage_psi)
            np.fmax.accumulate(D, axis=1, out=Y)
            np.equal(D, Y, out=E[0])
            Y -= prev
            np.maximum(carry[k - 1], Y[0], out=X[0])
            for i in range(1, n):
                np.maximum(X[i - 1], Y[i], out=X[i])
            np.equal(X, Y, out=E[1])
            bits[:, k - 1, rows] = np.packbits(E, axis=-1)
            if r0 + n < S:
                carry[k - 1] = X[-1]
            X += cur
            D, prev = X, cur
        i = int(np.argmax(D))
        if best is None or D.flat[i] > best:  # the first maximum, as one argmax over the whole table
            best, s, j = float(D.flat[i]), r0 + i // T, i % T

    s_idx, j_idx = [s], [j]
    for k in range(K - 2, -1, -1):  # the latest type, then period, attaining stage k's running maxima
        s -= int(np.argmax((bits[1, k, : s + 1, j >> 3] & (0x80 >> (j & 7)))[::-1]))
        j -= int(np.argmax(np.unpackbits(bits[0, k, s], count=j + 1)[::-1]))
        s_idx.insert(0, s)
        j_idx.insert(0, j)
    return best, np.broadcast_to(sigmas, (K, S))[np.arange(K), s_idx], t[j_idx]


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

    Where the sigma grid's first point carries no mass, only the periods
    up to the last one with C(t) < alpha*mu are searched (at least the
    first), and the optimum is the full grid's.  Proof: the chain prices
    p_K = V(s_K, t_K) and p_k = V(s_k, t_k) - V(s_k, t_{k+1}) + p_{k+1}
    satisfy p_k <= V(s_k, t_k) <= alpha*mu, by induction from the top,
    since V_sigma < 0 gives p_{k+1} <= V(s_{k+1}, t_{k+1}) <= V(s_k, t_{k+1}).
    Let group k be the first whose period lies past the cut; the periods
    ascend, so every group from k up has a margin p_j - C(t_j) <= 0.
    Moving those groups onto s_{k-1} with period t_{k-1} empties them and
    raises p_{k-1}, and every lower price with it, by
    V(s_{k-1}, t_k) - p_k >= 0: profit does not fall, and every period
    now lies before the cut.  For k = 1 every group loses money, and the
    empty menu (every boundary on the zero-mass first point) earns 0 at
    the first period.  Without the zero-mass point that menu is not on
    the grid, and where every menu loses money the least loss may lie
    past the cut, so the full grid is searched.  Columns before the cut
    are valued and swept as on the full grid, so the result is the same,
    bit for bit, wherever the full grid's optimum is positive and lies
    before the cut.
    """
    n_groups = _whole("n_groups", n_groups, 1)
    sg = np.asarray(sigma_grid, dtype=float)[None, :]
    t = np.asarray(t_grid, dtype=float)
    if sg.size and market.cdf(sg[0, :1])[0] == 0 and np.all(np.diff(t) > 0):  # a grid that does not ascend stays whole, for _grid_dp to refuse
        paying = np.flatnonzero(cost(cost_model, t) < profile.alpha * profile.mu)
        t = t[: paying[-1] + 1 if paying.size else 1]
    return _grid_dp(profile, cost_model, sg, market.cdf(sg) * market.size, n_groups, t)


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


def full_coverage_profit(profile, cost_model, market, t_fixed):
    """Profit of the single plan at period t_fixed priced at the top
    type's valuation, so the whole market participates (the incumbent's
    one-size-fits-all plan): a float for a float period, an array for an
    array of periods.  Only the top type is valued."""
    t = np.asarray(t_fixed, dtype=float)
    if isinstance(market, DiscreteMarket):
        served, top = np.cumsum(market.counts)[-1], market.sigmas[-1]
    else:
        served, top = market.size * market.cdf(market.sigma_max), market.sigma_max
    profit = served * (valuation(profile, top, t) - cost(cost_model, t))
    return float(profit) if t.ndim == 0 else profit


def optimized_cutoff_profit(profile, cost_model, market, t_fixed):
    """Profit of the single plan at period t_fixed with a
    profit-maximizing marginal served type (a stronger baseline; uplifts
    against it are conservative), 0 where no cutoff earns a positive
    profit and the provider serves no one: a float for a float period,
    an array for an array of periods.  A discrete market's best prefix
    of types comes from one valuation matrix, a continuous market's
    cutoff from the grouped boundary search at K = 1, one lockstep
    search over every period."""
    t = np.asarray(t_fixed, dtype=float)
    periods = t.ravel()
    c = cost(cost_model, periods)
    if isinstance(market, DiscreteMarket):
        v = valuation(profile, market.sigmas[:, None], periods)
        profit = np.max(np.cumsum(market.counts)[:, None] * (v - c), axis=0)
    else:
        items = np.arange(periods.size)
        sig = block_boundaries(profile, cost_model, market, periods[:, None], items, items)
        profit = market.size * market.cdf(sig) * (valuation(profile, sig, periods) - c)
    profit = np.where(profit > 0, profit, 0.0).reshape(t.shape)
    return float(profit) if t.ndim == 0 else profit


@dataclass
class SocialReport:
    surplus_contract: float
    surplus_first_best: float
    ratio: float


def _first_best_periods(profile, cost_model, s):
    """Each type's first-best period argmax_t V(sigma, t) - C(t), for a 1-D
    array of types s, from the solvers' lockstep search with one buyer per
    type and no rent: the row solve_discrete searches beside its menu,
    searched here on its own for the grouped integrand's nodes."""
    items = np.arange(s.size)
    return block_periods(profile, cost_model, s, np.ones_like(s), np.zeros_like(s), items, items)


def _first_best_surplus_rates(profile, cost_model, sigmas):
    """Each type's first-best surplus rate max_t V(sigma, t) - C(t), floored
    at 0 (the planner would not serve a type that loses money)."""
    s = np.atleast_1d(np.asarray(sigmas, dtype=float))
    t = _first_best_periods(profile, cost_model, s)
    return np.maximum(valuation(profile, s, t) - cost(cost_model, t), 0.0)


def _first_best_cutoff(profile, cost_model, lo, hi):
    """The type sigma_0 in [lo, hi] where the unfloored first-best rate
    r(sigma) = max_t V(sigma, t) - C(t) crosses 0; lo where r(lo) <= 0.
    r falls in sigma: its slope is V_sigma(sigma, t*) < 0 at the
    first-best period t* (the envelope theorem), so the solvers'
    Newton-bisection finds its one root, each evaluation one period
    search.  It starts from lo: a Newton step from far above the root
    leaves the bracket, so a start near hi on a wide window would bisect
    about log2(hi / sigma_0) times."""

    def rates(s):  # r, the sum of its absolute terms and (r',), at points s of shape (..., 1)
        t = _first_best_periods(profile, cost_model, s.ravel()).reshape(s.shape)
        v, vs, _, _ = valuation_dsigma2(profile, s, t)
        c = cost(cost_model, t)
        return v - c, np.abs(v) + c, (vs,)

    return float(_lockstep_root(rates, lambda s, r, state: s - r / state[0], lambda a, b: 0.5 * (a + b), np.array([float(lo)]), lo, hi)[0])


def social_metrics(profile, cost_model, market, solution) -> SocialReport:
    """Realized vs first-best social surplus (value minus cost; prices
    are transfers and cancel); the market's type says which solution it
    is.  A discrete market's solution comes with its first-best periods,
    so its types are valued at both its own and those periods in one
    call, the first-best rates floored at 0.  A grouped menu's bands
    share one Gauss-Legendre rule, band k mapped onto u in [0, 1] by
    sigma = b_{k-1} + (b_k - b_{k-1}) u, and the first-best also takes
    the unserved band [b_K, sigma_max]: on the same nodes the
    contract's integrand never exceeds the first-best's.  The
    first-best rate falls in sigma, so where it is 0 at sigma_max the
    unserved band ends at its root sigma_0 (_first_best_cutoff) instead,
    and the rule never spans the kink of max(0, rate); where it is
    positive at sigma_max no search runs."""
    if isinstance(market, DiscreteMarket):
        t = np.stack([solution.periods, solution.first_best_periods])
        rates = valuation(profile, market.sigmas, t) - cost(cost_model, t)
        contract = float(np.dot(market.counts, rates[0]))
        first_best = float(np.dot(market.counts, np.maximum(rates[1], 0.0)))
    else:
        b, t = solution.boundaries, solution.periods
        lo = np.concatenate(([market.sigma_min], b))[:, None]
        width = np.append(b, market.sigma_max)[:, None] - lo  # the K bands, then the unserved one
        u = (_GL_NODES + 1) / 2.0
        s = lo + width * u
        best = _first_best_surplus_rates(profile, cost_model, np.append(s, market.sigma_max))  # sigma_max last
        if best[-1] == 0.0:  # the first-best serves no one at sigma_max: cut the unserved band at sigma_0
            width[-1] = _first_best_cutoff(profile, cost_model, lo[-1, 0], market.sigma_max) - lo[-1]
            s[-1] = lo[-1] + width[-1] * u
            best[-1 - u.size : -1] = _first_best_surplus_rates(profile, cost_model, s[-1])
        rates = np.vstack([
            valuation(profile, s[:-1], t[:, None]) - cost(cost_model, t)[:, None],  # the contract's K bands
            best[:-1].reshape(s.shape),  # the first-best's K + 1
        ])
        g = market.pdf(s)
        integrand = rates * np.vstack([g[:-1], g]) * np.vstack([width[:-1], width])
        # scipy.integrate.fixed_quad's arithmetic on [0, 1], band by band
        per_band = market.size * (0.5 * np.sum(_GL_WEIGHTS * integrand, axis=-1))
        contract, first_best = float(np.sum(per_band[: b.size])), float(np.sum(per_band[b.size :]))
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


@dataclass
class ComparisonReport:
    baselines: List[BaselineRow]
    social: SocialReport


def uplift_percent(profit, baseline_profit):
    """Percent by which profit beats a baseline's profit; NaN unless the
    baseline earns a positive profit, against which no percent is
    meaningful."""
    return 100.0 * (profit / baseline_profit - 1.0) if baseline_profit > 0 else float("nan")


def baseline_rows(profile, cost_model, market, baseline_periods) -> List[BaselineRow]:
    """Both fixed-period baselines' profits at each of baseline_periods,
    a nonempty sequence of periods > 0 (one batched call of each
    baseline)."""
    periods = np.asarray(baseline_periods, dtype=float)
    full = full_coverage_profit(profile, cost_model, market, periods).tolist()
    opt = optimized_cutoff_profit(profile, cost_model, market, periods).tolist()
    return [BaselineRow(*row) for row in zip(periods.tolist(), full, opt)]


def build_comparison(profile, cost_model, market, solution, baseline_periods) -> ComparisonReport:
    """The scenario's baseline_rows and the solution's social surplus;
    the solution's profit is its own total_profit."""
    return ComparisonReport(
        baselines=baseline_rows(profile, cost_model, market, baseline_periods),
        social=social_metrics(profile, cost_model, market, solution),
    )
