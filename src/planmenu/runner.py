"""Run scenarios end to end and write the artifacts.

Artifacts per run (all deterministic for a fixed seed):
  solution.csv     group_index, sigma_boundary, period, price, count, item_profit
  comparison.csv   label, profit, uplift_percent  (both baseline readings,
                   the uplift computed here from the scenario's baseline
                   table; nan against a baseline with no positive profit)
  certificate.json feasibility + incentive checks + convergence record
                   (grouped: rounds, Newton steps, first-order residual,
                   and each start's final profit and residual), and the
                   baseline row the menu falls below, if any
  fig8_sweep.csv   (sweep only) groups, profit, uplift_percent

Each artifact replaces the previous run's file whole: a run serializes
all of its artifacts in memory, then writes each to <name>.part beside
its path and renames it into place once the old file is unlinked.  A
failure while serializing leaves every previous artifact as it was,
and one while writing leaves that artifact's previous bytes and no
.part file, so no artifact ever mixes rows of two runs; a symlink at
an artifact's path is replaced, not written through.

One function, certify, decides whether a menu passes, for run,
sweep_groups and verify_solution_csv alike: IC/IR, the price chain of a
discrete market, and a profit below none of the scenario's baseline
rows.  Beside that verdict it returns the one record of it,
chain_feasibility, ic_ir and below_baseline, that run merges into
certificate.json, sweep_groups reads each row's below_baseline from and
verify_solution_csv returns as its details.  Its IC/IR and chain checks
allow a tolerance that scales with the scenario's money unit (alpha q),
so a scenario and its copy priced in another unit get the same verdicts.
"""

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from .discrete import FEASIBILITY_TOL, feasibility_check, solve_discrete
from .distributions import DiscreteMarket
from .grouped import REL_PROFIT_TOL, _check_solve_size, _whole, group_counts, solve_with_restarts
from .market import cost
from .oracles import (
    ComparisonReport,
    baseline_rows,
    brute_force_ic_ir,
    build_comparison,
    uplift_percent,
)
from .scenarios import Scenario


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(x) for x in row] for row in rows)
    return buf.getvalue()


def _replace_files(out, items):
    """Make directory out if missing, then write each (path, text) of
    items, its path in out, through <name>.part, removing the part file
    if the write fails.  The old file is unlinked before the rename, so
    the rename never replaces an existing name, which ext4 would flush
    to disk first."""
    out.mkdir(parents=True, exist_ok=True)
    for path, text in items:
        part = path.with_name(path.name + ".part")
        try:
            with open(part, "w", newline="\n") as fh:
                fh.write(text)
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        path.unlink(missing_ok=True)
        part.rename(path)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


@dataclass
class RunArtifacts:
    scenario: Scenario
    solution: object
    report: ComparisonReport
    certificate: dict
    ok: bool
    paths: Dict[str, Path] = field(default_factory=dict)


def _solution_rows(scenario, solution):
    # the header, then one row per item: its marginal type (the discrete
    # type, or the group's upper boundary) and its head-count or group mass
    if isinstance(scenario.market, DiscreteMarket):
        sigmas, counts = scenario.market.sigmas, scenario.market.counts
    else:
        sigmas, counts = solution.boundaries, solution.counts
    margins = solution.prices - cost(scenario.cost_model, solution.periods)
    columns = (sigmas, solution.periods, solution.prices, counts, margins)
    header = ("group_index", "sigma_boundary", "period", "price", "count", "item_profit")
    return [header] + [(k + 1, *(float(x) for x in row)) for k, row in enumerate(zip(*columns))]


def _baseline_rows(baselines):
    """comparison.csv's (label, profit) of each fixed-period baseline,
    full coverage then optimized cutoff per period."""
    for row in baselines:
        label = f"fixed_t={row.period:g}"
        yield label + "_full_coverage", row.profit_full
        yield label + "_optimized_cutoff", row.profit_optimized


def _comparison_rows(profit, report):
    rows = [("label", "profit", "uplift_percent"), ("optimal", profit, "")]
    rows += [(label, base, uplift_percent(profit, base)) for label, base in _baseline_rows(report.baselines)]
    rows.append(("social_surplus_contract", report.social.surplus_contract, ""))
    rows.append(("social_surplus_first_best", report.social.surplus_first_best, ""))
    rows.append(("social_surplus_ratio_percent", 100.0 * report.social.ratio, ""))
    return rows


def _below_baseline(profit, baselines, discrete, slack=0.0):
    """The comparison.csv row, of the BaselineRow list baselines, that a
    menu's profit falls furthest below, as {"label", "profit"}, or None
    where it falls below none by more than
    REL_PROFIT_TOL * max(1, |baseline|) + slack.  A grouped menu is held
    to every baseline row.  A discrete menu is held to the full-coverage
    rows alone: the discrete solver serves every type, and an optimized
    cutoff may leave types unserved."""
    short = [
        (base - profit, label, base)
        for label, base in _baseline_rows(baselines)
        if not (discrete and label.endswith("_optimized_cutoff")) and base - profit > REL_PROFIT_TOL * max(1.0, abs(base)) + slack
    ]
    if not short:
        return None
    _, label, base = max(short)
    return {"label": label, "profit": base}


def _restart_seed(scenario, seed):
    """The seed a grouped solve draws its restarts from, as a plain int:
    seed, or the scenario's own when seed is None; a seed that is not an
    integer >= 0 is a ValueError.  A discrete scenario has no solver
    settings, so it takes None and any seed is a ValueError."""
    if scenario.solver is None and seed is not None:
        raise ValueError(f"seed applies to grouped scenarios only, and {scenario.name} is discrete (got {seed!r})")
    return None if scenario.solver is None else _whole("seed", scenario.solver.seed if seed is None else seed, 0)


def run(scenario: Scenario, out_dir, seed=None) -> RunArtifacts:
    """Solve a scenario, certify the menu, and write artifacts.

    The market's type picks the solver.  seed, when not None, replaces a
    grouped scenario's restart seed; a discrete scenario refuses one
    before it solves.  Artifacts are always written once the solve
    returns, and out_dir is made only then, so a refused input leaves
    nothing behind; `ok` is `certify`'s verdict on the menu against the
    comparison's baselines and the solve's convergence (the CLI turns
    that into the exit code).
    """
    use_seed = _restart_seed(scenario, seed)
    discrete = isinstance(scenario.market, DiscreteMarket)
    if discrete:
        solution = solve_discrete(scenario.profile, scenario.cost_model, scenario.market)
        boundaries = None
        convergence = {"iterations": 1, "converged": True, "profit_trace": [solution.total_profit]}
    else:
        solution = solve_with_restarts(
            scenario.profile,
            scenario.cost_model,
            scenario.market,
            scenario.solver.n_groups,
            restarts=scenario.solver.restarts,
            seed=use_seed,
        )
        boundaries = solution.boundaries
        convergence = {
            "iterations": solution.iterations,
            "converged": solution.converged,
            "kkt_residual": solution.kkt_residual,
            "newton_steps": solution.newton_steps,
            "profit_trace": list(solution.profit_trace),
            "start_profits": solution.start_profits,
            "start_kkt_residuals": solution.start_kkt_residuals,
            "distinct_optima": solution.distinct_optima,
        }

    report = build_comparison(scenario.profile, scenario.cost_model, scenario.market, solution, scenario.baselines)
    passed, verdict = certify(scenario, solution.periods, solution.prices, boundaries, report.baselines)
    ok = passed and convergence["converged"]
    certificate = {
        "scenario": scenario.name,
        "solver": "discrete" if discrete else "grouped",
        "seed": use_seed,
        "profit": solution.total_profit,
        **verdict,
        "convergence": convergence,
        "passed": ok,
    }

    out = Path(out_dir)
    paths = {
        "solution": out / "solution.csv",
        "comparison": out / "comparison.csv",
        "certificate": out / "certificate.json",
    }
    texts = (
        _csv_text(_solution_rows(scenario, solution)),
        _csv_text(_comparison_rows(solution.total_profit, report)),
        json.dumps(_json_safe(certificate), indent=2, sort_keys=True) + "\n",
    )
    _replace_files(out, zip(paths.values(), texts))

    return RunArtifacts(
        scenario=scenario,
        solution=solution,
        report=report,
        certificate=certificate,
        ok=ok,
        paths=paths,
    )


def sweep_groups(scenario: Scenario, group_counts, out_dir, seed=None) -> List[dict]:
    """Solve the scenario for each menu size K and tabulate profits.

    The first K is solved from the scenario's starts: the quantile start
    and its seeded restarts, seed, when not None, replacing the
    scenario's restart seed.  Each later K is a continuation: it starts
    from the previous K's menu alone, the warm start that _start_inits
    splits up to K groups (see split_heaviest_group).  That start keeps
    every previous boundary, so it contains the previous menu and profit
    is nondecreasing in K by construction.  Each row's
    uplift is against the full-coverage plan at the scenario's first
    baseline period.  Each K's menu is judged by `certify` against the
    scenario's baseline table, built once; the row records converged,
    below_baseline (the row that menu falls below, or None) and passed
    (that verdict and convergence).  Every K's solve size is checked
    before the first solve (see grouped._check_solve_size): the first K
    with the scenario's restarts, each later K as one start.  out_dir
    is made only once every K is solved.
    """
    if isinstance(scenario.market, DiscreteMarket):
        raise ValueError("group sweeps need a grouped scenario")
    ks = sorted(_whole("group_counts entry", k, 1) for k in group_counts)
    if not ks or len(set(ks)) < len(ks):
        raise ValueError("group counts must be a nonempty list of distinct K")
    use_seed = _restart_seed(scenario, seed)
    _check_solve_size(ks[0], scenario.solver.restarts)
    _check_solve_size(ks[-1], 0)  # the largest K, from the previous menu alone unless it is the first
    table = baseline_rows(scenario.profile, scenario.cost_model, scenario.market, scenario.baselines)

    rows = []
    prev = None
    for k in ks:
        starts = {"restarts": scenario.solver.restarts, "seed": use_seed} if prev is None else {"warm": prev.boundaries}
        sol = solve_with_restarts(scenario.profile, scenario.cost_model, scenario.market, k, **starts)
        prev = sol
        passed, verdict = certify(scenario, sol.periods, sol.prices, sol.boundaries, table)
        rows.append(
            {
                "groups": k,
                "profit": sol.total_profit,
                "uplift_percent": uplift_percent(sol.total_profit, table[0].profit_full),
                "converged": sol.converged,
                "below_baseline": verdict["below_baseline"],
                "passed": passed and sol.converged,
            }
        )
    text = _csv_text([("groups", "profit", "uplift_percent")] + [(r["groups"], r["profit"], r["uplift_percent"]) for r in rows])
    out = Path(out_dir)
    _replace_files(out, [(out / "fig8_sweep.csv", text)])
    return rows


def _read_solution_csv(csv_path):
    """(boundaries, periods, prices) columns of a solution.csv; ValueError
    naming the file when a column is missing, a cell is not a finite
    number, the sigma_boundary values descend or there are no rows."""
    with open(csv_path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise ValueError(f"{csv_path}: no solution rows")
    header = rows[0]
    columns = []
    for name in ("sigma_boundary", "period", "price"):
        if name not in header:
            raise ValueError(f"{csv_path}: missing column {name!r}")
        j = header.index(name)
        try:
            columns.append(np.array([float(row[j]) for row in rows[1:]]))
        except (IndexError, ValueError):
            raise ValueError(f"{csv_path}: column {name!r} has a missing or non-numeric cell") from None
        if not np.all(np.isfinite(columns[-1])):
            raise ValueError(f"{csv_path}: column {name!r} has a non-finite cell")
    if np.any(np.diff(columns[0]) < 0):
        raise ValueError(f"{csv_path}: sigma_boundary values must ascend")
    return columns


#: Twice the largest relative error of a value written at 12 significant
#: digits (_fmt) and read back: half a unit in the 12th digit is at most
#: 5e-12 of the value.
WRITTEN_RTOL = 1e-11


def _written_slack(scenario, boundaries, periods, prices, mass, margins, rtol=WRITTEN_RTOL):
    """How far the profit of a menu read back from solution.csv may lie
    below the profit of the menu that was written, to first order, when
    each price, period and boundary read moved by rtol of itself: mass
    times |price| for the prices, mass times the cost's change for the
    periods, and for each boundary of a continuous market (None for a
    discrete one) N times the mass it moves times the change of margin
    across it (the last group's margin against no sale).  Exactly 0 at
    rtol = 0."""
    c = cost(scenario.cost_model, periods)
    slack = np.dot(mass, rtol * np.abs(prices) + np.abs(cost(scenario.cost_model, periods * (1 + rtol)) - c))
    if boundaries is not None:
        m = scenario.market
        moved = m.cdf(np.minimum(boundaries * (1 + rtol), m.sigma_max)) - m.cdf(boundaries)
        slack += m.size * np.dot(np.abs(moved), np.abs(margins - np.append(margins[1:], 0.0)))
    return float(slack)


def certify(scenario: Scenario, periods, prices, boundaries, baselines, rtol=0.0):
    """The one pass-or-fail verdict on a menu, for `run`, `sweep_groups`
    and `verify_solution_csv`: the brute-force IC/IR check for every
    market (with its group boundaries for a continuous one), the
    four-condition chain check for a discrete one, and, for a menu that
    passes both, its profit held to baselines, the scenario's BaselineRow
    list, by _below_baseline.  That profit is the menu's margins times
    the scenario's masses (a discrete market's counts, or N times each
    group's CDF difference up to its boundary, clipped to the window: a
    boundary on the window's edge may read back from solution.csv just
    outside it, and no type lies beyond the edge), and the shortfall it
    may show widens by _written_slack at precision rtol: 0 for a solved
    menu, WRITTEN_RTOL for one read back from solution.csv, so a written
    menu equal to a baseline row passes however thin its margins.

    The IC/IR and chain checks compare amounts of money, so they allow
    tol = max(FEASIBILITY_TOL, (16 eps + 4 rtol) alpha q), which scales
    with the scenario's money unit.  Every valuation and chain price is
    at most alpha q, so a solved menu carries a few roundings of alpha q.
    A value read back from solution.csv is within rtol / 2 (5e-12) of
    itself, and with V_t t <= alpha q / 2 and |V_sigma| sigma <= alpha q
    one utility V(sigma, t) - p moves, to first order, by at most
    (alpha q / 2 + alpha q + alpha q) rtol / 2, and a difference of two,
    which every IC and chain condition is, by 2.5 rtol alpha q.  At
    alpha q = 15 tol is FEASIBILITY_TOL for both precisions.
    Returns (passed, verdict): verdict is the record certificate.json
    carries, {"chain_feasibility", "ic_ir", "below_baseline"} in that
    order, with the two reports as dicts, chain_feasibility None for a
    continuous market, and below_baseline the row the menu falls below
    as {"label", "profit"}, or None (also where the menu fails IC/IR or
    the chain, which leaves the baselines unchecked)."""
    m = scenario.market
    discrete = isinstance(m, DiscreteMarket)
    p = scenario.profile
    tol = float(max(FEASIBILITY_TOL, (16 * np.finfo(float).eps + 4 * rtol) * p.alpha * p.q))
    ic_ir = brute_force_ic_ir(p, m, periods, prices, boundaries=boundaries, tol=tol)
    chain = feasibility_check(p, m, periods, prices, tol=tol) if discrete else None
    passed = ic_ir.passed and (chain is None or chain.passed)
    below = None
    if passed:
        b = None if discrete else np.clip(boundaries, m.sigma_min, m.sigma_max)
        mass = m.counts if discrete else m.size * group_counts(m, b)
        margins = prices - cost(scenario.cost_model, periods)
        slack = _written_slack(scenario, b, periods, prices, mass, margins, rtol)
        below = _below_baseline(float(np.dot(mass, margins)), baselines, discrete, slack)
    verdict = {"chain_feasibility": None if chain is None else asdict(chain), "ic_ir": asdict(ic_ir), "below_baseline": below}
    return passed and below is None, verdict


def verify_solution_csv(scenario: Scenario, csv_path):
    """Re-check a written solution.csv against its scenario.

    Returns (ok, details); raises ValueError naming the file on a
    malformed one (see _read_solution_csv), and on a discrete market's
    file whose row count is not its number of types.  Only the
    sigma_boundary, period and price columns are read: count and
    item_profit are informational, recomputed from the scenario, and an
    edited count or item profit does not change the verdict.  The menu
    is judged by `certify` against the scenario's baseline rows, as
    `run` judges a solve, at precision WRITTEN_RTOL since the file's
    values carry 12 significant digits.  details is certify's verdict
    record, as certificate.json carries it, without below_baseline
    where the menu falls below no baseline row.
    """
    boundaries, periods, prices = _read_solution_csv(csv_path)
    m = scenario.market
    if isinstance(m, DiscreteMarket) and periods.size != m.n_types:
        raise ValueError(f"{csv_path}: {periods.size} solution rows for the market's {m.n_types} types")
    rows = baseline_rows(scenario.profile, scenario.cost_model, m, scenario.baselines)
    ok, details = certify(scenario, periods, prices, boundaries, rows, WRITTEN_RTOL)
    if details["below_baseline"] is None:
        del details["below_baseline"]
    return ok, details
