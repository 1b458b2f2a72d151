"""Run scenarios end to end and write the artifacts.

Artifacts per run (all deterministic for a fixed seed):
  solution.csv     group_index, sigma_boundary, period, price, count, item_profit
  comparison.csv   label, profit, uplift_percent  (both baseline readings;
                   nan against a baseline with no positive profit)
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
"""

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from .discrete import feasibility_check, solve_discrete
from .distributions import DiscreteMarket
from .grouped import REL_PROFIT_TOL, _check_solve_size, _whole, group_counts, solve_with_restarts
from .market import cost
from .oracles import (
    ComparisonReport,
    baseline_rows,
    brute_force_ic_ir,
    build_comparison,
    full_coverage_profit,
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
    """comparison.csv's (label, profit, uplift_percent) row of each
    fixed-period baseline, full coverage then optimized cutoff per period."""
    for row in baselines:
        label = f"fixed_t={row.period:g}"
        yield label + "_full_coverage", row.profit_full, row.uplift_full_percent
        yield label + "_optimized_cutoff", row.profit_optimized, row.uplift_optimized_percent


def _comparison_rows(report):
    rows = [("label", "profit", "uplift_percent"), ("optimal", report.optimal_profit, ""), *_baseline_rows(report.baselines)]
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
        for label, base, _ in _baseline_rows(baselines)
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
    nothing behind; `ok` is `certify`'s verdict, the solve's convergence
    and a profit below none of the comparison's baselines (see
    _below_baseline; the CLI turns that into the exit code).
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

    passed, ic_ir, chain_feasibility = certify(scenario, solution.periods, solution.prices, boundaries)
    report = build_comparison(scenario.profile, scenario.cost_model, scenario.market, solution, scenario.baselines)

    below = _below_baseline(report.optimal_profit, report.baselines, discrete)
    ok = passed and convergence["converged"] and below is None
    certificate = {
        "scenario": scenario.name,
        "solver": "discrete" if discrete else "grouped",
        "seed": use_seed,
        "profit": solution.total_profit,
        "ic_ir": ic_ir,
        "chain_feasibility": chain_feasibility,
        "convergence": convergence,
        "below_baseline": below,
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
        _csv_text(_comparison_rows(report)),
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

    Each K after the first also starts from the previous K's menu, as
    the warm start that _start_inits splits up to K groups (see
    split_heaviest_group), alongside the quantile start and random
    restarts.  That start keeps every previous boundary, so it contains
    the previous menu and profit is nondecreasing in K by construction.
    seed, when not None, replaces the scenario's restart seed.  Each row's
    uplift is against the full-coverage plan at the scenario's first
    baseline period, and the row also records whether its K's solve
    converged.  Every K's solve size is checked before the first solve
    (see grouped._check_solve_size), and out_dir is made only once every K is
    solved.
    """
    if isinstance(scenario.market, DiscreteMarket):
        raise ValueError("group sweeps need a grouped scenario")
    ks = sorted(_whole("group_counts entry", k, 1) for k in group_counts)
    if not ks or len(set(ks)) < len(ks):
        raise ValueError("group counts must be a nonempty list of distinct K")
    use_seed = _restart_seed(scenario, seed)
    # the largest K has the largest solve, with the previous menu as a warm start unless it is the only K
    _check_solve_size(ks[-1], scenario.solver.restarts, len(ks) > 1)
    base = full_coverage_profit(scenario.profile, scenario.cost_model, scenario.market, scenario.baselines[0])

    rows = []
    prev = None
    for k in ks:
        sol = solve_with_restarts(
            scenario.profile,
            scenario.cost_model,
            scenario.market,
            k,
            restarts=scenario.solver.restarts,
            seed=use_seed,
            warm=None if prev is None else prev.boundaries,
        )
        prev = sol
        rows.append(
            {
                "groups": k,
                "profit": sol.total_profit,
                "uplift_percent": uplift_percent(sol.total_profit, base),
                "converged": sol.converged,
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


def certify(scenario: Scenario, periods, prices, boundaries=None):
    """The one pass-or-fail verdict on a menu, for `run` and
    `verify_solution_csv`: the brute-force IC/IR scan for every market
    (with its group boundaries for a continuous one) and the
    four-condition chain check for a discrete one.  Returns (passed,
    ic_ir, chain_feasibility), the reports as the dicts certificate.json
    carries, chain_feasibility None for a continuous market."""
    ic_ir = brute_force_ic_ir(scenario.profile, scenario.market, periods, prices, boundaries=boundaries)
    if not isinstance(scenario.market, DiscreteMarket):
        return ic_ir.passed, asdict(ic_ir), None
    chain = feasibility_check(scenario.profile, scenario.market, periods, prices)
    return ic_ir.passed and chain.passed, asdict(ic_ir), asdict(chain)


#: Twice the largest relative error of a value written at 12 significant
#: digits (_fmt) and read back: half a unit in the 12th digit is at most
#: 5e-12 of the value.
WRITTEN_RTOL = 1e-11


def _written_slack(scenario, boundaries, periods, prices, mass, margins):
    """How far the profit of a menu read back from solution.csv may lie
    below the profit of the menu that was written, to first order, when
    each price, period and boundary read moved by WRITTEN_RTOL of itself:
    mass times |price| for the prices, mass times the cost's change for
    the periods, and for each boundary of a continuous market (None for
    a discrete one) N times the mass it moves times the change of margin
    across it (the last group's margin against no sale)."""
    c = cost(scenario.cost_model, periods)
    slack = np.dot(mass, WRITTEN_RTOL * np.abs(prices) + np.abs(cost(scenario.cost_model, periods * (1 + WRITTEN_RTOL)) - c))
    if boundaries is not None:
        m = scenario.market
        moved = m.cdf(np.minimum(boundaries * (1 + WRITTEN_RTOL), m.sigma_max)) - m.cdf(boundaries)
        slack += m.size * np.dot(np.abs(moved), np.abs(margins - np.append(margins[1:], 0.0)))
    return float(slack)


def verify_solution_csv(scenario: Scenario, csv_path):
    """Re-check a written solution.csv against its scenario.

    Returns (ok, details); raises ValueError on a malformed file.  The
    periods and prices are judged by `certify`, and details holds its
    chain_feasibility and ic_ir reports.  A menu that passes is then
    held to the scenario's baseline rows by _below_baseline, as `run`
    holds a solve, at its profit: its margins times the scenario's masses
    (a discrete market's counts, or N times each group's CDF difference
    up to its sigma_boundary).  The file's values carry 12 significant
    digits, so the allowed shortfall widens by _written_slack: a menu
    equal to a baseline row passes however thin its margins.  Where it
    falls below a row, details also holds that row as below_baseline,
    and ok is False.
    """
    boundaries, periods, prices = _read_solution_csv(csv_path)
    m = scenario.market
    discrete = isinstance(m, DiscreteMarket)
    if discrete and periods.size != m.n_types:
        return False, {"error": "row count does not match the market's types"}
    ok, ic_ir, chain_feasibility = certify(scenario, periods, prices, boundaries)
    details = {"chain_feasibility": chain_feasibility, "ic_ir": ic_ir}
    if ok:
        mass = m.counts if discrete else m.size * group_counts(m, boundaries)
        margins = prices - cost(scenario.cost_model, periods)
        profit = float(np.dot(mass, margins))
        rows = baseline_rows(scenario.profile, scenario.cost_model, m, profit, scenario.baselines)
        slack = _written_slack(scenario, None if discrete else boundaries, periods, prices, mass, margins)
        below = _below_baseline(profit, rows, discrete, slack)
        if below is not None:
            details["below_baseline"] = below
            ok = False
    return ok, details
