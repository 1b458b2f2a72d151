"""Run scenarios end to end and write the artifacts.

Artifacts per run (all deterministic for a fixed seed):
  solution.csv     group_index, sigma_boundary, period, price, count, item_profit
  comparison.csv   label, profit, uplift_percent  (both baseline readings;
                   nan against a baseline with no positive profit)
  certificate.json feasibility + incentive checks + convergence record
                   (grouped: rounds, Newton steps, first-order residual,
                   and each start's final profit and residual)
  fig8_sweep.csv   (sweep only) groups, profit, uplift_percent
"""

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from .discrete import feasibility_check, solve_discrete
from .distributions import DiscreteMarket
from .grouped import _whole, solve_with_restarts
from .market import cost
from .oracles import (
    ComparisonReport,
    brute_force_ic_ir,
    build_comparison,
    fixed_period_baseline,
    uplift_percent,
)
from .scenarios import Scenario


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
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
    # one row per item: its marginal type (the discrete type, or the
    # group's upper boundary) and its head-count or group mass
    if scenario.solver.kind == "discrete":
        sigmas, counts = scenario.market.sigmas, scenario.market.counts
    else:
        sigmas, counts = solution.boundaries, solution.counts
    margins = solution.prices - cost(scenario.cost_model, solution.periods)
    columns = (sigmas, solution.periods, solution.prices, counts, margins)
    return [(k + 1, *(float(x) for x in row)) for k, row in enumerate(zip(*columns))]


def _comparison_rows(report):
    rows = [("optimal", report.optimal_profit, "")]
    for row in report.baselines:
        label = f"fixed_t={row.period:g}"
        rows.append((label + "_full_coverage", row.profit_full, row.uplift_full_percent))
        rows.append((label + "_optimized_cutoff", row.profit_optimized, row.uplift_optimized_percent))
    if report.social is not None:
        rows.append(("social_surplus_contract", report.social.surplus_contract, ""))
        rows.append(("social_surplus_first_best", report.social.surplus_first_best, ""))
        rows.append(("social_surplus_ratio_percent", 100.0 * report.social.ratio, ""))
    return rows


def run(scenario: Scenario, out_dir, seed=None) -> RunArtifacts:
    """Solve a scenario, verify the result, and write artifacts.

    The incentive certificate is always written; `ok` reports whether
    every check passed (the CLI turns that into the exit code).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    use_seed = scenario.solver.seed if seed is None else seed

    if scenario.solver.kind == "discrete":
        solution = solve_discrete(scenario.profile, scenario.cost_model, scenario.market)
        boundaries = None
        chain_feasibility = solution.feasibility
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
        chain_feasibility = None
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

    certificate_ic = brute_force_ic_ir(
        scenario.profile,
        scenario.market,
        solution.periods,
        solution.prices,
        boundaries=boundaries,
    )
    report = build_comparison(
        scenario.profile,
        scenario.cost_model,
        scenario.market,
        solution,
        baseline_periods=scenario.baselines or (1.0,),
    )

    ok = certificate_ic.passed and convergence["converged"]
    if chain_feasibility is not None:
        ok = ok and chain_feasibility.passed

    certificate = {
        "scenario": scenario.name,
        "solver": scenario.solver.kind,
        "seed": use_seed,
        "profit": solution.total_profit,
        "ic_ir": asdict(certificate_ic),
        "chain_feasibility": asdict(chain_feasibility) if chain_feasibility is not None else None,
        "convergence": convergence,
        "passed": ok,
    }

    paths = {
        "solution": out / "solution.csv",
        "comparison": out / "comparison.csv",
        "certificate": out / "certificate.json",
    }
    _write_csv(
        paths["solution"],
        ("group_index", "sigma_boundary", "period", "price", "count", "item_profit"),
        _solution_rows(scenario, solution),
    )
    _write_csv(paths["comparison"], ("label", "profit", "uplift_percent"), _comparison_rows(report))
    with open(paths["certificate"], "w", newline="\n") as fh:
        json.dump(_json_safe(certificate), fh, indent=2, sort_keys=True)
        fh.write("\n")

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

    Each K may warm-start from the previous K's solution (padded with a
    duplicate of its top item) alongside the quantile start and random
    restarts, so profit is nondecreasing in K by construction.
    """
    if scenario.solver.kind != "grouped":
        raise ValueError("group sweeps need a grouped scenario")
    ks = sorted(_whole("group_counts entry", k, 1) for k in group_counts)
    if not ks or len(set(ks)) < len(ks):
        raise ValueError("group counts must be a nonempty list of distinct K")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    use_seed = scenario.solver.seed if seed is None else seed
    baseline_t = scenario.baselines[0] if scenario.baselines else 1.0
    base = fixed_period_baseline(scenario.profile, scenario.cost_model, scenario.market, baseline_t, coverage="full")

    rows = []
    prev = None
    for k in ks:
        extra = []
        if prev is not None:
            extra.append(np.concatenate([prev.boundaries, np.full(k - prev.boundaries.size, prev.boundaries[-1])]))
        sol = solve_with_restarts(
            scenario.profile,
            scenario.cost_model,
            scenario.market,
            k,
            restarts=scenario.solver.restarts,
            seed=use_seed,
            extra_inits=extra,
        )
        prev = sol
        rows.append(
            {
                "groups": k,
                "profit": sol.total_profit,
                "uplift_percent": uplift_percent(sol.total_profit, base.profit),
            }
        )
    _write_csv(
        out / "fig8_sweep.csv",
        ("groups", "profit", "uplift_percent"),
        [(r["groups"], r["profit"], r["uplift_percent"]) for r in rows],
    )
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


def verify_solution_csv(scenario: Scenario, csv_path):
    """Re-check a written solution.csv against its scenario.

    Returns (ok, details); raises ValueError on a malformed file.
    Periods/prices are re-validated with the four-condition check
    (discrete) and the brute-force IC/IR scan.
    """
    boundaries, periods, prices = _read_solution_csv(csv_path)
    details = {}
    if isinstance(scenario.market, DiscreteMarket):
        if periods.size != scenario.market.n_types:
            return False, {"error": "row count does not match the market's types"}
        chain_feasibility = feasibility_check(scenario.profile, scenario.market, periods, prices)
        cert = brute_force_ic_ir(scenario.profile, scenario.market, periods, prices)
        details["chain_feasibility"] = asdict(chain_feasibility)
        ok = chain_feasibility.passed and cert.passed
    else:
        cert = brute_force_ic_ir(scenario.profile, scenario.market, periods, prices, boundaries=boundaries)
        ok = cert.passed
    details["ic_ir"] = asdict(cert)
    return ok, details
