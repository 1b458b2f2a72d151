"""Command-line front end.

    planmenu solve      --scenario PATH --out DIR [--seed S]
    planmenu sweep      --scenario PATH --groups 1,2,3 --out DIR [--seed S]
    planmenu verify     --solution solution.csv --scenario PATH
    planmenu oracle     --scenario PATH --grid-step H [--t-max T]
    planmenu check-dist --scenario PATH [--grid-points N]

PATH is a scenario file or a bundled scenario's name.  --seed replaces
a grouped scenario's restart seed, an integer >= 0; a
discrete scenario has no restarts and refuses it.  Exit status is 0
only when every verification passes: for solve, sweep and verify, that
is runner.certify's verdict on each menu (IC/IR, the price chain of a
discrete market and a profit below none of the scenario's baselines),
and for solve and sweep every solve's convergence; artifacts are still
written on failure.  A missing or malformed input file prints one
`planmenu: error: ...` line and exits 2.
"""

import argparse
import json
import sys

import numpy as np

from . import runner
from .distributions import ContinuousMarket, DiscreteMarket
from .oracles import _check_cells, grid_oracle_discrete, grid_oracle_grouped, uplift_percent
from .scenarios import bundled_scenario_names, load_scenario


def _percent(uplift):
    """An uplift with its own sign, or n/a where it is NaN."""
    return "n/a" if np.isnan(uplift) else f"{uplift:+.1f}%"


def _print_below(below):
    """The baseline row a menu falls below, if any (runner.certify)."""
    if below is not None:
        print(f"  below baseline {below['label']} ({below['profit']:.6f})")


def _cmd_solve(scenario, args):
    artifacts = runner.run(scenario, args.out, seed=args.seed)
    profit = artifacts.solution.total_profit
    print(f"scenario {scenario.name}: profit {profit:.6f}")
    for row in artifacts.report.baselines:
        full, opt = (_percent(uplift_percent(profit, base)) for base in (row.profit_full, row.profit_optimized))
        print(f"  vs fixed t={row.period:g}: {full} (full coverage), {opt} (optimized cutoff)")
    ratio = 100 * artifacts.report.social.ratio  # NaN where the first-best has no surplus
    print(f"  social surplus ratio {'n/a' if np.isnan(ratio) else f'{ratio:.1f}%'}")
    _print_below(artifacts.certificate["below_baseline"])
    print(f"  artifacts in {args.out} ({'PASS' if artifacts.ok else 'FAIL'})")
    return 0 if artifacts.ok else 2


def _cmd_sweep(scenario, args):
    entries = [k.strip() for k in args.groups.split(",") if k.strip()]
    if not all(k.isdecimal() and int(k) >= 1 for k in entries):
        raise ValueError(f"--groups takes comma-separated integers >= 1, got {args.groups!r}")
    rows = runner.sweep_groups(scenario, [int(k) for k in entries], args.out, seed=args.seed)
    for r in rows:
        flag = "" if r["passed"] else " FAIL" if r["converged"] else " NOT CONVERGED"
        print(f"K={r['groups']}: profit {r['profit']:.6f} ({_percent(r['uplift_percent'])} vs fixed){flag}")
        _print_below(r["below_baseline"])
    return 0 if all(r["passed"] for r in rows) else 2


def _cmd_verify(scenario, args):
    ok, details = runner.verify_solution_csv(scenario, args.solution)
    print(json.dumps(details, indent=2, default=str))
    _print_below(details.get("below_baseline"))
    print("verification PASS" if ok else "verification FAIL")
    return 0 if ok else 2


def _cmd_oracle(scenario, args):
    m = scenario.market
    h, t_max = args.grid_step, args.t_max
    if not (0 < h <= t_max < np.inf):
        raise ValueError("need a finite grid step and t-max with 0 < grid step <= t-max")
    # bounded in floats first, so a tiny step is refused before np.arange
    # allocates: a discrete market's whole grid, which its oracle searches;
    # a grouped market's period grid, and the cells of one period, the
    # least its oracle searches after the cost cut.  The grid DP itself
    # counts, and refuses, the cells it would search (oracles._check_cells).
    n_t = np.ceil(t_max / h - 0.5)
    if isinstance(m, DiscreteMarket):
        _check_cells(m.n_types * n_t)
    else:
        n_sigma = np.rint((m.sigma_max - m.sigma_min) / h) + 1
        _check_cells(max(scenario.solver.n_groups * n_sigma, n_t))
    t_grid = np.arange(h, t_max + 0.5 * h, h)
    if isinstance(m, DiscreteMarket):
        profit, periods = grid_oracle_discrete(scenario.profile, scenario.cost_model, m, t_grid)
        print(f"grid optimum {profit:.8f} at periods {np.round(periods, 6).tolist()}")
    else:
        sigma_grid = np.linspace(m.sigma_min, m.sigma_max, int(n_sigma))
        profit, bounds, periods = grid_oracle_grouped(
            scenario.profile, scenario.cost_model, m, scenario.solver.n_groups, sigma_grid, t_grid
        )
        print(
            f"grid optimum {profit:.8f} at boundaries {np.round(bounds, 6).tolist()} "
            f"periods {np.round(periods, 6).tolist()}"
        )
    return 0


def _cmd_check_dist(scenario, args):
    if not isinstance(scenario.market, ContinuousMarket):
        print("discrete market: no density shape condition to check")
        return 0
    report = scenario.market.verify_theorem3(grid_points=args.grid_points)
    print(
        f"boundary-unimodality condition: min slack {report.min_slack:.6g} "
        f"at sigma={report.argmin_sigma:.4f} over {report.grid_points} points -> "
        f"{'HOLDS' if report.holds else 'FAILS'}"
    )
    return 0 if report.holds else 2


def main(argv=None):
    parser = argparse.ArgumentParser(prog="planmenu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # every command reads a scenario
    shared.add_argument("--scenario", required=True, help=f"path or bundled name ({', '.join(bundled_scenario_names())})")
    solving = argparse.ArgumentParser(add_help=False)  # the commands that solve and write artifacts
    solving.add_argument("--out", required=True)
    solving.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("solve", parents=[shared, solving], help="solve a scenario and write artifacts")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", parents=[shared, solving], help="profit vs number of menu items")
    p.add_argument("--groups", required=True, help="comma-separated K values, e.g. 1,2,3,4,5,6")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[shared], help="re-check a written solution.csv")
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", parents=[shared], help="grid search the scenario independently")
    p.add_argument("--grid-step", type=float, required=True)
    p.add_argument("--t-max", type=float, default=30.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-dist", parents=[shared], help="check the market's density shape condition")
    p.add_argument("--grid-points", type=int, default=1000)
    p.set_defaults(func=_cmd_check_dist)

    args = parser.parse_args(argv)
    try:
        return args.func(load_scenario(args.scenario), args)
    except (ValueError, OSError) as exc:  # unreadable or malformed input files
        print(f"planmenu: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
