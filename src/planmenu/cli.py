"""Command-line front end.

    planmenu solve      --scenario PATH --out DIR [--seed S]
    planmenu sweep      --scenario PATH --groups 1,2,3 --out DIR [--seed S]
    planmenu verify     --solution solution.csv --scenario PATH
    planmenu oracle     --scenario PATH --grid-step H [--t-max T]
    planmenu check-dist --scenario PATH [--grid-points N]

Exit status is 0 only when every verification passes; artifacts are
still written on failure.  A missing or malformed input file prints one
`planmenu: error: ...` line and exits 2.
"""

import argparse
import json
import sys

import numpy as np

from . import runner
from .distributions import ContinuousMarket, DiscreteMarket
from .oracles import TUPLE_BUDGET, grid_oracle_discrete, grid_oracle_grouped
from .scenarios import bundled_scenario_names, load_scenario


def _percent(uplift):
    """An uplift with its own sign, or n/a where it is NaN."""
    return "n/a" if np.isnan(uplift) else f"{uplift:+.1f}%"


def _cmd_solve(args):
    scenario = load_scenario(args.scenario)
    artifacts = runner.run(scenario, args.out, seed=args.seed)
    print(f"scenario {scenario.name}: profit {artifacts.solution.total_profit:.6f}")
    for row in artifacts.report.baselines:
        print(
            f"  vs fixed t={row.period:g}: {_percent(row.uplift_full_percent)} "
            f"(full coverage), {_percent(row.uplift_optimized_percent)} (optimized cutoff)"
        )
    if artifacts.report.social is not None:
        print(f"  social surplus ratio {100 * artifacts.report.social.ratio:.1f}%")
    print(f"  artifacts in {args.out} ({'PASS' if artifacts.ok else 'FAIL'})")
    return 0 if artifacts.ok else 2


def _cmd_sweep(args):
    scenario = load_scenario(args.scenario)
    groups = [int(k) for k in args.groups.split(",") if k.strip()]
    rows = runner.sweep_groups(scenario, groups, args.out, seed=args.seed)
    for r in rows:
        print(f"K={r['groups']}: profit {r['profit']:.6f} ({_percent(r['uplift_percent'])} vs fixed)")
    return 0


def _cmd_verify(args):
    scenario = load_scenario(args.scenario)
    ok, details = runner.verify_solution_csv(scenario, args.solution)
    print(json.dumps(details, indent=2, default=str))
    print("verification PASS" if ok else "verification FAIL")
    return 0 if ok else 2


def _cmd_oracle(args):
    scenario = load_scenario(args.scenario)
    m = scenario.market
    h, t_max = args.grid_step, args.t_max
    if not (0 < h <= t_max < np.inf):
        raise ValueError("need a finite grid step and t-max with 0 < grid step <= t-max")
    n_t = np.ceil(t_max / h - 0.5)  # counted in floats, so a tiny step is refused before np.arange allocates
    if isinstance(m, DiscreteMarket):
        cells = m.n_types * n_t
    else:
        n_sigma = np.rint((m.sigma_max - m.sigma_min) / h) + 1
        cells = scenario.solver.n_groups * n_sigma * n_t
    if cells > TUPLE_BUDGET:
        raise ValueError(f"grid DP of {cells:.3g} cells exceeds the work budget ({TUPLE_BUDGET:.0e})")
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


def _cmd_check_dist(args):
    scenario = load_scenario(args.scenario)
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

    p = sub.add_parser("solve", help="solve a scenario and write artifacts")
    p.add_argument("--scenario", required=True, help=f"path or bundled name ({', '.join(bundled_scenario_names())})")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="profit vs number of menu items")
    p.add_argument("--scenario", required=True)
    p.add_argument("--groups", required=True, help="comma-separated K values, e.g. 1,2,3,4,5,6")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="re-check a written solution.csv")
    p.add_argument("--solution", required=True)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="grid search the scenario independently")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid-step", type=float, required=True)
    p.add_argument("--t-max", type=float, default=30.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-dist", help="check the market's density shape condition")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid-points", type=int, default=1000)
    p.set_defaults(func=_cmd_check_dist)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # unreadable or malformed input files
        print(f"planmenu: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
