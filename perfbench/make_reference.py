#!/usr/bin/env python3
"""Regenerate perfbench/reference/ from the program at the default seed.

    python3 perfbench/make_reference.py

It runs every workload's operations once at the default seed with an
empty reference and records what they return: profits, sweep profits,
grid optima, shape-condition slacks and the solution files that
`verify_oracles` verifies.  Later runs are checked against these
(profits may not fall more than 1e-9 relative below them).  Regenerate
only for a change that is meant to alter results, and say so in its
description.
"""

import json
import shutil
import sys
from pathlib import Path

import run

run.import_program()
sys.path.insert(0, str(run.HERE))

import workloads as w  # noqa: E402

#: discrete_menus comes first: it writes the bundled discrete solution
#: files that verify_oracles reads.
ORDER = (w.DiscreteMenus, w.GroupedSolve, w.VerifyOracles)


def record(ref, solutions, op, product):
    kind, key = op.name.split(":", 1)
    if kind == "solve":
        ref["profits"][product.scenario.name] = product.solution.total_profit
        if key in w.DISCRETE:
            shutil.copyfile(product.paths["solution"], solutions / f"{key}.csv")
    elif kind == "sweep":
        sc, rows, _ = product
        ref["sweep_profits"][sc.name] = [r["profit"] for r in rows]
    elif kind == "oracle":
        ref["oracle"][key] = product[1]
    elif kind == "check-dist":
        ref["theorem3_min_slack"][key] = product[1].min_slack


def main():
    out = w.fresh_dir(run.OUT / "reference")
    solutions = w.REFERENCE_DIR / "solutions"
    if solutions.exists():
        shutil.rmtree(solutions)
    solutions.mkdir(parents=True)
    ref = {"profits": {}, "sweep_profits": {}, "oracle": {}, "theorem3_min_slack": {}}

    for cls in ORDER:
        workload = cls(w.DEFAULT_SEED, out / cls.name, {})
        workload.prepare()
        for op in workload.ops():
            if op.refusal is None:
                record(ref, solutions, op, op.run())
        if cls is w.VerifyOracles:
            # With no stored files, prepare() solved the seeded markets; keep their solutions.
            for path in workload.markets:
                shutil.copyfile(workload.out / "solutions" / path.stem / "solution.csv", solutions / f"{path.stem}.csv")
                ref["profits"][path.stem] = workload.solver_profits[path.stem]

    (w.REFERENCE_DIR / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
