#!/usr/bin/env python3
"""planmenu benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the harness imports `planmenu`
from `src/` next to this directory and exits with status 2 if it is not
there.  It measures `setup_s` in fresh interpreters, then runs whole
passes of the workload's operations, one after another: S // pass_s
passes (at least one), where pass_s is a little above the workload's
typical pass time, so every commit makes the same number of passes.  A
run that would overrun its time stops early (see OVERRUN).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it runs half the passes untraced and half traced, and carries
the per-layer metrics plus the tracing overhead.  Earlier stdout lines
starting with `#` hold the environment and code-size record and a
per-operation summary.  See README.md for what each workload and metric
is for.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
ALL_TIMEOUT_S = 300
#: A run skips a pass that would take it past OVERRUN x --seconds, so a
#: slow spell of the machine cannot push it past its time limit.
OVERRUN = 1.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or `all` for one line per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "planmenu" / "__init__.py").is_file():
        print(f"perfbench: no planmenu sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import planmenu

    if Path(planmenu.__file__).resolve().parent != (SRC / "planmenu").resolve():
        print(f"perfbench: imported planmenu from {planmenu.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return planmenu


def run_all(args):
    """Run every workload in its own process and print one result line each."""
    import workloads

    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=ALL_TIMEOUT_S)
        print(name, out.stdout.splitlines()[-1], flush=True)
    return 0


def make_workload(args, out_dir):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        sys.exit(2)
    return workloads.WORKLOADS[args.workload](args.seed, out_dir, workloads.load_reference())


def measure_setup(args):
    """Least wall time of a fresh interpreter importing planmenu and preparing inputs.

    The least of several, like the operation timings: a slow spell of a
    shared machine only ever adds time, and one interpreter start is
    short enough to fall between such spells.
    """
    import workloads

    times = []
    for i in range(SETUP_REPEATS):
        out_dir = workloads.fresh_dir(OUT / args.workload / f"setup{i}")
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        subprocess.run(cmd + ["--setup-only", str(out_dir)], check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return min(times)


def run_pass(ops, tracer=None):
    from workloads import CheckFailed, OpResult

    results = []
    for op in ops:
        product = error = None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            product = op.run()
        except Exception as exc:  # a failed op is a measurement, not a harness failure
            error = exc
        finally:
            if tracer is not None:
                tracer.active = False
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if error is not None:
            refused = op.refusal is not None and op.refusal in str(error)
            status = "refused" if refused else "error"
            results.append(OpResult(op.name, wall, cpu, status, op.seeded, detail=f"{type(error).__name__}: {error}"))
            continue
        try:
            info = op.check(product)
        except CheckFailed as exc:
            results.append(OpResult(op.name, wall, cpu, "wrong", op.seeded, detail=str(exc)))
            continue
        results.append(OpResult(op.name, wall, cpu, "ok", op.seeded, info.get("kkt"), info.get("digest")))
    return results


def run_passes(ops, count, cap_s, tracer=None):
    """`count` whole passes, fewer only if the next would end past `cap_s` seconds; at least one."""
    passes = []
    start = last = time.perf_counter()
    while len(passes) < count:
        passes.append(run_pass(ops, tracer))
        now = time.perf_counter()
        if 2 * now - last - start > cap_s:  # elapsed plus one more pass like the last
            break
        last = now
    return passes


def check_determinism(passes):
    """An op whose artifacts differ from its first pass at the same seed is wrong."""
    first = {}
    for results in passes:
        for r in results:
            if r.digest is None:
                continue
            if first.setdefault(r.name, r.digest) != r.digest:
                r.status = "wrong"
                r.detail = "artifact bytes differ from an earlier pass at the same seed"


def best_of_passes(passes, attr):
    """Each operation's least time over the passes.

    Contention from other tenants only ever adds time.  On a shared VM
    it comes in spells of milliseconds whose share drifts over minutes,
    so the least of many timings of a short operation is the steady
    estimate of its own cost.
    """
    best = {}
    for results in passes:
        for r in results:
            best[r.name] = min(best.get(r.name, float("inf")), getattr(r, attr))
    return list(best.values())


def op_p90(passes):
    """90th percentile of the operations' least wall times, and how many lie above it."""
    times = best_of_passes(passes, "wall_s")
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return p90, sum(t > p90 for t in times)


def end_to_end(passes, setup_s):
    ops = [r for results in passes for r in results]
    times = best_of_passes(passes, "wall_s")
    # Residuals of seeded menus sit at the golden-section noise floor and
    # change with the seed; they are gated per op instead (see workloads).
    residuals = [r.kkt for r in ops if r.kkt is not None and not r.seeded]
    return {
        "wall_s": (sum(times), "s"),
        "cpu_s": (sum(best_of_passes(passes, "cpu_s")), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (sum(r.status == "ok" for r in ops) / len(ops), "ratio"),
        # 1.0 (far above any converged menu) when no bundled menu came back.
        "kkt_residual_max": (max(residuals, default=1.0), "1"),
    }


def environment(planmenu):
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "planmenu").rglob("*.py")),
        "public_names": sum(
            1 for k, v in vars(planmenu).items() if not k.startswith("_") and not isinstance(v, ModuleType)
        ),
    }


def op_summary(passes):
    summary = {}
    for results in passes:
        for r in results:
            s = summary.setdefault(r.name, {"n": 0, "wall_s": [], "status": {}})
            s["n"] += 1
            s["wall_s"].append(r.wall_s)
            s["status"][r.status] = s["status"].get(r.status, 0) + 1
            if r.detail:
                s["detail"] = r.detail
    for s in summary.values():
        s["wall_s"] = statistics.median(s["wall_s"])
    return summary


def main(argv=None):
    args = parse_args(argv)
    planmenu = import_program()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        make_workload(args, Path(args.setup_only)).prepare()
        return 0
    if args.workload == "all":
        return run_all(args)

    import workloads

    setup_s = None if args.trace else measure_setup(args)
    workload = make_workload(args, workloads.fresh_dir(OUT / args.workload / "run"))
    workload.prepare()
    ops = workload.ops()
    count = max(1, int(args.seconds // workload.pass_s))

    if args.trace:
        import tracing

        # Half the passes untraced, half traced, so the overhead compares like with like.
        untraced = run_passes(ops, max(1, count // 2), 0.5 * OVERRUN * args.seconds)
        scalar_ns, array_ns = tracing.valuation_kernel_ns()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, max(1, count // 2), OVERRUN * args.seconds, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        check_determinism(passes)
        metrics = tracer.layer_metrics(len(traced))
        metrics["market.valuation.scalar_ns"] = (scalar_ns, "ns")
        metrics["market.valuation.array_ns"] = (array_ns, "ns")
        overhead = sum(best_of_passes(traced, "wall_s")) - sum(best_of_passes(untraced, "wall_s"))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        passes = run_passes(ops, count, OVERRUN * args.seconds)
        check_determinism(passes)
        metrics = end_to_end(passes, setup_s)

    results = [r for p in passes for r in p]
    print("# env " + json.dumps(environment(planmenu), sort_keys=True))
    p90, above = op_p90(passes)
    summary = {"passes": len(passes), "op_p90_s": p90, "ops_above_p90": above, "ops": op_summary(passes)}
    print("# ops " + json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not any(r.status in ("wrong", "error") for r in results),
                "attempted": len(results),
                "failed": sum(r.status != "ok" for r in results),
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
