"""hpmin benchmark: solve the workloads in ``workloads.py``, check every
solution, and print the metrics by name and unit.

    python3 bench/run.py --workload plaplace_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` prints the end-to-end metrics of untraced solves; ``--trace 1``
solves once untraced and once traced and prints the per-layer metrics.
``--workload all`` runs every workload, untraced and then traced, each in a
process of its own.  The last line of standard output is one JSON record.
See README.md in this directory.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: a BLAS thread pool contends with
# everything else on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up alone is repeated for this share of each round's time, and rounds
# go on until there are MIN_SETUP_SAMPLES set-up samples, so its median is
# steady.
SETUP_SHARE = 0.1
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, key in tracing.level_totals).  "gradient" is
# the solver's gradient span: the explicit gradient, or the central
# differences when the workload runs in central_diff mode.
LAYER_METRICS = {
    "mesh.build_s": ("s", "mesh.build.s"),
    "mesh.geometry_s": ("s", "mesh.geometry.s"),
    "basis.tabulate_s": ("s", "basis.tabulate.s"),
    "quadrature.rule_s": ("s", "quadrature.rule.s"),
    "dofmap.build_s": ("s", "dofmap.build.s"),
    "dofmap.pattern_s": ("s", "dofmap.pattern.s"),
    "problems.self_s": ("s", "problems.self_s"),
    "dofmap.n_free": ("count", "dofmap.n_free"),
    "dofmap.pattern_nnz": ("count", "dofmap.pattern_nnz"),
    "fd.coloring_s": ("s", "fd.coloring.s"),
    "fd.n_colors": ("count", "fd.n_colors"),
    "fd.hessian_calls": ("count", "fd.hessian.calls"),
    "fd.hessian_s": ("s", "fd.hessian.s"),
    "fd.hessian_self_s": ("s", "fd.hessian.self_s"),
    "energy.gradient_calls": ("count", "gradient.calls"),
    "energy.gradient_s": ("s", "gradient.s"),
    "energy.energy_calls": ("count", "energy.energy.calls"),
    "energy.energy_s": ("s", "energy.energy.s"),
    "fd.central_grad_calls": ("count", "fd.central_grad.calls"),
    "solver.cg_calls": ("count", "solver.cg.calls"),
    "solver.cg_s": ("s", "solver.cg.s"),
    "solver.cg_matvecs": ("count", "solver.cg_matvecs"),
    "solver.cg_boundary_exits": ("count", "solver.cg_boundary_exits"),
    "solver.iterations": ("count", "iterations"),
    "solver.accepted": ("count", "accepted"),
    "solver.rejected": ("count", "rejected"),
    "solver.barrier_rejections": ("count", "solver.barrier_rejections"),
    "solver.self_s": ("s", "solver.minimize.self_s"),
}
DERIVED_LAYER_UNITS = {"solver.accept_ratio": "ratio",
                       "trace.overhead": "ratio", "fail_rate": "ratio"}


def use_checkout_source():
    """Import hpmin from this checkout's src/, never from elsewhere."""
    if not (SRC / "hpmin" / "__init__.py").is_file():
        raise SystemExit(f"error: no hpmin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hpmin
    if Path(hpmin.__file__).resolve().parent != SRC / "hpmin":
        raise SystemExit(f"error: hpmin was imported from {hpmin.__file__}")


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(), "seed": seed,
    }


def timing_summary(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n >= 11:
        k = n - 11
        text += f", p{100 * (k + 1) // n} {ordered[k]:.6g}"
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + f", n={n}"


def run_rep(workload, seed: int, rep: int, tracer=None) -> dict:
    """Build, solve and check every level of the workload once.

    A solve that raises counts as failed; the other levels still run.
    """
    from hpmin.solver import minimize

    import workloads

    out = {"setup_s": 0.0, "solve_s": 0.0, "levels": []}
    for level in workload.levels:
        if tracer is not None:
            tracer.level = level
        t0 = time.perf_counter()
        case = workloads.build(workload, level, seed, rep)
        t1 = time.perf_counter()
        record = {"level": level, "n_free": case.problem.x0.size}
        problem = case.problem
        if tracer is not None:
            tracer.count("dofmap.n_free", problem.x0.size)
            tracer.count("dofmap.pattern_nnz", problem.pattern.nnz)
            problem = tracer.instrument(problem)
        t_solve = time.perf_counter()
        try:
            if tracer is None:
                sol = minimize(problem, case.opts)
            else:
                with tracer.span("solver.minimize"):
                    sol = minimize(problem, case.opts)
            t2 = time.perf_counter()
            error = workloads.check(workload, case, sol)
            record.update(iterations=sol.iterations, accepted=sol.accepted,
                          rejected=sol.rejected, converged=sol.converged,
                          energy=sol.energy)
        except Exception as exc:  # a failed solve must not stop the benchmark
            t2 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        record.update(setup_s=t1 - t0, solve_s=t2 - t_solve, error=error)
        out["setup_s"] += t1 - t0
        out["solve_s"] += t2 - t_solve
        out["levels"].append(record)
    return out


def setup_samples(workload, seed: int, budget_s: float) -> list[float]:
    """Times of the workload's set-up alone, repeated for ``budget_s``."""
    import workloads

    samples = []
    deadline = time.perf_counter() + budget_s
    while not samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for level in workload.levels:
            workloads.build(workload, level, seed, 0)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(workload, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics from untraced runs.

    Each round solves the whole workload once, repeats its set-up alone for
    SETUP_SHARE of the round, and times the calibration kernel, so that the
    medians are taken over the whole run; rounds go on for as long as
    another one fits.  Each time is scaled by the reference kernel time over
    the mean of the two kernel times around its round.
    """
    from calibration import REFERENCE_S, Calibration

    deadline = time.perf_counter() + seconds
    kernel = Calibration()
    wall = {"solve_s": [], "setup_s": [], "calibration_s": [kernel.seconds()]}
    scaled = {"solve_s": [], "setup_s": []}
    reps = []
    while True:
        t0 = time.perf_counter()
        reps.append(run_rep(workload, seed, len(reps)))
        setups = [reps[-1]["setup_s"]] + setup_samples(
            workload, seed, SETUP_SHARE * (time.perf_counter() - t0))
        wall["calibration_s"].append(kernel.seconds())
        scale = 2 * REFERENCE_S / sum(wall["calibration_s"][-2:])
        wall["solve_s"].append(reps[-1]["solve_s"])
        wall["setup_s"] += setups
        scaled["solve_s"].append(reps[-1]["solve_s"] * scale)
        scaled["setup_s"] += [t * scale for t in setups]
        round_s = time.perf_counter() - t0
        if (time.perf_counter() + round_s > deadline
                and len(wall["setup_s"]) >= MIN_SETUP_SAMPLES):
            break
    for name, samples in scaled.items():
        print(f"{name}: {timing_summary(samples)} (s at reference speed)")
    for name, samples in wall.items():
        print(f"{name} wall: {timing_summary(samples)} (s)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"solve_s": statistics.median(scaled["solve_s"]),
               "setup_s": statistics.median(scaled["setup_s"]),
               "peak_rss_mb": peak_rss_mb}
    return metrics, reps, {"wall": wall, "scaled": scaled}


def traced_metrics(workload, seed: int, out_stem: Path) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics from one traced repetition, the traced-run
    consistency problems, and both repetitions' level records."""
    import tracing

    untraced = run_rep(workload, seed, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_rep(workload, seed, 0, tracer)
    problems = [] if tracer.restored() else ["a wrapped name was not restored"]

    gradient_span = ("fd.central_grad" if workload.gradient_mode == "central_diff"
                     else "energy.gradient")
    totals = tracing.level_totals(tracer)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    for record in traced["levels"]:
        t = totals[record["level"]]
        t["gradient.calls"] = t[gradient_span + ".calls"]
        t["gradient.s"] = t[gradient_span + ".s"]
        if "iterations" in record:
            problems += consistency_problems(tracer, record, t, gradient_span)
            for key in ("iterations", "accepted", "rejected"):
                t[key] = record[key]
        for name, (_, key) in LAYER_METRICS.items():
            if name == "fd.n_colors":
                metrics[name] = max(metrics[name], t[key])
            else:
                metrics[name] += t[key]
    if min(tracer.self_times(), default=0.0) < 0.0:
        problems.append("a span has negative self time")

    attempts = metrics["solver.iterations"]
    metrics["solver.accept_ratio"] = metrics["solver.accepted"] / attempts if attempts else 0.0
    metrics["trace.overhead"] = traced["solve_s"] / untraced["solve_s"]
    levels = untraced["levels"] + traced["levels"]
    metrics["fail_rate"] = sum(r["error"] is not None for r in levels) / len(levels)

    with open(out_stem.with_name(out_stem.name + "-spans.jsonl"), "w") as fh:
        for span in tracer.spans_as_dicts(workload.name):
            fh.write(json.dumps(span) + "\n")
    return metrics, [untraced, traced], problems


def consistency_problems(tracer, record: dict, t: dict, gradient_span: str) -> list[str]:
    """Exact relations between the traced counts and the solver's result."""
    import tracing

    level = record["level"]
    seen = tracing.solver_trace(tracer, level, gradient_span)
    colors = t["fd.n_colors"]
    hessians = t["fd.hessian.calls"]
    expected = {
        "iterations": record["iterations"], "accepted": record["accepted"],
        "rejected": record["rejected"],
    }
    problems = [f"level {level}: traced {key} {seen[key]} != {value}"
                for key, value in expected.items() if seen[key] != value]
    if t["solver.cg.calls"] != record["iterations"]:
        problems.append(f"level {level}: {t['solver.cg.calls']:g} CG calls "
                        f"!= {record['iterations']} iterations")
    if record["converged"] and hessians != record["accepted"]:
        problems.append(f"level {level}: {hessians:g} Hessians != "
                        f"{record['accepted']} accepted steps")
    gradients = hessians * colors + record["accepted"] + 1
    if t["gradient.calls"] != gradients:
        problems.append(f"level {level}: {t['gradient.calls']:g} gradient calls "
                        f"!= {hessians:g}*{colors:g} + {record['accepted']} + 1")
    return problems


def run_one(workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its metrics and return the result record."""
    OUT_DIR.mkdir(exist_ok=True)
    out_stem = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}"
    env = environment(seed)
    env["loadavg_before"] = os.getloadavg()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    problems, samples = [], {}
    if trace:
        values, reps, problems = traced_metrics(workload, seed, out_stem)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units.update(DERIVED_LAYER_UNITS)
    else:
        values, reps, samples = measure(workload, seed, seconds)
        units = END_TO_END_UNITS
    env["loadavg_after"] = os.getloadavg()
    print(f"# loadavg_after={env['loadavg_after']}")

    levels = [r for rep in reps for r in rep["levels"]]
    failed = sum(r["error"] is not None for r in levels)
    for r in levels:
        if r["error"] is not None:
            print(f"FAILED level {r['level']}: {r['error']}")
    for problem in problems:
        print(f"INCONSISTENT {problem}")
    metrics = {name: {"value": int(values[name]) if unit == "count" else values[name],
                      "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "fail_rate" not in metrics:
        print(f"fail_rate {failed / len(levels):.6g} ratio")
    print(f"{failed} of {len(levels)} level solves failed")
    result = {"correct": failed == 0 and not problems,
              "attempted": len(levels), "failed": failed, "metrics": metrics}
    with open(out_stem.with_suffix(".json"), "w") as fh:
        json.dump({"workload": workload.name, "environment": env,
                   "repetitions": reps, "samples": samples,
                   "problems": problems, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Every workload, untraced then traced, one process at a time."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                print(f"error: {name} exited with code {child.returncode}",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            record = json.loads(lines[-1])
            combined["correct"] &= record["correct"]
            combined["attempted"] += record["attempted"]
            combined["failed"] += record["failed"]
            for metric, value in record["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    use_checkout_source()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import workloads

    run_one(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
