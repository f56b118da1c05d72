"""Benchmark command-line driver.

Subcommands reproduce the two benchmark studies: `plaplace` sweeps
refinement levels of the L-shape at fixed degree and tabulates the
minimal energies, `hyper` solves the perforated-square elasticity
problem, and `compare` runs one of them at several element degrees and
reports energies against the best achieved value for external
accuracy-vs-dofs plots.  Both problems share one run path and one set of
flags; what differs between them lives in the ``PROBLEMS`` table.  Every
table goes through one CSV writer, to stdout and to files alike.

Exit codes: 0 success, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .dofmap import expand_solution
from .mesh import make_lshape, make_perforated_square
from .problems import neohooke_problem, plaplace_problem
from .solver import TrOptions, minimize
from .vtk import write_solution

__all__ = [
    "BenchConfig",
    "ConvergenceRow",
    "PROBLEMS",
    "run",
    "compare_elements",
    "main",
]

CSV_HEADER = ["level", "nelems", "dofs", "time_s", "iters", "energy"]
COMPARE_HEADER = ["p", *CSV_HEADER, "energy_minus_ref"]
EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_CONFIG_ERROR = 3

ENERGY_DROP = 1e-4  # offset below the best energy for log-scale plots


@dataclass
class BenchConfig:
    """One benchmark run: problem selection, discretization, solver knobs."""

    problem: str = "plaplace"
    p: int = 2
    levels: tuple[int, ...] = (1,)
    alpha: float = 3.0
    f: float = -10.0
    young: float = 2e8
    poisson: float = 0.3
    fx: float = -3.5e7
    fy: float = -3.5e7
    gradient_mode: str = "explicit"
    max_iters: int | None = None
    out_dir: Path | None = None
    export_vtk: bool = False
    verbose: bool = False

    def __post_init__(self):
        if not self.levels:
            raise ValueError("level list must not be empty")
        if self.p < 1:
            raise ValueError(f"degree must be >= 1, got {self.p}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"known: {sorted(PROBLEMS)}")
        if self.export_vtk and self.out_dir is None:
            raise ValueError("--vtk needs --out: VTK files are written "
                             "to the output directory")


@dataclass
class ConvergenceRow:
    """One line of the convergence table (10-significant-digit floats)."""

    level: int
    nelems: int
    dofs: int
    time_s: float
    iters: int
    energy: float

    def __post_init__(self):
        self.time_s = float(f"{self.time_s:.10g}")
        self.energy = float(f"{self.energy:.10g}")


@dataclass(frozen=True)
class ProblemSpec:
    """What the run path needs to know about one benchmark problem."""

    make_mesh: Callable  # level -> QuadMesh
    build: Callable  # (mesh, BenchConfig) -> (EnergyProblem, model)
    initial_radius: Callable  # mesh -> trust radius of the first step
    max_iters: int  # iteration cap unless the config sets one


PROBLEMS = {
    "plaplace": ProblemSpec(
        make_mesh=make_lshape,
        build=lambda mesh, c: plaplace_problem(mesh, p=c.p, alpha=c.alpha,
                                               f=c.f),
        initial_radius=lambda mesh: 1.0,
        max_iters=200,
    ),
    "hyper": ProblemSpec(
        make_mesh=make_perforated_square,
        build=lambda mesh, c: neohooke_problem(
            mesh, p=c.p, young=c.young, poisson=c.poisson, f=(c.fx, c.fy)),
        # a tenth of the domain diagonal
        initial_radius=lambda mesh: 0.1 * np.sqrt(2) * float(
            np.ptp(mesh.nodes, axis=0).max()),
        max_iters=3000,
    ),
}


def _format(row) -> list[str]:
    return [f"{v:.10g}" if isinstance(v, float) else str(v) for v in row]


def write_rows(rows, fh, header) -> None:
    """Write a header and rows as LF-terminated CSV to an open text file."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_format(row) for row in rows)


def run(config: BenchConfig):
    """Solve the configured problem on each of its refinement levels.

    Returns (rows, exit_code).  With an output directory it writes
    ``<problem>.csv`` and, with ``export_vtk``, ``<problem>_level<n>.vtk``.
    A problem too large to build raises ``MemoryError`` naming its degree
    and level.
    """
    spec = PROBLEMS[config.problem]
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], 0
    for level in config.levels:
        mesh = spec.make_mesh(level)
        try:
            problem, model = spec.build(mesh, config)
        except MemoryError as exc:
            raise MemoryError(f"degree {config.p} on level {level}: "
                              f"{str(exc) or 'out of memory'}") from exc
        opts = TrOptions(max_iters=(spec.max_iters if config.max_iters is None
                                    else config.max_iters),
                         initial_radius=spec.initial_radius(mesh),
                         gradient_mode=config.gradient_mode)
        t0 = time.perf_counter()
        sol = minimize(problem, opts)
        elapsed = time.perf_counter() - t0
        if config.verbose:
            for rec in sol.history:
                print(json.dumps(rec, allow_nan=False), file=sys.stderr)
        if not sol.converged:
            failures += 1
            print(f"level {level}: no convergence ({sol.status}, "
                  f"grad norm {sol.grad_norm:.3e})", file=sys.stderr)
        if config.export_vtk:
            write_solution(config.out_dir / f"{config.problem}_level{level}.vtk",
                           model, expand_solution(model.dofmap, sol.v_free),
                           f"{config.problem} level {level}, p={config.p}")
        rows.append(ConvergenceRow(level=level, nelems=mesh.n_elems,
                                   dofs=problem.x0.size, time_s=elapsed,
                                   iters=sol.iterations, energy=sol.energy))
    if config.out_dir is not None:
        with open(config.out_dir / f"{config.problem}.csv", "w", newline="") as fh:
            write_rows(map(astuple, rows), fh, CSV_HEADER)
    return rows, EXIT_SOLVER_FAILURE if failures else EXIT_OK


def compare_elements(config: BenchConfig, degrees):
    """Run several degrees and report energies against the best achieved.

    The reference value is the smallest energy over all runs decreased by
    1e-4, or by one unit in the last place where 1e-4 is below that
    energy's rounding, so every reported difference stays positive and
    log-plottable.
    Returns (rows, exit_code) where each row is
    (p, level, nelems, dofs, time_s, iters, energy, energy_minus_ref).
    """
    if len(degrees) < 1:
        raise ValueError("compare needs at least one degree")
    all_rows = []
    code = EXIT_OK
    for p in degrees:
        rows, sub_code = run(replace(config, p=p, out_dir=None, export_vtk=False))
        code = max(code, sub_code)
        all_rows.extend((p, r) for r in rows)

    best = min(r.energy for _, r in all_rows)
    j_ref = min(best - ENERGY_DROP, math.nextafter(best, -math.inf))
    table = [[p, *astuple(r), float(f"{r.energy - j_ref:.10g}")]
             for p, r in all_rows]
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        with open(config.out_dir / "compare.csv", "w", newline="") as fh:
            write_rows(table, fh, COMPARE_HEADER)
    return table, code


def parse_levels(text: str) -> tuple[int, ...]:
    """Accept '2', '1,3,5', or '1..6'; a repeated entry is an error."""
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    values = tuple(int(part) for part in text.split(","))
    for value in values:
        if values.count(value) > 1:
            raise argparse.ArgumentTypeError(f"{value} is repeated in {text!r}")
    return values


def _gradient_mode(text: str) -> str:
    """The solver's gradient mode for a --grad choice."""
    modes = {"explicit": "explicit", "fd": "central_diff"}
    if text not in modes:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(modes)})")
    return modes[text]


def _add_problem_parsers(sub, parents) -> None:
    """The plaplace and hyper subcommands with their own flags.

    Each flag's dest is its BenchConfig field and an absent flag stays
    absent, so BenchConfig supplies the defaults.  ``SUPPRESS`` must be
    set on each parser: the parents' setting covers only their flags.
    """
    kwargs = dict(parents=parents, argument_default=argparse.SUPPRESS)
    pl = sub.add_parser("plaplace", help="L-shape power-law diffusion sweep",
                        **kwargs)
    pl.add_argument("--levels", type=parse_levels)
    pl.add_argument("--alpha", type=float)
    pl.add_argument("--f", type=float)
    hy = sub.add_parser("hyper", help="perforated-square hyperelasticity",
                        **kwargs)
    hy.add_argument("--level", dest="levels", type=parse_levels,
                    metavar="LEVEL")
    hy.add_argument("--E", dest="young", type=float)
    hy.add_argument("--nu", dest="poisson", type=float)
    hy.add_argument("--fx", type=float)
    hy.add_argument("--fy", type=float)
    pl.set_defaults(problem="plaplace")
    hy.set_defaults(problem="hyper")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    shared.add_argument("--grad", dest="gradient_mode", type=_gradient_mode,
                        metavar="{explicit,fd}")
    shared.add_argument("--max-iters", type=int)
    shared.add_argument("--out", dest="out_dir", type=Path)
    shared.add_argument("--verbose", action="store_true")
    single = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    single.add_argument("--p", type=int)
    single.add_argument("--vtk", dest="export_vtk", action="store_true")
    degrees = argparse.ArgumentParser(add_help=False)
    degrees.add_argument("--p", dest="degrees", type=parse_levels,
                         required=True)

    parser = argparse.ArgumentParser(
        prog="hpmin",
        description="hp-FEM energy minimization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_problem_parsers(sub, [shared, single])
    cp = sub.add_parser("compare", help="energies of several element degrees")
    _add_problem_parsers(cp.add_subparsers(dest="problem", required=True),
                         [shared, degrees])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; map onto the config-error code
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK

    fields = vars(args)
    try:
        if fields.pop("command") == "compare":
            degrees = fields.pop("degrees")
            table, code = compare_elements(BenchConfig(**fields), degrees)
            write_rows(table, sys.stdout, COMPARE_HEADER)
            return code
        rows, code = run(BenchConfig(**fields))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    write_rows(map(astuple, rows), sys.stdout, CSV_HEADER)
    return code


if __name__ == "__main__":
    sys.exit(main())
