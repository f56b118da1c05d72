"""Benchmark command-line driver.

Subcommands reproduce the two benchmark studies: `plaplace` sweeps
refinement levels of the L-shape at fixed degree and tabulates the
minimal energies, `hyper` solves the perforated-square elasticity
problem, and `compare` runs several element degrees from a key=value
spec file and reports energies against the best achieved value for
external accuracy-vs-dofs plots.

Exit codes: 0 success, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dofmap import expand_solution
from .mesh import element_areas, make_lshape, make_perforated_square
from .problems import neohooke_problem, plaplace_problem
from .solver import TrOptions, minimize
from .vtk import solution_grid, write_vtk

__all__ = [
    "BenchConfig",
    "ConvergenceRow",
    "run_plaplace",
    "run_hyperelasticity",
    "compare_elements",
    "main",
]

CSV_HEADER = ["level", "nelems", "dofs", "time_s", "iters", "energy"]
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
    f_vec: tuple[float, float] = (-3.5e7, -3.5e7)
    gradient_mode: str = "explicit"
    max_iters: int | None = None
    grad_tol: float | None = None
    out_dir: Path | None = None
    export_vtk: bool = False
    verbose: bool = False

    def __post_init__(self):
        if not self.levels:
            raise ValueError("level list must not be empty")
        if self.p < 1:
            raise ValueError(f"degree must be >= 1, got {self.p}")
        if self.problem not in ("plaplace", "hyperelasticity"):
            raise ValueError(f"unknown problem {self.problem!r}")


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


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v
                             for v in row])


def read_rows(path) -> list[ConvergenceRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            ConvergenceRow(
                level=int(r["level"]), nelems=int(r["nelems"]),
                dofs=int(r["dofs"]), time_s=float(r["time_s"]),
                iters=int(r["iters"]), energy=float(r["energy"]),
            )
            for r in reader
        ]


def _solver_options(config: BenchConfig, initial_radius: float,
                    max_iters_default: int) -> TrOptions:
    log = None
    if config.verbose:
        log = lambda rec: print(json.dumps(rec), file=sys.stderr)
    return TrOptions(
        grad_tol=config.grad_tol,
        max_iters=config.max_iters or max_iters_default,
        initial_radius=initial_radius,
        gradient_mode=config.gradient_mode,
        log=log,
    )


def _export_vtk(config: BenchConfig, level: int, model, v_full):
    config.out_dir.mkdir(parents=True, exist_ok=True)
    mesh = model.dofmap.mesh
    if config.problem == "plaplace":
        points, cells, values = solution_grid(model.dofmap, v_full,
                                              n_sub=config.p + 1)
        write_vtk(config.out_dir / f"plaplace_level{level}.vtk",
                  points, cells, point_data={"u": values},
                  title=f"p-Laplace level {level}, p={config.p}")
    else:
        # nodes displaced by the bilinear part of the deformation,
        # per-element mean stored-energy density as a cell field
        deformed = np.column_stack([
            v_full[:mesh.n_nodes],
            v_full[model.dofmap.n_p:model.dofmap.n_p + mesh.n_nodes],
        ])
        dens = model.element_energies(v_full) / element_areas(mesh)
        write_vtk(config.out_dir / f"hyper_level{level}.vtk",
                  deformed, mesh.elems2nodes, cell_data={"W": dens},
                  title=f"hyperelasticity level {level}, p={config.p}")


def _run_level(config: BenchConfig, level: int) -> tuple[ConvergenceRow, bool]:
    """Solve one benchmark level."""
    if config.problem == "plaplace":
        mesh = make_lshape(level)
        problem, model = plaplace_problem(mesh, p=config.p, alpha=config.alpha,
                                          f=config.f)
        opts = _solver_options(config, initial_radius=1.0, max_iters_default=200)
    else:
        mesh = make_perforated_square(level)
        problem, model = neohooke_problem(
            mesh, p=config.p, young=config.young, poisson=config.poisson,
            f=config.f_vec,
        )
        diameter = float(np.max(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)))
        opts = _solver_options(config, initial_radius=0.1 * np.sqrt(2) * diameter,
                               max_iters_default=3000)
    t0 = time.perf_counter()
    sol = minimize(problem, opts)
    elapsed = time.perf_counter() - t0
    if not sol.converged:
        print(f"level {level}: no convergence (grad norm {sol.grad_norm:.3e})",
              file=sys.stderr)
    if config.out_dir is not None and config.export_vtk:
        _export_vtk(config, level, model,
                    expand_solution(model.dofmap, sol.v_free))
    row = ConvergenceRow(level=level, nelems=mesh.n_elems,
                         dofs=problem.x0.size, time_s=elapsed,
                         iters=sol.iterations, energy=sol.energy)
    return row, sol.converged


def _run_levels(config: BenchConfig, csv_name: str):
    results = [_run_level(config, level) for level in config.levels]
    rows = [row for row, _ in results]
    failures = sum(not ok for _, ok in results)
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        write_rows([[r.level, r.nelems, r.dofs, r.time_s, r.iters, r.energy]
                    for r in rows], config.out_dir / csv_name)
    return rows, EXIT_SOLVER_FAILURE if failures else EXIT_OK


def run_plaplace(config: BenchConfig):
    """Energy-minimization sweep over L-shape refinement levels.

    Returns (rows, exit_code); writes plaplace.csv and optional per-level
    VTK samplings of the solution into the output directory.
    """
    if config.problem != "plaplace":
        raise ValueError("config is not a plaplace benchmark")
    return _run_levels(config, "plaplace.csv")


def run_hyperelasticity(config: BenchConfig):
    """Perforated-square elasticity sweep; optionally exports deformed meshes.

    Returns (rows, exit_code); writes hyper.csv into the output directory.
    """
    if config.problem != "hyperelasticity":
        raise ValueError("config is not a hyperelasticity benchmark")
    return _run_levels(config, "hyper.csv")


def compare_elements(config: BenchConfig, degrees):
    """Run several degrees and report energies against the best achieved.

    The reference value is the smallest energy over all runs decreased by
    1e-4, so every reported difference stays positive and log-plottable.
    Returns (rows, exit_code) where each row is
    (p, level, nelems, dofs, time_s, iters, energy, energy_minus_ref).
    """
    if len(degrees) < 1:
        raise ValueError("compare needs at least one degree")
    runner = run_plaplace if config.problem == "plaplace" else run_hyperelasticity
    all_rows = []
    code = EXIT_OK
    for p in degrees:
        sub = replace(config, p=p, out_dir=None, export_vtk=False)
        rows, sub_code = runner(sub)
        code = max(code, sub_code)
        all_rows.extend((p, r) for r in rows)

    j_ref = min(r.energy for _, r in all_rows) - ENERGY_DROP
    table = [
        [p, r.level, r.nelems, r.dofs, r.time_s, r.iters, r.energy,
         float(f"{r.energy - j_ref:.10g}")]
        for p, r in all_rows
    ]
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        path = config.out_dir / "compare.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p"] + CSV_HEADER + ["energy_minus_ref"])
            for row in table:
                writer.writerow([f"{v:.10g}" if isinstance(v, float) else v
                                 for v in row])
    return table, code


def parse_levels(text: str) -> tuple[int, ...]:
    """Accept '2', '1,3,5', or '1..6'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(","))


def read_config_file(path) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_GRAD_MODES = {"explicit": "explicit", "fd": "central_diff"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpmin",
        description="hp-FEM energy minimization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("plaplace", help="L-shape power-law diffusion sweep")
    pl.add_argument("--p", type=int, default=2)
    pl.add_argument("--alpha", type=float, default=3.0)
    pl.add_argument("--f", type=float, default=-10.0)
    pl.add_argument("--levels", type=parse_levels, default=(1,))
    pl.add_argument("--grad", choices=sorted(_GRAD_MODES), default="explicit")
    pl.add_argument("--max-iters", type=int, default=None)
    pl.add_argument("--out", type=Path, default=None)
    pl.add_argument("--vtk", action="store_true")
    pl.add_argument("--verbose", action="store_true")

    hy = sub.add_parser("hyper", help="perforated-square hyperelasticity")
    hy.add_argument("--p", type=int, default=2)
    hy.add_argument("--level", type=parse_levels, default=(2,))
    hy.add_argument("--E", type=float, default=2e8)
    hy.add_argument("--nu", type=float, default=0.3)
    hy.add_argument("--fx", type=float, default=-3.5e7)
    hy.add_argument("--fy", type=float, default=-3.5e7)
    hy.add_argument("--grad", choices=sorted(_GRAD_MODES), default="explicit")
    hy.add_argument("--max-iters", type=int, default=None)
    hy.add_argument("--out", type=Path, default=None)
    hy.add_argument("--vtk", action="store_true")
    hy.add_argument("--verbose", action="store_true")

    cp = sub.add_parser("compare", help="element comparison from a spec file")
    cp.add_argument("--spec", type=Path, required=True)
    cp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE")
    cp.add_argument("--out", type=Path, default=None)
    return parser


def _config_from_args(args) -> BenchConfig:
    if args.command == "plaplace":
        return BenchConfig(
            problem="plaplace", p=args.p, levels=args.levels, alpha=args.alpha,
            f=args.f, gradient_mode=_GRAD_MODES[args.grad],
            max_iters=args.max_iters, out_dir=args.out, export_vtk=args.vtk,
            verbose=args.verbose,
        )
    return BenchConfig(
        problem="hyperelasticity", p=args.p, levels=args.level,
        young=args.E, poisson=args.nu, f_vec=(args.fx, args.fy),
        gradient_mode=_GRAD_MODES[args.grad], max_iters=args.max_iters,
        out_dir=args.out, export_vtk=args.vtk, verbose=args.verbose,
    )


def _compare_config(args) -> tuple[BenchConfig, list[int]]:
    values = read_config_file(args.spec)
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value: {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()

    degrees = [int(v) for v in values.get("p", "1,2").split(",")]
    config = BenchConfig(
        problem=values.get("problem", "plaplace"),
        levels=parse_levels(values.get("levels", "1")),
        alpha=float(values.get("alpha", 3.0)),
        f=float(values.get("f", -10.0)),
        young=float(values.get("E", 2e8)),
        poisson=float(values.get("nu", 0.3)),
        f_vec=(float(values.get("fx", -3.5e7)), float(values.get("fy", -3.5e7))),
        gradient_mode=_GRAD_MODES[values.get("grad", "explicit")],
        max_iters=int(values["max_iters"]) if "max_iters" in values else None,
        out_dir=args.out or (Path(values["out"]) if "out" in values else None),
    )
    return config, degrees


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; map onto the config-error code
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK

    try:
        if args.command == "compare":
            config, degrees = _compare_config(args)
            table, code = compare_elements(config, degrees)
            for row in table:
                print(" ".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                               for v in row))
            return code
        config = _config_from_args(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    runner = run_plaplace if config.problem == "plaplace" else run_hyperelasticity
    try:
        rows, code = runner(config)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(",".join(CSV_HEADER))
    for r in rows:
        print(f"{r.level},{r.nelems},{r.dofs},{r.time_s:.10g},"
              f"{r.iters},{r.energy:.10g}")
    return code


if __name__ == "__main__":
    sys.exit(main())
