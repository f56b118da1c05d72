"""Benchmark driver: CSV round trips, determinism, CLI surface, VTK output."""

import ast
import importlib
import json
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hpmin.cli
from hpmin.cli import BenchConfig, _build_parser, main, parse_levels, run
from hpmin.energy import identity_deformation
from hpmin.mesh import make_lshape, make_perforated_square
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.solver import TrOptions, minimize
from hpmin.vtk import write_solution, write_vtk
from oracles import read_rows, read_vtk

RECORD_KEYS = {"iteration", "energy", "grad_norm", "radius", "rho", "accepted",
               "step_fraction", "cg_rtol"}


def test_parse_levels():
    assert parse_levels("3") == (3,)
    assert parse_levels("1..4") == (1, 2, 3, 4)
    assert parse_levels("0,2,5") == (0, 2, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(levels=())
    with pytest.raises(ValueError):
        BenchConfig(p=0)
    with pytest.raises(ValueError):
        BenchConfig(problem="heat")


def test_run_plaplace_csv_roundtrip(tmp_path):
    config = BenchConfig(problem="plaplace", p=2, levels=(0, 1),
                         out_dir=tmp_path)
    rows, code = run(config)
    assert code == 0
    parsed = read_rows(tmp_path / "plaplace.csv")
    assert parsed == rows


def test_run_plaplace_vtk_export(tmp_path):
    config = BenchConfig(problem="plaplace", p=2, levels=(0,),
                         out_dir=tmp_path, export_vtk=True)
    _, code = run(config)
    assert code == 0
    text = (tmp_path / "plaplace_level0.vtk").read_text().splitlines()
    mesh = make_lshape(0)
    n_points = mesh.n_elems * 9  # (p+1)^2 sample points per element
    assert f"POINTS {n_points} double" in text
    assert f"POINT_DATA {n_points}" in text
    assert "SCALARS u double 1" in text
    assert f"CELL_DATA {mesh.n_elems * 4}" in text
    assert "SCALARS W double 1" in text


def test_vtk_without_out_is_config_error(tmp_path, monkeypatch, capsys):
    # VTK files go to the output directory: without one, --vtk is an
    # error, not silently ignored
    monkeypatch.chdir(tmp_path)
    assert main(["plaplace", "--levels", "0", "--vtk"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "--vtk" in err and "--out" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name", [
    (["plaplace", "--levels", "0,1"], "plaplace.csv"),
    (["compare", "plaplace", "--p", "1,2", "--levels", "0"], "compare.csv"),
])
def test_stdout_is_the_csv_file(argv, name, tmp_path, capsys):
    # one writer for every table: stdout carries the bytes of the file
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / name).read_bytes()


def test_run_plaplace_determinism():
    config = BenchConfig(problem="plaplace", p=2, levels=(1,))
    rows1, _ = run(config)
    rows2, _ = run(config)
    assert abs(rows1[0].energy - rows2[0].energy) < 1e-12
    assert rows1[0].iters == rows2[0].iters


def test_zero_source_solves_instantly():
    config = BenchConfig(problem="plaplace", p=2, levels=(0,), f=0.0)
    rows, code = run(config)
    assert code == 0
    assert rows[0].energy == 0.0
    assert rows[0].iters <= 1


def test_plaplace_degree_monotonicity():
    rows_p1, _ = run(BenchConfig(p=1, levels=(1,)))
    rows_p2, _ = run(BenchConfig(p=2, levels=(1,)))
    assert rows_p2[0].energy <= rows_p1[0].energy


def test_cli_plaplace_stdout(capsys):
    code = main(["plaplace", "--p", "2", "--levels", "1", "--f", "-10",
                 "--alpha", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "level,nelems,dofs,time_s,iters,energy"
    level, nelems, dofs, _, _, energy = out[1].split(",")
    assert (level, nelems, dofs) == ("1", "48", "113")
    assert float(energy) == pytest.approx(-7.9209, abs=5e-4)


def test_cli_exit_code_on_bad_usage(capsys):
    assert main(["plaplace", "--levels", "oops"]) == 3
    capsys.readouterr()
    # a repeated degree or level would solve, and print, the same row twice
    for argv, repeated in ((["compare", "plaplace", "--p", "2,2", "--levels", "1"],
                            "2 is repeated in '2,2'"),
                           (["plaplace", "--levels", "1,1"], "1 is repeated in '1,1'")):
        assert main(argv) == 3
        assert repeated in capsys.readouterr().err


def test_cli_exit_code_on_bad_config(capsys):
    assert main(["plaplace", "--alpha", "0.5", "--levels", "1"]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_cli_plaplace_alpha_below_two_solves(capsys):
    # the start v = 0 has grad v = 0 everywhere, where the stress of
    # 1 < alpha < 2 is its limit 0 rather than an error
    assert main(["plaplace", "--levels", "1", "--alpha", "1.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("nu", ["0.5", "-1"])
def test_cli_hyper_rejects_bad_poisson_ratio(nu, capsys):
    assert main(["hyper", "--level", "0", "--nu", nu]) == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["plaplace", "--levels", "1", "--alpha", "inf"], "alpha"),
    (["plaplace", "--levels", "1", "--f", "inf"], "load f"),
    (["hyper", "--level", "0", "--fx=inf"], "load f"),
    (["hyper", "--level", "0", "--E", "inf"], "Young's modulus E"),
    (["hyper", "--level", "0", "--fy=nan"], "load f"),
])
def test_cli_nonfinite_parameter_is_config_error(argv, name, capsys):
    # rejected where the value enters, before any arithmetic on it warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and name in err


def test_cli_degree_too_large_for_memory_is_config_error(capsys, monkeypatch):
    # at p = 40 the reference tables alone need 37 GiB; the builder stands
    # in for that allocation, which a test must not make.  A MemoryError
    # without a message still says what ran out
    spec = hpmin.cli.PROBLEMS["plaplace"]
    for error, cause in ((MemoryError("Unable to allocate 37.3 GiB"),
                          "Unable to allocate 37.3 GiB"),
                         (MemoryError(), "out of memory")):
        def too_large(mesh, config):
            raise error

        monkeypatch.setitem(hpmin.cli.PROBLEMS, "plaplace",
                            replace(spec, build=too_large))
        assert main(["plaplace", "--levels", "0", "--p", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: degree 40 on level 0: {cause}\n"
        assert captured.out == ""


def test_cli_huge_alpha_is_config_error(capsys):
    # a finite alpha whose powers overflow is rejected before the solve,
    # not reported as a solver failure after overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plaplace", "--levels", "0", "--alpha", "1e308"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "alpha" in err


@pytest.mark.parametrize("argv", [["plaplace", "--levels", "0", "--f", "1e160"],
                                  ["hyper", "--level", "0", "--E", "1e300"]])
def test_cli_huge_finite_data_ends_unconverged(argv, capsys):
    # a gradient past 1e154 is finite but its squared norm is not; the
    # solve must still run, without overflow warnings, and report exit 2
    # with its cause: the plaplace solve runs out of iterations, the
    # elastic one collapses its radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    status = "max_iters" if argv[0] == "plaplace" else "radius_collapse"
    assert f"level 0: no convergence ({status}, " in capsys.readouterr().err


def test_cli_large_alpha_names_the_iteration_cap(capsys):
    # alpha = 1000 is accepted but does not converge in 200 iterations; the
    # exit-2 message says so, and stdout keeps its table
    assert main(["plaplace", "--levels", "0", "--alpha", "1000"]) == 2
    captured = capsys.readouterr()
    assert "level 0: no convergence (max_iters, grad norm" in captured.err
    assert captured.out.splitlines()[0] == "level,nelems,dofs,time_s,iters,energy"


def test_cli_hyper_stdout_without_load(capsys):
    # with no load the identity start is the minimizer: the material and
    # load flags reach the model, and the solve stops before any step
    code = main(["hyper", "--p", "1", "--level", "0", "--fx", "0", "--fy", "0"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "level,nelems,dofs,time_s,iters,energy"
    level, _, _, _, iters, energy = out[1].split(",")
    assert (level, iters) == ("0", "0")
    # W(I) = 0 up to rounding of the interpolated identity, scale C1 ~ 4e7
    assert abs(float(energy)) < 1e-6


def test_cli_solver_failure_exit(capsys):
    # one iteration cannot reach the tolerance: rows flagged, exit code 2
    code = main(["plaplace", "--levels", "1", "--max-iters", "1"])
    assert code == 2
    assert "no convergence" in capsys.readouterr().err


def test_cli_zero_max_iters_stops_before_first_step(capsys):
    # a cap of 0 is a cap, not "unset": no step, flagged as not converged
    code = main(["plaplace", "--levels", "1", "--max-iters", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "no convergence" in captured.err
    level, _, _, _, iters, _ = captured.out.strip().splitlines()[1].split(",")
    assert (level, iters) == ("1", "0")


def test_cli_negative_max_iters_is_config_error(capsys):
    assert main(["plaplace", "--levels", "1", "--max-iters", "-1"]) == 3
    assert "configuration error" in capsys.readouterr().err


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_verbose_emits_json_log(capsys, monkeypatch):
    # one strict-JSON line per iteration; with steps no longer cut short of
    # det F = 0, this solve rejects trials with a +inf energy, whose rho is
    # null, not -Infinity
    def uncut(*args, **kwargs):
        problem, model = neohooke_problem(*args, **kwargs)
        return replace(problem, max_step=None), model

    monkeypatch.setattr(hpmin.cli, "neohooke_problem", uncut)
    code = main(["hyper", "--level", "0", "--verbose"])
    assert code == 0
    captured = capsys.readouterr()
    records = [json.loads(line, parse_constant=_not_json)
               for line in captured.err.splitlines()]
    iters = int(captured.out.splitlines()[1].split(",")[4])
    assert len(records) == iters
    assert all(set(r) == RECORD_KEYS for r in records)
    assert any(r["rho"] is None for r in records)


def test_verbose_prints_exactly_the_history(capsys, monkeypatch):
    solutions = []

    def solve(problem, opts):
        solutions.append(minimize(problem, opts))
        return solutions[-1]

    monkeypatch.setattr(hpmin.cli, "minimize", solve)
    assert main(["plaplace", "--levels", "0,1", "--verbose"]) == 0
    history = [r for sol in solutions for r in sol.history]
    assert len(solutions) == 2 and history
    assert all(set(r) == RECORD_KEYS for r in history)
    printed = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert printed == history


def test_run_hyperelasticity_small(tmp_path):
    config = BenchConfig(problem="hyper", p=1, levels=(0,),
                         out_dir=tmp_path, export_vtk=True, max_iters=2000)
    rows, code = run(config)
    assert code == 0
    assert np.isfinite(rows[0].energy)
    vtk = (tmp_path / "hyper_level0.vtk").read_text().splitlines()
    assert vtk[0].startswith("# vtk DataFile")
    assert any(line.startswith("CELL_DATA") for line in vtk)
    assert any(line == "SCALARS W double 1" for line in vtk)
    parsed = read_rows(tmp_path / "hyper.csv")
    assert parsed == rows


def test_compare_elements_reference_rule(tmp_path):
    code = main(["compare", "plaplace", "--p", "1,2", "--levels", "0,1",
                 "--alpha", "3", "--f", "-10", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "p,level,nelems,dofs,time_s,iters,energy,energy_minus_ref"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    diffs = np.array([float(r[-1]) for r in rows])
    energies = np.array([float(r[-2]) for r in rows])
    assert np.all(diffs >= 1e-4 - 1e-12)  # positive by construction
    assert diffs.min() == pytest.approx(1e-4, rel=1e-6)
    # Q2 beats Q1 on the same mesh
    p_vals = np.array([int(r[0]) for r in rows])
    lv_vals = np.array([int(r[1]) for r in rows])
    for lv in (0, 1):
        e1 = energies[(p_vals == 1) & (lv_vals == lv)][0]
        e2 = energies[(p_vals == 2) & (lv_vals == lv)][0]
        assert e2 <= e1


def test_compare_single_run(tmp_path):
    code = main(["compare", "plaplace", "--p", "2", "--levels", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[-1]) == pytest.approx(1e-4, rel=1e-9)


def test_compare_hyper(tmp_path, capsys):
    code = main(["compare", "hyper", "--p", "1", "--level", "0",
                 "--max-iters", "2000", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:2] == ["1", "0"]


def test_compare_offset_is_positive_past_the_energy_rounding(capsys):
    # at J ~ 1.8e14 one unit in the last place is 2^-5, so the best energy
    # minus 1e-4 rounds back to it; the offset is then that unit, and every
    # row stays positive
    code = main(["compare", "hyper", "--p", "1,2", "--level", "0",
                 "--E", "2e14", "--fx=-3.5e13", "--fy=-3.5e13"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    energies = [float(r[-2]) for r in rows]
    diffs = [float(r[-1]) for r in rows]
    assert len(rows) == 2 and all(d > 0.0 for d in diffs)
    assert min(diffs) == np.spacing(min(energies)) == 2.0 ** -5


def test_compare_unknown_problem_lists_known(capsys):
    assert main(["compare", "heat", "--p", "1", "--levels", "0"]) == 3
    err = capsys.readouterr().err
    assert "'heat'" in err and "'hyper'" in err and "'plaplace'" in err


def test_compare_requires_degrees(capsys):
    assert main(["compare", "plaplace", "--levels", "0"]) == 3
    assert "--p" in capsys.readouterr().err


def test_compare_rejects_vtk(capsys):
    # compare writes no VTK files, so the flag is an error, not ignored
    assert main(["compare", "plaplace", "--p", "1", "--levels", "0",
                 "--vtk"]) == 3
    assert "--vtk" in capsys.readouterr().err


def test_cli_bad_gradient_mode_lists_choices(capsys):
    assert main(["plaplace", "--grad", "bogus"]) == 3
    err = capsys.readouterr().err
    assert "'bogus'" in err and "explicit" in err and "fd" in err


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    parser = _build_parser()
    for argv in filter(None, commands):
        assert argv[0] == "hpmin"
        parser.parse_args(argv[1:])
    assert {argv[1] for argv in commands if argv} == {"plaplace", "hyper",
                                                      "compare"}


def test_readme_library_session_solves():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A minimal library session:", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["solution"].converged


@pytest.mark.parametrize("grad", ["explicit", "fd"])
def test_barrier_probe_exits_with_solver_failure(grad, capsys):
    # under a load of 1e30 a difference probe crosses det F <= 0; the run
    # must report no convergence instead of dying with a traceback
    code = main(["hyper", "--level", "0", "--grad", grad, "--fx=1e30"])
    assert code == 2
    err = capsys.readouterr().err
    assert "level 0: no convergence (hessian_failed, " in err
    assert "Traceback" not in err


# the --grad choice of the hpmin command each benchmark workload repeats
BENCH_GRAD = {"plaplace_sweep": "explicit", "hyper_p2": "explicit",
              "plaplace_fdgrad": "fd"}


def test_bench_workloads_use_cli_options(monkeypatch):
    # each benchmark level solves with the TrOptions the CLI builds for the
    # same problem, mesh and --grad choice
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == set(BENCH_GRAD)
    for w in workloads.WORKLOADS.values():
        spec = hpmin.cli.PROBLEMS[w.problem]
        args = _build_parser().parse_args([w.problem, "--grad", BENCH_GRAD[w.name]])
        for level in w.levels:
            case = workloads.build(w, level, 0, 0)
            assert case.opts == TrOptions(
                initial_radius=spec.initial_radius(case.mesh),
                max_iters=spec.max_iters,
                gradient_mode=args.gradient_mode), (w.name, level)


def test_hyper_level_defaults_to_bench_config():
    fields = vars(_build_parser().parse_args(["hyper"]))
    assert "levels" not in fields
    del fields["command"]
    assert BenchConfig(**fields).levels == (1,)


def test_readme_library_layout_lists_every_module():
    root = Path(__file__).parents[1]
    block = (root / "README.md").read_text().split("## Library layout", 1)[1]
    table = block.split("\n\n", 2)[1]
    listed = {line.split("`")[1] for line in table.splitlines()
              if line.startswith("| `hpmin.")}
    modules = {f"hpmin.{path.stem}" for path in (root / "src" / "hpmin").glob("*.py")
               if path.stem != "__init__"}
    assert listed == modules


def test_every_exported_name_exists():
    # a name left in __all__ after its definition is gone breaks star imports
    src = Path(__file__).parents[1] / "src" / "hpmin"
    for path in src.glob("*.py"):
        name = "hpmin" if path.stem == "__init__" else f"hpmin.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"


def test_every_exported_name_is_used_outside_tests():
    # a name that only the tests read belongs in tests/oracles.py: each
    # __all__ name must be read in src/hpmin (its own def, class or __all__
    # entry does not count), named in bench/*.py or named in README.md
    root = Path(__file__).parents[1]
    used = set()
    for path in (root / "src" / "hpmin").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    outside = "\n".join([(root / "README.md").read_text(),
                         *(path.read_text() for path in (root / "bench").glob("*.py"))])
    unused = []
    for path in (root / "src" / "hpmin").glob("*.py"):
        name = "hpmin" if path.stem == "__init__" else f"hpmin.{path.stem}"
        for export in getattr(importlib.import_module(name), "__all__", ()):
            if export not in used and not re.search(rf"\b{export}\b", outside):
                unused.append(f"{name}.{export}")
    assert not unused, f"exported names only the tests use: {sorted(unused)}"


def test_every_parameter_default_is_passed_outside_tests():
    # a default that no call in src/hpmin or bench/*.py overrides is a knob
    # only the tests turn: each parameter with a default, on a function or
    # method in src/hpmin, must be passed by some call there, by keyword or
    # positionally past its index (a method's self or cls not counted).
    # So must each dataclass field with a default: passed to its class by
    # keyword or position, passed to dataclasses.replace by keyword, or
    # stored by argparse (an add_argument dest, a set_defaults keyword).
    # main's argv is exempt: the console script calls main(), and the
    # tests drive the CLI through argv
    root = Path(__file__).parents[1]
    sources = [*(root / "src" / "hpmin").glob("*.py"), *(root / "bench").glob("*.py")]
    passed = set()  # (callee name, keyword or position)
    stored = set()  # argparse destinations
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((callee, kw.arg) for kw in node.keywords)
                passed.update((callee, i) for i in range(len(node.args)))
                if callee == "set_defaults":
                    stored.update(kw.arg for kw in node.keywords)
                elif callee == "add_argument":
                    flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
                    dest = [kw.value.value for kw in node.keywords if kw.arg == "dest"]
                    stored.update(dest or [flags[0].lstrip("-").replace("-", "_")])
    unused = []
    for path in (root / "src" / "hpmin").glob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
            unused += [f"{path.stem}.{cls.name}.{f.target.id}"
                       for i, f in enumerate(fields) if f.value is not None
                       and not {(cls.name, f.target.id), (cls.name, i),
                                ("replace", f.target.id)} & passed
                       and f.target.id not in stored]
        init_of = {fn: cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = init_of.get(fn, fn.name) if fn.name == "__init__" else fn.name
            args = fn.args
            pos = args.posonlyargs + args.args
            skip = int(bool(pos) and pos[0].arg in ("self", "cls"))
            with_default = [(a, i - skip) for i, a in enumerate(pos)
                            if i >= len(pos) - len(args.defaults)]
            with_default += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            unused += [f"{path.stem}.{name}({a.arg})" for a, i in with_default
                       if (name, a.arg) not in passed and (name, i) not in passed]
    unused = sorted(set(unused) - {"cli.main(argv)"})
    assert not unused, f"parameter defaults no call overrides: {unused}"


def test_vtk_mesh_export(tmp_path):
    mesh = make_lshape(0)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh.nodes, mesh.elems2nodes)
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert f"POINTS {mesh.n_nodes} double" in text
    assert f"CELLS {mesh.n_elems} {5 * mesh.n_elems}" in text
    types_at = text.index(f"CELL_TYPES {mesh.n_elems}")
    assert set(text[types_at + 1: types_at + 1 + mesh.n_elems]) == {"9"}


def test_solution_file_reproduces_linear_field(tmp_path):
    mesh = make_lshape(0)
    _, model = plaplace_problem(mesh, p=2, alpha=3.0, f=-10.0)
    v = np.zeros(model.dofmap.n_dofs)
    v[:mesh.n_nodes] = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]
    write_solution(tmp_path / "u.vtk", model, v, "linear field")
    vtk = read_vtk(tmp_path / "u.vtk")
    points = vtk["points"]
    np.testing.assert_allclose(vtk["u"], 2.0 * points[:, 0] - points[:, 1],
                               atol=1e-12)
    assert vtk["cells"].shape == (mesh.n_elems * 4, 4)
    assert points.shape == (mesh.n_elems * 9, 2)


@pytest.mark.parametrize("p", [1, 2])
def test_deformation_file_points_are_the_deformation(p, tmp_path):
    # each element's grid corners are its deformed corner nodes, the nodal
    # DOFs, whatever its edge and bubble modes hold; at p = 1 the grid is
    # just those 4 points; W is each element's mean energy density
    mesh = make_perforated_square(0)
    _, model = neohooke_problem(mesh, p=p, young=2e8, poisson=0.3,
                                f=(0.0, 0.0))
    dm = model.dofmap
    rng = np.random.default_rng(p)
    v = identity_deformation(dm) + 1e-3 * rng.standard_normal(dm.n_dofs)
    write_solution(tmp_path / "x.vtk", model, v, "deformation")
    vtk = read_vtk(tmp_path / "x.vtk")
    n = (p + 1) ** 2
    assert vtk["points"].shape == (mesh.n_elems * n, 2)
    assert vtk["cells"].shape == (mesh.n_elems * p * p, 4)
    grid = vtk["points"].reshape(mesh.n_elems, n, 2)
    # grid corners in (xi, eta) order (-1,-1), (-1,1), (1,-1), (1,1) are
    # the local corners 0, 3, 1, 2
    deformed = v.reshape(2, dm.n_p)[:, :mesh.n_nodes].T
    np.testing.assert_allclose(grid[:, [0, p, n - 1 - p, n - 1]],
                               deformed[mesh.elems2nodes[:, [0, 3, 1, 2]]],
                               rtol=1e-11)
    area = model.geometry.wdetj.sum(axis=1)
    np.testing.assert_allclose(vtk["W"].reshape(mesh.n_elems, p * p),
                               np.outer(model.element_energies(v) / area,
                                        np.ones(p * p)), rtol=1e-11)
