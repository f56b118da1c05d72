"""Acceptance gate: one test (and one printed pass line) per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the summary lines;
the verbose test names mirror the criteria one-to-one.
"""

import os
import time

import numpy as np
import pytest

from hpmin.cli import BenchConfig, main, run
from hpmin.dofmap import expand_solution
from hpmin.mesh import make_lshape, make_perforated_square
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.solver import TrOptions, minimize
from oracles import (
    check_bubble_traces,
    check_edge_parity,
    check_edge_traces,
    check_fd_hessian_is_the_stiffness,
    check_interelement_continuity,
    check_lshape_level1_free_count,
    check_lshape_p2_count,
    check_neohooke_gradient,
    check_partition_of_unity,
    check_plaplace_gradient,
    check_rosenbrock,
    check_sparsity_nesting,
    check_spd_quadratic,
    check_steihaug_boundary,
    check_steihaug_interior,
    check_steihaug_negative_curvature,
    read_rows,
)

REFERENCE_ENERGIES = {1: -7.9209, 2: -7.9488, 3: -7.9562, 4: -7.9587}
REFERENCE_TOL = 5e-4

RNG = np.random.default_rng(20240516)


def _report(criterion, text):
    print(f"\nPASS criterion {criterion}: {text}")


# -- criterion 1: benchmark energy regression through the CLI ------------------

def test_criterion_1_table1_energy_regression(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["plaplace", "--p", "2", "--alpha", "3", "--f", "-10",
                 "--levels", "1..4", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    rows = read_rows(tmp_path / "plaplace.csv")
    assert [r.level for r in rows] == [1, 2, 3, 4]
    for row in rows:
        assert row.energy == pytest.approx(REFERENCE_ENERGIES[row.level],
                                           abs=REFERENCE_TOL), f"level {row.level}"
    assert elapsed < 60.0
    with capsys.disabled():
        _report(1, "reference energies reproduced at +-5e-4 "
                   f"({', '.join(f'{r.energy:.4f}' for r in rows)}) "
                   f"in {elapsed:.1f}s < 60s")


LARGE_LEVEL_ENERGIES = {5: -7.9596, 6: -7.9600}


@pytest.mark.skipif(not os.environ.get("HPMIN_RUN_LARGE"),
                    reason="levels 5-6 are optional; set HPMIN_RUN_LARGE=1")
def test_criterion_1_optional_large_levels(capsys):
    rows, code = run(BenchConfig(p=2, levels=(5, 6)))
    assert code == 0
    for row in rows:
        assert row.energy == pytest.approx(LARGE_LEVEL_ENERGIES[row.level],
                                           abs=REFERENCE_TOL)
    with capsys.disabled():
        _report("1 (optional)", "levels 5-6 reproduce the reference energies")


# -- criterion 2: explicit vs central-difference gradient runs ---------------

def test_criterion_2_gradient_option_equivalence(capsys):
    diffs, dvs = [], []
    for level in (1, 2, 3, 4):
        sols = {}
        for mode in ("explicit", "central_diff"):
            problem, _ = plaplace_problem(make_lshape(level), p=2, alpha=3.0,
                                         f=-10.0)
            # the options hpmin.cli uses for the plaplace benchmark
            sols[mode] = minimize(problem, TrOptions(
                max_iters=200, initial_radius=1.0, gradient_mode=mode))
        explicit, fd = sols["explicit"], sols["central_diff"]
        assert explicit.converged and fd.converged, f"level {level}"
        diffs.append(abs(explicit.energy - fd.energy))
        assert diffs[-1] < 1e-6, f"level {level}: |dJ| = {diffs[-1]:.2e}"
        assert explicit.iterations == fd.iterations, f"level {level}"
        dvs.append(np.max(np.abs(explicit.v_free - fd.v_free))
                   / np.max(np.abs(explicit.v_free)))
        assert dvs[-1] <= 1e-8, f"level {level}: rel |dv| = {dvs[-1]:.2e}"
        if level == 1:
            # the CLI's --grad fd path runs the same solve
            rows, _ = run(BenchConfig(p=2, levels=(1,),
                                      gradient_mode="central_diff"))
            assert rows[0].iters == fd.iterations
            assert rows[0].energy == float(f"{fd.energy:.10g}")
    with capsys.disabled():
        _report(2, "explicit and central-difference runs take equal iteration "
                   "counts and agree in J within 1e-6 and in v within 1e-8 "
                   f"relative on levels 1-4 (max |dJ| = {max(diffs):.2e}, "
                   f"max rel |dv| = {max(dvs):.2e})")


# -- criterion 3: DOF bookkeeping oracles -------------------------------------

def test_criterion_3_dof_bookkeeping(capsys):
    check_lshape_p2_count()
    check_lshape_level1_free_count()
    with capsys.disabled():
        _report(3, "level 0 p=2 has 53 = 21 nodal + 32 edge DOFs; "
                   "level 1 with zero boundary data has 113 free DOFs")


# -- criterion 4: sparsity nesting --------------------------------------------

def test_criterion_4_sparsity_nesting(capsys):
    check_sparsity_nesting()
    with capsys.disabled():
        _report(4, "p=2 pattern restricted to nodal DOFs equals the p=1 pattern")


# -- criterion 5: gradient correctness property suite -------------------------

def test_criterion_5_gradient_correctness(capsys):
    # scalar model on the L-shape, vector model on the perforated square
    check_plaplace_gradient(3.0, RNG)
    check_neohooke_gradient(RNG)
    # FD Hessian of the alpha=2 functional vs directly assembled stiffness
    check_fd_hessian_is_the_stiffness(RNG)
    with capsys.disabled():
        _report(5, "explicit gradients match naive FD to rel 1e-6 at 5 random "
                   "points per model; FD Hessian matches assembled stiffness "
                   "to 1e-5")


# -- criterion 6: basis property suite -----------------------------------------

def test_criterion_6_basis_properties(capsys):
    for p in (2, 3, 4):
        check_edge_traces(p)
        check_bubble_traces(p)
    check_partition_of_unity(4)
    # parity: odd-degree edge modes flip when the edge direction reverses
    check_edge_parity(3, RNG.uniform(-1.0, 1.0, size=10))
    # global continuity across every interior edge with random coefficients
    for p in (2, 3, 4):
        check_interelement_continuity(make_lshape(0), p, RNG)
    with capsys.disabled():
        _report(6, "trace vanishing, partition of unity, parity, and "
                   "inter-element continuity hold at stated tolerances")


# -- criterion 7: nestedness monotonicity ---------------------------------------

def test_criterion_7_nestedness_monotonicity(capsys):
    energies = {}
    for p in (1, 2, 3, 4):
        for level in (0, 1, 2):
            problem, _ = plaplace_problem(make_lshape(level), p=p,
                                          alpha=3.0, f=-10.0)
            sol = minimize(problem, TrOptions())
            assert sol.converged
            energies[p, level] = sol.energy
    for p in (1, 2, 3):
        for level in (0, 1):
            assert energies[p, level + 1] <= energies[p, level] + 1e-10
            assert energies[p + 1, level] <= energies[p, level] + 1e-10
    with capsys.disabled():
        _report(7, "minimal energy is monotone under uniform refinement and "
                   "under degree raising (p in {1,2,3})")


# -- criterion 8: hyperelastic property run --------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_criterion_8_hyperelasticity(p, capsys):
    mesh = make_perforated_square(2)
    assert 500 <= mesh.n_elems <= 2000
    problem, model = neohooke_problem(mesh, p=p, young=2e8, poisson=0.3,
                                      f=(-3.5e7, -3.5e7))
    opts = TrOptions(initial_radius=0.2 * np.sqrt(2.0), max_iters=3000)
    t0 = time.perf_counter()
    sol = minimize(problem, opts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert sol.converged, f"grad norm {sol.grad_norm:.3e} after {sol.iterations}"
    accepted = [r["energy"] for r in sol.history if r["accepted"]]
    assert all(np.isfinite(accepted))
    assert all(b < a + 1e-14 for a, b in zip(accepted, accepted[1:]))

    v_full = expand_solution(model.dofmap, sol.v_free)
    field = model.gradfield(v_full)
    assert field.det.min() > 0.0
    n_nodes = mesh.n_nodes
    disp_x = v_full[:n_nodes] - mesh.nodes[:, 0]
    disp_y = v_full[model.dofmap.n_p:model.dofmap.n_p + n_nodes] - mesh.nodes[:, 1]
    assert disp_x.mean() < 0.0 and disp_y.mean() < 0.0
    with capsys.disabled():
        _report(8, f"p={p}: converged on {mesh.n_elems} elements in "
                   f"{elapsed:.0f}s < 600s; min det F = {field.det.min():.3f} > 0; "
                   f"energies decrease; mean displacement "
                   f"({disp_x.mean():.3f}, {disp_y.mean():.3f}) < 0")


# -- criterion 9: solver unit oracles ---------------------------------------------

def test_criterion_9_solver_oracles(capsys, monkeypatch):
    check_spd_quadratic(RNG, monkeypatch)
    check_rosenbrock(monkeypatch)
    g = RNG.standard_normal(5)
    check_steihaug_boundary(g, 0.25 * np.linalg.norm(g))
    check_steihaug_interior(g)
    check_steihaug_negative_curvature(3.0)
    with capsys.disabled():
        _report(9, "SPD quadratic, Rosenbrock, and Steihaug boundary/negative-"
                   "curvature oracles all hold")
