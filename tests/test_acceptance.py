"""Acceptance gate: one test (and one printed pass line) per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the summary lines;
the verbose test names mirror the criteria one-to-one.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

import hpmin.solver
from hpmin.basis import Bubble, EdgeMode, shape_kinds, tabulate
from hpmin.cli import BenchConfig, main, run
from hpmin.dofmap import (
    DirichletSpec,
    build_dofmap,
    expand_solution,
    sample_field,
    sparsity_pattern,
)
from hpmin.energy import NeoHookeModel, PLaplaceModel, identity_deformation
from hpmin.fd import greedy_coloring, hessian_fd
from hpmin.mesh import geometry_factors, make_lshape, make_perforated_square
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.quadrature import rule_for_degree
from hpmin.solver import EnergyProblem, TrOptions, minimize, steihaug_cg
from oracles import free_index, physical_derivatives, read_rows

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
    dm0 = build_dofmap(make_lshape(0), p=2)
    assert dm0.n_p == 53
    # blocked numbering: nodal ids, then edge modes, then bubbles
    assert dm0.mesh.n_nodes == 21 and dm0.mesh.n_edges == 32
    assert dm0.n_p == 21 + 32
    dm1 = build_dofmap(make_lshape(1), p=2,
                       dirichlet=DirichletSpec(g=0.0))
    assert dm1.n_free == 113
    with capsys.disabled():
        _report(3, "level 0 p=2 has 53 = 21 nodal + 32 edge DOFs; "
                   "level 1 with zero boundary data has 113 free DOFs")


# -- criterion 4: sparsity nesting --------------------------------------------

def test_criterion_4_sparsity_nesting(capsys):
    mesh = make_lshape(0)
    pat1 = sparsity_pattern(build_dofmap(mesh, p=1))
    pat2 = sparsity_pattern(build_dofmap(mesh, p=2))
    nodal = mesh.n_nodes
    rows1, cols1 = pat1.nonzero()
    rows2, cols2 = pat2.nonzero()
    mask = (rows2 < nodal) & (cols2 < nodal)
    block = set(zip(rows2[mask].tolist(), cols2[mask].tolist()))
    assert block == set(zip(rows1.tolist(), cols1.tolist()))
    with capsys.disabled():
        _report(4, "p=2 pattern restricted to nodal DOFs equals the p=1 pattern")


# -- criterion 5: gradient correctness property suite -------------------------

def _naive_fd(energy, v, h=1e-6):
    g = np.empty_like(v)
    for i in range(v.size):
        hi = h * max(1.0, abs(v[i]))
        up = v.copy(); up[i] += hi
        dn = v.copy(); dn[i] -= hi
        g[i] = (energy(up) - energy(dn)) / (2.0 * hi)
    return g


def test_criterion_5_gradient_correctness(capsys):
    # scalar model on the L-shape benchmark mesh
    mesh = make_lshape(0)
    rule = rule_for_degree(2)
    geo = geometry_factors(mesh, rule, tabulate(2, rule.points))
    dm = build_dofmap(mesh, 2)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
    for _ in range(5):
        v = RNG.standard_normal(dm.n_dofs)
        g = model.gradient(v)
        err = np.max(np.abs(g - _naive_fd(model.energy, v))) / np.max(np.abs(g))
        assert err < 1e-6

    # vector model on the perforated benchmark mesh
    mesh_h = make_perforated_square(0)
    geo_h = geometry_factors(mesh_h, rule, tabulate(2, rule.points))
    dm_h = build_dofmap(mesh_h, 2, components=2)
    model_h = NeoHookeModel(geo_h, dm_h, c1=1.0, d1=2.0, f=(-1.0, -2.0))
    v_id = identity_deformation(dm_h)
    for _ in range(5):
        v = v_id + 0.005 * RNG.standard_normal(dm_h.n_dofs)
        g = model_h.gradient(v)
        err = np.max(np.abs(g - _naive_fd(model_h.energy, v))) / np.max(np.abs(g))
        assert err < 1e-6

    # FD Hessian of the alpha=2 functional vs directly assembled stiffness
    dm2 = build_dofmap(make_lshape(1), p=1,
                       dirichlet=DirichletSpec(g=0.0))
    mesh2 = dm2.mesh
    rule1 = rule_for_degree(1)
    geo2 = geometry_factors(mesh2, rule1, tabulate(1, rule1.points))
    model2 = PLaplaceModel(geo2, dm2, alpha=2.0, f=-10.0)
    n = dm2.n_free
    K = np.zeros((n, n))
    fi = free_index(dm2)
    dphi_x, dphi_y = physical_derivatives(geo2)
    for t in range(mesh2.n_elems):
        dofs = fi[dm2.elems2dofs[t]]
        ke = np.einsum("q,qa,qb->ab", geo2.wdetj[t], dphi_x[t], dphi_x[t])
        ke += np.einsum("q,qa,qb->ab", geo2.wdetj[t], dphi_y[t], dphi_y[t])
        for a in range(4):
            for b in range(4):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    K[dofs[a], dofs[b]] += ke[a, b]
    grad_free = lambda vf: model2.gradient(expand_solution(dm2, vf))[dm2.free_dofs]
    colored = greedy_coloring(sparsity_pattern(dm2))
    v = RNG.standard_normal(n)
    H = hessian_fd(grad_free, v, colored, g0=grad_free(v)).toarray()
    assert np.max(np.abs(H - K)) / np.max(np.abs(K)) < 1e-5
    with capsys.disabled():
        _report(5, "explicit gradients match naive FD to rel 1e-6 at 5 random "
                   "points per model; FD Hessian matches assembled stiffness "
                   "to 1e-5")


# -- criterion 6: basis property suite -----------------------------------------

def _edge_points(s, n=10):
    t = np.linspace(-1.0, 1.0, n)
    block = {0: (t, -np.ones(n)), 1: (np.ones(n), t),
             2: (t, np.ones(n)), 3: (-np.ones(n), t)}[s]
    return np.column_stack(block)


def test_criterion_6_basis_properties(capsys):
    for p in (2, 3, 4):
        for s_other in range(4):
            table = tabulate(p, _edge_points(s_other))
            for m, kind in enumerate(shape_kinds(p)):
                if isinstance(kind, EdgeMode) and kind.edge != s_other:
                    assert np.max(np.abs(table.values[m])) < 1e-12
                if isinstance(kind, Bubble):
                    assert np.max(np.abs(table.values[m])) < 1e-12
    rule = rule_for_degree(4)
    table = tabulate(4, rule.points)
    assert np.max(np.abs(table.values[:4].sum(axis=0) - 1.0)) < 1e-14

    # parity: odd-degree edge modes flip when the edge direction reverses
    t = RNG.uniform(-1.0, 1.0, size=10)
    fwd = tabulate(3, np.column_stack([t, -np.ones_like(t)]))
    rev = tabulate(3, np.column_stack([-t, -np.ones_like(t)]))
    for m, kind in enumerate(shape_kinds(3)):
        if isinstance(kind, EdgeMode) and kind.edge == 0:
            sign = (-1.0) ** kind.degree
            np.testing.assert_allclose(rev.values[m], sign * fwd.values[m],
                                       atol=1e-13)

    # global continuity across every interior edge with random coefficients
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    for p in (2, 3, 4):
        mesh = make_lshape(0)
        dm = build_dofmap(mesh, p)
        v = RNG.standard_normal(dm.n_dofs)
        lam = np.linspace(0.05, 0.95, 10)
        boundary = set(mesh.boundary_edges.tolist())
        sides = {}
        for tt in range(mesh.n_elems):
            for s in range(4):
                e = mesh.elems2edges[tt, s]
                if e not in boundary:
                    sides.setdefault(e, []).append((tt, s))
        for e, pair in sides.items():
            vals = []
            for tt, s in pair:
                a = mesh.edges2nodes[e, 0]
                tau = (2 * lam - 1 if mesh.elems2nodes[tt, s] == a
                       else 1 - 2 * lam)
                ref = (np.outer((1 - tau) / 2, corners[s])
                       + np.outer((1 + tau) / 2, corners[(s + 1) % 4]))
                vals.append(sample_field(dm, v, tabulate(dm.p, ref))[0, tt])
            np.testing.assert_allclose(vals[0], vals[1], atol=1e-10)
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
    n = 10
    M = RNG.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = RNG.standard_normal(n)
    dense = sp.csr_matrix(np.ones((n, n), dtype=bool))
    quad = EnergyProblem(energy=lambda v: 0.5 * v @ A @ v - b @ v,
                         gradient=lambda v: A @ v - b, pattern=dense,
                         x0=np.zeros(n))
    # J(x0) = 0: the stopping test is grad_norm < 1e-10
    monkeypatch.setattr(hpmin.solver, "GRAD_RTOL", 1e-10)
    sol = minimize(quad, TrOptions())
    assert sol.converged and sol.iterations <= 10 and sol.grad_norm < 1e-10
    np.testing.assert_allclose(sol.v_free, np.linalg.solve(A, b), atol=1e-9)

    dense2 = sp.csr_matrix(np.ones((2, 2), dtype=bool))
    rosen = EnergyProblem(
        energy=lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,
        gradient=lambda v: np.array([
            -2 * (1 - v[0]) - 400 * v[0] * (v[1] - v[0] ** 2),
            200 * (v[1] - v[0] ** 2)]),
        pattern=dense2, x0=np.array([-1.2, 1.0]))
    # J(x0) = 24.2: the stopping test is grad_norm < 9.68e-13
    monkeypatch.setattr(hpmin.solver, "GRAD_RTOL", 4e-14)
    sol_r = minimize(rosen, TrOptions(max_iters=500))
    np.testing.assert_allclose(sol_r.v_free, [1.0, 1.0], atol=1e-8)

    g = RNG.standard_normal(5)
    radius = 0.25 * np.linalg.norm(g)
    step, hit = steihaug_cg(sp.eye(5, format="csr"), g, radius)
    assert hit and np.linalg.norm(step) == pytest.approx(radius, abs=1e-12)
    step_i, hit_i = steihaug_cg(sp.eye(5, format="csr"), g,
                                radius=10 * np.linalg.norm(g))
    assert not hit_i
    np.testing.assert_allclose(step_i, -g, atol=1e-12)
    step_n, hit_n = steihaug_cg(sp.diags([1.0, -1.0]).tocsr(),
                                np.array([0.0, 1.0]), radius=3.0)
    assert hit_n and np.linalg.norm(step_n) == pytest.approx(3.0, abs=1e-12)
    with capsys.disabled():
        _report(9, "SPD quadratic, Rosenbrock, and Steihaug boundary/negative-"
                   "curvature oracles all hold")
