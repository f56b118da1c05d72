"""Trust-region solver: subproblem oracles, convergence, and robustness."""

import numpy as np
import pytest
import scipy.sparse as sp

from hpmin.dofmap import SparsityPattern, expand_solution
from hpmin.mesh import make_lshape, make_perforated_square, make_rect
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.solver import EnergyProblem, TrOptions, minimize, steihaug_cg

RNG = np.random.default_rng(20240515)


def _dense_pattern(n):
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return SparsityPattern(n=n, rows=rows, cols=cols)


def test_steihaug_interior_newton_step():
    g = RNG.standard_normal(6)
    step, hit = steihaug_cg(sp.eye(6, format="csr"), g, radius=10 * np.linalg.norm(g))
    np.testing.assert_allclose(step, -g, atol=1e-12)
    assert not hit


def test_steihaug_boundary_step():
    g = RNG.standard_normal(6)
    radius = 0.5 * np.linalg.norm(g)
    step, hit = steihaug_cg(sp.eye(6, format="csr"), g, radius=radius)
    np.testing.assert_allclose(step, -radius * g / np.linalg.norm(g), atol=1e-12)
    assert hit


def test_steihaug_negative_curvature():
    # g along the negative eigenvector: move straight to the boundary
    H = sp.diags([1.0, -1.0]).tocsr()
    g = np.array([0.0, 1.0])
    step, hit = steihaug_cg(H, g, radius=2.5)
    assert hit
    assert np.linalg.norm(step) == pytest.approx(2.5, abs=1e-12)
    assert step[1] < 0  # descends along -g


def test_steihaug_zero_gradient():
    step, hit = steihaug_cg(sp.eye(3, format="csr"), np.zeros(3), radius=1.0)
    np.testing.assert_array_equal(step, 0.0)
    assert not hit


def test_steihaug_rejects_bad_radius():
    with pytest.raises(ValueError):
        steihaug_cg(sp.eye(2, format="csr"), np.ones(2), radius=0.0)


def test_steihaug_model_reduction_positive():
    # returned step must decrease the quadratic model whenever g != 0
    for _ in range(20):
        n = 7
        M = RNG.standard_normal((n, n))
        H = sp.csr_matrix(0.5 * (M + M.T))  # possibly indefinite
        g = RNG.standard_normal(n)
        for radius in (0.01, 1.0, 100.0):
            step, _ = steihaug_cg(H, g, radius)
            model = g @ step + 0.5 * step @ (H @ step)
            assert model < 0.0


def test_spd_quadratic_oracle():
    n = 10
    M = RNG.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = RNG.standard_normal(n)
    problem = EnergyProblem(
        energy=lambda v: 0.5 * v @ A @ v - b @ v,
        gradient=lambda v: A @ v - b,
        pattern=_dense_pattern(n),
        x0=np.zeros(n),
    )
    sol = minimize(problem, TrOptions(grad_tol=1e-10))
    assert sol.converged
    assert sol.iterations <= 10
    assert sol.grad_norm < 1e-10
    np.testing.assert_allclose(sol.v_free, np.linalg.solve(A, b), atol=1e-9)


def test_rosenbrock():
    def energy(v):
        x, y = v
        return (1 - x) ** 2 + 100 * (y - x * x) ** 2

    def gradient(v):
        x, y = v
        return np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                         200 * (y - x * x)])

    problem = EnergyProblem(energy=energy, gradient=gradient,
                            pattern=_dense_pattern(2),
                            x0=np.array([-1.2, 1.0]))
    sol = minimize(problem, TrOptions(grad_tol=1e-12, max_iters=500))
    assert sol.converged
    np.testing.assert_allclose(sol.v_free, [1.0, 1.0], atol=1e-8)


def test_accepted_energies_decrease():
    problem, _ = plaplace_problem(make_lshape(0), p=2, alpha=3.0, f=-10.0)
    sol = minimize(problem, TrOptions())
    assert sol.converged
    energies = [r["energy"] for r in sol.history if r["accepted"]]
    assert all(b < a + 1e-14 for a, b in zip(energies, energies[1:]))


def test_zero_datum_is_instant():
    problem, _ = plaplace_problem(make_lshape(0), p=2, alpha=3.0, f=0.0)
    sol = minimize(problem, TrOptions())
    assert sol.converged
    assert sol.iterations <= 1
    assert sol.energy == 0.0
    np.testing.assert_array_equal(sol.v_free, 0.0)


def test_gradient_mode_equivalence():
    mesh = make_lshape(1)
    problem, _ = plaplace_problem(mesh, p=2, alpha=3.0, f=-10.0)
    sol_exp = minimize(problem, TrOptions(gradient_mode="explicit"))
    sol_fd = minimize(problem, TrOptions(gradient_mode="central_diff"))
    assert sol_exp.converged and sol_fd.converged
    assert abs(sol_exp.energy - sol_fd.energy) < 1e-6


def test_hyperelastic_barrier_robustness():
    mesh = make_perforated_square(0)
    problem, model = neohooke_problem(mesh, p=2, young=2e8, poisson=0.3,
                                      f=(-3.5e7, -3.5e7))
    opts = TrOptions(initial_radius=0.2 * np.sqrt(2.0), max_iters=2000)
    sol = minimize(problem, opts)
    assert sol.converged
    energies = [r["energy"] for r in sol.history if r["accepted"]]
    assert all(np.isfinite(energies))
    assert all(b < a + 1e-14 for a, b in zip(energies, energies[1:]))
    field = model.gradfield(expand_solution(model.dofmap, sol.v_free))
    assert field.det.min() > 0.0


def test_log_callback_and_history_agree():
    records = []
    problem, _ = plaplace_problem(make_lshape(0), p=2, alpha=3.0, f=-10.0)
    sol = minimize(problem, TrOptions(log=records.append))
    assert records == sol.history
    assert {"iteration", "energy", "grad_norm", "radius", "rho", "accepted"} \
        <= set(records[0])


def test_options_validation():
    with pytest.raises(ValueError):
        TrOptions(gradient_mode="magic")


def test_rejects_nonfinite_start():
    problem = EnergyProblem(
        energy=lambda v: np.inf, gradient=lambda v: v,
        pattern=_dense_pattern(2), x0=np.zeros(2),
    )
    with pytest.raises(ValueError, match="non-finite energy"):
        minimize(problem, TrOptions())


def test_central_diff_requires_callback():
    problem = EnergyProblem(
        energy=lambda v: v @ v, gradient=lambda v: 2 * v,
        pattern=_dense_pattern(2), x0=np.ones(2),
    )
    with pytest.raises(ValueError, match="central-difference"):
        minimize(problem, TrOptions(gradient_mode="central_diff"))


def test_no_free_dofs_converges_at_once():
    # one p = 1 element with its whole boundary fixed has nothing to solve
    problem, _ = plaplace_problem(make_rect(1, 1), p=1, alpha=3.0, f=-10.0)
    assert problem.x0.size == 0
    sol = minimize(problem, TrOptions())
    assert sol.converged
    assert sol.iterations == 0
    assert sol.v_free.size == 0


def test_radius_collapse_stops_unconverged():
    # repeated barrier rejections shrink the radius to 0.0; the solve must
    # end there and report no convergence instead of raising from CG
    problem, _ = neohooke_problem(make_perforated_square(1), p=1, young=2e8,
                                  poisson=0.3, f=(-3.5e7, -3.5e7))
    sol = minimize(problem, TrOptions(grad_tol=1e-6, max_iters=3000,
                                      initial_radius=0.28))
    assert not sol.converged
    assert sol.iterations < 3000
    assert sol.history[-1]["radius"] == 0.0
    assert len(sol.history) == sol.iterations
    assert np.isfinite(sol.energy)
