"""Trust-region solver: subproblem oracles, convergence, and robustness."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import hpmin.solver
from hpmin.dofmap import expand_solution
from hpmin.energy import BarrierError
from hpmin.fd import hessian_fd, slot_pattern
from hpmin.mesh import make_lshape, make_perforated_square
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.solver import (
    BOUNDARY_FRACTION,
    CG_TOL,
    FINAL_RESIDUAL,
    FORCING_MAX,
    GRAD_RTOL,
    EnergyProblem,
    TrOptions,
    minimize,
    steihaug_cg,
)
from oracles import (
    block_evaluations,
    check_rosenbrock,
    check_spd_quadratic,
    check_steihaug_boundary,
    check_steihaug_interior,
    check_steihaug_negative_curvature,
    count_copies,
    dense_pattern,
    make_rect,
    model_problem,
    probe_batches,
    steihaug_cg_plain,
)

RNG = np.random.default_rng(20240515)


def cg_with_the_plain_bits(H, g: np.ndarray, radius: float, rtol: float = CG_TOL):
    """``steihaug_cg(H, g, radius, rtol)``, asserting that it has the bits
    of ``steihaug_cg_plain`` (step and boundary flag), that its model
    decrease from the CG recurrences agrees with the plain one's direct
    -(g . s + s . (H s) / 2) to 1e-12, and that it changes neither g nor
    H.data."""
    g_bits, h_bits = g.tobytes(), H.data.tobytes()
    step, hit, decrease = steihaug_cg(H, g, radius, rtol=rtol)
    assert g.tobytes() == g_bits and H.data.tobytes() == h_bits
    plain, plain_hit, plain_decrease = steihaug_cg_plain(H, g, radius, rtol=rtol)
    assert step.tobytes() == plain.tobytes()
    assert hit == plain_hit
    assert decrease == pytest.approx(plain_decrease, rel=1e-12, abs=0.0)
    return step, hit


def test_steihaug_interior_newton_step():
    check_steihaug_interior(RNG.standard_normal(6))


def test_steihaug_boundary_step():
    g = RNG.standard_normal(6)
    check_steihaug_boundary(g, 0.5 * np.linalg.norm(g))


def test_steihaug_negative_curvature():
    check_steihaug_negative_curvature(2.5)


def test_steihaug_zero_gradient():
    step, hit, decrease = steihaug_cg(sp.eye(3, format="csr"), np.zeros(3),
                                      radius=1.0)
    np.testing.assert_array_equal(step, 0.0)
    assert not hit
    assert decrease == 0.0


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
            for rtol in (0.1, CG_TOL):
                step, _ = cg_with_the_plain_bits(H, g, radius, rtol)
                model = g @ step + 0.5 * step @ (H @ step)
                assert model < 0.0


@pytest.mark.parametrize("radius", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("definite", [True, False])
def test_steihaug_step_is_invariant_under_power_of_two_scaling(definite, radius):
    # g and H @ d are scaled by a power of two inside the loop, so scaling
    # both inputs by another one changes no bit; at the parent the norm of
    # c * g overflowed
    n = 9
    M = RNG.standard_normal((n, n))
    H = sp.csr_matrix(M @ M.T + n * np.eye(n) if definite else 0.5 * (M + M.T))
    g = RNG.standard_normal(n)
    c = 2.0 ** 600
    step, hit = cg_with_the_plain_bits(H, g, radius)
    step_c, hit_c = cg_with_the_plain_bits(c * H, c * g, radius)
    np.testing.assert_array_equal(step_c, step)
    assert hit_c == hit
    assert g @ step + 0.5 * step @ (H @ step) < 0.0


@pytest.mark.parametrize("curvature", [1e-200, 1e-310])
@pytest.mark.parametrize("radius", [1e-200, 1.0, 1e200])
def test_steihaug_tiny_curvature_goes_to_the_boundary(curvature, radius):
    # a curvature tiny next to g sends the CG iterate far past the radius:
    # its norm, the boundary root and rr / kappa must not overflow (at the
    # parent, |s_trial| overflowed at curvature 1e-200 and radius 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, hit = cg_with_the_plain_bits(
            sp.identity(3, format="csr") * curvature, np.ones(3), radius)
    assert hit
    np.testing.assert_allclose(step, -radius / np.sqrt(3.0), rtol=1e-15)


@pytest.mark.parametrize("definite", [True, False])
@pytest.mark.parametrize("radius", [0.01, 1.0, 100.0])
def test_steihaug_forcing_tolerance_keeps_the_cauchy_decrease(definite, radius):
    # rtol = 0.1 stops CG long before CG_TOL, with the residual below
    # rtol |g| on an interior exit, and never gives less model decrease
    # than the Cauchy point, the model's minimizer along -g in the region
    rng = np.random.default_rng(7)
    n = 30
    M = rng.standard_normal((n, n))
    H = M @ M.T + 0.1 * np.eye(n) if definite else 0.5 * (M + M.T)
    g = rng.standard_normal(n)
    step, hit = cg_with_the_plain_bits(sp.csr_matrix(H), g, radius, rtol=0.1)

    def model(s):
        return g @ s + 0.5 * s @ (H @ s)

    curvature, g_norm = g @ H @ g, np.linalg.norm(g)
    tau = radius / g_norm
    if curvature > 0.0:
        tau = min(tau, g_norm ** 2 / curvature)
    assert model(step) <= model(-tau * g) * (1.0 - 1e-12)
    assert np.linalg.norm(step) <= radius * (1.0 + 1e-12)
    if not hit:
        residual = np.linalg.norm(H @ step + g)
        assert 1e-4 * g_norm < residual <= 0.1 * g_norm * (1.0 + 1e-10)
    if definite and radius == 100.0:
        assert not hit  # the interior exit is exercised


def test_spd_quadratic_oracle(monkeypatch):
    check_spd_quadratic(RNG, monkeypatch)


@pytest.mark.parametrize("seed", range(40))
def test_spd_quadratic_oracle_on_seeds(seed, monkeypatch):
    # near the minimizer the predicted decrease falls below the rounding of
    # J, and the ratio comes from the gradients: at a ratio of energies
    # alone, seed 39 stalled at a gradient of 1e-8 while its radius
    # collapsed, and with the forcing tolerance 6 of these seeds did
    check_spd_quadratic(np.random.default_rng(seed), monkeypatch)


def test_rosenbrock(monkeypatch):
    check_rosenbrock(monkeypatch)


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


def test_hyperelastic_steps_are_cut_before_inversion():
    # the benchmark's level-1 p = 2 solve: every step that would reach
    # det F = 0 is cut short of it, so no trial energy is +inf
    mesh = make_perforated_square(1)
    problem, _ = neohooke_problem(mesh, p=2, young=2e8, poisson=0.3,
                                  f=(-3.5e7, -3.5e7))
    energies = []

    def energy(v):
        energies.append(problem.energy(v))
        return energies[-1]

    diameter = float(np.ptp(mesh.nodes, axis=0).max())
    sol = minimize(replace(problem, energy=energy),
                   TrOptions(initial_radius=0.1 * np.sqrt(2.0) * diameter,
                             max_iters=3000))
    assert sol.converged
    assert len(energies) == sol.iterations + 1  # the start, then one per trial
    assert all(np.isfinite(energies))
    cut = [r["step_fraction"] for r in sol.history if r["step_fraction"] != 1.0]
    assert cut and all(0.0 < f <= BOUNDARY_FRACTION for f in cut)


@pytest.mark.parametrize("mode", ["explicit", "central_diff"])
def test_plaplace_has_no_step_cut(mode):
    # plaplace sets no max_step, and one that never cuts changes no bit of
    # the 7-iteration solve
    problem, _ = plaplace_problem(make_lshape(1), p=2, alpha=3.0, f=-10.0)
    assert problem.max_step is None
    opts = TrOptions(gradient_mode=mode)
    sol = minimize(problem, opts)
    never = minimize(replace(problem, max_step=lambda v, s: np.inf), opts)
    assert sol.converged and sol.iterations == never.iterations == 7
    np.testing.assert_array_equal(sol.v_free, never.v_free)
    assert all(r["step_fraction"] == 1.0 for r in sol.history)


def test_options_validation():
    with pytest.raises(ValueError):
        TrOptions(gradient_mode="magic")
    for radius in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="initial_radius"):
            TrOptions(initial_radius=radius)


def test_rejects_nonfinite_start():
    problem = EnergyProblem(
        energy=lambda v: np.inf, gradient=lambda v: v,
        pattern=dense_pattern(2), x0=np.zeros(2),
    )
    with pytest.raises(ValueError, match="non-finite energy"):
        minimize(problem, TrOptions())


def test_central_diff_requires_callback():
    problem = EnergyProblem(
        energy=lambda v: v @ v, gradient=lambda v: 2 * v,
        pattern=dense_pattern(2), x0=np.ones(2),
    )
    with pytest.raises(ValueError, match="central-difference"):
        minimize(problem, TrOptions(gradient_mode="central_diff"))


def test_element_blocks_require_element_dofs():
    # blocks without their slot map are refused before any energy call;
    # with no blocks for the mode none is needed
    problem, _ = plaplace_problem(make_lshape(0), p=1, alpha=3.0, f=-10.0)
    energies = []

    def energy(v):
        energies.append(v)
        return problem.energy(v)

    broken = replace(problem, energy=energy, element_dofs=None)
    for mode in ("explicit", "central_diff"):
        with pytest.raises(ValueError, match="element_dofs"):
            minimize(broken, TrOptions(gradient_mode=mode))
    assert not energies
    colored = replace(broken, element_hessians=None)
    assert minimize(colored, TrOptions()).converged


def test_no_free_dofs_converges_at_once():
    # one p = 1 element with its whole boundary fixed has nothing to solve
    problem, _ = plaplace_problem(make_rect(1, 1), p=1, alpha=3.0, f=-10.0)
    assert problem.x0.size == 0
    sol = minimize(problem, TrOptions())
    assert sol.converged and sol.status == "converged"
    assert sol.iterations == 0
    assert sol.v_free.size == 0


@pytest.mark.parametrize("max_iters", [0, 1])
def test_iteration_cap_stops_with_status_max_iters(max_iters):
    problem, _ = plaplace_problem(make_lshape(1), p=2, alpha=3.0, f=-10.0)
    sol = minimize(problem, TrOptions(max_iters=max_iters))
    assert not sol.converged and sol.status == "max_iters"
    assert sol.iterations == len(sol.history) == max_iters


def test_radius_collapse_stops_unconverged():
    # J = |v - 0.3| has a gradient of max-norm 1 everywhere, so it never
    # converges: every trial that crosses the kink is rejected (rho <= 0)
    # and shrinks the radius below the rounding of v; the solve must then
    # stop (after 65 iterations) and report no convergence instead of
    # raising from CG
    problem = EnergyProblem(
        energy=lambda v: abs(v[0] - 0.3),
        gradient=lambda v: np.where(v < 0.3, -1.0, 1.0),
        pattern=dense_pattern(1), x0=np.zeros(1))
    sol = minimize(problem, TrOptions(max_iters=3000))
    assert not sol.converged and sol.status == "radius_collapse"
    assert sol.iterations <= 80
    assert sol.history[-1]["radius"] < 1e-15 * np.linalg.norm(sol.v_free)
    assert len(sol.history) == sol.iterations
    assert np.isfinite(sol.energy)


def test_gradient_ratio_converges_below_the_energy_rounding(monkeypatch):
    # J(x0) = 2.52e8 at both levels, so the stopping test is grad_norm <
    # 2.5e-7, below what rounding of an energy of 1.9e8 to 2.4e8 resolves.
    # Trials whose predicted decrease is that small are judged by their
    # gradients (Conn, Gould & Toint, Trust-Region Methods, 2000, section
    # 17.4), so both solves converge, level 1 in 64 iterations and level 2
    # in 13.  Judged by their energies alone, level 1 still converged in
    # the same 64 iterations, but level 2 collapsed its radius at a
    # gradient of 2.1e-2
    monkeypatch.setattr(hpmin.solver, "GRAD_RTOL", 1e-15)
    for level in (1, 2):
        problem, _ = neohooke_problem(make_perforated_square(level), p=1,
                                      young=2e8, poisson=0.3, f=(-3.5e7, -3.5e7))
        sol = minimize(problem, TrOptions(max_iters=3000, initial_radius=0.28))
        assert sol.converged
        assert sol.grad_norm < 2.6e-7
        assert sol.iterations <= 80
        assert len(sol.history) == sol.iterations
        assert np.isfinite(sol.energy)


def test_forcing_tolerance_per_iteration():
    # CG stops at min(FORCING_MAX, |g_k| / |g_0|) until a step is expected
    # to end the solve; that last accepted step stops where the model's
    # next gradient H s + g has a 2-norm of at most FINAL_RESIDUAL times
    # the stopping tolerance.  The solve is deterministic, so stopping one
    # iteration early gives the point, gradient and Hessian of that step
    problem, _ = plaplace_problem(make_lshape(2), p=2, alpha=3.0, f=-10.0)
    grad_tol = GRAD_RTOL * max(1.0, abs(problem.energy(problem.x0)))
    sol = minimize(problem, TrOptions())
    assert sol.converged and sol.history[-1]["accepted"]
    v = minimize(problem, TrOptions(max_iters=sol.iterations - 1)).v_free
    g = problem.gradient(v)
    H = hessian_fd(problem.element_hessians, v,
                   slot_pattern(problem.pattern, problem.element_dofs), g0=g)
    rtols = [r["cg_rtol"] for r in sol.history]
    assert rtols[-1] == max(CG_TOL, FINAL_RESIDUAL * grad_tol / np.linalg.norm(g))
    assert rtols[-1] > CG_TOL  # the floor is not what stops this step
    assert np.linalg.norm(H @ (sol.v_free - v) + g) <= FINAL_RESIDUAL * grad_tol
    norms = [r["grad_norm"] for r in sol.history]
    assert rtols[:-1] == [min(FORCING_MAX, n / norms[0]) for n in norms[:-1]]
    assert FORCING_MAX in rtols and min(rtols[:-1]) < FORCING_MAX
    # a gradient whose squared 2-norm overflows: J = 1e300 + 1e290 |v|^2 / 2
    # - b.v, b = 5e294 (1, 1, 1), has the stopping tolerance 1e294, so
    # every step is expected to end the solve; its tolerance is still
    # FINAL_RESIDUAL tol / |g|_2, without an overflow warning
    b = np.full(3, 5e294)
    huge = EnergyProblem(energy=lambda v: 1e300 + 0.5e290 * (v @ v) - b @ v,
                         gradient=lambda v: 1e290 * v - b,
                         pattern=dense_pattern(3), x0=np.zeros(3))
    sol = minimize(huge, TrOptions())
    assert sol.converged
    assert sol.history[0]["cg_rtol"] == pytest.approx(
        FINAL_RESIDUAL * 1e294 / (5e294 * np.sqrt(3.0)), rel=1e-15)


@pytest.mark.parametrize("mode", ["explicit", "central_diff"])
def test_barrier_probe_ends_or_rejects(mode):
    # a load of 1e30 drives det F towards 0, where a difference probe
    # crosses det F <= 0 in the Hessian build, which ends the solve at the
    # current point.  The Hessian evaluates the stress (element_hessians, 8
    # evaluations) or the density (element_hessians_fd, 33 evaluations) at
    # moved copies of G at every point, so it raises from its own source.  Steps
    # are not cut short of det F = 0 here (max_step=None).  A central
    # Hessian probe moves G by 1e-4, a central gradient probe v by 1e-6, so
    # the Hessian build at an accepted point crosses before any trial's
    # gradient probe does; a gradient that raises is the next test's case
    problem, _ = neohooke_problem(make_perforated_square(0), p=2, young=2e8,
                                  poisson=0.3, f=(1e30, -3.5e7))
    # every iteration evaluates one trial energy, after its Hessian build
    # and before its trial's gradient, so the trials evaluated when an
    # error is raised number the iteration of a Hessian build, or one past
    # the iteration of a trial's gradient
    trials = -1  # the first energy call evaluates the start
    raised_at = []

    def energy(v):
        nonlocal trials
        trials += 1
        return problem.energy(v)

    def counting(fn):
        def probe(v):
            try:
                return fn(v)
            except BarrierError:
                raised_at.append((trials, fn))
                raise
        return probe

    counted = replace(problem, energy=energy,
                      gradient=counting(problem.gradient),
                      gradient_fd=counting(problem.gradient_fd),
                      element_hessians=counting(problem.element_hessians),
                      element_hessians_fd=counting(problem.element_hessians_fd),
                      max_step=None)
    sol = minimize(counted, TrOptions(initial_radius=0.2 * np.sqrt(2.0),
                                      max_iters=3000, gradient_mode=mode))
    assert not sol.converged and sol.status == "hessian_failed"
    assert np.isfinite(sol.energy)
    assert len(sol.history) == sol.iterations < 3000
    # the Hessian build ended the solve
    hessian_source = (problem.element_hessians_fd if mode == "central_diff"
                      else problem.element_hessians)
    assert raised_at[-1] == (sol.iterations, hessian_source)
    for i, _ in raised_at[:-1]:
        record = sol.history[i - 1]
        assert not record["accepted"] and record["rho"] is None


def test_barrier_in_a_trial_gradient_rejects_the_trial():
    # J = |v|^2 / 2 - sum(v), whose gradient raises BarrierError once
    # max |v| > 0.5, as a difference probe through det F <= 0 does: a
    # trial past that is rejected (rho None) and the solve goes on from
    # the current point, until a Hessian probe just short of 0.5 raises
    # and ends it unconverged
    def gradient(v):
        if np.max(np.abs(v)) > 0.5:
            raise BarrierError("probe crossed det F <= 0")
        return v - 1.0

    n = 200
    problem = EnergyProblem(
        energy=lambda v: 0.5 * (v @ v) - v.sum(), gradient=gradient,
        pattern=sp.identity(n, dtype=bool, format="csr"), x0=np.zeros(n))
    sol = minimize(problem, TrOptions(max_iters=50, initial_radius=100.0))
    assert not sol.converged and sol.status == "hessian_failed"
    assert sol.history[-1]["accepted"]
    assert 0.5 - 1e-6 < np.max(sol.v_free) <= 0.5
    assert any(not r["accepted"] and r["rho"] is None for r in sol.history)


def _count_hessian_sources(problem, monkeypatch):
    """The problem with its gradients and element blocks counted, the call
    counts (also of ``greedy_coloring`` and ``hessian_fd`` as bound in
    hpmin.solver) and the group count of every coloring made."""
    calls = dict.fromkeys(["gradient", "gradient_fd", "element_hessians",
                           "element_hessians_fd", "coloring", "hessian"], 0)
    n_groups = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return None if fn is None else counted

    def coloring(pattern, greedy_coloring=hpmin.solver.greedy_coloring):
        colored = greedy_coloring(pattern)
        n_groups.append(colored.n_groups)
        return colored

    monkeypatch.setattr(hpmin.solver, "greedy_coloring",
                        counting("coloring", coloring))
    monkeypatch.setattr(hpmin.solver, "hessian_fd",
                        counting("hessian", hpmin.solver.hessian_fd))
    names = ("gradient", "gradient_fd", "element_hessians", "element_hessians_fd")
    counted = replace(problem, **{name: counting(name, getattr(problem, name))
                                  for name in names})
    return counted, calls, n_groups


def _solve_case(case, mode, monkeypatch, plaplace_level=1):
    """Problem, model and options of one solve: ``plaplace`` (L-shape, level
    1 or ``plaplace_level``) or ``hyper`` (perforated square, level 0),
    both at p = 2; ``rounding``, the level-1 plaplace solve from a radius
    of 10 with every trial judged by its gradients, as those below the
    energy's rounding are; or ``barrier``, the hyperelastic solve whose
    load of 1e30 drives det F towards 0 until a Hessian probe crosses it."""
    if case in ("hyper", "barrier"):
        load = (1e30, -3.5e7) if case == "barrier" else (-3.5e7, -3.5e7)
        fe, model = neohooke_problem(make_perforated_square(0), p=2,
                                     young=2e8, poisson=0.3, f=load)
        if case == "barrier":
            fe = replace(fe, max_step=None)
        return fe, model, TrOptions(initial_radius=0.2 * np.sqrt(2.0),
                                    max_iters=3000, gradient_mode=mode)
    if case == "rounding":
        monkeypatch.setattr(hpmin.solver, "ROUNDOFF_DECREASE", np.inf)
    level = plaplace_level if case == "plaplace" else 1
    fe, model = model_problem("plaplace", 2, level)
    radius = 10.0 if case == "rounding" else 1.0
    return fe, model, TrOptions(initial_radius=radius, gradient_mode=mode)


# per mode: the problem's gradient and its element blocks
_CALLBACKS = {"explicit": ("gradient", "element_hessians"),
              "central_diff": ("gradient_fd", "element_hessians_fd")}


@pytest.mark.parametrize("mode", ["explicit", "central_diff"])
def test_gradient_and_coloring_calls_per_hessian(mode, monkeypatch):
    # the benchmark's trace identities: a model problem builds its Hessian
    # from the element slots in either mode, with no coloring.  A gradient
    # is taken at the start and at every trial that is accepted or judged
    # by its gradient: one per accepted step, and in the rounding case one
    # per trial with a ratio
    gradient, blocks = _CALLBACKS[mode]
    for case in ("plaplace", "hyper", "rounding"):
        with monkeypatch.context() as patch:
            problem, _, opts = _solve_case(case, mode, patch)
            counted, calls, _ = _count_hessian_sources(problem, patch)
            sol = minimize(counted, opts)
        assert sol.converged and sol.accepted > 1, case
        gradients = sol.accepted + 1
        if case == "rounding":
            gradients = 1 + sum(r["rho"] is not None for r in sol.history)
            assert sol.rejected >= 1 and gradients > sol.accepted + 1
        expected = dict.fromkeys(calls, 0)
        expected.update({gradient: gradients, blocks: sol.accepted,
                         "hessian": sol.accepted})
        assert calls == expected, case


_SOLVES = [("plaplace", "explicit"), ("plaplace", "central_diff"),
           ("hyper", "explicit"), ("hyper", "central_diff"),
           ("rounding", "central_diff"), ("barrier", "central_diff")]


@pytest.mark.parametrize("case, mode", _SOLVES)
def test_kept_gradient_evaluation_keeps_every_solve_bit(case, mode, monkeypatch):
    # named after a gradient-to-Hessian record that is gone: the Hessian
    # of neither mode takes anything from the gradient, so a gradient
    # evaluated at a rejected trial cannot reach it.  The solve matches one
    # whose blocks come from a second problem, which evaluates no
    # gradient, with the same batched energy evaluations
    fe, model, opts = _solve_case(case, mode, monkeypatch, plaplace_level=2)
    blocks = _CALLBACKS[mode][1]
    second = _solve_case(case, mode, monkeypatch, plaplace_level=2)[0]
    cold = replace(fe, **{blocks: getattr(second, blocks)})
    evaluations = []

    def counted(v_loc, evaluate=model._element_energies):
        evaluations.append(v_loc.shape)
        return evaluate(v_loc)

    monkeypatch.setattr(model, "_element_energies", counted)
    kept = minimize(fe, opts)
    n_kept = len(evaluations)
    evaluations.clear()
    reference = minimize(cold, opts)
    assert n_kept == len(evaluations)
    np.testing.assert_array_equal(kept.v_free, reference.v_free)
    assert (kept.energy, kept.status) == (reference.energy, reference.status)
    assert kept.history == reference.history
    if case in ("rounding", "barrier"):
        assert kept.rejected >= 1


@pytest.mark.parametrize("case, mode", _SOLVES)
def test_no_hessian_in_a_solve_is_built_cold(case, mode, monkeypatch):
    # named after a warm/cold split that is gone: every Hessian of a solve
    # is the same batches of probes on the gathered G, whatever the point:
    # 4 (plaplace) or 8 (hyper) copies of G through the stress in explicit
    # mode, 9 or 33 through the density in central_diff mode
    fe, model, opts = _solve_case(case, mode, monkeypatch, plaplace_level=2)
    blocks = _CALLBACKS[mode][1]
    kernel, probes = block_evaluations(mode, model.dofmap.components)
    evaluations = count_copies(model, kernel, monkeypatch)
    per_hessian = []

    def counted_blocks(v, build=getattr(fe, blocks)):
        evaluations.clear()
        built = build(v)
        per_hessian.append(list(evaluations))
        return built

    sol = minimize(replace(fe, **{blocks: counted_blocks}), opts)
    assert sol.accepted > 0
    assert per_hessian == [probe_batches(model, probes)] * len(per_hessian)


def test_central_diff_colors_a_problem_without_element_kernels(monkeypatch):
    # with no element_hessians_fd, the central-difference Hessian takes one
    # gradient per color group, from one coloring made up front
    problem, _ = plaplace_problem(make_lshape(1), p=2, alpha=3.0, f=-10.0)
    counted, calls, n_groups = _count_hessian_sources(
        replace(problem, element_hessians_fd=None), monkeypatch)
    sol = minimize(counted, TrOptions(gradient_mode="central_diff"))
    assert sol.converged and sol.accepted > 1
    assert len(n_groups) == 1 and n_groups[0] > 1
    assert calls == {"gradient": 0, "gradient_fd": (n_groups[0] + 1) * sol.accepted + 1,
                     "element_hessians": 0, "element_hessians_fd": 0,
                     "coloring": 1, "hessian": sol.accepted}


def test_nonfinite_gradient_rejects_the_trial_or_ends_the_solve(monkeypatch):
    # J = |v|^2 / 2 - sum(v), whose gradient has a NaN entry once
    # max |v| > 0.5: a trial past that is rejected like a barrier trial, and
    # once v sits just short of 0.5 a Hessian probe crosses it, which ends
    # the solve unconverged.  CG never sees a NaN, and the history stays
    # strict JSON
    def gradient(v):
        g = v - 1.0
        if np.max(np.abs(v)) > 0.5:
            g[0] = np.nan
        return g

    def finite_cg(H, g, radius, rtol):
        assert np.all(np.isfinite(H.data)) and np.all(np.isfinite(g))
        return steihaug_cg(H, g, radius, rtol=rtol)

    monkeypatch.setattr(hpmin.solver, "steihaug_cg", finite_cg)
    n = 200
    problem = EnergyProblem(
        energy=lambda v: 0.5 * (v @ v) - v.sum(), gradient=gradient,
        pattern=sp.identity(n, dtype=bool, format="csr"), x0=np.zeros(n))
    sol = minimize(problem, TrOptions(max_iters=50, initial_radius=100.0))
    assert not sol.converged and sol.status == "hessian_failed"
    assert len(sol.history) == sol.iterations < 50
    assert sol.history[-1]["accepted"]  # the next Hessian ended the solve
    assert 0.5 - 1e-6 < np.max(sol.v_free) <= 0.5
    assert any(not r["accepted"] and r["rho"] is None for r in sol.history)
    json.dumps(sol.history, allow_nan=False)


def test_barrier_at_the_initial_gradient_is_a_configuration_error():
    # det F = 1e-9 > 0 and a finite energy at the start, but a
    # central-difference probe of the x-coefficients crosses det F <= 0
    problem, model = neohooke_problem(make_perforated_square(0), p=1,
                                      young=2e8, poisson=0.3,
                                      f=(-3.5e7, -3.5e7))
    x0 = problem.x0.copy()
    x0[model.dofmap.free_dofs < model.dofmap.n_p] *= 1e-9
    with pytest.raises(ValueError, match="initial gradient") as err:
        minimize(replace(problem, x0=x0), TrOptions(gradient_mode="central_diff"))
    assert isinstance(err.value.__cause__, BarrierError)
    # the explicit gradient is finite there
    minimize(replace(problem, x0=x0), TrOptions(max_iters=0))
