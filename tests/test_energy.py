"""Energy models: load assembly, gradient fields, energies, explicit gradients."""

import numpy as np
import pytest

from hpmin.basis import tabulate
from hpmin.dofmap import expand_solution
from hpmin.energy import (
    BarrierError,
    NeoHookeModel,
    PLaplaceModel,
    assemble_load,
    identity_deformation,
)
from hpmin.mesh import geometry_factors, make_lshape, make_perforated_square
from hpmin.problems import plaplace_problem
from hpmin.quadrature import rule_for_degree
from hpmin.solver import TrOptions, minimize
from oracles import (
    check_neohooke_gradient,
    check_plaplace_gradient,
    fe_space,
    make_rect,
    physical_derivatives,
)

RNG = np.random.default_rng(20240513)


def test_load_zero_source():
    geo, dm = fe_space(make_lshape(0), p=2)
    assert np.all(assemble_load(geo, dm, 0.0) == 0.0)


def test_load_nodal_sum_is_f_times_area():
    # partition of unity: sum of nodal entries = f * |domain|
    geo, dm = fe_space(make_lshape(1), p=2)
    b = assemble_load(geo, dm, -10.0)
    assert b[:dm.mesh.n_nodes].sum() == pytest.approx(-30.0, abs=1e-10)


def test_load_unit_square_hats():
    geo, dm = fe_space(make_rect(1, 1), p=1)
    np.testing.assert_allclose(assemble_load(geo, dm, 1.0), 0.25, atol=1e-14)


def test_load_vector_components():
    geo, dm = fe_space(make_rect(2, 2), p=1, components=2)
    b = assemble_load(geo, dm, (3.0, -7.0))
    assert b[:dm.n_p].sum() == pytest.approx(3.0, abs=1e-13)
    assert b[dm.n_p:].sum() == pytest.approx(-7.0, abs=1e-13)


def test_gradfield_linear_interpolant():
    mesh = make_lshape(0)
    geo, dm = fe_space(mesh, p=2)
    v = np.zeros(dm.n_dofs)
    v[:mesh.n_nodes] = mesh.nodes[:, 0]  # interpolant of v(x, y) = x
    model = PLaplaceModel(geo, dm, alpha=3.0, f=0.0)
    [(v_x, v_y)] = model._gather(model.dofmap.gather(v))
    np.testing.assert_allclose(v_x, 1.0, atol=1e-13)
    np.testing.assert_allclose(v_y, 0.0, atol=1e-13)


def test_gradfield_zero():
    geo, dm = fe_space(make_lshape(0), p=3)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
    [(v_x, v_y)] = model._gather(model.dofmap.gather(np.zeros(dm.n_dofs)))
    assert np.all(v_x == 0.0) and np.all(v_y == 0.0)


def test_gradfield_identity_deformation():
    geo, dm = fe_space(make_perforated_square(0), p=3, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    field = model.gradfield(identity_deformation(dm))
    np.testing.assert_allclose(field.f11, 1.0, atol=1e-12)
    np.testing.assert_allclose(field.f22, 1.0, atol=1e-12)
    np.testing.assert_allclose(field.f12, 0.0, atol=1e-12)
    np.testing.assert_allclose(field.f21, 0.0, atol=1e-12)


def _kernel_case(problem, p):
    # p-Laplace on the L-shape, Neo-Hooke on the perforated square, whose
    # hole-side elements are not parallelograms: J^{-T} varies inside them
    if problem == "plaplace":
        geo, dm = fe_space(make_lshape(1), p)
        model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
        v = RNG.standard_normal(dm.n_dofs)
    else:
        geo, dm = fe_space(make_perforated_square(1), p, components=2)
        model = NeoHookeModel(geo, dm, c1=1.0, d1=2.0, f=(-1.0, -2.0))
        v = identity_deformation(dm) + 1e-3 * RNG.standard_normal(dm.n_dofs)
    return model, v


def _einsum_gather(model, v_loc):
    """Oracle G from the per-element physical derivatives, (components, 2, T, n_ip)."""
    v_c = v_loc.reshape(v_loc.shape[0], model.dofmap.components, -1)
    dphi = physical_derivatives(model.geometry)
    return np.array([[np.einsum("pm,pqm->pq", v_c[:, c], d) for d in dphi]
                     for c in range(v_c.shape[1])])


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("problem", ["plaplace", "neohooke"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gather_matches_einsum_oracle(problem, p):
    model, v = _kernel_case(problem, p)
    v_loc = model.dofmap.gather(v)
    assert _rel_err(model._gather(v_loc), _einsum_gather(model, v_loc)) <= 1e-13


@pytest.mark.parametrize("problem", ["plaplace", "neohooke"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gradient_matches_einsum_oracle(problem, p):
    model, v = _kernel_case(problem, p)
    geo = model.geometry
    P = model.stress(_einsum_gather(model, model.dofmap.gather(v)))
    P = P * geo.wdetj
    dphi_x, dphi_y = physical_derivatives(geo)
    g_loc = np.concatenate(
        [np.einsum("tq,tqm->tm", Px, dphi_x)
         + np.einsum("tq,tqm->tm", Py, dphi_y) for Px, Py in P],
        axis=1,
    )
    assert _rel_err(model.gradient(v),
                    model.dofmap.scatter(g_loc) - model.b_full) <= 1e-13


def test_plaplace_energy_zero_field():
    geo, dm = fe_space(make_lshape(0), p=2)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
    assert model.energy(np.zeros(dm.n_dofs)) == 0.0


def test_plaplace_energy_quadratic_case():
    # alpha = 2, v = x on the unit square: J = (1/2) integral |grad v|^2 = 1/2
    mesh = make_rect(2, 2)
    geo, dm = fe_space(mesh, p=1)
    model = PLaplaceModel(geo, dm, alpha=2.0, f=0.0)
    v = mesh.nodes[:, 0].copy()
    assert model.energy(v) == pytest.approx(0.5, abs=1e-14)


def test_plaplace_rejects_bad_alpha():
    geo, dm = fe_space(make_rect(1, 1), p=1)
    for alpha in (1.0, 1024.0, 1e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            PLaplaceModel(geo, dm, alpha=alpha, f=0.0)


@pytest.mark.parametrize("f", [np.inf, -np.inf, np.nan])
def test_load_must_be_finite(f):
    geo, dm = fe_space(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="load f must be finite"):
        assemble_load(geo, dm, (1.0, f))


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_plaplace_gradient_zero_point(alpha):
    # the stress |grad v|^(alpha-2) grad v tends to 0 as grad v -> 0 for
    # every alpha > 1, also below 2 where the power itself blows up
    geo, dm = fe_space(make_lshape(0), p=2)
    model = PLaplaceModel(geo, dm, alpha=alpha, f=0.0)
    np.testing.assert_array_equal(model.gradient(np.zeros(dm.n_dofs)), 0.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_plaplace_gradient_matches_fd(alpha):
    check_plaplace_gradient(alpha, RNG)


def test_plaplace_constant_shift_invariance():
    # f = 0, no fixed DOFs: adding a constant (nodal partition of unity)
    # leaves the energy unchanged
    mesh = make_lshape(0)
    geo, dm = fe_space(mesh, p=3)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=0.0)
    v = RNG.standard_normal(dm.n_dofs)
    shift = np.zeros(dm.n_dofs)
    shift[:mesh.n_nodes] = 7.3
    assert model.energy(v + shift) == pytest.approx(model.energy(v), rel=1e-12)


def test_neohooke_identity_is_stress_free():
    geo, dm = fe_space(make_perforated_square(0), p=2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    assert model.energy(v) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(model.gradient(v), 0.0, atol=1e-12)


def test_neohooke_uniform_dilation_energy():
    # v = 2x on the unit square: W(2I) = (8 - 2 - 2 log 4) + 9 = 15 - 4 log 2
    mesh = make_rect(1, 1)
    geo, dm = fe_space(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = 2.0 * identity_deformation(dm)
    w_exact = 15.0 - 4.0 * np.log(2.0)
    assert model.energy(v) == pytest.approx(w_exact, abs=1e-12)


def test_neohooke_dilation_stress():
    # dJ/dt along v = t * identity equals area * trace(P(tI)); at t = 2 the
    # first Piola stress is P = 15 I for C1 = D1 = 1, so the slope is 30
    mesh = make_rect(1, 1)
    geo, dm = fe_space(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v_id = identity_deformation(dm)
    slope = model.gradient(2.0 * v_id) @ v_id
    assert slope == pytest.approx(30.0, abs=1e-10)
    h = 1e-6
    fd = (model.energy((2 + h) * v_id) - model.energy((2 - h) * v_id)) / (2 * h)
    assert fd == pytest.approx(slope, rel=1e-8)


def test_neohooke_barrier():
    mesh = make_rect(1, 1)
    geo, dm = fe_space(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    v[:dm.n_p] *= -1.0  # mirror one component: det F = -1
    assert model.energy(v) == np.inf
    with pytest.raises(BarrierError):
        model.gradient(v)


def _first_inversion(model, v, s, t_hi, n_grid=1000):
    """Smallest t in (0, t_hi] with min det F(v + t s) <= 0: the first cell
    of a uniform grid where it turns non-positive, then bisection."""
    def min_det(t):
        return model.gradfield(v + t * s).det.min()

    grid = np.linspace(0.0, t_hi, n_grid + 1)
    crossed = [t for t in grid[1:] if min_det(t) <= 0.0]
    assert crossed, "min det F stays positive on (0, t_hi]"
    lo, hi = crossed[0] - grid[1], crossed[0]
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if min_det(mid) <= 0.0 else (mid, hi)
    return hi


@pytest.mark.parametrize("linear", [False, True])
def test_neohooke_max_step_matches_bisection(linear):
    # at random admissible points along random steps, the first zero of
    # det F is found by a grid scan and bisection on min det F(v + t s);
    # a step with no y-component has det S = 0, so det F is linear in t
    geo, dm = fe_space(make_perforated_square(0), p=2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v_id = identity_deformation(dm)
    for _ in range(4):
        v = v_id + 0.005 * RNG.standard_normal(dm.n_dofs)
        assert model.gradfield(v).det.min() > 0.0
        s = RNG.standard_normal(dm.n_dofs)
        if linear:
            s[dm.n_p:] = 0.0
        t_max = model.max_step(v, s)
        assert 0.0 < t_max < np.inf
        oracle = _first_inversion(model, v, s, 1.5 * t_max)
        assert t_max == pytest.approx(oracle, rel=1e-10)


def _nodal_field(dm, fx, fy):
    """Coefficients whose nodal values are (fx, fy)(x, y), higher modes 0;
    exact for fields linear in x and y."""
    x, y = dm.mesh.nodes.T
    s = np.zeros(dm.n_dofs)
    s.reshape(2, dm.n_p)[:, :dm.mesh.n_nodes] = fx(x, y), fy(x, y)
    return s


@pytest.mark.parametrize("fx, fy, expected", [
    (lambda x, y: 0.0 * x, lambda x, y: 0.0 * y, np.inf),  # S = 0
    (lambda x, y: -x, lambda x, y: 0.0 * y, 1.0),  # linear: 1 - t
    (lambda x, y: y, lambda x, y: 0.0 * y, np.inf),  # shear: det F = 1
    (lambda x, y: -y, lambda x, y: x, np.inf),  # rotation: 1 + t^2, no real root
    (lambda x, y: x, lambda x, y: -y, 1.0),  # det S < 0: 1 - t^2
    (lambda x, y: -x, lambda x, y: -2.0 * y, 0.5),  # (1 - t)(1 - 2t)
])
def test_neohooke_max_step_closed_forms(fx, fy, expected):
    # from the identity, F(t) = I + t S with S constant
    geo, dm = fe_space(make_perforated_square(0), p=2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    t_max = model.max_step(identity_deformation(dm), _nodal_field(dm, fx, fy))
    assert t_max == pytest.approx(expected, rel=1e-12)


def test_neohooke_gradient_matches_fd():
    check_neohooke_gradient(RNG)


def test_neohooke_convex_along_dilation():
    # W(I) = 0 and convexity of t -> W(tI) sampled on [0.5, 2]
    mesh = make_rect(1, 1)
    geo, dm = fe_space(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v_id = identity_deformation(dm)
    assert model.energy(v_id) == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.5, 2.0, 20)
    ws = np.array([model.energy(t * v_id) for t in ts])
    second = ws[2:] - 2 * ws[1:-1] + ws[:-2]
    assert np.all(second >= -1e-8)


def test_young_poisson_mapping():
    geo, dm = fe_space(make_rect(1, 1), p=1, components=2)
    model = NeoHookeModel.from_young_poisson(geo, dm, young=2e8, poisson=0.3,
                                             f=(0.0, 0.0))
    assert model.c1 == pytest.approx(2e8 / (2 * 1.3) / 2)
    assert model.d1 == pytest.approx(2e8 / (3 * 0.4) / 2)


@pytest.mark.parametrize("c1, d1", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                    (1.0, np.inf), (0.0, 1.0), (1.0, -1.0)])
def test_neohooke_rejects_bad_material_constants(c1, d1):
    geo, dm = fe_space(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="c1, d1"):
        NeoHookeModel(geo, dm, c1=c1, d1=d1, f=(0.0, 0.0))


@pytest.mark.parametrize("young", [np.inf, np.nan, 0.0])
def test_young_poisson_rejects_bad_modulus(young):
    geo, dm = fe_space(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="Young's modulus E"):
        NeoHookeModel.from_young_poisson(geo, dm, young=young, poisson=0.3,
                                         f=(0.0, 0.0))


def test_length_mismatch_raises():
    geo, dm = fe_space(make_rect(1, 1), p=1)
    model = PLaplaceModel(geo, dm, alpha=2.0, f=0.0)
    with pytest.raises(ValueError, match="length"):
        model.energy(np.zeros(dm.n_dofs + 1))


def test_energy_quadrature_offset_below_benchmark_precision():
    # the power-3 density is not a polynomial, so the (p+1)-point rule is
    # inexact by design; the induced offset (~1e-4 at level 1) must stay
    # below the 4-decimal benchmark tolerance and stabilize under refinement
    mesh = make_lshape(1)
    problem, model = plaplace_problem(mesh, p=2, alpha=3.0, f=-10.0)
    sol = minimize(problem, TrOptions())
    assert sol.converged
    v_full = expand_solution(model.dofmap, sol.v_free)

    refined = []
    for n in (7, 10):
        rule = rule_for_degree(n - 1)
        geo = geometry_factors(mesh, rule, tabulate(2, rule.points))
        fine = PLaplaceModel(geo, model.dofmap, alpha=3.0, f=-10.0)
        refined.append(fine.energy(v_full))
    assert abs(refined[0] - sol.energy) < 2e-4
    assert abs(refined[1] - refined[0]) < 1e-6  # refined rules agree

