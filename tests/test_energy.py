"""Energy models: load assembly, gradient fields, energies, explicit gradients."""

import numpy as np
import pytest

from hpmin.basis import tabulate
from hpmin.dofmap import build_dofmap
from hpmin.energy import (
    BarrierError,
    NeoHookeModel,
    PLaplaceModel,
    assemble_load,
    identity_deformation,
)
from hpmin.mesh import geometry_factors, make_lshape, make_perforated_square
from hpmin.quadrature import rule_for_degree
from oracles import make_rect, physical_derivatives

RNG = np.random.default_rng(20240513)


def _setup(mesh, p, components=1, dirichlet=None):
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    return geo, dm


def _fd_gradient(energy, v, h=1e-6):
    g = np.empty_like(v)
    for i in range(v.size):
        hi = h * max(1.0, abs(v[i]))
        up = v.copy(); up[i] += hi
        dn = v.copy(); dn[i] -= hi
        g[i] = (energy(up) - energy(dn)) / (2.0 * hi)
    return g


def test_load_zero_source():
    geo, dm = _setup(make_lshape(0), p=2)
    assert np.all(assemble_load(geo, dm, 0.0) == 0.0)


def test_load_nodal_sum_is_f_times_area():
    # partition of unity: sum of nodal entries = f * |domain|
    geo, dm = _setup(make_lshape(1), p=2)
    b = assemble_load(geo, dm, -10.0)
    assert b[:dm.mesh.n_nodes].sum() == pytest.approx(-30.0, abs=1e-10)


def test_load_unit_square_hats():
    geo, dm = _setup(make_rect(1, 1), p=1)
    np.testing.assert_allclose(assemble_load(geo, dm, 1.0), 0.25, atol=1e-14)


def test_load_vector_components():
    geo, dm = _setup(make_rect(2, 2), p=1, components=2)
    b = assemble_load(geo, dm, (3.0, -7.0))
    assert b[:dm.n_p].sum() == pytest.approx(3.0, abs=1e-13)
    assert b[dm.n_p:].sum() == pytest.approx(-7.0, abs=1e-13)


def test_gradfield_linear_interpolant():
    mesh = make_lshape(0)
    geo, dm = _setup(mesh, p=2)
    v = np.zeros(dm.n_dofs)
    v[:mesh.n_nodes] = mesh.nodes[:, 0]  # interpolant of v(x, y) = x
    model = PLaplaceModel(geo, dm, alpha=3.0, f=0.0)
    [(v_x, v_y)] = model._gather(model.dofmap.gather(v))
    np.testing.assert_allclose(v_x, 1.0, atol=1e-13)
    np.testing.assert_allclose(v_y, 0.0, atol=1e-13)


def test_gradfield_zero():
    geo, dm = _setup(make_lshape(0), p=3)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
    [(v_x, v_y)] = model._gather(model.dofmap.gather(np.zeros(dm.n_dofs)))
    assert np.all(v_x == 0.0) and np.all(v_y == 0.0)


def test_gradfield_identity_deformation():
    geo, dm = _setup(make_perforated_square(0), p=3, components=2)
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
        geo, dm = _setup(make_lshape(1), p)
        model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
        v = RNG.standard_normal(dm.n_dofs)
    else:
        geo, dm = _setup(make_perforated_square(1), p, components=2)
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
    geo, dm = _setup(make_lshape(0), p=2)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
    assert model.energy(np.zeros(dm.n_dofs)) == 0.0


def test_plaplace_energy_quadratic_case():
    # alpha = 2, v = x on the unit square: J = (1/2) integral |grad v|^2 = 1/2
    mesh = make_rect(2, 2)
    geo, dm = _setup(mesh, p=1)
    model = PLaplaceModel(geo, dm, alpha=2.0, f=0.0)
    v = mesh.nodes[:, 0].copy()
    assert model.energy(v) == pytest.approx(0.5, abs=1e-14)


def test_plaplace_rejects_bad_alpha():
    geo, dm = _setup(make_rect(1, 1), p=1)
    for alpha in (1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            PLaplaceModel(geo, dm, alpha=alpha, f=0.0)


@pytest.mark.parametrize("f", [np.inf, -np.inf, np.nan])
def test_load_must_be_finite(f):
    geo, dm = _setup(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="load f must be finite"):
        assemble_load(geo, dm, (1.0, f))


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_plaplace_gradient_zero_point(alpha):
    # the stress |grad v|^(alpha-2) grad v tends to 0 as grad v -> 0 for
    # every alpha > 1, also below 2 where the power itself blows up
    geo, dm = _setup(make_lshape(0), p=2)
    model = PLaplaceModel(geo, dm, alpha=alpha, f=0.0)
    np.testing.assert_array_equal(model.gradient(np.zeros(dm.n_dofs)), 0.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_plaplace_gradient_matches_fd(alpha):
    geo, dm = _setup(make_lshape(0), p=2)
    model = PLaplaceModel(geo, dm, alpha=alpha, f=-10.0)
    for _ in range(5):
        v = RNG.standard_normal(dm.n_dofs)
        g = model.gradient(v)
        g_fd = _fd_gradient(model.energy, v)
        assert np.max(np.abs(g - g_fd)) / np.max(np.abs(g)) < 1e-6


def test_plaplace_constant_shift_invariance():
    # f = 0, no fixed DOFs: adding a constant (nodal partition of unity)
    # leaves the energy unchanged
    mesh = make_lshape(0)
    geo, dm = _setup(mesh, p=3)
    model = PLaplaceModel(geo, dm, alpha=3.0, f=0.0)
    v = RNG.standard_normal(dm.n_dofs)
    shift = np.zeros(dm.n_dofs)
    shift[:mesh.n_nodes] = 7.3
    assert model.energy(v + shift) == pytest.approx(model.energy(v), rel=1e-12)


def test_neohooke_identity_is_stress_free():
    geo, dm = _setup(make_perforated_square(0), p=2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    assert model.energy(v) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(model.gradient(v), 0.0, atol=1e-12)


def test_neohooke_uniform_dilation_energy():
    # v = 2x on the unit square: W(2I) = (8 - 2 - 2 log 4) + 9 = 15 - 4 log 2
    mesh = make_rect(1, 1)
    geo, dm = _setup(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = 2.0 * identity_deformation(dm)
    w_exact = 15.0 - 4.0 * np.log(2.0)
    assert model.energy(v) == pytest.approx(w_exact, abs=1e-12)


def test_neohooke_dilation_stress():
    # dJ/dt along v = t * identity equals area * trace(P(tI)); at t = 2 the
    # first Piola stress is P = 15 I for C1 = D1 = 1, so the slope is 30
    mesh = make_rect(1, 1)
    geo, dm = _setup(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v_id = identity_deformation(dm)
    slope = model.gradient(2.0 * v_id) @ v_id
    assert slope == pytest.approx(30.0, abs=1e-10)
    h = 1e-6
    fd = (model.energy((2 + h) * v_id) - model.energy((2 - h) * v_id)) / (2 * h)
    assert fd == pytest.approx(slope, rel=1e-8)


def test_neohooke_barrier():
    mesh = make_rect(1, 1)
    geo, dm = _setup(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    v[:dm.n_p] *= -1.0  # mirror one component: det F = -1
    assert model.energy(v) == np.inf
    with pytest.raises(BarrierError):
        model.gradient(v)


def test_neohooke_gradient_matches_fd():
    mesh = make_perforated_square(0)
    geo, dm = _setup(mesh, p=2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=2.0, f=(-1.0, -2.0))
    v_id = identity_deformation(dm)
    for _ in range(5):
        v = v_id + 0.005 * RNG.standard_normal(dm.n_dofs)
        assert np.isfinite(model.energy(v))
        g = model.gradient(v)
        g_fd = _fd_gradient(model.energy, v)
        assert np.max(np.abs(g - g_fd)) / np.max(np.abs(g)) < 1e-6


def test_neohooke_convex_along_dilation():
    # W(I) = 0 and convexity of t -> W(tI) sampled on [0.5, 2]
    mesh = make_rect(1, 1)
    geo, dm = _setup(mesh, p=1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v_id = identity_deformation(dm)
    assert model.energy(v_id) == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.5, 2.0, 20)
    ws = np.array([model.energy(t * v_id) for t in ts])
    second = ws[2:] - 2 * ws[1:-1] + ws[:-2]
    assert np.all(second >= -1e-8)


def test_young_poisson_mapping():
    geo, dm = _setup(make_rect(1, 1), p=1, components=2)
    model = NeoHookeModel.from_young_poisson(geo, dm, young=2e8, poisson=0.3,
                                             f=(0.0, 0.0))
    assert model.c1 == pytest.approx(2e8 / (2 * 1.3) / 2)
    assert model.d1 == pytest.approx(2e8 / (3 * 0.4) / 2)


@pytest.mark.parametrize("c1, d1", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                    (1.0, np.inf), (0.0, 1.0), (1.0, -1.0)])
def test_neohooke_rejects_bad_material_constants(c1, d1):
    geo, dm = _setup(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="c1, d1"):
        NeoHookeModel(geo, dm, c1=c1, d1=d1, f=(0.0, 0.0))


@pytest.mark.parametrize("young", [np.inf, np.nan, 0.0])
def test_young_poisson_rejects_bad_modulus(young):
    geo, dm = _setup(make_rect(1, 1), p=1, components=2)
    with pytest.raises(ValueError, match="Young's modulus E"):
        NeoHookeModel.from_young_poisson(geo, dm, young=young, poisson=0.3,
                                         f=(0.0, 0.0))


def test_length_mismatch_raises():
    geo, dm = _setup(make_rect(1, 1), p=1)
    model = PLaplaceModel(geo, dm, alpha=2.0, f=0.0)
    with pytest.raises(ValueError, match="length"):
        model.energy(np.zeros(dm.n_dofs + 1))


def test_energy_quadrature_offset_below_benchmark_precision():
    # the power-3 density is not a polynomial, so the (p+1)-point rule is
    # inexact by design; the induced offset (~1e-4 at level 1) must stay
    # below the 4-decimal benchmark tolerance and stabilize under refinement
    from hpmin.dofmap import expand_solution
    from hpmin.problems import plaplace_problem
    from hpmin.quadrature import rule_for_degree
    from hpmin.solver import TrOptions, minimize

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
