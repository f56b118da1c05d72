"""Ready-to-minimize problems for the two benchmark functionals."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import tabulate
from .dofmap import DirichletSpec, build_dofmap, expand_solution, sparsity_pattern
from .energy import NeoHookeModel, PLaplaceModel, identity_deformation
from .mesh import QuadMesh, geometry_factors
from .quadrature import rule_for_degree
from .solver import EnergyProblem

__all__ = ["plaplace_problem", "neohooke_problem"]


def _problem(mesh: QuadMesh, p: int, components: int, dirichlet: DirichletSpec,
             make_model, make_x0):
    """Quadrature rule, geometry, DOF map and model of one problem, and the
    ``EnergyProblem`` over its free DOFs.

    ``make_model(geo, dofmap)`` builds the energy model and
    ``make_x0(dofmap)`` the free-DOF starting vector.  Each gradient mode
    has one element evaluation at the full vector, its element residuals:
    ``model.residuals`` in explicit mode and ``model.probe_energies`` in
    central_diff mode.  The gradient assembles them with
    ``model.assemble_gradient`` and keeps the free entries;
    ``element_dofs`` maps the element slots to free DOFs.

    The explicit blocks difference against the residuals at their point.
    ``minimize`` evaluates the gradient at every point before it builds
    the one Hessian there, so the explicit gradient keeps one record: the
    bytes of the full vector and its residuals.  The blocks at that point
    take the residuals from it and do not compute them again.  A blocks
    call spends the record, and elsewhere computes the residuals itself;
    a gradient that raises leaves none.  The central_diff blocks read
    nothing of their gradient.
    """
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    model = make_model(geo, dm)

    record = None

    def gradient(v_free):
        nonlocal record
        record = None
        v_full = expand_solution(dm, v_free)
        residuals = model.residuals(v_full)
        record = (v_full.tobytes(), residuals)
        return model.assemble_gradient(residuals)[dm.free_dofs]

    def element_hessians(v_free):
        nonlocal record
        v_full = expand_solution(dm, v_free)
        kept = record is not None and record[0] == v_full.tobytes()
        base = record[1] if kept else model.residuals(v_full)
        record = None
        return model.element_hessians(v_full, base)

    def gradient_fd(v_free):
        residuals = model.probe_energies(expand_solution(dm, v_free))
        return model.assemble_gradient(residuals)[dm.free_dofs]

    free_index = np.full(dm.n_dofs, -1)
    free_index[dm.free_dofs] = np.arange(dm.n_free)
    problem = EnergyProblem(
        energy=lambda v_free: model.energy(expand_solution(dm, v_free)),
        gradient=gradient, gradient_fd=gradient_fd,
        pattern=sparsity_pattern(dm), x0=make_x0(dm),
        element_hessians=element_hessians,
        element_hessians_fd=lambda v_free: model.element_hessians_fd(
            expand_solution(dm, v_free)),
        element_dofs=free_index[dm.elems2dofs])
    return problem, model


def plaplace_problem(mesh: QuadMesh, p: int, alpha: float,
                     f: float) -> tuple[EnergyProblem, PLaplaceModel]:
    """Power-law diffusion with u = 0 on the whole boundary, starting from
    the zero vector."""
    return _problem(mesh, p, 1, DirichletSpec(g=0.0),
                    lambda geo, dm: PLaplaceModel(geo, dm, alpha=alpha, f=f),
                    lambda dm: np.zeros(dm.n_free))


def neohooke_problem(mesh: QuadMesh, p: int, young: float, poisson: float,
                     f) -> tuple[EnergyProblem, NeoHookeModel]:
    """Compressible Neo-Hookean elasticity, deformation pinned to the
    identity on the left and bottom sides (x = 0 or y = 0, to 1e-9),
    starting from the identity map.  The problem's ``max_step`` is the
    model's, with the step zero on the fixed DOFs."""
    problem, model = _problem(
        mesh, p, 2,
        DirichletSpec(on=lambda x, y: (abs(x) < 1e-9) | (abs(y) < 1e-9),
                      g=lambda x, y: (x, y)),
        lambda geo, dm: NeoHookeModel.from_young_poisson(
            geo, dm, young=young, poisson=poisson, f=f),
        lambda dm: identity_deformation(dm)[dm.free_dofs])
    dm = model.dofmap

    def max_step(v_free, step_free):
        s_full = np.zeros(dm.n_dofs)
        s_full[dm.free_dofs] = step_free
        return model.max_step(expand_solution(dm, v_free), s_full)

    return replace(problem, max_step=max_step), model
