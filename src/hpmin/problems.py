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
    ``make_x0(dofmap)`` the free-DOF starting vector.  Every callback
    evaluates the model at the full vector: each gradient assembles its
    mode's element residuals, ``model.residuals`` (explicit) or
    ``model.residuals_fd`` (central_diff), with ``model.assemble_gradient``
    and keeps the free entries, and each mode's element blocks are
    ``model.element_hessians`` or ``model.element_hessians_fd``.
    ``element_dofs`` maps the element slots to free DOFs.  No callback
    keeps anything between calls.
    """
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    model = make_model(geo, dm)

    def full(v_free):
        return expand_solution(dm, v_free)

    free_index = np.full(dm.n_dofs, -1)
    free_index[dm.free_dofs] = np.arange(dm.n_free)
    problem = EnergyProblem(
        energy=lambda v: model.energy(full(v)),
        gradient=lambda v: model.gradient(full(v))[dm.free_dofs],
        gradient_fd=lambda v: model.assemble_gradient(
            model.residuals_fd(full(v)))[dm.free_dofs],
        pattern=sparsity_pattern(dm), x0=make_x0(dm),
        element_hessians=lambda v: model.element_hessians(full(v)),
        element_hessians_fd=lambda v: model.element_hessians_fd(full(v)),
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
