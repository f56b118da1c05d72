"""Ready-to-minimize problems for the two benchmark functionals."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import tabulate
from .dofmap import DirichletSpec, build_dofmap, expand_solution, sparsity_pattern
from .energy import NeoHookeModel, PLaplaceModel, identity_deformation
from .fd import gradient_central_local, hessian_blocks
from .mesh import QuadMesh, geometry_factors
from .quadrature import rule_for_degree
from .solver import EnergyProblem

__all__ = ["plaplace_problem", "neohooke_problem"]


def _problem(mesh: QuadMesh, p: int, components: int, dirichlet: DirichletSpec,
             make_model, make_x0):
    """Quadrature rule, geometry, DOF map and model of one problem, and the
    ``EnergyProblem`` over its free DOFs.

    ``make_model(geo, dofmap)`` builds the energy model and
    ``make_x0(dofmap)`` the free-DOF starting vector.  Both gradients,
    ``model.gradient`` and :func:`hpmin.fd.gradient_central_local`, give
    one entry per DOF of the full vector; one helper inserts the fixed
    values and keeps the free entries of either.  The element-slot Hessian
    blocks of either gradient act on the full vector too, and
    ``element_dofs`` maps the element slots to free DOFs.
    """
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    model = make_model(geo, dm)

    def on_free(full_gradient):
        return lambda v_free: full_gradient(expand_solution(dm, v_free))[dm.free_dofs]

    def blocks(element_hessians):
        return lambda v_free: hessian_blocks(element_hessians,
                                             expand_solution(dm, v_free))

    free_index = np.full(dm.n_dofs, -1)
    free_index[dm.free_dofs] = np.arange(dm.n_free)
    problem = EnergyProblem(
        energy=lambda v_free: model.energy(expand_solution(dm, v_free)),
        gradient=on_free(model.gradient),
        gradient_fd=on_free(lambda v_full: gradient_central_local(model, v_full)),
        pattern=sparsity_pattern(dm), x0=make_x0(dm),
        element_hessians=blocks(model.element_hessians),
        element_hessians_fd=blocks(model.element_hessians_fd),
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
