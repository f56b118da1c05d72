"""Ready-to-minimize problems for the two benchmark functionals."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import tabulate
from .dofmap import DirichletSpec, build_dofmap, expand_solution, sparsity_pattern
from .energy import NeoHookeModel, PLaplaceModel, identity_deformation
from .fd import difference_steps, gradient_central_local
from .mesh import QuadMesh, geometry_factors
from .quadrature import rule_for_degree
from .solver import EnergyProblem

__all__ = ["plaplace_problem", "neohooke_problem"]


def _problem(mesh: QuadMesh, p: int, components: int, dirichlet: DirichletSpec,
             make_model, make_x0):
    """Quadrature rule, geometry, DOF map and model of one problem, and the
    ``EnergyProblem`` over its free DOFs.

    ``make_model(geo, dofmap)`` builds the energy model and
    ``make_x0(dofmap)`` the free-DOF starting vector.  Each gradient first
    evaluates every element at the point: ``model.residuals`` in explicit
    mode, ``model.slot_differences`` at the steps of
    :func:`hpmin.fd.difference_steps` in central_diff mode.  It sums that
    into one entry per DOF of the full vector, with
    ``model.assemble_gradient`` or :func:`hpmin.fd.gradient_central_local`,
    and keeps the free entries.  The element-slot Hessian blocks of either
    mode act on the full vector too, and ``element_dofs`` maps the element
    slots to free DOFs.

    ``minimize`` evaluates the gradient at every point before it builds
    the Hessian there, so the problem keeps the element evaluation of its
    last gradient call, under the mode, the bits of the full vector and, in
    central_diff mode, those of the steps.  The blocks at the same key take
    it as their base and do not evaluate it again: one batched residual
    evaluation fewer per Hessian in explicit mode, 2 S batched energy
    evaluations fewer for S slots in central_diff mode.  A gradient that
    raises keeps nothing.  The model itself keeps no state between calls.
    """
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    model = make_model(geo, dm)
    last_key = last_base = None

    def keep(key, evaluate):
        """``evaluate()``, kept under ``key`` as the last gradient's."""
        nonlocal last_key, last_base
        last_key = last_base = None  # a gradient that raises keeps nothing
        last_base = evaluate()
        last_key = key
        return last_base

    def kept(key):
        return last_base if key == last_key else None

    def gradient(v_free):
        v_full = expand_solution(dm, v_free)
        residuals = keep(("explicit", v_full.tobytes()),
                         lambda: model.residuals(v_full))
        return model.assemble_gradient(residuals)[dm.free_dofs]

    def element_hessians(v_free):
        v_full = expand_solution(dm, v_free)
        return model.element_hessians(v_full, difference_steps(v_full),
                                      base=kept(("explicit", v_full.tobytes())))

    def central(v_free):
        """The full vector, its steps and their key in central_diff mode."""
        v_full = expand_solution(dm, v_free)
        steps = difference_steps(v_full)
        return v_full, steps, ("central_diff", v_full.tobytes(), steps.tobytes())

    def gradient_fd(v_free):
        v_full, steps, key = central(v_free)
        rows = keep(key, lambda: model.slot_differences(v_full, steps))
        return gradient_central_local(model, rows, steps)[dm.free_dofs]

    def element_hessians_fd(v_free):
        v_full, steps, key = central(v_free)
        return model.element_hessians_fd(v_full, steps, base=kept(key))

    free_index = np.full(dm.n_dofs, -1)
    free_index[dm.free_dofs] = np.arange(dm.n_free)
    problem = EnergyProblem(
        energy=lambda v_free: model.energy(expand_solution(dm, v_free)),
        gradient=gradient, gradient_fd=gradient_fd,
        pattern=sparsity_pattern(dm), x0=make_x0(dm),
        element_hessians=element_hessians,
        element_hessians_fd=element_hessians_fd,
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
