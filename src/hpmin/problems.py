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
    has one element evaluation at the full vector, its element residuals
    and the base of its blocks: ``model.residuals``, their own base, in
    explicit mode and ``model.probe_energies`` in central_diff mode.  The
    gradient assembles the residuals with ``model.assemble_gradient`` and
    keeps the free entries; ``element_dofs`` maps the element slots to
    free DOFs.

    ``minimize`` evaluates the gradient at every point before it builds
    the one Hessian there, so each mode keeps one record, left by its
    last gradient: the bytes of the full vector and the base.  The blocks
    of that mode at that point take the base from it and do not compute
    it again.  A blocks call spends its mode's record, and elsewhere
    computes the base itself; a gradient that raises leaves none.
    """
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=components, dirichlet=dirichlet)
    model = make_model(geo, dm)

    def wire(evaluate, kernel):
        """The gradient and element blocks of one mode from its element
        evaluation ``evaluate(v_full)``, (residuals, base), and the model's
        blocks ``kernel(v_full, base)``."""
        record = None

        def gradient(v_free):
            nonlocal record
            record = None
            v_full = expand_solution(dm, v_free)
            residuals, base = evaluate(v_full)
            record = (v_full.tobytes(), base)
            return model.assemble_gradient(residuals)[dm.free_dofs]

        def blocks(v_free):
            nonlocal record
            v_full = expand_solution(dm, v_free)
            kept = record is not None and record[0] == v_full.tobytes()
            base = record[1] if kept else evaluate(v_full)[1]
            record = None
            return kernel(v_full, base)
        return gradient, blocks

    gradient, element_hessians = wire(
        lambda v_full: (model.residuals(v_full),) * 2, model.element_hessians)
    gradient_fd, element_hessians_fd = wire(model.probe_energies,
                                            model.element_hessians_fd)
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
