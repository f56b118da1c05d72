"""Trust-region Newton minimization over free DOFs.

Each iteration builds a sparse finite-difference Hessian on the problem's
sparsity pattern (one gradient difference per color group), solves the
trust-region subproblem with Steihaug-Toint truncated CG, and accepts or
rejects the step by the ratio of actual to predicted energy reduction.
A +inf trial energy (the elastic orientation barrier) simply rejects the
step and shrinks the radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dofmap import SparsityPattern
from .fd import greedy_coloring, hessian_fd

__all__ = ["EnergyProblem", "TrOptions", "TrSolution", "minimize", "steihaug_cg"]

# Constants of the method: the acceptance and radius rule of the
# trust-region loop, and the relative residual at which CG stops.
ETA_ACCEPT = 0.05
SHRINK_THRESHOLD, SHRINK_FACTOR = 0.25, 0.25
EXPAND_THRESHOLD, EXPAND_FACTOR = 0.75, 2.0
MAX_RADIUS = 1e8
CG_TOL = 1e-8


@dataclass
class EnergyProblem:
    """Minimization problem over free DOFs.

    ``energy`` and ``gradient`` act on free-DOF vectors; ``gradient_fd``
    is the central-difference alternative used when the solver runs in
    ``central_diff`` mode.
    """

    energy: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    pattern: SparsityPattern
    x0: np.ndarray
    gradient_fd: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class TrOptions:
    """What a caller chooses per solve: stopping test, first radius,
    gradient source and an optional per-iteration log.

    ``grad_tol=None`` resolves to 1e-6 * max(1, |J(x0)|), which adapts the
    stopping test to the energy scale of the problem.  The radius policy
    and the CG tolerance are the module constants above; the Hessian's
    difference step is :data:`hpmin.fd.FD_STEP`.
    """

    grad_tol: float | None = None
    max_iters: int = 200
    initial_radius: float = 1.0
    gradient_mode: str = "explicit"  # "explicit" | "central_diff"
    log: Callable[[dict], None] | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.gradient_mode not in ("explicit", "central_diff"):
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass
class TrSolution:
    """Minimizer, final energy, and per-iteration statistics."""

    v_free: np.ndarray
    energy: float
    converged: bool
    iterations: int
    accepted: int
    rejected: int
    grad_norm: float
    history: list = field(default_factory=list)


def _boundary_tau(s: np.ndarray, d: np.ndarray, radius: float) -> float:
    """Positive root of |s + tau d| = radius (exists for |s| < radius)."""
    dd = d @ d
    sd = s @ d
    ss = s @ s
    return (-sd + np.sqrt(sd * sd + dd * (radius * radius - ss))) / dd


def steihaug_cg(H, g: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """Truncated CG on H s = -g inside the trust region.

    Returns (step, hit_boundary).  Stops at the boundary along the current
    direction on negative curvature or when the iterate leaves the region;
    otherwise iterates to relative residual ``CG_TOL``, for at most 2n
    iterations.  The returned step never increases the quadratic model
    (Cauchy point or better).
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    g = np.asarray(g, dtype=float)
    s = np.zeros_like(g)
    r = g.copy()
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return s, False
    d = -r
    rr = g_norm * g_norm
    for _ in range(2 * g.size):
        Hd = H @ d
        kappa = d @ Hd
        if kappa <= 0.0:
            return s + _boundary_tau(s, d, radius) * d, True
        alpha = rr / kappa
        s_trial = s + alpha * d
        if np.linalg.norm(s_trial) >= radius:
            return s + _boundary_tau(s, d, radius) * d, True
        s = s_trial
        r = r + alpha * Hd
        rr_new = r @ r
        if np.sqrt(rr_new) <= CG_TOL * g_norm:
            break
        d = -r + (rr_new / rr) * d
        rr = rr_new
    return s, False


def minimize(problem: EnergyProblem, opts: TrOptions | None = None) -> TrSolution:
    """Classic trust-region loop with a rebuilt FD Hessian per accepted step.

    A radius that shrinks to 0.0 ends the loop unconverged.
    """
    opts = opts or TrOptions()
    if opts.gradient_mode == "central_diff":
        grad_fn = problem.gradient_fd
        if grad_fn is None:
            raise ValueError("problem provides no central-difference gradient")
    else:
        grad_fn = problem.gradient

    v = np.asarray(problem.x0, dtype=float).copy()
    energy_now = problem.energy(v)
    if not np.isfinite(energy_now):
        raise ValueError("initial point has non-finite energy")
    g = grad_fn(v)
    if not np.all(np.isfinite(g)):
        raise ValueError("initial gradient is not finite")
    grad_tol = (opts.grad_tol if opts.grad_tol is not None
                else 1e-6 * max(1.0, abs(energy_now)))

    colored = greedy_coloring(problem.pattern)
    radius = opts.initial_radius
    H = None
    history: list[dict] = []
    accepted = rejected = 0
    converged = False

    for iteration in range(opts.max_iters):
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm < grad_tol:
            converged = True
            break
        if H is None:
            H = hessian_fd(grad_fn, v, colored, g0=g)
        step, hit_boundary = steihaug_cg(H, g, radius)
        predicted = -(g @ step + 0.5 * (step @ (H @ step)))
        trial = problem.energy(v + step)
        if np.isfinite(trial) and predicted > 0.0:
            rho = (energy_now - trial) / predicted
        else:
            rho = -np.inf
        accept = rho > ETA_ACCEPT
        if accept:
            v = v + step
            energy_now = trial
            g = grad_fn(v)
            accepted += 1
            H = None  # rebuild at the new point
        else:
            rejected += 1
        if rho < SHRINK_THRESHOLD:
            radius *= SHRINK_FACTOR
        elif rho > EXPAND_THRESHOLD and hit_boundary:
            radius = min(radius * EXPAND_FACTOR, MAX_RADIUS)
        record = {
            "iteration": iteration, "energy": float(energy_now),
            "grad_norm": grad_norm, "radius": float(radius),
            "rho": float(rho), "accepted": bool(accept),
        }
        history.append(record)
        if opts.log is not None:
            opts.log(record)
        if radius == 0.0:  # shrunk below the smallest float: no step is left
            break
    else:
        converged = float(np.max(np.abs(g))) < grad_tol if g.size else True

    return TrSolution(
        v_free=v, energy=energy_now, converged=converged,
        iterations=accepted + rejected, accepted=accepted, rejected=rejected,
        grad_norm=float(np.max(np.abs(g))) if g.size else 0.0, history=history,
    )
