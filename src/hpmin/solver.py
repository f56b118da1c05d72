"""Trust-region Newton minimization over free DOFs.

Each accepted step builds a sparse finite-difference Hessian on the
problem's sparsity pattern.  A problem that gives its element blocks has
them added into the pattern; the model problems take them at every
quadrature point, from central differences of the stress in
``explicit`` mode and from second differences of the density in
``central_diff`` mode.  Any other problem differences its gradient once
per color group.  Each iteration solves the trust-region subproblem with
Steihaug-Toint truncated CG, stopped at a forcing tolerance that falls
with the gradient (an inexact Newton step), and accepts or rejects the
step by the ratio of actual to predicted energy reduction.  A predicted reduction below the energy's rounding
takes its actual reduction from the trapezoid rule on the gradients at
both ends of the step instead of from the energies.
A problem with a ``max_step`` (the elastic orientation barrier) has a
step that would reach det F = 0 cut to the fraction ``BOUNDARY_FRACTION``
of the way there before its trial energy is evaluated.  A +inf trial
energy still rejects the step and shrinks the radius.  So does a
non-finite gradient of a trial that would be accepted, or a
``BarrierError`` from it, raised when a difference probe of a
central-difference gradient crosses det F <= 0.  Either one while the
Hessian is built (a ``BarrierError`` or a non-finite Hessian entry) ends
the solve unconverged at the current point, and either one at the
initial gradient is a ``ValueError``.  ``TrSolution.history`` is the one
per-iteration record; such a rejected trial records ``rho`` as None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .energy import BarrierError
from .fd import greedy_coloring, hessian_fd, slot_pattern

__all__ = ["EnergyProblem", "TrOptions", "TrSolution", "minimize", "steihaug_cg"]

# Constants of the method: the acceptance and radius rule of the
# trust-region loop, the share of the way to a problem's max_step that a
# cut step goes, the relative residual at which CG stops on a step that
# should end the solve and the largest one it stops at before, the
# predicted decrease, in units of eps * max(1, |J|), below which the ratio
# is taken from the gradients, and the stopping test's gradient max-norm
# relative to max(1, |J(x0)|).
ETA_ACCEPT = 0.05
SHRINK_THRESHOLD, SHRINK_FACTOR = 0.25, 0.25
EXPAND_THRESHOLD, EXPAND_FACTOR = 0.75, 2.0
MAX_RADIUS = 1e8
BOUNDARY_FRACTION = 0.5
CG_TOL = 1e-8
FORCING_MAX = 0.1
ROUNDOFF_DECREASE = 10.0
GRAD_RTOL = 1e-6

_HUGE = np.finfo(float).max


@dataclass
class EnergyProblem:
    """Minimization problem over free DOFs.

    ``energy`` and ``gradient`` act on free-DOF vectors; ``gradient_fd``
    is the central-difference alternative used when the solver runs in
    ``central_diff`` mode.  ``pattern`` holds the Hessian's structural
    nonzeros as a square, symmetric CSR matrix with sorted indices and no
    repeated entry, as :func:`hpmin.dofmap.sparsity_pattern` builds it
    (bool data); :func:`hpmin.fd.greedy_coloring` rejects anything else.
    ``max_step(v, step)``, when given, is the first t > 0 at which
    v + t step leaves the admissible set (inf if it never does); None means
    steps are never cut.

    An energy that is a sum of element energies may give its Hessian as
    element blocks: ``element_hessians(v)`` (explicit mode) and
    ``element_hessians_fd(v)`` (central_diff mode) return the
    (slots, T, slots) blocks that :func:`hpmin.fd.hessian_fd` adds up, and
    the array ``element_dofs`` holds the (T, slots) pattern row of the DOF
    in every element slot, -1 where it is fixed; :func:`minimize` raises
    ``ValueError`` on blocks without it.  When the mode's blocks are None,
    the Hessian is colored forward differences of the mode's gradient.
    """

    energy: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    pattern: sp.csr_matrix
    x0: np.ndarray
    gradient_fd: Callable[[np.ndarray], np.ndarray] | None = None
    max_step: Callable[[np.ndarray, np.ndarray], float] | None = None
    element_hessians: Callable[[np.ndarray], np.ndarray] | None = None
    element_hessians_fd: Callable[[np.ndarray], np.ndarray] | None = None
    element_dofs: np.ndarray | None = None


@dataclass
class TrOptions:
    """What a caller chooses per solve: iteration cap, first radius and
    gradient source.

    ``initial_radius`` must be positive and finite.  The stopping test,
    gradient max-norm below ``GRAD_RTOL * max(1, |J(x0)|)``, adapts to the
    energy scale of the problem; it, the radius policy and the CG
    stopping rule are the module constants above; the Hessian's difference
    step is :data:`hpmin.fd.FD_STEP`.
    """

    max_iters: int = 200
    initial_radius: float = 1.0
    gradient_mode: str = "explicit"  # "explicit" | "central_diff"

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        # written as 0 < x < inf so that a NaN fails too
        if not 0.0 < self.initial_radius < np.inf:
            raise ValueError(f"initial_radius must be positive and finite, "
                             f"got {self.initial_radius}")
        if self.gradient_mode not in ("explicit", "central_diff"):
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass
class TrSolution:
    """Minimizer, final energy, why the solve stopped, and per-iteration
    statistics.

    ``status`` is ``converged`` when the gradient passed the stopping test,
    and otherwise the cause of the stop: ``max_iters`` (the iteration cap
    was reached), ``radius_collapse`` (the radius fell below the rounding
    of v) or ``hessian_failed`` (a ``BarrierError`` or a non-finite entry
    while the Hessian was built).

    ``history`` holds one record per iteration, plain Python values that
    strict JSON can carry: ``iteration``; ``grad_norm``, the max-norm of
    the gradient the step was computed from; ``energy`` and ``radius``
    after the step was accepted or rejected; ``accepted``; ``rho``,
    the ratio of actual to predicted decrease (the actual one from the
    gradients when the predicted one is below the energy's rounding; see
    :func:`minimize`), or None when the trial has
    no ratio (a +inf trial energy, a non-positive predicted decrease, or a
    ``BarrierError`` from or a non-finite entry in the trial's gradient);
    and ``step_fraction``, the factor ``BOUNDARY_FRACTION * max_step`` that
    cut the CG step, or 1.0 when the step was not cut.
    """

    v_free: np.ndarray
    energy: float
    status: str
    iterations: int
    accepted: int
    rejected: int
    grad_norm: float
    history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a real vector, with the bits of np.linalg.norm(x)."""
    return np.sqrt(x @ x)


def _unit_scale(x: float) -> float:
    """The power of two c with c * x in [0.5, 1), for x > 0 finite."""
    return np.ldexp(1.0, -np.frexp(x)[1])


def _boundary_tau(s: np.ndarray, d: np.ndarray, radius: float) -> float:
    """Positive root of |s + tau d| = radius (exists for |s| < radius).

    s and the radius are scaled by one power of two, and d by another, so
    that the radius and max |d| lie in [0.5, 1): no square overflows
    however far apart their sizes are, and the root scales back exactly.
    """
    c = _unit_scale(radius)
    e = _unit_scale(np.max(np.abs(d)))
    s, d, radius = s * c, d * e, radius * c
    dd = d @ d
    sd = s @ d
    ss = s @ s
    return (-sd + np.sqrt(sd * sd + dd * (radius * radius - ss))) / dd * e / c


def steihaug_cg(H, g: np.ndarray, radius: float,
                rtol: float = CG_TOL) -> tuple[np.ndarray, bool]:
    """Truncated CG on H s = -g inside the trust region.

    Returns (step, hit_boundary).  Stops at the boundary along the current
    direction on negative curvature or when the iterate leaves the region;
    otherwise iterates until the residual H s + g has a 2-norm of at most
    ``rtol`` |g|, for at most 2n iterations.  The returned step never
    increases the quadratic model, and whatever ``rtol`` is, it decreases
    it at least as much as the Cauchy point, the model's minimizer along -g
    inside the region, where CG starts.

    g and every product H @ d are scaled by one power of two that brings
    max |g| into [0.5, 1), so the squared norms and inner products scale
    with H, not with |g|^2: a finite g past 1e154 no longer overflows them.
    Short of underflow the scaling is exact and leaves the step's bits as
    they are: steihaug_cg(c H, c g, radius) gives the step of
    steihaug_cg(H, g, radius) for any power of two c.  The step's length
    is compared with the radius, and the boundary root taken, in units of
    the radius, so a curvature tiny next to g, which sends the CG
    iterate far past the radius, overflows nothing either.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    g = np.asarray(g, dtype=float)
    s = np.zeros_like(g)
    g_max = np.max(np.abs(g), initial=0.0)
    if g_max == 0.0:
        return s, False
    scale = _unit_scale(g_max)
    unit = _unit_scale(radius)
    r = g * scale
    g_norm = _norm(r)
    d = -r
    rr = g_norm * g_norm
    # r is a new array, so the loop updates r, d and Hd in place
    for _ in range(2 * g.size):
        Hd = H @ d
        Hd *= scale
        kappa = d @ Hd
        # no curvature, or so little that rr / kappa would overflow
        if kappa <= rr / _HUGE:
            return s + _boundary_tau(s, d, radius) * d, True
        alpha = rr / kappa
        s_trial = s + alpha * d
        # |s_trial| >= radius; past the max test every entry is inside
        # the radius, so the norm in units of it cannot overflow
        if (max(s_trial.max(), -s_trial.min()) >= radius
                or _norm(s_trial * unit) >= radius * unit):
            return s + _boundary_tau(s, d, radius) * d, True
        s = s_trial
        Hd *= alpha
        r += Hd
        rr_new = r @ r
        if np.sqrt(rr_new) <= rtol * g_norm:
            break
        d *= rr_new / rr
        d -= r
        rr = rr_new
    return s, False


def _finite_gradient(grad_fn, v: np.ndarray) -> np.ndarray | None:
    """grad_fn(v), or None when it raises ``BarrierError`` or has a
    non-finite entry."""
    try:
        g = grad_fn(v)
    except BarrierError:
        return None
    return g if np.all(np.isfinite(g)) else None


def minimize(problem: EnergyProblem, opts: TrOptions | None = None) -> TrSolution:
    """Classic trust-region loop with a rebuilt FD Hessian per accepted step.

    Each iteration's CG stops at the relative residual
    eta_k = min(``FORCING_MAX``, |g_k| / |g_0|) in max-norms (Dembo,
    Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), or at ``CG_TOL``
    once eta_k |g_k| is below the stopping test's tolerance, so that a
    step expected to end the solve is an exact Newton step.  When the
    predicted decrease is below ``ROUNDOFF_DECREASE`` * eps * max(1, |J|),
    rounding hides the actual one, and the ratio's numerator is
    -(g + g_trial) . s / 2 (Conn, Gould & Toint, *Trust-Region Methods*,
    2000, section 17.4), exact for a quadratic; an accepted energy can
    then exceed the last one by that rounding.

    A radius that shrinks below the rounding of v, eps * max(1, |v|),
    ends the loop unconverged, as does a ``BarrierError`` or a non-finite
    entry while the Hessian is built.  A step cut short of the problem's
    ``max_step`` does not end on the trust-region boundary, so it never
    grows the radius.
    """
    opts = opts or TrOptions()
    if opts.gradient_mode == "central_diff":
        grad_fn, blocks = problem.gradient_fd, problem.element_hessians_fd
        if grad_fn is None:
            raise ValueError("problem provides no central-difference gradient")
    else:
        grad_fn, blocks = problem.gradient, problem.element_hessians
    if blocks is not None and problem.element_dofs is None:
        raise ValueError("problem provides element Hessians but no element_dofs")

    v = np.asarray(problem.x0, dtype=float).copy()
    energy_now = problem.energy(v)
    if not np.isfinite(energy_now):
        raise ValueError("initial point has non-finite energy")
    try:
        g = grad_fn(v)
    except BarrierError as err:
        raise ValueError("initial gradient is not finite: a difference probe "
                         "crossed det F <= 0") from err
    if not np.all(np.isfinite(g)):
        raise ValueError("initial gradient is not finite")
    grad_tol = GRAD_RTOL * max(1.0, abs(energy_now))
    first_norm = float(np.max(np.abs(g), initial=0.0))

    # the per-pattern bookkeeping of the Hessian: a coloring for a problem
    # without blocks, the slot positions for one with them
    probe = grad_fn if blocks is None else blocks
    layout = (greedy_coloring(problem.pattern) if blocks is None
              else slot_pattern(problem.pattern, problem.element_dofs))
    radius = opts.initial_radius
    H = None
    history: list[dict] = []
    accepted = rejected = 0
    status = "max_iters"

    for iteration in range(opts.max_iters):
        grad_norm = float(np.max(np.abs(g), initial=0.0))
        if grad_norm < grad_tol:
            break
        if H is None:
            try:
                H = hessian_fd(probe, v, layout, g0=g)
            except BarrierError:
                status = "hessian_failed"  # a probe crossed det F <= 0
                break
            if not np.all(np.isfinite(H.data)):
                status = "hessian_failed"  # a probe's gradient was not finite
                break
        rtol = min(FORCING_MAX, grad_norm / first_norm)
        if rtol * grad_norm <= grad_tol:
            rtol = CG_TOL
        step, hit_boundary = steihaug_cg(H, g, radius, rtol=rtol)
        step_fraction = 1.0
        if problem.max_step is not None:
            t_max = problem.max_step(v, step)
            if t_max <= 1.0:
                # a CG step descends the model, so any cut of it does too
                step_fraction = BOUNDARY_FRACTION * t_max
                step = step_fraction * step
                hit_boundary = False
        predicted = -(g @ step + 0.5 * (step @ (H @ step)))
        v_trial = v + step
        trial = problem.energy(v_trial)
        g_trial, rho = None, -np.inf
        if np.isfinite(trial) and predicted > 0.0:
            rounding = np.finfo(float).eps * max(1.0, abs(energy_now))
            if predicted >= ROUNDOFF_DECREASE * rounding:
                rho = (energy_now - trial) / predicted
            else:
                g_trial = _finite_gradient(grad_fn, v_trial)
                if g_trial is not None:
                    rho = -0.5 * ((g + g_trial) @ step) / predicted
        if rho > ETA_ACCEPT and g_trial is None:
            g_trial = _finite_gradient(grad_fn, v_trial)
            if g_trial is None:
                rho = -np.inf
        accept = rho > ETA_ACCEPT
        if accept:
            v = v_trial
            energy_now = trial
            g = g_trial
            accepted += 1
            H = None  # rebuild at the new point
        else:
            rejected += 1
        if rho < SHRINK_THRESHOLD:
            radius *= SHRINK_FACTOR
        elif rho > EXPAND_THRESHOLD and hit_boundary:
            radius = min(radius * EXPAND_FACTOR, MAX_RADIUS)
        history.append({
            "iteration": iteration, "energy": float(energy_now),
            "grad_norm": grad_norm, "radius": float(radius),
            "rho": None if rho == -np.inf else float(rho),
            "accepted": bool(accept), "step_fraction": float(step_fraction),
        })
        if radius < np.finfo(float).eps * max(1.0, np.linalg.norm(v)):
            status = "radius_collapse"  # a step this short cannot move v
            break

    grad_norm = float(np.max(np.abs(g), initial=0.0))
    if grad_norm < grad_tol:
        status = "converged"
    return TrSolution(
        v_free=v, energy=energy_now, status=status,
        iterations=accepted + rejected, accepted=accepted, rejected=rejected,
        grad_norm=grad_norm, history=history,
    )
