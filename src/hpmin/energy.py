"""Discrete energy functionals and their explicit gradients.

A model is only its pointwise pair on the gradient array G = grad v at
the quadrature points, shape (components, 2, elems, n_ip): the density
W(G) and the stress P = dW/dG.  The shared base class does the rest once
for every model: gather signed local coefficients into G, integrate
w |J| W(G) per element, contract w |J| P(G) with the shape-function
derivatives, scatter into a global gradient, and subtract the linear load
term ``b . v`` assembled once up front.

A physical shape-function gradient is J^{-T} times the reference one, and
the reference derivatives are one table shared by all elements.  So the
gather is a batched matrix product of the local coefficients with that
table followed by J^{-T} at each point, and the gradient maps P back to
the reference directions with w |J| J^{-T} and contracts with one batched
product against the transposed table; no per-element derivative tensor
is formed.  Outside these kernels G is exposed only as
``NeoHookeModel.gradfield``, the named entries of F for det F checks.

Every derivative gathers G once, takes its pointwise derivatives on it,
and contracts them with one of two shared contractions.  First
derivatives contract into element residuals, the gradient before its
scatter: ``residuals`` from ``stress``, and ``residuals_fd`` from central
differences of the density, with each entry of G moved by its step from
:func:`hpmin.fd.difference_steps` up and down (4 scalar or 8 vector
density evaluations); ``assemble_gradient`` scatters either.  Second
derivatives contract into the element blocks of a finite-difference
Hessian like the stiffness of a linear model: ``element_hessians`` from
the same central differences of ``stress`` (4 or 8 stress evaluations),
and ``element_hessians_fd`` from second differences of the density with
the steps of :func:`hpmin.fd.hessian_steps` (9 or 33 density
evaluations), whatever the degree.  So the derivatives of explicit mode
need only a model's ``stress``, and those of central_diff mode only its
``density``.  Every probe evaluates a moved copy of G, so no call changes
its arguments; a model keeps no state between calls, and every batched
product runs over all elements.

* scalar power-law diffusion: (1/alpha) integral |grad v|^alpha - integral f v
* vector compressible Neo-Hookean elasticity with stored density
  W(F) = C1 (|F|^2 - 2 - 2 log det F) + D1 (det F - 1)^2, where v holds
  deformation coefficients and F is its gradient.  det F <= 0 anywhere
  turns the energy into +inf.  F is linear in v, so det F along a step is
  a quadratic at each point, and ``NeoHookeModel.max_step`` gives the
  minimizer the first t at which it reaches 0, so that a step can be cut
  short of the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dofmap import DofMap
from .fd import difference_steps, hessian_steps
from .mesh import GeometryFactors

__all__ = [
    "BarrierError",
    "DeformationField",
    "PLaplaceModel",
    "NeoHookeModel",
    "assemble_load",
    "identity_deformation",
]


class BarrierError(ArithmeticError):
    """Gradient requested at a configuration with non-positive det F."""


@dataclass(frozen=True)
class DeformationField:
    """Deformation-gradient components at all quadrature points, (T, n_ip)."""

    f11: np.ndarray
    f12: np.ndarray
    f21: np.ndarray
    f22: np.ndarray

    @property
    def det(self) -> np.ndarray:
        return self.f11 * self.f22 - self.f12 * self.f21


def assemble_load(geometry: GeometryFactors, dofmap: DofMap, f) -> np.ndarray:
    """Load vector of a constant source: b[i] = integral f phi_i.

    ``f`` is a scalar (1 component) or a length-2 sequence; both fixed and
    free entries are populated.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.shape != (dofmap.components,):
        raise ValueError(f"expected {dofmap.components} load components, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"load f must be finite, got {f.tolist()}")
    # integral of each local shape function over each element
    cell = np.einsum("tq,mq->tm", geometry.wdetj, geometry.table.values)
    return dofmap.scatter(np.repeat(f, cell.shape[1])
                          * np.tile(cell, dofmap.components))


def identity_deformation(dofmap: DofMap) -> np.ndarray:
    """Coefficients of the identity map: nodal DOFs = coordinates, rest 0."""
    if dofmap.components != 2:
        raise ValueError("identity deformation needs a 2-component DofMap")
    v = np.zeros(dofmap.n_dofs)
    # component c's nodal DOFs are ids c * n_p + node: row c of the view
    v.reshape(2, dofmap.n_p)[:, :dofmap.mesh.n_nodes] = dofmap.mesh.nodes.T
    return v


class _ModelBase:
    """Gather -> pointwise -> contract -> scatter over one geometry and DOF map.

    A subclass defines two pointwise functions of the gradient array G of
    shape (components, 2, elems, n_ip): ``density(G)``, the energy density
    W at every quadrature point, and ``stress(G)``, its derivative dW/dG
    with the shape of G.
    """

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap, f):
        if geometry.n_elems != dofmap.mesh.n_elems:
            raise ValueError("geometry and dofmap belong to different meshes")
        self.geometry = geometry
        self.dofmap = dofmap
        self.b_full = assemble_load(geometry, dofmap, f)
        table = geometry.table
        self._ref = np.stack([table.dxi, table.deta])  # (2, m, n_ip)
        self._ref_t = np.ascontiguousarray(self._ref.transpose(0, 2, 1))  # (2, n_ip, m)
        self._w_jinv_t = geometry.wdetj * geometry.jinv_t  # (2, 2, T, n_ip)
        # products of reference derivatives d_b phi_k d_f phi_l at each
        # point: for column function l, rows (b, f, point) and columns k, so
        # one batched matrix product with it contracts pointwise second
        # derivatives into the blocks of every column slot
        m = self._ref.shape[1]
        self._ref_outer = np.einsum("bkq,flq->lbfqk", self._ref, self._ref,
                                    order="C").reshape(m, -1, m)

    def _gather(self, v_loc: np.ndarray) -> np.ndarray:
        """Gradient array G, (components, 2, T, n_ip), of local coefficients.

        The reference derivatives of all components come from one batched
        product with the shared table; J^{-T} then maps them to physical
        directions: G[c, a] = sum_b J^{-T}[a, b] R[c, b].
        """
        v_c = v_loc.reshape(v_loc.shape[0], self.dofmap.components, 1, -1)
        R = v_c.transpose(1, 2, 0, 3) @ self._ref  # (components, 2, T, n_ip)
        return np.einsum("abpq,cbpq->capq", self.geometry.jinv_t, R)

    def _element_energies(self, v_loc: np.ndarray) -> np.ndarray:
        """Per-element density integrals for given local coefficients, (T,)."""
        dens = self.density(self._gather(v_loc))
        # w |J| > 0 on valid meshes, so a +inf density gives a +inf element
        return np.einsum("pq,pq->p", self.geometry.wdetj, dens)

    def element_energies(self, v_full: np.ndarray) -> np.ndarray:
        """Per-element density integrals (no load term), (T,)."""
        return self._element_energies(self.dofmap.gather(v_full))

    def energy(self, v_full: np.ndarray) -> float:
        dens = self.element_energies(v_full)
        if not np.all(np.isfinite(dens)):
            return np.inf
        return float(dens.sum() - self.b_full @ v_full)

    def _probe(self, pointwise, G: np.ndarray, h: np.ndarray, *moves) -> np.ndarray:
        """``pointwise`` of a copy of G with, for each (i, sign) of
        ``moves``, entry i moved by sign h_i at every quadrature point.  A
        non-finite value raises ``BarrierError``."""
        moved = G.reshape(-1, *G.shape[2:]).copy()
        for i, sign in moves:
            moved[i] += sign * h[i]
        out = pointwise(moved.reshape(G.shape))
        if not np.all(np.isfinite(out)):
            raise BarrierError("not finite at a finite-difference probe")
        return out

    def _central(self, pointwise, G: np.ndarray) -> np.ndarray:
        """Central differences of ``pointwise``, a function f of G taken at
        every quadrature point, over the entries of G.

        At every point, entry j of G moves by its step h_j from
        :func:`hpmin.fd.difference_steps` up and down:
        (f(G + h_j e_j) - f(G - h_j e_j)) / (2 h_j), 2 n evaluations of f
        for the n = 2 x components entries.  The result has two leading
        axes shaped like G's, entry j holding the difference over entry j,
        followed by the shape of f(G).  A non-finite value raises
        ``BarrierError``.
        """
        h = difference_steps(G.reshape(-1, *G.shape[2:]))
        probe = partial(self._probe, pointwise, G, h)
        diffs = np.stack([(probe((j, 1.0)) - probe((j, -1.0))) / (2.0 * h[j])
                          for j in range(h.shape[0])])
        return diffs.reshape(*G.shape[:2], *diffs.shape[1:])

    def _contract_first(self, P: np.ndarray) -> np.ndarray:
        """Element residuals, (T, slots), of pointwise first derivatives P
        of the density, shaped like G: the derivatives of every element's
        density integral with respect to its signed local coefficients."""
        # w |J| P J^{-T}: the derivatives against the reference directions
        Q = np.einsum("catq,abtq->cbtq", P, self._w_jinv_t)
        r_loc = (Q @ self._ref_t).sum(axis=1)  # (components, T, m)
        return r_loc.transpose(1, 0, 2).reshape(P.shape[2], -1)

    def _contract_second(self, d2: np.ndarray) -> np.ndarray:
        """Element blocks, (slots, T, slots), of pointwise second
        derivatives d2 of the density, (components, 2, components, 2, T,
        n_ip): [d, e, c, a] is the derivative over G[d, e] of the first
        derivative over G[c, a].

        Weighted by w |J| and mapped to the reference directions by J^{-T}
        on both sides, d2 is contracted with the products of the reference
        derivatives by one batched matrix product over the column slots
        (d, l), straight into the blocks.  Entry [b, e, a] is element e's
        share of the Hessian entry coupling the DOFs of its slots a (row)
        and b (column), with the signs of both slots, multiplied in on the
        DOF map's signed slots only.
        """
        components, n_elems = d2.shape[0], d2.shape[4]
        d2 = np.einsum("decatq,eftq->dfcatq", d2, self.geometry.jinv_t)
        d2 = np.einsum("abtq,dfcatq->dtcbfq", self._w_jinv_t, d2)
        # einsum in its own output order and one copy: the same bits, and
        # about 3 times faster than einsum asked for C order (numpy 2.4)
        rows = np.ascontiguousarray(d2).reshape(components, n_elems * components, -1)
        del d2
        m = self._ref.shape[1]
        blocks = np.empty((components * m, n_elems, components * m))
        np.matmul(rows[:, None], self._ref_outer,
                  out=blocks.reshape(components, m, n_elems * components, m))
        self.dofmap.apply_signs(blocks)  # the row slots a
        self.dofmap.apply_signs(blocks.transpose(2, 1, 0))  # the column slots b
        return blocks

    def residuals(self, v_full: np.ndarray) -> np.ndarray:
        """Element residuals, (T, slots): the explicit gradient before its
        scatter.  At an inverted configuration ``stress`` raises
        ``BarrierError``."""
        G = self._gather(self.dofmap.gather(v_full))
        return self._contract_first(self.stress(G))

    def residuals_fd(self, v_full: np.ndarray) -> np.ndarray:
        """The central-difference estimate of ``residuals(v_full)``, from
        central differences of the density on the gathered G: 4 (scalar)
        or 8 (vector) density evaluations at any degree."""
        G = self._gather(self.dofmap.gather(v_full))
        return self._contract_first(self._central(self.density, G))

    def assemble_gradient(self, residuals: np.ndarray) -> np.ndarray:
        """The explicit gradient of element residuals, one entry per DOF."""
        return self.dofmap.scatter(residuals) - self.b_full

    def gradient(self, v_full: np.ndarray) -> np.ndarray:
        return self.assemble_gradient(self.residuals(v_full))

    def element_hessians(self, v_full: np.ndarray) -> np.ndarray:
        """Element blocks from central differences of the stress on the
        gathered G: 4 (scalar) or 8 (vector) stress evaluations at any
        degree.  The load term is linear and drops out."""
        G = self._gather(self.dofmap.gather(v_full))
        return self._contract_second(self._central(self.stress, G))

    def element_hessians_fd(self, v_full: np.ndarray) -> np.ndarray:
        """Element blocks from pointwise second differences of the density.

        At every quadrature point, entry i of G moves by its step h_i from
        :func:`hpmin.fd.hessian_steps`.  The second derivative of W in G is
        the central (W(+i) - 2 W + W(-i)) / h_i^2 on the diagonal and the
        central mixed (W(+i+j) - W(+i-j) - W(-i+j) + W(-i-j)) / (4 h_i h_j)
        off it (Nocedal & Wright, 2nd ed., section 8.1): 1 + 2 n + 2 n (n - 1)
        density evaluations for the n = 2 x components entries of G, 9 for
        a scalar model and 33 for a vector one.  A non-finite density
        raises ``BarrierError``.
        """
        G = self._gather(self.dofmap.gather(v_full))
        h = hessian_steps(G.reshape(-1, *G.shape[2:]))
        n = h.shape[0]
        probe = partial(self._probe, self.density, G, h)
        d2 = np.empty((n, *h.shape))
        w = probe()
        for i in range(n):
            d2[i, i] = (probe((i, 1.0)) - 2.0 * w + probe((i, -1.0))) / h[i] ** 2
            for j in range(i + 1, n):
                d2[i, j] = d2[j, i] = (
                    probe((i, 1.0), (j, 1.0)) - probe((i, 1.0), (j, -1.0))
                    - probe((i, -1.0), (j, 1.0)) + probe((i, -1.0), (j, -1.0))
                ) / (4.0 * h[i] * h[j])
        return self._contract_second(d2.reshape(*G.shape[:2], *G.shape))


def _frobenius2(G: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of G at every quadrature point.

    A reduction over the leading axis adds the entries' squares one after
    the other, in the order of G's entries.
    """
    return np.add.reduce((G * G).reshape(-1, *G.shape[2:]), axis=0)


# signs that turn G[::-1, ::-1] into the cofactor matrix of a 2x2 G
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 2, 1, 1)


def _det(G: np.ndarray) -> np.ndarray:
    """det F at every quadrature point of a 2-component G."""
    return G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]


class PLaplaceModel(_ModelBase):
    """Power-law diffusion energy (1/alpha) integral |grad v|^alpha - integral f v."""

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap,
                 alpha: float, f: float):
        # alpha > 1 for a unique minimizer; from alpha = 1024 on, 2 ** alpha
        # overflows, so a gradient of size 2 would have no finite density
        if not 1.0 < alpha < 1024.0:
            raise ValueError(f"alpha must lie in (1, 1024) for a unique "
                             f"minimizer with a finite density, got {alpha}")
        if dofmap.components != 1:
            raise ValueError("scalar model needs a 1-component DofMap")
        super().__init__(geometry, dofmap, f)
        self.alpha = float(alpha)

    def density(self, G: np.ndarray) -> np.ndarray:
        """(1/alpha) |grad v|^alpha."""
        return _frobenius2(G) ** (self.alpha / 2.0) / self.alpha

    def stress(self, G: np.ndarray) -> np.ndarray:
        """|grad v|^(alpha-2) grad v."""
        norm2 = _frobenius2(G)
        # the analytic limit at grad v = 0 is 0 for every alpha > 1: the
        # base 1 put there multiplies G = 0, so no 0 ** negative is taken
        return np.where(norm2 > 0.0, norm2, 1.0) ** ((self.alpha - 2.0) / 2.0) * G


class NeoHookeModel(_ModelBase):
    """Compressible Neo-Hookean stored energy over deformation coefficients."""

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap,
                 c1: float, d1: float, f):
        if not (0.0 < c1 < np.inf and 0.0 < d1 < np.inf):
            raise ValueError(f"material constants c1, d1 must be positive and "
                             f"finite, got {c1}, {d1}")
        if dofmap.components != 2:
            raise ValueError("elasticity model needs a 2-component DofMap")
        super().__init__(geometry, dofmap, f)
        self.c1 = float(c1)
        self.d1 = float(d1)

    @classmethod
    def from_young_poisson(cls, geometry, dofmap, young: float, poisson: float, f):
        """Standard identification C1 = mu/2, D1 = K/2 from (E, nu)."""
        if not 0.0 < young < np.inf:
            raise ValueError(f"Young's modulus E must be positive and finite, "
                             f"got {young}")
        if not -1.0 < poisson < 0.5:
            raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {poisson}")
        mu = young / (2.0 * (1.0 + poisson))
        bulk = young / (3.0 * (1.0 - 2.0 * poisson))
        return cls(geometry, dofmap, c1=mu / 2.0, d1=bulk / 2.0, f=f)

    def gradfield(self, v_full: np.ndarray) -> DeformationField:
        """Deformation gradient F at all quadrature points."""
        G = self._gather(self.dofmap.gather(v_full))
        return DeformationField(*G.reshape(4, *G.shape[2:]))

    def density(self, G: np.ndarray) -> np.ndarray:
        """Pointwise stored energy, +inf where the deformation inverts."""
        det = _det(G)
        dens = np.full(det.shape, np.inf)
        ok = det > 0.0
        det_ok = det[ok]
        dens[ok] = (self.c1 * (_frobenius2(G)[ok] - 2.0 - 2.0 * np.log(det_ok))
                    + self.d1 * (det_ok - 1.0) ** 2)
        return dens

    def max_step(self, v_full: np.ndarray, s_full: np.ndarray) -> float:
        """Smallest t > 0 with det F(v + t s) = 0 at some quadrature point,
        or inf if there is none.

        At each point det F(v + t s) = det F + t b + t^2 det S with
        b = F00 S11 + F11 S00 - F01 S10 - F10 S01, and det F > 0 at an
        admissible v.  With q = -(b + sign(b) sqrt(b^2 - 4 det S det F)) / 2
        the roots are q / det S and det F / q, free of cancellation: for
        b < 0 the smaller positive root is det F / q (also when det S = 0),
        for b >= 0 a positive root exists only when det S < 0, and it is
        q / det S.  A negative discriminant leaves no real root.
        """
        F = self._gather(self.dofmap.gather(v_full))
        S = self._gather(self.dofmap.gather(s_full))
        a, c = _det(S), _det(F)
        b = (F[0, 0] * S[1, 1] + F[1, 1] * S[0, 0]
             - F[0, 1] * S[1, 0] - F[1, 0] * S[0, 1])
        disc = b * b - 4.0 * a * c
        root = np.sqrt(np.maximum(disc, 0.0))
        q = -0.5 * (b + np.where(b < 0.0, -root, root))
        t = np.full(c.shape, np.inf)
        down = (b < 0.0) & (disc >= 0.0)
        t[down] = c[down] / q[down]
        flip = (b >= 0.0) & (a < 0.0)
        t[flip] = q[flip] / a[flip]
        return float(t.min(initial=np.inf))

    def stress(self, G: np.ndarray) -> np.ndarray:
        """First Piola stress P = 2 C1 (F - F^{-T}) + 2 D1 (det F - 1) det F F^{-T}."""
        det = _det(G)
        if det.min(initial=np.inf) <= 0.0:
            raise BarrierError("gradient requested at an inverted configuration")
        coef = (2.0 * self.d1 * (det - 1.0) * det - 2.0 * self.c1) / det
        # det F F^{-T} is the cofactor matrix [[f22, -f21], [-f12, f11]]
        return 2.0 * self.c1 * G + coef * (G[::-1, ::-1] * _COFACTOR_SIGNS)
