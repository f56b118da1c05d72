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

Each gradient mode has one element evaluation at a point: its element
residuals.  ``residuals`` gives the explicit ones, the gradient before
its scatter, and ``probe_energies`` their central-difference estimate in
the same signed local layout, from the element energies with one local
slot of every element moved by its DOF's step up and down, one slot at a
time; ``assemble_gradient`` scatters either into a gradient.  The
element blocks of a finite-difference Hessian come from
``element_hessians``, forward differences of the residuals one moved
slot at a time on the explicit residuals at the point as their base, or
from ``element_hessians_fd``, second differences of the density W(G)
taken pointwise on the gathered G and contracted like the stiffness of
a linear model: a fixed 9 (scalar) or 33 (vector) density evaluations,
whatever the degree.  The slot steps are those of
:func:`hpmin.fd.difference_steps` at the point, the pointwise ones those
of :func:`hpmin.fd.hessian_steps` at G.  Every probe evaluates a moved
copy, so no call changes its arguments; a model keeps no state between
calls, and every batched product runs over all elements.

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
        # products of reference derivatives d_b phi_m d_f phi_n at each
        # point, rows (b, f, point), columns (m, n): one matrix product with
        # it contracts pointwise second derivatives into element blocks
        m = self._ref.shape[1]
        self._ref_outer = np.einsum("bmq,fnq->bfqmn", self._ref,
                                    self._ref).reshape(-1, m * m)

    def _at_steps(self, v_full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed local coefficients of ``v_full`` and the signed local steps
        of :func:`hpmin.fd.difference_steps` there, both (T, slots).  The
        steps come from the gathered coefficients: |+-x| is exact, so they
        have the bits of the gathered steps of ``v_full``."""
        v_loc = self.dofmap.gather(v_full)
        return v_loc, self.dofmap.signs * difference_steps(v_loc)

    def _shifted(self, v_loc: np.ndarray, slot: int, shift: np.ndarray,
                 evaluate=None) -> np.ndarray:
        """``evaluate``, by default the element energies, of a copy of
        ``v_loc`` with ``shift`` added to ``slot`` of every element.  A
        non-finite element energy raises ``BarrierError``."""
        moved = v_loc.copy()
        moved[:, slot] += shift
        if evaluate is not None:
            return evaluate(moved)
        energies = self._element_energies(moved)
        if not np.all(np.isfinite(energies)):
            raise BarrierError("energy not finite at a finite-difference probe")
        return energies

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

    def _residuals(self, v_loc: np.ndarray) -> np.ndarray:
        """Derivatives of every element's density integral with respect to
        its signed local coefficients, in the layout of ``v_loc``."""
        G = self._gather(v_loc)
        # w |J| P J^{-T}: the stress against the reference directions
        Q = np.einsum("catq,abtq->cbtq", self.stress(G), self._w_jinv_t)
        r_loc = (Q @ self._ref_t).sum(axis=1)  # (components, T, m)
        return r_loc.transpose(1, 0, 2).reshape(G.shape[2], -1)

    def residuals(self, v_full: np.ndarray) -> np.ndarray:
        """Element residuals, (T, slots): the explicit gradient before its
        scatter.  At an inverted configuration ``stress`` raises
        ``BarrierError``."""
        return self._residuals(self.dofmap.gather(v_full))

    def assemble_gradient(self, residuals: np.ndarray) -> np.ndarray:
        """The explicit gradient of element residuals, one entry per DOF."""
        return self.dofmap.scatter(residuals) - self.b_full

    def gradient(self, v_full: np.ndarray) -> np.ndarray:
        return self.assemble_gradient(self.residuals(v_full))

    def probe_energies(self, v_full: np.ndarray) -> np.ndarray:
        """The central mode's element evaluation: the central-difference
        estimate of ``residuals(v_full)``, (T, slots).  With e_up and e_dn
        the element energies with slot s of every element moved by its
        signed step delta up and down, one slot at a time, the estimate is
        (e_up - e_dn) / (2 delta): 2 S batched energy evaluations for S
        slots.  A non-finite probe energy raises ``BarrierError``."""
        v_loc, deltas = self._at_steps(v_full)
        e_up, e_dn = np.empty((2, *v_loc.shape))
        for slot in range(v_loc.shape[1]):
            e_up[:, slot] = self._shifted(v_loc, slot, deltas[:, slot])
            e_dn[:, slot] = self._shifted(v_loc, slot, -deltas[:, slot])
        return (e_up - e_dn) / (2.0 * deltas)

    def element_hessians(self, v_full: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Forward differences of the element residuals, (slots, T, slots).

        Slot b of every element moves by its DOF's signed step, one slot at
        a time; entry [b, e, a] is (moved - base) sign_a / h_b, element e's
        share of the Hessian entry coupling the DOFs of its slots a (row)
        and b (column), with h_b = |delta_b|.  The load term is linear and
        drops out.  ``base`` is ``residuals(v_full)``: S batched residual
        evaluations for S slots.  A probe at an inverted configuration
        raises ``BarrierError`` from ``stress``.
        """
        v_loc, deltas = self._at_steps(v_full)
        moved = np.empty((v_loc.shape[1], *v_loc.shape))
        for slot in range(v_loc.shape[1]):
            moved[slot] = self._shifted(v_loc, slot, deltas[:, slot],
                                        evaluate=self._residuals)
        moved -= base
        moved *= self.dofmap.signs
        moved /= np.abs(deltas).T[:, :, None]
        return moved

    def element_hessians_fd(self, v_full: np.ndarray) -> np.ndarray:
        """``element_hessians`` from pointwise second differences of the
        density.

        At every quadrature point, entry i of G moves by its step h_i from
        :func:`hpmin.fd.hessian_steps`.  The second derivative of W in G is
        the central (W(+i) - 2 W + W(-i)) / h_i^2 on the diagonal and the
        central mixed (W(+i+j) - W(+i-j) - W(-i+j) + W(-i-j)) / (4 h_i h_j)
        off it (Nocedal & Wright, 2nd ed., section 8.1): 1 + 2 n + 2 n (n - 1)
        density evaluations for the n = 2 x components entries of G, 9 for
        a scalar model and 33 for a vector one.  Weighted by w |J| and mapped
        to the reference directions by J^{-T} on both sides, it is
        contracted with the products of the reference derivatives by one
        matrix product.  The blocks are averaged with their mirrors, so
        [b, e, a] equals [a, e, b] bit for bit, and carry the signs of both
        slots.  A non-finite density raises ``BarrierError``.
        """
        G = self._gather(self.dofmap.gather(v_full))
        components, _, n_elems, n_ip = G.shape
        flat = G.reshape(-1, n_elems, n_ip)
        n = flat.shape[0]
        h = hessian_steps(flat)

        def probe(*moves):
            moved = flat.copy()
            for i, sign in moves:
                moved[i] += sign * h[i]
            dens = self.density(moved.reshape(G.shape))
            if not np.all(np.isfinite(dens)):
                raise BarrierError("density not finite at a second-difference probe")
            return dens

        d2 = np.empty((n, n, n_elems, n_ip))
        w = probe()
        for i in range(n):
            d2[i, i] = (probe((i, 1.0)) - 2.0 * w + probe((i, -1.0))) / h[i] ** 2
            for j in range(i + 1, n):
                d2[i, j] = d2[j, i] = (
                    probe((i, 1.0), (j, 1.0)) - probe((i, 1.0), (j, -1.0))
                    - probe((i, -1.0), (j, 1.0)) + probe((i, -1.0), (j, -1.0))
                ) / (4.0 * h[i] * h[j])
        d2 = d2.reshape(components, 2, components, 2, n_elems, n_ip)
        # weighted by w |J| and mapped to the reference directions by
        # J^{-T} on both sides: rows (element, component, component),
        # columns (direction, direction, point)
        d2 = np.einsum("cadetq,eftq->cadftq", d2, self.geometry.jinv_t)
        d2 = np.einsum("abtq,cadftq->tcdbfq", self._w_jinv_t, d2, order="C")
        m = self._ref.shape[1]
        local = (d2.reshape(n_elems * components**2, -1) @ self._ref_outer
                 ).reshape(n_elems, components, components, m, m)
        # local[e, c, d, k, l] couples slot (c, k), row, and slot (d, l);
        # block [(d, l), e, (c, k)] is it plus its mirror
        n_slots = components * m
        blocks = np.empty((n_slots, n_elems, n_slots))
        np.add(local.transpose(2, 4, 0, 1, 3), local.transpose(1, 3, 0, 2, 4),
               out=blocks.reshape(components, m, n_elems, components, m))
        blocks *= 0.5 * self.dofmap.signs
        blocks *= self.dofmap.signs.T[:, :, None]
        return blocks


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
