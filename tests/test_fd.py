"""Finite-difference gradients, coloring, and sparse Hessian estimation."""

import numpy as np
import pytest
import scipy.sparse as sp

from hpmin.basis import tabulate
from hpmin.dofmap import (
    DirichletSpec,
    SparsityPattern,
    build_dofmap,
    expand_solution,
    sparsity_pattern,
)
from hpmin.energy import BarrierError, NeoHookeModel, PLaplaceModel, identity_deformation
from hpmin.fd import gradient_central_local, greedy_coloring, hessian_fd
from hpmin.mesh import geometry_factors, make_lshape, make_perforated_square, make_rect
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.quadrature import rule_for_degree
from oracles import free_index, gradient_central, physical_derivatives

RNG = np.random.default_rng(20240514)


def _pattern_from_dense(mask: np.ndarray) -> SparsityPattern:
    rows, cols = np.nonzero(mask)
    order = np.lexsort((cols, rows))
    return SparsityPattern(n=mask.shape[0], rows=rows[order], cols=cols[order])


def _plaplace_model(p=2, alpha=3.0, f=-10.0, level=0):
    mesh = make_lshape(level)
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, dirichlet=DirichletSpec(("boundary",), 0.0))
    return PLaplaceModel(geo, dm, alpha=alpha, f=f)


def test_gradient_central_quadratic_exact():
    n = 12
    A = RNG.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    b = RNG.standard_normal(n)
    energy = lambda v: 0.5 * v @ A @ v - b @ v
    v = RNG.standard_normal(n)
    np.testing.assert_allclose(gradient_central(energy, v), A @ v - b,
                               rtol=1e-9, atol=1e-9)


def test_gradient_central_constant_energy():
    v = RNG.standard_normal(7)
    np.testing.assert_array_equal(gradient_central(lambda _: 3.5, v), 0.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_local_gradient_matches_explicit(p):
    model = _plaplace_model(p=p)
    v = RNG.standard_normal(model.dofmap.n_dofs)
    g_fd = gradient_central_local(model, v)
    g = model.gradient(v)
    assert np.max(np.abs(g_fd - g)) / np.max(np.abs(g)) < 1e-6


def test_local_gradient_equals_naive_path():
    # the locality optimization must reproduce the same differencing done
    # without it (re-evaluating every element density at each probe)
    model = _plaplace_model()
    v = RNG.standard_normal(model.dofmap.n_dofs)
    dofs = model.dofmap.free_dofs
    fast = gradient_central_local(model, v, dofs=dofs)
    naive = np.empty(dofs.size)
    for out, i in enumerate(dofs):
        hi = 1e-6 * max(1.0, abs(v[i]))
        up = v.copy(); up[i] += hi
        dn = v.copy(); dn[i] -= hi
        diff = model.element_energies(up) - model.element_energies(dn)
        naive[out] = diff.sum() / (2.0 * hi) - model.b_full[i]
    assert np.max(np.abs(fast - naive)) <= 1e-13 * max(1.0, np.max(np.abs(naive)))


def test_local_gradient_close_to_full_energy_differencing():
    # against total-energy probes the agreement is limited by cancellation
    # of the O(1) energy at step 1e-6, roughly eps * |J| / (2h)
    model = _plaplace_model()
    v = RNG.standard_normal(model.dofmap.n_dofs)
    dofs = model.dofmap.free_dofs
    fast = gradient_central_local(model, v, dofs=dofs)
    naive = gradient_central(model.energy, v, dofs=dofs)
    assert np.max(np.abs(fast - naive)) <= 1e-7 * max(1.0, np.max(np.abs(naive)))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_local_gradient_vector_model(p):
    mesh = make_rect(3, 3)
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    dm = build_dofmap(mesh, p, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=2.0, f=(-1.0, 0.5))
    v = identity_deformation(dm) + 0.01 * RNG.standard_normal(dm.n_dofs)
    g_fd = gradient_central_local(model, v)
    g = model.gradient(v)
    assert np.max(np.abs(g_fd - g)) / np.max(np.abs(g)) < 1e-6


@pytest.mark.parametrize("components", [1, 2])
def test_local_gradient_of_shuffled_subset(components):
    # each requested dof sums its element differences in the same order
    # whatever else is requested, so a subset is bit-identical to the full run
    rng = np.random.default_rng(3)
    mesh = make_rect(3, 2)
    rule = rule_for_degree(3)
    geo = geometry_factors(mesh, rule, tabulate(3, rule.points))
    dm = build_dofmap(mesh, 3, components=components)
    if components == 1:
        model = PLaplaceModel(geo, dm, alpha=3.0, f=-10.0)
        v = rng.standard_normal(dm.n_dofs)
    else:
        model = NeoHookeModel(geo, dm, c1=1.0, d1=2.0, f=(-1.0, 0.5))
        v = identity_deformation(dm) + 0.01 * rng.standard_normal(dm.n_dofs)
    full = gradient_central_local(model, v)
    dofs = rng.permutation(dm.n_dofs)[: dm.n_dofs // 3]
    np.testing.assert_array_equal(gradient_central_local(model, v, dofs=dofs),
                                  full[dofs])
    with pytest.raises(ValueError, match="repeated"):
        gradient_central_local(model, v, dofs=np.r_[dofs, dofs[:1]])


def test_barrier_propagates():
    mesh = make_rect(1, 1)
    rule = rule_for_degree(1)
    geo = geometry_factors(mesh, rule, tabulate(1, rule.points))
    dm = build_dofmap(mesh, 1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    v[:dm.n_p] *= -1.0
    with pytest.raises(BarrierError):
        gradient_central_local(model, v)
    with pytest.raises(BarrierError):
        gradient_central(model.energy, v)


def test_fd_error_scales_quadratically():
    model = _plaplace_model()
    v = 0.5 + 0.1 * RNG.standard_normal(model.dofmap.n_dofs)
    g = model.gradient(v)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        g_fd = gradient_central_local(model, v, h=h)
        errs.append(np.max(np.abs(g_fd - g)))
    order = np.log10(errs[0] / errs[1]), np.log10(errs[1] / errs[2])
    assert min(order) >= 1.8


def test_coloring_diagonal_pattern():
    colored = greedy_coloring(_pattern_from_dense(np.eye(9, dtype=bool)))
    assert colored.n_groups == 1


def test_coloring_dense_pattern():
    colored = greedy_coloring(_pattern_from_dense(np.ones((6, 6), dtype=bool)))
    assert colored.n_groups == 6
    assert sorted(colored.groups.tolist()) == list(range(6))


def _assert_valid_distance2(colored):
    # brute force: same-group columns may not share any row
    dense = colored.pattern.to_csr().toarray() > 0
    n = dense.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if colored.groups[i] == colored.groups[j]:
                assert not np.any(dense[:, i] & dense[:, j])


def test_coloring_valid_on_fem_pattern():
    model = _plaplace_model()
    pat = sparsity_pattern(model.dofmap)
    colored = greedy_coloring(pat)
    assert colored.n_groups <= 25
    _assert_valid_distance2(colored)


def test_coloring_valid_p1_pattern():
    dm = build_dofmap(make_lshape(1), p=1, dirichlet=DirichletSpec(("boundary",), 0.0))
    colored = greedy_coloring(sparsity_pattern(dm))
    assert colored.n_groups <= 25
    _assert_valid_distance2(colored)


def _quadratic_with_pattern(n):
    # SPD matrix with banded sparsity
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = 4.0 + 0.1 * i
        if i + 1 < n:
            A[i, i + 1] = A[i + 1, i] = -1.0
        if i + 3 < n:
            A[i, i + 3] = A[i + 3, i] = 0.5
    return A


def test_hessian_fd_recovers_quadratic():
    n = 14
    A = _quadratic_with_pattern(n)
    colored = greedy_coloring(_pattern_from_dense(A != 0))
    grad = lambda v: A @ v
    v = RNG.standard_normal(n)
    H = hessian_fd(grad, v, colored).toarray()
    assert np.max(np.abs(H - A)) / np.max(np.abs(A)) < 1e-6
    np.testing.assert_allclose(H, H.T, atol=0)
    np.linalg.cholesky(H)  # SPD preserved


def test_hessian_fd_matches_assembled_stiffness():
    # alpha = 2 is the linear problem: Hessian == Galerkin stiffness matrix
    model = _plaplace_model(p=1, alpha=2.0, f=-10.0, level=1)
    dm, geo = model.dofmap, model.geometry
    n = dm.n_free

    K = np.zeros((n, n))
    fi = free_index(dm)
    dphi_x, dphi_y = physical_derivatives(geo)
    for t in range(dm.mesh.n_elems):
        dofs = fi[dm.elems2dofs[t]]
        ke = np.einsum("q,qa,qb->ab", geo.wdetj[t], dphi_x[t], dphi_x[t])
        ke += np.einsum("q,qa,qb->ab", geo.wdetj[t], dphi_y[t], dphi_y[t])
        for a in range(4):
            for b in range(4):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    K[dofs[a], dofs[b]] += ke[a, b]

    def grad_free(v_free):
        return model.gradient(expand_solution(dm, v_free))[dm.free_dofs]

    colored = greedy_coloring(sparsity_pattern(dm))
    v = RNG.standard_normal(n)
    H = hessian_fd(grad_free, v, colored).toarray()
    assert np.max(np.abs(H - K)) / np.max(np.abs(K)) < 1e-5


def test_hessian_fd_discards_outside_pattern():
    # a sub-pattern restricts where entries may appear (aliasing of the
    # dropped couplings into pattern entries is inherent to grouped FD)
    n = 8
    A = _quadratic_with_pattern(n)
    tri = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    colored = greedy_coloring(_pattern_from_dense(tri))
    H = hessian_fd(lambda v: A @ v, np.zeros(n), colored).toarray()
    assert np.all(H[~tri] == 0.0)
    np.testing.assert_allclose(H, H.T, atol=0)


def _hessian_fd_coo_oracle(grad, v, colored, h=1e-6):
    """Forward differences assembled through COO and a sparse H + H^T."""
    pattern = colored.pattern
    g0 = grad(v)
    steps = h * np.maximum(1.0, np.abs(v))
    diffs = np.empty((colored.n_groups, pattern.n))
    for group in range(colored.n_groups):
        members = colored.groups == group
        probe = v.copy()
        probe[members] += steps[members]
        diffs[group] = grad(probe) - g0
    data = diffs[colored.groups[pattern.cols], pattern.rows] / steps[pattern.cols]
    H = sp.csr_matrix((data, (pattern.rows, pattern.cols)),
                      shape=(pattern.n, pattern.n))
    return ((H + H.T) * 0.5).tocsr()


@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_hessian_fd_csr_assembly_matches_coo_oracle(problem):
    if problem == "hyper":
        fe, model = neohooke_problem(make_perforated_square(1), p=2, young=2e8,
                                     poisson=0.3, f=(-3.5e7, -3.5e7))
        v = fe.x0 + 1e-3 * RNG.standard_normal(fe.x0.size)
    else:
        fe, model = plaplace_problem(make_lshape(2), p=2, alpha=3.0, f=-10.0)
        v = RNG.standard_normal(fe.x0.size)
    colored = greedy_coloring(fe.pattern)
    H = hessian_fd(fe.gradient, v, colored)
    oracle = _hessian_fd_coo_oracle(fe.gradient, v, colored)
    assert H.has_sorted_indices
    assert (H != H.T).nnz == 0
    np.testing.assert_array_equal(H.toarray(), oracle.toarray())
    x = RNG.standard_normal(v.size)
    np.testing.assert_array_equal(H @ x, oracle @ x)


def test_coloring_rejects_asymmetric_pattern():
    upper = np.triu(np.ones((5, 5), dtype=bool))
    with pytest.raises(ValueError, match="symmetric"):
        greedy_coloring(_pattern_from_dense(upper))


def _coloring_oracle(pattern):
    """Natural-order greedy distance-2 coloring, one neighbour list at a time."""
    adj = pattern.to_csr()
    indptr, indices = adj.indptr, adj.indices
    groups = -np.ones(pattern.n, dtype=np.int64)
    for i in range(pattern.n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        two_hop = np.concatenate([indices[indptr[k]:indptr[k + 1]] for k in nbrs])
        used = groups[two_hop]
        used = set(used[used >= 0].tolist())
        color = 0
        while color in used:
            color += 1
        groups[i] = color
    return groups


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_coloring_matches_neighbour_loop_oracle(problem, p):
    if problem == "hyper":
        fe, _ = neohooke_problem(make_perforated_square(1), p=p, young=2e8,
                                 poisson=0.3, f=(-3.5e7, -3.5e7))
    else:
        fe, _ = plaplace_problem(make_lshape(2), p=p, alpha=3.0, f=-10.0)
    colored = greedy_coloring(fe.pattern)
    oracle = _coloring_oracle(fe.pattern)
    np.testing.assert_array_equal(colored.groups, oracle)
    assert colored.n_groups == oracle.max() + 1


def test_coloring_empty_pattern():
    empty = np.zeros(0, dtype=np.int64)
    colored = greedy_coloring(SparsityPattern(n=0, rows=empty, cols=empty))
    assert colored.n_groups == 0
    assert colored.groups.size == 0
