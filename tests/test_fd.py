"""Finite-difference gradients, coloring, and sparse Hessian estimation."""

import numpy as np
import pytest
import scipy.sparse as sp

import hpmin.energy
import hpmin.fd
import hpmin.solver
from hpmin.dofmap import DirichletSpec, build_dofmap, expand_solution, sparsity_pattern
from hpmin.energy import BarrierError, NeoHookeModel, identity_deformation
from hpmin.fd import ColoredPattern, greedy_coloring, hessian_fd, slot_pattern
from hpmin.mesh import make_lshape
from hpmin.problems import plaplace_problem
from hpmin.solver import TrOptions, minimize
from oracles import (
    block_evaluations,
    central_residuals,
    check_fd_hessian_is_the_stiffness,
    count_copies,
    element_hessians_from_stress,
    fe_space,
    free_index,
    g_size,
    gradient_central,
    make_rect,
    model_problem,
    probe_batches,
    residuals_fd_plain,
    slot_pattern_per_slot,
)

RNG = np.random.default_rng(20240514)


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


def test_central_gradient_close_to_full_energy_differencing():
    # against total-energy probes the agreement is limited by cancellation
    # of the O(1) energy at step 1e-6, roughly eps * |J| / (2h)
    model = model_problem("plaplace", 2, level=0)[1]
    v = RNG.standard_normal(model.dofmap.n_dofs)
    dofs = model.dofmap.free_dofs
    fast = model.assemble_gradient(model.residuals_fd(v))[dofs]
    naive = gradient_central(model.energy, v, dofs=dofs)
    assert np.max(np.abs(fast - naive)) <= 1e-7 * max(1.0, np.max(np.abs(naive)))


def test_barrier_propagates():
    geo, dm = fe_space(make_rect(1, 1), 1, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=1.0, f=(0.0, 0.0))
    v = identity_deformation(dm)
    v[:dm.n_p] *= -1.0
    with pytest.raises(BarrierError):
        model.residuals_fd(v)
    with pytest.raises(BarrierError):
        gradient_central(model.energy, v)


def test_fd_error_scales_quadratically(monkeypatch):
    model = model_problem("plaplace", 2, level=0)[1]
    v = 0.5 + 0.1 * RNG.standard_normal(model.dofmap.n_dofs)
    g = model.gradient(v)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        monkeypatch.setattr(hpmin.fd, "FD_STEP", h)
        g_fd = model.assemble_gradient(model.residuals_fd(v))
        errs.append(np.max(np.abs(g_fd - g)))
    order = np.log10(errs[0] / errs[1]), np.log10(errs[1] / errs[2])
    assert min(order) >= 1.8


@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_problem_gradients_are_the_free_part_of_the_full_ones(problem):
    # both gradients of a problem go through one free-DOF restriction
    rng = np.random.default_rng(7)
    fe, model = model_problem(problem, 3)
    if problem == "hyper":
        v_free = fe.x0 + 1e-3 * rng.standard_normal(fe.x0.size)
    else:
        v_free = rng.standard_normal(fe.x0.size)
    dm = model.dofmap
    v_full = expand_solution(dm, v_free)
    np.testing.assert_array_equal(
        fe.gradient_fd(v_free),
        model.assemble_gradient(model.residuals_fd(v_full))[dm.free_dofs])
    np.testing.assert_array_equal(fe.gradient(v_free),
                                  model.gradient(v_full)[dm.free_dofs])


def test_coloring_diagonal_pattern():
    colored = greedy_coloring(sp.csr_matrix(np.eye(9, dtype=bool)))
    assert colored.n_groups == 1


def test_coloring_dense_pattern():
    colored = greedy_coloring(sp.csr_matrix(np.ones((6, 6), dtype=bool)))
    assert colored.n_groups == 6
    assert sorted(colored.groups.tolist()) == list(range(6))


def _assert_valid_distance2(colored):
    # same-group columns may not share any row: each row meets each group
    # in at most one column
    pattern = colored.pattern
    n = pattern.shape[0]
    member_of = sp.csr_matrix((np.ones(n), (np.arange(n), colored.groups)),
                              shape=(n, colored.n_groups))
    meets = pattern.astype(float) @ member_of
    assert np.all(meets.data <= 1.0)


def test_coloring_valid_on_fem_pattern():
    colored = greedy_coloring(model_problem("plaplace", 2, level=0)[0].pattern)
    assert colored.n_groups <= 25
    _assert_valid_distance2(colored)


def test_coloring_valid_p1_pattern():
    dm = build_dofmap(make_lshape(1), p=1, dirichlet=DirichletSpec(g=0.0))
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
    colored = greedy_coloring(sp.csr_matrix(A != 0))
    grad = lambda v: A @ v
    v = RNG.standard_normal(n)
    H = hessian_fd(grad, v, colored, g0=grad(v)).toarray()
    assert np.max(np.abs(H - A)) / np.max(np.abs(A)) < 1e-6
    np.testing.assert_allclose(H, H.T, atol=0)
    np.linalg.cholesky(H)  # SPD preserved


def test_hessian_fd_matches_assembled_stiffness():
    # alpha = 2 is the linear problem: Hessian == Galerkin stiffness matrix,
    # from colored gradient differences and from the problem's element slots
    K, v, fe = check_fd_hessian_is_the_stiffness(RNG)
    H = hessian_fd(fe.element_hessians, v,
                   slot_pattern(fe.pattern, fe.element_dofs), g0=None).toarray()
    assert np.max(np.abs(H - K)) / np.max(np.abs(K)) < 1e-5


def test_hessian_fd_discards_outside_pattern():
    # a sub-pattern restricts where entries may appear (aliasing of the
    # dropped couplings into pattern entries is inherent to grouped FD)
    n = 8
    A = _quadratic_with_pattern(n)
    tri = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    colored = greedy_coloring(sp.csr_matrix(tri))
    grad = lambda v: A @ v
    v = np.zeros(n)
    H = hessian_fd(grad, v, colored, g0=grad(v)).toarray()
    assert np.all(H[~tri] == 0.0)
    np.testing.assert_allclose(H, H.T, atol=0)


def _hessian_fd_coo_oracle(grad, v, colored, h=1e-6):
    """Forward differences assembled through COO and a sparse H + H^T."""
    pattern = colored.pattern
    n = pattern.shape[0]
    rows, cols = pattern.nonzero()
    g0 = grad(v)
    steps = h * np.maximum(1.0, np.abs(v))
    diffs = np.empty((colored.n_groups, n))
    for group in range(colored.n_groups):
        members = colored.groups == group
        probe = v.copy()
        probe[members] += steps[members]
        diffs[group] = grad(probe) - g0
    data = diffs[colored.groups[cols], rows] / steps[cols]
    H = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return ((H + H.T) * 0.5).tocsr()


@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_hessian_fd_csr_assembly_matches_coo_oracle(problem):
    fe = model_problem(problem, 2, level=1 if problem == "hyper" else 2)[0]
    scale = 1e-3 if problem == "hyper" else 1.0
    v = fe.x0 + scale * RNG.standard_normal(fe.x0.size)
    colored = greedy_coloring(fe.pattern)
    H = hessian_fd(fe.gradient, v, colored, g0=fe.gradient(v))
    oracle = _hessian_fd_coo_oracle(fe.gradient, v, colored)
    assert H.has_sorted_indices
    assert (H != H.T).nnz == 0
    np.testing.assert_array_equal(H.toarray(), oracle.toarray())
    x = RNG.standard_normal(v.size)
    np.testing.assert_array_equal(H @ x, oracle @ x)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_slot_hessian_matches_colored_hessian(problem, p):
    # the element-slot Hessian against colored forward differences of the
    # problem's gradient, at a random admissible point.  The colored
    # estimate carries its own forward-difference error, measured 3.2e-7
    # ... 4.1e-7 relative on plaplace and 1.3e-6 ... 1.5e-6 on hyper; the
    # blocks themselves match central stress differences to 1e-12
    # (test_slot_hessian_fd_matches_stress_differences)
    fe = model_problem(problem, p, level=1)[0]
    rng = np.random.default_rng(10 + p)
    scale = 1e-3 if problem == "hyper" else 1.0
    v = fe.x0 + scale * rng.standard_normal(fe.x0.size)
    colored = hessian_fd(fe.gradient, v, greedy_coloring(fe.pattern),
                         g0=fe.gradient(v))
    H = hessian_fd(fe.element_hessians, v,
                   slot_pattern(fe.pattern, fe.element_dofs), g0=None)
    for name in ("indices", "indptr"):
        structure = getattr(fe.pattern, name)
        np.testing.assert_array_equal(getattr(H, name), getattr(colored, name))
        assert np.shares_memory(getattr(H, name), structure)
    assert (H != H.T).nnz == 0
    rel = np.max(np.abs(H.data - colored.data)) / np.max(np.abs(colored.data))
    assert rel <= 5e-6


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_slot_hessian_fd_matches_colored_hessian(problem, p):
    # pointwise second differences of the density against two other
    # estimates of the same Hessian: the explicit-mode element slots, the
    # accuracy oracle, and colored forward differences of the
    # central-difference gradient.  Measured against the explicit slots
    # 9.5e-9 ... 1.1e-7 relative on plaplace and 3.7e-9 ... 5.7e-9 on
    # hyper; against the colored differences 5.0e-5 ... 1.1e-4 on
    # plaplace, the round-off of the central gradient over its step, and
    # 1.7e-6 ... 2.7e-6 on hyper.  The plaplace point
    # keeps |v| < 1: past it a colored probe recomputes its steps
    # FD_STEP * max(1, |v_j|) at the moved point, which the element slots
    # do not
    fe = model_problem(problem, p, level=1)[0]
    rng = np.random.default_rng(20 + p)
    if problem == "hyper":
        v, bound = fe.x0 + 1e-3 * rng.standard_normal(fe.x0.size), 5e-6
    else:
        v, bound = rng.uniform(-0.9, 0.9, fe.x0.size), 1e-3
    slots = slot_pattern(fe.pattern, fe.element_dofs)
    H = hessian_fd(fe.element_hessians_fd, v, slots, g0=None)
    for name in ("indices", "indptr"):
        structure = getattr(fe.pattern, name)
        np.testing.assert_array_equal(getattr(H, name), structure)
        assert np.shares_memory(getattr(H, name), structure)
    assert (H != H.T).nnz == 0
    for reference in (
            hessian_fd(fe.element_hessians, v, slots, g0=None),
            hessian_fd(fe.gradient_fd, v, greedy_coloring(fe.pattern),
                       g0=fe.gradient_fd(v))):
        rel = (np.max(np.abs(H.data - reference.data))
               / np.max(np.abs(reference.data)))
        assert rel <= bound


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_slot_hessian_fd_matches_stress_differences(problem, p):
    # the pointwise second differences of the density, contracted into
    # element blocks, against central differences of the stress at the
    # same points contracted with the physical shape-function derivatives.
    # Measured: 1.2e-7 ... 1.2e-6 relative on plaplace, where the density's
    # third derivative jumps at G = 0, and 4.1e-9 ... 7.4e-9 on hyper.
    # The explicit blocks take the same stress differences and contract
    # them like the density's: 2e-16 ... 7e-16 apart
    fe, model = model_problem(problem, p, level=1)
    bound = 3e-8 if problem == "hyper" else 3e-6
    v = _random_start(problem, fe, np.random.default_rng(60 + p))
    v_full = expand_solution(model.dofmap, v)
    oracle = element_hessians_from_stress(model, v_full)
    for blocks, within in ((model.element_hessians_fd(v_full), bound),
                           (model.element_hessians(v_full), 1e-12)):
        assert blocks.shape == oracle.shape
        assert np.max(np.abs(blocks - oracle)) / np.max(np.abs(oracle)) <= within


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_slot_hessian_fd_probes_each_pair_once(problem, p, monkeypatch):
    # the central blocks evaluate the density once at G and then on copies
    # of G with, at every quadrature point, each entry moved by its step
    # h = hessian_steps(G) up and down, and each unordered pair of entries
    # moved in the four sign combinations, each once: 1 + 2 n + 2 n (n - 1)
    # copies of G for the n entries of G, 9 on plaplace and 33 on hyper at
    # every degree.  The central gradient differences the density, and the
    # explicit blocks the stress, on copies of G with each entry moved by
    # h = difference_steps(G) up and down, each once: 2 n copies, 4 on
    # plaplace and 8 on hyper.  A call of the pointwise function evaluates
    # a batch of copies side by side along the element axis, ceil(copies /
    # batch) calls in all.  No call changes the bits of the full vector
    fe, model, v, _ = _case(problem, p)
    dm = model.dofmap
    v_full = expand_solution(dm, v)
    bits = v_full.tobytes()
    G = model._gather(dm.gather(v_full))
    flat = G.reshape(-1, *G.shape[2:])
    n = flat.shape[0]
    singles = [((i, s),) for i in range(n) for s in (1, -1)]
    pairs = [((i, s), (j, t)) for i in range(n) for j in range(i + 1, n)
             for s in (1, -1) for t in (1, -1)]
    for call, kernel, steps, expected, count in (
            ("element_hessians_fd", "density", hpmin.fd.hessian_steps,
             [()] + singles + pairs, {"plaplace": 9, "hyper": 33}),
            ("residuals_fd", "density", hpmin.fd.difference_steps, singles,
             {"plaplace": 4, "hyper": 8}),
            ("element_hessians", "stress", hpmin.fd.difference_steps, singles,
             {"plaplace": 4, "hyper": 8})):
        h = steps(flat)
        probes, calls = [], []

        def recorded(moved, evaluate=getattr(model, kernel)):
            copies = moved.reshape(n, -1, *flat.shape[1:])
            calls.append(copies.shape[1])
            probes.extend(copies[:, k].copy() for k in range(copies.shape[1]))
            return evaluate(moved)

        monkeypatch.setattr(model, kernel, recorded)
        getattr(model, call)(v_full)
        monkeypatch.undo()
        assert v_full.tobytes() == bits
        assert len(probes) == len(expected) == count[problem]
        assert calls == probe_batches(model, count[problem])
        moves = []
        for moved in probes:
            move = []
            for i in range(n):
                if np.array_equal(moved[i], flat[i] + h[i]):
                    move.append((i, 1))
                elif np.array_equal(moved[i], flat[i] - h[i]):
                    move.append((i, -1))
                else:
                    np.testing.assert_array_equal(moved[i], flat[i])
            moves.append(tuple(move))
        assert sorted(moves) == sorted(expected)


def test_slot_hessian_fd_raises_on_a_non_finite_energy(monkeypatch):
    # the density at G, and at every probe, must be finite.  The identity
    # scaled by s has G = s I, det F = s^2 at every point, and every entry
    # of G steps by h = HESSIAN_STEP: the probes keep det F > 0 at s = 2 h
    # and cross it at s = h / 2, where min det F = h^2 / 4 lies below the
    # probe step (the entry G_11 moved down has det F = -h^2 / 4).  With
    # two copies of G per density call, the probes span 17 calls
    model = model_problem("hyper", 2)[1]
    dm = model.dofmap
    monkeypatch.setattr(hpmin.energy, "PROBE_BATCH", 2 * g_size(model))
    evaluations = count_copies(model, "density", monkeypatch)
    # the mirror image inverts every element: W at G is +inf, and the
    # first call, G and its first probe, raises
    mirrored = identity_deformation(dm)
    mirrored[:dm.n_p] *= -1.0
    with pytest.raises(BarrierError):
        model.element_hessians_fd(mirrored)
    assert evaluations == [2]
    h = hpmin.fd.HESSIAN_STEP
    evaluations.clear()
    assert np.all(np.isfinite(
        model.element_hessians_fd(2.0 * h * identity_deformation(dm))))
    assert evaluations == probe_batches(model, 33) == [2] * 16 + [1]
    evaluations.clear()
    shrunk = 0.5 * h * identity_deformation(dm)
    assert 0.0 < model.gradfield(shrunk).det.min() < h
    with pytest.raises(BarrierError):
        model.element_hessians_fd(shrunk)
    assert len(evaluations) >= 2


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_probe_batches_change_no_bit(problem, p, monkeypatch):
    # the finite-difference derivatives have the same bits whether their
    # probes are evaluated one copy of G per call (the plain loop), three
    # copies per call (every set of 4, 8 or 33 probes split mid-set, and
    # a central pair split across two calls) or in the default batches
    _, model, v, _ = _case(problem, p)
    v_full = expand_solution(model.dofmap, v)
    names = ("element_hessians", "element_hessians_fd", "residuals_fd")
    results = []
    for batch in (1, 3 * g_size(model), hpmin.energy.PROBE_BATCH):
        with monkeypatch.context() as patch:
            patch.setattr(hpmin.energy, "PROBE_BATCH", batch)
            results.append([getattr(model, name)(v_full) for name in names])
    for other in results[1:]:
        for name, base, values in zip(names, results[0], other):
            assert np.array_equal(values, base), name


@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_slot_pattern_matches_the_per_slot_lookup(problem):
    # one sparse lookup for every slot pair of every element, fixed slots
    # included, against one lookup per column slot
    fe = model_problem(problem, 2)[0]
    assert np.any(fe.element_dofs < 0)
    slots = slot_pattern(fe.pattern, fe.element_dofs)
    oracle = slot_pattern_per_slot(fe.pattern, fe.element_dofs)
    assert slots.pattern is oracle.pattern
    np.testing.assert_array_equal(slots.positions, oracle.positions)
    np.testing.assert_array_equal(slots.transpose, oracle.transpose)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_gradient_fd_keeps_the_bits_of_a_plain_probe_loop(problem, p):
    # the problem's central-difference gradient, from pointwise differences
    # of the density in batches of copies of G, has the bits of the same
    # differences taken one copy per density call.  It is within 1e-8 of
    # the assembled central differences of the element energies, one slot
    # at a time: two estimates of one gradient
    fe, model = model_problem(problem, p)
    dm = model.dofmap
    v = _random_start(problem, fe, np.random.default_rng(40 + p))
    v_full = expand_solution(dm, v)
    gradient = fe.gradient_fd(v)
    plain = model.assemble_gradient(residuals_fd_plain(model, v_full))
    np.testing.assert_array_equal(gradient, plain[dm.free_dofs])
    loop = model.assemble_gradient(central_residuals(model, v_full))[dm.free_dofs]
    assert np.max(np.abs(gradient - loop)) <= 1e-8 * np.max(np.abs(loop))


def test_central_diff_hessian_does_not_see_the_load(monkeypatch):
    # the colored Hessian differences two gradients that both carry -b, so
    # a load of 1e160 swamps every curvature and leaves it exactly 0; the
    # element energies carry no load, so the Hessian minimize builds at
    # the zero start is the one of f = -10, bit for bit
    built = []

    def recording(*args, **kwargs):
        built.append(hessian_fd(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hpmin.solver, "hessian_fd", recording)
    for f in (-10.0, 1e160):
        fe, _ = plaplace_problem(make_lshape(0), p=2, alpha=3.0, f=f)
        minimize(fe, TrOptions(max_iters=1, gradient_mode="central_diff"))
    small, huge = built
    np.testing.assert_array_equal(huge.data, small.data)
    assert np.max(np.abs(small.data)) > 1e-6
    colored = hessian_fd(fe.gradient_fd, fe.x0, greedy_coloring(fe.pattern),
                         g0=fe.gradient_fd(fe.x0))
    assert not np.any(colored.data)


def test_slot_pattern_of_fixed_dofs_and_foreign_patterns():
    # the top row of a 3 x 1 strip with the bottom fixed: every term of a
    # bottom node is dropped, and a pattern missing a coupled pair raises
    dm = build_dofmap(make_rect(3, 1), p=1,
                      dirichlet=DirichletSpec(on=lambda x, y: y == 0.0, g=0.0))
    pattern = sparsity_pattern(dm)
    fi = free_index(dm)
    dofs = fi[dm.elems2dofs]
    layout = slot_pattern(pattern, dofs)
    slots = dofs.shape[1]
    positions = layout.positions.reshape(slots, -1, slots)
    dropped = (dofs < 0)[None, :, :] | (dofs < 0).T[:, :, None]
    assert dropped.any() and not dropped.all()
    assert np.all(positions[dropped] == pattern.nnz)
    # term [b, e, a] lands on the entry (row dofs[e, a], column dofs[e, b])
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    kept = positions[~dropped]
    np.testing.assert_array_equal(
        rows[kept], np.broadcast_to(dofs[None, :, :], positions.shape)[~dropped])
    np.testing.assert_array_equal(
        pattern.indices[kept],
        np.broadcast_to(dofs.T[:, :, None], positions.shape)[~dropped])
    mirror = layout.transpose
    np.testing.assert_array_equal(rows[mirror], pattern.indices)
    np.testing.assert_array_equal(pattern.indices[mirror], rows)
    with pytest.raises(ValueError, match="pair of DOFs"):
        slot_pattern(sp.identity(pattern.shape[0], dtype=bool, format="csr"), dofs)


def test_slot_pattern_with_no_free_dof():
    # one p = 1 element with its whole boundary fixed: a 0 x 0 pattern has
    # no row for a fixed slot to read, and every term goes to the dropped bin
    dm = build_dofmap(make_rect(1, 1), p=1, dirichlet=DirichletSpec(g=0.0))
    pattern = sparsity_pattern(dm)
    dofs = free_index(dm)[dm.elems2dofs]
    assert pattern.shape == (0, 0) and np.all(dofs < 0)
    layout = slot_pattern(pattern, dofs)
    np.testing.assert_array_equal(layout.positions, np.zeros(dofs.size * 4))
    assert layout.transpose.size == 0
    H = hessian_fd(lambda v: np.ones((4, 1, 4)), np.zeros(0), layout, g0=None)
    assert H.shape == (0, 0) and H.nnz == 0


def test_coloring_rejects_asymmetric_pattern():
    upper = np.triu(np.ones((5, 5), dtype=bool))
    with pytest.raises(ValueError, match="symmetric"):
        greedy_coloring(sp.csr_matrix(upper))


def _csr(indices, indptr, n):
    """An n x n CSR structure taken as given: neither sorted nor summed."""
    return sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                         shape=(n, n))


@pytest.mark.parametrize("pattern", [
    sp.csr_matrix(np.ones((3, 4), dtype=bool)),
    _csr([1, 0, 0, 1], [0, 2, 4], 2),
    _csr([0, 1, 1, 0, 1], [0, 3, 5], 2),
], ids=["non_square", "unsorted", "duplicate"])
def test_coloring_rejects_non_canonical_pattern(pattern):
    with pytest.raises(ValueError, match="square CSR matrix with sorted"):
        greedy_coloring(pattern)


def test_coloring_counts_stored_zero_entries():
    # a stored entry is a coupling whatever its value: on the path 0-1-2
    # all three DOFs are within two hops of each other
    path = np.abs(np.subtract.outer(np.arange(3), np.arange(3))) <= 1
    ones = sp.csr_matrix(path)
    zeros = ones.copy()
    zeros.data[[1, 2]] = False  # entries (0, 1) and (1, 0)
    assert zeros.nnz == ones.nnz
    np.testing.assert_array_equal(greedy_coloring(zeros).groups,
                                  greedy_coloring(ones).groups)
    np.testing.assert_array_equal(greedy_coloring(ones).groups, [0, 1, 2])


def _coloring_oracle(pattern, order):
    """Greedy distance-2 coloring in ``order``, one neighbour list at a time."""
    indptr, indices = pattern.indptr, pattern.indices
    n = pattern.shape[0]
    groups = -np.ones(n, dtype=np.int64)
    for i in order:
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
    fe = model_problem(problem, p, level=1 if problem == "hyper" else 2)[0]
    colored = greedy_coloring(fe.pattern)
    oracle = _coloring_oracle(fe.pattern, np.arange(fe.x0.size))
    np.testing.assert_array_equal(colored.groups, oracle)
    assert colored.n_groups == oracle.max() + 1
    _assert_valid_distance2(colored)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_hessian_fd_bits_do_not_depend_on_the_coloring(problem, p):
    # row i of a probe sees only the one group member coupled to it, so any
    # valid distance-2 coloring gives the same bits
    fe = model_problem(problem, p, level=1)[0]
    rng = np.random.default_rng(p)
    scale = 1e-3 if problem == "hyper" else 1.0
    v = fe.x0 + scale * rng.standard_normal(fe.x0.size)
    colored = greedy_coloring(fe.pattern)
    n = fe.x0.size
    others = []
    # one DOF per group, and a greedy coloring in reversed order
    for groups in (np.arange(n), _coloring_oracle(fe.pattern, np.arange(n)[::-1])):
        other = ColoredPattern(fe.pattern, groups, int(groups.max()) + 1,
                               colored.transpose)
        assert not np.array_equal(other.groups, colored.groups)
        _assert_valid_distance2(other)
        others.append(other)
    grads = [fe.gradient] + ([fe.gradient_fd] if problem == "plaplace" else [])
    for grad in grads:
        g0 = grad(v)
        H = hessian_fd(grad, v, colored, g0=g0).data
        for other in others:
            np.testing.assert_array_equal(hessian_fd(grad, v, other, g0=g0).data, H)


def test_hessian_shares_a_read_only_structure():
    # the top row of a 3 x 1 strip with the bottom fixed: a 4 x 4
    # tridiagonal pattern; a diagonal quadratic gives zero off-diagonal
    # estimates, which eliminate_zeros would drop from the shared arrays
    dm = build_dofmap(make_rect(3, 1), p=1,
                      dirichlet=DirichletSpec(on=lambda x, y: y == 0.0, g=0.0))
    pattern = sparsity_pattern(dm)
    np.testing.assert_array_equal(pattern.indices, [0, 1, 0, 1, 2, 1, 2, 3, 2, 3])
    np.testing.assert_array_equal(pattern.indptr, [0, 2, 5, 8, 10])
    d = np.arange(1.0, 5.0)
    grad = lambda v: d * v
    v = np.zeros(4)
    H = hessian_fd(grad, v, greedy_coloring(pattern), g0=grad(v))
    np.testing.assert_allclose(H.toarray(), np.diag(d), rtol=1e-9, atol=0)
    with pytest.raises(ValueError):
        H.eliminate_zeros()
    np.testing.assert_array_equal(pattern.indices, [0, 1, 0, 1, 2, 1, 2, 3, 2, 3])
    np.testing.assert_array_equal(pattern.indptr, [0, 2, 5, 8, 10])
    # shared, not copied: no Hessian pays for its own index arrays
    assert np.shares_memory(H.indices, pattern.indices)
    assert np.shares_memory(H.indptr, pattern.indptr)


def test_coloring_empty_pattern():
    colored = greedy_coloring(sp.csr_matrix((0, 0), dtype=bool))
    assert colored.n_groups == 0
    assert colored.groups.size == 0


def _random_start(problem, fe, rng):
    """A random admissible free vector near the problem's start."""
    scale = 1e-3 if problem == "hyper" else 1.0
    return fe.x0 + scale * rng.standard_normal(fe.x0.size)


def _case(problem, p):
    """The problem and model of the hyperelastic case (perforated square,
    level 0) or the plaplace case (L-shape, level 1), a random admissible
    free vector, and the positions in it of one color group of the
    pattern."""
    fe, model = model_problem(problem, p)
    v = _random_start(problem, fe, np.random.default_rng(p))
    group = np.flatnonzero(greedy_coloring(fe.pattern).groups == 0)
    return fe, model, v, group


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_central_residuals_match_the_explicit_ones_slot_by_slot(problem, p):
    # both gradient modes assemble element residuals in one signed local
    # layout; the central-difference estimate matches the explicit one
    # entry by entry before any scatter
    _, model, v, _ = _case(problem, p)
    v = expand_solution(model.dofmap, v)
    explicit = model.residuals(v)
    central = model.residuals_fd(v)
    assert central.shape == explicit.shape
    rel = np.max(np.abs(central - explicit)) / np.max(np.abs(explicit))
    assert rel <= 1e-8


# per mode: the problem's gradient and its element blocks
_CALLBACKS = {"explicit": ("gradient", "element_hessians"),
              "central": ("gradient_fd", "element_hessians_fd")}


@pytest.mark.parametrize("gradient", ["explicit", "central"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_repeated_gradients_have_the_bits_of_a_fresh_model(problem, p, gradient,
                                                           monkeypatch):
    # a problem's gradient keeps no state between calls: call after call,
    # with gradients of both modes in between, it gives the bits of a
    # fresh problem's, and it takes a new step at once
    fe, _, v, group = _case(problem, p)
    name = _CALLBACKS[gradient][0]

    def fresh(w):
        return getattr(model_problem(problem, p)[0], name)(w)

    base = getattr(fe, name)(v)
    one, moved_group = v.copy(), v.copy()
    one[v.size // 2] += 1e-4
    moved_group[group] += 1e-4
    every = v + 1e-5 * np.random.default_rng(0).standard_normal(v.size)
    for w in (v.copy(), one, moved_group, every, v):
        fe.gradient(w)
        fe.gradient_fd(w)
        np.testing.assert_array_equal(getattr(fe, name)(w), fresh(w))
        if problem == "hyper":
            # a gradient that raises changes nothing either
            inverted = w.copy()
            inverted[0] += 10.0
            with pytest.raises(BarrierError):
                getattr(fe, name)(inverted)
    np.testing.assert_array_equal(getattr(fe, name)(v), base)
    # a new step at the same v
    monkeypatch.setattr(hpmin.fd, "FD_STEP", 1e-5)
    new = getattr(fe, name)(v)
    np.testing.assert_array_equal(new, fresh(v))
    if gradient == "central":
        assert not np.array_equal(new, base)


def _counted_blocks(problem, p, mode, seed, monkeypatch):
    """The problem, with the pointwise function of the mode's blocks
    counted; its gradient of the mode; a random admissible free vector
    drawn with the seed; a build of the blocks that checks them against a
    fresh problem's and returns the copies of G that each of its pointwise
    calls evaluated; and those of a build's batches of probes."""
    fe, model = model_problem(problem, p)
    gradient_name, blocks_name = _CALLBACKS[mode]
    kernel, probes = block_evaluations(mode, model.dofmap.components)
    evaluations = count_copies(model, kernel, monkeypatch)

    def evaluations_of_blocks(v):
        evaluations.clear()
        H = getattr(fe, blocks_name)(v)
        copies = list(evaluations)
        fresh = getattr(model_problem(problem, p)[0], blocks_name)(v)
        np.testing.assert_array_equal(H, fresh)
        return copies

    v = _random_start(problem, fe, np.random.default_rng(seed))
    return (fe, getattr(fe, gradient_name), v, evaluations_of_blocks,
            probe_batches(model, probes))


@pytest.mark.parametrize("mode", ["explicit", "central"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_hessian_reuses_the_gradients_element_evaluation(problem, p, mode,
                                                         monkeypatch):
    # named after a gradient-to-Hessian record that is gone: the blocks of
    # neither mode take anything from their gradient.  Warm or cold, before
    # or after a gradient at the same point or another, they are the same
    # batches of probes at the point, 4 or 8 copies of G through the
    # stress or 9 or 33 through the density, with the bits of a fresh
    # problem's blocks, and they take new steps at once
    fe, gradient, v, evaluations_of_blocks, probes = _counted_blocks(
        problem, p, mode, 30 + p, monkeypatch)
    blocks = getattr(fe, _CALLBACKS[mode][1])
    w = v.copy()
    w[w.size // 2] += 1e-4
    assert evaluations_of_blocks(v) == probes
    gradient(v)
    assert evaluations_of_blocks(v) == probes
    gradient(v)
    assert evaluations_of_blocks(w) == probes
    gradient(w)
    assert evaluations_of_blocks(w) == probes
    old_blocks = blocks(v)
    monkeypatch.setattr(hpmin.fd, "FD_STEP", 1e-5)
    monkeypatch.setattr(hpmin.fd, "HESSIAN_STEP", 1e-3)
    gradient(v)
    assert evaluations_of_blocks(v) == probes
    assert not np.array_equal(blocks(v), old_blocks)
    if problem == "hyper":
        # a gradient that raises changes nothing either
        inverted = v.copy()
        inverted[0] += 10.0
        with pytest.raises(BarrierError):
            gradient(inverted)
        assert evaluations_of_blocks(v) == probes


@pytest.mark.parametrize("mode", ["explicit", "central"])
@pytest.mark.parametrize("problem", ["hyper", "plaplace"])
def test_each_mode_keeps_its_own_record(problem, mode, monkeypatch):
    # named after the per-mode records that are gone: a gradient of either
    # mode at the same point, between a gradient and its blocks, leaves the
    # blocks as they are: the same batches of probes, with the bits of a
    # fresh problem's blocks
    fe, gradient, v, evaluations_of_blocks, probes = _counted_blocks(
        problem, 2, mode, 50, monkeypatch)
    other = _CALLBACKS["central" if mode == "explicit" else "explicit"][0]
    gradient(v)
    getattr(fe, other)(v)
    assert evaluations_of_blocks(v) == probes


_RESIDUALS = {"explicit": "residuals", "central": "residuals_fd"}


@pytest.mark.parametrize("gradient", ["explicit", "central"])
def test_barrier_probe_leaves_the_base_bits(gradient, monkeypatch):
    # the mode's element residuals, its gradient before the scatter
    _, model, v, group = _case("hyper", 2)
    dm = model.dofmap
    residuals = getattr(model, _RESIDUALS[gradient])
    v = expand_solution(dm, v)
    base = residuals(v)
    # one free node pushed through its neighbours, and the mirror image
    inverted_one = v.copy()
    inverted_one[dm.free_dofs[0]] += 10.0
    mirrored = v.copy()
    mirrored[:dm.n_p] *= -1.0
    for w in (inverted_one, mirrored):
        with pytest.raises(BarrierError):
            residuals(w)
        np.testing.assert_array_equal(residuals(v), base)
    moved_group = v.copy()
    moved_group[dm.free_dofs[group]] += 1e-4
    fresh = getattr(model_problem("hyper", 2)[1], _RESIDUALS[gradient])
    np.testing.assert_array_equal(residuals(moved_group), fresh(moved_group))
    # every finite-difference entry point of the mode, on both models,
    # probes copies of G: it leaves the full vector with its bits, whether
    # it returns or a call after the first raises (a stress call from
    # BarrierError, a density call on +inf).  Two copies of G per call
    # spread the probes over several calls
    for problem in ("hyper", "plaplace"):
        _, model, v, _ = _case(problem, 2)
        v = expand_solution(model.dofmap, v)
        if gradient == "explicit":
            bad = BarrierError("probe crossed det F <= 0")
            calls = [(model.element_hessians, "stress")]
        else:
            bad = np.inf
            calls = [(model.residuals_fd, "density"),
                     (model.element_hessians_fd, "density")]
        bits = v.tobytes()
        for call, kernel in calls:
            call(v)
            assert v.tobytes() == bits
            probes = []

            def failing(probe, evaluate=getattr(model, kernel)):
                probes.append(probe)
                out = evaluate(probe)
                if len(probes) < 2:
                    return out
                if isinstance(bad, Exception):
                    raise bad
                return np.full_like(out, bad)

            with monkeypatch.context() as patch:
                patch.setattr(hpmin.energy, "PROBE_BATCH", 2 * g_size(model))
                patch.setattr(model, kernel, failing)
                with pytest.raises(BarrierError):
                    call(v)
            two_copies = 2 * model.geometry.n_elems
            assert [probe.shape[2] for probe in probes] == [two_copies] * 2
            assert v.tobytes() == bits
