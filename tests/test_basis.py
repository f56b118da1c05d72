"""Reference-square shape functions: oracles and invariants."""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from hpmin.basis import (
    Bubble,
    EdgeMode,
    Nodal,
    _family,
    legendre_table,
    shape_kinds,
    tabulate,
)
from hpmin.quadrature import rule_for_degree
from oracles import (
    check_bubble_traces,
    check_edge_parity,
    check_edge_traces,
    check_partition_of_unity,
    n_basis_functions,
    shape_table,
)

RNG = np.random.default_rng(20240511)


def test_legendre_low_degrees():
    table = legendre_table(2, [0.3, -0.5, 0.5])
    assert table.shape == (3, 3)
    assert table[0, 0] == 1.0
    assert table[1, 1] == -0.5
    # L_2(0.5) = (3 * 0.25 - 1) / 2
    assert table[2, 2] == pytest.approx(-0.125, abs=1e-15)
    assert np.array_equal(legendre_table(0, 0.3), [1.0])


def test_legendre_against_numpy():
    xs = RNG.uniform(-1.0, 1.0, size=40)
    table = legendre_table(11, xs)
    for k in range(0, 12):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        np.testing.assert_allclose(
            table[k], npleg.legval(xs, coeffs), rtol=1e-13, atol=1e-13
        )


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_table(-1, 0.0)


# Rows 2..p of the 1D family are the kernels phi_2 ... phi_p.

def test_kernel_vanishes_at_endpoints():
    values, _ = _family(8, np.array([-1.0, 1.0]))
    assert np.max(np.abs(values[2:])) < 1e-14


def test_kernel_value_at_zero():
    # phi_2(0) = (L_2(0) - L_0(0)) / sqrt(6) = -(3/2)/sqrt(6) = -sqrt(6)/4
    values, derivs = _family(2, np.array([0.0]))
    assert values[2, 0] == pytest.approx(-np.sqrt(6.0) / 4.0, abs=1e-15)
    assert derivs[2, 0] == pytest.approx(0.0, abs=1e-15)


def test_kernel_parity():
    xs = RNG.uniform(-1.0, 1.0, size=20)
    plus, _ = _family(7, xs)
    minus, _ = _family(7, -xs)
    for k in range(2, 8):
        np.testing.assert_allclose(minus[k], (-1.0) ** k * plus[k], atol=1e-14)


def test_kernel_derivative_matches_fd():
    xs = RNG.uniform(-0.9, 0.9, size=15)
    h = 1e-6
    _, der = _family(7, xs)
    up, _ = _family(7, xs + h)
    dn, _ = _family(7, xs - h)
    for k in range(2, 8):
        np.testing.assert_allclose(der[k], (up[k] - dn[k]) / (2 * h),
                                   rtol=1e-7, atol=1e-9)


def test_basis_counts():
    # trunk-space oracle: enumerate (i, j) pairs with i, j >= 2, i + j <= p
    for p in range(1, 9):
        bubbles = sum(
            1 for i in range(2, p + 1) for j in range(2, p + 1) if i + j <= p
        )
        assert n_basis_functions(p) == 4 + 4 * (p - 1) + bubbles
        assert len(shape_kinds(p)) == n_basis_functions(p)
    assert n_basis_functions(1) == 4
    assert n_basis_functions(2) == 8
    assert n_basis_functions(4) == 17


def test_kind_ordering():
    kinds = shape_kinds(5)
    assert kinds[:4] == [Nodal(0), Nodal(1), Nodal(2), Nodal(3)]
    assert kinds[4:8] == [EdgeMode(s, 2) for s in range(4)]
    assert kinds[8:12] == [EdgeMode(s, 3) for s in range(4)]
    assert kinds[-3:] == [Bubble(2, 2), Bubble(2, 3), Bubble(3, 2)]


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_edge_trace_vanishes_on_other_edges(p):
    check_edge_traces(p)


@pytest.mark.parametrize("p", [4, 5, 6])
def test_bubble_trace_vanishes(p):
    check_bubble_traces(p)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_nodal_partition_of_unity(p):
    check_partition_of_unity(p)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_analytic_derivatives_match_fd(p):
    pts = RNG.uniform(-0.85, 0.85, size=(30, 2))
    h = 1e-6
    table = tabulate(p, pts)
    for axis, deriv in ((0, table.dxi), (1, table.deta)):
        step = np.zeros(2)
        step[axis] = h
        up = tabulate(p, pts + step).values
        dn = tabulate(p, pts - step).values
        fd = (up - dn) / (2 * h)
        scale = np.maximum(np.abs(deriv), 1.0)
        assert np.max(np.abs(deriv - fd) / scale) < 1e-7


def test_odd_edge_mode_flips_under_direction_reversal():
    # reversing the edge-local coordinate negates odd-degree edge values
    check_edge_parity(4, RNG.uniform(-1.0, 1.0, size=12))


def test_tabulate_rejects_bad_degree():
    with pytest.raises(ValueError):
        tabulate(0, [(0.0, 0.0)])


_GRID = np.array([(x, y) for y in np.linspace(-1.0, 1.0, 7)
                  for x in np.linspace(-1.0, 1.0, 7)])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_tabulate_matches_per_shape_oracle(p):
    # products of the 1D family reproduce the per-shape formulas exactly
    for points in (rule_for_degree(p).points, _GRID):
        table = tabulate(p, points)
        for got, want in zip((table.values, table.dxi, table.deta),
                             shape_table(p, points)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_nodal_rows_equal_degree_one_table(p):
    # geometry_factors reads the bilinear map off rows 0-3 of any degree
    for points in (rule_for_degree(p).points, _GRID):
        table, q1 = tabulate(p, points), tabulate(1, points)
        for got, want in ((table.values, q1.values), (table.dxi, q1.dxi),
                          (table.deta, q1.deta)):
            assert np.array_equal(got[:4], want)
