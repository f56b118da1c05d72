"""Quadrature oracles: closed forms, Legendre roots and exactness checks."""

import numpy as np
import pytest

from hpmin.basis import legendre_table, tabulate
from hpmin.quadrature import rule_for_degree


def test_two_point_rule_closed_form():
    # p = 1: the nodes solve L_2(x) = 0, x = +-1/sqrt(3), with unit weights
    rule = rule_for_degree(1)
    s = 1 / np.sqrt(3)
    np.testing.assert_allclose(rule.points, [[-s, -s], [-s, s], [s, -s], [s, s]],
                               atol=1e-15)
    np.testing.assert_allclose(rule.weights, 1.0, atol=1e-15)


def test_three_point_rule_integrates_quartic():
    # p = 2 is exact to degree 5 per direction: x^4 over [-1, 1]^2 is 4/5
    rule = rule_for_degree(2)
    assert np.dot(rule.weights, rule.points[:, 0]**4) == pytest.approx(0.8, abs=1e-14)
    assert np.dot(rule.weights, rule.points[:, 1]**4) == pytest.approx(0.8, abs=1e-14)


@pytest.mark.parametrize("p", range(1, 9))
def test_exact_for_monomials(p):
    # closed form: int_{-1}^{1} x^a dx = 2 / (a + 1) for even a, 0 for odd a
    rule = rule_for_degree(p)
    x, y = rule.points.T
    exact = lambda a: 2.0 / (a + 1) if a % 2 == 0 else 0.0
    for a in range(2 * p + 2):
        for b in range(2 * p + 2):
            integral = np.dot(rule.weights, x**a * y**b)
            assert abs(integral - exact(a) * exact(b)) < 1e-14, (a, b)


@pytest.mark.parametrize("p", range(1, 17))
def test_against_numpy_leggauss(p):
    # the 1D rule under the tensor product (numpy's leggauss) checked
    # against hpmin's own Legendre recurrence: its nodes are the roots of
    # L_n, n = p + 1, and its weights are 2 / ((1 - x^2) L_n'(x)^2), with
    # (1 - x^2) L_n' = n (L_{n-1} - x L_n)
    n = p + 1
    rule = rule_for_degree(p)
    x = rule.points[::n, 0]
    w = np.sqrt(np.diag(rule.weights.reshape(n, n)))
    legendre = legendre_table(n, x)
    dval = n * (legendre[n - 1] - x * legendre[n]) / (1.0 - x * x)
    assert np.max(np.abs(legendre[n])) < 1e-14
    np.testing.assert_allclose(w, 2.0 / ((1.0 - x * x) * dval * dval), atol=2e-15)


def test_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        rule_for_degree(0)


@pytest.mark.parametrize("p,n_ip", [(1, 4), (2, 9), (4, 25)])
def test_tensor_rule_counts(p, n_ip):
    rule = rule_for_degree(p)
    assert rule.n_ip == n_ip
    assert abs(rule.weights.sum() - 4.0) < 1e-13
    assert np.all(rule.weights > 0)
    assert np.all(np.abs(rule.points) < 1.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_point_symmetry(p):
    rule = rule_for_degree(p)
    pts = {(round(x, 14), round(y, 14)): w for (x, y), w in zip(rule.points, rule.weights)}
    for (x, y), w in pts.items():
        for sx, sy in ((-x, y), (x, -y), (-x, -y)):
            assert pts[(round(sx, 14), round(sy, 14))] == pytest.approx(w, abs=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exact_for_shape_function_products(p):
    # oracle: a finer rule with 2p + 2 points per direction
    rule = rule_for_degree(p)
    fine = rule_for_degree(2 * p + 1)
    table = tabulate(p, rule.points)
    table_fine = tabulate(p, fine.points)
    ints = np.einsum("aq,bq,q->ab", table.values, table.values, rule.weights)
    ints_fine = np.einsum(
        "aq,bq,q->ab", table_fine.values, table_fine.values, fine.weights
    )
    assert np.max(np.abs(ints - ints_fine)) < 1e-12
