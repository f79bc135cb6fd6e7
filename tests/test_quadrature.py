import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from pmlwave.quadrature import (gauss_legendre_rule, gauss_lobatto_nodes,
                                lagrange_derivs_at, lagrange_values_at,
                                tensor_basis_tables)

from oracles import dlag, lag


@pytest.mark.parametrize("n", range(1, 17))
def test_gl_rule_exactness(n):
    # Degree 2n-1 exactness; odd monomials integrate to zero by symmetry.
    rule = gauss_legendre_rule(n)
    for k in range(2 * n):
        approx = np.sum(rule.weights * rule.nodes**k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        if exact == 0.0:
            assert abs(approx) < 1e-13
        else:
            assert abs(approx - exact) <= 1e-13 * abs(exact)


def test_gl_rule_bounds():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)
    with pytest.raises(ValueError):
        gauss_legendre_rule(17)


def test_gll_known_values():
    assert np.allclose(gauss_lobatto_nodes(1), [-1.0, 1.0])
    assert np.allclose(gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0])
    c = np.sqrt(1.0 / 5.0)
    assert np.allclose(gauss_lobatto_nodes(3), [-1.0, -c, c, 1.0], atol=1e-14)
    c4 = np.sqrt(3.0 / 7.0)
    assert np.allclose(gauss_lobatto_nodes(4), [-1.0, -c4, 0.0, c4, 1.0], atol=1e-14)


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_rule_exactness(p):
    # With the Lobatto weights 2 / (p (p+1) P_p(x_i)^2) the p+1 nodes integrate every
    # polynomial of degree <= 2p-1 exactly, which pins the interior nodes to the roots of P_p'.
    nodes = gauss_lobatto_nodes(p)
    weights = 2.0 / (p * (p + 1) * npleg.legval(nodes, [0] * p + [1]) ** 2)
    for k in range(2 * p):
        approx = np.sum(weights * nodes**k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(approx - exact) <= 1e-14
    assert np.allclose(nodes, -nodes[::-1], atol=1e-14)  # symmetric
    assert np.all(np.diff(nodes) > 0)


def test_lagrange_cardinal_property():
    nodes = gauss_lobatto_nodes(4)
    V = lagrange_values_at(nodes, nodes)
    assert np.allclose(V, np.eye(5), atol=1e-13)


def test_lagrange_input_checks():
    with pytest.raises(ValueError, match="distinct"):
        lagrange_values_at(np.array([0.0, 0.0, 1.0]), 0.5)
    with pytest.raises(ValueError, match="distinct"):
        lagrange_derivs_at(np.array([-1.0, 1.0, -1.0]), 0.5)


@settings(deadline=None, max_examples=50)
@given(x=st.floats(-1.0, 1.0), p=st.integers(1, 6))
def test_partition_of_unity(x, p):
    nodes = gauss_lobatto_nodes(p)
    vals = lagrange_values_at(nodes, x)
    ders = lagrange_derivs_at(nodes, x)
    assert vals.shape == ders.shape == (p + 1, 1)
    assert abs(vals.sum() - 1.0) < 1e-12
    assert abs(ders.sum()) < 1e-10


def test_lagrange_derivative_vs_fd():
    nodes = gauss_lobatto_nodes(3)
    xs = np.linspace(-0.9, 0.9, 7)
    eps = 1e-6
    fd = (lagrange_values_at(nodes, xs + eps) - lagrange_values_at(nodes, xs - eps)) / (2 * eps)
    assert np.allclose(lagrange_derivs_at(nodes, xs), fd, atol=1e-8)


@pytest.mark.parametrize("p", range(1, 9))
def test_lagrange_tables_match_product_formulas(p):
    nodes = gauss_lobatto_nodes(p)
    xs = np.random.default_rng(p).uniform(-1.0, 1.0, 11)
    vals = lagrange_values_at(nodes, xs)
    ders = lagrange_derivs_at(nodes, xs)
    vals_ref = np.array([[lag(nodes, j, x) for x in xs] for j in range(p + 1)])
    ders_ref = np.array([[dlag(nodes, j, x) for x in xs] for j in range(p + 1)])
    assert np.allclose(vals, vals_ref, atol=1e-14, rtol=0)
    assert np.allclose(ders, ders_ref, atol=1e-13, rtol=0)  # |L_j'| reaches ~17 at p = 7


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_tensor_tables_layout(p):
    basis = tensor_basis_tables(p)
    n1 = p + 1
    assert basis.val2d.shape == (n1 * n1, n1 * n1)
    assert abs(basis.w2d.sum() - 4.0) < 1e-13
    # local index n = j*(p+1)+i, quad index q = b*(p+1)+a, xi fastest
    for j in range(n1):
        for i in range(n1):
            for b in range(n1):
                for a in range(n1):
                    n = j * n1 + i
                    q = b * n1 + a
                    expect = basis.val1d[j, b] * basis.val1d[i, a]
                    assert abs(basis.val2d[n, q] - expect) < 1e-14
                    expect_dxi = basis.val1d[j, b] * basis.der1d[i, a]
                    assert abs(basis.dxi2d[n, q] - expect_dxi) < 1e-13


def test_tensor_tables_interpolation_is_invertible():
    for p in (1, 2, 3):
        basis = tensor_basis_tables(p)
        c = np.linalg.cond(basis.val2d)
        assert c < 1e3  # point evaluation at the quadrature points is well posed


def test_basis_order_caps():
    with pytest.raises(ValueError):
        tensor_basis_tables(0)
    with pytest.raises(ValueError):
        tensor_basis_tables(9)
