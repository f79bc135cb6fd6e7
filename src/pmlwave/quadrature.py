"""1D Gauss rules and tensor-product Lagrange bases on the reference square.

Nodes, weights and the Lagrange basis come from numpy.polynomial.legendre:
leggauss for the Gauss-Legendre rule (Golub-Welsch eigenvalues with one
Newton polish), legroots of P_p' for the interior Gauss-Lobatto nodes, and
the inverse Legendre-Vandermonde matrix of the nodes for the cardinal
functions, evaluated by legval and legder. The (p+1)-point Gauss-Legendre
rule paired with Q_p is deliberate: with exactly (p+1)^2 points per element
the quadrature-point values determine a unique Q_p polynomial, and that
property is load-bearing for the discontinuous-space algebra downstream.
Do not swap in a finer rule here.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

MAX_ORDER = 8          # basis order cap; higher orders raise conditioning questions
MAX_QUAD_POINTS = 16


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss-Legendre rule on [-1, 1]: n points, exact through degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class BasisQp:
    """Tensor-product Lagrange basis of order p with its quadrature tables.

    1D Lagrange functions sit on the p+1 Gauss-Lobatto nodes; integration
    uses the (p+1)-point Gauss-Legendre rule. 2D indices are row-major with
    the xi index fastest: basis n = j*(p+1)+i <-> L_i(xi)*L_j(eta), and
    quadrature point q = b*(p+1)+a <-> (xi_a, eta_b).

    Tables:
      val1d[j, q]   L_j at 1D quadrature node q
      der1d[j, q]   L_j' at 1D quadrature node q
      val2d[n, q]   2D basis n at 2D quadrature point q
      dxi2d, deta2d reference-coordinate gradients at the 2D points
      w2d[q]        tensor quadrature weight
    """

    p: int
    gll_nodes: np.ndarray
    quad: QuadRule1D
    val1d: np.ndarray
    der1d: np.ndarray
    val2d: np.ndarray
    dxi2d: np.ndarray
    deta2d: np.ndarray
    w2d: np.ndarray

    @property
    def n_loc(self) -> int:
        """Local DOF count (p+1)^2."""
        return (self.p + 1) ** 2


def gauss_legendre_rule(n: int) -> QuadRule1D:
    """Gauss-Legendre rule with n points on [-1, 1], from numpy's leggauss."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_QUAD_POINTS:
        raise ValueError(f"quadrature point count must be in 1..{MAX_QUAD_POINTS}, got {n}")
    return QuadRule1D(*npleg.leggauss(n))


def gauss_lobatto_nodes(p: int) -> np.ndarray:
    """The p+1 Gauss-Lobatto nodes on [-1, 1]: +-1 and the roots of P_p'.

    legroots leaves the roots up to 8 ulp off at p >= 6; one Newton step, as
    leggauss takes, brings them to within 1 ulp. The interior set is
    symmetrized so rounding cannot break the +-x pairing.
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= MAX_ORDER:
        raise ValueError(f"basis order must be in 1..{MAX_ORDER}, got {p}")
    dp = npleg.legder([0] * p + [1])
    x = np.sort(npleg.legroots(dp))
    x -= npleg.legval(x, dp) / npleg.legval(x, npleg.legder(dp))
    x = 0.5 * (x - x[::-1])
    return np.concatenate(([-1.0], x, [1.0]))


def _cardinal_coefficients(nodes) -> np.ndarray:
    """Legendre coefficients of the cardinal functions of nodes: column j is L_j."""
    nodes = np.asarray(nodes, dtype=float)
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    return np.linalg.inv(npleg.legvander(nodes, len(nodes) - 1))


def lagrange_values_at(nodes, x) -> np.ndarray:
    """Matrix V[j, i] = L_j(x_i) for all cardinal functions at all points x."""
    return npleg.legval(np.atleast_1d(np.asarray(x, dtype=float)),
                        _cardinal_coefficients(nodes))


def lagrange_derivs_at(nodes, x) -> np.ndarray:
    """Matrix D[j, i] = L_j'(x_i)."""
    return npleg.legval(np.atleast_1d(np.asarray(x, dtype=float)),
                        npleg.legder(_cardinal_coefficients(nodes)))


def tensor_basis_tables(p: int) -> BasisQp:
    """Build the order-p basis with all tables precomputed.

    Assembly must never re-evaluate Lagrange products; everything needed at
    the (p+1)^2 quadrature points lives here.
    """
    gll = gauss_lobatto_nodes(p)  # refuses p outside 1..MAX_ORDER
    quad = gauss_legendre_rule(p + 1)
    val1d = lagrange_values_at(gll, quad.nodes)
    der1d = lagrange_derivs_at(gll, quad.nodes)
    # kron(A, B)[j*(p+1)+i, b*(p+1)+a] = A[j, b] * B[i, a]: y-factor slow, x fast.
    val2d = np.kron(val1d, val1d)
    dxi2d = np.kron(val1d, der1d)
    deta2d = np.kron(der1d, val1d)
    w2d = np.kron(quad.weights, quad.weights)
    return BasisQp(
        p=int(p),
        gll_nodes=gll,
        quad=quad,
        val1d=val1d,
        der1d=der1d,
        val2d=val2d,
        dxi2d=dxi2d,
        deta2d=deta2d,
        w2d=w2d,
    )
