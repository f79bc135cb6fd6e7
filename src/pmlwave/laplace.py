"""Laplace-domain verification bench.

For constant damping the auxiliary fields can be eliminated, leaving one
complex system in u alone:

    A(s) = s^2*Sx*Sy*M_u + (Sy/Sx)*K_x + (Sx/Sy)*K_y,    S_eta = 1 + d_eta/s,

with M_u the 1/kappa mass and K_eta the single-direction 1/rho stiffness.
This bench solves that system directly and checks the two provable facts at
desk scale: the energy inequality a*E_u^2 <= 2*E_u*E_f (constant damping)
and the L2 convergence order p+1 against a manufactured solution. The
discrete energies use the same (p+1)-point quadrature as assembly; only the
error measurement over-integrates.

The material is constant as well, so on the uniform grid every term is a
Kronecker product of the unit-weight 1D lattice mass and stiffness, in the
(y, x) node order: M_u = M_y (x) M_x / kappa, K_x = M_y (x) K_x1 / rho and
K_y = K_y1 (x) M_x / rho. No 2D matrix is formed: each operator applies to the
node lattice U through its 1D factors as small GEMMs, M_y U M_x^T / kappa for M_u.
The 1D generalized eigenbases V_x, V_y of the interior lattices diagonalize all
three at once, so A(s) is diagonal in V_y (x) V_x for every s (fast
diagonalization), and a solve is four GEMMs and one division. Every solve checks
its normwise backward error through the mass and stiffness factors. The same
eigenvalues give the sup of the energy ratio over all interior data in closed
form (interior_energy_bound).

Variable damping is rejected here on purpose: its growth-rate bound is not
available in computable form, so the bench would be asserting a constant it
cannot know. Variable material is rejected because it does not separate.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import (_coef_at_quad, assemble_load, element_blocks, lattice_eigenbases,
                       reference_mass)
from .errors import ConfigError, NumericalError
from .mesh import (DofMap, MaterialField, MeshQ, build_cartesian_mesh, constant_material,
                   dof_map, homogeneous_material)
from .pml import stretch
from .quadrature import BasisQp, gauss_legendre_rule, lagrange_values_at, tensor_basis_tables


@dataclass(frozen=True)
class ComplexSystem:
    """Reduced constant-damping system at one complex frequency, as 1D lattice factors.

    M_x, K_x1, M_y and K_y1 are the unit-weight 1D mass and stiffness of the full lattices.
    M_u (the raw 1/kappa mass, used by the discrete norms), K_x, K_y and the Dirichlet-
    eliminated A apply through them. V_x and V_y hold the M-orthonormal eigenvectors of
    (K_x1, M_x) and (K_y1, M_y) on the interior lattices, with zero rows at the boundary
    nodes, and lam_x and lam_y their eigenvalues. divisor holds A's eigenvalues
    a_ij = s^2 Sx Sy / kappa + ((Sy/Sx) lam_x[j] + (Sx/Sy) lam_y[i]) / rho.
    """

    s: complex
    d_x: float
    d_y: float
    mesh: MeshQ
    basis: BasisQp
    kappa: float              # the material, constant at every quadrature point
    rho: float
    dof_u: DofMap
    M_x: np.ndarray
    K_x1: np.ndarray
    M_y: np.ndarray
    K_y1: np.ndarray
    V_x: np.ndarray
    V_y: np.ndarray
    lam_x: np.ndarray
    lam_y: np.ndarray
    divisor: np.ndarray       # shape (lam_y.size, lam_x.size)
    norm_A: float = field(init=False)  # ||A||_inf, computed once per system

    def __post_init__(self):
        object.__setattr__(self, "norm_A", max(1.0, _max_row_sum(self._a_terms(), self.basis.p)))

    @property
    def S_x(self) -> complex:
        return stretch(self.s, self.d_x)

    @property
    def S_y(self) -> complex:
        return stretch(self.s, self.d_y)

    M_u = property(lambda self: _lattice_operator([(1.0 / self.kappa, self.M_y, self.M_x)]))
    K_x = property(lambda self: _lattice_operator([(1.0 / self.rho, self.M_y, self.K_x1)]))
    K_y = property(lambda self: _lattice_operator([(1.0 / self.rho, self.K_y1, self.M_x)]))
    A = property(lambda self: _lattice_operator(self._a_terms(), slice(1, -1)))

    def _a_terms(self):  # A(s) before elimination, as sum c L (x) R
        Sx, Sy = self.S_x, self.S_y
        return [(self.s * self.s * Sx * Sy / self.kappa, self.M_y, self.M_x),
                (Sy / Sx / self.rho, self.M_y, self.K_x1), (Sx / Sy / self.rho, self.K_y1, self.M_x)]


def _lattice_operator(terms, nodes=slice(None)):
    """sum c L (x) R, applied as sum c L U R^T to the (y, x) node lattice U in the rows and
    columns of nodes in both directions; every other row is the identity's."""
    # Imported on first use: scipy.sparse.linalg adds about 2 MB of resident memory to
    # a process, and a process can import this module without building any system.
    from scipy.sparse.linalg import LinearOperator

    shape, keep = (terms[0][1].shape[0], terms[0][2].shape[0]), (nodes, nodes)

    def matvec(u):
        U, out = u.reshape(shape), u.astype(complex).reshape(shape)
        out[keep] = sum(c * _sandwich(L[keep], U[keep], R[keep]) for c, L, R in terms)
        return out.ravel()

    return LinearOperator((shape[0] * shape[1],) * 2, matvec=matvec, dtype=complex)


def _sandwich(L, U, R):
    """L U R^T for real L and R, as real GEMMs also when U is complex."""
    if np.iscomplexobj(U):
        return _sandwich(L, U.real, R) + 1j * _sandwich(L, U.imag, R)
    return L @ U @ R.T


def _max_row_sum(terms, p: int) -> float:
    """Max row sum of |sum c L (x) R| over the interior rows and columns, exactly: a row's
    entries depend only on the band rows (offsets -p..p) of the Ls at its y node and of the
    Rs at its x node, so pairs of distinct band rows cover every row."""
    def distinct_bands(mats):
        rows = np.arange(mats[0].shape[0] - 2)[:, None]
        bands = np.hstack([np.pad(m[1:-1, 1:-1], p)[rows + p, rows + np.arange(2 * p + 1)]
                           for m in mats])
        distinct = {row.tobytes(): row for row in bands}
        return np.split(np.array(list(distinct.values())), len(mats), axis=1)

    ls, rs = distinct_bands([L for _, L, _ in terms]), distinct_bands([R for _, _, R in terms])
    sums = sum(c * l[:, None, :, None] * r[None, :, None, :]
               for (c, _, _), l, r in zip(terms, ls, rs))
    return float(np.abs(sums).sum(axis=(2, 3)).max())


def assemble_reduced(
    mesh: MeshQ,
    basis: BasisQp,
    material: MaterialField,
    s: complex,
    d_x: float,
    d_y: float,
) -> ComplexSystem:
    """A(s) for constant damping (d_x, d_y) and constant material, Dirichlet eliminated.

    With d = 0 this is exactly s^2*M_u + K.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"need Re(s) > 0, got s = {s}")
    if callable(d_x) or callable(d_y):
        raise ConfigError(
            "the reduced form supports spatially constant damping only; "
            "variable damping has no computable growth-rate bound here"
        )
    d_x = float(d_x)
    d_y = float(d_y)
    if d_x < 0 or d_y < 0:
        raise ValueError("damping must be nonnegative")
    coefs = constant_material(mesh, basis, material)
    if coefs is None:
        raise ConfigError(
            "the reduced form supports constant material only; kappa or rho varies "
            "between quadrature points, so A(s) is not diagonal in one 1D eigenbasis"
        )
    kappa, rho = coefs

    dof_u = dof_map(mesh, basis.p, "continuous")
    inner = slice(1, -1)  # the Dirichlet nodes are eliminated
    (M_x, K_x1, lam_x, V_x), (M_y, K_y1, lam_y, V_y) = lattice_eigenbases(basis, mesh, inner)
    Sx, Sy = stretch(s, d_x), stretch(s, d_y)
    divisor = s * s * Sx * Sy / kappa + ((Sy / Sx) * lam_x + (Sx / Sy) * lam_y[:, None]) / rho
    return ComplexSystem(s=s, d_x=d_x, d_y=d_y, mesh=mesh, basis=basis, kappa=kappa, rho=rho,
                         dof_u=dof_u, M_x=M_x, K_x1=K_x1, M_y=M_y, K_y1=K_y1,
                         V_x=V_x, V_y=V_y, lam_x=lam_x, lam_y=lam_y, divisor=divisor)


def solution_energy(system: ComplexSystem, u_hat: np.ndarray) -> float:
    """E_u = sqrt(|s|^2*||u||_{1/k}^2 + sum_eta |1/S_eta|^2 * u^H K_eta u)."""
    s = system.s
    e2 = abs(s) ** 2 * float(np.real(np.conj(u_hat) @ (system.M_u @ u_hat)))
    e2 += float(np.real(np.conj(u_hat) @ (system.K_x @ u_hat))) / abs(system.S_x) ** 2
    e2 += float(np.real(np.conj(u_hat) @ (system.K_y @ u_hat))) / abs(system.S_y) ** 2
    return float(np.sqrt(max(e2, 0.0)))


def data_energy(system: ComplexSystem, f_nodal: np.ndarray) -> float:
    """E_f = ||F||_{1/kappa,h} for data given by its nodal vector."""
    return float(np.sqrt(max(np.real(np.conj(f_nodal) @ (system.M_u @ f_nodal)), 0.0)))


def solve(system: ComplexSystem, b: np.ndarray) -> np.ndarray:
    """Solve the eliminated system by fast diagonalization; b boundary entries zeroed.

    On the (y, x) node lattice the solution is U = V_y ((V_y^T B V_x) / a) V_x^T with
    a = system.divisor: four GEMMs and one division, and zero on the boundary
    because V_x and V_y have zero rows there. Each solve checks its own result:
    the normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf),
    with A applied through its mass and stiffness factors, must not exceed 1e-12,
    or NumericalError is raised.
    """
    rhs = np.asarray(b, dtype=complex).copy()
    rhs[system.dof_u.boundary] = 0.0
    V_x, V_y = system.V_x, system.V_y
    B = rhs.reshape(V_y.shape[0], V_x.shape[0])
    u = _sandwich(V_y, _sandwich(V_y.T, B, V_x.T) / system.divisor, V_x).ravel()
    if not np.all(np.isfinite(u)):
        raise NumericalError("direct solve produced non-finite values")
    residual = np.max(np.abs(rhs - system.A @ u))
    scale = system.norm_A * np.max(np.abs(u)) + np.max(np.abs(rhs))
    if residual > 1e-12 * scale:  # a zero b passes with a zero residual
        raise NumericalError(f"direct solve has backward error "
                             f"{residual / scale:.3e} > 1e-12")
    return u


def interior_energy_bound(system: ComplexSystem) -> float:
    """sup of Re(s)*E_u/E_f over all data f that vanish on the boundary, in closed form.

    With f = (V_y (x) V_x) c the solution of A u = M_u f is u = (V_y (x) V_x)(c / (kappa a)),
    a = system.divisor, and both energies are diagonal sums: E_f^2 = sum |c|^2 / kappa and
    E_u^2 = sum g |c|^2 / (kappa |a|)^2 with g = |s|^2/kappa + (lam_x/|Sx|^2
    + lam_y/|Sy|^2)/rho. So the sup is max Re(s) sqrt(g/kappa) / |a| over the modes;
    a*E_u^2 <= 2*E_u*E_f holds for every such f exactly when it is at most 2.
    """
    g = (abs(system.s) ** 2 / system.kappa
         + (system.lam_x / abs(system.S_x) ** 2
            + system.lam_y[:, None] / abs(system.S_y) ** 2) / system.rho)
    return float(np.max(system.s.real * np.sqrt(g / system.kappa) / np.abs(system.divisor)))


def energy_inequality_check(system: ComplexSystem, f_nodal: np.ndarray):
    """Solve with data F in V_h and return (lhs, rhs, margin).

    lhs = a*E_u^2, rhs = 2*E_u*E_f, margin = rhs - lhs; the constant-damping
    stability bound says margin >= 0 up to roundoff.
    """
    f_nodal = np.asarray(f_nodal, dtype=complex)
    b = system.M_u @ f_nodal
    u_hat = solve(system, b)
    E_u = solution_energy(system, u_hat)
    E_f = data_energy(system, f_nodal)
    lhs = system.s.real * E_u**2
    rhs = 2.0 * E_u * E_f
    return lhs, rhs, rhs - lhs


def _l2_error_overquad(mesh, basis, dof_u, u_hat, exact):
    """Discrete L2 error against a callable, via a (p+2)-point tensor rule."""
    rule = gauss_legendre_rule(basis.p + 2)
    vals1 = lagrange_values_at(basis.gll_nodes, rule.nodes)
    V = np.kron(vals1, vals1)              # (nloc, nq_fine), xi fastest
    w2 = np.kron(rule.weights, rule.weights)
    q = rule.nodes
    a = np.tile(q, len(q))
    b = np.repeat(q, len(q))
    X = mesh.elem_origin[:, 0:1] + (a[None, :] + 1.0) * (mesh.hx / 2.0)
    Y = mesh.elem_origin[:, 1:2] + (b[None, :] + 1.0) * (mesh.hy / 2.0)
    uh = u_hat[dof_u.cell_dofs] @ V        # (n_elem, nq_fine)
    diff2 = np.abs(uh - exact(X, Y)) ** 2
    J = mesh.hx * mesh.hy / 4.0
    return float(np.sqrt(J * np.sum(diff2 @ w2)))


def manufactured_convergence(p: int, hs, s: complex, d_x: float = 0.0, d_y: float = 0.0):
    """Solve against u*(x,y) = sin(pi x) sin(pi y) on the unit square; report L2 orders.

    u* vanishes on the boundary; the matching load is C*u* with
    C = s^2*Sx*Sy + (Sy/Sx + Sx/Sy)*pi^2 (unit material), read off from the
    strong form. Errors are measured with a (p+2)-point rule so the
    measurement cannot hide superconvergence at the integration points.
    """
    hs = list(hs)
    if len(hs) < 2:
        raise ValueError("need at least two mesh sizes to observe an order")
    s = complex(s)
    domain = (0.0, 1.0, 0.0, 1.0)
    material = homogeneous_material(c=1.0, rho=1.0)
    basis = tensor_basis_tables(p)
    Sx = stretch(s, d_x)
    Sy = stretch(s, d_y)
    C = s * s * Sx * Sy + (Sy / Sx) * np.pi ** 2 + (Sx / Sy) * np.pi ** 2

    def u_star(x, y):
        return np.sin(np.pi * np.asarray(x)) * np.sin(np.pi * np.asarray(y))

    errors = []
    for h in hs:
        mesh = build_cartesian_mesh(domain, h)
        system = assemble_reduced(mesh, basis, material, s, d_x, d_y)
        b = assemble_load(mesh, basis, system.dof_u, lambda x, y: C * u_star(x, y))
        u_hat = solve(system, b)
        errors.append(_l2_error_overquad(mesh, basis, system.dof_u, u_hat, u_star))
    orders = [
        float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1]))
        for i in range(len(errors) - 1)
    ]
    return {"h": hs, "error": errors, "order": orders}


def quadrature_point_interpolant(values: np.ndarray, basis: BasisQp) -> np.ndarray:
    """Nodal Q_p coefficients of the polynomial matching the quadrature-point samples.

    Solvable precisely because the rule has (p+1)^2 points: the
    point-evaluation map from Q_p is then square and invertible.
    """
    values = np.asarray(values)
    if values.shape != (basis.n_loc,):
        raise ValueError(
            f"expected {basis.n_loc} quadrature-point values for order {basis.p}, "
            f"got shape {values.shape}; a finer rule breaks the one-to-one "
            "correspondence with Q_p"
        )
    return np.linalg.solve(basis.val2d.T, values)


def projection_pi_p(
    g_nodal: np.ndarray,
    mesh: MeshQ,
    basis: BasisQp,
    dof_w: DofMap,
    d_fn,
    s: complex,
) -> np.ndarray:
    """Per-element projection g_p with (w, (s* + d) g_p)_h = (w, g)_h.

    d_fn(x, y) samples one damping component at quadrature points. For
    constant d this reduces to g_p = g / (s* + d).
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"need Re(s) > 0, got s = {s}")
    if dof_w.kind != "discontinuous":
        raise ValueError("the projection lives in the discontinuous space")
    g_loc = np.asarray(g_nodal, dtype=complex)[dof_w.cell_dofs]   # (n_elem, nloc)
    rhs = g_loc @ reference_mass(basis).T
    factor = np.conj(s) + _coef_at_quad(d_fn, mesh, basis)   # (n_elem, nq)
    Msd = element_blocks(factor, basis.w2d, [(1.0, basis.val2d, basis.val2d)])
    out = np.linalg.solve(Msd, rhs[:, :, None])[:, :, 0]
    result = np.empty(dof_w.n_dofs, dtype=complex)
    result[dof_w.cell_dofs.ravel()] = out.ravel()
    return result
