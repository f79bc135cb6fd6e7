"""Laplace-domain verification bench.

For constant damping the auxiliary fields can be eliminated, leaving one
complex system in u alone:

    A(s) = s^2*Sx*Sy*M_u + (Sy/Sx)*K_x + (Sx/Sy)*K_y,    S_eta = 1 + d_eta/s,

with M_u the 1/kappa mass and K_eta the single-direction 1/rho stiffness.
This bench solves that system directly and checks the two provable facts at
desk scale: the energy inequality a*E_u^2 <= 2*E_u*E_f (constant damping)
and the L2 convergence order p+1 against a manufactured solution. The
discrete energies use the same (p+1)-point quadrature as assembly; only the
error measurement over-integrates. The system is factored in a
minimum-degree ordering of A + A^T, and every solve checks its normwise
backward error.

Variable damping is rejected here on purpose: its growth-rate bound is not
available in computable form, so the bench would be asserting a constant it
cannot know.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (_coef_at_quad, assemble_load, assemble_stiffness,
                       assemble_weighted_mass, element_blocks, eliminate_dirichlet,
                       reference_mass)
from .errors import ConfigError, NumericalError
from .mesh import DofMap, MaterialField, MeshQ, build_cartesian_mesh, dof_map, homogeneous_material
from .pml import stretch
from .quadrature import BasisQp, gauss_legendre_rule, lagrange_values_at, tensor_basis_tables


@dataclass(frozen=True)
class ComplexSystem:
    """Reduced constant-damping system at one complex frequency."""

    s: complex
    d_x: float
    d_y: float
    mesh: MeshQ
    basis: BasisQp
    material: MaterialField
    dof_u: DofMap
    A: sp.csc_matrix          # Dirichlet-eliminated
    M_u: sp.csr_matrix        # raw 1/kappa mass, used by the discrete norms
    K_x: sp.csr_matrix
    K_y: sp.csr_matrix

    @property
    def S_x(self) -> complex:
        return stretch(self.s, self.d_x)

    @property
    def S_y(self) -> complex:
        return stretch(self.s, self.d_y)


def assemble_reduced(
    mesh: MeshQ,
    basis: BasisQp,
    material: MaterialField,
    s: complex,
    d_x: float,
    d_y: float,
) -> ComplexSystem:
    """Assemble A(s) for constant damping (d_x, d_y), Dirichlet eliminated.

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

    dof_u = dof_map(mesh, basis.p, "continuous", gll=basis.gll_nodes)
    M_u = assemble_weighted_mass(mesh, basis, dof_u,
                                 lambda x, y: 1.0 / material.kappa(x, y))
    inv_rho = lambda x, y: 1.0 / material.rho(x, y)
    K_x = assemble_stiffness(mesh, basis, dof_u, inv_rho, direction="x")
    K_y = assemble_stiffness(mesh, basis, dof_u, inv_rho, direction="y")

    Sx = stretch(s, d_x)
    Sy = stretch(s, d_y)
    A = (s * s * Sx * Sy) * M_u.astype(complex) \
        + (Sy / Sx) * K_x.astype(complex) + (Sx / Sy) * K_y.astype(complex)

    A = eliminate_dirichlet(A, dof_u.boundary, dof_u.n_dofs, diag=1.0).tocsc()
    return ComplexSystem(s=s, d_x=d_x, d_y=d_y, mesh=mesh, basis=basis,
                         material=material, dof_u=dof_u, A=A,
                         M_u=M_u, K_x=K_x, K_y=K_y)


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
    """Direct sparse solve of the eliminated system; b boundary entries zeroed.

    A(s) has the symmetric pattern of the Q_p lattice, so SuperLU factors it
    in a minimum-degree ordering of A + A^T (with its default partial
    pivoting), which fills far less than the column ordering meant for
    unsymmetric patterns. Each solve checks its own result: the normwise
    backward error ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf) must
    not exceed 1e-12, or NumericalError is raised.
    """
    rhs = np.asarray(b, dtype=complex).copy()
    rhs[system.dof_u.boundary] = 0.0
    try:
        lu = spla.splu(system.A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"direct factorization failed: {exc}") from exc
    u = lu.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise NumericalError("direct solve produced non-finite values")
    residual = np.max(np.abs(rhs - system.A @ u))
    scale = spla.norm(system.A, np.inf) * np.max(np.abs(u)) + np.max(np.abs(rhs))
    if residual > 1e-12 * scale:  # a zero b passes with a zero residual
        raise NumericalError(f"direct solve has backward error "
                             f"{residual / scale:.3e} > 1e-12")
    return u


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


def manufactured_convergence(
    p: int,
    hs,
    s: complex,
    d_x: float = 0.0,
    d_y: float = 0.0,
    domain=(0.0, 1.0, 0.0, 1.0),
):
    """Solve against the sine product u*(x,y) and report observed L2 orders.

    u* = sin(pi*(x-x0)/Lx) * sin(pi*(y-y0)/Ly) vanishes on the boundary; the
    matching load is C*u* with C = s^2*Sx*Sy + (Sy/Sx)*(pi/Lx)^2
    + (Sx/Sy)*(pi/Ly)^2 (unit material), read off from the strong form.
    Errors are measured with a (p+2)-point rule so the measurement cannot
    hide superconvergence at the integration points.
    """
    hs = list(hs)
    if len(hs) < 2:
        raise ValueError("need at least two mesh sizes to observe an order")
    s = complex(s)
    x0, x1, y0, y1 = domain
    Lx, Ly = x1 - x0, y1 - y0
    material = homogeneous_material(c=1.0, rho=1.0)
    basis = tensor_basis_tables(p)
    Sx = stretch(s, d_x)
    Sy = stretch(s, d_y)
    C = s * s * Sx * Sy + (Sy / Sx) * (np.pi / Lx) ** 2 + (Sx / Sy) * (np.pi / Ly) ** 2

    def u_star(x, y):
        return np.sin(np.pi * (np.asarray(x) - x0) / Lx) * np.sin(np.pi * (np.asarray(y) - y0) / Ly)

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
