"""Sparse operator assembly for the damped wave system.

All element integrals use the (p+1)^2 tensor Gauss-Legendre points, also
where coefficients (damping, jumping materials) are not polynomial; the
interpolation property of that rule is part of the method, so no
over-integration. Material and damping values are sampled at physical
quadrature points; interfaces align with element boundaries, so each
element only ever sees smooth data.

Every element integral is one GEMM (element_blocks): per-point coefficients,
one row per element or boundary edge, times a reference table holding the
basis products, the quadrature weights and every constant factor. Load
vectors go through it too, with a constant right factor, and every
coefficient is sampled at the quadrature points by _coef_at_quad.

Both gradient terms of the pressure equation are integrated by parts, so
the continuous space carries -(1/rho grad u, grad v) - (phi, grad v) and the
auxiliary fields receive the damped gradient of u through a source term.
Integrating only the first term by parts is known to destabilize the
scheme; the coupling operators here must stay the exact transposes they
are (B_eta^T equals the unit-weight gradient coupling).
"""

import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import NumericalError
from .mesh import DofMap, MaterialField, MeshQ, dof_map, physical_quad_points
from .pml import PmlConfig, damping, gamma_2d, upsilon_2d
from .quadrature import BasisQp

# Local DOFs on each element edge, in edge order bottom/right/top/left.
def _edge_locals(p: int):
    i = np.arange(p + 1)
    return [i, i * (p + 1) + p, p * (p + 1) + i, i * (p + 1)]


@dataclass(frozen=True)
class GaussianPulse:
    """Separable forcing: Gaussian bump in space times a Gaussian envelope in time."""

    amplitude: float = 1.0
    sigma: float = 0.25
    center: tuple = (0.0, 0.0)
    t0: float = 1.0
    tau: float = 0.25

    def spatial(self, x, y):
        cx, cy = self.center
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
        return self.amplitude * np.exp(-r2 / (2.0 * self.sigma**2))

    def envelope(self, t):
        return np.exp(-(((t - self.t0) / self.tau) ** 2))


@dataclass(frozen=True)
class Operators:
    """Assembled semi-discrete system.

    u-space (continuous) matrices: M_u (1/kappa mass), M_d1 ((dx+dy)/kappa),
    M_d0 (dx*dy/kappa), K (1/rho stiffness), and for -1 < r < 1 the boundary
    matrices R_v (on du/dt) and R_theta (on u). Couplings: B_eta maps the
    discontinuous space into u-test rows, G_eta the reverse with the
    (dy-dx, dx-dy) weights. The discontinuous mass is one dense local block
    shared by all elements (uniform mesh) scaled by the Jacobian jac;
    M_phid_eta are the damping-weighted block-diagonal masses.
    """

    mesh: MeshQ
    basis: BasisQp
    material: MaterialField
    pml_cfg: PmlConfig | None
    r: float
    dof_u: DofMap
    dof_phi: DofMap
    M_u: sp.csr_matrix
    M_d1: sp.csr_matrix
    M_d0: sp.csr_matrix
    K: sp.csr_matrix
    B_x: sp.csr_matrix
    B_y: sp.csr_matrix
    G_x: sp.csr_matrix
    G_y: sp.csr_matrix
    M_phi_local: np.ndarray
    M_phid_x: sp.csr_matrix
    M_phid_y: sp.csr_matrix
    R_v: sp.csr_matrix | None
    R_theta: sp.csr_matrix | None
    dirichlet: np.ndarray | None
    jac: float

    @property
    def n_u(self) -> int:
        return self.dof_u.n_dofs

    @property
    def n_phi(self) -> int:
        return self.dof_phi.n_dofs

    @property
    def has_damping(self) -> bool:
        return self.pml_cfg is not None and self.pml_cfg.enabled


def _scatter(rows_cell, cols_cell, blocks, shape) -> sp.csr_matrix:
    """Accumulate per-element dense blocks into CSR.

    Element traversal order is fixed by the caller, and duplicate summation
    happens in canonical (row, col) order, so the result is reproducible.
    """
    ne, m, n = blocks.shape
    rows = np.broadcast_to(rows_cell[:, :, None], (ne, m, n)).ravel()
    cols = np.broadcast_to(cols_cell[:, None, :], (ne, m, n)).ravel()
    A = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    A.eliminate_zeros()
    return A


def element_blocks(coef, weights, terms) -> np.ndarray:
    """Blocks sum_q coef[e, q] * T[q] for every element e of coef (n_elem, n_q), as one GEMM.

    T[q] sums scale * weights[q] * outer(left[:, q], right[:, q]) over the
    (scale, left, right) terms and so carries every constant factor; the
    (n_elem, m, n) result is never rescaled. coef may be complex.
    """
    table = sum(np.einsum("q,mq,nq->qmn", scale * weights, left, right)
                for scale, left, right in terms)
    n_q, m, n = table.shape
    coef = np.asarray(coef)
    return (coef.reshape(-1, n_q) @ table.reshape(n_q, m * n)).reshape(-1, m, n)


def _coef_at_quad(coef, mesh: MeshQ, basis: BasisQp) -> np.ndarray:
    """coef at every quadrature point, shape (n_elem, n_q), real or complex.

    coef is a callable (x, y), sampled at the physical points, or its
    values there (anything that broadcasts, such as a scalar).
    """
    if callable(coef):
        coef = coef(*physical_quad_points(mesh, basis))
    return np.broadcast_to(np.asarray(coef), (mesh.n_elem, basis.n_loc))


def reference_mass(basis: BasisQp) -> np.ndarray:
    """The reference element mass (u, v) on [-1, 1]^2, shared by every element."""
    return element_blocks(np.ones((1, basis.n_loc)), basis.w2d,
                          [(1.0, basis.val2d, basis.val2d)])[0]


def assemble_weighted_mass(mesh: MeshQ, basis: BasisQp, dofmap: DofMap, weight) -> sp.csr_matrix:
    """Mass matrix (weight * u, v)_h on the given space.

    weight is a callable (x, y) or its values at the quadrature points.
    """
    coef = _coef_at_quad(weight, mesh, basis)
    J = mesh.hx * mesh.hy / 4.0
    blocks = element_blocks(coef, basis.w2d, [(J, basis.val2d, basis.val2d)])
    n = dofmap.n_dofs
    return _scatter(dofmap.cell_dofs, dofmap.cell_dofs, blocks, (n, n))


def assemble_stiffness(
    mesh: MeshQ,
    basis: BasisQp,
    dofmap: DofMap,
    weight,
    direction: str = "both",
) -> sp.csr_matrix:
    """Stiffness (weight * grad u, grad v)_h, or a single directional part of it.

    weight is taken as by assemble_weighted_mass.
    """
    if direction not in ("both", "x", "y"):
        raise ValueError(f"direction must be 'both', 'x' or 'y', got {direction!r}")
    coef = _coef_at_quad(weight, mesh, basis)
    # Jacobian times squared reference-gradient scaling: J*(2/hx)^2 = hy/hx.
    terms = []
    if direction in ("both", "x"):
        terms.append((mesh.hy / mesh.hx, basis.dxi2d, basis.dxi2d))
    if direction in ("both", "y"):
        terms.append((mesh.hx / mesh.hy, basis.deta2d, basis.deta2d))
    blocks = element_blocks(coef, basis.w2d, terms)
    n = dofmap.n_dofs
    return _scatter(dofmap.cell_dofs, dofmap.cell_dofs, blocks, (n, n))


def _assemble_coupling_g(mesh, basis, dof_u, dof_phi, coef, axis: str) -> sp.csr_matrix:
    """G_eta[p-row, u-col] = (coef * d u / d eta, p)_h with coef sampled per point."""
    if axis == "x":
        dcont, scale = basis.dxi2d, mesh.hy / 2.0
    else:
        dcont, scale = basis.deta2d, mesh.hx / 2.0
    blocks = element_blocks(coef, basis.w2d, [(scale, basis.val2d, dcont)])
    return _scatter(dof_phi.cell_dofs, dof_u.cell_dofs, blocks,
                    (dof_phi.n_dofs, dof_u.n_dofs))


def _assemble_boundary(mesh, basis, dof_u, material, pml_cfg, r):
    """Boundary matrices for -1 < r < 1: R_v on du/dt and R_theta on u.

    Edge integrals use the same (p+1)-point 1D Gauss-Legendre rule as the
    interior, all edges in one batch with the edge as the element; the
    traces of the edge DOFs are the 1D cardinal functions. On horizontal
    edges the flux modification carries d_x, on vertical edges d_y.
    """
    elem, edge = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    horizontal = (edge % 2 == 0)[:, None]  # bottom/top: parametrized by x
    ox, oy = mesh.elem_origin[elem, 0:1], mesh.elem_origin[elem, 1:2]
    t = basis.quad.nodes + 1.0
    xs = np.where(horizontal, ox + t * (mesh.hx / 2.0), ox + mesh.hx * (edge == 1)[:, None])
    ys = np.where(horizontal, oy + mesh.hy * (edge == 2)[:, None], oy + t * (mesh.hy / 2.0))
    ds = np.where(horizontal, mesh.hx / 2.0, mesh.hy / 2.0)
    coef_v = (1.0 - r) / (1.0 + r) * material.wave_speed(xs, ys) * ds
    dval = 0.0
    if pml_cfg is not None:
        dval = np.where(horizontal, damping("x", xs, pml_cfg), damping("y", ys, pml_cfg))
    dofs = dof_u.cell_dofs[elem[:, None], np.array(_edge_locals(basis.p))[edge]]
    n = dof_u.n_dofs
    return tuple(
        _scatter(dofs, dofs, element_blocks(coef, basis.quad.weights,
                                            [(1.0, basis.val1d, basis.val1d)]), (n, n))
        for coef in (coef_v, coef_v * dval))


def assemble_all(
    mesh: MeshQ,
    basis: BasisQp,
    material: MaterialField,
    pml_cfg: PmlConfig | None,
    r: float = -1.0,
) -> Operators:
    """Assemble every operator of the semi-discrete system.

    pml_cfg None means no damping anywhere. r = -1 records the Dirichlet
    DOF set for strong elimination; |r| = 1 produces no boundary matrices.
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"reflection coefficient must lie in [-1, 1], got {r}")
    dof_u = dof_map(mesh, basis.p, "continuous", gll=basis.gll_nodes)
    dof_phi = dof_map(mesh, basis.p, "discontinuous", gll=basis.gll_nodes)

    X, Y = physical_quad_points(mesh, basis)
    kap = _coef_at_quad(material.kappa(X, Y), mesh, basis)
    rho = _coef_at_quad(material.rho(X, Y), mesh, basis)
    if np.any(kap <= 0) or np.any(rho <= 0):
        raise ValueError("material parameters must be positive at all quadrature points")
    if pml_cfg is not None:
        dx = _coef_at_quad(damping("x", X, pml_cfg), mesh, basis)
        dy = _coef_at_quad(damping("y", Y, pml_cfg), mesh, basis)
    else:
        dx = dy = np.zeros_like(X)
    gam_x, gam_y = gamma_2d(dx, dy)

    n_u = dof_u.n_dofs
    n_phi = dof_phi.n_dofs

    def mass(dofmap, coef):
        if not np.any(coef):  # the damping terms of an undamped problem
            return sp.csr_matrix((dofmap.n_dofs, dofmap.n_dofs))
        return assemble_weighted_mass(mesh, basis, dofmap, coef)

    M_u = mass(dof_u, 1.0 / kap)
    M_d1 = mass(dof_u, (dx + dy) / kap)
    M_d0 = mass(dof_u, upsilon_2d(dx, dy) / kap)
    K = assemble_stiffness(mesh, basis, dof_u, 1.0 / rho)

    damped = pml_cfg is not None and pml_cfg.enabled
    if damped:
        # B_eta[v-row, phi-col] = (phi, d v / d eta)_h is the unit-weight G_eta transposed.
        unit = np.ones(X.shape)
        B_x = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, unit, "x").T.tocsr()
        B_y = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, unit, "y").T.tocsr()
        G_x = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, gam_x / rho, "x")
        G_y = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, gam_y / rho, "y")
    else:
        # Without damping the auxiliary fields stay at zero and never feed
        # back; dropping the couplings makes that structural.
        B_x = sp.csr_matrix((n_u, n_phi))
        B_y = sp.csr_matrix((n_u, n_phi))
        G_x = sp.csr_matrix((n_phi, n_u))
        G_y = sp.csr_matrix((n_phi, n_u))

    dirichlet = None
    R_v = R_theta = None
    if r == -1.0:
        dirichlet = dof_u.boundary
    elif r < 1.0:
        R_v, R_theta = _assemble_boundary(mesh, basis, dof_u, material, pml_cfg, r)

    ops = Operators(
        mesh=mesh, basis=basis, material=material, pml_cfg=pml_cfg, r=r,
        dof_u=dof_u, dof_phi=dof_phi,
        M_u=M_u, M_d1=M_d1, M_d0=M_d0, K=K,
        B_x=B_x, B_y=B_y, G_x=G_x, G_y=G_y,
        M_phi_local=reference_mass(basis),
        M_phid_x=mass(dof_phi, dx), M_phid_y=mass(dof_phi, dy),
        R_v=R_v, R_theta=R_theta, dirichlet=dirichlet, jac=mesh.hx * mesh.hy / 4.0,
    )
    for name, A in sparse_operators(ops).items():
        if not np.all(np.isfinite(A.data)):
            raise NumericalError(f"assembled operator {name} contains non-finite entries")
    return ops


def sparse_operators(ops: Operators) -> dict:
    """Name -> matrix for every assembled sparse operator; R_v and R_theta when present."""
    names = ("M_u", "M_d1", "M_d0", "K", "B_x", "B_y", "G_x", "G_y",
             "M_phid_x", "M_phid_y", "R_v", "R_theta")
    return {n: getattr(ops, n) for n in names if getattr(ops, n) is not None}


def assemble_load(mesh: MeshQ, basis: BasisQp, dofmap: DofMap, coef) -> np.ndarray:
    """Load vector (coef, v)_h; coef as by assemble_weighted_mass, real or complex."""
    coef = _coef_at_quad(coef, mesh, basis)
    J = mesh.hx * mesh.hy / 4.0
    local = element_blocks(coef, basis.w2d, [(J, basis.val2d, np.ones((1, basis.n_loc)))])
    out = np.zeros(dofmap.n_dofs, dtype=local.dtype)
    np.add.at(out, dofmap.cell_dofs.ravel(), local.ravel())
    return out


def assemble_forcing_spatial(
    mesh: MeshQ, basis: BasisQp, material: MaterialField, dofmap: DofMap, spatial
) -> np.ndarray:
    """Load vector entries (spatial / kappa, v)_h for a spatial profile."""
    return assemble_load(mesh, basis, dofmap,
                         lambda x, y: spatial(x, y) / material.kappa(x, y))


def lattice_matrix_1d(basis: BasisQp, coef_1d, scale: float, table) -> np.ndarray:
    """Dense 1D scale * (coef table u, table v) on the n_el*p+1 node lattice.

    coef_1d is (n_el, p+1), at the 1D quadrature points. The mass takes (half_h,
    basis.val1d) and the stiffness (1/half_h, basis.der1d); with unit weight, in the
    (y, x) order of dof_map, M_u = M_y (x) M_x / kappa and K = (M_y (x) K_x + K_y (x) M_x) / rho.
    """
    n_el, p = coef_1d.shape[0], basis.p
    blocks = element_blocks(coef_1d, basis.quad.weights, [(scale, table, table)])
    cells = np.arange(n_el)[:, None] * p + np.arange(p + 1)
    n = n_el * p + 1
    return _scatter(cells, cells, blocks, (n, n)).toarray()


def lattice_eigenbasis(basis: BasisQp, n_el: int, h: float, inner: slice):
    """Unit-weight 1D mass M and stiffness K of the n_el*p+1 lattice, and their eigenbasis.

    Returns (M, K, lam, V) with K[inner, inner] V = M[inner, inner] V diag(lam) and
    V^T M[inner, inner] V = I; V has a zero row at each node that inner drops.
    """
    M, K = (lattice_matrix_1d(basis, np.ones((n_el, basis.quad.n)), scale, table)
            for scale, table in ((h / 2.0, basis.val1d), (2.0 / h, basis.der1d)))
    lam, V = la.eigh(K[inner, inner], M[inner, inner])
    full = np.zeros((M.shape[0], lam.size))
    full[inner] = V
    return M, K, lam, full


def tensor_mass_inverse(mesh: MeshQ, basis: BasisQp, weight, pinned: bool):
    """The inverse of the continuous weighted mass as a tensor product of 1D inverses.

    weight is taken as by assemble_weighted_mass: a callable (x, y) or its
    values at the quadrature points. The mass factors as M_y(w) (x) M_x on
    the (nx*p+1, ny*p+1) node lattices, with M_x of unit weight and M_y
    weighted by w averaged over x at each y quadrature point; that is exact
    when w varies only in y and an SPD, spectrally equivalent approximation
    otherwise. With pinned, the first and last lattice node of each axis
    (together exactly dof_u.boundary) are dropped and the returned map is
    the identity there, matching the unit diagonal that Dirichlet
    elimination leaves in M_u. Returns z = P(r) as a new array.
    """
    coef = _coef_at_quad(weight, mesh, basis)
    p, nq = basis.p, basis.quad.n
    inner = slice(1, -1) if pinned else slice(None)

    def inverse_1d(half_h, coef_1d):
        M = lattice_matrix_1d(basis, coef_1d, half_h, basis.val1d)[inner, inner]
        # Explicit dense inverses: an n x n inverse holds about as many
        # entries as a u vector on a square domain, and two GEMMs beat banded
        # Cholesky solves (LAPACK pbtrs, one column at a time) up to lattices
        # of about 500 nodes per axis.
        try:
            return la.cho_solve(la.cho_factor(M), np.eye(M.shape[0]))
        except la.LinAlgError as exc:
            raise NumericalError(f"tensor-product mass factor is not SPD: {exc}") from exc

    inv_x = inverse_1d(mesh.hx / 2.0, np.ones((mesh.nx, nq)))
    inv_y = inverse_1d(mesh.hy / 2.0, coef.reshape(mesh.ny, mesh.nx, nq, nq).mean(axis=(1, 3)))
    shape = (mesh.ny * p + 1, mesh.nx * p + 1)

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.array(r, dtype=float)
        Z = z.reshape(shape)
        Z[inner, inner] = inv_y @ Z[inner, inner] @ inv_x
        return z

    return apply


def eliminate_dirichlet(A, boundary: np.ndarray, n: int, diag=1.0) -> sp.csr_matrix:
    """Strong Dirichlet elimination of the DOFs `boundary` of an n-sized space.

    Rows and/or columns (whichever dimensions have length n) at boundary are
    zeroed by masking the stored entries; square n x n matrices additionally
    receive `diag` on the constrained diagonal. Returns a new canonical CSR
    matrix without stored zeros.
    """
    if n not in A.shape:
        raise ValueError("matrix has no dimension of the constrained space")
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    pinned = np.zeros(n, dtype=bool)
    pinned[boundary] = True
    hit = np.zeros(A.nnz, dtype=bool)
    if A.shape[0] == n:
        hit |= np.repeat(pinned, np.diff(A.indptr))
    if A.shape[1] == n:
        hit |= pinned[A.indices]
    A.data[hit] = 0
    if A.shape == (n, n) and diag != 0:
        A[boundary, boundary] = diag
    A.eliminate_zeros()
    return A


def constrain_operators(ops: Operators) -> Operators:
    """Apply strong Dirichlet elimination to every operator the stepper uses.

    M_u and K keep a unit diagonal on the boundary (solvability, SPD); the
    damping masses and couplings are plainly zeroed. G is untouched: its
    u-columns multiply a state whose boundary entries are pinned to zero.
    """
    if ops.dirichlet is None:
        return ops
    return replace(
        ops,
        M_u=eliminate_dirichlet(ops.M_u, ops.dirichlet, ops.n_u, diag=1.0),
        K=eliminate_dirichlet(ops.K, ops.dirichlet, ops.n_u, diag=1.0),
        M_d1=eliminate_dirichlet(ops.M_d1, ops.dirichlet, ops.n_u, diag=0.0),
        M_d0=eliminate_dirichlet(ops.M_d0, ops.dirichlet, ops.n_u, diag=0.0),
        B_x=eliminate_dirichlet(ops.B_x, ops.dirichlet, ops.n_u),
        B_y=eliminate_dirichlet(ops.B_y, ops.dirichlet, ops.n_u),
    )


def dump_matrices(ops: Operators, out_dir) -> list:
    """Write every assembled matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, A in sparse_operators(ops).items():
        path = os.path.join(out_dir, f"{name}.mtx")
        mmwrite(path, A)
        written.append(path)
    return written
