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
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import NumericalError
from .mesh import DofMap, MaterialField, MeshQ, dof_map, physical_quad_points
from .pml import PmlConfig, damping, gamma_2d, upsilon_2d
from .quadrature import BasisQp

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
    discontinuous space into u-test rows (the CSC view of the unit-weight G_eta
    transposed), G_eta the reverse with the (dy-dx, dx-dy) weights. The
    discontinuous mass is one dense local block shared by all elements
    (uniform mesh) scaled by the Jacobian jac; M_phid_eta are the
    damping-weighted block-diagonal masses.
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
    B_x: sp.csc_matrix
    B_y: sp.csc_matrix
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


def _neighbours(n_el: int, p: int):
    """First neighbour and neighbour count of each node of the 1D lattice of n_el Q_p elements."""
    g = np.arange(n_el * p + 1)
    lo = p * np.maximum((g - 1) // p, 0)
    return lo, p * np.minimum(g // p + 1, n_el) - lo + 1


def _lattice_csr(cells, coef, weights, terms, nx: int, ny: int, p: int) -> sp.csr_matrix:
    """element_blocks(coef, weights, terms) at the (y, x)-numbered nodes cells[e], in CSR.

    Row (iy, ix) of the lattice of nx x ny elements (ny = 0: one node row) holds the columns
    (jy, jx) of the neighbour ranges of iy and ix, so positions are arithmetic. One bincount
    sums, in element order, the blocks of the elements whose coefficient is not all zero;
    entries left zero are eliminated.
    """
    def node_row(w):  # columns of a row of nodes whose y ranges are 0..w-1; lo_y shifts them
        ix = np.repeat(np.arange(npx), w * w_x)
        start = np.repeat(np.cumsum(w * w_x) - w * w_x, w * w_x)
        jy, jx = np.divmod(np.arange(ix.size) - start, w_x[ix])
        return jy * npx + lo_x[ix] + jx

    (lo_x, w_x), (lo_y, w_y) = _neighbours(nx, p), _neighbours(ny, p)
    npx = lo_x.size
    indptr = np.concatenate(([0], np.cumsum(np.outer(w_y, w_x))))
    node_rows = {w: node_row(w) for w in set(w_y.tolist())}
    indices = np.concatenate([node_rows[w] for w in w_y.tolist()])
    indices += np.repeat(lo_y * npx, w_y * w_x.sum())

    live = np.any(coef != 0, axis=1)
    iy, ix = np.divmod(cells[live], npx)
    jy, jx = iy[:, None, :], ix[:, None, :]
    pos = jy * w_x[ix][:, :, None]  # then in place: fresh temporaries cost page faults
    pos += (indptr[iy * npx + ix] - lo_y[iy] * w_x[ix] - lo_x[ix])[:, :, None]
    pos += jx
    data = np.bincount(pos.ravel(), element_blocks(coef[live], weights, terms).ravel(), indptr[-1])
    A = sp.csr_matrix((data, indices, indptr), shape=(npx * lo_y.size,) * 2)
    A.eliminate_zeros()
    return A


def _element_rows_csr(rows: DofMap, cols: DofMap, coef, weights, terms) -> sp.csr_matrix:
    """element_blocks(coef, weights, terms) in CSR, rows in the discontinuous space.

    Rows go element by element, so the blocks are the CSR rows at the ascending columns
    cols.cell_dofs[e]; all-zero coefficients leave rows empty. Stored zeros are eliminated.
    """
    live = np.any(coef != 0, axis=1)
    blocks = element_blocks(coef[live], weights, terms)
    m, n = blocks.shape[1:]
    indptr = np.concatenate(([0], np.cumsum(np.repeat(live * n, m))))
    indices = np.broadcast_to(cols.cell_dofs[live][:, None, :], blocks.shape).ravel()
    A = sp.csr_matrix((blocks.ravel(), indices, indptr), shape=(rows.n_dofs, cols.n_dofs))
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
    terms = [(mesh.hx * mesh.hy / 4.0, basis.val2d, basis.val2d)]
    if dofmap.kind == "discontinuous":
        return _element_rows_csr(dofmap, dofmap, coef, basis.w2d, terms)
    return _lattice_csr(dofmap.cell_dofs, coef, basis.w2d, terms, mesh.nx, mesh.ny, basis.p)


def assemble_stiffness(
    mesh: MeshQ,
    basis: BasisQp,
    dofmap: DofMap,
    weight,
    direction: str = "both",
) -> sp.csr_matrix:
    """Stiffness (weight * grad u, grad v)_h on the continuous space, or one directional part.

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
    return _lattice_csr(dofmap.cell_dofs, coef, basis.w2d, terms, mesh.nx, mesh.ny, basis.p)


def _assemble_coupling_g(mesh, basis, dof_u, dof_phi, coef, axis: str) -> sp.csr_matrix:
    """G_eta[p-row, u-col] = (coef * d u / d eta, p)_h with coef sampled per point."""
    if axis == "x":
        dcont, scale = basis.dxi2d, mesh.hy / 2.0
    else:
        dcont, scale = basis.deta2d, mesh.hx / 2.0
    return _element_rows_csr(dof_phi, dof_u, coef, basis.w2d, [(scale, basis.val2d, dcont)])


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
    i, p = np.arange(basis.p + 1), basis.p  # the local DOFs of each edge, bottom/right/top/left
    dofs = dof_u.cell_dofs[elem[:, None], np.array([i, i * (p + 1) + p, p * (p + 1) + i,
                                                    i * (p + 1)])[edge]]
    return tuple(_lattice_csr(dofs, coef, basis.quad.weights, [(1.0, basis.val1d, basis.val1d)],
                              mesh.nx, mesh.ny, p)
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
    dof_u = dof_map(mesh, basis.p, "continuous")
    dof_phi = dof_map(mesh, basis.p, "discontinuous")

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

    mass = partial(assemble_weighted_mass, mesh, basis)
    M_u = mass(dof_u, 1.0 / kap)
    M_d1 = mass(dof_u, (dx + dy) / kap)
    M_d0 = mass(dof_u, upsilon_2d(dx, dy) / kap)
    K = assemble_stiffness(mesh, basis, dof_u, 1.0 / rho)

    # B_eta[v-row, phi-col] = (phi, d v / d eta)_h is the unit-weight G_eta's .T view.
    # Without damping the auxiliary fields stay at zero and never feed back; weight 0
    # for B_eta and gamma = 0 for G_eta leave all four couplings empty, which makes
    # that structural.
    unit = np.full(X.shape, 1.0 if pml_cfg is not None and pml_cfg.enabled else 0.0)
    B_x = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, unit, "x").T
    B_y = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, unit, "y").T
    G_x = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, gam_x / rho, "x")
    G_y = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, gam_y / rho, "y")

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
    dofs, n = dofmap.cell_dofs.ravel(), dofmap.n_dofs
    out = np.bincount(dofs, local.real.ravel(), n).astype(local.dtype, copy=False)
    if np.iscomplexobj(local):  # bincount sums in input order, but real weights only
        out.imag = np.bincount(dofs, local.imag.ravel(), n)
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
    cells = np.arange(len(coef_1d))[:, None] * basis.p + np.arange(basis.p + 1)
    return _lattice_csr(cells, coef_1d, basis.quad.weights, [(scale, table, table)],
                        len(coef_1d), 0, basis.p).toarray()


def lattice_eigenbases(basis: BasisQp, mesh: MeshQ, inner: slice):
    """Unit-weight 1D mass M and stiffness K of the x and y node lattices, and their eigenbases.

    Returns one (M, K, lam, V) per axis, x first, with K[inner, inner] V =
    M[inner, inner] V diag(lam) and V^T M[inner, inner] V = I; V has a zero
    row at each node that inner drops. A square lattice, (ny, hy) == (nx, hx),
    returns the x tuple for y as well.
    """
    def axis(n_el, h):
        M, K = (lattice_matrix_1d(basis, np.ones((n_el, basis.quad.n)), scale, table)
                for scale, table in ((h / 2.0, basis.val1d), (2.0 / h, basis.der1d)))
        lam, V = la.eigh(K[inner, inner], M[inner, inner])
        full = np.zeros((M.shape[0], lam.size))
        full[inner] = V
        return M, K, lam, full

    x = axis(mesh.nx, mesh.hx)
    return x, (x if (mesh.ny, mesh.hy) == (mesh.nx, mesh.hx) else axis(mesh.ny, mesh.hy))


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

    The boundary rows of A are zeroed by masking the stored entries. With
    diag None, A is a coupling whose rows alone lie in the space; otherwise
    A is n x n, also loses its boundary columns, and receives `diag` on the
    constrained diagonal. Returns a new canonical CSR matrix without stored
    zeros.
    """
    if A.shape[0] != n or (diag is not None and A.shape[1] != n):
        raise ValueError(f"matrix of shape {A.shape} does not act on the constrained space")
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    pinned = np.zeros(n, dtype=bool)
    pinned[boundary] = True
    hit = np.repeat(pinned, np.diff(A.indptr))
    if diag is not None:
        hit |= pinned[A.indices]
    A.data[hit] = 0
    if diag:
        A[boundary, boundary] = diag
    A.eliminate_zeros()
    return A


def constrain_operators(ops: Operators, live_phi: np.ndarray | None = None) -> Operators:
    """Apply strong Dirichlet elimination to every operator the stepper uses.

    M_u and K keep a unit diagonal on the boundary (solvability, SPD); the
    damping masses and the rows of the couplings B_eta are plainly zeroed.
    G is untouched: its u-columns multiply a state whose boundary entries
    are pinned to zero. With live_phi, B_eta keep only those phi columns, sliced
    from the CSC view into CSR before the elimination, which never sees the others.
    """
    if live_phi is not None:
        ops = replace(ops, B_x=ops.B_x[:, live_phi].tocsr(), B_y=ops.B_y[:, live_phi].tocsr())
    if ops.dirichlet is None:
        return ops
    diags = {"M_u": 1.0, "K": 1.0, "M_d1": 0.0, "M_d0": 0.0, "B_x": None, "B_y": None}
    return replace(ops, **{name: eliminate_dirichlet(getattr(ops, name), ops.dirichlet, ops.n_u,
                                                     diag=diag) for name, diag in diags.items()})


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
