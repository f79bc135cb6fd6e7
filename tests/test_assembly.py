from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import scipy.sparse as sp

from pmlwave.assembly import (GaussianPulse, assemble_all, assemble_forcing_spatial,
                              assemble_load, assemble_stiffness, assemble_weighted_mass,
                              eliminate_dirichlet, lattice_matrix_1d)
from pmlwave.errors import NumericalError
from pmlwave.laplace import projection_pi_p
from pmlwave.mesh import (MaterialField, build_cartesian_mesh, dof_map,
                          homogeneous_material, layered_material,
                          physical_quad_points)
from pmlwave.pml import PmlConfig, damping, gamma_2d, upsilon_2d
from pmlwave.quadrature import tensor_basis_tables
from pmlwave.timestepper import WaveStepper, _live_phi_dofs

from oracles import OracleProblem, lag


def wavy_material():
    def kappa_fn(x, y):
        return 1.0 + 0.3 * np.asarray(x) + 0.5 * np.asarray(y) ** 2

    def rho_fn(x, y):
        return 2.0 + 0.25 * np.asarray(x) * np.asarray(y)

    return MaterialField(kappa=kappa_fn, rho=rho_fn, interfaces=())


def interior_pml():
    # layer occupying the outer half of the unit square on all sides
    return PmlConfig(delta=0.5, x_inner=0.5, y_inner=0.5, d0_x=3.0, d0_y=2.0)


def test_q1_unit_square_stiffness():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
    basis = tensor_basis_tables(1)
    dm = dof_map(mesh, 1, "continuous", gll=basis.gll_nodes)
    K = assemble_stiffness(mesh, basis, dm, lambda x, y: 1.0).toarray()
    expect = np.array([
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3],
    ])
    assert np.max(np.abs(K - expect)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_operators_match_dense_oracle(p):
    domain = (0.0, 1.0, 0.0, 1.0)
    mesh = build_cartesian_mesh(domain, 0.5)
    basis = tensor_basis_tables(p)
    mat = wavy_material()
    pml = interior_pml()
    ops = assemble_all(mesh, basis, mat, pml)

    def dx_fn(x, y):
        return 3.0 * max((abs(x) - 0.5) / 0.5, 0.0) ** 3

    def dy_fn(x, y):
        return 2.0 * max((abs(y) - 0.5) / 0.5, 0.0) ** 3

    oracle = OracleProblem(domain, 2, 2, p, mat.kappa, mat.rho, dx_fn, dy_fn)
    ref = oracle.matrices()
    got = {
        "M_u": ops.M_u, "M_d1": ops.M_d1, "M_d0": ops.M_d0, "K": ops.K,
        "B_x": ops.B_x, "B_y": ops.B_y, "G_x": ops.G_x, "G_y": ops.G_y,
        "M_phid_x": ops.M_phid_x, "M_phid_y": ops.M_phid_y,
    }
    for name, A in got.items():
        R = ref[name]
        scale = max(np.max(np.abs(R)), 1e-30)
        err = np.max(np.abs(A.toarray() - R)) / scale
        assert err <= 1e-11, f"{name}: relative error {err:.3e}"


def test_zero_damping_reduces_to_plain_wave_operator():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
    basis = tensor_basis_tables(2)
    mat = homogeneous_material(c=1.3)
    for pml in (None, PmlConfig(delta=0.5, x_inner=0.5, y_inner=0.5, d0_x=0.0, d0_y=0.0)):
        ops = assemble_all(mesh, basis, mat, pml)
        for A in (ops.M_d1, ops.M_d0, ops.B_x, ops.B_y, ops.G_x, ops.G_y,
                  ops.M_phid_x, ops.M_phid_y):
            assert A.nnz == 0
        assert ops.M_u.nnz > 0 and ops.K.nnz > 0
        assert not ops.has_damping


def test_coupling_adjointness():
    # The u-equation applies -B_eta phi; its transpose must be exactly the
    # unit-weight gradient coupling so the phi source mirrors the same
    # bilinear form. Verified against G assembled with gamma == rho.
    from pmlwave.assembly import _assemble_coupling_g

    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(2)
    ops = assemble_all(mesh, basis, homogeneous_material(), interior_pml())
    dof_u, dof_phi = ops.dof_u, ops.dof_phi
    ones = np.ones((mesh.n_elem, basis.quad.n ** 2))
    for axis, B in (("x", ops.B_x), ("y", ops.B_y)):
        C = _assemble_coupling_g(mesh, basis, dof_u, dof_phi, ones, axis)
        assert abs(B.T - C).max() <= 1e-13


def test_mass_row_sum_is_weighted_area():
    mesh = build_cartesian_mesh((-1.0, 1.0, -1.0, 1.0), 0.5)
    basis = tensor_basis_tables(3)
    mat = homogeneous_material(c=2.0)  # kappa = 4
    ops = assemble_all(mesh, basis, mat, None)
    assert ops.M_u.sum() == pytest.approx(4.0 / 4.0, rel=1e-12)


def test_boundary_matrices_for_partial_reflection():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    mat = homogeneous_material()
    ops = assemble_all(mesh, basis, mat, None, r=0.0)
    assert ops.dirichlet is None
    assert ops.R_v is not None
    # edge-lumped 1D mass oracle: each boundary edge contributes h/6*[[2,1],[1,2]]
    n = ops.n_u
    R = np.zeros((n, n))
    h = 0.5
    xq, wq = npleg.leggauss(2)
    nodes = basis.gll_nodes
    edges = {
        # (global dof pair, parametrization) for each of the 8 boundary edges
    }
    # bottom row: dofs 0,1,2 (y=0); top: 6,7,8; left: 0,3,6; right: 2,5,8
    for pair in ((0, 1), (1, 2), (6, 7), (7, 8), (0, 3), (3, 6), (2, 5), (5, 8)):
        loc = np.zeros((2, 2))
        for a, xa in enumerate(xq):
            base = np.array([lag(nodes, 0, xa), lag(nodes, 1, xa)])
            loc += wq[a] * np.outer(base, base) * h / 2.0
        for mi, gm in enumerate(pair):
            for ni, gn in enumerate(pair):
                R[gm, gn] += loc[mi, ni]
    assert np.max(np.abs(ops.R_v.toarray() - R)) <= 1e-13
    # no damping at the boundary in this setup: theta matrix vanishes
    assert ops.R_theta.nnz == 0


def test_boundary_theta_appears_with_damping():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    ops = assemble_all(mesh, basis, homogeneous_material(), interior_pml(), r=0.0)
    assert ops.R_theta.nnz > 0


def test_reflection_coefficient_validation():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    with pytest.raises(ValueError):
        assemble_all(mesh, basis, homogeneous_material(), None, r=-2.0)
    # r = +1 (Neumann): no Dirichlet list, no boundary matrices
    ops = assemble_all(mesh, basis, homogeneous_material(), None, r=1.0)
    assert ops.dirichlet is None and ops.R_v is None


def test_forcing_vector_matches_manual_quadrature():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(2)
    mat = wavy_material()
    dm = dof_map(mesh, 2, "continuous", gll=basis.gll_nodes)
    pulse = GaussianPulse(amplitude=1.7, sigma=0.3, center=(0.4, 0.6), t0=1.0, tau=0.25)

    f = pulse.envelope(0.75) * assemble_forcing_spatial(mesh, basis, mat, dm, pulse.spatial)
    # manual: envelope(t) * sum_e sum_q w_q J spatial/kappa phi_m
    from pmlwave.mesh import physical_quad_points

    X, Y = physical_quad_points(mesh, basis)
    J = mesh.hx * mesh.hy / 4.0
    coef = pulse.spatial(X, Y) / mat.kappa(X, Y)
    ref = np.zeros(dm.n_dofs)
    for e in range(mesh.n_elem):
        for m in range(basis.n_loc):
            ref[dm.cell_dofs[e, m]] += J * np.sum(basis.w2d * coef[e] * basis.val2d[m])
    ref *= np.exp(-((0.75 - 1.0) / 0.25) ** 2)
    assert np.max(np.abs(f - ref)) <= 1e-14


def test_envelope_and_spatial_values():
    pulse = GaussianPulse()
    assert pulse.envelope(1.0) == pytest.approx(1.0)
    assert pulse.envelope(1.25) == pytest.approx(np.exp(-1.0))
    assert pulse.spatial(0.0, 0.0) == pytest.approx(1.0)
    assert pulse.spatial(0.25, 0.0) == pytest.approx(np.exp(-0.5))


def test_eliminate_dirichlet_pins_boundary_rows_and_columns():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    ops = assemble_all(mesh, basis, homogeneous_material(), None, r=-1.0)
    bnd = ops.dirichlet
    assert bnd is not None and len(bnd) == 8

    K = eliminate_dirichlet(ops.K, bnd, ops.n_u, diag=1.0).toarray()
    assert np.allclose(K[bnd][:, bnd], np.eye(len(bnd)))
    inner = np.setdiff1d(np.arange(ops.n_u), bnd)
    assert np.all(K[bnd][:, inner] == 0.0)
    assert np.all(K[inner][:, bnd] == 0.0)


def test_assembly_is_deterministic():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
    basis = tensor_basis_tables(2)
    mat = wavy_material()
    a = assemble_all(mesh, basis, mat, interior_pml())
    b = assemble_all(mesh, basis, mat, interior_pml())
    for name in ("M_u", "M_d1", "M_d0", "K", "B_x", "B_y", "G_x", "G_y"):
        A, B = getattr(a, name), getattr(b, name)
        assert np.array_equal(A.data, B.data)
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.indptr, B.indptr)


def test_rejects_nonpositive_material():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    bad = MaterialField(kappa=lambda x, y: 0.0 * np.asarray(x),
                        rho=lambda x, y: 1.0 + 0.0 * np.asarray(x), interfaces=())
    with pytest.raises(ValueError):
        assemble_all(mesh, basis, bad, None)


def test_rejects_non_finite_operator_and_names_it():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(1)
    huge = replace(interior_pml(), d0_x=1e200, d0_y=1e200)  # d_x * d_y overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="M_d0"):
            assemble_all(mesh, basis, homogeneous_material(), huge)


# Slow reference for the GEMM element kernel: the four-operand einsum formulas
# assembly used before, with the constant factor applied to the result.
def einsum_blocks(w, coef, left, right, scale):
    return np.einsum("q,eq,mq,nq->emn", w, coef, left, right) * scale


def reference_scatter(rows_cell, cols_cell, blocks, shape):
    rows = np.broadcast_to(rows_cell[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(cols_cell[:, None, :], blocks.shape).ravel()
    A = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()
    A.eliminate_zeros()
    return A


def reference_load(ops, coef):
    """(coef, v)_h on the continuous space: einsum per element, np.add.at scatter."""
    mesh, basis = ops.mesh, ops.basis
    local = np.einsum("q,eq,mq->em", basis.w2d, coef, basis.val2d) * (mesh.hx * mesh.hy / 4.0)
    out = np.zeros(ops.n_u, dtype=local.dtype)
    np.add.at(out, ops.dof_u.cell_dofs.ravel(), local.ravel())
    return out


def reference_operators(ops):
    """Every per-point-coefficient operator of ops, from the einsum formulas."""
    mesh, basis, mat = ops.mesh, ops.basis, ops.material
    X, Y = physical_quad_points(mesh, basis)
    inv_kap = np.broadcast_to(1.0 / mat.kappa(X, Y), X.shape)
    inv_rho = np.broadcast_to(1.0 / mat.rho(X, Y), X.shape)
    dx, dy = damping("x", X, ops.pml_cfg), damping("y", Y, ops.pml_cfg)
    gam_x, gam_y = gamma_2d(dx, dy)
    w, J = basis.w2d, mesh.hx * mesh.hy / 4.0
    du, dphi = ops.dof_u, ops.dof_phi

    def scatter(rows, cols, blocks):
        return reference_scatter(rows.cell_dofs, cols.cell_dofs, blocks,
                                 (rows.n_dofs, cols.n_dofs))

    def mass(dm, coef):
        return scatter(dm, dm, einsum_blocks(w, coef, basis.val2d, basis.val2d, J))

    kx = einsum_blocks(w, inv_rho, basis.dxi2d, basis.dxi2d, mesh.hy / mesh.hx)
    ky = einsum_blocks(w, inv_rho, basis.deta2d, basis.deta2d, mesh.hx / mesh.hy)
    return {
        "M_u": mass(du, inv_kap),
        "M_d1": mass(du, (dx + dy) * inv_kap),
        "M_d0": mass(du, upsilon_2d(dx, dy) * inv_kap),
        "K": scatter(du, du, kx + ky),
        "K_x": scatter(du, du, kx),
        "K_y": scatter(du, du, ky),
        "G_x": scatter(dphi, du, einsum_blocks(w, gam_x * inv_rho, basis.val2d,
                                               basis.dxi2d, mesh.hy / 2.0)),
        "G_y": scatter(dphi, du, einsum_blocks(w, gam_y * inv_rho, basis.val2d,
                                               basis.deta2d, mesh.hx / 2.0)),
        "M_phid_x": mass(dphi, dx),
        "M_phid_y": mass(dphi, dy),
    }


def reference_boundary(ops):
    """R_v and R_theta by the per-edge loop the batched assembly replaced."""
    mesh, basis = ops.mesh, ops.basis
    fac = (1.0 - ops.r) / (1.0 + ops.r)
    q, w, p = basis.quad.nodes, basis.quad.weights, basis.p
    i = np.arange(p + 1)
    locs = [i, i * (p + 1) + p, p * (p + 1) + i, i * (p + 1)]
    dofs, blk_v, blk_t = [], [], []
    for e, edge, _, _ in mesh.boundary_edges:
        ox, oy = mesh.elem_origin[e]
        if edge in (0, 2):
            xs = ox + (q + 1.0) * (mesh.hx / 2.0)
            ys = np.full_like(xs, oy if edge == 0 else oy + mesh.hy)
            ds, dval = mesh.hx / 2.0, damping("x", xs, ops.pml_cfg)
        else:
            ys = oy + (q + 1.0) * (mesh.hy / 2.0)
            xs = np.full_like(ys, ox + mesh.hx if edge == 1 else ox)
            ds, dval = mesh.hy / 2.0, damping("y", ys, ops.pml_cfg)
        c = ops.material.wave_speed(xs, ys)
        base = basis.val1d
        blk_v.append(np.einsum("a,a,ma,na->mn", w, fac * c, base, base) * ds)
        blk_t.append(np.einsum("a,a,ma,na->mn", w, fac * c * dval, base, base) * ds)
        dofs.append(ops.dof_u.cell_dofs[e, locs[edge]])
    dofs, n = np.array(dofs), ops.n_u
    return (reference_scatter(dofs, dofs, np.array(blk_v), (n, n)),
            reference_scatter(dofs, dofs, np.array(blk_t), (n, n)))


def relative_error(A, R):
    A, R = sp.csr_matrix(A), sp.csr_matrix(R)
    diff = abs(A - R)
    return (diff.max() if diff.nnz else 0.0) / abs(R).max()


@pytest.mark.parametrize("p", range(1, 9))
def test_element_kernel_matches_four_operand_einsum(p):
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
    basis = tensor_basis_tables(p)
    mat, pml = wavy_material(), interior_pml()
    ops = assemble_all(mesh, basis, mat, pml, r=0.5)
    ref = reference_operators(ops)
    inv_rho = lambda x, y: 1.0 / mat.rho(x, y)
    R_v, R_theta = reference_boundary(ops)
    # Load vectors: the forcing profile over kappa, and a complex per-point load.
    X, Y = physical_quad_points(mesh, basis)
    pulse = GaussianPulse(amplitude=1.7, sigma=0.3, center=(0.4, 0.6))
    load_q = (1.0 + 2.0j) * np.cos(3.0 * X) * np.exp(1j * Y)
    ref["forcing"] = reference_load(ops, pulse.spatial(X, Y) / mat.kappa(X, Y))
    ref["complex_load"] = reference_load(ops, load_q)
    got = {
        "M_u": ops.M_u, "M_d1": ops.M_d1, "M_d0": ops.M_d0, "K": ops.K,
        "G_x": ops.G_x, "G_y": ops.G_y,
        "M_phid_x": ops.M_phid_x, "M_phid_y": ops.M_phid_y,
        "K_x": assemble_stiffness(mesh, basis, ops.dof_u, inv_rho, direction="x"),
        "K_y": assemble_stiffness(mesh, basis, ops.dof_u, inv_rho, direction="y"),
        "forcing": assemble_forcing_spatial(mesh, basis, mat, ops.dof_u, pulse.spatial),
        "complex_load": assemble_load(mesh, basis, ops.dof_u, load_q),
    }
    for name, A in got.items():
        err = relative_error(A, ref[name])
        assert err <= 1e-14, f"{name}: relative error {err:.3e}"
    assert relative_error(ops.R_v, R_v) <= 1e-14
    assert relative_error(ops.R_theta, R_theta) <= 1e-14

    # 1D lattice mass and stiffness, graded weight
    coef_1d = 1.0 + np.linspace(0.0, 1.0, mesh.ny * basis.quad.n).reshape(mesh.ny, -1)
    cells = np.arange(mesh.ny)[:, None] * p + np.arange(p + 1)
    n = mesh.ny * p + 1
    M1, K1 = (reference_scatter(cells, cells, einsum_blocks(basis.quad.weights, coef_1d,
                                                            table, table, scale), (n, n))
              for table, scale in ((basis.val1d, mesh.hy / 2.0), (basis.der1d, 2.0 / mesh.hy)))
    M1_got, K1_got = (lattice_matrix_1d(basis, coef_1d, scale, table)
                      for table, scale in ((basis.val1d, mesh.hy / 2.0),
                                           (basis.der1d, 2.0 / mesh.hy)))
    assert relative_error(M1_got, M1) <= 1e-14
    assert relative_error(K1_got, K1) <= 1e-14

    # projection_pi_p solves the system the einsum formula assembles
    s = 1.0 + 2.0j
    g = np.random.default_rng(p).standard_normal(ops.n_phi)
    gp = projection_pi_p(g, mesh, basis, ops.dof_phi, lambda x, y: 1.0 + x * y, s)
    Msd = np.einsum("q,eq,mq,nq->emn", basis.w2d, np.conj(s) + 1.0 + X * Y,
                    basis.val2d, basis.val2d)
    M0 = np.einsum("q,mq,nq->mn", basis.w2d, basis.val2d, basis.val2d)
    cells = ops.dof_phi.cell_dofs
    residual = np.einsum("emn,en->em", Msd, gp[cells]) - g[cells] @ M0.T
    assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(g[cells] @ M0.T))


@pytest.mark.parametrize("case", ["damped_dirichlet", "layered_impedance"])
def test_live_layer_matches_reference_assembly(case):
    # Round-off entries the GEMM adds where the einsum summed to exact zero
    # must not change which phi DOFs the stepper carries.
    if case == "damped_dirichlet":
        mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.125)
        ops = assemble_all(mesh, tensor_basis_tables(3), wavy_material(), interior_pml())
    else:
        mesh = build_cartesian_mesh((-3.0, 3.0, -3.0, 3.0), 0.5)
        pml = PmlConfig(delta=1.0, x_inner=2.0, y_inner=2.0, d0_x=4.0, d0_y=4.0)
        ops = assemble_all(mesh, tensor_basis_tables(2),
                           layered_material(interfaces=(-1.5, 1.5)), pml, r=0.5)
    ref = replace(ops, **{name: A for name, A in reference_operators(ops).items()
                          if name in ("G_x", "G_y", "M_phid_x", "M_phid_y")})
    live, live_ref = _live_phi_dofs(ops), _live_phi_dofs(ref)
    assert 0 < live.size < ops.n_phi
    assert np.array_equal(live, live_ref)
    assert WaveStepper(ops).n_state == WaveStepper(ref).n_state


def y_layered_material():
    """c 1.5 / 1 / 0.75 in bands split at y = 0.5 and 1, rho 2 below y = 1 and 0.5 above."""
    base = layered_material(speeds=(1.5, 1.0, 0.75), interfaces=(0.5, 1.0), rho=2.0)
    return replace(base, rho=lambda x, y: np.where(np.asarray(y) < 1.0, 2.0, 0.5)
                   + 0.0 * np.asarray(x))


@pytest.mark.parametrize("r", [-1.0, 1.0], ids=["interior", "full"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_lattice_matrices_are_the_kronecker_factors_of_m_u_and_k(p, r):
    # M_u = M_y(1/kappa) (x) M_x and K = M_y(1/rho) (x) K_x + K_y(1/rho) (x) M_x in the
    # (y, x) node order, for material varying only in y: unit-weight x factors, y
    # factors weighted at the y quadrature points; for r = -1 on the lattice
    # without its boundary nodes.
    mesh = build_cartesian_mesh((-1.0, 2.0, 0.0, 1.5), 0.5)
    basis = tensor_basis_tables(p)
    inner = slice(1, -1) if r == -1.0 else slice(None)
    y_q = mesh.elem_origin[::mesh.nx, 1:2] + (basis.quad.nodes + 1.0) * (mesh.hy / 2.0)

    def factors(n_el, h, weight):
        return [lattice_matrix_1d(basis, weight, scale, table)[inner, inner]
                for table, scale in ((basis.val1d, h / 2.0), (basis.der1d, 2.0 / h))]

    M_x, K_x = factors(mesh.nx, mesh.hx, np.ones((mesh.nx, p + 1)))
    for material in (homogeneous_material(c=1.5, rho=2.0), y_layered_material()):
        ops = assemble_all(mesh, basis, material, None, r=r)
        M_y, _ = factors(mesh.ny, mesh.hy, 1.0 / material.kappa(0.0 * y_q, y_q))
        M_y_rho, K_y = factors(mesh.ny, mesh.hy, 1.0 / material.rho(0.0 * y_q, y_q))
        keep = np.arange(ops.n_u)
        if r == -1.0:
            keep = np.setdiff1d(keep, ops.dof_u.boundary)
        assert M_x.shape[0] * M_y.shape[0] == keep.size
        assert relative_error(sp.kron(M_y, M_x), ops.M_u[keep][:, keep]) <= 1e-14
        assert relative_error(sp.kron(M_y_rho, K_x) + sp.kron(K_y, M_x),
                              ops.K[keep][:, keep]) <= 1e-14
