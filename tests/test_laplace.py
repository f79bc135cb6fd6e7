from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la

from pmlwave.assembly import assemble_stiffness, assemble_weighted_mass, eliminate_dirichlet
from pmlwave.errors import ConfigError, NumericalError
from pmlwave.laplace import (assemble_reduced, data_energy,
                             energy_inequality_check, interior_energy_bound,
                             manufactured_convergence,
                             projection_pi_p, quadrature_point_interpolant,
                             solution_energy, solve)
from pmlwave.mesh import (build_cartesian_mesh, dof_map, homogeneous_material,
                          physical_quad_points)
from pmlwave.quadrature import tensor_basis_tables

from oracles import OracleProblem


def unit_mesh(h=0.25):
    return build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), h)


def dense(op):
    """The operator as a dense matrix, one column per unit vector."""
    return op @ np.eye(op.shape[1])


def eliminate(A_dense, boundary):
    out = A_dense.copy()
    out[boundary, :] = 0.0
    out[:, boundary] = 0.0
    out[boundary, boundary] = 1.0
    return out


def test_zero_damping_gives_plain_helmholtz_operator():
    mesh = unit_mesh()
    basis = tensor_basis_tables(2)
    mat = homogeneous_material()
    s = 1.5 + 2.5j
    system = assemble_reduced(mesh, basis, mat, s, 0.0, 0.0)
    expect = eliminate(s * s * dense(system.M_u) + (dense(system.K_x) + dense(system.K_y)),
                       system.dof_u.boundary)
    err = np.max(np.abs(dense(system.A) - expect))
    assert err <= 1e-13
    assert system.S_x == 1.0 and system.S_y == 1.0


def test_real_frequency_zero_damping_operator_is_real():
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(1)
    system = assemble_reduced(mesh, basis, homogeneous_material(), 2.0 + 0.0j, 0.0, 0.0)
    assert np.max(np.abs(dense(system.A).imag)) == 0.0


@pytest.mark.parametrize("p", [1, 2])
def test_component_matrices_match_oracle(p):
    domain = (0.0, 1.0, 0.0, 1.0)
    mesh = build_cartesian_mesh(domain, 0.5)
    basis = tensor_basis_tables(p)
    mat = homogeneous_material()
    system = assemble_reduced(mesh, basis, mat, 1.0 + 1.0j, 2.0, 3.0)
    zero = lambda x, y: 0.0
    oracle = OracleProblem(domain, 2, 2, p, lambda x, y: 1.0, lambda x, y: 1.0,
                           zero, zero)
    ref = oracle.matrices()
    for name, got in (("M_u", system.M_u), ("K_x", system.K_x), ("K_y", system.K_y)):
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(dense(got) - ref[name])) <= 1e-12 * scale


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kronecker_matrices_match_element_assembly(p):
    # The slow reference: M_u, K_x, K_y and the Dirichlet-eliminated A element by
    # element, on a non-square domain with nx != ny, non-unit kappa and rho, complex s
    # and d_x != d_y.
    mesh = build_cartesian_mesh((-1.0, 2.0, 0.0, 1.5), 0.25)
    assert mesh.nx != mesh.ny
    basis = tensor_basis_tables(p)
    material = homogeneous_material(c=1.5, rho=2.0)
    s = 0.7 + 2.0j
    system = assemble_reduced(mesh, basis, material, s, 1.0, 3.0)
    inv_rho = lambda x, y: 1.0 / material.rho(x, y)
    expect = {
        "M_u": assemble_weighted_mass(mesh, basis, system.dof_u,
                                      lambda x, y: 1.0 / material.kappa(x, y)),
        "K_x": assemble_stiffness(mesh, basis, system.dof_u, inv_rho, direction="x"),
        "K_y": assemble_stiffness(mesh, basis, system.dof_u, inv_rho, direction="y"),
    }
    Sx, Sy = system.S_x, system.S_y
    expect["A"] = eliminate_dirichlet(
        (s * s * Sx * Sy) * expect["M_u"] + (Sy / Sx) * expect["K_x"] + (Sx / Sy) * expect["K_y"],
        system.dof_u.boundary, system.dof_u.n_dofs)
    for name, ref in expect.items():
        got = getattr(system, name)
        assert got.shape == ref.shape
        assert abs(dense(got) - ref).max() <= 1e-14 * abs(ref).max(), name
    # ||A||_inf from the distinct band rows of the 1D factors, against every row of |A|.
    norm = abs(expect["A"]).sum(axis=1).max()
    assert abs(system.norm_A - norm) <= 1e-14 * norm


def test_reduced_operator_composition():
    # A is exactly s^2 Sx Sy M + (Sy/Sx) K_x + (Sx/Sy) K_y after elimination.
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(2)
    s, dx, dy = 0.7 + 3.0j, 4.0, 1.0
    system = assemble_reduced(mesh, basis, homogeneous_material(), s, dx, dy)
    Sx, Sy = system.S_x, system.S_y
    A0 = (s * s * Sx * Sy) * dense(system.M_u) \
        + (Sy / Sx) * dense(system.K_x) + (Sx / Sy) * dense(system.K_y)
    expect = eliminate(A0, system.dof_u.boundary)
    assert np.max(np.abs(dense(system.A) - expect)) <= 1e-13


def test_assemble_reduced_validation():
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(1)
    mat = homogeneous_material()
    with pytest.raises(ValueError):
        assemble_reduced(mesh, basis, mat, -1.0 + 1.0j, 0.0, 0.0)
    with pytest.raises(ValueError):
        assemble_reduced(mesh, basis, mat, 1.0 + 0.0j, -2.0, 0.0)
    with pytest.raises(ConfigError):
        assemble_reduced(mesh, basis, mat, 1.0 + 0.0j, lambda x: x, 0.0)


def test_solve_residual_and_boundary():
    mesh = unit_mesh()
    basis = tensor_basis_tables(2)
    system = assemble_reduced(mesh, basis, homogeneous_material(), 1.0 + 4.0j, 3.0, 0.5)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(system.M_u.shape[0]) + 1j * rng.standard_normal(system.M_u.shape[0])
    u = solve(system, b)
    assert np.all(u[system.dof_u.boundary] == 0.0)
    b_eff = b.copy()
    b_eff[system.dof_u.boundary] = 0.0
    res = np.linalg.norm(system.A @ u - b_eff) / np.linalg.norm(b_eff)
    assert res <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_solve_matches_dense_solve_on_indefinite_system(p):
    # Im s > Re s makes Re s^2 < 0, so the mass term pulls A(s) indefinite.
    mesh = unit_mesh()
    system = assemble_reduced(mesh, tensor_basis_tables(p), homogeneous_material(),
                              0.5 + 3.0j, 5.0, 5.0)
    rng = np.random.default_rng(p)
    n = system.A.shape[0]
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b[system.dof_u.boundary] = 0.0
    expect = np.linalg.solve(dense(system.A), b)
    u = solve(system, b)
    assert np.max(np.abs(u - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_solve_refuses_an_inaccurate_factor():
    # A slightly wrong eigenvector factor or divisor still yields finite values;
    # the check against the assembled A must catch either.
    system = assemble_reduced(unit_mesh(), tensor_basis_tables(2), homogeneous_material(),
                              1.0 + 4.0j, 3.0, 0.5)
    b = np.random.default_rng(4).standard_normal(system.A.shape[0])
    solve(system, b)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(system.V_x.shape)
    noise[[0, -1]] = 0.0  # keep the boundary rows zero: only accuracy suffers
    scale = 1.0 + 1e-6 * rng.standard_normal(system.divisor.shape)
    for corrupted in (replace(system, V_x=system.V_x + 1e-6 * noise),
                      replace(system, divisor=system.divisor * scale)):
        with pytest.raises(NumericalError, match="backward error"):
            solve(corrupted, b)


def test_solve_checks_against_the_mass_and_stiffness_factors():
    # The solve never reads K_x1; only the backward-error check does, so a corrupted
    # K_x1 leaves the solution as it was and must fail the check.
    system = assemble_reduced(unit_mesh(), tensor_basis_tables(2), homogeneous_material(),
                              1.0 + 4.0j, 3.0, 0.5)
    b = np.random.default_rng(4).standard_normal(system.A.shape[0])
    with pytest.raises(NumericalError, match="backward error"):
        solve(replace(system, K_x1=system.K_x1 * (1.0 + 1e-6)), b)


@pytest.mark.parametrize("varies", ["x", "y"])
def test_assemble_reduced_refuses_varying_material(varies):
    base = homogeneous_material(c=1.5, rho=2.0)
    ramp = (lambda x, y: 1.0 + x) if varies == "x" else (lambda x, y: 1.0 + y)
    for material in (replace(base, kappa=lambda x, y: base.kappa(x, y) * ramp(x, y)),
                     replace(base, rho=lambda x, y: base.rho(x, y) * ramp(x, y))):
        with pytest.raises(ConfigError, match="constant material"):
            assemble_reduced(unit_mesh(0.5), tensor_basis_tables(1), material,
                             1.0 + 1.0j, 0.0, 0.0)


def test_polynomial_manufactured_solution_is_exact():
    # u* = x(1-x)y(1-y) lives in Q2 and vanishes on the boundary, so with
    # constant stretches the discrete solution reproduces it exactly.
    mesh = unit_mesh()
    basis = tensor_basis_tables(2)
    mat = homogeneous_material()
    s, dx, dy = 1.0 + 2.0j, 3.0, 1.5
    system = assemble_reduced(mesh, basis, mat, s, dx, dy)
    Sx, Sy = system.S_x, system.S_y

    dm = system.dof_u
    x, y = dm.node_coords[:, 0], dm.node_coords[:, 1]
    u_star = x * (1 - x) * y * (1 - y)

    from pmlwave.assembly import assemble_weighted_mass
    from pmlwave.mesh import physical_quad_points

    # strong form load F = s^2 Sx Sy u* - (Sy/Sx) u*_xx - (Sx/Sy) u*_yy
    X, Y = physical_quad_points(mesh, basis)
    f_xx = -2.0 * (Y * (1 - Y))
    f_yy = -2.0 * (X * (1 - X))
    u_q = X * (1 - X) * Y * (1 - Y)
    Fq = (s * s * Sx * Sy) * u_q - (Sy / Sx) * f_xx - (Sx / Sy) * f_yy
    J = mesh.hx * mesh.hy / 4.0
    b = np.zeros(dm.n_dofs, dtype=complex)
    for e in range(mesh.n_elem):
        loc = J * (basis.val2d @ (basis.w2d * Fq[e]))
        np.add.at(b, dm.cell_dofs[e], loc)
    u = solve(system, b)
    assert np.max(np.abs(u - u_star)) <= 1e-10


def test_energy_inequality_deterministic_cases():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 6.0)
    mat = homogeneous_material()
    rng = np.random.default_rng(11)
    for p in (1, 2):
        basis = tensor_basis_tables(p)
        for (a, b_im, d) in ((0.5, 5.0, 0.0), (2.0, -3.0, 1.0), (1.0, 0.5, 5.0)):
            system = assemble_reduced(mesh, basis, mat, complex(a, b_im), d, d)
            f = rng.standard_normal(system.M_u.shape[0])
            lhs, rhs, margin = energy_inequality_check(system, f)
            assert margin >= -1e-10 * rhs
            assert lhs >= 0.0 and rhs >= 0.0


@pytest.mark.parametrize("s, d_x, d_y", [(10.0 + 0.0j, 0.0, 0.0), (0.5 + 5.0j, 1.0, 5.0),
                                          (0.01 + 5.68j, 0.0, 0.0), (2.0 - 3.0j, 5.0, 0.0)])
def test_interior_energy_bound_is_the_sup_over_interior_data(s, d_x, d_y):
    # Brute force: the sup of E_u / E_f over data f vanishing on the boundary is the
    # largest generalized eigenvalue of (T^H G T, M_II), T mapping f to u through a
    # dense solve and G the energy form of E_u^2. s = 0.01 + 5.68i sits next to the
    # lowest mode (omega 5.680), where the sup is close to 1/sqrt(2).
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.5), 0.5)
    system = assemble_reduced(mesh, tensor_basis_tables(2), homogeneous_material(c=1.5, rho=2.0),
                              s, d_x, d_y)
    inner = np.setdiff1d(np.arange(system.A.shape[0]), system.dof_u.boundary)
    load = dense(system.M_u)[:, inner]
    load[system.dof_u.boundary] = 0.0
    T = np.linalg.solve(dense(system.A), load)
    G = (abs(s) ** 2 * dense(system.M_u) + dense(system.K_x) / abs(system.S_x) ** 2
         + dense(system.K_y) / abs(system.S_y) ** 2)
    M_II = dense(system.M_u)[np.ix_(inner, inner)]
    top = la.eigh(T.conj().T @ G @ T, M_II, eigvals_only=True)[-1]
    expect = s.real * np.sqrt(top)
    assert interior_energy_bound(system) == pytest.approx(expect, rel=1e-10)
    assert interior_energy_bound(system) <= 2.0


def test_energies_are_norms():
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(1)
    system = assemble_reduced(mesh, basis, homogeneous_material(), 1.0 + 1.0j, 1.0, 0.0)
    u = np.ones(system.M_u.shape[0], dtype=complex)
    assert solution_energy(system, u) > 0
    assert data_energy(system, 2.0 * u) == pytest.approx(2.0 * data_energy(system, u))
    assert solution_energy(system, 0.0 * u) == 0.0


@pytest.mark.parametrize("d", [0.0, 3.0])
def test_manufactured_convergence_orders(d):
    res = manufactured_convergence(1, (0.25, 0.125), 1.0 + 1.0j, d_x=d, d_y=d)
    assert res["error"][1] < res["error"][0]
    assert res["order"][0] == pytest.approx(2.0, abs=0.3)


def test_manufactured_convergence_needs_two_meshes():
    with pytest.raises(ValueError):
        manufactured_convergence(1, (0.25,), 1.0 + 1.0j)


def test_interpolant_roundtrip_and_aliasing():
    basis = tensor_basis_tables(2)
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(basis.n_loc)
    rec = quadrature_point_interpolant(coef @ basis.val2d, basis)
    assert np.max(np.abs(rec - coef)) <= 1e-11
    # a non-polynomial sampled at the points aliases to the interpolant
    # whose point values match exactly
    vals = np.sin(3.0 * basis.quad.nodes)  # arbitrary 1D data tensorized
    vals2 = np.repeat(vals, basis.quad.n)
    coef2 = quadrature_point_interpolant(vals2, basis)
    assert np.max(np.abs(coef2 @ basis.val2d - vals2)) <= 1e-12
    with pytest.raises(ValueError):
        quadrature_point_interpolant(np.zeros(5), basis)


def test_projection_constant_damping_is_scalar_division():
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(2)
    dm = dof_map(mesh, 2, "discontinuous")
    rng = np.random.default_rng(8)
    g = rng.standard_normal(dm.n_dofs)
    s = 2.0 + 3.0j
    d_const = 1.75
    gp = projection_pi_p(g, mesh, basis, dm, lambda x, y: d_const + 0.0 * x, s)
    assert np.max(np.abs(gp - g / (np.conj(s) + d_const))) <= 1e-12


def test_projection_validation():
    mesh = unit_mesh(0.5)
    basis = tensor_basis_tables(1)
    dm_cont = dof_map(mesh, 1, "continuous")
    with pytest.raises(ValueError):
        projection_pi_p(np.zeros(dm_cont.n_dofs), mesh, basis, dm_cont,
                        lambda x, y: 0.0 * x, 1.0 + 0.0j)
    dm = dof_map(mesh, 1, "discontinuous")
    with pytest.raises(ValueError):
        projection_pi_p(np.zeros(dm.n_dofs), mesh, basis, dm,
                        lambda x, y: 0.0 * x, -1.0 + 0.0j)


def test_projection_matches_per_element_reference():
    mesh = build_cartesian_mesh((0.0, 1.5, 0.0, 1.0), 0.25)
    basis = tensor_basis_tables(3)
    dm = dof_map(mesh, 3, "discontinuous")
    g = np.random.default_rng(9).standard_normal(dm.n_dofs)
    s = 0.7 - 2.0j

    def d_fn(x, y):
        return 4.0 * x * x + np.sin(3.0 * y)

    gp = projection_pi_p(g, mesh, basis, dm, d_fn, s)
    X, Y = physical_quad_points(mesh, basis)
    M0 = np.einsum("q,mq,nq->mn", basis.w2d, basis.val2d, basis.val2d)
    for e, cells in enumerate(dm.cell_dofs):
        weights = basis.w2d * (np.conj(s) + d_fn(X[e], Y[e]))
        Msd = np.einsum("q,mq,nq->mn", weights, basis.val2d, basis.val2d)
        expect = np.linalg.solve(Msd, M0 @ g[cells])
        assert np.max(np.abs(gp[cells] - expect)) <= 1e-13 * np.max(np.abs(expect))
