import numpy as np
import pytest
import scipy.sparse as sp

from pmlwave.assembly import assemble_all, eliminate_dirichlet, tensor_mass_inverse
from pmlwave.errors import NumericalError
from pmlwave.mesh import (MaterialField, build_cartesian_mesh, homogeneous_material,
                          layered_material, physical_quad_points)
from pmlwave.quadrature import tensor_basis_tables
from pmlwave.solvers import pcg

# A rectangle with nx != ny, so a transposed factor cannot pass.
RECT = ((-1.0, 2.0, -2.0, 2.0), 0.5)
# One element wide at p = 1: the pinned interior is empty.
STRIP = ((0.0, 1.0, 0.0, 3.0), 1.0)


def unit_rho(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


MATERIALS = {
    "homogeneous": homogeneous_material(c=1.3),
    "layered": layered_material(speeds=(1.25, 1.0, 0.75), interfaces=(-1.0, 1.0)),
    # Varies inside each element, so the y quadrature index must be kept apart.
    "graded": MaterialField(kappa=lambda x, y: 1.0 + 0.25 * (y + 0.0 * x) ** 2,
                            rho=unit_rho, interfaces=()),
}


def inverse_kappa(material):
    return lambda x, y: 1.0 / material.kappa(x, y)


def mass_case(material, p, domain, h, pinned):
    """(mesh, basis, M_u as assembled for the stepper) for one configuration."""
    mesh = build_cartesian_mesh(domain, h)
    basis = tensor_basis_tables(p)
    ops = assemble_all(mesh, basis, material, None, r=-1.0 if pinned else 1.0)
    M = eliminate_dirichlet(ops.M_u, ops.dirichlet, ops.n_u, diag=1.0) if pinned else ops.M_u
    return mesh, basis, M


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        return self.fn(r)


CASES = [(name, p, RECT, pinned) for name in MATERIALS for p in (1, 2, 3, 5)
         for pinned in (True, False)] + [("layered", 1, STRIP, True), ("layered", 1, STRIP, False)]


@pytest.mark.parametrize("name,p,geometry,pinned", CASES)
def test_tensor_inverse_matches_dense_solve_and_pcg_takes_one_step(name, p, geometry, pinned):
    material = MATERIALS[name]
    mesh, basis, M = mass_case(material, p, *geometry, pinned)
    P = Counted(tensor_mass_inverse(mesh, basis, inverse_kappa(material), pinned))
    b = np.random.default_rng(p).standard_normal(M.shape[0])
    exact = np.linalg.solve(M.toarray(), b)

    z = P(b)
    assert np.linalg.norm(z - exact) <= 1e-13 * np.linalg.norm(exact)

    P.calls = 0
    x, achieved = pcg(M, b, P)
    assert P.calls == 1
    assert achieved <= 1e-12
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_strip_interior_is_empty_and_precondition_is_identity():
    mesh, basis, M = mass_case(MATERIALS["layered"], 1, *STRIP, True)
    assert np.array_equal(M.toarray(), np.eye(M.shape[0]))
    P = tensor_mass_inverse(mesh, basis, inverse_kappa(MATERIALS["layered"]), True)
    b = np.arange(M.shape[0], dtype=float)
    z = P(b)
    assert np.array_equal(z, b) and z is not b


def test_weight_values_at_quadrature_points_match_callable():
    material = MATERIALS["layered"]
    mesh, basis, _ = mass_case(material, 2, *RECT, False)
    X, Y = physical_quad_points(mesh, basis)
    b = np.random.default_rng(0).standard_normal((mesh.nx * 2 + 1) * (mesh.ny * 2 + 1))
    by_fn = tensor_mass_inverse(mesh, basis, inverse_kappa(material), False)(b)
    by_values = tensor_mass_inverse(mesh, basis, 1.0 / material.kappa(X, Y), False)(b)
    assert np.array_equal(by_fn, by_values)


def non_separable():
    return MaterialField(kappa=lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y),
                         rho=unit_rho, interfaces=())


def test_non_separable_weight_still_converges():
    material = non_separable()
    mesh, basis, M = mass_case(material, 2, (-3.0, 3.0, -3.0, 3.0), 0.5, True)
    P = Counted(tensor_mass_inverse(mesh, basis, inverse_kappa(material), True))
    b = np.random.default_rng(1).standard_normal(M.shape[0])
    x, achieved = pcg(M, b, P)
    assert achieved <= 1e-12
    assert np.linalg.norm(b - M @ x) <= 1e-11 * np.linalg.norm(b)
    assert 1 < P.calls < 60

    with pytest.raises(NumericalError, match=r"achieved relative residual \d"):
        pcg(M, b, P, maxiter=1)


def test_pcg_stops_at_the_first_non_finite_residual():
    # A p overflows in the first iteration, so alpha = 0 and r - alpha A p is NaN.
    A = sp.diags([1e160, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite at iteration 1"):
            pcg(A, np.full(2, 1e150), np.copy)


def test_pcg_refuses_non_finite_rhs_and_returns_zero_for_zero_rhs():
    mesh, basis, M = mass_case(MATERIALS["homogeneous"], 1, *RECT, False)
    P = tensor_mass_inverse(mesh, basis, inverse_kappa(MATERIALS["homogeneous"]), False)
    b = np.ones(M.shape[0])
    for bad in (np.inf, np.nan):
        b[3] = bad
        with pytest.raises(NumericalError, match="not finite"):
            pcg(M, b, P)
    x, achieved = pcg(M, np.zeros(M.shape[0]), P)
    assert achieved == 0.0 and not np.any(x)


def test_non_positive_weight_is_refused():
    mesh = build_cartesian_mesh((0.0, 2.0, 0.0, 2.0), 0.5)
    basis = tensor_basis_tables(2)
    with pytest.raises(NumericalError, match="not SPD"):
        tensor_mass_inverse(mesh, basis, lambda x, y: np.where(y > 1.0, -1.0, 1.0), False)
