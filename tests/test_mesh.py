import numpy as np
import pytest

from pmlwave.errors import ConfigError
from pmlwave.mesh import (build_cartesian_mesh, check_interfaces_on_grid,
                          dof_map, homogeneous_material,
                          layered_material, nodes_in_box, physical_quad_points)
from pmlwave.quadrature import gauss_lobatto_nodes, tensor_basis_tables


def test_build_mesh_counts():
    mesh = build_cartesian_mesh((-6, 6, -3, 3), 0.6)
    assert (mesh.nx, mesh.ny) == (20, 10)
    assert mesh.n_elem == 200
    assert mesh.hx == pytest.approx(0.6)
    assert mesh.hy == pytest.approx(0.6)
    assert mesh.domain == (-6, 6, -3, 3)


def test_build_mesh_rejects_nondivisible():
    with pytest.raises(ConfigError, match="x"):
        build_cartesian_mesh((0, 1, 0, 2), 0.3)
    with pytest.raises(ConfigError, match="y"):
        build_cartesian_mesh((0, 0.6, 0, 1), 0.3)


def test_boundary_edges_cover_perimeter():
    mesh = build_cartesian_mesh((0, 1, 0, 1), 0.25)
    # 4 sides x 4 elements per side
    assert len(mesh.boundary_edges) == 16
    for e, edge, nx, ny in mesh.boundary_edges:
        assert abs(nx) + abs(ny) == 1


def _loop_boundary_edges(mesh):
    edges = []
    for e in range(mesh.n_elem):
        ey, ex = divmod(e, mesh.nx)
        if ey == 0:
            edges.append((e, 0, 0, -1))
        if ex == mesh.nx - 1:
            edges.append((e, 1, 1, 0))
        if ey == mesh.ny - 1:
            edges.append((e, 2, 0, 1))
        if ex == 0:
            edges.append((e, 3, -1, 0))
    return np.array(edges, dtype=int)


def _loop_lattice(start, h, n_elem, gll):
    p = len(gll) - 1
    xs = np.empty(n_elem * p + 1)
    for e in range(n_elem):
        xs[e * p : (e + 1) * p + 1] = start + e * h + (gll + 1.0) * (h / 2.0)
    xs[-1] = start + n_elem * h
    return xs


@pytest.mark.parametrize("domain, h", [((0, 1, 0, 1), 0.25), ((-6.6, 6.6, -6.6, 6.6), 0.6),
                                       ((0, 0.5, 0, 2.0), 0.5), ((0, 3.0, 0, 0.5), 0.5)],
                         ids=["square", "small-profile", "column", "row"])
def test_mesh_arrays_match_per_element_loops(domain, h):
    # element-major edge order, and the same node arithmetic, bit for bit
    mesh = build_cartesian_mesh(domain, h)
    assert np.array_equal(mesh.boundary_edges, _loop_boundary_edges(mesh))
    for p in (1, 2, 5):
        gll = gauss_lobatto_nodes(p)
        xs = _loop_lattice(mesh.x0, mesh.hx, mesh.nx, gll)
        ys = _loop_lattice(mesh.y0, mesh.hy, mesh.ny, gll)
        coords = dof_map(mesh, p, "continuous").node_coords
        assert np.array_equal(coords[:, 0], np.tile(xs, len(ys)))
        assert np.array_equal(coords[:, 1], np.repeat(ys, len(xs)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dofmap_continuous(p):
    mesh = build_cartesian_mesh((0, 1, 0, 1), 0.5)
    dm = dof_map(mesh, p, "continuous")
    n1 = 2 * p + 1
    assert dm.n_dofs == n1 * n1
    assert dm.cell_dofs.shape == (4, (p + 1) ** 2)
    # shared edge between elements 0 and 1: right edge of 0 == left edge of 1
    right = [j * (p + 1) + p for j in range(p + 1)]
    left = [j * (p + 1) for j in range(p + 1)]
    assert np.array_equal(dm.cell_dofs[0, right], dm.cell_dofs[1, left])
    # node coordinates are lexicographic in (y, x)
    coords = dm.node_coords
    order = np.lexsort((coords[:, 0], coords[:, 1]))
    assert np.array_equal(order, np.arange(dm.n_dofs))
    # boundary count: all lattice nodes on the perimeter
    assert len(dm.boundary) == 4 * n1 - 4


def test_dofmap_discontinuous():
    mesh = build_cartesian_mesh((0, 1, 0, 1), 0.5)
    dm = dof_map(mesh, 2, "discontinuous")
    assert dm.n_dofs == 4 * 9
    assert np.array_equal(dm.cell_dofs.ravel(), np.arange(36))


def test_dofmap_rejects_unknown_kind():
    mesh = build_cartesian_mesh((0, 1, 0, 1), 0.5)
    with pytest.raises(ValueError):
        dof_map(mesh, 1, "mixed")


def test_homogeneous_material():
    mat = homogeneous_material(c=2.0, rho=3.0)
    assert mat.kappa(0.0, 0.0) == pytest.approx(12.0)  # kappa = c^2 rho
    assert mat.rho(1.0, 1.0) == pytest.approx(3.0)
    assert mat.wave_speed(0.5, -0.5) == pytest.approx(2.0)
    assert mat.interfaces == ()


def test_layered_material_bands():
    mat = layered_material(speeds=(1.25, 1.0, 0.75), interfaces=(-2.4, 2.4))
    y = np.array([-5.0, -2.5, 0.0, 2.5, 5.0])
    c = mat.wave_speed(np.zeros_like(y), y)
    assert np.allclose(c, [1.25, 1.25, 1.0, 0.75, 0.75])
    assert np.allclose(mat.kappa(0.0, 0.0), 1.0)  # c=1, rho=1 band
    assert mat.interfaces == (-2.4, 2.4)
    assert mat.max_wave_speed(-2.4, 6.0) == 1.0   # the c = 1.25 band ends at y0
    assert mat.max_wave_speed(-2.41, 6.0) == 1.25
    assert mat.max_wave_speed(2.4, 3.0) == 0.75
    thin = layered_material(speeds=(1.0, 3.0, 1.0), interfaces=(1.0, 1.02))
    assert thin.max_wave_speed(-6.0, 6.0) == 3.0
    assert thin.max_wave_speed(-6.0, 1.0) == 1.0   # ends where the fast band starts
    assert homogeneous_material(c=2.0).max_wave_speed(0.0, 1.0) == 2.0


def test_interface_alignment():
    check_interfaces_on_grid((-6, 6, -6, 6), 0.6, (-2.4, 2.4))
    with pytest.raises(ConfigError, match="2.4"):
        check_interfaces_on_grid((-6, 6, -6, 6), 0.5, (-2.4, 2.4))
    # interfaces outside the domain never constrain the mesh
    check_interfaces_on_grid((0, 1, 0, 1), 0.5, (100.0,))


def test_physical_quad_points():
    mesh = build_cartesian_mesh((0, 2, 0, 1), 0.5)
    basis = tensor_basis_tables(2)
    X, Y = physical_quad_points(mesh, basis)
    assert X.shape == (mesh.n_elem, 9)
    assert np.all(X >= 0) and np.all(X <= 2) and np.all(Y >= 0) and np.all(Y <= 1)
    # element 0 spans [0, 0.5]^2; its points must stay inside
    assert np.all(X[0] < 0.5) and np.all(Y[0] < 0.5)
    # quadrature index q = b*(p+1)+a with a (the x node index) fastest
    g = np.sort(np.unique(np.round(X[0], 12)))
    assert np.allclose(X[0][:3], g)


def test_boxes():
    mesh = build_cartesian_mesh((-1, 1, -1, 1), 0.5)
    dm = dof_map(mesh, 1, "continuous")
    idx = nodes_in_box(dm, (-0.5, 0.5, -0.5, 0.5))
    assert idx.shape == (9,)
    assert np.all(np.abs(dm.node_coords[idx]) <= 0.5 + 1e-12)
    # inclusive on the box boundary
    assert nodes_in_box(dm, (-1, 1, -1, 1)).size == dm.n_dofs
