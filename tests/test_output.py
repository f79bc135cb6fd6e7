import csv

import numpy as np
import pytest

from pmlwave.mesh import build_cartesian_mesh, dof_map, homogeneous_material
from pmlwave.output import (export_snapshot, export_snapshot_csv,
                            export_snapshot_vtk, format_float,
                            uniform_lattice_values, write_csv)
from pmlwave.quadrature import tensor_basis_tables


def test_format_float_round_trips():
    for x in (1 / 3, 0.1, -2.5e-17, 1e300, 123456789.123456789, 0.0):
        assert float(format_float(x)) == x
    assert format_float(2.0) == "2"


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "sub" / "table.csv"
    rows = [[0.1, 3, "abc", True], [1 / 7, -2, "d,e", False]]
    write_csv(path, ["a", "b", "c", "d"], rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["a", "b", "c", "d"]
    assert float(got[1][0]) == 0.1 and float(got[2][0]) == 1 / 7
    assert got[1][1] == "3" and got[1][3] == "1" and got[2][3] == "0"
    assert got[2][2] == "d,e"


@pytest.fixture()
def q2_setup():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
    basis = tensor_basis_tables(2)
    dofmap = dof_map(mesh, 2, "continuous")
    return mesh, basis, dofmap


def test_uniform_lattice_values_exact_for_polynomial(q2_setup):
    mesh, basis, dofmap = q2_setup
    mat = homogeneous_material(1.0)
    f = lambda x, y: x**2 + 2 * x * y - y**2 + 0.5
    u = f(*dofmap.node_coords.T)
    lat = uniform_lattice_values(u, mesh, basis)
    assert lat.shape == (5, 5)
    xs = np.linspace(0, 1, 5)
    for jy, y in enumerate(xs):
        for ix, x in enumerate(xs):
            assert lat[jy, ix] == pytest.approx(f(x, y), abs=1e-11)


def test_snapshot_csv(tmp_path, q2_setup):
    mesh, basis, dofmap = q2_setup
    u = np.arange(dofmap.n_dofs, dtype=float)
    path = tmp_path / "snap.csv"
    export_snapshot_csv(u, dofmap, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["x", "y", "u"]
    assert len(got) - 1 == dofmap.n_dofs == 25
    # rows follow global dof order; dof 0 sits at the domain corner
    assert [float(v) for v in got[1]] == [0.0, 0.0, 0.0]
    assert float(got[-1][2]) == dofmap.n_dofs - 1


def test_snapshot_vtk(tmp_path, q2_setup):
    mesh, basis, dofmap = q2_setup
    mat = homogeneous_material(1.0)
    f = lambda x, y: x + 10 * y
    u = f(*dofmap.node_coords.T)
    path = tmp_path / "snap.vtk"
    export_snapshot_vtk(u, mesh, basis, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert "STRUCTURED_POINTS" in lines[3]
    assert lines[4].split() == ["DIMENSIONS", "5", "5", "1"]
    assert lines[5].split()[0] == "ORIGIN"
    spacing = [float(v) for v in lines[6].split()[1:]]
    assert spacing[0] == pytest.approx(0.25) and spacing[1] == pytest.approx(0.25)
    assert lines[7].split() == ["POINT_DATA", "25"]
    assert lines[8].split()[:2] == ["SCALARS", "u"]
    data = [float(v) for ln in lines[10:] for v in ln.split()]
    assert len(data) == 25
    # x varies fastest: entry 1 is (0.25, 0), entry 5 is (0, 0.25)
    assert data[1] == pytest.approx(0.25, abs=1e-12)
    assert data[5] == pytest.approx(2.5, abs=1e-12)


def test_export_snapshot_dispatch(tmp_path, q2_setup):
    mesh, basis, dofmap = q2_setup
    u = np.zeros(dofmap.n_dofs)
    export_snapshot(u, mesh, basis, dofmap, tmp_path / "a.csv", fmt="csv")
    export_snapshot(u, mesh, basis, dofmap, tmp_path / "a.vtk", fmt="vtk")
    assert (tmp_path / "a.csv").exists() and (tmp_path / "a.vtk").exists()
    with pytest.raises(ValueError, match="format"):
        export_snapshot(u, mesh, basis, dofmap, tmp_path / "a.xyz", fmt="xyz")


def test_uniform_lattice_values_match_per_element_loop():
    # The per-element evaluation the two 1D interpolation matrices replaced.
    from pmlwave.quadrature import lagrange_values_at

    mesh = build_cartesian_mesh((0.0, 1.5, 0.0, 1.0), 0.25)
    for p in (1, 3, 5):
        basis = tensor_basis_tables(p)
        dofmap = dof_map(mesh, p, "continuous")
        u = np.random.default_rng(p).standard_normal(dofmap.n_dofs)
        E1 = lagrange_values_at(basis.gll_nodes, np.linspace(-1.0, 1.0, p + 1))
        E2 = np.kron(E1, E1)
        ref = np.zeros((mesh.ny * p + 1, mesh.nx * p + 1))
        for e in range(mesh.n_elem):
            ex, ey = e % mesh.nx, e // mesh.nx
            ref[ey * p:ey * p + p + 1, ex * p:ex * p + p + 1] = \
                (u[dofmap.cell_dofs[e]] @ E2).reshape(p + 1, p + 1)
        got = uniform_lattice_values(u, mesh, basis)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
