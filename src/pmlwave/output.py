"""Writers for experiment output: CSV tables and legacy-ASCII VTK snapshots.

Floats in CSV are written with 17 significant digits so a round trip through
the file reproduces the binary value. Snapshots go out either as x,y,u rows
over the solution nodes or as a VTK STRUCTURED_POINTS field resampled on the
uniform lattice with (nx*p+1) x (ny*p+1) points, which renders directly in
ParaView.
"""

import csv
import os

import numpy as np
import scipy.sparse as sp

from .mesh import DofMap, MeshQ
from .quadrature import BasisQp, lagrange_values_at


def format_float(x) -> str:
    return f"{float(x):.17g}"


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write rows of mixed values; floats get the full-precision format."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def uniform_lattice_values(u: np.ndarray, mesh: MeshQ, basis: BasisQp) -> np.ndarray:
    """Evaluate the FE field on the uniform (nx*p+1) x (ny*p+1) lattice.

    The lattice subdivides every element into p equal intervals per axis, so
    lattice points on element boundaries are shared; continuity makes the
    value there unambiguous. u is the (ny*p+1, nx*p+1) nodal array of the
    continuous space; one 1D interpolation matrix per axis maps it to the
    lattice. Returned array is indexed [jy, ix].
    """
    p = basis.p
    # 1D evaluation of the nodal basis at p+1 equispaced reference points
    E1 = lagrange_values_at(basis.gll_nodes, np.linspace(-1.0, 1.0, p + 1))

    def interpolation(n_el):
        # Shared end points get the same unit row from both elements.
        idx = np.arange(n_el)[:, None] * p + np.arange(p + 1)
        dense = np.zeros((n_el * p + 1, n_el * p + 1))
        dense[idx[:, :, None], idx[:, None, :]] = E1.T
        return sp.csr_matrix(dense)

    nodal = np.asarray(u).reshape(mesh.ny * p + 1, mesh.nx * p + 1)
    return (interpolation(mesh.nx) @ (interpolation(mesh.ny) @ nodal).T).T


def export_snapshot_csv(u: np.ndarray, dofmap: DofMap, path) -> None:
    """x,y,u rows over all solution nodes in global dof order."""
    rows = zip(dofmap.node_coords[:, 0], dofmap.node_coords[:, 1], u)
    write_csv(path, ["x", "y", "u"], rows)


def export_snapshot_vtk(u: np.ndarray, mesh: MeshQ, basis: BasisQp, path) -> None:
    """Legacy-ASCII VTK STRUCTURED_POINTS snapshot on the uniform lattice."""
    vals = uniform_lattice_values(u, mesh, basis)
    nyp, nxp = vals.shape
    sx = (mesh.x1 - mesh.x0) / (nxp - 1)
    sy = (mesh.y1 - mesh.y0) / (nyp - 1)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("wave field snapshot\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {nxp} {nyp} 1\n")
        fh.write(f"ORIGIN {format_float(mesh.x0)} {format_float(mesh.y0)} 0\n")
        fh.write(f"SPACING {format_float(sx)} {format_float(sy)} 1\n")
        fh.write(f"POINT_DATA {nxp * nyp}\n")
        fh.write("SCALARS u double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for row in vals:  # x fastest, matching VTK point order
            fh.write(" ".join(format_float(v) for v in row) + "\n")


def export_snapshot(u: np.ndarray, mesh: MeshQ, basis: BasisQp, dofmap: DofMap,
                    path, fmt: str = "csv") -> None:
    if fmt == "csv":
        export_snapshot_csv(u, dofmap, path)
    elif fmt == "vtk":
        export_snapshot_vtk(u, mesh, basis, path)
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}; use 'csv' or 'vtk'")
