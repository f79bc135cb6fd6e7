"""Cartesian quadrilateral meshes, DOF maps, and material fields.

Only axis-aligned rectangles with a uniform square grid: that is all the
experiments use, and uniformity is what lets the auxiliary-space mass
factorization be shared across elements. Element index e = ey*nx + ex with
ex fastest; continuous DOFs are numbered lexicographically by (y, x) node
coordinate so output orderings are reproducible.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .quadrature import MAX_ORDER, BasisQp, gauss_lobatto_nodes


@dataclass(frozen=True)
class MeshQ:
    """Uniform grid of square elements over [x0,x1] x [y0,y1]."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    hx: float
    hy: float
    elem_origin: np.ndarray     # (n_elem, 2) lower-left corner of each element
    boundary_edges: np.ndarray  # (n_bedge, 4): element, local edge, n_x, n_y

    @property
    def n_elem(self) -> int:
        return self.nx * self.ny

    @property
    def domain(self):
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class DofMap:
    """Global numbering for the continuous or the discontinuous Q_p space.

    cell_dofs[e, n] is the global index of local basis n = j*(p+1)+i on
    element e. node_coords holds the physical coordinates of every global
    DOF; boundary (continuous only) the sorted indices of DOFs on the
    domain boundary.
    """

    kind: str
    p: int
    n_dofs: int
    cell_dofs: np.ndarray
    node_coords: np.ndarray
    boundary: np.ndarray | None


@dataclass(frozen=True)
class MaterialField:
    """Pointwise material data kappa(x, y) > 0, rho(x, y) > 0.

    interfaces lists the horizontal lines where the wave speed jumps; the
    mesh must align element boundaries with them, after which quadrature
    points never sample an interface and the band classification at the
    lines themselves is immaterial.
    """

    kappa: Callable
    rho: Callable
    interfaces: tuple

    def wave_speed(self, x, y):
        return np.sqrt(self.kappa(x, y) / self.rho(x, y))


def homogeneous_material(c: float = 1.0, rho: float = 1.0) -> MaterialField:
    """Constant wave speed c and density rho; kappa = c^2 * rho."""
    if c <= 0 or rho <= 0:
        raise ValueError("wave speed and density must be positive")
    kap = c * c * rho

    def kappa_fn(x, y):
        return np.full_like(np.asarray(x, dtype=float), kap)

    def rho_fn(x, y):
        return np.full_like(np.asarray(x, dtype=float), rho)

    return MaterialField(kappa=kappa_fn, rho=rho_fn, interfaces=())


def layered_material(
    speeds=(1.25, 1.0, 0.75), interfaces=(-2.4, 2.4), rho: float = 1.0
) -> MaterialField:
    """Horizontal bands of constant wave speed, listed bottom to top.

    Defaults give c = 1.25 below y = -2.4, c = 1 in the middle band, and
    c = 0.75 above y = 2.4, with unit density throughout.
    """
    speeds = tuple(float(c) for c in speeds)
    interfaces = tuple(float(v) for v in interfaces)
    if len(speeds) != len(interfaces) + 1:
        raise ValueError("need exactly one more speed than interface lines")
    if any(c <= 0 for c in speeds) or rho <= 0:
        raise ValueError("wave speeds and density must be positive")
    if any(b <= a for a, b in zip(interfaces, interfaces[1:])):
        raise ValueError(f"interface lines must be strictly increasing, got {interfaces}")
    cuts = np.asarray(interfaces)
    cvals = np.asarray(speeds)

    def kappa_fn(x, y):
        y = np.asarray(y, dtype=float)
        band = np.searchsorted(cuts, y, side="right")
        return cvals[band] ** 2 * rho

    def rho_fn(x, y):
        return np.full_like(np.asarray(x, dtype=float), rho)

    return MaterialField(kappa=kappa_fn, rho=rho_fn, interfaces=interfaces)


def element_counts(domain, h: float) -> tuple:
    """Elements (nx, ny) of size h along the sides of domain = (x0, x1, y0, y1).

    Raise ConfigError unless both side lengths are integer multiples of h
    (to 1e-9 relative).
    """
    x0, x1, y0, y1 = (float(v) for v in domain)
    counts = []
    for name, length in (("x", x1 - x0), ("y", y1 - y0)):
        n = round(length / h)
        if n < 1 or abs(n * h - length) > 1e-9 * length:
            raise ConfigError(
                f"domain side {name} of length {length} is not an integer multiple "
                f"of element size h={h}"
            )
        counts.append(n)
    return tuple(counts)


def build_cartesian_mesh(domain, h: float) -> MeshQ:
    """Mesh the rectangle domain = (x0, x1, y0, y1) with square elements of size h.

    Both side lengths must be integer multiples of h (see element_counts).
    """
    x0, x1, y0, y1 = (float(v) for v in domain)
    if h <= 0:
        raise ValueError(f"element size must be positive, got {h}")
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"degenerate domain {domain}")
    nx, ny = element_counts(domain, h)
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny

    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    ex = ex.ravel()
    ey = ey.ravel()
    elem_origin = np.column_stack([x0 + ex * hx, y0 + ey * hy])

    edges = []
    for e in range(nx * ny):
        if ey[e] == 0:
            edges.append((e, 0, 0, -1))
        if ex[e] == nx - 1:
            edges.append((e, 1, 1, 0))
        if ey[e] == ny - 1:
            edges.append((e, 2, 0, 1))
        if ex[e] == 0:
            edges.append((e, 3, -1, 0))
    return MeshQ(
        x0=x0, x1=x1, y0=y0, y1=y1,
        nx=nx, ny=ny, hx=hx, hy=hy,
        elem_origin=elem_origin,
        boundary_edges=np.array(edges, dtype=int),
    )


def _node_lattice_1d(start: float, h: float, n_elem: int, gll: np.ndarray) -> np.ndarray:
    """Physical coordinates of the unique 1D node lattice: n_elem*p + 1 values."""
    p = len(gll) - 1
    xs = np.empty(n_elem * p + 1)
    for e in range(n_elem):
        xs[e * p : (e + 1) * p + 1] = start + e * h + (gll + 1.0) * (h / 2.0)
    xs[-1] = start + n_elem * h
    return xs


def dof_map(mesh: MeshQ, p: int, kind: str, gll: np.ndarray | None = None) -> DofMap:
    """Number the Q_p DOFs of the requested space on the mesh.

    Continuous: nodes on shared edges collapse to one global index, numbered
    lexicographically by (y, x). Discontinuous: element-major, (p+1)^2 per
    element, nothing shared. gll may be passed to reuse precomputed nodes.
    """
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"basis order must be in 1..{MAX_ORDER}, got {p}")
    if kind not in ("continuous", "discontinuous"):
        raise ValueError(f"unknown DOF map kind {kind!r}")
    if gll is None:
        gll = gauss_lobatto_nodes(p)
    nloc = (p + 1) ** 2
    n_elem = mesh.n_elem
    loc_j, loc_i = np.divmod(np.arange(nloc), p + 1)

    if kind == "discontinuous":
        cell = (np.arange(n_elem)[:, None] * nloc + np.arange(nloc)[None, :]).astype(np.int64)
        offx = (gll[loc_i] + 1.0) * (mesh.hx / 2.0)
        offy = (gll[loc_j] + 1.0) * (mesh.hy / 2.0)
        coords = np.empty((n_elem * nloc, 2))
        coords[:, 0] = (mesh.elem_origin[:, 0:1] + offx[None, :]).ravel()
        coords[:, 1] = (mesh.elem_origin[:, 1:2] + offy[None, :]).ravel()
        return DofMap(kind=kind, p=p, n_dofs=n_elem * nloc, cell_dofs=cell,
                      node_coords=coords, boundary=None)

    npx = mesh.nx * p + 1
    npy = mesh.ny * p + 1
    ex = np.arange(n_elem) % mesh.nx
    ey = np.arange(n_elem) // mesh.nx
    gx = ex[:, None] * p + loc_i[None, :]
    gy = ey[:, None] * p + loc_j[None, :]
    cell = (gy * npx + gx).astype(np.int64)

    xs = _node_lattice_1d(mesh.x0, mesh.hx, mesh.nx, gll)
    ys = _node_lattice_1d(mesh.y0, mesh.hy, mesh.ny, gll)
    coords = np.empty((npx * npy, 2))
    coords[:, 0] = np.tile(xs, npy)
    coords[:, 1] = np.repeat(ys, npx)

    gxx = np.arange(npx * npy) % npx
    gyy = np.arange(npx * npy) // npx
    on_boundary = (gxx == 0) | (gxx == npx - 1) | (gyy == 0) | (gyy == npy - 1)
    return DofMap(kind=kind, p=p, n_dofs=npx * npy, cell_dofs=cell,
                  node_coords=coords, boundary=np.flatnonzero(on_boundary))


def check_interfaces_on_grid(domain, h: float, interfaces) -> None:
    """Raise ConfigError unless every interface y = c lies on a line of the h-grid over domain.

    Interfaces outside the domain cut no element and are ignored.
    """
    y0, y1 = float(domain[2]), float(domain[3])
    for yv in interfaces:
        if yv < y0 - 1e-12 or yv > y1 + 1e-12:
            continue
        k = round((yv - y0) / h)
        nearest = y0 + k * h
        if abs(yv - nearest) > 1e-9 * h:
            raise ConfigError(
                f"material interface y={yv} does not align with the mesh; "
                f"nearest mesh line is y={nearest}"
            )


def check_interface_alignment(mesh: MeshQ, material: MaterialField) -> None:
    """check_interfaces_on_grid for the lines of a built mesh."""
    check_interfaces_on_grid(mesh.domain, mesh.hy, material.interfaces)


def physical_quad_points(mesh: MeshQ, basis: BasisQp):
    """Physical coordinates of all quadrature points: two (n_elem, n_q) arrays."""
    q = basis.quad.nodes
    n1 = len(q)
    a = np.tile(q, n1)        # xi index fastest
    b = np.repeat(q, n1)
    X = mesh.elem_origin[:, 0:1] + (a[None, :] + 1.0) * (mesh.hx / 2.0)
    Y = mesh.elem_origin[:, 1:2] + (b[None, :] + 1.0) * (mesh.hy / 2.0)
    return X, Y


def constant_material(mesh: MeshQ, basis: BasisQp, material: MaterialField):
    """(kappa, rho) as floats when both are constant at the quadrature points of mesh, or None."""
    points = physical_quad_points(mesh, basis)
    kappa, rho = (np.asarray(coef(*points), dtype=float)
                  for coef in (material.kappa, material.rho))
    if np.ptp(kappa) != 0.0 or np.ptp(rho) != 0.0:
        return None
    return float(kappa.flat[0]), float(rho.flat[0])


def nodes_in_box(dofmap: DofMap, box, tol: float = 1e-9) -> np.ndarray:
    """Indices of DOF nodes inside box = (x0, x1, y0, y1), inclusive.

    Order follows the global numbering, so two meshes sharing node
    coordinates inside the box list them identically.
    """
    bx0, bx1, by0, by1 = box
    x = dofmap.node_coords[:, 0]
    y = dofmap.node_coords[:, 1]
    mask = (x >= bx0 - tol) & (x <= bx1 + tol) & (y >= by0 - tol) & (y <= by1 + tol)
    return np.nonzero(mask)[0]
