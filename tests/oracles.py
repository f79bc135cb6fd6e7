"""Independent dense assembly oracle.

Everything here is computed with explicit scalar loops, numpy's own
Gauss-Legendre rule (numpy.polynomial.legendre.leggauss) and Lobatto nodes
from the roots of the Legendre-derivative polynomial, so it shares no code
path with the package's vectorized assembly. The package takes its rules
from the same numpy routines, but its Lagrange tables come from a Legendre
Vandermonde inverse, not from the product formulas lag and dlag below.
Dense matrices only; meant for tiny meshes.
"""

import numpy as np
from numpy.polynomial import legendre as npleg


def oracle_gl_rule(n: int):
    return npleg.leggauss(n)


def oracle_gll_nodes(p: int) -> np.ndarray:
    if p == 1:
        return np.array([-1.0, 1.0])
    coef = np.zeros(p + 1)
    coef[p] = 1.0
    dcoef = npleg.legder(coef)
    interior = np.sort(np.real(npleg.legroots(dcoef)))
    return np.concatenate([[-1.0], interior, [1.0]])


def lag(nodes, j, x):
    out = 1.0
    for m, nm in enumerate(nodes):
        if m != j:
            out *= (x - nm) / (nodes[j] - nm)
    return out


def dlag(nodes, j, x):
    total = 0.0
    for k, nk in enumerate(nodes):
        if k == j:
            continue
        term = 1.0 / (nodes[j] - nk)
        for m, nm in enumerate(nodes):
            if m != j and m != k:
                term *= (x - nm) / (nodes[j] - nm)
        total += term
    return total


class OracleProblem:
    """Dense operators on an nx-by-ny uniform quad mesh, order p."""

    def __init__(self, domain, nx, ny, p, kappa_fn, rho_fn, dx_fn, dy_fn):
        self.x0, self.x1, self.y0, self.y1 = domain
        self.nx, self.ny, self.p = nx, ny, p
        self.hx = (self.x1 - self.x0) / nx
        self.hy = (self.y1 - self.y0) / ny
        self.kappa_fn, self.rho_fn = kappa_fn, rho_fn
        self.dx_fn, self.dy_fn = dx_fn, dy_fn
        self.gll = oracle_gll_nodes(p)
        self.qx, self.qw = oracle_gl_rule(p + 1)
        self.nloc = (p + 1) ** 2
        self.n_u = (nx * p + 1) * (ny * p + 1)
        self.n_phi = nx * ny * self.nloc

    def gdof_u(self, ex, ey, i, j):
        return (ey * self.p + j) * (self.nx * self.p + 1) + ex * self.p + i

    def gdof_phi(self, e, i, j):
        return e * self.nloc + j * (self.p + 1) + i

    def elem_origin(self, e):
        ex, ey = e % self.nx, e // self.nx
        return self.x0 + ex * self.hx, self.y0 + ey * self.hy, ex, ey

    def matrices(self):
        p = self.p
        jac = self.hx * self.hy / 4.0
        M_u = np.zeros((self.n_u, self.n_u))
        M_d1 = np.zeros((self.n_u, self.n_u))
        M_d0 = np.zeros((self.n_u, self.n_u))
        K = np.zeros((self.n_u, self.n_u))
        K_x = np.zeros((self.n_u, self.n_u))
        K_y = np.zeros((self.n_u, self.n_u))
        B_x = np.zeros((self.n_u, self.n_phi))
        B_y = np.zeros((self.n_u, self.n_phi))
        G_x = np.zeros((self.n_phi, self.n_u))
        G_y = np.zeros((self.n_phi, self.n_u))
        Mpd_x = np.zeros((self.n_phi, self.n_phi))
        Mpd_y = np.zeros((self.n_phi, self.n_phi))

        for e in range(self.nx * self.ny):
            ox, oy, ex, ey = self.elem_origin(e)
            for a, xa in enumerate(self.qx):
                for b, xb in enumerate(self.qx):
                    w = self.qw[a] * self.qw[b] * jac
                    x = ox + (xa + 1.0) * self.hx / 2.0
                    y = oy + (xb + 1.0) * self.hy / 2.0
                    kap = self.kappa_fn(x, y)
                    rho = self.rho_fn(x, y)
                    dx_v = self.dx_fn(x, y)
                    dy_v = self.dy_fn(x, y)
                    gx = (dy_v - dx_v) / rho
                    gy = (dx_v - dy_v) / rho
                    vals = np.array([lag(self.gll, i, xa) for i in range(p + 1)])
                    valt = np.array([lag(self.gll, j, xb) for j in range(p + 1)])
                    ders = np.array([dlag(self.gll, i, xa) for i in range(p + 1)])
                    dert = np.array([dlag(self.gll, j, xb) for j in range(p + 1)])
                    for j in range(p + 1):
                        for i in range(p + 1):
                            gu_m = self.gdof_u(ex, ey, i, j)
                            gp_m = self.gdof_phi(e, i, j)
                            phi_m = vals[i] * valt[j]
                            dxm = ders[i] * valt[j] * 2.0 / self.hx
                            dym = vals[i] * dert[j] * 2.0 / self.hy
                            for l in range(p + 1):
                                for k in range(p + 1):
                                    gu_n = self.gdof_u(ex, ey, k, l)
                                    gp_n = self.gdof_phi(e, k, l)
                                    phi_n = vals[k] * valt[l]
                                    dxn = ders[k] * valt[l] * 2.0 / self.hx
                                    dyn = vals[k] * dert[l] * 2.0 / self.hy
                                    M_u[gu_m, gu_n] += w * phi_m * phi_n / kap
                                    M_d1[gu_m, gu_n] += w * (dx_v + dy_v) * phi_m * phi_n / kap
                                    M_d0[gu_m, gu_n] += w * dx_v * dy_v * phi_m * phi_n / kap
                                    K[gu_m, gu_n] += w * (dxm * dxn + dym * dyn) / rho
                                    K_x[gu_m, gu_n] += w * dxm * dxn / rho
                                    K_y[gu_m, gu_n] += w * dym * dyn / rho
                                    B_x[gu_m, gp_n] += w * dxm * phi_n
                                    B_y[gu_m, gp_n] += w * dym * phi_n
                                    G_x[gp_m, gu_n] += w * gx * dxn * phi_m
                                    G_y[gp_m, gu_n] += w * gy * dyn * phi_m
                                    Mpd_x[gp_m, gp_n] += w * dx_v * phi_m * phi_n
                                    Mpd_y[gp_m, gp_n] += w * dy_v * phi_m * phi_n
        return {
            "M_u": M_u, "M_d1": M_d1, "M_d0": M_d0, "K": K,
            "K_x": K_x, "K_y": K_y,
            "B_x": B_x, "B_y": B_y, "G_x": G_x, "G_y": G_y,
            "M_phid_x": Mpd_x, "M_phid_y": Mpd_y,
        }
