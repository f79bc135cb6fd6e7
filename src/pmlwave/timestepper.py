"""Classical RK4 time integration of the semi-discrete damped wave system.

The evolved state is one flat array y = [u, v, phi_x, phi_y]: u and v hold
the n_u continuous DOFs each, and phi_x, phi_y hold the auxiliary fields
only on the live elements, those where d_x or d_y is nonzero at some
quadrature point. G_eta and the damped phi mass vanish off that layer and
phi starts at zero, so the dropped entries would stay identically zero;
undamped runs carry no phi at all.

Each right-hand-side evaluation applies one stacked sparse operator to y,
solves the continuous mass with its tensor-product inverse, which is exact
for material varying only in y (WaveStepper refuses any other), and solves
the discontinuous mass with one matrix product against the explicit inverse
of the shared element block. rhs writes into a caller's buffer; rk4_step
keeps the current stage and the running weighted sum of the stages in two
buffers allocated once per stepper and builds each stage argument in the
array it returns, so a step allocates little beyond the product, the mass
solve and the new state.
trajectory yields the state after each fixed step, so a consumer keeps
only what it needs: run records energy, amplitudes and snapshots, and the
layer-error experiment compares the damped run at every step with a
reference that, if it separates, modal_trajectory steps mode by mode
through the same loop, with the closed form RK4 takes on each oscillator.
Both refuse a dt past stability_limit.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assembly import (
    GaussianPulse,
    Operators,
    assemble_forcing_spatial,
    constrain_operators,
    lattice_eigenbases,
    lattice_matrix_1d,
    tensor_mass_inverse,
)
from .errors import ConfigError, NumericalError
from .mesh import DofMap, MaterialField, MeshQ, constant_material, physical_quad_points
from .quadrature import BasisQp


@dataclass
class EnergySample:
    t: float
    E: float
    max_amp: float


@dataclass
class RunResult:
    samples: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (t, u.copy()) pairs
    times: np.ndarray | None = None
    amplitudes: np.ndarray | None = None            # max |u| over watched nodes
    final_state: np.ndarray | None = None           # the flat y after the last step


def energy_matrices(ops: Operators):
    """The (mass, stiffness) pair defining E(t) over the whole domain: (ops.M_u, ops.K)."""
    return ops.M_u, ops.K


def energy(u: np.ndarray, v: np.ndarray, M, K) -> float:
    """E = (v' M v + u' K u) / 2 for a precomputed matrix pair."""
    return 0.5 * (float(v @ (M @ v)) + float(u @ (K @ u)))


def _live_phi_dofs(ops: Operators) -> np.ndarray:
    """phi DOFs of the elements where G_eta or the damped phi mass has a nonzero row."""
    nonzero = np.zeros(ops.n_phi, dtype=bool)
    for A in (ops.G_x, ops.G_y, ops.M_phid_x, ops.M_phid_y):
        nonzero |= np.diff(A.indptr) > 0
    cells = ops.dof_phi.cell_dofs
    return cells[nonzero[cells].any(axis=1)].ravel()


@dataclass(frozen=True)
class StepOperators:
    """The constrained operators one rhs applies to y = [u, v, phi_x, phi_y].

    M_u is the continuous mass, against which WaveStepper checks its
    tensor-product inverse. F stacks the right sides of the u and phi
    equations, so one product F y gives both:

        F = [-(K + M_d0 + R_theta), -(M_d1 + R_v), -B_x,       -B_y      ]
            [ G_x,                   0,             -M_phid_x,  0        ]
            [ G_y,                   0,              0,        -M_phid_y ]

    Couplings and damped masses keep only the live phi rows and columns.
    """

    M_u: sp.csr_matrix
    F: sp.csr_matrix


def _step_operators(ops: Operators, live_phi: np.ndarray) -> StepOperators:
    """Constrain the operators once and stack them into F on the live phi DOFs."""
    c = constrain_operators(ops, live_phi)
    A_u, A_v = c.K + c.M_d0, c.M_d1
    if c.R_v is not None:
        A_u, A_v = A_u + c.R_theta, A_v + c.R_v
    n, m = ops.n_u, live_phi.size
    # Explicit empty blocks keep every block CSR, so the stacking joins the
    # compressed arrays directly instead of going through COO triplets.
    Z_v, Z_phi = sp.csr_matrix((m, n)), sp.csr_matrix((m, m))
    u_row = [A_u, A_v, c.B_x, c.B_y]
    phi_rows = [[c.G_x[live_phi], Z_v, -c.M_phid_x[live_phi][:, live_phi], Z_phi],
                [c.G_y[live_phi], Z_v, Z_phi, -c.M_phid_y[live_phi][:, live_phi]]]
    M_u = c.M_u
    # Every block is now a new matrix. Drop the full-size constrained copies
    # before stacking, and each group of blocks once it is stacked: set-up
    # peaks here, and at Q3, h = 0.15 those copies alone are about 27 MB.
    del c, A_u, A_v
    P = sp.bmat(phi_rows, format="csr")
    del phi_rows
    U = sp.hstack(u_row, format="csr")
    del u_row
    F = sp.vstack([U, P], format="csr")
    F.data[:F.indptr[n]] *= -1.0  # the u rows carry the minus sign
    return StepOperators(M_u=M_u, F=F)


class WaveStepper:
    """Owns the combined operators and the mass inverses; ConfigError when the
    tensor-product inverse of M_u is not exact, as for material varying in x."""

    def __init__(self, ops: Operators, forcing: GaussianPulse | None = None):
        self.ops = ops
        self.forcing = forcing
        self.live_phi = live_phi = _live_phi_dofs(ops)
        self.cops = _step_operators(ops, live_phi)
        self.n_state = 2 * ops.n_u + 2 * live_phi.size
        bnd = ops.dirichlet if ops.dirichlet is not None else np.empty(0, dtype=int)
        self.pinned = np.concatenate((bnd, ops.n_u + bnd))  # Dirichlet entries of u and v
        self._mass_inv = tensor_mass_inverse(
            ops.mesh, ops.basis, lambda x, y: 1.0 / ops.material.kappa(x, y),
            pinned=ops.dirichlet is not None)
        # rhs applies it as M_u's exact inverse: check that once, on a fixed probe.
        # Material varying only in y leaves round-off, below 1e-15.
        b = np.random.default_rng(0).standard_normal(ops.n_u)
        miss = np.linalg.norm(self.cops.M_u @ self._mass_inv(b) - b) / np.linalg.norm(b)
        if not miss <= 1e-12:
            raise ConfigError(f"the material varies in x: the tensor-product mass inverse "
                              f"misses M_u by {miss:.2e} relative, and the stepper needs "
                              f"kappa to vary only in y")
        # cho_factor is the SPD check; each rhs multiplies the element rows
        # of the phi right side by the transposed inverse in one GEMM.
        M_phi = ops.jac * ops.M_phi_local
        self._phi_inv_t = la.cho_solve(la.cho_factor(M_phi), np.eye(M_phi.shape[0])).T
        self._nloc = ops.basis.n_loc
        self._stages = np.empty((2, self.n_state))  # one stage, the weighted stage sum
        if forcing is not None:
            f = assemble_forcing_spatial(ops.mesh, ops.basis, ops.material,
                                         ops.dof_u, forcing.spatial)
            f[bnd] = 0.0
            self._f_spatial = f
        else:
            self._f_spatial = None

    def rhs(self, y: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of the flat state y at time t, written into out when given."""
        n = self.ops.n_u
        if out is None:
            out = np.empty_like(y)
        g = self.cops.F @ y
        env = 0.0 if self._f_spatial is None else float(self.forcing.envelope(t))
        if env != 0.0:
            g[:n] += env * self._f_spatial
        out[:n] = y[n:2 * n]
        out[n:2 * n] = self._mass_inv(g[:n])
        np.matmul(g[n:].reshape(-1, self._nloc), self._phi_inv_t,
                  out=out[2 * n:].reshape(-1, self._nloc))
        return out

    def rk4_step(self, y: np.ndarray, t: float, dt: float) -> np.ndarray:
        """One classical four-stage step from (y, t), returned as a new array.

        Dirichlet entries of the result are re-zeroed; y is left unchanged.
        """
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        # k holds the stage just computed and acc the running k1 + 2 k2 + 2 k3 + k4,
        # summed in that order; the returned array serves as the stage argument.
        k, acc = self._stages
        new = np.empty_like(y)
        half = 0.5 * dt
        self.rhs(y, t, out=acc)
        np.multiply(acc, half, out=new)
        new += y
        self.rhs(new, t + half, out=k)
        np.multiply(k, half, out=new)
        new += y
        k *= 2.0
        acc += k
        self.rhs(new, t + half, out=k)
        np.multiply(k, dt, out=new)
        new += y
        k *= 2.0
        acc += k
        self.rhs(new, t + dt, out=k)
        acc += k
        acc *= dt / 6.0
        np.add(y, acc, out=new)
        new[self.pinned] = 0.0
        return new


def snapshot_steps(snapshot_times, dt: float) -> dict:
    """Step index -> snapshot time; ConfigError unless each time is a multiple of dt."""
    steps = {}
    for ts in snapshot_times:
        k = round(ts / dt)
        if abs(k * dt - ts) > 1e-9:
            raise ConfigError(f"snapshot time {ts} is not a multiple of dt={dt}")
        steps.setdefault(k, ts)
    return steps


def stability_limit(mesh: MeshQ, basis: BasisQp, material: MaterialField, r: float) -> float:
    """RK4's largest stable dt, 2 sqrt(2) / omega_max, for the undamped operator.

    omega_max^2 tops the 1D pair (K_y(w_rho) + lam_x M_y(w_rho), M_y(w_kappa)), where lam_x
    tops the unit-weight (K_x, M_x) and w_rho, w_kappa are the max of 1/rho and the min of
    1/kappa over x at each y quadrature point: exact for material varying only in y,
    conservative otherwise. Interior lattices for r = -1; damping and impedance are left out.
    """
    inner = slice(1, -1) if r == -1.0 else slice(None)
    X, Y = physical_quad_points(mesh, basis)
    shape = (mesh.ny, mesh.nx, basis.quad.n, -1)
    w_rho = np.broadcast_to(1.0 / material.rho(X, Y), X.shape).reshape(shape).max(axis=(1, 3))
    w_kappa = np.broadcast_to(1.0 / material.kappa(X, Y), X.shape).reshape(shape).min(axis=(1, 3))
    unit = np.ones((mesh.nx, basis.quad.n))
    M_x, K_x, M_y, K_y, M_kappa = (
        lattice_matrix_1d(basis, w, scale, table)[inner, inner] for w, scale, table in
        ((unit, mesh.hx / 2.0, basis.val1d), (unit, 2.0 / mesh.hx, basis.der1d),
         (w_rho, mesh.hy / 2.0, basis.val1d), (w_rho, 2.0 / mesh.hy, basis.der1d),
         (w_kappa, mesh.hy / 2.0, basis.val1d)))

    def top(K, M):  # the largest eigenvalue of the pair, without the others
        return la.eigh(K, M, eigvals_only=True, subset_by_index=[len(M) - 1] * 2)[0]

    return 2.0 * math.sqrt(2.0 / top(K_y + top(K_x, M_x) * M_y, M_kappa))


def _refuse_unstable(dt: float, mesh: MeshQ, basis: BasisQp, material: MaterialField, r: float):
    """NumericalError, before any step, when dt exceeds stability_limit."""
    if dt > (limit := stability_limit(mesh, basis, material, r)):
        raise NumericalError(f"solution would become non-finite: dt={dt:g} exceeds the RK4 "
                             f"stability limit {limit:.4g}")


def step_count(dt: float, t_end: float) -> int:
    """Steps ceil(t_end/dt) of a run; ValueError unless dt and t_end are positive."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    return math.ceil(t_end / dt - 1e-9)


def _steps(step, y: np.ndarray, n: int, dt: float, n_steps: int):
    """Yield y and each y = step(y, t, dt) after it; NumericalError once y[:n] is not finite."""
    for k in range(n_steps + 1):
        if k:
            y = step(y, (k - 1) * dt, dt)
        if not np.all(np.isfinite(y[:n])):
            raise NumericalError(f"solution became non-finite at t={k * dt:.4f}")
        yield y


def trajectory(ops: Operators, forcing: GaussianPulse | None, dt: float, t_end: float,
               initial: tuple | None = None):
    """Yield the state y after each RK4 step k = 0..step_count(dt, t_end).

    initial is an optional (u, v) pair, copied into the state; phi starts at
    zero, which keeps it zero off the layer. Each yielded array is new and
    never written again. NumericalError before the first step if dt is past
    stability_limit, and at the first step whose u is not finite.
    """
    n_steps = step_count(dt, t_end)
    _refuse_unstable(dt, ops.mesh, ops.basis, ops.material, ops.r)
    stepper = WaveStepper(ops, forcing)
    n = ops.n_u
    y = np.zeros(stepper.n_state)
    if initial is not None:
        y[:n], y[n:2 * n] = initial
    y[stepper.pinned] = 0.0
    yield from _steps(stepper.rk4_step, y, n, dt, n_steps)


def separates(mesh: MeshQ, basis: BasisQp, material: MaterialField, r: float) -> bool:
    """Whether an undamped run on mesh is diagonal in the 1D lattice eigenbases: kappa and
    rho constant at the quadrature points, and r = -1 or 1 (else R_v couples the modes)."""
    return r in (-1.0, 1.0) and constant_material(mesh, basis, material) is not None


def modal_trajectory(mesh: MeshQ, basis: BasisQp, dof_u: DofMap, material: MaterialField,
                     r: float, forcing: GaussianPulse, dt: float, t_end: float,
                     nodes: np.ndarray):
    """Yield u at nodes after each RK4 step k = 0..step_count(dt, t_end) of an undamped run.

    For a run that separates, u = (V_y (x) V_x) w with the eigenvectors of the 1D
    pairs (K_x, M_x) and (K_y, M_y), on the interior lattice for r = -1, gives
    oscillators w'' = -omega^2 w + e(t) f, omega^2 = (kappa / rho) (lam_x,i + lam_y,j),
    f = kappa (V_y^T F V_x)_ij. RK4 commutes with that fixed change of basis. On one
    oscillator, [[0, 1], [-omega^2, 0]] squares to -omega^2 I, so with z = (dt omega)^2,
    a = 1 - z/2 + z^2/24 and c = dt (1 - z/6) its four stages are exactly, from the old w, v:

        w <- a w + c v + dt^2/6 [(1 - z/4) e(t) + 2 e(t + dt/2)] f
        v <- -omega^2 c w + a v + dt/6 [(1 - z/2) e(t) + (4 - z/2) e(t + dt/2) + e(t + dt)] f

    So this matches trajectory up to roundoff. Each w goes into a block of about 1 MB
    of steps, which two batched products map to nodes, a lattice rectangle in
    nodes_in_box order. NumericalError before the first step if dt is past
    stability_limit, and at the first step whose w is not finite, after the rows before it.
    """
    n_steps = step_count(dt, t_end)
    if not separates(mesh, basis, material, r):
        raise ValueError("modal_trajectory needs constant kappa and rho and r = -1 or 1")
    _refuse_unstable(dt, mesh, basis, material, r)
    kappa, rho = constant_material(mesh, basis, material)
    inner = slice(1, -1) if r == -1.0 else slice(None)
    (_, _, lam_x, V_x), (_, _, lam_y, V_y) = lattice_eigenbases(basis, mesh, inner)
    n_x = V_x.shape[0]
    rows, cols = np.unique(nodes // n_x), np.unique(nodes % n_x)
    if not np.array_equal(nodes, (rows[:, None] * n_x + cols).ravel()):
        raise ValueError("observed nodes do not form a rectangle of the node lattice")
    obs_y, obs_x = V_y[rows], V_x[cols].T

    F = assemble_forcing_spatial(mesh, basis, material, dof_u, forcing.spatial)
    f_hat = (kappa * (V_y.T @ F.reshape(V_y.shape[0], n_x) @ V_x)).ravel()
    omega2 = ((kappa / rho) * (lam_y[:, None] + lam_x)).ravel()
    m = omega2.size
    # The docstring's step: R on [w, v], plus (W e) @ [f, z f] for e at t + (0, dt/2, dt).
    z = dt * dt * omega2
    a, c = 1.0 - z / 2.0 + z * z / 24.0, dt * (1.0 - z / 6.0)
    R, P = np.array([[a, c], [-omega2 * c, a]]), np.array([f_hat, z * f_hat])
    W = dt / 12.0 * np.array([[[2 * dt, 4 * dt, 0], [-dt / 2, 0, 0]], [[2, 8, 2], [-1, -1, 0]]])

    def step(y, t, dt):
        new = R[:, 0] * y[:m]
        new += R[:, 1] * y[m:]
        if (env := forcing.envelope(t + np.array([0.0, 0.5 * dt, dt]))).any():
            new += (W @ env) @ P
        return new.ravel()

    block, k = np.empty((max(1, 2**20 // (8 * m)), lam_y.size, lam_x.size)), 0

    def observed(n):  # the box rows of the first n buffered steps
        return (obs_y @ block[:n] @ obs_x).reshape(n, nodes.size)

    try:
        for y in _steps(step, np.zeros(2 * m), m, dt, n_steps):
            block[k] = y[:m].reshape(block.shape[1:])
            k += 1
            if k == len(block):
                yield from observed(k)
                k = 0
    except NumericalError:
        yield from observed(k)  # the steps before the failing one
        raise
    yield from observed(k)


def run(
    ops: Operators,
    forcing: GaussianPulse | None,
    dt: float,
    t_end: float,
    initial: tuple | None = None,
    energy_stride: int = 0,
    watch_nodes=None,
    snapshot_times=(),
) -> RunResult:
    """Step a trajectory to t_end and keep what the recorders ask for.

    energy_stride > 0 samples E(t) and the max amplitude over watch_nodes
    every that many steps and at the last one; watch_nodes also feeds the
    per-step amplitude series. Snapshot times are multiples of dt.
    """
    n_steps = step_count(dt, t_end)
    snap_steps = snapshot_steps(snapshot_times, dt)
    n = ops.n_u
    e_pair = energy_matrices(ops) if energy_stride else None
    result = RunResult(times=np.arange(n_steps + 1) * dt)
    if watch_nodes is not None:
        watch_nodes = np.asarray(watch_nodes)
        result.amplitudes = np.empty(n_steps + 1)
    for k, y in enumerate(trajectory(ops, forcing, dt, t_end, initial)):
        u = y[:n]
        if watch_nodes is not None:
            result.amplitudes[k] = float(np.max(np.abs(u[watch_nodes]))) if len(watch_nodes) else 0.0
        if energy_stride and (k % energy_stride == 0 or k == n_steps):
            amp = result.amplitudes[k] if watch_nodes is not None else float(np.max(np.abs(u)))
            E = energy(u, y[n:2 * n], *e_pair)
            result.samples.append(EnergySample(t=k * dt, E=E, max_amp=amp))
        if k in snap_steps:
            result.snapshots.append((snap_steps[k], u.copy()))
    result.final_state = y
    return result
