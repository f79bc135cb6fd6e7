"""Classical RK4 time integration of the semi-discrete damped wave system.

The evolved state is one flat array y = [u, v, phi_x, phi_y]: u and v hold
the n_u continuous DOFs each, and phi_x, phi_y hold the auxiliary fields
only on the live elements, those where d_x or d_y is nonzero at some
quadrature point. G_eta and the damped phi mass vanish off that layer and
phi starts at zero, so the dropped entries would stay identically zero;
undamped runs carry no phi at all.

Each right-hand-side evaluation applies one stacked sparse operator to y,
solves the continuous mass by CG (relative residual 1e-12) preconditioned
with its tensor-product inverse, which is exact for material varying only
in y so that one iteration suffices, and solves the discontinuous mass with
one matrix product against the explicit inverse of the shared element
block. rhs writes into a caller's buffer; rk4_step keeps the current stage
and the running weighted sum of the stages in two buffers allocated once per
stepper and builds each stage argument in the array it returns, so a step
allocates little beyond the product, the CG vectors and the new state.
trajectory yields the state after each fixed step, so a consumer keeps
only what it needs: run records energy, amplitudes and snapshots, and the
layer-error experiment compares the damped run at every step with a
reference that, if it separates, modal_trajectory steps mode by mode
through the same RK4 step and loop, after checking dt against RK4's limit.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assembly import (
    GaussianPulse,
    Operators,
    assemble_forcing_spatial,
    constrain_operators,
    lattice_eigenbasis,
    tensor_mass_inverse,
)
from .errors import ConfigError, NumericalError
from .mesh import DofMap, MaterialField, MeshQ, constant_material
from .quadrature import BasisQp
from .solvers import pcg


@dataclass(frozen=True)
class StateView:
    """Named views u, v, phi_x, phi_y into a flat state vector y at time t."""

    y: np.ndarray
    n_u: int
    t: float = 0.0

    @property
    def u(self) -> np.ndarray:
        return self.y[:self.n_u]

    @property
    def v(self) -> np.ndarray:
        return self.y[self.n_u:2 * self.n_u]

    @property
    def phi_x(self) -> np.ndarray:
        return np.split(self.y[2 * self.n_u:], 2)[0]

    @property
    def phi_y(self) -> np.ndarray:
        return np.split(self.y[2 * self.n_u:], 2)[1]


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
    final_state: StateView | None = None


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

    M_u is the continuous mass. F stacks the right sides of the u and phi
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
    c = constrain_operators(ops)
    A_u, A_v = c.K + c.M_d0, c.M_d1
    if c.R_v is not None:
        A_u, A_v = A_u + c.R_theta, A_v + c.R_v
    n, m = ops.n_u, live_phi.size
    # Explicit empty blocks keep every block CSR, so the stacking joins the
    # compressed arrays directly instead of going through COO triplets.
    Z_v, Z_phi = sp.csr_matrix((m, n)), sp.csr_matrix((m, m))
    u_row = [A_u, A_v, c.B_x[:, live_phi], c.B_y[:, live_phi]]
    phi_rows = [[c.G_x[live_phi], Z_v, -c.M_phid_x[live_phi][:, live_phi], Z_phi],
                [c.G_y[live_phi], Z_v, Z_phi, -c.M_phid_y[live_phi][:, live_phi]]]
    M_u = c.M_u
    # Every block is now a new matrix. Drop the full-size constrained copies
    # before stacking, and each group of blocks once it is stacked: set-up
    # peaks here, and at Q3, h = 0.15 those copies alone are about 50 MB.
    del c, A_u, A_v
    P = sp.bmat(phi_rows, format="csr")
    del phi_rows
    U = sp.hstack(u_row, format="csr")
    del u_row
    F = sp.vstack([U, P], format="csr")
    F.data[:F.indptr[n]] *= -1.0  # the u rows carry the minus sign
    return StepOperators(M_u=M_u, F=F)


class WaveStepper:
    """Owns the combined operators and the mass factorizations."""

    def __init__(self, ops: Operators, forcing: GaussianPulse | None = None,
                 forcing_cutoff: float | None = None):
        self.ops = ops
        self.forcing = forcing
        self.forcing_cutoff = forcing_cutoff
        self.live_phi = live_phi = _live_phi_dofs(ops)
        self.cops = _step_operators(ops, live_phi)
        self.n_state = 2 * ops.n_u + 2 * live_phi.size
        bnd = ops.dirichlet if ops.dirichlet is not None else np.empty(0, dtype=int)
        self.pinned = np.concatenate((bnd, ops.n_u + bnd))  # Dirichlet entries of u and v
        self._mass_inv = tensor_mass_inverse(
            ops.mesh, ops.basis, lambda x, y: 1.0 / ops.material.kappa(x, y),
            pinned=ops.dirichlet is not None)
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

    def _envelope(self, t: float) -> float:
        if self._f_spatial is None:
            return 0.0
        if self.forcing_cutoff is not None and t > self.forcing_cutoff:
            return 0.0
        return float(self.forcing.envelope(t))

    def rhs(self, y: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of the flat state y at time t, written into out when given."""
        n = self.ops.n_u
        if out is None:
            out = np.empty_like(y)
        g = self.cops.F @ y
        env = self._envelope(t)
        if env != 0.0:
            g[:n] += env * self._f_spatial
        dv, _ = pcg(self.cops.M_u, g[:n], self._mass_inv, rtol=1e-12)
        out[:n] = y[n:2 * n]
        out[n:2 * n] = dv
        np.matmul(g[n:].reshape(-1, self._nloc), self._phi_inv_t,
                  out=out[2 * n:].reshape(-1, self._nloc))
        return out

    def rk4_step(self, y: np.ndarray, t: float, dt: float) -> np.ndarray:
        """One classical four-stage step from (y, t), returned as a new array.

        Dirichlet entries of the result are re-zeroed; y is left unchanged.
        """
        new = _rk4_step(self.rhs, y, t, dt, self._stages)
        new[self.pinned] = 0.0
        return new


def _rk4_step(rhs, y: np.ndarray, t: float, dt: float, stages: np.ndarray) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y, t, out) from (y, t), into a new array."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    # The (2, y.size) buffer stages holds in k the stage just computed and in acc
    # the running k1 + 2 k2 + 2 k3 + k4, summed in that order; the returned array
    # serves as the stage argument.
    k, acc = stages
    new = np.empty_like(y)
    half = 0.5 * dt
    rhs(y, t, out=acc)
    np.multiply(acc, half, out=new)
    new += y
    rhs(new, t + half, out=k)
    np.multiply(k, half, out=new)
    new += y
    k *= 2.0
    acc += k
    rhs(new, t + half, out=k)
    np.multiply(k, dt, out=new)
    new += y
    k *= 2.0
    acc += k
    rhs(new, t + dt, out=k)
    acc += k
    acc *= dt / 6.0
    np.add(y, acc, out=new)
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


def _cfl_check(ops: Operators, dt: float) -> None:
    # Heuristic only: explicit stages resolve waves crossing a node spacing
    # of roughly h/p^2; warn when dt strays past half of that.
    x = ops.dof_u.node_coords[:, 0]
    y = ops.dof_u.node_coords[:, 1]
    c_max = float(np.max(ops.material.wave_speed(x, y)))
    h = min(ops.mesh.hx, ops.mesh.hy)
    limit = 0.5 * h / (c_max * ops.basis.p**2)
    if dt > limit:
        warnings.warn(
            f"dt={dt} exceeds the heuristic stability guide {limit:.4g} "
            f"(h={h}, c_max={c_max}, p={ops.basis.p})",
            RuntimeWarning,
        )


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
               initial: tuple | None = None, forcing_cutoff: float | None = None):
    """Yield the state y after each RK4 step k = 0..step_count(dt, t_end).

    initial is an optional (u, v) pair, copied into the state; phi starts at
    zero, which keeps it zero off the layer. Each yielded array is new and
    never written again. NumericalError at the first step whose u is not finite.
    """
    n_steps = step_count(dt, t_end)
    _cfl_check(ops, dt)
    stepper = WaveStepper(ops, forcing, forcing_cutoff=forcing_cutoff)
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
    oscillators w_ij'' = -c^2 (lam_x,i + lam_y,j) w_ij + e(t) kappa (V_y^T F V_x)_ij.
    RK4 commutes with that fixed change of basis, so this matches trajectory up
    to roundoff. nodes form a lattice rectangle in nodes_in_box order.
    NumericalError before the first step if dt is past RK4's stability limit.
    """
    n_steps = step_count(dt, t_end)
    if not separates(mesh, basis, material, r):
        raise ValueError("modal_trajectory needs constant kappa and rho and r = -1 or 1")
    kappa, rho = constant_material(mesh, basis, material)
    inner = slice(1, -1) if r == -1.0 else slice(None)
    _, _, lam_x, V_x = lattice_eigenbasis(basis, mesh.nx, mesh.hx, inner)
    _, _, lam_y, V_y = lattice_eigenbasis(basis, mesh.ny, mesh.hy, inner)
    n_x = V_x.shape[0]
    rows, cols = np.unique(nodes // n_x), np.unique(nodes % n_x)
    if not np.array_equal(nodes, (rows[:, None] * n_x + cols).ravel()):
        raise ValueError("observed nodes do not form a rectangle of the node lattice")
    obs_y, obs_x = V_y[rows], V_x[cols].T

    F = assemble_forcing_spatial(mesh, basis, material, dof_u, forcing.spatial)
    f_hat = (kappa * (V_y.T @ F.reshape(V_y.shape[0], n_x) @ V_x)).ravel()
    neg_omega2 = (-(kappa / rho) * (lam_y[:, None] + lam_x)).ravel()
    m = neg_omega2.size
    omega_max = math.sqrt(float(np.max(-neg_omega2, initial=0.0)))
    if dt * omega_max > 2.0 * math.sqrt(2.0):  # RK4 bounds undamped modes up to 2 sqrt(2)
        raise NumericalError(f"solution would become non-finite: dt={dt:g} exceeds the RK4 "
                             f"stability limit {2.0 * math.sqrt(2.0) / omega_max:.4g}")

    def rhs(y, t, out):
        # The state is [w, w'] with w the modal displacement, raveled (y, x).
        out[:m] = y[m:]
        np.multiply(neg_omega2, y[:m], out=out[m:])
        env = float(forcing.envelope(t))
        if env != 0.0:
            out[m:] += env * f_hat

    step = partial(_rk4_step, rhs, stages=np.empty((2, 2 * m)))
    for y in _steps(step, np.zeros(2 * m), m, dt, n_steps):
        yield (obs_y @ y[:m].reshape(lam_y.size, lam_x.size) @ obs_x).ravel()


def run(
    ops: Operators,
    forcing: GaussianPulse | None,
    dt: float,
    t_end: float,
    initial: tuple | None = None,
    energy_stride: int = 0,
    watch_nodes=None,
    snapshot_times=(),
    forcing_cutoff: float | None = None,
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
    for k, y in enumerate(trajectory(ops, forcing, dt, t_end, initial, forcing_cutoff)):
        u = y[:n]
        if watch_nodes is not None:
            result.amplitudes[k] = float(np.max(np.abs(u[watch_nodes]))) if len(watch_nodes) else 0.0
        if energy_stride and (k % energy_stride == 0 or k == n_steps):
            amp = result.amplitudes[k] if watch_nodes is not None else float(np.max(np.abs(u)))
            E = energy(u, y[n:2 * n], *e_pair)
            result.samples.append(EnergySample(t=k * dt, E=E, max_amp=amp))
        if k in snap_steps:
            result.snapshots.append((snap_steps[k], u.copy()))
    result.final_state = StateView(y, n, n_steps * dt)
    return result
