import importlib.util
import itertools
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import pmlwave.solvers as solvers
import pmlwave.timestepper as timestepper
from pmlwave.assembly import (GaussianPulse, assemble_all, assemble_forcing_spatial,
                              constrain_operators)
from pmlwave.config import SimulationConfig
from pmlwave.errors import ConfigError, NumericalError
from pmlwave.experiments import build_problem
from pmlwave.mesh import (build_cartesian_mesh, homogeneous_material, layered_material,
                          nodes_in_box, physical_quad_points)
from pmlwave.pml import PmlConfig, damping
from pmlwave.quadrature import tensor_basis_tables
from pmlwave.timestepper import (WaveStepper, energy, energy_matrices, modal_trajectory, run,
                                 separates, stability_limit, trajectory)
from test_assembly import wavy_material

PML = PmlConfig(delta=0.5, x_inner=0.5, y_inner=0.5, d0_x=3.0, d0_y=2.0)
PULSE = GaussianPulse(center=(0.4, 0.4), sigma=0.15, t0=0.3, tau=0.1)


@dataclass(frozen=True)
class CutPulse(GaussianPulse):
    """A GaussianPulse whose envelope is zero after cutoff, so the run goes on unforced."""

    cutoff: float = np.inf

    def envelope(self, t):
        return np.where(np.asarray(t) > self.cutoff, 0.0, super().envelope(t))


def split_state(y: np.ndarray, n_u: int) -> list:
    """The u, v, phi_x and phi_y parts of a flat state y."""
    return [y[:n_u], y[n_u:2 * n_u], *np.split(y[2 * n_u:], 2)]


STEPPER_CASES = pytest.mark.parametrize(
    "damped, r", [(True, -1.0), (True, 0.5), (False, -1.0)],
    ids=["dirichlet-damped", "impedance-damped", "undamped"])


def small_ops(damped=True, p=2, h=0.25, r=-1.0, material=None, domain=(0.0, 1.0, 0.0, 1.0)):
    mesh = build_cartesian_mesh(domain, h)
    basis = tensor_basis_tables(p)
    return assemble_all(mesh, basis, material or homogeneous_material(),
                        PML if damped else None, r=r)


def smooth_state(ops):
    """A smooth (u, v) pair, zero on the Dirichlet boundary when there is one."""

    def bump(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def bump2(x, y):
        return np.sin(2 * np.pi * x) * np.sin(np.pi * y)

    u = bump(*ops.dof_u.node_coords.T)
    v = 0.3 * bump2(*ops.dof_u.node_coords.T)
    if ops.dirichlet is not None:
        u[ops.dirichlet] = 0.0
        v[ops.dirichlet] = 0.0
    return u, v


def flat_state(ops, stepper):
    """Smooth u, v plus nonzero live auxiliary fields, as one state vector."""
    u, v = smooth_state(ops)
    n_live = stepper.live_phi.size
    return np.concatenate((u, v, np.sin(np.arange(n_live)), np.cos(np.arange(n_live))))


def dense_reference(ops, forcing, u0, v0, dt, n_steps):
    """Plain dense RK4 on [u, v, phi_x, phi_y] with full-length phi.

    Built from the uncompacted constrained operators; dense LU solves stand
    in for CG and for the element-block Cholesky.
    """
    c = constrain_operators(ops)
    n, m = ops.n_u, ops.n_phi
    dense = {name: getattr(c, name).toarray() for name in
             ("M_u", "K", "M_d1", "M_d0", "B_x", "B_y", "G_x", "G_y", "M_phid_x", "M_phid_y")}
    R_v = c.R_v.toarray() if c.R_v is not None else np.zeros((n, n))
    R_theta = c.R_theta.toarray() if c.R_theta is not None else np.zeros((n, n))
    M_phi = np.kron(np.eye(ops.mesh.n_elem), ops.jac * ops.M_phi_local)
    f = assemble_forcing_spatial(ops.mesh, ops.basis, ops.material, ops.dof_u, forcing.spatial)
    pinned = np.zeros(2 * n + 2 * m, dtype=bool)
    if ops.dirichlet is not None:
        f[ops.dirichlet] = 0.0
        pinned[ops.dirichlet] = pinned[n + ops.dirichlet] = True

    def F(y, t):
        u, v, px, py = np.split(y, [n, 2 * n, 2 * n + m])
        r = (-dense["K"] @ u - dense["M_d1"] @ v - dense["M_d0"] @ u
             - dense["B_x"] @ px - dense["B_y"] @ py - R_v @ v - R_theta @ u
             + forcing.envelope(t) * f)
        return np.concatenate((
            v,
            np.linalg.solve(dense["M_u"], r),
            np.linalg.solve(M_phi, dense["G_x"] @ u - dense["M_phid_x"] @ px),
            np.linalg.solve(M_phi, dense["G_y"] @ u - dense["M_phid_y"] @ py),
        ))

    y = np.concatenate((u0, v0, np.zeros(2 * m)))
    y[pinned] = 0.0
    for k in range(n_steps):
        t = k * dt
        k1 = F(y, t)
        k2 = F(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = F(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = F(y + dt * k3, t + dt)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        y[pinned] = 0.0
    return np.split(y, [n, 2 * n, 2 * n + m])


@pytest.mark.parametrize("damped, r", [(True, -1.0), (True, 0.5), (False, -1.0)],
                         ids=["dirichlet-damped", "impedance-damped", "undamped"])
def test_trajectory_matches_dense_full_phi_reference(damped, r):
    ops = small_ops(damped=damped, r=r)
    u0, v0 = smooth_state(ops)
    dt, n_steps = 0.01, 100
    u_ref, v_ref, px_ref, py_ref = dense_reference(ops, PULSE, u0, v0, dt, n_steps)
    y = run(ops, PULSE, dt, n_steps * dt, initial=(u0, v0)).final_state
    u, v, phi_x, phi_y = split_state(y, ops.n_u)

    live = WaveStepper(ops).live_phi
    dead = np.setdiff1d(np.arange(ops.n_phi), live)
    assert np.all(px_ref[dead] == 0.0) and np.all(py_ref[dead] == 0.0)
    if not damped:
        assert live.size == 0 and y.size == 2 * ops.n_u
    pairs = [(u, u_ref), (v, v_ref)]
    if damped:
        pairs.append((np.concatenate((phi_x, phi_y)),
                      np.concatenate((px_ref[live], py_ref[live]))))
    for got, ref in pairs:
        assert np.linalg.norm(ref) > 0.0
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_phi_lives_only_on_the_layer():
    ops = small_ops(damped=True)
    X, Y = physical_quad_points(ops.mesh, ops.basis)
    in_layer = np.any((damping("x", X, PML) != 0.0) | (damping("y", Y, PML) != 0.0), axis=1)
    assert 0 < in_layer.sum() < ops.mesh.n_elem
    stepper = WaveStepper(ops)
    assert np.array_equal(stepper.live_phi, ops.dof_phi.cell_dofs[in_layer].ravel())
    assert stepper.n_state == 2 * ops.n_u + 2 * stepper.live_phi.size
    assert WaveStepper(small_ops(damped=False)).n_state == 2 * ops.n_u


@STEPPER_CASES
def test_step_operators_match_the_eliminated_full_couplings(damped, r):
    # The stepper slices the live phi columns of B_eta before the Dirichlet elimination;
    # eliminating the full couplings first and slicing afterwards gives the same F.
    ops = small_ops(damped=damped, r=r)
    X, Y = physical_quad_points(ops.mesh, ops.basis)
    in_layer = np.any((damping("x", X, PML) != 0.0) | (damping("y", Y, PML) != 0.0), axis=1)
    live = ops.dof_phi.cell_dofs[damped & in_layer].ravel()
    c = constrain_operators(ops)
    A_u, A_v = c.K + c.M_d0, c.M_d1
    if c.R_v is not None:
        A_u, A_v = A_u + c.R_theta, A_v + c.R_v
    F = sp.bmat([[-A_u, -A_v, -c.B_x[:, live], -c.B_y[:, live]],
                 [c.G_x[live], None, -c.M_phid_x[live][:, live], None],
                 [c.G_y[live], None, None, -c.M_phid_y[live][:, live]]], format="csr")
    got = WaveStepper(ops).cops.F
    assert got.nnz == F.nnz
    assert np.array_equal(got.toarray(), F.toarray())


def test_zero_state_stays_zero_without_forcing():
    ops = small_ops()
    y = run(ops, None, 0.01, 0.05).final_state
    assert y.size > 2 * ops.n_u  # phi is stepped too
    assert np.all(y == 0.0)


def test_step_is_linear():
    ops = small_ops()
    stepper = WaveStepper(ops)
    y = flat_state(ops, stepper)
    a = stepper.rk4_step(2.5 * y, 0.0, 0.01)
    b = 2.5 * stepper.rk4_step(y, 0.0, 0.01)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_rhs_matches_dense_solve():
    ops = small_ops()
    stepper = WaveStepper(ops)
    y = flat_state(ops, stepper)
    u, v, phi_x_live, phi_y_live = split_state(y, ops.n_u)
    du, dv, dphi_x, dphi_y = split_state(stepper.rhs(y, 0.0), ops.n_u)

    # Dense reference in the full phi space: live values scattered, zero elsewhere.
    live = stepper.live_phi
    phi_x, phi_y = np.zeros(ops.n_phi), np.zeros(ops.n_phi)
    phi_x[live], phi_y[live] = phi_x_live, phi_y_live
    c = constrain_operators(ops)
    r = -(c.K @ u) - c.M_d1 @ v - c.M_d0 @ u - c.B_x @ phi_x - c.B_y @ phi_y
    dv_ref = np.linalg.solve(c.M_u.toarray(), r)
    Mp = ops.jac * ops.M_phi_local
    dphi_ref = []
    for G, Md, phi in ((c.G_x, c.M_phid_x, phi_x), (c.G_y, c.M_phid_y, phi_y)):
        rhs = (G @ u - Md @ phi).reshape(-1, ops.basis.n_loc)
        dphi_ref.append(np.linalg.solve(Mp, rhs.T).T.ravel())
    assert np.array_equal(du, v)
    assert np.max(np.abs(dv - dv_ref)) <= 1e-10
    assert np.max(np.abs(dphi_x - dphi_ref[0][live])) <= 1e-10
    assert np.max(np.abs(dphi_y - dphi_ref[1][live])) <= 1e-10


@STEPPER_CASES
def test_rk4_step_leaves_its_input_and_earlier_results_alone(damped, r):
    ops = small_ops(damped=damped, r=r)
    stepper = WaveStepper(ops, PULSE)
    y = flat_state(ops, stepper)
    y_copy = y.copy()
    first = stepper.rk4_step(y, 0.25, 0.01)  # forcing envelope is live here
    assert np.array_equal(y, y_copy)
    first_copy = first.copy()
    second = stepper.rk4_step(first, 0.26, 0.01)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, y)
    assert np.array_equal(first, first_copy)
    assert np.array_equal(y, y_copy)
    assert not np.array_equal(second, first)


@STEPPER_CASES
def test_rhs_returns_fresh_arrays_and_fills_a_given_buffer(damped, r):
    ops = small_ops(damped=damped, r=r)
    stepper = WaveStepper(ops, PULSE)
    y = flat_state(ops, stepper)
    y_copy = y.copy()
    a = stepper.rhs(y, 0.25)
    b = stepper.rhs(y, 0.25)
    assert not np.shares_memory(a, b) and not np.shares_memory(a, y)
    assert np.array_equal(a, b)
    buf = np.full_like(y, np.nan)
    assert stepper.rhs(y, 0.25, out=buf) is buf
    assert np.array_equal(buf, a)
    assert np.array_equal(y, y_copy)


@pytest.mark.parametrize("r", [-1.0, 0.5])
@pytest.mark.parametrize("material", [
    homogeneous_material(c=1.3),
    layered_material(speeds=(1.25, 1.0, 0.75), interfaces=(0.25, 0.5), rho=2.0)],
    ids=["homogeneous", "layered"])
def test_rhs_mass_solve_is_the_dense_solve(material, r):
    ops = small_ops(r=r, material=material)
    stepper = WaveStepper(ops)
    y = flat_state(ops, stepper)
    n = ops.n_u
    g = (stepper.cops.F @ y)[:n]
    dv_ref = np.linalg.solve(stepper.cops.M_u.toarray(), g)
    dv = stepper.rhs(y, 0.0)[n:2 * n]
    assert np.max(np.abs(dv - dv_ref)) <= 1e-13 * np.max(np.abs(dv_ref))


@pytest.mark.parametrize("r", [-1.0, 0.5])
def test_stepper_refuses_material_varying_in_x_before_any_rhs(monkeypatch, r):
    # The tensor-product mass inverse averages 1/kappa over x, so it is not M_u's inverse.
    calls = []
    rhs = WaveStepper.rhs

    def counting_rhs(self, *args, **kwargs):
        calls.append(1)
        return rhs(self, *args, **kwargs)

    monkeypatch.setattr(WaveStepper, "rhs", counting_rhs)
    ops = small_ops(r=r, material=wavy_material())
    with pytest.raises(ConfigError, match="material varies in x"):
        run(ops, PULSE, 0.01, 0.05)
    assert calls == []


@pytest.mark.parametrize("damped", [True, False], ids=["damped", "undamped"])
def test_huge_forcing_steps_like_a_scaled_moderate_one(damped):
    # ||b||^2 overflows from about 1e154 on, so a mass solve that took the 2-norm of its
    # right side would refuse the 1e300 run although every entry is representable.
    ops = small_ops(damped=damped, domain=(0.0, 1.0, 0.0, 1.5))

    def scaled_u(amplitude):
        pulse = replace(PULSE, amplitude=amplitude)
        return np.array([y[:ops.n_u] for y in trajectory(ops, pulse, 0.01, 0.6)]) / amplitude

    huge, moderate = scaled_u(1e300), scaled_u(1e154)
    assert huge.shape == (61, ops.n_u) and np.max(np.abs(moderate)) > 0.0
    assert np.max(np.abs(huge - moderate)) <= 1e-12 * np.max(np.abs(moderate))


def test_run_calls_rhs_four_times_per_step_and_pcg_never(monkeypatch):
    # rhs applies the exact mass inverse; CG stays only as the tests' reference.
    calls = {"rhs": 0, "pcg": 0}
    rhs, pcg = WaveStepper.rhs, solvers.pcg

    def counting_rhs(self, *args, **kwargs):
        calls["rhs"] += 1
        return rhs(self, *args, **kwargs)

    def counting_pcg(*args, **kwargs):
        calls["pcg"] += 1
        return pcg(*args, **kwargs)

    monkeypatch.setattr(WaveStepper, "rhs", counting_rhs)
    for module in [m for name, m in sys.modules.items() if name.startswith("pmlwave")]:
        for key, value in list(vars(module).items()):
            if value is pcg:  # every alias, as the benchmark's hook does
                monkeypatch.setattr(module, key, counting_pcg)
    n_steps = 7
    run(small_ops(), PULSE, 0.01, n_steps * 0.01)
    assert calls == {"rhs": 4 * n_steps, "pcg": 0}


def load_spans():
    """The benchmark's span recorder, loaded from its file without touching it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_hook_targets_resolve():
    # A renamed or removed target would make its benchmark layer print "absent".
    spans = load_spans()
    assert spans.HOOKS
    for name, module, attr in spans.HOOKS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_traced_damped_run_yields_every_layer_metric():
    # The trace reads attributes of what it hooks, such as the stepper's cops.M_u; one
    # that is gone prints its metrics as absent, and the benchmark result is malformed.
    spans = load_spans()
    rec = spans.Recorder("tier-1")
    rec.install()
    try:
        timestepper.run(small_ops(), PULSE, 0.01, 0.02)
    finally:
        rec.uninstall()
    assert rec.absent == []
    metrics = spans.layer_metrics(rec)
    assert [name for name, (value, _) in metrics.items() if value is None] == []
    assert metrics["timestepper.rhs_calls"][0] == 8


def test_impedance_tends_to_neumann_as_r_tends_to_one():
    finals = []
    for r in (1.0 - 1e-6, 1.0):
        ops = small_ops(r=r)
        assert (ops.R_v is not None) == (r < 1.0)
        finals.append(run(ops, PULSE, 0.01, 1.0, initial=smooth_state(ops)).final_state)
    near, neumann = finals
    assert near.shape == neumann.shape
    assert 0.0 < np.linalg.norm(near - neumann) <= 1e-4 * np.linalg.norm(neumann)


def test_impedance_tends_to_dirichlet_as_r_tends_to_minus_one():
    # R_v = (1 - r)/(1 + r) c grows like 2c/eps at r = -1 + eps and pins the boundary
    # to first order. Below eps = 1e-2 the stiff R_v needs a smaller dt than 2e-4.
    def final_u(r):
        ops = small_ops(r=r)
        return run(ops, PULSE, 2e-4, 0.2, initial=smooth_state(ops)).final_state[:ops.n_u]

    dirichlet = final_u(-1.0)
    near = [np.linalg.norm(final_u(-1.0 + eps) - dirichlet) / np.linalg.norm(dirichlet)
            for eps in (1e-1, 1e-2)]
    assert near[0] >= 8.0 * near[1]
    assert near[1] <= 1e-2


def test_stiff_impedance_run_stops_at_the_first_non_finite_step():
    # R_v ~ 2c/eps at r = -1 + 1e-3 is stiffer than stability_limit covers at this dt.
    ops = small_ops(r=-1.0 + 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"solution became non-finite at t=0\.0146$"):
            run(ops, PULSE, 2e-4, 0.5, initial=smooth_state(ops))


def test_run_leaves_initial_unchanged():
    ops = small_ops()
    rng = np.random.default_rng(3)
    u0, v0 = rng.standard_normal(ops.n_u), rng.standard_normal(ops.n_u)
    u_copy, v_copy = u0.copy(), v0.copy()
    res = run(ops, None, 0.01, 0.05, initial=(u0, v0))
    assert np.array_equal(u0, u_copy) and np.array_equal(v0, v_copy)
    assert np.all(res.final_state[ops.dirichlet] == 0.0)


def test_impedance_boundary_undamped_energy_non_increasing():
    ops = small_ops(damped=False, r=0.5)
    res = run(ops, CutPulse(center=(0.5, 0.5), sigma=0.15, t0=0.3, tau=0.1, cutoff=0.8),
              0.01, 3.0, energy_stride=1)
    E = np.array([s.E for s in res.samples])
    ts = np.array([s.t for s in res.samples])
    free = E[ts >= 0.8 - 1e-12]
    growth = np.diff(free) / free[:-1]
    assert np.max(growth) <= 1e-8
    assert free[-1] < 0.5 * free[0]  # the partially reflecting boundary absorbs


def test_rk4_self_convergence_is_fourth_order():
    # Step sizes all well inside the stability region so the measured rate
    # reflects the local truncation error, not marginal stability.
    ops = small_ops(p=1)
    initial = smooth_state(ops)
    T = 0.4
    finals = {}
    for dt in (0.04, 0.02, 0.005):
        finals[dt] = run(ops, None, dt, T, initial=initial).final_state[:ops.n_u]
    e1 = np.max(np.abs(finals[0.04] - finals[0.005]))
    e2 = np.max(np.abs(finals[0.02] - finals[0.005]))
    order = np.log2(e1 / e2)
    assert 3.4 <= order <= 4.8, f"observed order {order:.2f}"


def test_energy_quadratic_scaling():
    ops = small_ops(damped=False)
    M, K = energy_matrices(ops)
    u, v = smooth_state(ops)
    e1 = energy(u, v, M, K)
    e4 = energy(2.0 * u, 2.0 * v, M, K)
    assert e4 == pytest.approx(4.0 * e1, rel=1e-12)
    assert e1 > 0.0


def test_energy_matrices_reuse_operators():
    ops = small_ops(damped=False)
    M, K = energy_matrices(ops)
    assert M is ops.M_u and K is ops.K


def test_damped_run_dissipates_energy():
    ops = small_ops(damped=True)
    u0, v0 = smooth_state(ops)
    M, K = energy_matrices(ops)
    e0 = energy(u0, v0, M, K)
    res = run(ops, None, 0.01, 2.0, initial=(u0, v0), energy_stride=50)
    u, v, *_ = split_state(res.final_state, ops.n_u)
    e_end = energy(u, v, M, K)
    assert e_end < 0.5 * e0  # interior layer drains the standing wave quickly


def test_snapshot_times_must_divide():
    ops = small_ops(damped=False)
    with pytest.raises(ConfigError):
        run(ops, None, 0.01, 0.1, snapshot_times=(0.015,))
    res = run(ops, GaussianPulse(t0=0.02, tau=0.01), 0.01, 0.1, snapshot_times=(0.05,))
    assert len(res.snapshots) == 1
    assert res.snapshots[0][0] == pytest.approx(0.05)


def test_run_argument_validation():
    ops = small_ops(damped=False)
    with pytest.raises(ValueError):
        run(ops, None, -0.01, 1.0)
    stepper = WaveStepper(ops)
    with pytest.raises(ValueError):
        stepper.rk4_step(np.zeros(stepper.n_state), 0.0, 0.0)


def test_unstable_step_raises():
    ops = small_ops(damped=False)
    initial = smooth_state(ops)
    with pytest.raises(NumericalError):
        run(ops, None, 5.0, 500.0, initial=initial)


def modal_case(p, r, domain=(0.0, 1.0, 0.0, 1.5), h=0.25, box=(0.25, 0.75, 0.25, 1.0)):
    """A homogeneous c = 1.5, rho = 2 problem, by default on a non-square mesh with an
    off-center box."""
    mesh = build_cartesian_mesh(domain, h)
    basis = tensor_basis_tables(p)
    material = homogeneous_material(c=1.5, rho=2.0)
    ops = assemble_all(mesh, basis, material, None, r=r)
    nodes = nodes_in_box(ops.dof_u, box)
    return ops, (mesh, basis, ops.dof_u, material, r), nodes


# The small profile's reference lattice: (+-12)^2 at h = 0.6, p = 2 has 79^2 modes for r = -1
# (81^2 for r = 1), so blocks of 21 (19) steps: 61 rows fill no whole number of them, and 42
# rows fill exactly two for r = -1.
BLOCKS = dict(domain=(-12.0, 12.0, -12.0, 12.0), h=0.6, box=(-3.0, 3.0, -3.0, 3.0))
# Its envelope is exactly 0 from t = 0.33 on, so the last steps run unforced.
SHORT_PULSE = GaussianPulse(center=(0.4, 0.4), sigma=0.15, t0=0.05, tau=0.01)
# Nonzero at no multiple of dt = 0.005: only the half-step samples of one step see it.
SPIKE = GaussianPulse(center=(0.4, 0.4), sigma=0.15, t0=0.2025, tau=5e-5)


@pytest.mark.parametrize("r", [-1.0, 1.0], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("p, lattice, pulse, dt, t_end", [
    (1, {}, PULSE, 0.005, 0.4), (2, {}, PULSE, 0.005, 0.4), (3, {}, PULSE, 0.005, 0.4),
    (2, BLOCKS, PULSE, 0.05, 3.0), (2, BLOCKS, PULSE, 0.05, 2.05),
    (2, {}, SHORT_PULSE, 0.005, 0.4), (2, {}, SPIKE, 0.005, 0.4)],
    ids=["1", "2", "3", "blocks", "full-blocks", "forcing-off", "half-step-spike"])
def test_modal_trajectory_matches_trajectory(p, lattice, pulse, dt, t_end, r):
    ops, problem, nodes = modal_case(p, r, **lattice)
    nodal = np.array([y[nodes] for y in trajectory(ops, pulse, dt, t_end)])
    modal = np.array(list(modal_trajectory(*problem, pulse, dt, t_end, nodes)))
    assert modal.shape == nodal.shape == (round(t_end / dt) + 1, nodes.size)
    assert np.max(np.abs(nodal)) > 0.0
    assert np.max(np.abs(modal - nodal)) <= 1e-12 * np.max(np.abs(nodal))
    if pulse is SHORT_PULSE:
        assert pulse.envelope(0.33) == 0.0 < pulse.envelope(0.32)
    if pulse is SPIKE:
        assert not np.any(pulse.envelope(np.arange(81) * dt))


def test_modal_trajectory_raises_at_the_first_non_finite_step():
    # A near-overflow pulse drives the zero mode of r = 1 like f t^2 / 2 past the largest
    # double. RK4 through its four stages on the same modes raises at t = 19.84 too,
    # and the 992 rows before that step come out first.
    pulse = GaussianPulse(amplitude=1e306, sigma=100.0, t0=10.0, tau=10.0)
    _, problem, nodes = modal_case(2, 1.0)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match=r"non-finite at t=19\.8400$"):
        rows.extend(modal_trajectory(*problem, pulse, 0.02, 40.0, nodes))
    assert len(rows) == 992 and np.all(np.isfinite(rows))


@pytest.mark.parametrize("r", [-1.0, 1.0], ids=["dirichlet", "neumann"])
def test_modal_trajectory_refuses_a_dt_past_the_stability_limit(r):
    # RK4's limit |dt omega| <= 2 sqrt(2), with omega_max from the assembled operators.
    ops, problem, nodes = modal_case(2, r)
    keep = np.setdiff1d(np.arange(ops.n_u), ops.dof_u.boundary) if r == -1.0 else slice(None)
    omega2 = la.eigh(ops.K[keep][:, keep].toarray(), ops.M_u[keep][:, keep].toarray(),
                     eigvals_only=True)
    dt_max = 2.0 * np.sqrt(2.0) / np.sqrt(np.max(np.abs(omega2)))
    next(modal_trajectory(*problem, PULSE, 0.999 * dt_max, 1.0, nodes))
    with pytest.raises(NumericalError, match="would become non-finite.*stability limit"):
        next(modal_trajectory(*problem, PULSE, 1.001 * dt_max, 1.0, nodes))


@pytest.mark.parametrize("material, r", [(homogeneous_material(), 0.5),
                                         (layered_material((1.0, 0.75), (0.75,)), -1.0)],
                         ids=["impedance", "layered"])
def test_modal_trajectory_refuses_a_run_that_does_not_separate(material, r):
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.5), 0.25)
    basis = tensor_basis_tables(1)
    assert not separates(mesh, basis, material, r)
    dof_u = assemble_all(mesh, basis, material, None, r=r).dof_u
    with pytest.raises(ValueError, match="constant kappa and rho"):
        next(modal_trajectory(mesh, basis, dof_u, material, r, PULSE, 0.01, 0.1,
                              np.arange(4)))


def test_modal_trajectory_refuses_nodes_off_a_lattice_rectangle():
    _, problem, nodes = modal_case(1, 1.0)
    with pytest.raises(ValueError, match="rectangle"):
        next(modal_trajectory(*problem, PULSE, 0.01, 0.1, nodes[1:]))


def dense_limit(ops):
    """RK4's limit 2 sqrt(2) / omega_max from a dense eigensolve of the assembled K and M_u."""
    keep = np.setdiff1d(np.arange(ops.n_u), ops.dof_u.boundary) if ops.r == -1.0 else slice(None)
    omega2 = la.eigh(ops.K[keep][:, keep].toarray(), ops.M_u[keep][:, keep].toarray(),
                     eigvals_only=True)
    return 2.0 * np.sqrt(2.0) / np.sqrt(np.max(omega2))


@pytest.mark.parametrize("r", [-1.0, 0.5, 1.0])
@pytest.mark.parametrize("material, p", [(homogeneous_material(c=1.5, rho=2.0), 2),
                                         (layered_material((1.0, 0.75), (0.75,), rho=2.0), 3)],
                         ids=["homogeneous", "layered"])
def test_stability_limit_is_the_dense_rk4_limit(material, p, r):
    # Exact for material varying only in y: the 1D lattice pairs carry the whole spectrum.
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.5), 0.25)
    basis = tensor_basis_tables(p)
    ops = assemble_all(mesh, basis, material, None, r=r)
    expected = dense_limit(ops)
    assert abs(stability_limit(mesh, basis, material, r) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("r", [-1.0, 1.0])
def test_stability_limit_is_conservative_when_material_varies_in_x(r):
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
    basis = tensor_basis_tables(2)
    material = wavy_material()
    limit = stability_limit(mesh, basis, material, r)
    assert limit <= dense_limit(assemble_all(mesh, basis, material, None, r=r))


def rk4_limit(eigenvalues):
    """Largest dt with |R(dt lam)| <= 1 for every eigenvalue, R RK4's stability polynomial.

    Bisection between 0 and 3 / max|lam|, past which every z = dt lam of the largest
    |lam| lies outside RK4's stability region; the slack 1e-10 absorbs roundoff in
    eigenvalues that lie on the imaginary axis.
    """
    def stable(dt):
        z = dt * eigenvalues
        return np.all(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) <= 1.0 + 1e-10)

    lo, hi = 0.0, 3.0 / np.max(np.abs(eigenvalues))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("p, r", [(1, -1.0), (1, 0.5), (2, -1.0)])
def test_damped_operator_has_no_growing_mode_and_obeys_the_stability_limit(p, r):
    # The paper's corollary on the semi-discrete operator L that every damped run
    # steps, with the cubic ramp of the default layer: L = d/dt on the unpinned
    # entries of y, built column by column through rhs with the forcing off.
    # The undamped bound lay 0.05-0.07% below the RK4 limit of L at r = -1; these
    # three small meshes are evidence that damping only widens the limit, not a proof.
    cfg = SimulationConfig(domain=(-3.0, 3.0, -3.0, 3.0), h=0.6, p=p, r=r)
    prob = build_problem(cfg, damped=True)
    stepper = WaveStepper(prob.ops)
    free = np.setdiff1d(np.arange(stepper.n_state), stepper.pinned)
    L = np.empty((free.size, free.size))
    e = np.zeros(stepper.n_state)
    for j, col in enumerate(free):
        e[col] = 1.0
        L[:, j] = stepper.rhs(e, 0.0)[free]
        e[col] = 0.0
    lam = la.eigvals(L)
    assert np.max(lam.real) <= 1e-12 * np.max(np.abs(lam))
    limit = stability_limit(prob.ops.mesh, prob.ops.basis, prob.ops.material, r)
    assert limit <= rk4_limit(lam)


@pytest.fixture()
def rhs_calls(monkeypatch):
    """A list that grows by one entry at every WaveStepper.rhs call."""
    calls, rhs = [], WaveStepper.rhs

    def counted(self, *args, **kwargs):
        calls.append(1)
        return rhs(self, *args, **kwargs)

    monkeypatch.setattr(WaveStepper, "rhs", counted)
    return calls


@STEPPER_CASES
def test_trajectory_refuses_a_dt_past_the_stability_limit_before_stepping(damped, r, rhs_calls):
    ops = small_ops(damped=damped, r=r)
    limit = stability_limit(ops.mesh, ops.basis, ops.material, r)
    with pytest.raises(NumericalError, match="would become non-finite.*stability limit"):
        next(trajectory(ops, PULSE, 1.001 * limit, 1.0))
    assert rhs_calls == []
    states = list(itertools.islice(trajectory(ops, PULSE, 0.999 * limit, 1.0), 3))
    assert len(rhs_calls) == 8 and all(np.all(np.isfinite(y)) for y in states)


def test_paper_resolution_trajectory_runs_without_a_warning():
    # Q3, h = 0.15 and dt = 0.01 sit at about 0.42 of the RK4 limit here.
    mesh = build_cartesian_mesh((0.0, 0.9, 0.0, 0.9), 0.15)
    ops = assemble_all(mesh, tensor_basis_tables(3), homogeneous_material(), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = list(itertools.islice(trajectory(ops, PULSE, 0.01, 1.0), 3))
    assert len(states) == 3


def test_recorders_shapes():
    ops = small_ops(damped=False)
    watch = np.array([0, 1, 2])
    res = run(ops, GaussianPulse(center=(0.5, 0.5), t0=0.05, tau=0.02, sigma=0.2),
              0.01, 0.1, watch_nodes=watch, energy_stride=5)
    assert res.times.shape == (11,)
    assert res.amplitudes.shape == (11,)
    assert [s.t for s in res.samples] == pytest.approx([0.0, 0.05, 0.1])
