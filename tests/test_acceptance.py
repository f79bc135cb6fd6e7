"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single pass/fail line (run with -s to stream them) and
asserts both the numeric tolerance and its runtime budget. The heavyweight
wave-propagation checks reuse the experiment drivers, so this file doubles as
a worked example of the public API. Desk-scale resolution (h down to 0.3,
orders 1 and 2) keeps the whole file a few minutes; the bundled 'paper'
profile reruns the same protocols at full resolution from the command line.
"""

import time

import numpy as np
import pytest

from oracles import OracleProblem
from pmlwave.assembly import assemble_all, assemble_stiffness
from pmlwave.config import config_from_dict
from pmlwave.experiments import (_projection_residual, build_problem,
                                 run_longtime_experiment,
                                 run_pml_error_experiment)
from pmlwave.laplace import (assemble_reduced, energy_inequality_check,
                             manufactured_convergence, projection_pi_p,
                             quadrature_point_interpolant)
from pmlwave.mesh import (MaterialField, build_cartesian_mesh, dof_map,
                          homogeneous_material)
from pmlwave.pml import PmlConfig, spectral_identity_check
from pmlwave.quadrature import gauss_legendre_rule, tensor_basis_tables
from pmlwave.timestepper import run
from test_timestepper import CutPulse, split_state


def report(num, name, ok, detail, elapsed, budget):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} {name} "
            f"({detail}; {elapsed:.2f}s of {budget:g}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_quadrature_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1, 2, 3, 4):
        rule = gauss_legendre_rule(p + 1)
        for k in range(2 * p + 2):
            got = float(rule.weights @ rule.nodes**k)
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            worst = max(worst, abs(got - exact) / max(abs(exact), 1.0))
    report(1, "quadrature exactness to degree 2p+1",
           worst <= 1e-13, f"max rel err {worst:.2e}",
           time.perf_counter() - t0, 1.0)


def test_criterion_02_spectral_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(1000):
        s = complex(rng.uniform(0.05, 5.0), rng.uniform(-20.0, 20.0))
        d = float(rng.uniform(0.0, 50.0))
        worst = max(worst, spectral_identity_check(s, d))
    report(2, "stretch-factor spectral identity over 1000 samples",
           worst <= 1e-12, f"max residual {worst:.2e}",
           time.perf_counter() - t0, 1.0)


def test_criterion_03_discrete_energy_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    mat = homogeneous_material(1.0)
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 6.0)
    worst = -np.inf  # worst relative overshoot of lhs beyond rhs
    for _ in range(20):
        p = int(rng.choice((1, 2)))
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0))
        d = float(rng.choice((0.0, 1.0, 5.0)))
        basis = tensor_basis_tables(p)
        system = assemble_reduced(mesh, basis, mat, s, d, d)
        f = rng.standard_normal(system.dof_u.n_dofs) + 1j * rng.standard_normal(
            system.dof_u.n_dofs)
        f[system.dof_u.boundary] = 0.0
        lhs, rhs, _ = energy_inequality_check(system, f)
        worst = max(worst, (lhs - rhs) / rhs)
    report(3, "frequency-domain energy bound, 20 random cases",
           worst <= 1e-10, f"worst (lhs-rhs)/rhs {worst:.2e}",
           time.perf_counter() - t0, 30.0)


def test_criterion_04_a_priori_convergence():
    t0 = time.perf_counter()
    details, ok = [], True
    for p in (1, 2):
        for d in (0.0, 3.0):
            res = manufactured_convergence(p, [0.25, 0.125, 0.0625],
                                           s=1.0 + 1.0j, d_x=d, d_y=d)
            observed = res["order"][-1]
            ok = ok and abs(observed - (p + 1)) <= 0.25
            details.append(f"p={p} d={d:g}: {observed:.2f}")
    report(4, "manufactured-solution L2 orders p+1 +/- 0.25",
           ok, ", ".join(details), time.perf_counter() - t0, 60.0)


def test_criterion_05_06_energy_decay_and_zero_damping_reduction():
    t0 = time.perf_counter()
    cfg = config_from_dict({"h": 0.6, "p": 2, "t_end": 10.0})
    prob = build_problem(cfg, damped=False)
    result = run(prob.ops, CutPulse(cutoff=2.0), cfg.dt, 10.0, energy_stride=1)
    E = np.array([s.E for s in result.samples])
    ts = np.array([s.t for s in result.samples])
    free = E[ts >= 2.0 - 1e-12]
    growth = np.diff(free) / np.maximum(free[:-1], 1e-300)
    worst = float(np.max(growth))
    elapsed = time.perf_counter() - t0
    report(5, "undamped energy non-increasing after forcing stops",
           worst <= 1e-8, f"max relative step increase {worst:.2e}",
           elapsed, 120.0)

    max_u = max(s.max_amp for s in result.samples)
    _, _, phi_x, phi_y = split_state(result.final_state, prob.ops.n_u)
    max_phi = max(float(np.max(np.abs(phi_x), initial=0.0)),
                  float(np.max(np.abs(phi_y), initial=0.0)))
    couplings_empty = (prob.ops.B_x.nnz == 0 and prob.ops.B_y.nnz == 0
                       and prob.ops.G_x.nnz == 0 and prob.ops.G_y.nnz == 0)
    ok = couplings_empty and max_phi <= 1e-12 * max_u
    report(6, "zero damping keeps auxiliary fields at zero",
           ok, f"max|phi| {max_phi:.1e} vs 1e-12*max|u| {1e-12 * max_u:.1e}, "
               f"couplings empty: {couplings_empty}",
           elapsed, 120.0)


@pytest.mark.slow
def test_criterion_07_layer_error_convergence():
    t0 = time.perf_counter()
    details, ok = [], True
    for p in (1, 2):
        errs = {}
        for h in (0.6, 0.3):
            cfg = config_from_dict({"h": h, "p": p, "t_end": 10.0})
            errs[h] = run_pml_error_experiment(cfg).final_error
        order = float(np.log(errs[0.6] / errs[0.3]) / np.log(2.0))
        ok = ok and errs[0.3] < errs[0.6] and order >= p - 0.3
        details.append(f"p={p}: {errs[0.6]:.2e} -> {errs[0.3]:.2e}, order {order:.2f}")
    report(7, "layer error shrinks under refinement with order >= p-0.3",
           ok, ", ".join(details), time.perf_counter() - t0, 900.0)


@pytest.mark.slow
@pytest.mark.parametrize("material", ["homogeneous", "layered"])
def test_criterion_08_long_time_stability(material):
    t0 = time.perf_counter()
    cfg = config_from_dict({"h": 0.6, "p": 2, "t_end": 150.0,
                            "material": material}, experiment="longtime")
    res = run_longtime_experiment(cfg)
    late = res.window_peak(100.0, 150.0)
    mid = res.window_peak(50.0, 100.0)
    ratio = late / res.global_peak
    ok = late <= mid and ratio <= 0.05
    report(8, f"long-time amplitude stays down ({material})",
           ok, f"peak[100,150] {late:.2e} <= peak[50,100] {mid:.2e}, "
               f"late/global {ratio:.1e}",
           time.perf_counter() - t0, 1200.0)


def test_criterion_09_assembly_against_oracle():
    t0 = time.perf_counter()
    mesh1 = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
    basis1 = tensor_basis_tables(1)
    dm1 = dof_map(mesh1, 1, "continuous")
    K1 = assemble_stiffness(mesh1, basis1, dm1, lambda x, y: 1.0).toarray()
    expect = np.array([
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3],
    ])
    err_q1 = float(np.max(np.abs(K1 - expect)))
    ok = err_q1 <= 1e-12

    domain = (0.0, 1.0, 0.0, 1.0)
    mesh = build_cartesian_mesh(domain, 0.5)
    mat = MaterialField(
        kappa=lambda x, y: 1.0 + 0.3 * np.asarray(x) + 0.5 * np.asarray(y) ** 2,
        rho=lambda x, y: 2.0 + 0.25 * np.asarray(x) * np.asarray(y),
        interfaces=(),
    )
    pml = PmlConfig(delta=0.5, x_inner=0.5, y_inner=0.5, d0_x=3.0, d0_y=2.0)

    def dx_fn(x, y):
        return 3.0 * max((abs(x) - 0.5) / 0.5, 0.0) ** 3

    def dy_fn(x, y):
        return 2.0 * max((abs(y) - 0.5) / 0.5, 0.0) ** 3

    worst = 0.0
    for p in (1, 2):
        ops = assemble_all(mesh, tensor_basis_tables(p), mat, pml)
        ref = OracleProblem(domain, 2, 2, p, mat.kappa, mat.rho,
                            dx_fn, dy_fn).matrices()
        got = {"M_u": ops.M_u, "M_d1": ops.M_d1, "M_d0": ops.M_d0, "K": ops.K,
               "B_x": ops.B_x, "B_y": ops.B_y, "G_x": ops.G_x, "G_y": ops.G_y,
               "M_phid_x": ops.M_phid_x, "M_phid_y": ops.M_phid_y}
        for name, A in got.items():
            scale = max(np.max(np.abs(ref[name])), 1e-30)
            worst = max(worst, float(np.max(np.abs(A.toarray() - ref[name]))) / scale)
    ok = ok and worst <= 1e-11
    report(9, "assembled operators match the independent dense oracle",
           ok, f"Q1 stiffness err {err_q1:.1e}, oracle rel err {worst:.1e}",
           time.perf_counter() - t0, 10.0)


def test_criterion_10_interpolation_and_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_rec = 0.0
    for p in (1, 2, 3):
        basis = tensor_basis_tables(p)
        coeffs = rng.standard_normal(basis.n_loc)
        samples = coeffs @ basis.val2d
        recovered = quadrature_point_interpolant(samples, basis)
        worst_rec = max(worst_rec, float(np.max(np.abs(recovered - coeffs))))

    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 3.0)
    basis = tensor_basis_tables(2)
    dof_w = dof_map(mesh, 2, "discontinuous")
    g = rng.standard_normal(dof_w.n_dofs) + 1j * rng.standard_normal(dof_w.n_dofs)
    d_fn = lambda x, y: 4.0 * np.asarray(x) ** 2
    s = 2.0 + 3.0j
    gp = projection_pi_p(g, mesh, basis, dof_w, d_fn, s)
    residual = _projection_residual(g, gp, mesh, basis, dof_w, d_fn, s)
    ok = worst_rec <= 1e-10 and residual <= 1e-11
    report(10, "quadrature-point interpolant and damped projection",
           ok, f"recovery err {worst_rec:.1e}, projection residual {residual:.1e}",
           time.perf_counter() - t0, 5.0)
