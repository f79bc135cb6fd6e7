import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import pmlwave.experiments as experiments
from pmlwave.config import config_from_dict
from pmlwave.errors import ConfigError
from pmlwave.experiments import (LAPLACE_COLUMNS, LongtimeResult, _matched_inner_nodes,
                                 _projection_residual, build_problem,
                                 run_convergence_study, run_laplace_battery,
                                 run_longtime_experiment, run_pml_error_experiment,
                                 run_simulation)
from pmlwave.mesh import build_cartesian_mesh, dof_map, nodes_in_box, physical_quad_points
from pmlwave.quadrature import tensor_basis_tables
from pmlwave.timestepper import WaveStepper

REPO = Path(__file__).resolve().parents[1]
MICRO = {
    "domain": [-1.2, 1.2, -1.2, 1.2],
    "reference_domain": [-2.4, 2.4, -2.4, 2.4],
    "h": 0.6,
    "p": 1,
    "dt": 0.01,
    "t_end": 0.1,
    "energy_stride": 5,
}


def micro_cfg(**over):
    data = dict(MICRO)
    data.update(over)
    return config_from_dict(data)


def test_build_problem_damping_switch():
    cfg = micro_cfg()
    damped = build_problem(cfg, damped=True)
    free = build_problem(cfg, damped=False)
    assert damped.ops.has_damping and not free.ops.has_damping
    assert free.ops.B_x.nnz == 0 and free.ops.G_y.nnz == 0
    assert free.ops.M_d1.nnz == free.ops.M_d0.nnz == free.ops.M_phid_x.nnz == 0
    ref = build_problem(cfg, domain=cfg.reference_domain, damped=False)
    assert ref.ops.mesh.nx == 2 * free.ops.mesh.nx


def test_run_simulation_recording():
    cfg = micro_cfg(snapshot_times=[0.05])
    prob, result = run_simulation(cfg)
    assert result.times.size == 11
    assert result.amplitudes.shape == (11,)
    # energy sampled every 5 steps: k = 0, 5, 10
    assert len(result.samples) == 3
    assert [t for t, _ in result.snapshots] == [0.05]
    assert result.times[-1] == pytest.approx(0.1)
    # final_state is the flat y after the last step; its u gives the last amplitude.
    watch = nodes_in_box(prob.ops.dof_u, cfg.inner_box())
    assert np.max(np.abs(result.final_state[:prob.ops.n_u][watch])) == result.amplitudes[-1]


def test_matched_inner_nodes_agree():
    cfg = micro_cfg()
    a = build_problem(cfg, damped=True)
    b = build_problem(cfg, domain=cfg.reference_domain, damped=False)
    idx_a, idx_b = _matched_inner_nodes(a.ops.dof_u, b.ops.dof_u, cfg.inner_box())
    assert idx_a.size == idx_b.size == 9  # 3x3 shared lattice
    np.testing.assert_allclose(a.ops.dof_u.node_coords[idx_a],
                               b.ops.dof_u.node_coords[idx_b], atol=1e-12)


def test_matched_inner_nodes_mismatch_raises():
    cfg_a = micro_cfg()
    cfg_b = micro_cfg(h=0.3)
    a = build_problem(cfg_a, damped=True)
    b = build_problem(cfg_b, damped=False)
    with pytest.raises(RuntimeError, match="disagree"):
        _matched_inner_nodes(a.ops.dof_u, b.ops.dof_u, cfg_a.inner_box())


def test_pml_error_series_shape():
    series = run_pml_error_experiment(micro_cfg())
    assert series.errors.shape == (11,)
    assert series.n_nodes == 9
    assert series.errors[0] == 0.0
    assert series.final_error == series.errors[-1]
    assert series.max_error == np.max(series.errors)


def counting_rk4_steps(monkeypatch) -> list:
    """The stepper of every WaveStepper.rk4_step call, in call order."""
    calls = []
    rk4_step = WaveStepper.rk4_step

    def counting_step(self, *args, **kwargs):
        calls.append(self)
        return rk4_step(self, *args, **kwargs)

    monkeypatch.setattr(WaveStepper, "rk4_step", counting_step)
    return calls


def test_pml_error_steps_both_runs_in_lock_step(monkeypatch):
    # r = 0.5 couples the reference's modes, so it steps its assembled system.
    calls = counting_rk4_steps(monkeypatch)
    run_pml_error_experiment(micro_cfg(r=0.5))
    damped, reference = calls[0], calls[1]
    assert damped.ops.has_damping and not reference.ops.has_damping
    assert calls == [damped, reference] * 10


@pytest.mark.parametrize("r", [-1.0, 1.0])
def test_pml_error_steps_a_separable_reference_without_assembling_it(monkeypatch, r):
    calls = counting_rk4_steps(monkeypatch)
    assembled = []
    assemble_all = experiments.assemble_all

    def recording_assemble_all(mesh, *args, **kwargs):
        assembled.append(mesh.domain)
        return assemble_all(mesh, *args, **kwargs)

    monkeypatch.setattr(experiments, "assemble_all", recording_assemble_all)
    cfg = micro_cfg(r=r)
    run_pml_error_experiment(cfg)
    assert len(calls) == 10
    assert all(stepper is calls[0] for stepper in calls) and calls[0].ops.has_damping
    assert assembled == [cfg.domain]


@pytest.mark.parametrize("r", [-1.0, 0.5])
def test_pml_error_series_matches_separate_runs(r):
    cfg = micro_cfg(r=r)
    pml = build_problem(cfg, domain=cfg.domain, damped=True)
    ref = build_problem(cfg, domain=cfg.reference_domain, damped=False)
    idx_pml, idx_ref = _matched_inner_nodes(pml.ops.dof_u, ref.ops.dof_u, cfg.inner_box())
    box_values = []
    for prob, idx in ((pml, idx_pml), (ref, idx_ref)):
        stepper = WaveStepper(prob.ops, cfg.gaussian_pulse())
        y = np.zeros(stepper.n_state)
        values = [y[idx]]
        for k in range(10):
            y = stepper.rk4_step(y, k * cfg.dt, cfg.dt)
            values.append(y[idx])
        box_values.append(np.array(values))
    expect = np.max(np.abs(box_values[0] - box_values[1]), axis=1)
    series = run_pml_error_experiment(cfg)
    if r == -1.0:
        # The separable reference is stepped in its eigenbasis: equal up to roundoff.
        assert np.max(np.abs(series.errors - expect)) <= 1e-12 * np.max(expect)
    else:
        assert np.array_equal(series.errors, expect)
    assert np.array_equal(series.times, np.arange(11) * cfg.dt)
    assert series.final_error > 0.0


def test_small_profile_reproduces_the_benchmark_outputs():
    # The headline numbers of pml-error --profile small, as the benchmark records them.
    with open(REPO / "perfbench" / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    want = expected["workloads"]["pml_error_small"]
    data = json.loads(resources.files("pmlwave").joinpath("profiles/small.json")
                      .read_text(encoding="utf-8"))
    series = run_pml_error_experiment(config_from_dict(data, experiment="pml-error"))
    assert series.final_error == pytest.approx(want["final_error"], rel=expected["rtol"], abs=0)
    assert series.max_error == pytest.approx(want["max_error"], rel=expected["rtol"], abs=0)


def test_zero_forcing_gives_zero_error():
    series = run_pml_error_experiment(micro_cfg(forcing_amplitude=0.0))
    assert np.all(series.errors == 0.0)


def test_reference_reach_warning():
    # shortest reflection path is 2.4 + 1.8; ct_end = 6 exceeds it
    with pytest.warns(RuntimeWarning, match="reference domain too small"):
        run_pml_error_experiment(micro_cfg(t_end=6.0))


def test_reference_reach_sees_a_thin_fast_layer():
    # c = 3 in a band 0.02 thick: 3 * 8 = 24 exceeds the shortest reflection path 18.6
    cfg = config_from_dict({"material": "layered", "layer_speeds": [1, 3, 1],
                            "interfaces": [1.0, 1.02], "h": 0.02, "p": 1},
                           experiment="pml-error")
    with pytest.warns(RuntimeWarning, match="reference domain too small"):
        experiments._check_reference_reach(cfg, 8.0)


def test_longtime_windows():
    cfg = micro_cfg(t_end=1.0, amplitude_stride=4)
    res = run_longtime_experiment(cfg)
    assert isinstance(res, LongtimeResult)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(1.0)
    # stride 4 over 101 samples keeps 0,4,...,100
    assert res.times.size == 26
    assert res.global_peak == res.window_peak(0.0, 1.0)
    with pytest.raises(ValueError, match="window"):
        res.window_peak(5.0, 6.0)


def test_convergence_study_rows():
    cfg = micro_cfg(t_end=0.2, h_values=[0.6, 0.3], p_values=[1])
    rows = run_convergence_study(cfg)
    assert [r["h"] for r in rows] == [0.6, 0.3]
    assert all(r["p"] == 1 for r in rows)
    assert np.isnan(rows[0]["order"]) and np.isfinite(rows[1]["order"])
    with pytest.raises(ConfigError, match="two h values"):
        run_convergence_study(micro_cfg(h_values=[0.6]))


def test_laplace_battery_rows_hold_exactly_the_report_columns():
    rows = run_laplace_battery()
    assert all(tuple(r) == LAPLACE_COLUMNS for r in rows)
    # A column a check does not use holds NaN, not a value from another check.
    recovery = [r for r in rows if r["check"] == "interpolant-recovery"]
    assert recovery and all(np.isnan(r["h"]) and np.isnan(r["lhs"]) for r in recovery)


def test_projection_residual_matches_per_element_reference():
    mesh = build_cartesian_mesh((0.0, 1.0, 0.0, 1.5), 0.5)
    basis = tensor_basis_tables(2)
    dm = dof_map(mesh, 2, "discontinuous")
    rng = np.random.default_rng(4)
    g, gp = rng.standard_normal(dm.n_dofs), rng.standard_normal(dm.n_dofs)
    s = 2.0 + 3.0j

    def d_fn(x, y):
        return 4.0 * x * x

    X, Y = physical_quad_points(mesh, basis)
    wq = basis.w2d * (mesh.hx * mesh.hy / 4.0)
    expect = 0.0
    for e, cells in enumerate(dm.cell_dofs):
        vals = (np.conj(s) + d_fn(X[e], Y[e])) * (gp[cells] @ basis.val2d) \
            - g[cells] @ basis.val2d
        expect = max(expect, float(np.max(np.abs(basis.val2d @ (wq * vals)))))
    got = _projection_residual(g, gp, mesh, basis, dm, d_fn, s)
    assert got == pytest.approx(expect, rel=1e-13)
