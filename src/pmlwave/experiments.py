"""Experiment drivers: damped-domain runs, reference comparisons, studies.

The absorbing-layer error experiment follows the standard enlarged-domain
protocol: the same problem is solved once on the truncated domain with the
layer active and once on a domain large enough that boundary reflections
cannot re-enter the observation box before t_end, and the fields are
compared at the shared solution nodes inside that box at every time step.
A reference that separates (timestepper.separates) is stepped mode by mode,
without assembling its operators (timestepper.modal_trajectory).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .assembly import Operators, assemble_all, dump_matrices
from .config import SimulationConfig
from .mesh import (DofMap, MeshQ, build_cartesian_mesh, check_interface_alignment,
                   dof_map, homogeneous_material, nodes_in_box, physical_quad_points)
from .quadrature import BasisQp, tensor_basis_tables
from .timestepper import RunResult, modal_trajectory, run, separates, trajectory


@dataclass(frozen=True)
class Problem:
    """A fully assembled problem ready for time stepping."""
    config: SimulationConfig
    mesh: MeshQ
    basis: BasisQp
    ops: Operators


@dataclass(frozen=True)
class PmlErrorSeries:
    """Per-step max-norm difference between damped and reference runs."""
    p: int
    h: float
    dt: float
    times: np.ndarray
    errors: np.ndarray
    n_nodes: int

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors))


@dataclass(frozen=True)
class LongtimeResult:
    times: np.ndarray
    amplitudes: np.ndarray

    def window_peak(self, t0: float, t1: float) -> float:
        mask = (self.times >= t0) & (self.times <= t1)
        if not np.any(mask):
            raise ValueError(f"no samples in window [{t0}, {t1}]")
        return float(np.max(self.amplitudes[mask]))

    @property
    def global_peak(self) -> float:
        return float(np.max(self.amplitudes))


def build_problem(cfg: SimulationConfig, domain=None, damped: bool = True) -> Problem:
    """Assemble mesh, basis and operators for a config on a given domain."""
    dom = tuple(domain) if domain is not None else cfg.domain
    mesh = build_cartesian_mesh(dom, cfg.h)
    material = cfg.material_field()
    check_interface_alignment(mesh, material)
    basis = tensor_basis_tables(cfg.p)
    pml_cfg = cfg.pml_config() if damped else None
    ops = assemble_all(mesh, basis, material, pml_cfg, r=cfg.r)
    return Problem(config=cfg, mesh=mesh, basis=basis, ops=ops)


def run_simulation(cfg: SimulationConfig, matrix_dir=None) -> tuple[Problem, RunResult]:
    """Single damped run on the truncated domain with full recording."""
    prob = build_problem(cfg, damped=True)
    if matrix_dir is not None:
        dump_matrices(prob.ops, matrix_dir)
    inner = cfg.inner_box()
    watch = nodes_in_box(prob.ops.dof_u, inner)
    result = run(prob.ops, cfg.gaussian_pulse(), cfg.dt, cfg.effective_t_end(),
                 energy_stride=cfg.energy_stride, watch_nodes=watch,
                 snapshot_times=cfg.snapshot_times)
    return prob, result


def _matched_inner_nodes(dof_a: DofMap, dof_b: DofMap, box) -> tuple:
    """Indices of box nodes in both continuous spaces, verified to coincide."""
    idx_a = nodes_in_box(dof_a, box)
    idx_b = nodes_in_box(dof_b, box)
    if idx_a.size != idx_b.size:
        raise RuntimeError(
            f"observation boxes disagree: {idx_a.size} vs {idx_b.size} nodes"
        )
    ca = dof_a.node_coords[idx_a]
    cb = dof_b.node_coords[idx_b]
    if float(np.max(np.abs(ca - cb))) > 1e-9:
        raise RuntimeError("observation-box nodes of the two runs do not coincide")
    return idx_a, idx_b


def _check_reference_reach(cfg: SimulationConfig, t_end: float) -> None:
    # Shortest reflection path: pulse center to the reference boundary and
    # back to the observation box. Beyond that time the comparison is stale.
    x0, x1, y0, y1 = cfg.reference_domain
    cx, cy = 0.0, 0.0
    to_bnd = min(cx - x0, x1 - cx, cy - y0, y1 - cy)
    xi0, xi1, yi0, yi1 = cfg.inner_box()
    back = min(xi0 - x0, x1 - xi1, yi0 - y0, y1 - yi1)
    ys = np.linspace(y0, y1, 257)
    c_max = float(np.max(cfg.material_field().wave_speed(np.zeros_like(ys), ys)))
    if c_max * t_end > to_bnd + back:
        warnings.warn(
            f"reference domain too small: c_max*t_end = {c_max * t_end:.3g} exceeds "
            f"the shortest reflection path {to_bnd + back:.3g}; errors after "
            f"t = {(to_bnd + back) / c_max:.3g} include boundary reflections",
            RuntimeWarning, stacklevel=2)


def run_pml_error_experiment(cfg: SimulationConfig) -> PmlErrorSeries:
    """Max-norm error of the damped run against the enlarged-domain reference.

    Both runs share h, p, dt, forcing and material; the reference disables
    the layer and relies on domain size. The two runs advance in lock-step
    and are compared at every step over the solution nodes inside the
    observation box, so neither keeps more than its current state. Only a
    reference that does not separate is assembled and stepped by trajectory.
    """
    t_end = cfg.effective_t_end()
    _check_reference_reach(cfg, t_end)
    inner = cfg.inner_box()
    pulse = cfg.gaussian_pulse()

    prob_pml = build_problem(cfg, domain=cfg.domain, damped=True)
    mesh = build_cartesian_mesh(cfg.reference_domain, cfg.h)
    if separates(mesh, prob_pml.basis, prob_pml.ops.material, cfg.r):
        dof_ref = dof_map(mesh, cfg.p, "continuous", gll=prob_pml.basis.gll_nodes)
        idx_pml, idx_ref = _matched_inner_nodes(prob_pml.ops.dof_u, dof_ref, inner)
        reference = modal_trajectory(mesh, prob_pml.basis, dof_ref, prob_pml.ops.material,
                                     cfg.r, pulse, cfg.dt, t_end, idx_ref)
    else:
        prob_ref = build_problem(cfg, domain=cfg.reference_domain, damped=False)
        idx_pml, idx_ref = _matched_inner_nodes(prob_pml.ops.dof_u, prob_ref.ops.dof_u, inner)
        reference = (y[idx_ref] for y in trajectory(prob_ref.ops, pulse, cfg.dt, t_end))

    steps = zip(trajectory(prob_pml.ops, pulse, cfg.dt, t_end), reference, strict=True)
    errors = np.array([np.max(np.abs(y_pml[idx_pml] - u_ref)) for y_pml, u_ref in steps])
    return PmlErrorSeries(p=cfg.p, h=cfg.h, dt=cfg.dt, errors=errors, n_nodes=idx_pml.size,
                          times=np.arange(errors.size) * cfg.dt)


def run_longtime_experiment(cfg: SimulationConfig) -> LongtimeResult:
    """Damped run recording max |u| over the observation box every step."""
    prob = build_problem(cfg, damped=True)
    watch = nodes_in_box(prob.ops.dof_u, cfg.inner_box())
    result = run(prob.ops, cfg.gaussian_pulse(), cfg.dt, cfg.effective_t_end(),
                 watch_nodes=watch)
    stride = max(int(cfg.amplitude_stride), 1)
    sel = np.arange(0, result.times.size, stride)
    if sel[-1] != result.times.size - 1:
        sel = np.append(sel, result.times.size - 1)
    return LongtimeResult(times=result.times[sel], amplitudes=result.amplitudes[sel])


# Columns of laplace_report.csv, in order. Every battery row holds exactly these
# keys, with NaN in the columns its check does not use.
LAPLACE_COLUMNS = ("check", "p", "h", "s_re", "s_im", "d_x", "d_y",
                   "lhs", "rhs", "value", "passed")


def run_laplace_battery(seed: int = 7) -> list[dict]:
    """Frequency-domain verification battery; one row per check.

    Covers the solution-energy bound a*E_u^2 <= 2*E_u*E_f on randomized
    frequencies and damping strengths and, in closed form, for all interior data
    at fixed ones, manufactured-solution convergence at
    the expected order p+1, recovery of coefficients from values at the
    quadrature points, and the weighted projection's defining residual.
    """
    from .laplace import (assemble_reduced, energy_inequality_check, interior_energy_bound,
                          manufactured_convergence, projection_pi_p,
                          quadrature_point_interpolant)

    rng = np.random.default_rng(seed)
    material = homogeneous_material()
    rows = []

    def add_row(**values):
        rows.append({**dict.fromkeys(LAPLACE_COLUMNS, np.nan), **values})

    # Energy bound: randomized s = a + ib with Re s > 0, constant damping.
    mesh6 = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 6.0)
    for k in range(20):
        p = int(rng.integers(1, 3))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(-5.0, 5.0))
        d_x = float(rng.choice([0.0, 1.0, 5.0]))
        d_y = float(rng.choice([0.0, 1.0, 5.0]))
        basis = tensor_basis_tables(p)
        system = assemble_reduced(mesh6, basis, material, complex(a, b), d_x, d_y)
        f = rng.standard_normal(system.M_u.shape[0])
        lhs, rhs, margin = energy_inequality_check(system, f)
        add_row(check="energy-bound", p=p, h=1.0 / 6.0, s_re=a, s_im=b, d_x=d_x, d_y=d_y,
                lhs=lhs, rhs=rhs, value=margin, passed=margin >= -1e-10 * rhs)

    # Manufactured convergence: order p+1 with and without damping.
    s_conv = complex(1.0, 1.0)
    for p in (1, 2):
        for d in (0.0, 3.0):
            res = manufactured_convergence(p, (0.25, 0.125, 0.0625), s_conv,
                                           d_x=d, d_y=d)
            order = float(res["order"][-1])
            add_row(check="manufactured-order", p=p, h=float(res["h"][-1]),
                    s_re=s_conv.real, s_im=s_conv.imag, d_x=d, d_y=d,
                    lhs=float(res["error"][-1]), rhs=float(p + 1),
                    value=order, passed=abs(order - (p + 1)) <= 0.25)

    # Coefficient recovery from values at the quadrature points.
    for p in (1, 2, 3):
        basis = tensor_basis_tables(p)
        coef = rng.standard_normal(basis.n_loc)
        vals = coef @ basis.val2d
        rec = quadrature_point_interpolant(vals, basis)
        err = float(np.max(np.abs(rec - coef)))
        add_row(check="interpolant-recovery", p=p, value=err, passed=err <= 1e-10)

    # Weighted projection: (w, (conj(s)+d) Pg)_h == (w, g)_h elementwise.
    mesh3 = build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 3.0)
    s_proj = complex(2.0, 3.0)
    for p in (1, 2):
        basis = tensor_basis_tables(p)
        dof_w = dof_map(mesh3, p, "discontinuous", gll=basis.gll_nodes)
        g = rng.standard_normal(dof_w.n_dofs)

        def d_fn(x, y):
            return 4.0 * x * x

        gp = projection_pi_p(g, mesh3, basis, dof_w, d_fn, s_proj)
        res = _projection_residual(g, gp, mesh3, basis, dof_w, d_fn, s_proj)
        add_row(check="projection-residual", p=p, h=1.0 / 3.0,
                s_re=s_proj.real, s_im=s_proj.imag, value=res, passed=res <= 1e-11)

        # Constant damping reduces the projection to division by conj(s)+d.
        d_const = 2.5
        gp_c = projection_pi_p(g, mesh3, basis, dof_w, lambda x, y: d_const + 0.0 * x,
                               s_proj)
        expect = g / (np.conj(s_proj) + d_const)
        err_c = float(np.max(np.abs(gp_c - expect)))
        add_row(check="projection-constant", p=p, h=1.0 / 3.0, s_re=s_proj.real,
                s_im=s_proj.imag, d_x=d_const, d_y=d_const, value=err_c, passed=err_c <= 1e-11)

    # Energy bound for every interior datum at once: sup Re(s)*E_u/E_f <= 2, at
    # fixed points (no draw, so the rows above keep their values). Undamped real
    # s = 10 gave the largest sup (0.914) of a sweep at Q3, h = 1/48, over
    # Re s in [1e-3, 10], Im s in [-60, 60] and d in {0, 0.5, 5, 50};
    # 0.01 + 4.44i sits next to the lowest mode.
    for p, s, d_x, d_y in ((1, 10.0, 0.0, 0.0), (3, 10.0, 0.0, 0.0), (2, 0.01 + 4.44j, 0.0, 0.0),
                           (2, 0.5 + 5.0j, 1.0, 5.0), (2, 2.0 - 3.0j, 5.0, 0.0),
                           (1, 5.0 + 5.0j, 5.0, 5.0), (3, 0.01 + 20.0j, 50.0, 50.0)):
        s = complex(s)
        system = assemble_reduced(mesh6, tensor_basis_tables(p), material, s, d_x, d_y)
        sup = interior_energy_bound(system)
        add_row(check="energy-bound-interior", p=p, h=1.0 / 6.0, s_re=s.real, s_im=s.imag,
                d_x=d_x, d_y=d_y, rhs=2.0, value=sup, passed=sup <= 2.0)
    return rows


def _projection_residual(g, gp, mesh, basis, dof_w, d_fn, s) -> float:
    """Max elementwise defect of (w, (conj(s)+d) Pg)_h - (w, g)_h."""
    X, Y = physical_quad_points(mesh, basis)
    wq = basis.w2d * (mesh.hx * mesh.hy / 4.0)
    d_q = np.broadcast_to(np.asarray(d_fn(X, Y), dtype=float), X.shape)
    vals_gp = gp[dof_w.cell_dofs] @ basis.val2d     # (n_elem, nq)
    vals_g = g[dof_w.cell_dofs] @ basis.val2d
    defect = np.einsum("mq,q,eq->em", basis.val2d, wq,
                       (np.conj(s) + d_q) * vals_gp - vals_g)
    return float(np.max(np.abs(defect)))


def run_convergence_study(cfg: SimulationConfig) -> list[dict]:
    """Layer-error refinement study over p_values x h_values.

    Returns one row per (p, h) with the final-time max-norm error and the
    observed order against the previous h for the same p.
    """
    p_values, h_values = cfg.study_grid()
    rows = []
    for p in p_values:
        prev = None
        for h in h_values:
            sub = replace(cfg, p=int(p), h=float(h), h_values=None, p_values=None)
            series = run_pml_error_experiment(sub)
            err = series.final_error
            order = np.nan
            if prev is not None:
                h_prev, e_prev = prev
                order = float(np.log(e_prev / err) / np.log(h_prev / h))
            rows.append({"p": int(p), "h": float(h), "final_error": err,
                         "order": order})
            prev = (float(h), err)
    return rows
