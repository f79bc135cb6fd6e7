"""Span recording around the calls into each pmlwave module.

The traced benchmark run wraps the public functions of each layer from
here, so the package itself stays uninstrumented. Hooks resolve by module
attribute when the trace starts: a target that no longer exists is
reported as absent and its metrics print as ``absent`` while the run goes
on. Every alias of a wrapped function inside the package (``from .solvers
import pcg`` binds a second name) is replaced, and restored on uninstall.

Spans are (name, start, end, parent index) rows kept in memory; the worker
writes them once when it exits. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested because
the package is single-threaded.
"""

import importlib
import inspect
import json
import os
import sys
import time

import numpy as np
import scipy.sparse as sp

MB = float(2**20)
# Bytes moved per stored nonzero in a CSR product: 8 B value + 4 B column index.
SPMV_BYTES_PER_NNZ = 12

# (span name, module, attribute path). The span name is the layer metric prefix.
HOOKS = (
    ("experiments.build_problem", "pmlwave.experiments", "build_problem"),
    ("assembly.assemble_all", "pmlwave.assembly", "assemble_all"),
    ("assembly.constrain_operators", "pmlwave.assembly", "constrain_operators"),
    ("solvers.pcg", "pmlwave.solvers", "pcg"),
    ("timestepper.run", "pmlwave.timestepper", "run"),
    ("timestepper.stepper_init", "pmlwave.timestepper", "WaveStepper.__init__"),
    ("timestepper.rk4_step", "pmlwave.timestepper", "WaveStepper.rk4_step"),
    ("timestepper.rhs", "pmlwave.timestepper", "WaveStepper.rhs"),
    ("timestepper.energy_matrices", "pmlwave.timestepper", "energy_matrices"),
    ("timestepper.energy", "pmlwave.timestepper", "energy"),
    ("laplace.assemble_reduced", "pmlwave.laplace", "assemble_reduced"),
    ("laplace.solve", "pmlwave.laplace", "solve"),
    ("output.write_csv", "pmlwave.output", "write_csv"),
    ("output.export_snapshot", "pmlwave.output", "export_snapshot"),
)
ROOT = "workload"


class CountingMatrix:
    """Forwards everything to a matrix and counts products taken with ``@``."""

    def __init__(self, A, counter: list):
        self._A = A
        self._counter = counter

    def __matmul__(self, x):
        self._counter[0] += 1
        return self._A @ x

    def __getattr__(self, name):
        return getattr(self._A, name)


def _sparse_fields(ops):
    return [v for v in vars(ops).values() if sp.issparse(v)]


def operator_counts(ops) -> dict:
    """Computed sizes of one assembled Operators: nonzeros, bytes and DOFs."""
    nnz = sum(A.nnz for A in _sparse_fields(ops))
    nbytes = sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
                 for A in _sparse_fields(ops))
    nbytes += sum(v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray))
    return {"nnz": nnz, "bytes": nbytes, "n_u": ops.n_u, "n_phi": ops.n_phi}


def phi_live_dofs(ops) -> int:
    """phi DOFs on elements where the damping-weighted phi mass is nonzero."""
    if ops.n_phi == 0:
        return 0
    row = np.zeros(ops.n_phi)
    for A in (ops.M_phid_x, ops.M_phid_y):
        row += np.asarray(abs(A).sum(axis=1)).ravel()
    cells = ops.dof_phi.cell_dofs
    live = np.any(row[cells] > 0.0, axis=1)
    return int(live.sum()) * cells.shape[1]


def spmv_bytes_per_rhs(cops) -> int:
    """12 B per stored nonzero of every operator a rhs applies, mass excluded."""
    return SPMV_BYTES_PER_NNZ * sum(A.nnz for A in _sparse_fields(cops)
                                    if A is not cops.M_u)


class Recorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self.absent = []
        self.matvecs = [0]
        self.ops = []            # counts of every Operators assembled
        self.steppers = []       # computed sizes of every stepper built
        self._rhs_bytes = {}     # id(live stepper) -> bytes applied per rhs
        self.rhs_bytes = 0
        self.bytes_written = 0
        self.laplace_dofs = 0
        self._restore = []

    # ---- spans ----

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def summary(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        out = {}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    # ---- hooks ----

    def install(self) -> None:
        for name, module, attr in HOOKS:
            try:
                mod = importlib.import_module(module)
                owner_path, _, leaf = attr.rpartition(".")
                owner = mod
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, leaf, wrapper)
            else:
                for m in list(sys.modules.values()):
                    if m is not None and m.__name__.startswith("pmlwave"):
                        for key, val in list(vars(m).items()):
                            if val is original:
                                self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        rec = self
        after = {
            "assembly.assemble_all": self._after_assemble,
            "timestepper.stepper_init": self._after_stepper_init,
            "laplace.assemble_reduced": self._after_assemble_reduced,
        }.get(name)
        counts = name + ":counts"
        is_output = name.startswith("output.")
        path_of = _path_argument(fn) if is_output else None

        def wrapper(*args, **kwargs):
            if name == "solvers.pcg" and args:
                args = (CountingMatrix(args[0], rec.matvecs),) + args[1:]
            elif name == "timestepper.rhs":
                rec.rhs_bytes += rec._rhs_bytes.get(id(args[0]), 0)
            nested_output = is_output and rec._stack and \
                rec.spans[rec._stack[-1]][0].startswith("output.")
            idx = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if after is not None and counts not in rec.absent:
                try:
                    after(args, result)
                except AttributeError:
                    # The returned object was reshaped; its computed counts
                    # print as absent, the timings stay.
                    rec.absent.append(counts)
            if is_output and not nested_output:
                path = path_of(args, kwargs)
                if path is not None and os.path.exists(path):
                    rec.bytes_written += os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_assemble(self, args, ops) -> None:
        self.ops.append(operator_counts(ops))

    def _after_stepper_init(self, args, _) -> None:
        stepper, ops = args[0], args[1]
        self._rhs_bytes[id(stepper)] = spmv_bytes_per_rhs(getattr(stepper, "cops", ops))
        self.steppers.append({
            "state_bytes": 8 * (2 * ops.n_u + 2 * ops.n_phi),
            "n_phi": ops.n_phi,
            "phi_live": phi_live_dofs(ops),
        })

    def _after_assemble_reduced(self, args, system) -> None:
        self.laplace_dofs += system.A.shape[0]


def _path_argument(fn):
    """Extractor for the ``path`` argument of an output writer."""
    sig = inspect.signature(fn)

    def path_of(args, kwargs):
        try:
            return sig.bind(*args, **kwargs).arguments.get("path")
        except TypeError:
            return None
    return path_of


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced workload run; None marks absent."""
    s = rec.summary()
    root = s.get(ROOT, [0, 0.0, 0.0])[1]

    def hooked(*names):
        return not any(n in rec.absent for n in names)

    def self_s(name):
        return s.get(name, [0, 0.0, 0.0])[2] if hooked(name) else None

    def calls(name):
        return s.get(name, [0, 0.0, 0.0])[0] if hooked(name) else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    stepping = s.get("timestepper.rk4_step", [0, 0.0, 0.0])[1] \
        if hooked("timestepper.rk4_step") else None
    pcg_s, pcg_calls = self_s("solvers.pcg"), calls("solvers.pcg")
    rhs_calls = calls("timestepper.rhs")
    steppers = rec.steppers if hooked("timestepper.stepper_init",
                                      "timestepper.stepper_init:counts") else None
    opsc = rec.ops if hooked("assembly.assemble_all", "assembly.assemble_all:counts") else None

    def total(rows, key):
        return None if rows is None else sum(r[key] for r in rows)

    m = {
        "experiments.build_problem_s": (self_s("experiments.build_problem"), "s"),
        "assembly.assemble_all_s": (self_s("assembly.assemble_all"), "s"),
        "assembly.constrain_operators_s": (self_s("assembly.constrain_operators"), "s"),
        "assembly.operator_nnz": (total(opsc, "nnz"), "count"),
        "assembly.operator_mb": (ratio(total(opsc, "bytes"), MB), "MB"),
        "assembly.n_u": (total(opsc, "n_u"), "count"),
        "assembly.n_phi": (total(opsc, "n_phi"), "count"),
        "solvers.pcg_s": (pcg_s, "s"),
        "solvers.pcg_calls": (pcg_calls, "count"),
        "solvers.cg_matvecs_per_solve": (
            ratio(rec.matvecs[0] if hooked("solvers.pcg") else None, pcg_calls), "count"),
        "solvers.pcg_share": (ratio(pcg_s, stepping), "ratio"),
        "timestepper.rhs_calls": (rhs_calls, "count"),
        "timestepper.rhs_self_s": (self_s("timestepper.rhs"), "s"),
        "timestepper.stage_self_s": (self_s("timestepper.rk4_step"), "s"),
        "timestepper.spmv_mb_per_rhs": (
            ratio(rec.rhs_bytes / MB if steppers is not None else None, rhs_calls), "MB"),
        "timestepper.state_mb": (ratio(total(steppers, "state_bytes"), MB), "MB"),
        "timestepper.phi_live_frac": (
            ratio(total(steppers, "phi_live"), total(steppers, "n_phi")), "ratio"),
        "timestepper.stepper_init_s": (self_s("timestepper.stepper_init"), "s"),
        "timestepper.energy_matrices_s": (self_s("timestepper.energy_matrices"), "s"),
        "timestepper.observe_s": (self_s("timestepper.run"), "s"),
        "timestepper.energy_s": (self_s("timestepper.energy"), "s"),
        "timestepper.energy_calls": (calls("timestepper.energy"), "count"),
        "output.write_csv_s": (self_s("output.write_csv"), "s"),
        "output.export_snapshot_s": (self_s("output.export_snapshot"), "s"),
        "output.bytes_written": (
            rec.bytes_written if hooked("output.write_csv", "output.export_snapshot")
            else None, "B"),
        "laplace.assemble_reduced_s": (self_s("laplace.assemble_reduced"), "s"),
        "laplace.assemble_reduced_calls": (calls("laplace.assemble_reduced"), "count"),
        "laplace.solve_s": (self_s("laplace.solve"), "s"),
        "laplace.solve_calls": (calls("laplace.solve"), "count"),
        "laplace.n_dofs": (
            rec.laplace_dofs if hooked("laplace.assemble_reduced",
                                       "laplace.assemble_reduced:counts") else None, "count"),
    }
    layer_self = sum(row[2] for name, row in s.items() if name != ROOT)
    m["trace.layer_self_share"] = (ratio(layer_self, root), "ratio")
    m["trace.traced_wall_s"] = (root, "s")
    return m
