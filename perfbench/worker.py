"""One repetition of one benchmark workload, in a fresh Python process.

run.py starts this file once per repetition, so every repetition pays the
import and first-touch costs a user pays and reports its own peak RSS.
The last line of standard output is one JSON object.

Modes:
  measure  run the workload untraced, then repeat its set-up for setup_s
  wall     run the workload untraced only (the base of the tracing overhead)
  trace    run the workload with the hooks of spans.py installed

pmlwave is imported from <checkout>/src and nowhere else.
"""

import argparse
import csv
import json
import math
import os
import resource
import shutil
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes. "tiny" shrinks every workload to a few steps or small meshes for the
# self-check; reference values then do not apply and only shape is checked.
SIZES = {
    "full": {
        "q3_steps": 25,
        "sweep_h": 1.0 / 48.0,
        "sweep_draws": 3,
        "ladder_hs": (1.0 / 6.0, 1.0 / 12.0, 1.0 / 24.0),
        "sim_t_end": None,
        "pml_t_end": None,
    },
    "tiny": {
        "q3_steps": 2,
        "sweep_h": 1.0 / 8.0,
        "sweep_draws": 1,
        "ladder_hs": (0.5, 0.25),
        "sim_t_end": 0.4,
        "pml_t_end": 0.05,
    },
}
SETUP_REPS = {"pml_error_small": 5, "paper_q3": 1, "laplace_sweep": 15,
              "simulate_layered_impedance": 7}


class Failed(Exception):
    """The program ran but its result is wrong or it reported an error."""


def import_pmlwave():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pmlwave", "__init__.py")):
        raise SystemExit(f"no pmlwave sources under {src}")
    sys.path.insert(0, src)
    import pmlwave

    if not os.path.abspath(pmlwave.__file__).startswith(src + os.sep):
        raise SystemExit(f"pmlwave imported from {pmlwave.__file__}, not {src}")
    return pmlwave


def n_steps(cfg) -> int:
    """Step count of timestepper.run for the config's t_end and dt."""
    return math.ceil(cfg.effective_t_end() / cfg.dt - 1e-9)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


class Workload:
    """Inputs, set-up and run of one workload.

    run() returns (outputs, steps, systems). The work it times is the whole
    of run(), or the narrower region it stores in region_s. setup() repeats
    the workload's set-up once and returns how much of it falls inside that
    region (None: all of it); the benchmark subtracts that part to get the
    time spent stepping or solving.
    """

    region_s = None

    def __init__(self, pw, size: dict, seed: int, rep: int, out: str):
        self.pw = pw
        self.size = size
        self.seed = seed
        self.rep = rep
        self.out = out
        self.tiny = size is SIZES["tiny"]

    def cli(self, argv):
        from pmlwave import cli

        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
        if rc != 0:
            raise Failed(f"pmlwave {argv[0]} exited with code {rc}")


class PmlErrorSmall(Workload):
    """pmlwave pml-error --profile small: damped run plus undamped reference."""

    def config(self):
        from importlib import resources

        data = json.loads(resources.files("pmlwave").joinpath("profiles/small.json")
                          .read_text(encoding="utf-8"))
        if self.size["pml_t_end"] is not None:
            data["t_end"] = self.size["pml_t_end"]
        return data

    def setup(self):
        pw, cfg = self.pw, self.pw.config_from_dict(self.config(), experiment="pml-error")
        for dom, damped in ((cfg.domain, True), (cfg.reference_domain, False)):
            prob = pw.experiments.build_problem(cfg, domain=dom, damped=damped)
            pw.timestepper.WaveStepper(prob.ops, cfg.gaussian_pulse())

    def run(self):
        if self.tiny:
            path = os.path.join(self.out, "config.json")
            write_json(path, self.config())
            self.cli(["pml-error", "--config", path, "--out", self.out])
        else:
            self.cli(["pml-error", "--profile", "small", "--out", self.out])
        errors = [float(r["max_error"])
                  for r in read_csv(os.path.join(self.out, "pml_error.csv"))]
        cfg = self.pw.config_from_dict(self.config(), experiment="pml-error")
        steps = 2 * n_steps(cfg)
        if len(errors) != n_steps(cfg) + 1:
            raise Failed(f"pml_error.csv has {len(errors)} rows, expected {n_steps(cfg) + 1}")
        outputs = {"final_error": errors[-1], "max_error": max(errors)}
        return outputs, steps, 4 * steps


class PaperQ3(Workload):
    """Damped Q3, h = 0.15, default domain: build_problem plus a batch of run() steps."""

    def config(self):
        h, p = (0.6, 3) if self.tiny else (0.15, 3)
        return self.pw.config_from_dict({"h": h, "p": p}, experiment="simulate")

    def setup(self):
        pw, cfg = self.pw, self.config()
        prob = pw.experiments.build_problem(cfg)
        t = time.perf_counter()
        pw.timestepper.WaveStepper(prob.ops, cfg.gaussian_pulse())
        pw.timestepper.energy_matrices(prob.ops)
        return time.perf_counter() - t

    def run(self):
        pw, cfg = self.pw, self.config()
        steps = self.size["q3_steps"]
        prob = pw.experiments.build_problem(cfg)
        watch = pw.mesh.nodes_in_box(prob.ops.dof_u, cfg.inner_box())
        t = time.perf_counter()
        res = pw.timestepper.run(prob.ops, cfg.gaussian_pulse(), cfg.dt, steps * cfg.dt,
                                 energy_stride=steps, watch_nodes=watch)
        self.region_s = time.perf_counter() - t
        if len(res.times) != steps + 1:
            raise Failed(f"run made {len(res.times) - 1} steps, expected {steps}")
        outputs = {"final_energy": res.samples[-1].E,
                   "final_amplitude": float(res.amplitudes[-1])}
        return outputs, steps, 4 * steps


class LaplaceSweep(Workload):
    """Seeded (s, d_x, d_y) draws solved at p = 2 and 3, plus one p = 3 ladder."""

    def mesh_and_bases(self):
        pw = self.pw
        mesh = pw.build_cartesian_mesh((0.0, 1.0, 0.0, 1.0), self.size["sweep_h"])
        bases = {p: pw.tensor_basis_tables(p) for p in (2, 3)}
        return mesh, bases

    def setup(self):
        self.mesh_and_bases()

    def run(self):
        import numpy as np

        laplace = self.pw.laplace
        mesh, bases = self.mesh_and_bases()
        material = self.pw.homogeneous_material()
        rng = np.random.default_rng([self.seed, self.rep])
        worst = math.inf
        systems = 0
        for _ in range(self.size["sweep_draws"]):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0))
            d_x, d_y = rng.uniform(0.0, 5.0, size=2)
            for p in (2, 3):
                system = laplace.assemble_reduced(mesh, bases[p], material, s, d_x, d_y)
                f = rng.standard_normal(system.A.shape[0])
                _, rhs, margin = laplace.energy_inequality_check(system, f)
                systems += 1
                worst = min(worst, margin / rhs)
                if not margin >= -1e-10 * rhs:
                    raise Failed(f"energy bound violated at p={p}, s={s}: "
                                 f"margin {margin!r} < -1e-10 * rhs {rhs!r}")
        ladder = laplace.manufactured_convergence(3, self.size["ladder_hs"],
                                                  complex(1.0, 1.0), d_x=3.0, d_y=3.0)
        systems += len(self.size["ladder_hs"])
        order = float(ladder["order"][-1])
        if not self.tiny and not abs(order - 4.0) <= 0.25:
            raise Failed(f"manufactured order {order!r} is not within 0.25 of 4")
        outputs = {"min_margin_over_rhs": worst, "ladder_order": order,
                   "ladder_error": float(ladder["error"][-1])}
        return outputs, self.size["sweep_draws"] + 1, systems


class SimulateLayeredImpedance(Workload):
    """pmlwave simulate: layered medium, impedance boundary r = 0.5, snapshots."""

    def config(self):
        data = {"h": 0.6, "p": 2, "material": "layered", "r": 0.5,
                "energy_stride": 10,
                "snapshot_times": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]}
        if self.size["sim_t_end"] is not None:
            data["t_end"] = self.size["sim_t_end"]
            data["snapshot_times"] = [0.2, 0.4]
        return data

    def setup(self):
        pw, cfg = self.pw, self.pw.config_from_dict(self.config(), experiment="simulate")
        prob = pw.experiments.build_problem(cfg)
        pw.timestepper.WaveStepper(prob.ops, cfg.gaussian_pulse())
        pw.timestepper.energy_matrices(prob.ops)

    def run(self):
        data = self.config()
        path = os.path.join(self.out, "config.json")
        write_json(path, data)
        self.cli(["simulate", "--config", path, "--out", self.out])
        energy = read_csv(os.path.join(self.out, "energy.csv"))
        amp = read_csv(os.path.join(self.out, "amplitude.csv"))
        snaps = [f for f in os.listdir(self.out) if f.startswith("snapshot_t")]
        if len(snaps) != 2 * len(data["snapshot_times"]):
            raise Failed(f"{len(snaps)} snapshot files, expected "
                         f"{2 * len(data['snapshot_times'])}")
        cfg = self.pw.config_from_dict(data, experiment="simulate")
        steps = n_steps(cfg)
        if len(amp) != steps + 1:
            raise Failed(f"amplitude.csv has {len(amp)} rows, expected {steps + 1}")
        outputs = {"final_energy": float(energy[-1]["energy"]),
                   "amplitude_peak": max(float(r["max_abs_u"]) for r in amp)}
        return outputs, steps, 4 * steps


WORKLOADS = {
    "pml_error_small": PmlErrorSmall,
    "paper_q3": PaperQ3,
    "laplace_sweep": LaplaceSweep,
    "simulate_layered_impedance": SimulateLayeredImpedance,
}


def check(workload: str, outputs: dict, tiny: bool) -> list:
    """Compare outputs with the values recorded at the seed commit."""
    for key, value in outputs.items():
        if not math.isfinite(value):
            raise Failed(f"{key} is not finite: {value!r}")
    if tiny:
        return []
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    rtol = ref["rtol"]
    rows = []
    for key, want in ref["workloads"].get(workload, {}).items():
        got = outputs[key]
        rel = abs(got - want) / abs(want)
        rows.append({"name": key, "value": got, "expected": want, "rel_diff": rel})
        if not rel <= rtol:
            raise Failed(f"{key} = {got!r} differs from the recorded {want!r} "
                         f"by {rel:.3e} relative (tolerance {rtol:g})")
    return rows


def versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--mode", choices=("measure", "wall", "trace"), default="measure")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    pw = import_pmlwave()
    import pmlwave.experiments  # noqa: F401  (submodules reached by attribute below)
    import pmlwave.laplace  # noqa: F401
    import pmlwave.mesh  # noqa: F401
    import pmlwave.timestepper  # noqa: F401

    out = os.path.join(ROOT, ".bench_out", "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    size = SIZES["tiny" if args.tiny else "full"]
    wl = WORKLOADS[args.workload](pw, size, args.seed, args.rep, out)
    record = {"workload": args.workload, "seed": args.seed, "rep": args.rep,
              "mode": args.mode, "status": "ok", "versions": versions()}

    rec = None
    if args.mode == "trace":
        sys.path.insert(0, HERE)
        import spans as bench_trace

        rec = bench_trace.Recorder(f"{args.workload}-s{args.seed}-r{args.rep}-{os.getpid()}")
        rec.install()
        root = rec.begin(bench_trace.ROOT)

    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs, steps, systems = wl.run()
            record["checks"] = check(args.workload, outputs, args.tiny)
        record.update(outputs=outputs, steps=steps, systems=systems)
        record["warnings"] = sorted({str(w.message) for w in caught})
    except (Failed, pw.NumericalError, pw.ConfigError) as exc:
        record.update(status="failed", reason=f"{type(exc).__name__}: {exc}")
    record["wall_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = peak_rss_mb()

    if rec is not None:
        rec.end(root)
        rec.uninstall()
        record["layers"] = bench_trace.layer_metrics(rec)
        record["absent_hooks"] = rec.absent
        if args.spans:
            rec.write(args.spans)
    elif args.mode == "measure":
        record["region_s"] = wl.region_s or record["wall_s"]
        record["setup_s"], record["setup_in_region_s"] = [], []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(SETUP_REPS[args.workload]):
                    t = time.perf_counter()
                    inside = wl.setup()
                    record["setup_s"].append(time.perf_counter() - t)
                    record["setup_in_region_s"].append(
                        record["setup_s"][-1] if inside is None else inside)
        except (pw.NumericalError, pw.ConfigError) as exc:
            record.update(status="failed", reason=f"set-up: {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
