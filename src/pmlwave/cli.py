"""Command line entry point.

Subcommands: simulate, pml-error, longtime, convergence, laplace-verify.
Configuration comes from --config FILE (JSON) or --profile NAME (bundled);
giving neither selects the built-in desk-scale defaults. Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 verification
failure.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .config import (SimulationConfig, config_from_dict, parse_config, save_config,
                     validate_config)
from .errors import ConfigError, NumericalError
from .experiments import (LAPLACE_COLUMNS, run_convergence_study, run_laplace_battery,
                          run_longtime_experiment, run_pml_error_experiment,
                          run_simulation)
from .output import export_snapshot, format_float, write_csv

PROFILES = ("small", "paper")


def _load_profile(name: str, experiment: str) -> SimulationConfig:
    ref = resources.files("pmlwave").joinpath(f"profiles/{name}.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    return config_from_dict(data, experiment=experiment)


def _load_config(args, experiment: str) -> SimulationConfig:
    if args.config is not None and args.profile is not None:
        raise ConfigError("--config and --profile are mutually exclusive")
    if args.config is not None:
        cfg = parse_config(args.config, experiment=experiment)
    elif args.profile is not None:
        cfg = _load_profile(args.profile, experiment)
    else:
        cfg = config_from_dict({}, experiment=experiment)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _parse_times(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse snapshot times {text!r}") from exc


def _outdir(cfg: SimulationConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _cmd_simulate(args) -> int:
    cfg = _load_config(args, "simulate")
    if args.snapshot_times is not None:
        cfg = replace(cfg, snapshot_times=_parse_times(args.snapshot_times))
        validate_config(cfg)
    out = _outdir(cfg)
    save_config(cfg, os.path.join(out, "config_used.json"))
    matrix_dir = os.path.join(out, "matrices") if args.dump_matrices else None
    prob, result = run_simulation(cfg, matrix_dir=matrix_dir)
    if result.samples:
        write_csv(os.path.join(out, "energy.csv"), ["t", "energy", "max_abs_u"],
                  [(s.t, s.E, s.max_amp) for s in result.samples])
    if result.amplitudes is not None:
        write_csv(os.path.join(out, "amplitude.csv"), ["t", "max_abs_u"],
                  zip(result.times, result.amplitudes))
    for t_snap, u in result.snapshots:
        tag = f"{t_snap:g}".replace(".", "p")
        for fmt in ("csv", "vtk"):
            export_snapshot(u, prob.ops.mesh, prob.ops.basis, prob.ops.dof_u,
                            os.path.join(out, f"snapshot_t{tag}.{fmt}"), fmt=fmt)
    print(f"simulate: t_end={cfg.effective_t_end():g}, "
          f"dofs={prob.ops.n_u}, output in {out}")
    return 0


def _cmd_pml_error(args) -> int:
    cfg = _load_config(args, "pml-error")
    out = _outdir(cfg)
    save_config(cfg, os.path.join(out, "config_used.json"))
    series = run_pml_error_experiment(cfg)
    write_csv(os.path.join(out, "pml_error.csv"), ["t", "max_error"],
              zip(series.times, series.errors))
    print(f"pml-error: p={series.p} h={series.h:g} nodes={series.n_nodes} "
          f"final={format_float(series.final_error)} max={format_float(series.max_error)}")
    return 0


def _cmd_longtime(args) -> int:
    cfg = _load_config(args, "longtime")
    out = _outdir(cfg)
    save_config(cfg, os.path.join(out, "config_used.json"))
    res = run_longtime_experiment(cfg)
    write_csv(os.path.join(out, "amplitude.csv"), ["t", "max_abs_u"],
              zip(res.times, res.amplitudes))
    t_end = res.times[-1]
    windows = cfg.LONGTIME_WINDOWS
    if t_end >= windows[-1][1]:
        peaks = " ".join(f"peak[{t0:g},{t1:g}]={format_float(res.window_peak(t0, t1))}"
                         for t0, t1 in reversed(windows))
        print(f"longtime: {peaks} global={format_float(res.global_peak)}")
    else:
        print(f"longtime: t_end={t_end:g} global peak={format_float(res.global_peak)}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_config(args, "convergence")
    out = _outdir(cfg)
    save_config(cfg, os.path.join(out, "config_used.json"))
    rows = run_convergence_study(cfg)
    write_csv(os.path.join(out, "convergence.csv"),
              ["p", "h", "final_error", "order"],
              [(r["p"], r["h"], r["final_error"], r["order"]) for r in rows])
    for r in rows:
        order = "-" if np.isnan(r["order"]) else f"{r['order']:.2f}"
        print(f"convergence: p={r['p']} h={r['h']:g} "
              f"error={format_float(r['final_error'])} order={order}")
    return 0


def _cmd_laplace_verify(args) -> int:
    cfg = _load_config(args, "laplace-verify")
    out = _outdir(cfg)
    rows = run_laplace_battery()
    write_csv(os.path.join(out, "laplace_report.csv"), LAPLACE_COLUMNS,
              [tuple(r[k] for k in LAPLACE_COLUMNS) for r in rows])
    n_fail = sum(not r["passed"] for r in rows)
    by_check = {}
    for r in rows:
        ok, tot = by_check.get(r["check"], (0, 0))
        by_check[r["check"]] = (ok + bool(r["passed"]), tot + 1)
    for name, (ok, tot) in sorted(by_check.items()):
        print(f"laplace-verify: {name}: {ok}/{tot} passed")
    if n_fail:
        print(f"laplace-verify: {n_fail} of {len(rows)} checks FAILED", file=sys.stderr)
        return 4
    print(f"laplace-verify: all {len(rows)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmlwave",
        description="FEM solver for the 2D acoustic wave equation with an "
                    "absorbing boundary layer, plus verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="FILE", default=None,
                        help="JSON configuration file (empty file = defaults)")
        sp.add_argument("--profile", choices=PROFILES, default=None,
                        help="bundled configuration preset")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default from config)")

    sp = sub.add_parser("simulate", help="single damped run with field output")
    common(sp)
    sp.add_argument("--dump-matrices", action="store_true",
                    help="write assembled operators in MatrixMarket format")
    sp.add_argument("--snapshot-times", metavar="T1,T2,...", default=None,
                    help="comma separated snapshot times (must be multiples of dt)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("pml-error",
                        help="layer error against an enlarged-domain reference")
    common(sp)
    sp.set_defaults(func=_cmd_pml_error)

    sp = sub.add_parser("longtime", help="long-time amplitude recording")
    common(sp)
    sp.set_defaults(func=_cmd_longtime)

    sp = sub.add_parser("convergence", help="layer-error refinement study")
    common(sp)
    sp.set_defaults(func=_cmd_convergence)

    sp = sub.add_parser("laplace-verify",
                        help="frequency-domain verification battery")
    common(sp)
    sp.set_defaults(func=_cmd_laplace_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
