"""pmlwave benchmark: time to solution on four workloads, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and pmlwave
is imported from its src/. Each repetition of the workload runs in a fresh
Python process (worker.py), one after the other (closed loop, one client).
Repetitions start while the next one is expected to end within --seconds;
there is always at least one.

--trace 0 runs the workload untraced and reports the end-to-end metrics.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, including the tracing overhead (traced wall over
untraced wall). Every output is checked against the values recorded at
the seed commit (expected.json); a mismatch, a NumericalError or
ConfigError, or a nonzero CLI exit counts as a failed repetition.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record, with host,
versions and every repetition, goes to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("pml_error_small", "paper_q3", "laplace_sweep", "simulate_layered_impedance")
TIME_DOMAIN = {"pml_error_small", "paper_q3", "simulate_layered_impedance"}
# BLAS runs single-threaded: the workloads are single-process, and a pinned
# thread count keeps timings steady on a small shared machine.
BLAS_THREADS = 1
HARD_LIMIT_S = 170.0
UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
         "systems_per_s": "1/s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def host_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "commit": commit}


def run_worker(args, mode: str, rep: int, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    if mode == "trace":
        cmd += ["--spans", os.path.join(OUT, "spans",
                                        f"{args.workload}-seed{args.seed}-rep{rep}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another repetition")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} repetition {rep} exceeded the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise HarnessError(f"worker exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        sys.stderr.write(done.stderr)
        raise HarnessError("worker printed no result") from exc


def collect(args) -> list:
    """Repetitions until the next one would overrun --seconds (at least one)."""
    modes = ("wall", "trace") if args.trace else ("measure",)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps = []
    longest = 0.0
    while True:
        t = time.monotonic()
        for mode in modes:
            reps.append(run_worker(args, mode, len(reps), deadline))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > args.seconds:
            return reps


def median(values):
    return statistics.median(values) if values else None


def end_to_end(reps: list) -> dict:
    ok = [r for r in reps if r["status"] == "ok"] or reps
    setups = [t for r in ok for t in r.get("setup_s", [])]
    rates = {"steps_per_s": [], "systems_per_s": []}
    for r in ok:
        if "steps" in r and r.get("setup_s"):
            busy = r["region_s"] - median(r["setup_in_region_s"])
            rates["steps_per_s"].append(r["steps"] / busy)
            rates["systems_per_s"].append(r["systems"] / busy)
    values = {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median(setups),
        "steps_per_s": median(rates["steps_per_s"]),
        "systems_per_s": median(rates["systems_per_s"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
    }
    return {k: (v, UNITS[k]) for k, v in values.items()}


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["mode"] == "trace"]
    untraced = [r for r in reps if r["mode"] == "wall"]
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        vals = [r["layers"][name][0] for r in traced]
        out[name] = (None if None in vals else median(vals), unit)
    out["trace.overhead"] = (median([r["wall_s"] for r in traced])
                             / median([r["wall_s"] for r in untraced]), "ratio")
    return out


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(args, host: dict, reps: list, metrics: dict) -> dict:
    failed = [r for r in reps if r["status"] != "ok"]
    first = reps[0]
    print(f"# pmlwave benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}" + (" tiny" if args.tiny else ""))
    print(f"# host: {host['cpu']}, nproc={host['nproc']}, "
          f"BLAS threads pinned to {host['blas_threads']}, commit {host['commit']}")
    print("# versions: " + ", ".join(f"{k} {v}" for k, v in first["versions"].items()))
    if args.workload in TIME_DOMAIN:
        print("# inputs: deterministic; the seed does not change this workload")
    else:
        print(f"# inputs: (s, d_x, d_y) draws from numpy default_rng([{args.seed}, rep])")
    for r in reps:
        line = f"rep {r['rep']} {r['mode']:7s} {r['status']:6s} wall {r['wall_s']:.4f} s"
        if r.get("setup_s"):
            line += " setup " + " ".join(f"{t:.4f}" for t in r["setup_s"]) + " s"
        line += f" rss {r['peak_rss_mb']:.1f} MB"
        print(line + (f"  {r['reason']}" if r["status"] != "ok" else ""))
        for c in r.get("checks", []):
            print(f"    output {c['name']} = {c['value']!r} (recorded {c['expected']!r},"
                  f" rel diff {c['rel_diff']:.2e})")
        for k, v in r.get("outputs", {}).items():
            if not any(c["name"] == k for c in r.get("checks", [])):
                print(f"    output {k} = {v!r}")
    for w in sorted({w for r in reps for w in r.get("warnings", [])}):
        print(f"# program warning: {w}")
    if any(r.get("absent_hooks") for r in reps):
        print("# absent hooks: " + ", ".join(reps[-1]["absent_hooks"]))
    n = sum(1 for r in reps if r["status"] == "ok")
    print(f"# {len(reps)} repetitions attempted, {len(failed)} failed; medians over {n}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {fmt(value):>14s} {unit}")
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": "absent" if value is None else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pmlwave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload for the self-check; skips reference values")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pmlwave", "__init__.py")):
        print(f"error: no pmlwave sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        host = host_record()
        reps = collect(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    missing = [k for k, (v, _) in metrics.items() if v is None and not args.trace]
    if missing and all(r["status"] == "ok" for r in reps):
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = report(args, host, reps, metrics)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"host": host, "args": vars(args), "reps": reps, "result": result}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
