#!/usr/bin/env python3
"""Run the desk-scale verification suite end to end.

Chains the frequency-domain battery, the layer-error refinement study and a
long-time stability run, writing all tables below one output directory. With
--profile paper the sweep reruns at publication resolution (Q3, h down to
0.15); on a 2-core machine with BLAS on one thread the whole paper suite
takes about 10 minutes, most of it the long-time run.
"""

import argparse
import os
import sys

from pmlwave.cli import main as cli_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/desk", help="output root directory")
    ap.add_argument("--profile", choices=("small", "paper"), default="small")
    ap.add_argument("--skip-longtime", action="store_true",
                    help="skip the 150 time-unit stability run")
    args = ap.parse_args(argv)

    steps = [
        ("laplace-verify", ["laplace-verify"]),
        ("convergence", ["convergence"]),
    ]
    if not args.skip_longtime:
        steps.append(("longtime", ["longtime"]))

    failures = 0
    for name, cmd in steps:
        out = os.path.join(args.out, name)
        print(f"== {name} -> {out}")
        rc = cli_main(cmd + ["--profile", args.profile, "--out", out])
        if rc != 0:
            print(f"== {name} exited with code {rc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
