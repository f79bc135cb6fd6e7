"""Tiny-length self-check of the benchmark.

Runs every workload shrunk (--tiny) with tracing off and on, and checks
that the last line is the result object with every metric BENCHMARK.json
names, each with its unit. Also checks that the benchmark refuses to run
without the program's sources, and that a missing hook target reports its
metrics as absent. Run with: python3 -m pytest -q perfbench/test_selfcheck.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace and workload != "laplace_sweep":
        # At tiny size the Laplace systems are too small for the solver
        # layers to dominate, so the self-time share is checked at full size.
        layers = result["metrics"]
        assert layers["timestepper.rhs_calls"]["value"] == \
            layers["solvers.pcg_calls"]["value"] > 0
        assert layers["trace.layer_self_share"]["value"] >= 0.9


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "paper_q3", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_hook_is_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans

    hooks = tuple(h if h[0] != "solvers.pcg" else ("solvers.pcg", "pmlwave.solvers", "gone")
                  for h in spans.HOOKS)
    monkeypatch.setattr(spans, "HOOKS", hooks)
    rec = spans.Recorder("selfcheck")
    rec.install()
    rec.uninstall()
    assert rec.absent == ["solvers.pcg"]
    layers = spans.layer_metrics(rec)
    for name in ("solvers.pcg_s", "solvers.pcg_calls", "solvers.cg_matvecs_per_solve",
                 "solvers.pcg_share"):
        assert layers[name][0] is None
    assert layers["timestepper.rhs_calls"][0] == 0
