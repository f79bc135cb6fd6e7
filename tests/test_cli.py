import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pmlwave.cli import main
from pmlwave.config import SimulationConfig
from pmlwave.output import format_float

MICRO = {
    "domain": [-1.2, 1.2, -1.2, 1.2],
    "reference_domain": [-2.4, 2.4, -2.4, 2.4],
    "h": 0.6,
    "p": 1,
    "dt": 0.01,
    "t_end": 0.1,
    "energy_stride": 5,
}


@pytest.fixture()
def micro_config(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_profile_conflict(micro_config, capsys):
    assert main(["simulate", "--config", micro_config, "--profile", "small"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"wavespeed": 2.0}')
    assert main(["simulate", "--config", str(path)]) == 2
    assert "wavespeed" in capsys.readouterr().err


def test_simulate_outputs(micro_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", micro_config, "--out", str(out),
               "--snapshot-times", "0.05", "--dump-matrices"])
    assert rc == 0
    assert "dofs=25" in capsys.readouterr().out
    used = json.loads((out / "config_used.json").read_text())
    assert used["snapshot_times"] == [0.05]
    energy = read_csv(out / "energy.csv")
    assert energy[0] == ["t", "energy", "max_abs_u"]
    assert len(energy) == 4  # header + samples at steps 0, 5, 10
    amp = read_csv(out / "amplitude.csv")
    assert len(amp) == 12
    assert (out / "snapshot_t0p05.csv").exists()
    assert (out / "snapshot_t0p05.vtk").exists()
    mtx = sorted(f.name for f in (out / "matrices").iterdir())
    assert "M_u.mtx" in mtx and "K.mtx" in mtx and len(mtx) >= 8


def test_pml_error_outputs(micro_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pml-error", "--config", micro_config, "--out", str(out)]) == 0
    table = read_csv(out / "pml_error.csv")
    assert table[0] == ["t", "max_error"]
    assert len(table) == 12
    assert "final=" in capsys.readouterr().out


def test_longtime_outputs(micro_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["longtime", "--config", micro_config, "--out", str(out)]) == 0
    table = read_csv(out / "amplitude.csv")
    assert len(table) == 12
    assert "global peak=" in capsys.readouterr().out


def test_longtime_window_line_reads_the_config_windows(micro_config, tmp_path, capsys,
                                                       monkeypatch):
    # Windows that fit the micro run's t_end = 0.1 bring out the paper-window line.
    monkeypatch.setattr(SimulationConfig, "LONGTIME_WINDOWS", ((0.0, 0.05), (0.05, 0.1)))
    out = tmp_path / "out"
    assert main(["longtime", "--config", micro_config, "--out", str(out)]) == 0
    amps = np.array([float(row[1]) for row in read_csv(out / "amplitude.csv")[1:]])
    late, early = (format_float(float(np.max(amps[window]))) for window in
                   (slice(5, 11), slice(0, 6)))
    assert capsys.readouterr().out == (f"longtime: peak[0.05,0.1]={late} peak[0,0.05]={early} "
                                       f"global={format_float(float(np.max(amps)))}\n")


def test_convergence_outputs(tmp_path, capsys):
    data = dict(MICRO)
    data.update({"t_end": 0.2, "h_values": [0.6, 0.3], "p_values": [1]})
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    table = read_csv(out / "convergence.csv")
    assert table[0] == ["p", "h", "final_error", "order"]
    assert len(table) == 3
    assert "order=" in capsys.readouterr().out


def test_convergence_refuses_misaligned_h_values_before_any_run(tmp_path, capsys):
    # The interfaces +-0.6 lie on the h = 0.6 mesh lines, not on those of h = 0.4.
    data = dict(MICRO)
    data.update({"material": "layered", "interfaces": [-0.6, 0.6],
                 "h_values": [0.6, 0.4], "p_values": [1]})
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert "h_values" in capsys.readouterr().err
    assert not out.exists()  # neither config_used.json nor convergence.csv


def test_convergence_checks_default_grid_before_writing(tmp_path, capsys):
    # h = 0.7 fits the domain, but the default study grid's h = 0.6 does not.
    path = tmp_path / "conv.json"
    path.write_text(json.dumps({"domain": [-7, 7, -7, 7],
                                "reference_domain": [-14, 14, -14, 14],
                                "h": 0.7, "delta_pml": 0.7}))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert "h_values = 0.6" in capsys.readouterr().err
    assert not out.exists()  # no config_used.json


def test_convergence_refuses_a_single_h_value_before_writing(tmp_path, capsys):
    path = tmp_path / "conv.json"
    path.write_text(json.dumps({"h_values": [0.6]}))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert "h_values" in capsys.readouterr().err
    assert not out.exists()  # no config_used.json


def test_simulate_refuses_bad_material_before_writing(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(MICRO, wave_speed=0)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "wave_speed" in capsys.readouterr().err
    assert not out.exists()  # no config_used.json


def test_laplace_verify_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["laplace-verify", "--out", str(out)]) == 0
    table = read_csv(out / "laplace_report.csv")
    assert table[0][0] == "check" and table[0][-1] == "passed"
    assert all(row[-1] == "1" for row in table[1:])
    assert "all" in capsys.readouterr().out


def test_laplace_verify_exits_four_when_the_interior_bound_fails(tmp_path, capsys, monkeypatch):
    import pmlwave.laplace

    monkeypatch.setattr(pmlwave.laplace, "interior_energy_bound", lambda system: 2.5)
    out = tmp_path / "out"
    assert main(["laplace-verify", "--out", str(out)]) == 4
    checks = [row[0] for row in read_csv(out / "laplace_report.csv")[1:]]
    n = checks.count("energy-bound-interior")
    assert n > 0 and checks[-n:] == ["energy-bound-interior"] * n  # after the other rows
    captured = capsys.readouterr()
    assert f"energy-bound-interior: 0/{n} passed" in captured.out
    assert f"{n} of {len(checks)} checks FAILED" in captured.err


def test_unstable_run_exits_three(tmp_path, capsys):
    data = dict(MICRO)
    data.update({"dt": 5.0, "t_end": 2000.0})
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unstable_pml_error_exits_three(tmp_path, capsys):
    # dt = 0.5 is far past stability. At t_end = 100 neither run overflows, so
    # only the reference's stability check can stop it.
    data = dict(MICRO)
    data.update({"dt": 0.5, "t_end": 100.0})
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rc = main(["pml-error", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: solution would become non-finite" in err
    assert "stability limit" in err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pmlwave.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pmlwave" in proc.stdout
