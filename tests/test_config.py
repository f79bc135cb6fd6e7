import json

import pytest

from pmlwave.config import (SimulationConfig, config_from_dict, parse_config,
                            save_config, validate_config)
from pmlwave.errors import ConfigError
from pmlwave.pml import damping_strength, tolerance


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.domain == (-6.0, 6.0, -6.0, 6.0)
    assert cfg.reference_domain == (-12.0, 12.0, -12.0, 12.0)
    assert cfg.delta_pml == 0.6
    assert cfg.h == 0.3 and cfg.p == 2 and cfg.dt == 0.01
    assert cfg.r == -1.0
    assert cfg.material == "homogeneous"
    assert cfg.effective_t_end() == 10.0
    assert cfg.inner_box() == (-5.4, 5.4, -5.4, 5.4)


def test_empty_file_means_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("   \n")
    assert parse_config(path) == config_from_dict({})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="wavespeed"):
        config_from_dict({"wavespeed": 2.0})
    with pytest.raises(ConfigError, match="bad_b"):
        config_from_dict({"bad_a": 1, "bad_b": 2})


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        parse_config(path2)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")


def test_round_trip(tmp_path):
    cfg = config_from_dict({"h": 0.6, "p": 3, "material": "layered",
                            "snapshot_times": [2.0, 4.0], "d0": 12.5,
                            "h_values": [0.6, 0.3]})
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    again = parse_config(path)
    assert again == cfg
    data = json.loads(path.read_text())
    assert data["snapshot_times"] == [2.0, 4.0]


def test_domain_divisibility():
    with pytest.raises(ConfigError, match="side x"):
        config_from_dict({"h": 0.7})
    with pytest.raises(ConfigError, match="reference_domain"):
        config_from_dict({"reference_domain": [-6.1, 6.0, -6.0, 6.0]})


def test_snapshot_times_must_divide_dt():
    with pytest.raises(ConfigError, match="snapshot"):
        config_from_dict({"snapshot_times": [0.015]})
    config_from_dict({"snapshot_times": [2.0, 4.0]})


@pytest.mark.parametrize("late_or_early", [3.0, 0.51, -0.1])  # 0.51 is one step past
def test_snapshot_times_must_lie_in_the_run(late_or_early):
    with pytest.raises(ConfigError, match=r"snapshot_times \[.*\] lie outside the run"):
        config_from_dict({"t_end": 0.5, "snapshot_times": [0.2, late_or_early]})


@pytest.mark.parametrize("data", [
    {"t_end": 0.5, "snapshot_times": [0.0, 0.5]},  # both ends included
    {"material": "layered", "snapshot_times": [14.0]},  # the default t_end
], ids=["both-ends", "layered-default-t-end"])
def test_snapshot_times_at_the_ends_of_the_run_pass(data):
    config_from_dict(data)


@pytest.mark.parametrize("experiment, data, message", [
    # 6/0.8 is no integer, so the (+-12)^2 grid at h = 0.8 is offset from the (+-6)^2 one.
    ("pml-error", {"h": 0.8}, "reference_domain at h = 0.8: .*offset"),
    ("convergence", {"h": 0.8}, "reference_domain at h = 0.8: .*offset"),
    ("convergence", {"h_values": [0.6, 0.8]}, "reference_domain at h_values = 0.8: .*offset"),
    # 6.1 is no multiple of 0.3, and only the y corners disagree.
    ("pml-error", {"reference_domain": [-12, 12, -12.1, 11.9]},
     "reference_domain at h = 0.3: .*offset .* by 6.1"),
    ("pml-error", {"reference_domain": [-3, 3, -3, 3]}, "does not contain domain"),
    ("convergence", {"reference_domain": [-3, 3, -3, 3]}, "does not contain domain"),
], ids=["pml-error-h", "convergence-h", "convergence-h_values", "pml-error-y-offset",
        "pml-error-inside", "convergence-inside"])
def test_reference_grid_must_hold_the_domain_grid(experiment, data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data, experiment=experiment)


@pytest.mark.parametrize("experiment, data", [
    ("simulate", {"h": 0.8}),  # no reference run to match
    # 6.3 is 21 steps of 0.3: an asymmetric reference domain is fine when it is on the grid.
    ("pml-error", {"reference_domain": [-12.3, 11.7, -12, 12]}),
    ("pml-error", {"reference_domain": [-6, 6, -6, 6]}),  # the domain itself
], ids=["simulate-h", "pml-error-asymmetric", "pml-error-same"])
def test_reference_grids_on_the_domain_grid_pass(experiment, data):
    config_from_dict(data, experiment=experiment)


def test_layered_interface_alignment():
    config_from_dict({"material": "layered"})  # +-2.4 align with h=0.3
    with pytest.raises(ConfigError, match="interface"):
        config_from_dict({"material": "layered", "interfaces": [-2.5, 2.5]})
    with pytest.raises(ConfigError, match="layer_speeds"):
        config_from_dict({"material": "layered", "layer_speeds": [1.0, 2.0],
                          "interfaces": [-2.4, 2.4]})


def test_h_values_entry_must_divide_reference_domain():
    # 0.4 divides the domain (12) but not the reference domain (24.6).
    data = {"reference_domain": [-12.3, 12.3, -12.3, 12.3], "h_values": [0.6, 0.4]}
    with pytest.raises(ConfigError, match="reference_domain at h_values = 0.4"):
        config_from_dict(data)
    config_from_dict(dict(data, h_values=[0.6, 0.3]))


def test_layered_interface_alignment_at_h_values_entry():
    # +-2.4 lie on the h = 0.3 mesh lines but not on those of h = 0.5.
    with pytest.raises(ConfigError, match="domain at h_values = 0.5: material interface"):
        config_from_dict({"material": "layered", "h_values": [0.6, 0.5]})


def test_layered_interface_alignment_on_reference_domain():
    # The reference mesh starts at y = -12.3, so +-2.4 fall midway between its lines.
    data = {"material": "layered", "h": 0.6, "reference_domain": [-12, 12, -12.3, 12.3]}
    with pytest.raises(ConfigError, match="reference_domain at h = 0.6: material interface"):
        config_from_dict(data)
    config_from_dict(dict(data, material="homogeneous"))


def test_t_end_defaults_by_experiment():
    assert config_from_dict({}, experiment="longtime").effective_t_end() == 150.0
    assert config_from_dict({"material": "layered"}).effective_t_end() == 14.0
    assert config_from_dict({"t_end": 3.0}, experiment="longtime").effective_t_end() == 3.0


def test_validation_errors():
    for bad in ({"experiment": "warp"}, {"material": "granite"}, {"p": 9},
                {"r": -2.0}, {"dt": 0.0}, {"t_end": -1.0}, {"delta_pml": 0.0},
                {"c0": 0.0}, {"d0": -1.0}, {"amplitude_stride": 0},
                {"domain": [0, 1, 0]}, {"domain": [1, 0, 0, 1]},
                {"h_values": [0.3, -0.1]}, {"p_values": [0]},
                {"snapshot_times": "often"}):
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    # the layer must leave an interior region
    with pytest.raises(ConfigError, match="interior"):
        config_from_dict({"domain": [-1.2, 1.2, -1.2, 1.2], "h": 0.6,
                          "delta_pml": 1.2})


def test_pml_strength_derivation_homogeneous():
    cfg = config_from_dict({})
    pml = cfg.pml_config()
    tol = tolerance(2.0, 0.6, 0.3, 2)
    expect = damping_strength(1.0, 0.6, tol)
    assert pml.d0_x == pytest.approx(expect)
    assert pml.d0_y == pytest.approx(expect)
    assert (pml.x_inner, pml.y_inner) == (5.4, 5.4)


def test_pml_strength_derivation_layered():
    # both axis strips see the fastest layer (bottom, c = 1.25)
    cfg = config_from_dict({"material": "layered"})
    pml = cfg.pml_config()
    tol = tolerance(2.0, 0.6, 0.3, 2)
    expect = damping_strength(1.25, 0.6, tol)
    assert pml.d0_x == pytest.approx(expect)
    assert pml.d0_y == pytest.approx(expect)


def test_pml_strength_sees_a_thin_fast_layer():
    # the c = 3 band is 0.02 thick, far thinner than any sampling of y would see
    cfg = config_from_dict({"material": "layered", "layer_speeds": [1, 3, 1],
                            "interfaces": [1.0, 1.02], "h": 0.02, "p": 1})
    pml = cfg.pml_config()
    tol = tolerance(cfg.c0, cfg.delta_pml, cfg.h, cfg.p)
    assert pml.d0_x == pytest.approx(damping_strength(3.0, cfg.delta_pml, tol))
    # the y strips lie outside the band
    assert pml.d0_y == pytest.approx(damping_strength(1.0, cfg.delta_pml, tol))


def test_explicit_d0_overrides_both_axes():
    cfg = config_from_dict({"d0": 33.0})
    pml = cfg.pml_config()
    assert pml.d0_x == 33.0 and pml.d0_y == 33.0


def test_material_field_construction():
    hom = config_from_dict({"wave_speed": 2.0, "rho": 0.5}).material_field()
    assert hom.kappa(0, 0) == pytest.approx(2.0)  # c^2 rho
    lay = config_from_dict({"material": "layered"}).material_field()
    assert lay.wave_speed(0.0, -5.0) == pytest.approx(1.25)
    assert lay.wave_speed(0.0, 5.0) == pytest.approx(0.75)


def test_simulate_refuses_a_single_h_value():
    with pytest.raises(ConfigError, match="h_values must list at least two"):
        config_from_dict({"h_values": [0.6]}, experiment="simulate")
    config_from_dict({"h_values": [0.6, 0.3]}, experiment="simulate")


def test_validate_config_on_programmatic_edit():
    from dataclasses import replace

    cfg = config_from_dict({})
    validate_config(cfg)
    with pytest.raises(ConfigError):
        validate_config(replace(cfg, h=-1.0))


def test_bundled_profiles_parse():
    from importlib import resources

    for name, pmax in (("small", 2), ("paper", 3)):
        ref = resources.files("pmlwave").joinpath(f"profiles/{name}.json")
        cfg = config_from_dict(json.loads(ref.read_text()))
        assert isinstance(cfg, SimulationConfig)
        assert max(cfg.p_values) == pmax
        assert cfg.h_values is not None and len(cfg.h_values) >= 2


@pytest.mark.parametrize("bad, keys", [
    ({"wave_speed": 0}, "wave_speed, rho"),
    ({"rho": -1}, "wave_speed, rho"),
    ({"material": "layered", "layer_speeds": [-1, 1, 1]}, "layer_speeds"),
    ({"material": "layered", "interfaces": [2.4, -2.4]}, "interfaces"),
    ({"material": "layered", "interfaces": [2.4, 2.4]}, "interfaces"),
    ({"material": "layered", "layer_speeds": [1.0, 1.0]}, "layer_speeds"),
])
def test_material_values_refused_with_their_keys(bad, keys):
    with pytest.raises(ConfigError, match=keys):
        config_from_dict(bad)


@pytest.mark.parametrize("exponent", [0, -1, 0.5])
def test_pml_exponent_below_one_refused(exponent):
    # exponent 0 would damp the whole interior at full strength
    with pytest.raises(ConfigError, match="pml_exponent"):
        config_from_dict({"pml_exponent": exponent})
    assert config_from_dict({"pml_exponent": 1}).pml_config().exponent == 1


def test_layer_tolerance_checked_at_h_values_entry():
    # At p = 1, h = 1.2 and delta_pml = 0.6 the target tolerance is 2, not below 1.
    data = {"domain": [-6, 6, -6, 6], "reference_domain": [-12, 12, -12, 12],
            "h": 0.6, "h_values": [1.2, 0.6], "p_values": [1]}
    with pytest.raises(ConfigError, match="h_values = 1.2: tolerance"):
        config_from_dict(data)
    config_from_dict(dict(data, h_values=[0.6, 0.3]))
