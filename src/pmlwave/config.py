"""Simulation configuration: JSON in, validated dataclass out.

Keys mirror the field names below, snake_case, unknown keys rejected. An
empty file is a valid config and yields the default homogeneous setup:
domain [-6,6]^2, layer width 0.6, h = 0.3, Q2, dt = 0.01, Gaussian pulse at
the origin. t_end defaults depend on the experiment kind (10 for the error
experiments, 14 for the layered medium, 150 for the long-time run) unless
set explicitly.
"""

import json
from dataclasses import dataclass, fields, replace

from .assembly import GaussianPulse
from .errors import ConfigError
from .mesh import (MaterialField, check_interfaces_on_grid, element_counts,
                   homogeneous_material, layered_material)
from .pml import PmlConfig, damping_strength, tolerance
from .quadrature import MAX_ORDER
from .timestepper import snapshot_steps

EXPERIMENTS = ("simulate", "pml-error", "longtime", "convergence", "laplace-verify")


@dataclass(frozen=True)
class SimulationConfig:
    domain: tuple = (-6.0, 6.0, -6.0, 6.0)
    reference_domain: tuple = (-12.0, 12.0, -12.0, 12.0)
    delta_pml: float = 0.6
    h: float = 0.3
    p: int = 2
    r: float = -1.0
    material: str = "homogeneous"
    wave_speed: float = 1.0
    layer_speeds: tuple = (1.25, 1.0, 0.75)
    interfaces: tuple = (-2.4, 2.4)
    rho: float = 1.0
    dt: float = 0.01
    t_end: float | None = None
    forcing_amplitude: float = 1.0
    forcing_sigma: float = 0.25
    forcing_t0: float = 1.0
    forcing_tau: float = 0.25
    c0: float = 2.0
    pml_exponent: int = 3
    d0: float | None = None
    output_dir: str = "out"
    energy_stride: int = 10
    amplitude_stride: int = 1
    snapshot_times: tuple = ()
    experiment: str = "simulate"
    h_values: tuple | None = None
    p_values: tuple | None = None

    # ---- derived quantities ----

    # Long-time amplitude windows; the last ends at that run's default t_end. Not a field.
    LONGTIME_WINDOWS = ((50.0, 100.0), (100.0, 150.0))

    def effective_t_end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        if self.experiment == "longtime":
            return self.LONGTIME_WINDOWS[-1][1]
        return 14.0 if self.material == "layered" else 10.0

    def study_grid(self) -> tuple[tuple, tuple]:
        """(p_values, h_values) of the convergence study.

        Unset values default to p = (1, 2) and h = (0.6, 0.3).
        """
        return (self.p_values if self.p_values is not None else (1, 2),
                self.h_values if self.h_values is not None else (0.6, 0.3))

    def inner_box(self) -> tuple:
        x0, x1, y0, y1 = self.domain
        d = self.delta_pml
        return (x0 + d, x1 - d, y0 + d, y1 - d)

    def material_field(self) -> MaterialField:
        if self.material == "homogeneous":
            return homogeneous_material(c=self.wave_speed, rho=self.rho)
        return layered_material(speeds=self.layer_speeds,
                                interfaces=self.interfaces, rho=self.rho)

    def gaussian_pulse(self) -> GaussianPulse:
        return GaussianPulse(amplitude=self.forcing_amplitude,
                             sigma=self.forcing_sigma,
                             t0=self.forcing_t0, tau=self.forcing_tau)

    def pml_config(self) -> PmlConfig:
        """Layer config for the damped domain; strengths per axis.

        Each axis uses the fastest wave speed found in its own strips, which
        is the conservative choice when layers cross the absorbing region.
        """
        x0, x1, y0, y1 = self.domain
        xi0, xi1, yi0, yi1 = self.inner_box()
        mat = self.material_field()
        if self.d0 is not None:
            d0x = d0y = float(self.d0)
        else:
            tol = tolerance(self.c0, self.delta_pml, self.h, self.p)
            c_x = mat.max_wave_speed(y0, y1)
            c_y = max(mat.max_wave_speed(y0, yi0), mat.max_wave_speed(yi1, y1))
            d0x = damping_strength(c_x, self.delta_pml, tol)
            d0y = damping_strength(c_y, self.delta_pml, tol)
        return PmlConfig(delta=self.delta_pml, x_inner=xi1, y_inner=yi1,
                         d0_x=d0x, d0_y=d0y, exponent=self.pml_exponent)


_DEFAULTS = SimulationConfig()
_TUPLE_FIELDS = {"domain", "reference_domain", "layer_speeds", "interfaces",
                 "snapshot_times", "h_values", "p_values"}


def _as_items(value, key):
    try:
        return list(value)
    except TypeError as exc:
        raise ConfigError(f"configuration key {key} must be a list of numbers") from exc


def config_from_dict(data: dict, experiment: str | None = None) -> SimulationConfig:
    """Build and validate a config from a plain dict of JSON values."""
    known = {f.name for f in fields(SimulationConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    values = dict(data)
    for key in _TUPLE_FIELDS:
        if values.get(key) is not None:
            # strings are iterable but never a valid value for these keys
            if isinstance(values[key], str) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in _as_items(values[key], key)
            ):
                raise ConfigError(f"configuration key {key} must be a list of numbers")
            values[key] = tuple(values[key])
    if experiment is not None:
        values["experiment"] = experiment
    cfg = SimulationConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SimulationConfig) -> None:
    """Check every config invariant; also for configs edited in code.

    Material and layer are checked by building them, the layer at h and at
    every h_values entry for p and every p_values entry. The grid rules are
    checked on domain and reference_domain at h and every h_values entry.
    For the convergence experiment those entries are its study grid,
    defaults included; the other experiments check only configured ones.
    The experiments that compare with a reference run also need its grid to
    contain the damped one, node for node. Snapshot times lie in [0, t_end].
    """
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if cfg.material not in ("homogeneous", "layered"):
        raise ConfigError(f"material must be 'homogeneous' or 'layered', got {cfg.material!r}")
    if not 1 <= int(cfg.p) <= MAX_ORDER:
        raise ConfigError(f"p must be in 1..{MAX_ORDER}, got {cfg.p}")
    if not -1.0 <= cfg.r <= 1.0:
        raise ConfigError(f"r must lie in [-1, 1], got {cfg.r}")
    if cfg.dt <= 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if cfg.t_end is not None and cfg.t_end <= 0:
        raise ConfigError(f"t_end must be positive, got {cfg.t_end}")
    if cfg.delta_pml <= 0:
        raise ConfigError(f"delta_pml must be positive, got {cfg.delta_pml}")
    if cfg.h <= 0:
        raise ConfigError(f"h must be positive, got {cfg.h}")
    if cfg.c0 <= 0:
        raise ConfigError(f"c0 must be positive, got {cfg.c0}")
    if cfg.energy_stride < 0 or cfg.amplitude_stride < 1:
        raise ConfigError("energy_stride must be >= 0 and amplitude_stride >= 1")

    if cfg.h_values is not None and len(cfg.h_values) < 2:
        raise ConfigError(f"h_values must list at least two h values, got {list(cfg.h_values)}")
    if cfg.h_values is not None and any(h <= 0 for h in cfg.h_values):
        raise ConfigError("h_values must be positive")
    if cfg.p_values is not None and any(not 1 <= p <= MAX_ORDER for p in cfg.p_values):
        raise ConfigError(f"p_values must be in 1..{MAX_ORDER}")
    domains = (("domain", cfg.domain), ("reference_domain", cfg.reference_domain))
    for name, dom in domains:
        if len(dom) != 4:
            raise ConfigError(f"{name} must be [x0, x1, y0, y1]")
        x0, x1, y0, y1 = dom
        if x1 <= x0 or y1 <= y0:
            raise ConfigError(f"{name} is degenerate: {dom}")
    compared = cfg.experiment in ("pml-error", "convergence")
    (x0, x1, y0, y1), (rx0, rx1, ry0, ry1) = cfg.domain, cfg.reference_domain
    if compared and not (rx0 <= x0 and x1 <= rx1 and ry0 <= y0 and y1 <= ry1):
        raise ConfigError(f"reference_domain {list(cfg.reference_domain)} does not contain "
                          f"domain {list(cfg.domain)}")
    xi0, xi1, yi0, yi1 = cfg.inner_box()
    if xi1 <= xi0 or yi1 <= yi0:
        raise ConfigError("delta_pml leaves no interior: the layer covers the whole domain")
    try:
        cfg.material_field()
    except ValueError as exc:
        keys = "layer_speeds, interfaces" if cfg.material == "layered" else "wave_speed"
        raise ConfigError(f"{keys}, rho: {exc}") from exc

    if cfg.experiment == "convergence":
        p_values, h_values = cfg.study_grid()
    else:
        p_values, h_values = cfg.p_values or (), cfg.h_values or ()
    sizes = [("h", cfg.h)] + [("h_values", h) for h in h_values]
    for key, h in sizes:
        for name, dom in domains:
            try:
                element_counts(dom, h)
                if cfg.material == "layered":
                    check_interfaces_on_grid(dom, h, cfg.interfaces)
            except ConfigError as exc:
                raise ConfigError(f"{name} at {key} = {h}: {exc}") from exc
        # Both side lengths are multiples of h, so the lower corners' offset decides.
        for offset in (x0 - rx0, y0 - ry0) if compared else ():
            if abs(round(offset / h) * h - offset) > 1e-9 * offset:  # as in element_counts
                raise ConfigError(f"reference_domain at {key} = {h}: its grid is offset from "
                                  f"the domain's by {offset:g}, not a multiple of h")
        for p in (cfg.p, *p_values):  # the layer strength depends on h and p
            try:
                replace(cfg, p=int(p), h=h).pml_config()
            except ValueError as exc:
                raise ConfigError(f"delta_pml, c0, d0, pml_exponent at p = {p}, "
                                  f"{key} = {h}: {exc}") from exc
    snapshot_steps(cfg.snapshot_times, cfg.dt)
    t_end = cfg.effective_t_end()
    if outside := [t for t in cfg.snapshot_times if not -1e-9 <= t <= t_end + 1e-9]:
        raise ConfigError(f"snapshot_times {outside} lie outside the run [0, {t_end:g}]")


def parse_config(path, experiment: str | None = None) -> SimulationConfig:
    """Read a JSON config file; an empty file means 'all defaults'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    text = text.strip()
    if not text:
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return config_from_dict(data, experiment=experiment)


def serialize_config(cfg: SimulationConfig) -> dict:
    """Effective values as a JSON-ready dict; parse(serialize(c)) == c."""
    out = {}
    for f in fields(SimulationConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def save_config(cfg: SimulationConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_config(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
