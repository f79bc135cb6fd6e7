"""Damping profiles, stretch factors, and the 2D layer coefficient algebra.

The layer damps along each axis with a cubic ramp that vanishes (value and
slope) at the inner edge, so the absorbing region joins the interior C^1.
With d_z = 0 the three-dimensional coefficient matrices collapse: Gamma
becomes diag(d_y - d_x, d_x - d_y), the only surviving zeroth-order
coefficient is d_x*d_y, and the third auxiliary field plus the psi variable
drop out because each of their couplings carries a d_z factor. That
reduction is hard-coded here; nothing downstream ever sees a psi.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PmlConfig:
    """Layer geometry and strength.

    delta is the layer width; damping along x starts at |x| = x_inner and
    ramps as d0_x*((|x| - x_inner)/delta)^exponent, likewise for y. The
    strengths are kept per axis so heterogeneous media can use the fastest
    wave speed seen by each axis's strips.
    """

    delta: float
    x_inner: float
    y_inner: float
    d0_x: float
    d0_y: float
    exponent: int = 3

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("layer width must be positive")
        if self.d0_x < 0 or self.d0_y < 0:
            raise ValueError("damping strengths must be nonnegative")
        if self.exponent < 1:
            # ramp**0 is 1 everywhere, so the layer would damp the interior too
            raise ValueError(f"ramp exponent must be at least 1, got {self.exponent}")

    @property
    def enabled(self) -> bool:
        return self.d0_x > 0 or self.d0_y > 0


def damping(axis: str, coord, cfg: PmlConfig):
    """Damping value d_axis at the given coordinate(s); zero inside the inner box."""
    if axis == "x":
        inner, d0 = cfg.x_inner, cfg.d0_x
    elif axis == "y":
        inner, d0 = cfg.y_inner, cfg.d0_y
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    coord = np.asarray(coord, dtype=float)
    ramp = np.maximum(np.abs(coord) - inner, 0.0) / cfg.delta
    out = d0 * ramp**cfg.exponent
    return out if out.ndim else float(out)


def tolerance(c0: float, delta: float, h: float, p: int) -> float:
    """Target reflection tolerance tol = c0 * ((1/delta) * (h/(p+1)))^(p+1)."""
    if c0 <= 0 or delta <= 0 or h <= 0 or p < 1:
        raise ValueError("tolerance arguments must be positive, p >= 1")
    return c0 * ((h / (p + 1)) / delta) ** (p + 1)


def damping_strength(c: float, delta: float, tol: float) -> float:
    """Strength d0 = (4c / (2*delta)) * ln(1/tol) balancing modeling vs. discretization error."""
    if c <= 0 or delta <= 0:
        raise ValueError("wave speed and layer width must be positive")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    return (4.0 * c / (2.0 * delta)) * np.log(1.0 / tol)


def stretch(s: complex, d: float) -> complex:
    """Stretch factor S = 1 + d/s; requires Re(s) > 0 so that |1/S| <= 1."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"stretch factor needs Re(s) > 0, got s = {s}")
    return 1.0 + d / s


def k_eta(s: complex, d: float) -> float:
    """The nonnegative damping gain k = 2*d*b^2 / |s*S|^2 with b = Im(s)."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"k_eta needs Re(s) > 0, got s = {s}")
    ss = s * stretch(s, d)  # equals s + d
    return 2.0 * d * s.imag**2 / abs(ss) ** 2


def spectral_identity_check(s: complex, d: float) -> float:
    """Residual |Re((sS)*/S) - (a + k)|; zero in exact arithmetic."""
    s = complex(s)
    S = stretch(s, d)
    lhs = ((s * S).conjugate() / S).real
    return abs(lhs - (s.real + k_eta(s, d)))


def gamma_2d(dx, dy):
    """Diagonal of the 2D gradient-coupling matrix: (dy - dx, dx - dy)."""
    return dy - dx, dx - dy


def upsilon_2d(dx, dy):
    """The surviving zeroth-order damping coefficient dx*dy."""
    return dx * dy
