import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlwave.pml import (PmlConfig, damping, damping_strength, gamma_2d,
                         k_eta, spectral_identity_check, stretch,
                         tolerance, upsilon_2d)


def cfg(d0x=2.0, d0y=3.0):
    return PmlConfig(delta=0.6, x_inner=5.4, y_inner=5.4, d0_x=d0x, d0_y=d0y)


def test_damping_profile_shape():
    c = cfg()
    x = np.array([0.0, 5.4, 5.7, 6.0, -5.7, -6.0])
    d = damping("x", x, c)
    # cubic ramp: zero through the interface, d0 at the outer edge
    assert np.allclose(d, [0.0, 0.0, 2.0 / 8.0, 2.0, 2.0 / 8.0, 2.0])
    assert damping("y", 6.0, c) == pytest.approx(3.0)
    assert damping("y", 0.0, c) == 0.0


def test_damping_is_even_and_monotone():
    c = cfg()
    x = np.linspace(5.4, 6.0, 50)
    d = damping("x", x, c)
    assert np.all(np.diff(d) >= 0)
    assert np.allclose(d, damping("x", -x, c))


def test_damping_axis_validation():
    with pytest.raises(ValueError):
        damping("z", 0.0, cfg())


def test_pml_config_validation():
    with pytest.raises(ValueError):
        PmlConfig(delta=-0.1, x_inner=1.0, y_inner=1.0, d0_x=1.0, d0_y=1.0)
    with pytest.raises(ValueError):
        PmlConfig(delta=0.5, x_inner=1.0, y_inner=1.0, d0_x=-1.0, d0_y=1.0)
    assert not cfg(0.0, 0.0).enabled
    assert cfg(1.0, 0.0).enabled


def test_tolerance_value():
    # tol = c0 * ((1/delta) * (h/(p+1)))^(p+1)
    assert tolerance(2.0, 0.6, 0.6, 1) == pytest.approx(0.5)
    assert tolerance(2.0, 0.6, 0.3, 2) == pytest.approx(2.0 * (0.3 / (0.6 * 3.0)) ** 3)


def test_damping_strength_value():
    # d0 = (4c / (2 delta)) * ln(1/tol)
    assert damping_strength(1.0, 0.6, 0.5) == pytest.approx((4.0 / 1.2) * np.log(2.0))
    assert damping_strength(1.25, 0.6, 0.5) == pytest.approx((5.0 / 1.2) * np.log(2.0))
    with pytest.raises(ValueError):
        damping_strength(1.0, 0.6, 0.0)
    with pytest.raises(ValueError):
        damping_strength(1.0, 0.6, 1.5)


def test_stretch_basics():
    assert stretch(2.0 + 0.0j, 0.0) == pytest.approx(1.0)
    assert stretch(1.0 + 1.0j, 2.0) == pytest.approx(1.0 + 2.0 / (1.0 + 1.0j))
    with pytest.raises(ValueError):
        stretch(-1.0 + 2.0j, 1.0)


@settings(deadline=None, max_examples=200)
@given(a=st.floats(0.01, 100.0), b=st.floats(-100.0, 100.0), d=st.floats(0.0, 100.0))
def test_stretch_inverse_is_contractive(a, b, d):
    # |1/S| <= 1 whenever Re s > 0 and d >= 0
    S = stretch(complex(a, b), d)
    assert abs(1.0 / S) <= 1.0 + 1e-12


@settings(deadline=None, max_examples=200)
@given(a=st.floats(0.01, 50.0), b=st.floats(-50.0, 50.0), d=st.floats(0.0, 50.0))
def test_spectral_identity(a, b, d):
    # Re((sS)* / S) == a + 2 d b^2 / |sS|^2 exactly, up to roundoff
    assert spectral_identity_check(complex(a, b), d) <= 1e-12
    assert k_eta(complex(a, b), d) >= 0.0


def test_k_eta_value():
    s = 1.0 + 2.0j
    d = 3.0
    assert k_eta(s, d) == pytest.approx(2.0 * d * 4.0 / abs(s + d) ** 2)
    assert k_eta(s, 0.0) == 0.0


def test_gamma_upsilon():
    gx, gy = gamma_2d(2.0, 5.0)
    assert gx == pytest.approx(3.0) and gy == pytest.approx(-3.0)
    gx, gy = gamma_2d(np.array([1.0, 4.0]), np.array([4.0, 1.0]))
    assert np.allclose(gx, [3.0, -3.0]) and np.allclose(gy, -gx)
    assert upsilon_2d(2.0, 5.0) == pytest.approx(10.0)


@settings(deadline=None, max_examples=100)
@given(dx=st.floats(0.0, 10.0), dy=st.floats(0.0, 10.0))
def test_gamma_antisymmetry(dx, dy):
    gx, gy = gamma_2d(dx, dy)
    assert gx == -gy
    if dx == dy:
        assert gx == 0.0
