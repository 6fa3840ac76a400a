import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcwave.errors import ConfigError, GridMismatchError
from bcwave.grid import (
    Control,
    UniformGrid,
    conv_trapezoid,
    cumulative_trapezoid,
    differentiate,
    inner_outer,
    smooth_random_control,
    trapezoid_weights,
)

from oracles import (
    S_MATRIX,
    StateVector,
    control_norm,
    inner_inner,
    jt_apply,
    s_apply,
    zero_control,
    zero_state,
)


def test_grid_basics():
    g = UniformGrid(2.0, 10)
    assert g.h == pytest.approx(0.2)
    assert np.allclose(g.t, 0.2 * np.arange(11))


def test_grid_validation():
    with pytest.raises(ConfigError):
        UniformGrid(-1.0, 10)
    with pytest.raises(ConfigError):
        UniformGrid(1.0, 4)


def test_trapezoid_weights_sum():
    w = trapezoid_weights(16, 0.125)
    assert w.sum() == pytest.approx(2.0)
    assert w[0] == w[-1] == pytest.approx(0.0625)


def test_cumulative_trapezoid_linear_exact():
    h = 0.1
    t = h * np.arange(21)
    y = 3.0 * t + 1.0
    exact = 1.5 * t * t + t
    assert np.max(np.abs(cumulative_trapezoid(y, h) - exact)) < 1e-14


def test_conv_trapezoid_against_direct_quadrature():
    rng = np.random.default_rng(0)
    h = 0.05
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    c = conv_trapezoid(a, b, h)
    for k in (0, 1, 7, 29):
        w = trapezoid_weights(k, h) if k else np.zeros(1)
        direct = np.sum(w * a[: k + 1] * b[k::-1])
        assert c[k] == pytest.approx(direct, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_conv_trapezoid_commutes(i, j):
    h = 0.1
    t = h * np.arange(17)
    a = np.sin(i * t)
    b = np.cos(j * t)
    assert np.allclose(conv_trapezoid(a, b, h), conv_trapezoid(b, a, h),
                       atol=1e-13)


def test_differentiate_quadratic_exact():
    h = 0.1
    t = h * np.arange(25)
    y = 2.0 * t * t - t + 3.0
    assert np.max(np.abs(differentiate(y, h) - (4.0 * t - 1.0))) < 1e-12


def test_differentiate_quartic_interior():
    h = 0.05
    t = h * np.arange(41)
    y = t ** 4
    d = differentiate(y, h)
    assert np.max(np.abs(d[2:-2] - 4.0 * t[2:-2] ** 3)) < 1e-11


def test_s_matrix_involution():
    assert np.allclose(S_MATRIX, S_MATRIX.T)
    assert np.allclose(S_MATRIX @ S_MATRIX, 0.5 * np.eye(2))


def test_s_apply_control_matches_matrix():
    g = UniformGrid(1.0, 8)
    f = smooth_random_control(g, np.random.default_rng(1))
    sf = s_apply(f)
    stacked = np.stack([f.f1, f.f2])
    expect = S_MATRIX @ stacked
    assert np.allclose(sf.f1, expect[0]) and np.allclose(sf.f2, expect[1])
    twice = s_apply(sf)
    assert np.allclose(twice.f1, 0.5 * f.f1)
    assert np.allclose(twice.df2, 0.5 * f.df2)


def test_jt_apply_involution_and_derivative():
    g = UniformGrid(1.0, 16)
    f = smooth_random_control(g, np.random.default_rng(2))
    rf = jt_apply(f)
    assert np.allclose(rf.f1, f.f1[::-1])
    assert np.allclose(rf.df1, -f.df1[::-1])
    back = jt_apply(rf)
    assert np.allclose(back.f1, f.f1) and np.allclose(back.df2, f.df2)


def test_control_shape_validation():
    g = UniformGrid(1.0, 8)
    with pytest.raises(GridMismatchError):
        Control(g, np.zeros(5), np.zeros(9))


def test_inner_products():
    g = UniformGrid(1.0, 64)
    t = g.t
    f = Control(g, np.sin(np.pi * t), np.zeros_like(t))
    # int_0^1 sin^2(pi t) = 1/2
    assert inner_outer(f, f) == pytest.approx(0.5, abs=1e-3)
    assert control_norm(zero_control(g)) == 0.0
    a = StateVector(g, t, 1.0 - t)
    assert inner_inner(a, a) == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert inner_inner(a, zero_state(g)) == 0.0


def test_inner_product_grid_mismatch():
    f = zero_control(UniformGrid(1.0, 8))
    g = zero_control(UniformGrid(1.0, 16))
    with pytest.raises(GridMismatchError):
        inner_outer(f, g)


def test_state_to_line():
    g = UniformGrid(1.0, 8)
    a = StateVector(g, np.arange(9.0), -np.arange(9.0))
    x, u = a.to_line()
    assert len(x) == 17 and x[0] == -1.0 and x[-1] == 1.0
    assert u[0] == -8.0 and u[-1] == 8.0 and u[8] == 0.0


def test_smooth_random_control_seeded():
    g = UniformGrid(1.0, 128)
    f = smooth_random_control(g, np.random.default_rng(11))
    f2 = smooth_random_control(g, np.random.default_rng(11))
    assert np.array_equal(f.f1, f2.f1) and np.array_equal(f.df2, f2.df2)
    assert abs(f.f1[0]) < 1e-14 and abs(f.f2[-1]) < 1e-12
    # analytic derivative consistent with grid differentiation
    # (looser at the ends, where the stencil is one-sided second order)
    err = np.abs(differentiate(f.f1, g.h) - f.df1)
    assert np.max(err[2:-2]) < 1e-3 and np.max(err) < 0.1
