import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from bcwave.errors import ConfigError, DomainError
from bcwave.potentials import (
    ConstantPotential,
    GaussianPotential,
    PolynomialPotential,
    Sech2Potential,
    TabulatedPotential,
    ZeroPotential,
    _erf,
    potential_from_config,
)


def _check_cumint_against_quad(p, xs, tol=1e-9):
    for x in xs:
        ref, _ = quad(lambda s: float(p(np.array([s]))[0]), 0.0, x,
                      limit=200)
        assert p.cumint(np.array([x]))[0] == pytest.approx(ref, abs=tol)


def test_gaussian_eval_and_cumint():
    p = GaussianPotential(amplitude=2.0, width=0.4, center=0.3)
    assert p(np.array([0.3]))[0] == pytest.approx(2.0)
    _check_cumint_against_quad(p, [-1.2, -0.4, 0.5, 1.7])


#: (x, erf(x)) as float.hex, from scipy.special.erf 1.17.1.  Gaussian
#: kernels.csv bytes rest on these, whatever scipy release is installed.
ERF_GOLDEN = [
    ("0x1.999999999999ap-4", "0x1.cca5ea24fb334p-4"),
    ("0x1.3333333333333p-2", "0x1.50838881dea0fp-2"),
    ("0x1.8000000000000p-1", "0x1.6c1c9759d0e5fp-1"),
    ("0x1.0000000000000p+0", "0x1.af767a741088ap-1"),
    ("0x1.199999999999ap+0", "0x1.c2aa3d27302c0p-1"),
    ("0x1.0000000000000p+1", "0x1.fd9ae142795e3p-1"),
    ("0x1.a666666666666p+1", "0x1.ffff9966790c8p-1"),
    ("0x1.4000000000000p+2", "0x1.fffffffffc9e8p-1"),
    ("-0x1.3333333333333p-1", "-0x1.352ca0235d4f6p-1"),
    ("-0x1.599999999999ap+1", "-0x1.ffee648a8ce38p-1"),
]


def test_erf_golden_table():
    x = np.array([float.fromhex(a) for a, _ in ERF_GOLDEN])
    assert [float(v).hex() for v in _erf(x)] == [
        float.fromhex(b).hex() for _, b in ERF_GOLDEN]


@pytest.mark.parametrize("bound", [1.0, 4.0, 10.0, 30.0])
def test_erf_matches_scipy_bit_for_bit(bound):
    # bitwise equality is verified on scipy 1.17.1; a failure on another
    # release means that release changed erf, not necessarily this port
    x = np.random.default_rng(int(bound)).uniform(-bound, bound, 100_000)
    assert np.array_equal(_erf(x).view(np.int64), erf(x).view(np.int64))


def test_erf_edges():
    x = np.array([0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.5, -26.5, 26.7,
                  -26.7, 1e300, -1e300, np.inf, -np.inf])
    got = _erf(x)
    assert np.array_equal(got.view(np.int64), erf(x).view(np.int64))
    assert np.signbit(got[1]) and not np.signbit(got[0])
    assert np.all(np.abs(got[6:]) == 1.0)
    assert np.isnan(_erf(np.nan)) and np.isnan(_erf(np.array([np.nan]))[0])
    assert _erf(-0.5) == erf(-0.5) and np.ndim(_erf(-0.5)) == 0


def test_sech2_eval_and_cumint():
    p = Sech2Potential(amplitude=1.5, width=0.6, center=-0.2)
    assert p(np.array([-0.2]))[0] == pytest.approx(1.5)
    _check_cumint_against_quad(p, [-1.5, 0.4, 2.0])


def test_constant_and_zero():
    p = ConstantPotential(3.0)
    assert np.allclose(p(np.linspace(-2, 2, 5)), 3.0)
    assert p.cumint(np.array([-2.0, 0.5]))[0] == pytest.approx(-6.0)
    z = ZeroPotential()
    assert np.all(z(np.linspace(-9, 9, 7)) == 0.0)


def test_polynomial_cumint_exact():
    p = PolynomialPotential([1.0, -2.0, 3.0])
    x = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(p(x), 1.0 - 2.0 * x + 3.0 * x * x)
    assert np.allclose(p.cumint(x), x - x * x + x ** 3)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.2, 1.0), st.floats(-0.5, 0.5))
def test_gaussian_cumint_derivative_consistency(a, w, c):
    p = GaussianPotential(amplitude=a, width=w, center=c)
    x = 0.37
    eps = 1e-5
    num = (p.cumint(np.array([x + eps]))[0]
           - p.cumint(np.array([x - eps]))[0]) / (2 * eps)
    assert num == pytest.approx(float(p(np.array([x]))[0]), rel=1e-6,
                                abs=1e-8)


def test_tabulated_reproduces_linear_exactly():
    x = np.linspace(-2.0, 2.0, 41)
    p = TabulatedPotential(x, 2.0 * x + 1.0)  # natural end conditions exact
    xs = np.linspace(-1.9, 1.9, 57)
    assert np.max(np.abs(p(xs) - (2.0 * xs + 1.0))) < 1e-12
    assert p.cumint(np.array([1.5]))[0] == pytest.approx(1.5 ** 2 + 1.5,
                                                         abs=1e-12)
    assert p.support == pytest.approx(2.0)


def test_tabulated_matches_smooth_source():
    src = GaussianPotential(1.0, 0.4, 0.1)
    x = np.linspace(-2.0, 2.0, 81)
    p = TabulatedPotential(x, src(x))
    xs = np.linspace(-1.8, 1.8, 101)
    assert np.max(np.abs(p(xs) - src(xs))) < 1e-4
    assert p.cumint(np.array([1.2]))[0] == pytest.approx(
        src.cumint(np.array([1.2]))[0], abs=1e-5)


def test_tabulated_support_enforced():
    p = TabulatedPotential(np.linspace(-1, 1, 9), np.zeros(9))
    with pytest.raises(DomainError):
        p(np.array([1.5]))


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        TabulatedPotential([0.0, 1.0, 2.0], [1, 1, 1])       # too few
    with pytest.raises(ConfigError):
        TabulatedPotential([0, 1, 1, 2], [1, 1, 1, 1])       # not increasing
    with pytest.raises(ConfigError):
        TabulatedPotential([1, 2, 3, 4], [1, 1, 1, 1])       # misses x = 0


def test_gaussian_width_validation():
    with pytest.raises(ConfigError):
        GaussianPotential(width=0.0)


def test_config_round_trip():
    for spec, p in (
            ({"kind": "zero"}, ZeroPotential()),
            ({"kind": "constant", "value": 2.0}, ConstantPotential(2.0)),
            ({"kind": "gaussian", "amplitude": 1.0, "width": 0.3,
              "center": 0.1}, GaussianPotential(1.0, 0.3, 0.1)),
            ({"kind": "sech2", "amplitude": 0.5, "width": 0.8},
             Sech2Potential(0.5, 0.8)),
            ({"kind": "polynomial", "coeffs": [1.0, 2.0]},
             PolynomialPotential([1.0, 2.0]))):
        p2 = potential_from_config(spec)
        x = np.linspace(-0.5, 0.5, 7)
        assert np.allclose(p(x), p2(x))


def test_config_errors():
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "fancy"})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "gaussian", "sigma": 1.0})
    with pytest.raises(ConfigError):
        potential_from_config(["gaussian"])
