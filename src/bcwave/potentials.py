"""Potentials q(x) on a symmetric interval, with exact cumulative
integrals Q(x) = int_0^x q.

Analytic kinds (gaussian, sech2, polynomial, constant) carry closed-form
cumulative integrals.  Tabulated data is interpolated with a natural cubic
spline; its cumulative integral is the exact antiderivative of the spline
(identical to composite Simpson on the cubic segments).
"""

from __future__ import annotations

import math

import numpy as np

from .config import finite_number
from .errors import ConfigError, DomainError


def _finite_samples(values, key: str) -> np.ndarray:
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = np.array(np.nan)
    if isinstance(values, list) and any(isinstance(v, bool) for v in values):
        a = np.array(np.nan)   # JSON true/false where a number is due
    if not np.all(np.isfinite(a)):
        raise ConfigError("'%s' must hold finite numbers" % key)
    return a


# Cephes ndtr.c (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the erf of scipy.special: T/U on |x| <= 1, P/Q on 1 < |x| < 8 and
# R/S from 8 on.  Cephes evaluates U, Q and S with an implicit leading 1
# (p1evl); here the 1 is written out, and 1 * x is exact.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
#: Cephes' MAXLOG; beyond |x| = sqrt(MAXLOG) exp(-x^2) underflows and erfc
#: is taken as 0.  Long before that, from |x| = 6 on, erfc is below half an
#: ulp of 1, so where exactly the cut falls does not change erf.
_ERFC_UNDERFLOW = math.sqrt(7.09782712893383996843E2)


def _horner(x, coef):
    """Cephes' polevl: coef[0] x^k + ... + coef[k], in Horner's order."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x):
    """erf by Cephes' algorithm, operation for operation, so that it
    matches ``scipy.special.erf`` bit for bit (verified on scipy 1.17.1).

    exp(-x^2) is taken from ``math.exp``, which calls the C library's exp
    as Cephes does; ``np.exp`` differs from it by an ulp on some inputs.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    y = np.full_like(a, np.nan)
    inner = a <= 1.0
    z = a[inner] * a[inner]
    y[inner] = a[inner] * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    y[a > 1.0] = 1.0   # kept where erfc underflows
    for outer, p, q in (((a > 1.0) & (a < 8.0), _ERFC_P, _ERFC_Q),
                        ((a >= 8.0) & (a <= _ERFC_UNDERFLOW),
                         _ERFC_R, _ERFC_S)):
        t = a[outer]
        e = np.fromiter(map(math.exp, (-(t * t)).tolist()), float, t.size)
        y[outer] = 1.0 - e * _horner(t, p) / _horner(t, q)
    return np.copysign(y, x)


class Potential:
    """Base class; subclasses implement _eval and _cumint on checked x."""

    kind = "abstract"
    #: support radius; evaluation outside [-L, L] is a DomainError
    support = np.inf

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.support * (1.0 + 1e-12)):
            raise DomainError(
                "x outside potential support radius %g" % self.support
            )
        return x

    def __call__(self, x):
        return self._eval(self._check(x))

    def cumint(self, x):
        """Q(x) = int_0^x q(s) ds (signed: Q(x) < 0 possible for x < 0)."""
        return self._cumint(self._check(x))

    def to_config(self) -> dict:
        raise NotImplementedError


class ConstantPotential(Potential):
    kind = "constant"

    def __init__(self, value: float):
        self.value = finite_number(value, "potential.value")

    def _eval(self, x):
        return np.full_like(x, self.value)

    def _cumint(self, x):
        return self.value * x

    def to_config(self):
        return {"kind": "constant", "value": self.value}


class ZeroPotential(ConstantPotential):
    kind = "zero"

    def __init__(self):
        super().__init__(0.0)

    def to_config(self):
        return {"kind": "zero"}


class GaussianPotential(Potential):
    """q(x) = amplitude * exp(-((x - center)/width)^2)."""

    kind = "gaussian"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0,
                 center: float = 0.0):
        self.amplitude = finite_number(amplitude, "potential.amplitude")
        self.width = finite_number(width, "potential.width")
        self.center = finite_number(center, "potential.center")
        if self.width <= 0:
            raise ConfigError("gaussian width must be positive")

    def _eval(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u)

    def _cumint(self, x):
        # math.erf differs from scipy's erf in the last bits, and Q feeds
        # the kernels' bytes, so this is _erf, scipy's algorithm
        a, w, c = self.amplitude, self.width, self.center
        s = 0.5 * np.sqrt(np.pi) * a * w
        return s * (_erf((x - c) / w) - _erf(-c / w))

    def to_config(self):
        return {"kind": "gaussian", "amplitude": self.amplitude,
                "width": self.width, "center": self.center}


class Sech2Potential(Potential):
    """q(x) = amplitude * sech((x - center)/width)^2."""

    kind = "sech2"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0,
                 center: float = 0.0):
        self.amplitude = finite_number(amplitude, "potential.amplitude")
        self.width = finite_number(width, "potential.width")
        self.center = finite_number(center, "potential.center")
        if self.width <= 0:
            raise ConfigError("sech2 width must be positive")

    def _eval(self, x):
        u = (x - self.center) / self.width
        return self.amplitude / np.cosh(u) ** 2

    def _cumint(self, x):
        a, w, c = self.amplitude, self.width, self.center
        return a * w * (np.tanh((x - c) / w) - np.tanh(-c / w))

    def to_config(self):
        return {"kind": "sech2", "amplitude": self.amplitude,
                "width": self.width, "center": self.center}


class PolynomialPotential(Potential):
    """q(x) = sum_j coeffs[j] * x**j."""

    kind = "polynomial"

    def __init__(self, coeffs):
        self.coeffs = [finite_number(c, "potential.coeffs") for c in coeffs]
        if not self.coeffs:
            raise ConfigError("polynomial needs at least one coefficient")

    def _eval(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def _cumint(self, x):
        anti = [0.0] + [c / (j + 1) for j, c in enumerate(self.coeffs)]
        return np.polynomial.polynomial.polyval(x, anti)

    def to_config(self):
        return {"kind": "polynomial", "coeffs": self.coeffs}


class TabulatedPotential(Potential):
    """Sampled potential with natural cubic spline interpolation (C^1,
    consistent with the smoothness the inversion formulas assume)."""

    kind = "tabulated"

    def __init__(self, x, q):
        from scipy.interpolate import CubicSpline

        x = _finite_samples(x, "potential.x")
        q = _finite_samples(q, "potential.q")
        if x.ndim != 1 or x.shape != q.shape or len(x) < 4:
            raise ConfigError("tabulated potential needs >= 4 (x, q) pairs")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("tabulated x samples must be increasing")
        if x[0] > 0.0 or x[-1] < 0.0:
            raise ConfigError("tabulated samples must bracket x = 0")
        self.x = x
        self.q = q
        self.support = float(min(-x[0], x[-1]))
        self._spline = CubicSpline(x, q, bc_type="natural")
        self._anti = self._spline.antiderivative()

    def _eval(self, x):
        return self._spline(x)

    def _cumint(self, x):
        return self._anti(x) - self._anti(0.0)

    def to_config(self):
        return {"kind": "tabulated", "x": list(self.x), "q": list(self.q)}


_KINDS = {
    "zero": ZeroPotential,
    "constant": ConstantPotential,
    "gaussian": GaussianPotential,
    "sech2": Sech2Potential,
    "polynomial": PolynomialPotential,
    "tabulated": TabulatedPotential,
}


def potential_from_config(spec: dict) -> Potential:
    """Build a Potential from its JSON dict form; unknown keys rejected."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("potential spec must be a dict with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind not in _KINDS:
        raise ConfigError("unknown potential kind %r" % kind)
    try:
        return _KINDS[kind](**spec)
    except TypeError as exc:
        raise ConfigError("bad parameters for potential %r: %s" % (kind, exc))
