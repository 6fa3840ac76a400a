"""Potentials q(x) on a symmetric interval, with exact cumulative
integrals Q(x) = int_0^x q.

Analytic kinds (gaussian, sech2, polynomial, constant) carry closed-form
cumulative integrals.  Tabulated data is interpolated with a natural cubic
spline; its cumulative integral is the exact antiderivative of the spline
(identical to composite Simpson on the cubic segments).
"""

from __future__ import annotations

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
        # math.erf differs from scipy's in the last bits, and Q feeds the
        # kernels' bytes
        from scipy.special import erf

        a, w, c = self.amplitude, self.width, self.center
        s = 0.5 * np.sqrt(np.pi) * a * w
        return s * (erf((x - c) / w) - erf(-c / w))

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
