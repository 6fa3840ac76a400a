"""Boundary Control inverse pipeline for the 1-D wave equation with a
potential on the real line.

Forward side: Goursat kernels, forward solution, response matrix and
connecting operator.  Inverse side: Krein and Gelfand-Levitan potential
reconstruction from response data alone, plus a finite-interval spectral
bridge cross-validating the dynamic representations.

Importing the package loads numpy only.  The inverse stages and the
spectral eigensolve call scipy's compiled BLAS and LAPACK modules, which
the first call loads without importing any scipy package (``_lapack``).
A forward run (kernels, response) of an analytic potential loads no
scipy at all: the Gaussian's erf is a numpy port of scipy's own Cephes
algorithm, bit for bit on scipy 1.17.1.  Only a tabulated potential
imports a scipy package, ``scipy.interpolate``.
"""

from .grid import Control, UniformGrid
from .potentials import (
    ConstantPotential,
    GaussianPotential,
    PolynomialPotential,
    Potential,
    Sech2Potential,
    TabulatedPotential,
    ZeroPotential,
    potential_from_config,
)

__version__ = "0.1.0"

#: Name of the march implementation, recorded in ``report.json``.  The
#: numpy march is the only one.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "Control",
    "UniformGrid",
    "Potential",
    "ZeroPotential",
    "ConstantPotential",
    "GaussianPotential",
    "Sech2Potential",
    "PolynomialPotential",
    "TabulatedPotential",
    "potential_from_config",
    "__version__",
]
