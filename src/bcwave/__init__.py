"""Boundary Control inverse pipeline for the 1-D wave equation with a
potential on the real line.

Forward side: Goursat kernels, forward solution, response matrix and
connecting operator.  Inverse side: Krein and Gelfand-Levitan potential
reconstruction from response data alone, plus a finite-interval spectral
bridge cross-validating the dynamic representations.

Importing the package loads numpy only; each scipy submodule is imported
by the function that first calls it.  A forward run (kernels, response)
of an analytic potential loads no scipy at all: the Gaussian's erf is a
numpy port of scipy's own Cephes algorithm, bit for bit on scipy 1.17.1.
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
