"""scipy's compiled BLAS and LAPACK modules, without the scipy packages.

:func:`blas` and :func:`lapack` return ``scipy.linalg._fblas`` and
``scipy.linalg._flapack``, the f2py modules whose functions
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export, so every call
keeps scipy's bits.  A module already imported is taken from
``sys.modules``; otherwise it is loaded from its file in scipy's
``linalg`` directory, which runs neither ``scipy/__init__.py`` nor
``scipy/linalg/__init__.py`` (together about 0.3 s of a fresh process).
If that direct load fails, the module is imported the usual way.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def _from_file(full: str) -> ModuleType:
    """Load the compiled module ``full`` from its file in scipy's
    ``linalg`` directory, without running any package's ``__init__``."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("no scipy package", name="scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(full)
    if spec is None:
        raise ImportError("no compiled %s in scipy" % full, name=full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name: str) -> ModuleType:
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    try:
        module = _from_file(full)
    except ImportError:
        return importlib.import_module(full)
    return sys.modules.setdefault(full, module)


def blas() -> ModuleType:
    """``scipy.linalg._fblas``: dtrsm, dsymm, dtrsv, dgemm."""
    return _load("_fblas")


def lapack() -> ModuleType:
    """``scipy.linalg._flapack``: dpotrf, dtrtri, dgbsv, dsterf, dgtsv."""
    return _load("_flapack")
