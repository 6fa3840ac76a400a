"""bcwave._lapack hands out scipy's own compiled BLAS and LAPACK: the very
function objects that ``scipy.linalg.blas`` and ``scipy.linalg.lapack``
export, whichever side is imported first, so no routine's bits can move.
Every check runs in a fresh interpreter, since this test process has
scipy loaded already."""

import json
import os
import subprocess
import sys

import pytest

import bcwave

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bcwave.__file__)))

BLAS = ["dtrsm", "dsymm", "dtrsv", "dgemm"]
LAPACK = ["dpotrf", "dtrtri", "dgbsv", "dsterf", "dgtsv"]

#: Leaves in ``same`` whether each routine of ``_lapack`` is scipy's.
SAME = (
    "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack\n"
    "same = ([getattr(_lapack.blas(), f) is getattr(blas, f) for f in %r]\n"
    "        + [getattr(_lapack.lapack(), f) is getattr(lapack, f)\n"
    "           for f in %r])\n" % (BLAS, LAPACK))

#: Leaves in ``spline`` whether krein's smoothing spline, whose banded
#: solve is ``_lapack``'s dgbsv, equals scipy's bit for bit.
SPLINE = (
    "import numpy as np\n"
    "from bcwave.krein import _smoothing_spline\n"
    "rng = np.random.default_rng(7)\n"
    "x = np.sort(rng.uniform(-1.0, 1.0, 64))\n"
    "y = np.sinh(x) + 1e-3 * rng.standard_normal(64)\n"
    "at = np.linspace(-1.2, 1.2, 199)\n"
    "ours = _smoothing_spline(x, y, 1e-6, at)\n"
    "from scipy.interpolate import make_smoothing_spline\n"
    "spline = bool(np.array_equal(\n"
    "    ours, make_smoothing_spline(x, y, lam=1e-6)(at)))\n")


def _fresh(code: str, cwd) -> dict:
    """Run ``code`` in a fresh interpreter; return what it leaves in
    ``result``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = "import json, sys\n" + code + "print(json.dumps(result))\n"
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("first", ["bcwave", "scipy"])
def test_routines_are_scipys_own(tmp_path, first):
    got = _fresh(
        ("import scipy.linalg.blas, scipy.linalg.lapack\n"
         if first == "scipy" else "")
        + "from bcwave import _lapack\n"
        "_lapack.blas(), _lapack.lapack()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        + SAME + SPLINE +
        "result = {'loaded': loaded, 'same': same, 'spline': spline}\n",
        tmp_path)
    assert got["same"] == [True] * (len(BLAS) + len(LAPACK))
    assert got["spline"] is True
    if first == "bcwave":
        # the direct load: the two compiled modules and no package
        assert got["loaded"] == ["scipy.linalg._fblas",
                                 "scipy.linalg._flapack"]


def test_failed_direct_load_imports_the_same_module(tmp_path):
    got = _fresh(
        "from bcwave import _lapack\n"
        "def refuse(full):\n"
        "    raise ImportError('refused: ' + full)\n"
        "_lapack._from_file = refuse\n"
        "_lapack.blas(), _lapack.lapack()\n"
        "package = 'scipy.linalg' in sys.modules\n"
        + SAME +
        "result = {'package': package, 'same': same}\n", tmp_path)
    # the fallback imports the modules through their package
    assert got["package"] is True
    assert got["same"] == [True] * (len(BLAS) + len(LAPACK))
