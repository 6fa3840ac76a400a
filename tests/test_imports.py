"""Import footprint: importing bcwave, and a forward run of an analytic
potential, load numpy only.  An inverse or a full run adds scipy's two
compiled modules, ``scipy.linalg._fblas`` and ``scipy.linalg._flapack``,
and no scipy package.  Every check runs in a fresh interpreter, since
this test process has scipy loaded already."""

import json
import os
import subprocess
import sys

import pytest

import bcwave
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid
from bcwave.potentials import GaussianPotential
from bcwave.response import response_matrix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bcwave.__file__)))


def _scipy_after(code: str, cwd, preload: str = "") -> dict:
    """Run ``preload`` and then ``code`` in a fresh interpreter.  Return
    the value ``code`` leaves in ``result`` and the scipy modules that
    ``code`` loaded beyond those already loaded by ``preload``."""
    probe = (
        "import sys\n" + preload +
        "\nbefore = set(sys.modules)\n" + code +
        "\nimport json\n"
        "print(json.dumps({'result': result, 'scipy': sorted(\n"
        "    m for m in set(sys.modules) - before\n"
        "    if m.split('.')[0] == 'scipy')}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    got = _scipy_after("import bcwave, bcwave.pipeline, bcwave.cli\n"
                       "result = None", tmp_path)
    assert got["scipy"] == []


def test_forward_run_loads_only_scipy_special(tmp_path):
    # What scipy.special itself loads depends on the scipy release (older
    # ones import scipy.linalg with it), so it is the baseline: the run
    # may load nothing beyond it.
    cfg = json.dumps({"potential": {"kind": "gaussian"}, "T": 1, "n": 16,
                      "stages": ["kernels", "response"],
                      "out": str(tmp_path / "out")})
    got = _scipy_after(
        "from bcwave.config import parse_config\n"
        "from bcwave.pipeline import run_pipeline\n"
        "result = run_pipeline(parse_config(%r))['ok']" % cfg, tmp_path,
        preload="import scipy.special")
    assert got["result"] is True
    assert got["scipy"] == []


def _run_probe(cfg: dict) -> str:
    return ("from bcwave.config import parse_config\n"
            "from bcwave.pipeline import run_pipeline\n"
            "result = run_pipeline(parse_config(%r))['ok']" % json.dumps(cfg))


@pytest.mark.parametrize("potential", [
    {"kind": "gaussian", "amplitude": 1.5, "width": 0.25, "center": 0.3},
    {"kind": "sech2"},
    {"kind": "polynomial", "coeffs": [1.0, -0.5, 0.25]},
], ids=lambda p: p["kind"])
def test_analytic_forward_run_loads_no_scipy(tmp_path, potential):
    got = _scipy_after(_run_probe(
        {"potential": potential, "T": 1, "n": 16,
         "stages": ["kernels", "response"],
         "out": str(tmp_path / "out")}), tmp_path)
    assert got["result"] is True
    assert got["scipy"] == []


#: All that an inverse or a full run of an analytic potential loads of
#: scipy: its compiled BLAS and LAPACK, without the packages around them.
BLAS_LAPACK = ["scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_inverse_run_loads_only_blas_and_lapack(tmp_path):
    path = tmp_path / "response.csv"
    response_matrix(solve_kernels(GaussianPotential(), UniformGrid(
        2.0, 32))).write_csv(path)
    got = _scipy_after(_run_probe(
        {"response_csv": str(path), "T": 1, "n": 16,
         "stages": ["connect", "krein", "gl"],
         "out": str(tmp_path / "out")}), tmp_path)
    assert got["result"] is True
    assert got["scipy"] == BLAS_LAPACK


def test_full_run_loads_only_blas_and_lapack(tmp_path):
    got = _scipy_after(_run_probe(
        {"potential": {"kind": "gaussian"}, "T": 1, "n": 16,
         "spectral": {"N": 4.0, "cutoff": 20, "mesh": 128},
         "out": str(tmp_path / "out")}), tmp_path)
    assert got["result"] is True
    assert got["scipy"] == BLAS_LAPACK


def test_bad_config_exits_2_without_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"potential": {"kind": "gaussian"}, "T": -1, "n": 16}')
    got = _scipy_after(
        "from bcwave.cli import main\n"
        "result = main(['run', '--config', %r])" % str(cfg), tmp_path)
    assert got["result"] == 2
    assert got["scipy"] == []
