"""The inverse stages' shared state: one connecting kernel, held as one
node-major array, and one nested factor per run, GL solved on horizon
panels."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from bcwave import krein, pipeline
from bcwave.config import parse_config
from bcwave.connecting import assemble_matrix, build_connecting, nested_factor
from bcwave.errors import ReconstructionError
from bcwave.gl import GL_PANELS, _solve_column, solve_gl
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, trapezoid_weights
from bcwave.potentials import ZeroPotential
from bcwave.response import response_matrix

from oracles import _assemble


@pytest.mark.parametrize("resp", ["resp128", "resp_off", "resp_skew"])
def test_panelled_gl_matches_column_solves(request, resp):
    # 127 columns make panels of 32, 32, 32 and 31; resp_skew has columns
    # past the factor's reach, so no panel is solved
    ck = build_connecting(request.getfixturevalue(resp), 127)
    assert ck.grid.n % GL_PANELS
    if resp == "resp_skew":
        with pytest.raises(ReconstructionError, match="stops short"):
            assemble_matrix(ck)
        return
    inverse = assemble_matrix(ck)
    M = solve_gl(ck, inverse)
    ref = np.zeros((4, ck.grid.n + 1, ck.grid.n + 1))
    ref[:, 0, 0] = -2.0 * ck.nodes[:2, :2].ravel()
    for j in range(1, ck.grid.n + 1):
        k = j + 1
        sol = _solve_column(ck.nodes, j, ck.grid.h)
        ref[0, :k, j], ref[2, :k, j] = sol[:k, 0], sol[k:, 0]
        ref[1, :k, j], ref[3, :k, j] = sol[:k, 1], sol[k:, 1]
    for blk, r in zip((M.m11, M.m12, M.m21, M.m22), ref):
        assert np.max(np.abs(blk - r)) <= 1e-12 * np.max(np.abs(r))
    # the shared state gives the same bits as a solve that builds its own
    alone = solve_gl(ck)
    for a, b in zip((M.m11, M.m12, M.m21, M.m22),
                    (alone.m11, alone.m12, alone.m21, alone.m22)):
        assert np.array_equal(a, b)


def test_stage_subsets_write_the_same_bytes(tmp_path, resp_off):
    path = tmp_path / "response.csv"
    resp_off.write_csv(path)
    blobs = {}
    for stages in (["krein"], ["gl"], ["krein", "gl"],
                   ["connect", "krein", "gl"]):
        out = tmp_path / "-".join(stages)
        report = pipeline.run_pipeline(parse_config(json.dumps(
            {"response_csv": str(path), "T": 1.0, "n": 128,
             "stages": stages, "out": str(out)})))
        assert report["ok"]
        for name in ("krein_q.csv", "gl_kernel.csv", "q_gl.csv"):
            if (out / name).exists():
                blobs.setdefault(name, set()).add((out / name).read_bytes())
    assert {name: len(b) for name, b in blobs.items()} == {
        "krein_q.csv": 1, "gl_kernel.csv": 1, "q_gl.csv": 1}
    connect = report["stages"][1]
    assert connect["name"] == "connect"
    ck = build_connecting(resp_off)
    asm = assemble_matrix(ck)
    lam = np.linalg.eigvalsh(_assemble(ck.nodes, ck.grid.h)[0])[0]
    assert abs(connect["metrics"]["min_eigenvalue"] - lam) <= 1e-12 * lam
    assert connect["metrics"]["assembly_asymmetry"] == asm.asymmetry


def _free_ck():
    return build_connecting(response_matrix(
        solve_kernels(ZeroPotential(), UniformGrid(2.0, 128))))


@pytest.mark.parametrize("case", ["gauss", "zero"])
def test_min_eigenvalue_by_lanczos(request, case):
    ck = request.getfixturevalue("ck128") if case == "gauss" else _free_ck()
    asm = assemble_matrix(ck)
    assert asm.factor.horizons == ck.grid.n      # the Lanczos path
    lam = np.linalg.eigvalsh(_assemble(ck.nodes, ck.grid.h)[0])
    assert abs(asm.min_eigenvalue() - lam[0]) <= 1e-12 * lam[0]
    if case == "zero":
        # W/2: the end nodes' h/4, once per component and end
        h = ck.grid.h
        assert np.count_nonzero(lam == 0.25 * h) == 4
        assert abs(asm.min_eigenvalue() - 0.25 * h) <= 1e-12 * h
    assert asm.min_eigenvalue() == asm.min_eigenvalue()   # deterministic


def test_min_eigenvalue_dense_when_lanczos_does_not_converge(ck128,
                                                            monkeypatch):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((0, 0)))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    asm = assemble_matrix(ck128)
    # the dense eigensolve reads B from the factor, a symmetric
    # permutation of the dense A
    lam = np.linalg.eigvalsh(_assemble(ck128.nodes, ck128.grid.h)[0])[0]
    assert lam > 0.0
    assert abs(asm.min_eigenvalue() - lam) <= 1e-12 * lam


def test_assemble_matrix_fails_past_the_factor(resp_broken):
    ck = build_connecting(resp_broken)
    fac = nested_factor(ck.nodes, ck.grid.h)
    assert fac.horizons < ck.grid.n
    # the dense eigensolve agrees: the connecting matrix is indefinite
    assert np.linalg.eigvalsh(_assemble(ck.nodes, ck.grid.h)[0])[0] < 0.0
    with pytest.raises(ReconstructionError) as err:
        assemble_matrix(ck)
    assert str(err.value) == (
        "the nested factor stops short of horizon %d of 96: the connecting "
        "matrix is not positive definite, so the response belongs to no "
        "potential" % (fac.horizons + 1))


def _inverse_stages_fail_once(tmp_path, monkeypatch, r, needle):
    """Run ``r``'s response CSV with three lists of inverse stages and
    check that each stage that runs fails with the same message, which
    names ``needle``, after one assembly per run."""
    path = tmp_path / "response.csv"
    r.write_csv(path)
    built = []

    def counting(ck):
        built.append(ck)
        return assemble_matrix(ck)

    monkeypatch.setattr(pipeline, "assemble_matrix", counting)
    errors = set()
    for stages in (["krein"], ["gl"], ["connect", "krein", "gl"]):
        built.clear()
        out = tmp_path / "-".join(stages)
        report = pipeline.run_pipeline(parse_config(json.dumps(
            {"response_csv": str(path), "T": 1.0, "n": r.grid.n // 2,
             "stages": stages, "out": str(out)})))
        assert not report["ok"] and len(built) == 1
        ingest, *inverse = report["stages"]
        assert ingest["status"] == "ok"
        assert [s["name"] for s in inverse] == stages
        for s in inverse:
            assert s["status"] == "failed"
            errors.add(s["error"])
            # connect writes its kernel before it assembles
            files = [str(out / "connecting.csv")] * (s["name"] == "connect")
            assert s["files"] == files
    assert len(errors) == 1
    assert needle in errors.pop()


def test_response_of_no_potential_fails_connect_and_gl(tmp_path, monkeypatch,
                                                       resp_broken):
    # r22 = -c alone is no potential's response: the connecting matrix is
    # not positive definite, and every inverse stage says so
    _inverse_stages_fail_once(tmp_path, monkeypatch, resp_broken,
                              "not positive definite")


def test_skewed_response_fails_every_inverse_stage(tmp_path, monkeypatch,
                                                   resp_skew):
    # r21' = r12 broken: the horizon matrices grow too asymmetric
    _inverse_stages_fail_once(tmp_path, monkeypatch, resp_skew,
                              "has asymmetry")


def test_assembly_asymmetry_from_the_factor(resp_off, resp_skew):
    for r in (resp_off, resp_skew):
        ck = build_connecting(r)
        w = np.tile(trapezoid_weights(ck.grid.n, ck.grid.h), 2)
        A = 0.5 * np.diag(w) + (w[:, None] * np.block(
            [[ck.c11, ck.c12], [ck.c21, ck.c22]]) * w[None, :])
        asym = np.max(np.abs(A - A.T))
        assert nested_factor(ck.nodes, ck.grid.h).asymmetry[-1] == asym
        if r is resp_off:   # resp_skew's factor stops short
            assert assemble_matrix(ck).asymmetry == asym


def test_one_state_per_run_freed_before_spectral(tmp_path, monkeypatch):
    built = []
    seen = {}

    def counting(ck):
        inverse = assemble_matrix(ck)
        built.append(weakref.ref(inverse))
        return inverse

    def own_state(*args):
        raise AssertionError("the Krein sweep built its own state")

    def residual(ck, M):
        seen["residual"] = [ref() is None for ref in built]
        return 0.0

    solved = []

    def gl(ck, inverse):
        M = solve_gl(ck, inverse)
        solved.append(weakref.ref(M))
        return M

    stage_spectral = pipeline._stage_spectral

    def spectral(cfg, state, files):
        seen["spectral"] = "inverse" in state
        seen["gl_freed"] = [ref() is None for ref in solved]
        return stage_spectral(cfg, state, files)

    monkeypatch.setattr(pipeline, "assemble_matrix", counting)
    monkeypatch.setattr(pipeline, "solve_gl", gl)
    monkeypatch.setattr(krein, "assemble_matrix", own_state)
    monkeypatch.setattr(pipeline, "operator_identity_residual", residual)
    monkeypatch.setattr(pipeline, "_stage_spectral", spectral)
    cfg = {"potential": {"kind": "gaussian", "amplitude": 1.0, "width": 0.3},
           "T": 1.0, "n": 32, "out": str(tmp_path / "out"),
           "spectral": {"N": 4.0, "cutoff": 20, "mesh": 128}}
    report = pipeline.run_pipeline(parse_config(json.dumps(cfg)))
    assert report["ok"]
    assert len(built) == 1
    assert seen == {"residual": [True], "spectral": False,
                    "gl_freed": [True]}


def test_inverse_state_holds_one_matrix(ck128):
    # beyond the kernel, whose node-major array is the only copy of C, the
    # shared state holds the factor and a few vectors
    assemble_matrix(ck128)           # loads scipy.linalg first
    size = 8 * (2 * ck128.grid.n + 2) ** 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inverse = assemble_matrix(ck128)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert inverse.factor.factor.nbytes == size
    assert held <= 1.1 * size
