"""The inverse stages' shared state: one connecting kernel, held as one
node-major array, and one nested factor per run; GL reads its kernel off
the inverse of its own LU factor's upper triangle."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from bcwave import connecting, krein, pipeline
from bcwave.config import parse_config
from bcwave.connecting import (ConnectingKernel, assemble_matrix,
                               build_connecting, connecting_nodes)
from bcwave.errors import ReconstructionError
from bcwave.gl import solve_gl
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, trapezoid_weights
from bcwave.potentials import ZeroPotential
from bcwave.response import response_matrix

from oracles import _assemble, _solve_column


@pytest.mark.parametrize("resp", ["resp128", "resp_off", "resp_skew"])
def test_gl_matches_column_solves_at_n127(request, resp):
    # an odd number of columns, each checked against its own dense solve
    r = request.getfixturevalue(resp)
    ck = ConnectingKernel(UniformGrid(127 * r.grid.h, 127),
                          connecting_nodes(r, 127))
    if resp == "resp_skew":
        # no potential's response: the shared state refuses it, so a run
        # never reaches solve_gl; its LU solves the columns all the same,
        # as the skew leaves the symmetric part positive definite
        with pytest.raises(ReconstructionError, match="stops short"):
            assemble_matrix(ck)
    M = solve_gl(ck)
    ref = np.zeros((4, ck.grid.n + 1, ck.grid.n + 1))
    ref[:, 0, 0] = -2.0 * ck.nodes[:2, :2].ravel()
    for j in range(1, ck.grid.n + 1):
        k = j + 1
        # node-major rows: m_ab(x_i, s_j) in row 2i + a, column b
        sol = _solve_column(ck.nodes, j, ck.grid.h)
        ref[0, :k, j], ref[2, :k, j] = sol[0::2, 0], sol[1::2, 0]
        ref[1, :k, j], ref[3, :k, j] = sol[0::2, 1], sol[1::2, 1]
    for blk, r in zip((M.m11, M.m12, M.m21, M.m22), ref):
        assert np.max(np.abs(blk - r)) <= 1e-12 * np.max(np.abs(r))
    # a second solve gives the same bits
    assert np.array_equal(solve_gl(ck).nodes, M.nodes)


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
    assert asm.horizons == ck.grid.n      # the Lanczos path
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
    # one Lanczos step leaves the residual far above roundoff
    monkeypatch.setattr(connecting, "LANCZOS_STEPS", 1)
    eigvalsh, dense = np.linalg.eigvalsh, []

    def counted(b, **kwargs):
        dense.append(b.shape)
        return eigvalsh(b, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    asm = assemble_matrix(ck128)
    # the dense eigensolve reads B from the factor, a symmetric
    # permutation of the dense A
    lam = eigvalsh(_assemble(ck128.nodes, ck128.grid.h)[0])[0]
    assert lam > 0.0
    assert abs(asm.min_eigenvalue() - lam) <= 1e-12 * lam
    assert dense == [asm.factor.shape]


def _spd(rng, size, top=None, fold=1):
    """A seeded SPD matrix of order ``size``: eigenvalues uniform in
    [0.1, 1] and, if ``top`` is given, that value ``fold``-fold above
    them."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    lam = rng.uniform(0.1, 1.0, size)
    if top is not None:
        lam[:fold] = top
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("size,top,fold", [
    (5, None, 1), (60, None, 1), (200, 1.5, 1),
    # repeated, as the zero potential's h/4 is 4-fold
    (200, 1.5, 4), (64, 1.001, 4)])
def test_lanczos_top_matches_eigvalsh(size, top, fold):
    rng = np.random.default_rng(size)
    a = _spd(rng, size, top, fold)
    v0 = rng.standard_normal(size)
    mu = connecting._lanczos_top(lambda x: a @ x, v0)
    ref = np.linalg.eigvalsh(a)[-1]
    assert mu is not None
    assert abs(mu - ref) <= 1e-13 * ref
    assert connecting._lanczos_top(lambda x: a @ x, v0.copy()) == mu


def test_lanczos_top_reports_no_convergence():
    # 200 eigenvalues packed in [0.1, 1]: the top one is not separated
    # to roundoff within LANCZOS_STEPS steps
    rng = np.random.default_rng(200)
    a = _spd(rng, 200)
    assert connecting.LANCZOS_STEPS < 200
    assert connecting._lanczos_top(lambda x: a @ x,
                                   rng.standard_normal(200)) is None


def _first_missed_horizon(ck):
    """The first horizon p whose nodes 0..p hold a leading block of the
    symmetrized B = W/2 + W C~ W that is not positive definite (at least
    1), found by dense Cholesky factorizations of the leading blocks."""
    w = np.repeat(trapezoid_weights(ck.grid.n, ck.grid.h), 2)
    b = w[:, None] * ck.nodes * w + np.diag(0.5 * w)
    b = 0.5 * (b + b.T)
    for p in range(ck.grid.n + 1):
        try:
            np.linalg.cholesky(b[:2 * p + 2, :2 * p + 2])
        except np.linalg.LinAlgError:
            return max(p, 1)
    return None


def test_assemble_matrix_fails_past_the_factor(resp_broken):
    ck = build_connecting(resp_broken)
    missed = _first_missed_horizon(ck)
    assert missed is not None
    # the dense eigensolve agrees: the connecting matrix is indefinite
    assert np.linalg.eigvalsh(_assemble(ck.nodes, ck.grid.h)[0])[0] < 0.0
    with pytest.raises(ReconstructionError) as err:
        assemble_matrix(ck)
    assert str(err.value) == (
        "the nested factor stops short of horizon %d of 96: the connecting "
        "matrix is not positive definite, so the response belongs to no "
        "potential" % missed)


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
    error = errors.pop()
    assert needle in error
    # no potential to blame the grid on
    assert error.endswith("so the response belongs to no potential")


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


@pytest.mark.parametrize("amplitude,qh2", [(1e3, "0.977"), (300.0, None)])
def test_coarse_grid_named_on_the_potential_route(tmp_path, amplitude, qh2):
    # at n = 32 (h = 1/32) a Gaussian of amplitude 1e3 has max|q| h^2 =
    # 0.98, and its response's factor stops short; 300 (0.29) inverts
    report = pipeline.run_pipeline(parse_config(json.dumps(
        {"potential": {"kind": "gaussian", "amplitude": amplitude,
                       "width": 0.3},
         "T": 1.0, "n": 32, "stages": ["connect", "krein", "gl"],
         "out": str(tmp_path)})))
    inverse = report["stages"][2:]
    assert [s["name"] for s in inverse] == ["connect", "krein", "gl"]
    if qh2 is None:
        assert report["ok"]
        return
    for s in inverse:
        assert s["status"] == "failed"
        assert s["error"].startswith("the nested factor stops short of "
                                     "horizon 19 of 32: the connecting "
                                     "matrix is not positive definite")
        assert "max|q| h^2 is %s" % qh2 in s["error"]
        assert "a larger n may resolve it" in s["error"]


def test_coarse_grid_named_by_the_spectral_stage(tmp_path):
    # at amplitude 1e4 (max|q| h^2 = 9.77) the connecting form of the
    # spectral stage's first pair is negative; the inverse stages name
    # the same cause in the same words
    report = pipeline.run_pipeline(parse_config(json.dumps(
        {"potential": {"kind": "gaussian", "amplitude": 1e4, "width": 0.3},
         "T": 1, "n": 32, "spectral": {"cutoff": 40, "mesh": 256},
         "out": str(tmp_path)})))
    stages = {s["name"]: s for s in report["stages"]}
    assert {k: s["status"] for k, s in stages.items()} == {
        "kernels": "ok", "response": "ok", "connect": "failed",
        "krein": "failed", "gl": "failed", "spectral": "failed"}
    grid = ("max|q| h^2 is 9.77 on the run's grid (h = 0.03125): a larger n "
            "may resolve it")
    assert stages["spectral"]["error"] == (
        "the connecting form is not positive on this grid ((C F, F) = -2.29, "
        "(C G, G) = -3.26 for pair 1): the potential's " + grid)
    for name in ("connect", "krein", "gl"):
        assert stages[name]["error"].endswith("potential, whose " + grid)


def _asymmetry(nodes, h):
    """max |A - A^T| of the dense A = W/2 + W C W of the horizon whose
    node-major array is ``nodes``."""
    w = np.repeat(trapezoid_weights(nodes.shape[0] // 2 - 1, h), 2)
    a = w[:, None] * nodes * w
    return np.max(np.abs(a - a.T))


def test_assembly_asymmetry_from_the_factor(resp_off, resp_off_noisy,
                                            resp_off33, resp_skew):
    for r in (resp_off, resp_off_noisy, resp_off33, resp_skew):
        ck = build_connecting(r)
        n, h = ck.grid.n, ck.grid.h
        w = np.tile(trapezoid_weights(n, h), 2)
        A = 0.5 * np.diag(w) + (w[:, None] * np.block(
            [[ck.c11, ck.c12], [ck.c21, ck.c22]]) * w[None, :])
        asym = [_asymmetry(connecting_nodes(r, k), h)
                for k in range(1, n + 1)]
        assert asym[-1] == np.max(np.abs(A - A.T))
        beyond = [k for k in range(1, n + 1)
                  if asym[k - 1] > connecting.ASYMMETRY_H2 * h * h]
        if r is not resp_skew:
            assert not beyond
            assert assemble_matrix(ck).asymmetry == asym[-1]
            continue
        # resp_skew's factor stops short at the first horizon whose matrix
        # is too asymmetric, and names that matrix's asymmetry
        with pytest.raises(ReconstructionError) as err:
            assemble_matrix(ck)
        assert str(err.value).startswith(
            "the nested factor stops short of horizon %d of %d: its "
            "connecting matrix has asymmetry %.3g above 100 h^2"
            % (beyond[0], n, asym[beyond[0] - 1]))


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

    def gl(ck):
        # the stage lets go of the Cholesky factor before its own LU
        seen["gl"] = [ref() is None for ref in built]
        M = solve_gl(ck)
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
    assert seen == {"gl": [True], "residual": [True], "spectral": False,
                    "gl_freed": [True]}


def test_inverse_state_holds_one_matrix(ck128):
    # beyond the kernel, whose node-major array is the only copy of C, the
    # shared state holds the factor and a few vectors
    assemble_matrix(ck128)           # loads the LAPACK module first
    size = 8 * (2 * ck128.grid.n + 2) ** 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inverse = assemble_matrix(ck128)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert inverse.factor.nbytes == size
    assert held <= 1.1 * size
