import csv
import json

import numpy as np
import pytest

from bcwave import _lapack, gl, pipeline
from bcwave.config import parse_config
from bcwave.connecting import (ConnectingKernel, assemble_matrix,
                               build_connecting, weighted_matrix)
from bcwave.errors import GridMismatchError, ReconstructionError
from bcwave.gl import (
    OperatorM,
    operator_identity_residual,
    recover_q_from_m,
    solve_gl,
    write_q_csv,
)
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, trapezoid_weights
from bcwave.potentials import ConstantPotential, GaussianPotential, ZeroPotential
from bcwave.response import response_matrix

from oracles import (
    _solve_column,
    invert_volterra,
    m_action_matrix,
    operator_k_kernel,
    operator_k_matrix,
    solve_gl_columns,
)


@pytest.fixture(scope="module")
def gl128(ck128):
    return solve_gl(ck128)


def test_invert_volterra_zero_potential():
    field = solve_kernels(ZeroPotential(), UniformGrid(2.0, 64))
    M = invert_volterra(field, 32)
    for blk in (M.m11, M.m12, M.m21, M.m22):
        assert np.max(np.abs(blk)) == 0.0


def test_invert_volterra_identity_residual(field128):
    n = 128
    M = invert_volterra(field128, n)
    K = operator_k_matrix(field128, n)
    eye = np.eye(2 * (n + 1))
    res = np.max(np.abs((eye + K) @ (eye + m_action_matrix(M)) - eye))
    assert res < 1e-10


def test_diagonal_relation(field128):
    n = 128
    h = field128.grid.h
    M = invert_volterra(field128, n)
    kk = operator_k_kernel(field128, n)
    d11, d12, d21, d22 = M.diagonals()
    pairs = ((d11, kk[0, 0]), (d12, kk[0, 1]), (d21, kk[1, 0]),
             (d22, kk[1, 1]))
    for dm, kblk in pairs:
        assert np.max(np.abs(dm + np.diag(kblk))) < 10.0 * h * h


def test_neumann_series_small_amplitude():
    p = GaussianPotential(amplitude=0.05, width=0.3)
    field = solve_kernels(p, UniformGrid(2.0, 64))
    n = 32
    K = operator_k_matrix(field, n)
    M = invert_volterra(field, n)
    Mn = m_action_matrix(M)
    series = -K + K @ K - K @ K @ K
    knorm = np.linalg.norm(K, 2)
    tail = knorm ** 4 / (1.0 - knorm)
    assert np.linalg.norm(Mn - series, 2) <= tail + 1e-12


def test_solve_gl_zero_potential():
    r = response_matrix(solve_kernels(ZeroPotential(), UniformGrid(2.0, 64)))
    M = solve_gl(build_connecting(r))
    for blk in (M.m11, M.m12, M.m21, M.m22):
        assert np.max(np.abs(blk)) == 0.0
    x, q = recover_q_from_m(M)
    assert np.max(np.abs(q)) == 0.0


def test_perturbative_constant_m11():
    c = 0.01
    n = 64
    r = response_matrix(solve_kernels(ConstantPotential(c), UniformGrid(2.0, 2 * n)))
    M = solve_gl(build_connecting(r))
    xs = M.grid.t
    expect = np.triu(0.5 * c * np.broadcast_to(xs[:, None], (n + 1, n + 1)))
    h = M.grid.h
    assert np.max(np.abs(np.triu(M.m11) - expect)) < c * c + 10 * h * h * c


def test_two_route_agreement(field128, ck128, gl128):
    Mv = invert_volterra(field128, 128)
    h = ck128.grid.h
    scale = max(np.max(np.abs(Mv.m11)), np.max(np.abs(Mv.m12)),
                np.max(np.abs(Mv.m21)), np.max(np.abs(Mv.m22)))
    for a, b in ((gl128.m11, Mv.m11), (gl128.m12, Mv.m12),
                 (gl128.m21, Mv.m21), (gl128.m22, Mv.m22)):
        assert np.max(np.abs(np.triu(a - b))) <= 20.0 * h * h * scale


def test_operator_identity(ck128, gl128):
    h = ck128.grid.h
    assert operator_identity_residual(ck128, gl128) <= 50.0 * h * h
    other = OperatorM(UniformGrid(0.5, 8), np.zeros((18, 18)))
    with pytest.raises(GridMismatchError):
        operator_identity_residual(ck128, other)


def _reflected_twice(ck):
    """The blocks of C~(t, s) = 2 C(T - t, T - s), from the forward-time
    blocks."""
    return [2.0 * b[::-1, ::-1] for b in (ck.c11, ck.c12, ck.c21, ck.c22)]


def _dense_identity_residual(ck, M):
    """operator_identity_residual as first written: every operator formed
    as a dense block matrix."""
    n, h = ck.grid.n, ck.grid.h
    ct = _reflected_twice(ck)
    w = trapezoid_weights(n, h)
    wvec = np.concatenate([w, w])
    Ct = np.block([ct[:2], ct[2:]]) * wvec
    IM = np.eye(2 * (n + 1)) + m_action_matrix(M)
    IM_star = (IM.T * wvec) / wvec[:, None]
    R = IM_star @ (np.eye(2 * (n + 1)) + Ct) @ IM - np.eye(2 * (n + 1))
    return float(np.max(np.abs(R)))


@pytest.mark.parametrize("resp", ["resp128", "resp_off", "resp_skew"])
def test_operator_identity_residual_matches_dense_formula(request, resp):
    ck = build_connecting(request.getfixturevalue(resp))
    if resp == "resp_skew":
        # no potential's response: the shared state refuses it, so a run
        # never reaches solve_gl, but solve_gl's LU solves it all the same
        with pytest.raises(ReconstructionError, match="asymmetry"):
            assemble_matrix(ck)
    M = solve_gl(ck)
    res = operator_identity_residual(ck, M)
    assert abs(res - _dense_identity_residual(ck, M)) <= 1e-12


def test_gl_kernel_doubles_reflection(ck128, gl128):
    # at s = 0 the column system is the identity: m(0, 0) = -C~(0, 0)
    # = -2 C(T, T)
    for mb, cb in zip((gl128.m11, gl128.m12, gl128.m21, gl128.m22),
                      (ck128.c11, ck128.c12, ck128.c21, ck128.c22)):
        assert mb[0, 0] == -2.0 * cb[-1, -1]


def test_operator_m_holds_one_array(resp_off):
    # solve_gl returns m as one node-major array; the blocks are views
    M = solve_gl(build_connecting(resp_off))
    n = M.grid.n
    arrays = [v for v in vars(M).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is M.nodes
    assert M.nodes.shape == (2 * n + 2, 2 * n + 2)
    assert M.nodes.dtype == np.float64
    blocks = {(0, 0): M.m11, (0, 1): M.m12, (1, 0): M.m21, (1, 1): M.m22}
    for (a, b), blk in blocks.items():
        assert np.shares_memory(blk, M.nodes)
        for i, j in ((3, 17), (40, 90), (64, 64), (100, 127), (n, n)):
            assert blk[i, j] == M.nodes[2 * i + a, 2 * j + b] != 0.0


def test_strict_triangularity(gl128):
    for blk in (gl128.m11, gl128.m12, gl128.m21, gl128.m22):
        assert np.max(np.abs(np.tril(blk, -1))) == 0.0


def test_q_recovery_even(gauss, gl128):
    x, q = recover_q_from_m(gl128)
    band = np.abs(x) <= 0.8
    qex = gauss(x)
    assert np.max(np.abs(q[band] - qex[band])) < 0.05 * np.max(qex)


def test_sign_calibration_off_center(offcenter, resp_off):
    M = solve_gl(build_connecting(resp_off))
    x, q = recover_q_from_m(M, "derived")
    _, qp = recover_q_from_m(M, "paper")
    band = np.abs(x) <= 0.8
    qex = offcenter(x)
    good = np.max(np.abs(q[band] - qex[band])) / np.max(qex)
    bad = np.max(np.abs(qp[band] - qex[band])) / np.max(qex)
    assert good < 0.05
    assert bad > 0.2  # the printed convention mirrors the bump


def test_sign_argument_validated(gl128):
    with pytest.raises(ValueError):
        recover_q_from_m(gl128, "other")


def test_short_diagonal_rejected():
    g = UniformGrid(1.0, 8)
    M = OperatorM(g, np.zeros((6, 6)))
    with pytest.raises(ReconstructionError):
        recover_q_from_m(M)


def test_kernel_csv_and_q_csv(tmp_path, gl128):
    kpath = tmp_path / "m.csv"
    gl128.dump_csv(kpath)
    with open(kpath) as fh:
        rows = list(csv.reader(fh))
    n = gl128.grid.n
    assert rows[0] == ["x", "s", "m11", "m12", "m21", "m22"]
    assert len(rows) == 1 + (n + 1) * (n + 2) // 2
    x, q = recover_q_from_m(gl128)
    qpath = tmp_path / "q.csv"
    write_q_csv(qpath, x, q)
    with open(qpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "GL" and len(rows) == len(x) + 1


def _bump20(T, n):
    """The response of a Gaussian of amplitude 20, centre 0.1 and width
    0.3 on [0, 2T], n steps per T: far from the symmetric case, so the
    LU has much skew to carry."""
    p = GaussianPotential(amplitude=20.0, center=0.1, width=0.3)
    return response_matrix(solve_kernels(p, UniformGrid(2.0 * T, 2 * n)))


@pytest.mark.parametrize("resp", [
    "resp_off", "resp_off32", "resp_off_noisy", "resp_off_noisier",
    pytest.param((1.0, 8), id="bump20_n8"),
    pytest.param((1.0, 16), id="bump20_n16"),
    pytest.param((3.0, 32), id="bump20_T3_n32")])
def test_solve_gl_matches_per_column_solves(request, resp):
    # the noisy responses and the amplitude-20 bumps (T, n) give the most
    # skewed column systems
    ck = build_connecting(_bump20(*resp) if isinstance(resp, tuple)
                          else request.getfixturevalue(resp))
    M, ref = solve_gl(ck), solve_gl_columns(ck)
    for blk, r in zip((M.m11, M.m12, M.m21, M.m22),
                      (ref.m11, ref.m12, ref.m21, ref.m22)):
        assert np.max(np.abs(blk - r)) <= 1e-12 * np.max(np.abs(r))
    assert M.regularized == ()


def test_gl_stage_fails_past_the_factor(tmp_path, monkeypatch, resp_broken):
    # the shared state refuses the response before the gl stage solves
    path = tmp_path / "response.csv"
    resp_broken.write_csv(path)
    monkeypatch.setattr(pipeline, "solve_gl", None)
    report = pipeline.run_pipeline(parse_config(json.dumps(
        {"response_csv": str(path), "T": 1.0, "n": 96, "stages": ["gl"],
         "out": str(tmp_path / "out")})))
    gl_stage = report["stages"][1]
    assert gl_stage["name"] == "gl" and gl_stage["status"] == "failed"
    # the factor misses column p first
    h = resp_broken.grid.h
    p = max(int(np.ceil(-0.5 / (resp_broken.r22[0] * h) - 0.5)), 1)
    assert gl_stage["error"] == (
        "the nested factor stops short of horizon %d of 96: the connecting "
        "matrix is not positive definite, so the response belongs to no "
        "potential" % p)


@pytest.mark.parametrize("potential, n, bound", [
    ({"kind": "constant", "value": -25.0}, 64, 1e-2),
    ({"kind": "gaussian", "amplitude": -100.0, "width": 0.3}, 256, 2e-3),
], ids=["constant-25_n64", "gauss-100_n256"])
def test_gl_inverts_deep_wells(tmp_path, potential, n, bound):
    # GL's identity residual is absolute and grows with |m| in a well
    # (0.60 and 39 here), so it is reported and bounds nothing: every
    # stage is ok, and GL's q error 6.2e-3 and 7.3e-4
    report = pipeline.run_pipeline(parse_config(json.dumps(
        {"potential": potential, "T": 1.0, "n": n,
         "stages": ["kernels", "response", "connect", "krein", "gl"],
         "out": str(tmp_path)})))
    assert report["ok"]
    assert all(s["status"] == "ok" for s in report["stages"])
    metrics = report["stages"][-1]["metrics"]
    assert metrics["operator_identity_residual"] > 0.5
    assert metrics["q_rel_error"] <= bound


def _skewed(rng, size, skew):
    """A seeded matrix whose symmetric part is positive semidefinite, plus
    a skew part of scale ``skew``."""
    g = rng.standard_normal((size, size))
    k = rng.standard_normal((size, size))
    return g @ g.T / size + skew * (k - k.T)


@pytest.mark.parametrize("size", [5, 68, 131])
def test_lu_without_interchanges(size):
    rng = np.random.default_rng(size)
    a = _skewed(rng, size, 3.0) + 0.1 * np.eye(size)
    assert np.linalg.eigvalsh(a + a.T)[0] > 0.0
    # partial pivoting would interchange rows of this matrix
    _, piv, _ = _lapack.lapack().dgetrf(a)
    assert np.any(piv != np.arange(size))
    lu = np.asfortranarray(a)
    gl._lu(lu)
    low = np.tril(lu, -1) + np.eye(size)
    assert np.max(np.abs(low @ np.triu(lu) - a)) <= 1e-13 * np.max(np.abs(a))


@pytest.mark.parametrize("n", [33, 42])
def test_closed_form_solves_every_column_system(n):
    # C~/2 with a positive semidefinite symmetric part and a skew part
    # far above h/2 in B = W/2 + W (C~/2) W
    rng = np.random.default_rng(n)
    cr = _skewed(rng, 2 * n + 2, 100.0)
    ck = ConnectingKernel(UniformGrid(1.0, n), cr)
    _, piv, _ = _lapack.lapack().dgetrf(weighted_matrix(ck)[0])
    assert np.any(piv != np.arange(2 * n + 2))
    m = solve_gl(ck).nodes
    for j in range(1, n + 1):
        own = slice(2 * j, 2 * j + 2)
        ref = _solve_column(cr, j, ck.grid.h)
        assert (np.max(np.abs(m[:2 * j + 2, own] - ref))
                <= 1e-12 * np.max(np.abs(ref)))
        assert not m[2 * j + 2:, own].any()


def test_own_blocks_keep_q_at_roundoff(resp_off):
    # node j's own block of m feeds q's diagonal: as -(2/h) I + S^{-1}/2
    # it cancels two O(1/h) terms, and q moves by 1e-11 of max|q| here
    ck = build_connecting(resp_off)
    _, q_ref = recover_q_from_m(solve_gl_columns(ck))
    _, q = recover_q_from_m(solve_gl(ck))
    assert np.max(np.abs(q - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))


def test_solve_gl_refuses_a_broken_response(resp_broken):
    # called alone, without the shared state's check: the LU factor of
    # B has a pivot <= 0 first at node ceil(p - 1/2), where the second
    # component's leading block of B stops being positive definite
    h = resp_broken.grid.h
    node = int(np.ceil(-0.5 / (resp_broken.r22[0] * h) - 0.5))
    with pytest.raises(ReconstructionError, match=(
            r"pivot <= 0 at node %d of 96, so the response belongs to no "
            r"potential" % node)):
        solve_gl(build_connecting(resp_broken))


def _nan_kernel(n=16):
    nodes = np.zeros((2 * n + 2, 2 * n + 2))
    nodes[6, 10] = np.nan
    return ConnectingKernel(UniformGrid(1.0, n), nodes)


def test_non_finite_kernel_rejected():
    with pytest.raises(ReconstructionError, match="non-finite"):
        solve_gl(_nan_kernel())
    g = UniformGrid(1.0, 16)
    bad = np.zeros((34, 34))
    bad[8, 8] = np.inf   # m11(x_4, x_4)
    with pytest.raises(ReconstructionError, match="non-finite"):
        recover_q_from_m(OperatorM(g, bad))


def test_non_finite_kernel_fails_gl_stage(tmp_path, monkeypatch):
    # the NaN goes straight into the gl stage: ingest and the config
    # check reject it before it could get there from input
    monkeypatch.setattr(pipeline, "build_connecting",
                        lambda r: _nan_kernel(16))
    out = tmp_path / "out"
    cfg = {"potential": {"kind": "gaussian", "amplitude": 1.0}, "T": 1.0,
           "n": 16, "stages": ["kernels", "response", "gl"],
           "out": str(out)}
    report = pipeline.run_pipeline(parse_config(json.dumps(cfg)))
    saved = json.loads((out / "report.json").read_text())
    assert saved == report and saved["ok"] is False
    gl = saved["stages"][2]
    assert gl["name"] == "gl" and gl["status"] == "failed"
    assert gl["error"] == "non-finite GL kernel m"
