import csv
import json

import numpy as np
import pytest

from bcwave import pipeline
from bcwave.config import parse_config
from bcwave.connecting import ConnectingKernel, build_connecting
from bcwave.errors import ReconstructionError
from bcwave.gl import (
    OperatorM,
    gl_from_response,
    invert_volterra,
    m_action_matrix,
    operator_identity_residual,
    recover_q_from_m,
    solve_gl,
    write_q_csv,
)
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, trapezoid_weights
from bcwave.potentials import ConstantPotential, GaussianPotential, ZeroPotential
from bcwave.response import operator_k_kernel, operator_k_matrix, response_matrix


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
    M = gl_from_response(r)
    for blk in (M.m11, M.m12, M.m21, M.m22):
        assert np.max(np.abs(blk)) == 0.0
    x, q = recover_q_from_m(M)
    assert np.max(np.abs(q)) == 0.0


def test_perturbative_constant_m11():
    c = 0.01
    n = 64
    r = response_matrix(solve_kernels(ConstantPotential(c), UniformGrid(2.0, 2 * n)))
    M = gl_from_response(r)
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
    M = solve_gl(ck)
    res = operator_identity_residual(ck, M)
    assert abs(res - _dense_identity_residual(ck, M)) <= 1e-12


def test_gl_kernel_doubles_reflection(ck128, gl128):
    # at s = 0 the column system is the identity: m(0, 0) = -C~(0, 0)
    # = -2 C(T, T)
    for mb, cb in zip((gl128.m11, gl128.m12, gl128.m21, gl128.m22),
                      (ck128.c11, ck128.c12, ck128.c21, ck128.c22)):
        assert mb[0, 0] == -2.0 * cb[-1, -1]


def test_strict_triangularity(gl128):
    for blk in (gl128.m11, gl128.m12, gl128.m21, gl128.m22):
        assert np.max(np.abs(np.tril(blk, -1))) == 0.0


def test_q_recovery_even(gauss, gl128):
    x, q = recover_q_from_m(gl128)
    band = np.abs(x) <= 0.8
    qex = gauss(x)
    assert np.max(np.abs(q[band] - qex[band])) < 0.05 * np.max(qex)


def test_sign_calibration_off_center(offcenter, resp_off):
    M = gl_from_response(resp_off)
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
    tiny = np.zeros((3, 3))
    M = OperatorM(g, tiny, tiny, tiny, tiny)
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
    write_q_csv(qpath, x, q, "GL")
    with open(qpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "GL" and len(rows) == len(x) + 1


def _oracle_gl(ck):
    """One dense solve of (I + C~ W) m = -C~(., s_j) per column, as
    solve_gl did before it shared one factor: (m11, m12, m21, m22,
    regularized columns)."""
    c11, c12, c21, c22 = _reflected_twice(ck)
    n, h = ck.grid.n, ck.grid.h
    m = np.zeros((4, n + 1, n + 1))
    regularized = []
    for j in range(n + 1):
        k = j + 1
        w = trapezoid_weights(j, h) if j else np.zeros(1)
        A = np.eye(2 * k) + np.block(
            [[c11[:k, :k] * w, c12[:k, :k] * w],
             [c21[:k, :k] * w, c22[:k, :k] * w]])
        rhs = -np.stack([np.concatenate([c11[:k, j], c21[:k, j]]),
                         np.concatenate([c12[:k, j], c22[:k, j]])],
                        axis=1)
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            shift = 1e-10 * np.trace(A) / (2 * k)
            sol = np.linalg.solve(A + shift * np.eye(2 * k), rhs)
            regularized.append(j)
        m[0, :k, j], m[2, :k, j] = sol[:k, 0], sol[k:, 0]
        m[1, :k, j], m[3, :k, j] = sol[:k, 1], sol[k:, 1]
    return m, tuple(regularized)


@pytest.mark.parametrize("resp", ["resp_off", "resp_skew"])
def test_solve_gl_matches_per_column_solves(request, resp):
    # resp_skew: past the factor's reach the columns are solved one by one
    ck = build_connecting(request.getfixturevalue(resp))
    M = solve_gl(ck)
    ref, regularized = _oracle_gl(ck)
    for blk, r in zip((M.m11, M.m12, M.m21, M.m22), ref):
        assert np.max(np.abs(blk - r)) <= 1e-12 * np.max(np.abs(r))
    assert M.regularized == regularized


def test_solve_gl_falls_back_past_the_factor(resp_broken):
    ck = build_connecting(resp_broken)
    M = solve_gl(ck)
    ref, regularized = _oracle_gl(ck)
    assert M.regularized == regularized == ()
    # columns 1..p-1 go through the factor, p and later one by one
    p = max(int(np.ceil(-0.5 / (resp_broken.r22[0] * ck.grid.h) - 0.5)), 1)
    for blk, r in zip((M.m11, M.m12, M.m21, M.m22), ref):
        scale = np.max(np.abs(r))
        assert np.max(np.abs(blk[:, :p] - r[:, :p])) <= 1e-12 * scale
        assert np.array_equal(blk[:, p:], r[:, p:])
    assert np.all(np.diag(M.m22) != 0.0)


def _nan_kernel(n=16):
    nodes = np.zeros((2 * n + 2, 2 * n + 2))
    nodes[6, 10] = np.nan
    return ConnectingKernel(UniformGrid(1.0, n), nodes)


def test_non_finite_kernel_rejected():
    with pytest.raises(ReconstructionError, match="non-finite"):
        solve_gl(_nan_kernel())
    g = UniformGrid(1.0, 16)
    m = np.zeros((17, 17))
    bad = m.copy()
    bad[4, 4] = np.inf
    with pytest.raises(ReconstructionError, match="non-finite"):
        recover_q_from_m(OperatorM(g, bad, m, m, m))


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
