import csv
import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bcwave.connecting import (assemble_matrix, build_connecting,
                               connecting_nodes)
from bcwave.config import parse_config
from bcwave.errors import BCWaveError, ReconstructionError
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid
from bcwave.krein import (
    endpoint_values,
    recover_q_from_y,
    second_derivative,
    solve_krein,
    sweep_reconstruct,
)
from bcwave.pipeline import run_pipeline
from bcwave.potentials import ConstantPotential, ZeroPotential
from bcwave.response import response_matrix


def _cauchy_oracle(p, T):
    """y'' = q y, y(0) = 0, y'(0) = 1, solved on both half-lines."""
    def rhs(x, z):
        return [z[1], float(p(np.array([x]))[0]) * z[0]]

    sp = solve_ivp(rhs, [0, T], [0.0, 1.0], dense_output=True,
                   rtol=1e-10, atol=1e-12)
    sm = solve_ivp(rhs, [0, -T], [0.0, 1.0], dense_output=True,
                   rtol=1e-10, atol=1e-12)

    def y(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, sp.sol(np.clip(x, 0, T))[0],
                        sm.sol(np.clip(x, -T, 0))[0])

    return y


def test_free_space_control_and_profile():
    r = response_matrix(solve_kernels(ZeroPotential(), UniformGrid(2.0, 128)))
    sol = solve_krein(connecting_nodes(r, 64), r.grid.h)
    t = sol.h * np.arange(65)
    assert np.max(np.abs(sol.f1 - 2.0 * (sol.tau - t))) < 1e-8
    assert np.max(np.abs(sol.f2)) < 1e-8
    assert not sol.regularized
    yp, ym = endpoint_values(sol)
    assert yp == pytest.approx(sol.tau, abs=1e-10)
    assert ym == pytest.approx(-sol.tau, abs=1e-10)
    prof = sweep_reconstruct(r)
    assert np.max(np.abs(prof.y - prof.x)) < 1e-8
    assert np.nanmax(np.abs(prof.q[prof.valid])) < 1e-8


def test_constant_potential_sinh_profile():
    c = 1.0
    T, n = 0.9, 128
    r = response_matrix(solve_kernels(ConstantPotential(c), UniformGrid(2 * T, 2 * n)))
    prof = sweep_reconstruct(r)
    yex = np.sinh(prof.x)
    assert np.max(np.abs(prof.y - yex)) < 1e-4 * np.max(np.abs(yex))
    band = (np.abs(prof.x) >= 0.1) & (np.abs(prof.x) <= 0.8) & prof.valid
    assert np.max(np.abs(prof.q[band] - c)) < 0.02 * c


def test_gaussian_against_ode_oracle(offcenter, resp_off):
    prof = sweep_reconstruct(resp_off)
    y = _cauchy_oracle(offcenter, 1.0)
    assert np.max(np.abs(prof.y - y(prof.x))) < 1e-3 * np.max(np.abs(prof.y))
    band = (np.abs(prof.x) >= 0.1) & (np.abs(prof.x) <= 0.8) & prof.valid
    qex = offcenter(prof.x)
    assert np.max(np.abs(prof.q[band] - qex[band])) < 0.01 * np.max(qex)
    assert np.nanmax(prof.residuals) < 1e-8
    assert not prof.regularized.any()


def test_origin_masked(resp128):
    prof = sweep_reconstruct(resp128)
    n = (len(prof.x) - 1) // 2
    assert not prof.valid[n]          # y(0) = 0: q = y''/y undefined there
    assert np.isnan(prof.q[n])


def test_odd_step_count_rejected(resp128):
    from bcwave.response import ResponseMatrix

    g = UniformGrid(resp128.grid.horizon * 255 / 256, 255)
    odd = ResponseMatrix(g, resp128.r11[:256], resp128.r12[:256],
                         resp128.r21[:256], resp128.r22[:256])
    with pytest.raises(ReconstructionError):
        sweep_reconstruct(odd)


def test_non_finite_response_rejected(resp128):
    from bcwave.response import ResponseMatrix

    r22 = resp128.r22.copy()
    r22[5] = np.nan
    bad = ResponseMatrix(resp128.grid, resp128.r11, resp128.r12,
                         resp128.r21, r22)
    with pytest.raises(ReconstructionError, match="non-finite"):
        sweep_reconstruct(bad)


def test_second_derivative_cubic_exact():
    h = 0.1
    x = h * np.arange(20)
    y = x ** 3 - 2 * x * x + x
    d = second_derivative(y, h)
    exact = 6 * x - 4
    assert np.max(np.abs(d[2:-2] - exact[2:-2])) < 1e-10
    assert np.max(np.abs(d - exact)) < 1e-9


def test_profile_csv(tmp_path, resp128):
    prof = sweep_reconstruct(resp128)
    path = tmp_path / "prof.csv"
    prof.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "q", "valid", "tau_residual"]
    assert len(rows) == len(prof.x) + 1
    mid = rows[1 + (len(prof.x) - 1) // 2]
    assert float(mid[0]) == 0.0 and mid[3] == "0"


def _oracle_sweep(r):
    """One dense solve_krein per horizon, as the sweep did before it
    shared one factor: (y, regularized, residuals, valid)."""
    n = r.grid.n // 2
    y = np.zeros(2 * n + 1)
    regularized = np.zeros(n, dtype=bool)
    residuals = np.zeros(n)
    for k in range(1, n + 1):
        sol = solve_krein(connecting_nodes(r, k), r.grid.h)
        y[n + k], y[n - k] = endpoint_values(sol)
        regularized[k - 1] = sol.regularized
        residuals[k - 1] = sol.residual
    x = r.grid.h * np.arange(-n, n + 1)
    _, valid = recover_q_from_y(x, y, np.ones(2 * n + 1, dtype=bool))
    return y, regularized, residuals, valid


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_sweep_matches_per_horizon_solves(resp_off):
    prof = sweep_reconstruct(resp_off)
    y, regularized, _, valid = _oracle_sweep(resp_off)
    assert _rel(prof.y, y) < 1e-12
    assert np.array_equal(prof.regularized, regularized)
    assert np.array_equal(prof.valid, valid)
    assert np.max(prof.residuals) <= 1e-12


def _break_nodes(r):
    """(p, j): B, whose last node has full weight, is positive definite
    on the nodes 0..p-1, and the matrix of horizon k is for k < j."""
    tau_break = -0.5 / (r.r22[0] * r.grid.h)
    return int(np.ceil(tau_break - 0.5)), int(np.ceil(tau_break))


def test_sweep_falls_back_past_the_factor(resp_broken):
    r = resp_broken
    n = r.grid.n // 2
    p, j = _break_nodes(r)
    # horizons 1..p-1 use the factor, p and later are solved one by one
    fac = assemble_matrix(build_connecting(r)).factor
    assert fac.horizons == max(p - 1, 0)
    prof = sweep_reconstruct(r)
    y, regularized, residuals, valid = _oracle_sweep(r)
    assert np.isfinite(prof.residuals).all() and np.isfinite(prof.y).all()
    assert np.array_equal(prof.regularized, regularized)
    assert not regularized[:j - 1].any() and regularized[j - 1:].all()
    assert np.array_equal(prof.valid, valid)
    near = np.abs(np.arange(-n, n + 1)) < p
    if near.sum() > 1:
        assert _rel(prof.y[near], y[near]) < 1e-12
    assert np.array_equal(prof.y[~near], y[~near])
    solo = slice(max(p - 1, 0), None)
    assert np.array_equal(prof.residuals[solo], residuals[solo])


def test_failed_horizons_counted(tmp_path, resp_skew):
    r = resp_skew
    n = r.grid.n // 2
    failed = []
    for k in range(1, n + 1):
        try:
            solve_krein(connecting_nodes(r, k), r.grid.h)
        except BCWaveError:
            failed.append(k)
    assert failed and failed == list(range(failed[0], n + 1))
    # the factor stops where the asymmetry check would reject the horizon
    fac = assemble_matrix(build_connecting(r)).factor
    assert fac.horizons == failed[0] - 1
    prof = sweep_reconstruct(r)
    assert np.array_equal(np.flatnonzero(np.isnan(prof.residuals)) + 1, failed)
    assert np.isnan(prof.y[n + failed[0]:]).all()
    assert not prof.valid[n + failed[0]:].any()

    path = tmp_path / "skew.csv"
    r.write_csv(path)
    report = run_pipeline(parse_config(json.dumps(
        {"response_csv": str(path), "T": 1.0, "n": n, "stages": ["krein"],
         "out": str(tmp_path / "out")})))
    krein = report["stages"][-1]
    assert krein["status"] == "ok"
    assert krein["metrics"]["failed_horizons"] == len(failed)
