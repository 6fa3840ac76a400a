import csv
import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import make_smoothing_spline

from bcwave.connecting import NestedFactor, connecting_nodes
from bcwave.config import parse_config
from bcwave.errors import BCWaveError, ReconstructionError
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, trapezoid_weights
from bcwave.krein import (
    _smoothing_spline,
    recover_q_from_y,
    second_derivative,
    sweep_reconstruct,
)
from bcwave.pipeline import run_pipeline
from bcwave.potentials import ConstantPotential, ZeroPotential
from bcwave.response import response_matrix

from oracles import endpoint_values, solve_krein


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
    assert sol.residual < 1e-12
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


def _spline_corpus(n, rng):
    """(x, y, h) cases of n samples: uniform and sorted random x, five
    samples removed inside or two and three at the ends, and 1e-6
    noise."""
    grid = np.linspace(-1.0, 1.0, n + 5)
    h = grid[1] - grid[0]
    inner = np.ones(n + 5, dtype=bool)
    inner[rng.choice(np.arange(1, n + 4), 5, replace=False)] = False
    ends = np.ones(n + 5, dtype=bool)
    ends[:2] = ends[-3:] = False
    uniform = grid[2:-3]
    rand = np.sort(rng.uniform(-1.0, 1.0, n))
    for x in (uniform, rand, grid[inner], grid[ends]):
        yield x, np.sinh(x) + np.sin(3.0 * x), h
    yield uniform, np.sinh(uniform) + 1e-6 * rng.standard_normal(n), h


@pytest.mark.parametrize("n", [5, 6, 9, 16, 33, 64, 128, 257, 449])
def test_smoothing_spline_matches_scipy_bit_for_bit(n):
    # the port follows scipy 1.17.1's make_smoothing_spline operation for
    # operation, evaluated at the data sites as recover_q_from_y uses it;
    # a difference in any bit is a difference in the port
    for x, y, h in _spline_corpus(n, np.random.default_rng(n)):
        assert len(x) == n
        ref = make_smoothing_spline(x, y, lam=h ** 4)(x)
        assert np.array_equal(_smoothing_spline(x, y, h ** 4), ref)


def test_fewer_than_five_samples_rejected():
    x = 0.1 * np.arange(-5, 6)
    y = np.sinh(x)
    recover_q_from_y(x[:5], y[:5])
    with pytest.raises(ReconstructionError, match="fewer than 5"):
        recover_q_from_y(x[:4], y[:4])
    # a non-finite sample fails the fit, which does not go round it
    y[7] = np.nan
    with pytest.raises(ReconstructionError, match="non-finite"):
        recover_q_from_y(x, y)


def test_non_finite_horizon_fails_krein(tmp_path, monkeypatch):
    # a NaN in one horizon's solve fails the stage, not fitted around
    solve = NestedFactor.solve

    def poisoned(self, b):
        f = solve(self, b)
        f[:, 5] = np.nan        # horizon 6
        return f

    monkeypatch.setattr(NestedFactor, "solve", poisoned)
    report = run_pipeline(parse_config(json.dumps(
        {"potential": {"kind": "gaussian"}, "T": 1.0, "n": 32,
         "stages": ["kernels", "response", "krein"],
         "out": str(tmp_path)})))
    krein = report["stages"][-1]
    assert krein["status"] == "failed" and not report["ok"]
    assert krein["error"] == "non-finite Cauchy solution y"
    assert krein["files"] == [] and "metrics" not in krein


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
    shared one factor: (y, valid)."""
    n = r.grid.n // 2
    y = np.zeros(2 * n + 1)
    for k in range(1, n + 1):
        sol = solve_krein(connecting_nodes(r, k), r.grid.h)
        y[n + k], y[n - k] = endpoint_values(sol)
    x = r.grid.h * np.arange(-n, n + 1)
    _, valid = recover_q_from_y(x, y)
    return y, valid


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_sweep_matches_per_horizon_solves(resp_off):
    prof = sweep_reconstruct(resp_off)
    y, valid = _oracle_sweep(resp_off)
    assert _rel(prof.y, y) < 1e-12
    assert not prof.regularized.any()
    assert np.array_equal(prof.valid, valid)
    assert np.max(prof.residuals) <= 1e-12


def _break_nodes(r):
    """(p, j): B, whose last node has full weight, is positive definite
    on the nodes 0..p-1, and the matrix of horizon k is for k < j."""
    tau_break = -0.5 / (r.r22[0] * r.grid.h)
    return int(np.ceil(tau_break - 0.5)), int(np.ceil(tau_break))


def test_sweep_fails_past_the_factor(resp_broken):
    r = resp_broken
    n = r.grid.n // 2
    p, j = _break_nodes(r)
    # the factor misses horizon p first; the dense solve of a horizon's
    # own matrix fails from horizon j on
    if j > 1:
        solve_krein(connecting_nodes(r, j - 1), r.grid.h)
    with pytest.raises(np.linalg.LinAlgError):
        solve_krein(connecting_nodes(r, j), r.grid.h)
    with pytest.raises(ReconstructionError) as err:
        sweep_reconstruct(r)
    assert str(err.value) == (
        "the nested factor stops short of horizon %d of %d: the connecting "
        "matrix is not positive definite, so the response belongs to no "
        "potential" % (max(p, 1), n))


def test_failed_horizons_counted(tmp_path, resp_skew):
    # the dense per-horizon solves fail from some horizon on, up to n
    r = resp_skew
    n = r.grid.n // 2
    failed = []
    for k in range(1, n + 1):
        try:
            solve_krein(connecting_nodes(r, k), r.grid.h)
        except BCWaveError:
            failed.append(k)
    assert failed and failed == list(range(failed[0], n + 1))
    # the sweep is refused once, on the asymmetry of the whole matrix,
    # which is the last and largest horizon's
    h = r.grid.h
    w = np.repeat(trapezoid_weights(n, h), 2)
    a = w[:, None] * connecting_nodes(r, n) * w
    named = "the connecting matrix has asymmetry %.3g above 100 h^2" \
        % np.max(np.abs(a - a.T))
    with pytest.raises(ReconstructionError) as err:
        sweep_reconstruct(r)
    assert str(err.value).startswith(named)

    path = tmp_path / "skew.csv"
    r.write_csv(path)
    report = run_pipeline(parse_config(json.dumps(
        {"response_csv": str(path), "T": 1.0, "n": n, "stages": ["krein"],
         "out": str(tmp_path / "out")})))
    krein = report["stages"][-1]
    assert krein["status"] == "failed" and not report["ok"]
    assert krein["error"] == str(err.value)
    assert krein["files"] == [] and "metrics" not in krein
