import json

import numpy as np
import pytest

from bcwave.config import parse_config
from bcwave.errors import DomainError, IngestionError
from bcwave.goursat import solve_kernels
from bcwave.grid import (Control, UniformGrid, differentiate,
                         smooth_random_control)
from bcwave.pipeline import run_pipeline
from bcwave.potentials import ConstantPotential, GaussianPotential, ZeroPotential
from bcwave.response import apply_response, read_response_csv, response_matrix

from oracles import (
    control_operator,
    control_operator_matrix,
    forward_solution,
    operator_k_matrix,
)


@pytest.fixture(scope="module")
def free_field():
    return solve_kernels(ZeroPotential(), UniformGrid(2.0, 128))


def test_free_space_response_vanishes(free_field):
    r = response_matrix(free_field)
    for arr in (r.r11, r.r12, r.r21, r.r22):
        assert np.max(np.abs(arr)) == 0.0
    assert r.compatibility_residual() == 0.0


def test_free_space_forward_is_dalembert(free_field):
    grid = UniformGrid(1.0, 64)
    f = smooth_random_control(grid, np.random.default_rng(0))
    u = forward_solution(f, free_field, 1.0)
    n = grid.n
    # u(x, T) = S F(T - |x|) componentwise in the a1/a2 encoding
    rev1 = f.f1[::-1]
    rev2 = f.f2[::-1]
    assert np.max(np.abs(u.a1 - 0.5 * (rev1 - rev2))) < 1e-13
    assert np.max(np.abs(u.a2 - 0.5 * (-rev1 - rev2))) < 1e-13
    assert u.grid.n == n


def test_forward_grid_validation(free_field):
    grid = UniformGrid(1.0, 64)
    f = smooth_random_control(grid, np.random.default_rng(0))
    with pytest.raises(DomainError):
        forward_solution(f, free_field, 1.005)  # off-node time
    with pytest.raises(DomainError):
        forward_solution(f, free_field, 1.5)    # beyond control horizon
    other = smooth_random_control(UniformGrid(1.0, 48), np.random.default_rng(0))
    with pytest.raises(DomainError):
        forward_solution(other, free_field, 0.5)


def test_perturbative_response_entries():
    c = 0.01
    field = solve_kernels(ConstantPotential(c), UniformGrid(2.0, 128))
    r = response_matrix(field)
    t = r.grid.t
    assert np.max(np.abs(r.r11 + 0.25 * c)) < 3 * c * c + 1e-6
    assert np.max(np.abs(r.r22 + 0.25 * c * t)) < 3 * c * c
    assert np.max(np.abs(r.r12)) < 3 * c * c
    assert np.max(np.abs(r.r21)) < 3 * c * c


def test_compatibility_relation(resp_off):
    # r21' = +r12 for a generic (non-even) potential, to O(h^2)
    h = resp_off.grid.h
    scale = max(np.max(np.abs(resp_off.r12)), np.max(np.abs(resp_off.r21)))
    assert resp_off.compatibility_residual() < 10.0 * h * h * scale
    # the printed opposite sign fails at O(1)
    from bcwave.grid import differentiate

    wrong = np.max(np.abs(differentiate(resp_off.r21, h) + resp_off.r12))
    assert wrong > 100.0 * h * h * scale


def test_operator_k_strictly_volterra(field128):
    K = operator_k_matrix(field128, 64)
    m = 65
    for bi in range(2):
        for bj in range(2):
            blk = K[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m]
            assert np.max(np.abs(np.tril(blk, -1))) == 0.0


def test_control_operator_matches_forward(field128):
    grid = UniformGrid(1.0, 128)
    f = smooth_random_control(grid, np.random.default_rng(4))
    state = control_operator(f, field128)  # internally checked vs direct
    direct = forward_solution(f, field128, 1.0)
    assert np.max(np.abs(state.a1 - direct.a1)) < 1e-4
    W = control_operator_matrix(field128, 128)
    v = W @ np.concatenate([f.f1, f.f2])
    assert np.max(np.abs(v[:129] - state.a1)) < 1e-12


def test_apply_response_free_space(free_field):
    r = response_matrix(free_field)
    grid = UniformGrid(1.0, 64)
    f = smooth_random_control(grid, np.random.default_rng(5))
    out = apply_response(r, f)
    assert np.max(np.abs(out.f1 + 0.5 * f.df1)) < 1e-13
    assert np.max(np.abs(out.f2 - 0.5 * f.f2)) < 1e-13
    # a sampled control without analytic derivative: f1' by the grid rule
    raw = Control(grid, f.f1, f.f2)
    assert raw.df1 is None
    assert np.array_equal(apply_response(r, raw).f1,
                          -0.5 * differentiate(f.f1, grid.h))


def test_apply_response_guards(free_field):
    r = response_matrix(free_field)
    coarse = smooth_random_control(UniformGrid(1.0, 50),
                                   np.random.default_rng(0))
    with pytest.raises(DomainError, match="different steps"):
        apply_response(r, coarse)
    n = r.grid.n + 8
    longer = smooth_random_control(UniformGrid(n * r.grid.h, n),
                                   np.random.default_rng(0))
    with pytest.raises(DomainError, match="exceeds the response horizon"):
        apply_response(r, longer)


def test_response_csv_round_trip(tmp_path, resp128):
    path = tmp_path / "r.csv"
    resp128.write_csv(path)
    back = read_response_csv(path, min_horizon=2.0)
    assert back.grid == resp128.grid
    for a, b in ((back.r11, resp128.r11), (back.r22, resp128.r22)):
        assert np.array_equal(a, b)


def test_response_csv_validation(tmp_path, resp128):
    p = tmp_path / "bad.csv"
    p.write_text("time,r11,r12,r21,r22\n0,0,0,0,0\n")
    with pytest.raises(IngestionError):
        read_response_csv(p)
    p.write_text("t,r11,r12,r21,r22\n" +
                 "".join("%g,0,0,0\n" % (0.1 * k) for k in range(12)))
    with pytest.raises(IngestionError, match="row 2"):
        read_response_csv(p)
    p.write_text("t,r11,r12,r21,r22\n" +
                 "".join("%g,0,0,0,0\n" % (0.1 * k * k) for k in range(12)))
    with pytest.raises(IngestionError, match="uniform"):
        read_response_csv(p)
    good = tmp_path / "good.csv"
    resp128.write_csv(good)
    with pytest.raises(IngestionError, match="horizon"):
        read_response_csv(good, min_horizon=3.0)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "abc"])
def test_response_csv_rejects_non_finite(tmp_path, bad):
    p = tmp_path / "bad.csv"
    rows = ["%g,0,0,0,0" % (0.1 * k) for k in range(12)]
    rows[4] = "0.4,0,%s,0,0" % bad
    p.write_text("t,r11,r12,r21,r22\n" + "\n".join(rows) + "\n")
    why = "could not convert" if bad == "abc" else "non-finite"
    with pytest.raises(IngestionError, match="row 6: " + why):
        read_response_csv(p)


def test_response_csv_skips_blank_lines(tmp_path, resp128):
    good = tmp_path / "good.csv"
    resp128.write_csv(good)
    lines = good.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(lines[:3] + [""] + lines[3:] + ["", ""]))
    back = read_response_csv(spaced)
    assert back.grid == resp128.grid
    assert np.array_equal(back.r12, resp128.r12)


def test_pipeline_reports_non_finite_response(tmp_path, resp128):
    good = tmp_path / "good.csv"
    resp128.write_csv(good)
    lines = good.read_text().splitlines()
    cells = lines[40].split(",")
    cells[2] = "nan"
    lines[40] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    report = run_pipeline(parse_config(json.dumps(
        {"response_csv": str(bad), "T": 1.0, "n": 128, "out": str(out)})))
    assert not report["ok"]
    ingest = report["stages"][0]
    assert ingest["name"] == "ingest" and ingest["status"] == "failed"
    assert "row 41" in ingest["error"]
    assert all(s["status"] == "skipped" for s in report["stages"][1:])
    assert json.loads((out / "report.json").read_text()) == report


@pytest.mark.parametrize("steps", [12, 17])
def test_ingest_refuses_a_grid_the_inverse_stages_cannot_use(tmp_path, steps):
    # the inverse stages run on half the file's grid: 12 steps would give
    # them 6, under the 8 a grid needs, and 17 cannot be halved
    field = solve_kernels(GaussianPotential(1.0, 0.3), UniformGrid(2.0, steps))
    path = tmp_path / "response.csv"
    response_matrix(field).write_csv(path)
    with pytest.raises(IngestionError, match="has %d time steps" % steps):
        read_response_csv(path)
    report = run_pipeline(parse_config(json.dumps(
        {"response_csv": str(path), "T": 1.0, "n": 16,
         "out": str(tmp_path / "out")})))
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status == {"ingest": "failed", "connect": "skipped",
                      "krein": "skipped", "gl": "skipped"}
    assert report["stages"][0]["error"] == (
        "response CSV %s has %d time steps; the inverse stages need an even "
        "number of at least 16" % (path, steps))


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_ingest_refuses_a_header_without_rows(tmp_path, body):
    # a header alone has no time step to count: ingest names the missing
    # rows instead of "-1 time steps"
    path = tmp_path / "response.csv"
    path.write_text("t,r11,r12,r21,r22\n" + body)
    with pytest.raises(IngestionError, match="has no data rows"):
        read_response_csv(path)
    report = run_pipeline(parse_config(json.dumps(
        {"response_csv": str(path), "T": 1.0, "n": 16,
         "out": str(tmp_path / "out")})))
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status == {"ingest": "failed", "connect": "skipped",
                      "krein": "skipped", "gl": "skipped"}
    assert report["stages"][0]["error"] == (
        "response CSV %s has no data rows" % path)
