"""End-to-end acceptance run: ten numbered criteria, one summary line each.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion after the ordinary pytest output.
"""

import json
import time

import numpy as np
import pytest

from bcwave.config import parse_config
from bcwave.connecting import (assemble_matrix, build_connecting,
                               connecting_form, connecting_nodes)
from bcwave.gl import operator_identity_residual, recover_q_from_m, solve_gl
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, cumulative_trapezoid, smooth_random_control
from bcwave.krein import sweep_reconstruct
from bcwave.pipeline import run_pipeline
from bcwave.potentials import (
    ConstantPotential,
    GaussianPotential,
    Sech2Potential,
    ZeroPotential,
)
from bcwave.response import apply_response, response_matrix
from bcwave.spectral import (
    eigensolve,
    free_reference,
    smoothed_response_traces,
    spectral_connecting_form,
)

from conftest import record_criterion
from oracles import (
    _assemble,
    cone_value,
    control_norm,
    forward_solution,
    inner_inner,
    invert_volterra,
    m_action_matrix,
    operator_k_kernel,
    operator_k_matrix,
    picard_oracle,
    solve_krein,
)


def test_criterion_1_free_space_exact():
    start = time.perf_counter()
    grid = UniformGrid(2.0, 128)
    field = solve_kernels(ZeroPotential(), grid)
    r = response_matrix(field)
    ck = build_connecting(r)
    kmax = max(np.max(np.abs(field.W1)), np.max(np.abs(field.W2)))
    rmax = max(np.max(np.abs(a)) for a in (r.r11, r.r12, r.r21, r.r22))
    cmax = max(np.max(np.abs(a)) for a in (ck.c11, ck.c12, ck.c21, ck.c22))
    sol = solve_krein(connecting_nodes(r, 64), r.grid.h)
    t = sol.h * np.arange(65)
    ferr = max(np.max(np.abs(sol.f1 - 2.0 * (sol.tau - t))),
               np.max(np.abs(sol.f2)))
    prof = sweep_reconstruct(r)
    yerr = np.max(np.abs(prof.y - prof.x))
    M = solve_gl(ck)
    x, q = recover_q_from_m(M)
    mmax = max(np.max(np.abs(b)) for b in (M.m11, M.m12, M.m21, M.m22))
    qmax = np.max(np.abs(q))
    elapsed = time.perf_counter() - start
    ok = (max(kmax, rmax, cmax) <= 1e-12 and max(ferr, yerr) <= 1e-8
          and mmax <= 1e-12 and qmax <= 1e-12 and elapsed < 5.0)
    record_criterion(1, "free-space exactness", ok,
                     "fields %.1e, krein %.1e, gl %.1e, %.2fs"
                     % (max(kmax, rmax, cmax), max(ferr, yerr),
                        max(mmax, qmax), elapsed))
    assert ok


def test_criterion_2_goursat_order(gauss):
    start = time.perf_counter()
    ref = solve_kernels(gauss, UniformGrid(2.0, 512))
    # interior probes only: on the characteristics |x| = t the data is
    # prescribed exactly at every resolution
    probes = [(32, 8), (32, -16), (40, 0), (48, 24), (48, -36),
              (56, 12), (56, -28), (64, 0), (64, 32), (64, -48)]
    errs = {}
    for n in (64, 128, 256):
        f = solve_kernels(gauss, UniformGrid(2.0, n))
        step = 512 // n
        sc = n // 64
        errs[n] = np.array(
            [max(abs(cone_value(f, w, k * sc, i * sc)
                     - cone_value(ref, w, k * sc * step, i * sc * step))
                 for w in ("w1", "w2"))
             for k, i in probes])
    # Richardson slope over the 4x step refinement at each probe point
    orders = np.log(errs[64] / errs[256]) / np.log(4.0)
    elapsed = time.perf_counter() - start
    ok = bool(np.all((orders >= 1.7) & (orders <= 2.3)) and elapsed < 30.0)
    record_criterion(2, "goursat second order", ok,
                     "order in [%.2f, %.2f], %.1fs"
                     % (orders.min(), orders.max(), elapsed))
    assert ok


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    consts = []
    for p in (GaussianPotential(1.0, 0.3, 0.1), Sech2Potential(0.8, 0.5)):
        per_n = []
        for n in (64, 128):
            grid = UniformGrid(2.0, n)
            field = solve_kernels(p, grid)
            oracle = picard_oracle(p, grid, 40)
            err = max(np.max(np.abs(field.W1 - oracle.W1)),
                      np.max(np.abs(field.W2 - oracle.W2)))
            per_n.append(err / grid.h ** 2)
        consts.append(per_n)
    flat = [c for pair in consts for c in pair]
    stable = all(max(pair) / max(min(pair), 1e-30) < 4.0 for pair in consts)
    elapsed = time.perf_counter() - start
    ok = max(flat) < 20.0 and stable and elapsed < 60.0
    record_criterion(3, "picard oracle equivalence", ok,
                     "C in [%.2f, %.2f] across n, %.1fs"
                     % (min(flat), max(flat), elapsed))
    assert ok


def test_criterion_4_gram_identity(field128, ck128):
    grid = ck128.grid
    h = grid.h
    worst = 0.0
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        F = smooth_random_control(grid, rng)
        G = smooth_random_control(grid, rng)
        lhs = connecting_form(ck128, F, G)
        rhs = inner_inner(forward_solution(F, field128, grid.horizon),
                          forward_solution(G, field128, grid.horizon))
        bound = 5.0 * h * h * control_norm(F) * control_norm(G)
        worst = max(worst, abs(lhs - rhs) / bound)
        ok = ok and abs(lhs - rhs) <= bound
    record_criterion(4, "gram identity (10 pairs)", ok,
                     "worst |lhs-rhs|/bound = %.3f" % worst)
    assert ok


def test_criterion_5_structural(resp256, ck256):
    h = resp256.grid.h
    scale = float(np.max(np.abs(ck256.nodes)))
    sym = ck256.symmetry_residual()
    rscale = max(np.max(np.abs(resp256.r12)), np.max(np.abs(resp256.r21)),
                 1e-30)
    compat = resp256.compatibility_residual()
    asm = assemble_matrix(ck256)
    A = _assemble(ck256.nodes, ck256.grid.h)[0]
    post = np.max(np.abs(A - A.T))
    lam = np.linalg.eigvalsh(A)
    anorm = np.abs(lam).max()
    ok = (sym <= 10.0 * h * h * max(scale, 1e-30)
          and compat <= 10.0 * h * h * rscale
          and post <= 1e-10 and asm.asymmetry <= 100.0 * h * h
          and lam[0] >= -1e-8 * anorm)
    record_criterion(5, "structural restrictions", ok,
                     "sym %.1e, compat %.1e, asym %.1e, lam_min %.1e"
                     % (sym, compat, asm.asymmetry, lam[0]))
    assert ok


@pytest.fixture(scope="module")
def krein_gauss(resp256):
    return sweep_reconstruct(resp256)


def test_criterion_6_krein_round_trip(gauss, krein_gauss):
    start = time.perf_counter()
    prof = krein_gauss
    band = (np.abs(prof.x) >= 0.1) & (np.abs(prof.x) <= 0.8) & prof.valid
    err_g = np.max(np.abs(prof.q[band] - gauss(prof.x[band]))) / np.max(
        gauss(prof.x))
    rc = response_matrix(solve_kernels(ConstantPotential(1.0),
                                       UniformGrid(2.0, 512)))
    pc = sweep_reconstruct(rc)
    bandc = (np.abs(pc.x) >= 0.1) & (np.abs(pc.x) <= 0.8) & pc.valid
    err_c = np.max(np.abs(pc.q[bandc] - 1.0))
    elapsed = time.perf_counter() - start
    ok = err_g <= 0.05 and err_c <= 0.02 and elapsed < 180.0
    record_criterion(6, "krein round trip", ok,
                     "gaussian %.2f%%, constant %.2f%%, %.1fs"
                     % (100 * err_g, 100 * err_c, elapsed))
    assert ok


@pytest.fixture(scope="module")
def gl_gauss(ck256):
    return solve_gl(ck256)


def test_criterion_7_gl_round_trip(gauss, offcenter, resp_off, krein_gauss,
                                   gl_gauss):
    x, q = recover_q_from_m(gl_gauss)
    band = np.abs(x) <= 0.8
    qref = np.max(gauss(x))
    err_gl = np.max(np.abs(q[band] - gauss(x[band]))) / qref
    prof = krein_gauss
    both = prof.valid & band
    agree = np.max(np.abs(q[both] - prof.q[both])) / qref
    Moff = solve_gl(build_connecting(resp_off))
    xo, qo = recover_q_from_m(Moff, "derived")
    bo = np.abs(xo) <= 0.8
    err_off = np.max(np.abs(qo[bo] - offcenter(xo[bo]))) / np.max(
        offcenter(xo))
    ok = err_gl <= 0.05 and agree <= 0.07 and err_off <= 0.05
    record_criterion(7, "gl round trip + agreement", ok,
                     "gl %.2f%%, vs krein %.2f%%, off-center %.2f%%"
                     % (100 * err_gl, 100 * agree, 100 * err_off))
    assert ok


def test_criterion_8_operator_identities(field128, ck128):
    n = field128.grid.n // 2
    h = field128.grid.h
    Mv = invert_volterra(field128, n)
    K = operator_k_matrix(field128, n)
    eye = np.eye(2 * (n + 1))
    inv_res = np.max(np.abs((eye + K) @ (eye + m_action_matrix(Mv)) - eye))
    kk = operator_k_kernel(field128, n)
    diags = Mv.diagonals()
    diag_res = max(np.max(np.abs(d + np.diag(b)))
                   for d, b in zip(diags, (kk[0, 0], kk[0, 1],
                                           kk[1, 0], kk[1, 1])))
    M = solve_gl(ck128)
    oper_res = operator_identity_residual(ck128, M)
    ok = (inv_res <= 1e-10 and diag_res <= 10.0 * h * h
          and oper_res <= 50.0 * h * h)
    record_criterion(8, "operator identities", ok,
                     "inverse %.1e, diagonal %.1e, weighted %.1e"
                     % (inv_res, diag_res, oper_res))
    assert ok


def test_criterion_9_spectral_bridge(gauss, resp256, ck256):
    start = time.perf_counter()
    measure = eigensolve(gauss, 4.0, (1, 0, 1, 0), 400, 2048)
    reference = free_reference(measure)
    grid2 = resp256.grid

    f = smooth_random_control(grid2, np.random.default_rng(0))
    dyn = apply_response(resp256, f)
    dyn_int = np.stack([cumulative_trapezoid(dyn.f1, grid2.h),
                        cumulative_trapezoid(dyn.f2, grid2.h)])
    base = smoothed_response_traces(measure, [f], reference)[0].value
    resp_err = np.linalg.norm(base - dyn_int) / np.linalg.norm(dyn_int)

    gridT = UniformGrid(1.0, 256)
    form_err = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        F = smooth_random_control(gridT, rng)
        G = smooth_random_control(gridT, rng)
        dynf = connecting_form(ck256, F, G)
        spf = spectral_connecting_form(measure, [(F, G)])[0].value
        form_err = max(form_err, abs(spf - dynf) / abs(dynf))

    indep_err = 0.0
    for N, bc in ((6.0, (1, 0, 1, 0)), (4.0, (0, 1, 0, 1))):
        alt = eigensolve(gauss, N, bc, 400, 2048)
        tr = smoothed_response_traces(alt, [f], free_reference(alt))[0].value
        indep_err = max(indep_err,
                        np.linalg.norm(tr - base) / np.linalg.norm(base))
    elapsed = time.perf_counter() - start
    ok = (resp_err <= 0.02 and form_err <= 0.02 and indep_err <= 0.02
          and elapsed < 300.0)
    record_criterion(9, "spectral bridge", ok,
                     "response %.2f%%, form %.2f%%, measure swap %.2f%%, %.0fs"
                     % (100 * resp_err, 100 * form_err, 100 * indep_err,
                        elapsed))
    assert ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    cfg_text = json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                      "width": 0.3},
        "T": 1.0, "n": 256, "stages": ["kernels", "response", "krein"],
        "out": "out"})
    blobs = []
    for tag in ("first", "second"):
        cwd = tmp_path / tag
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        run_pipeline(parse_config(cfg_text))
        names = sorted(p.name for p in (cwd / "out").iterdir())
        blobs.append([(nm, (cwd / "out" / nm).read_bytes()) for nm in names])
    # kernels.csv, response.csv, krein_q.csv, report.json
    ok = blobs[0] == blobs[1] and len(blobs[0]) == 4
    record_criterion(10, "serial determinism", ok,
                     "%d files byte-identical" % len(blobs[0]))
    assert ok
