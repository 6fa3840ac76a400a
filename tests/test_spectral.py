import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from bcwave import pipeline, spectral
from bcwave.config import parse_config
from bcwave.connecting import connecting_form
from bcwave.errors import ConfigError, DomainError, SpectralError
from bcwave.grid import (
    UniformGrid,
    conv_trapezoid,
    cumulative_trapezoid,
    smooth_random_control,
    trapezoid_weights,
)
from bcwave.pipeline import run_pipeline
from bcwave.potentials import ConstantPotential, GaussianPotential, ZeroPotential
from bcwave.response import apply_response
from bcwave.spectral import (
    TAIL_FRACTION,
    eigensolve,
    free_reference,
    smoothed_response_traces,
    spectral_connecting_form,
    wave_kernel,
    wave_kernel_antiderivative,
)

from oracles import (
    forward_solution,
    inner_inner,
    spectral_forward,
    spectral_response,
    zero_control,
)

CUTOFF = 150
MESH = 1024


@pytest.fixture(scope="module")
def measure_g(gauss):
    return eigensolve(gauss, 4.0, (1, 0, 1, 0), CUTOFF, MESH)


@pytest.fixture(scope="module")
def reference(measure_g):
    return free_reference(measure_g)


def test_free_dirichlet_spectrum():
    m = eigensolve(ZeroPotential(), 1.0, (1, 0, 1, 0), 10, 2048)
    nn = np.arange(1, 11)
    assert np.max(np.abs(m.lam - (nn * np.pi / 2) ** 2) / nn ** 2) < 1e-3
    assert abs(m.lam[0] - np.pi ** 2 / 4) < 1e-3
    # gamma_n = -y_n(0) alternates 1, 0 pattern; beta_n = y_n'(0)
    assert abs(abs(m.gamma[0]) - 1.0) < 1e-3 and abs(m.gamma[1]) < 1e-9
    assert abs(m.beta[0]) < 1e-9 and abs(abs(m.beta[1]) - np.pi) < 1e-2


def test_constant_shift_exact():
    m0 = eigensolve(ZeroPotential(), 1.0, (1, 0, 1, 0), 8, 512)
    mc = eigensolve(ConstantPotential(2.5), 1.0, (1, 0, 1, 0), 8, 512)
    assert np.max(np.abs(mc.lam - m0.lam - 2.5)) < 1e-10
    assert np.max(np.abs(mc.vecs - m0.vecs)) < 1e-10
    assert np.max(np.abs(mc.beta - m0.beta)) < 1e-10


def test_eigensolve_validation():
    with pytest.raises(ConfigError):
        eigensolve(ZeroPotential(), 1.0, (0, 0, 1, 0), 8, 512)
    with pytest.raises(ConfigError):
        eigensolve(ZeroPotential(), 1.0, (1, 0, 1, 0), 8, 511)
    with pytest.raises(ConfigError):
        eigensolve(ZeroPotential(), 1.0, (1, 0, 1, 0), 300, 512)


@pytest.mark.parametrize("count,mesh", [(CUTOFF, MESH), (400, 2048)])
@pytest.mark.parametrize("bc", [(1, 0, 1, 0), (0, 1, 0, 1)],
                         ids=["dirichlet", "neumann"])
def test_free_spectrum_closed_form(bc, count, mesh):
    # the discrete free spectrum: Dirichlet drops the end nodes, Neumann
    # keeps them with halved masses; k = 1..count and 0..count-1
    N = 4.0
    step = 2.0 * N / mesh
    k = np.arange(count) + (1 if bc[1] == 0 else 0)
    exact = 4.0 / step ** 2 * np.sin(k * np.pi / (2 * mesh)) ** 2
    m = eigensolve(ZeroPotential(), N, bc, count, mesh)
    assert np.all(np.abs(m.lam - exact) <= 1e-10 * np.maximum(exact, 1.0))
    # the eigenvectors are sampled sines and cosines
    wave = np.sin if bc[1] == 0 else np.cos
    y = wave(np.outer(k, np.arange(mesh + 1)) * np.pi / mesh)
    y /= np.sqrt(np.sum(y * y * trapezoid_weights(mesh, step), axis=1))[:, None]
    y *= np.sign(np.sum(y * m.vecs, axis=1))[:, None]
    assert np.max(np.abs(m.vecs - y)) <= 1e-10


def test_free_neumann_zero_mode_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = eigensolve(ZeroPotential(), 4.0, (0, 1, 0, 1), 400, 2048)
    assert np.isfinite(m.lam[0]) and abs(m.lam[0]) <= 1e-9
    assert np.all(np.isfinite(m.vecs))


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["forward_pivot", "backward_pivot"])
def test_zero_pivot_lift(reverse):
    # T = tridiag(-1; 0, 2, 2, 2, 1, 3; -1) has the null vector
    # (-1, 0, 1, 2, 3, 1); at lam = 0 its first forward pivot is exactly
    # zero and feeds z, and reversed, its last backward pivot does
    a = np.array([0.0, 2.0, 2.0, 2.0, 1.0, 3.0])
    want = np.array([-1.0, 0.0, 1.0, 2.0, 3.0, 1.0])
    if reverse:
        a, want = a[::-1].copy(), want[::-1]
    z = np.empty((6, 1))
    step = spectral._twisted_vectors(a, -np.ones(5), np.zeros(1), z,
                                     np.empty_like(z))
    assert step[0] == 0.0     # a lifted shift keeps its value
    z = z[:, 0] * (want @ z[:, 0]) / (z[:, 0] @ z[:, 0])
    assert np.max(np.abs(z - want)) <= 1e-12


def _stein_eigenpairs(a, b, count):
    """The tridiagonal solve eigensolve used before the twisted
    factorisation: bisection plus inverse iteration."""
    return eigh_tridiagonal(a, b, select="i", select_range=(0, count - 1))


def _check_against_stein(monkeypatch, p, bc, count, mesh):
    got = eigensolve(p, 4.0, bc, count, mesh)
    monkeypatch.setattr(spectral, "_twisted_eigenpairs", _stein_eigenpairs)
    want = eigensolve(p, 4.0, bc, count, mesh)
    # relative to max(|lam|, 1): the free Neumann ground state is 0 up
    # to roundoff in both solvers
    scale = np.maximum(np.abs(want.lam), 1.0)
    assert np.max(np.abs(got.lam - want.lam) / scale) <= 1e-9
    for key in ("beta", "gamma", "vecs"):
        g, w = getattr(got, key), getattr(want, key)
        assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w)), key


@pytest.mark.parametrize("bc", [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0.5, 2, 1)],
                         ids=["dirichlet", "neumann", "robin"])
@pytest.mark.parametrize("kind", ["gauss", "zero", "well"])
def test_twisted_solver_matches_stein(monkeypatch, gauss, kind, bc):
    p = {"gauss": gauss, "zero": ZeroPotential(),
         "well": GaussianPotential(amplitude=-40.0, width=0.3)}[kind]
    _check_against_stein(monkeypatch, p, bc, CUTOFF, MESH)


def test_twisted_solver_matches_stein_default_size(monkeypatch, gauss):
    _check_against_stein(monkeypatch, gauss, (1, 0, 1, 0), 400, 2048)


def test_non_finite_eigendata_raises(monkeypatch):
    with pytest.raises(SpectralError):
        eigensolve(lambda x: np.full_like(x, np.inf), 4.0, (1, 0, 1, 0),
                   20, 128)
    monkeypatch.setattr(spectral, "dsterf",
                        lambda d, e: (np.full(len(d), np.nan), 0))
    with pytest.raises(SpectralError):
        eigensolve(ZeroPotential(), 4.0, (1, 0, 1, 0), 20, 128)


def test_non_finite_eigendata_fails_the_stage(monkeypatch, tmp_path):
    monkeypatch.setattr(spectral, "dsterf",
                        lambda d, e: (np.full(len(d), np.nan), 0))
    cfg = parse_config(json.dumps({
        "potential": {"kind": "gaussian"}, "T": 1.0, "n": 16,
        "spectral": {"cutoff": 20, "mesh": 128},
        "stages": ["kernels", "response", "spectral"],
        "out": str(tmp_path)}))
    report = run_pipeline(cfg)
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status == {"kernels": "ok", "response": "ok", "spectral": "failed"}
    assert "non-finite" in report["stages"][2]["error"]


def test_eigenvalues_strictly_increasing(measure_g):
    assert np.all(np.diff(measure_g.lam) > 0)
    assert measure_g.count == CUTOFF


def test_wave_kernel_values():
    assert wave_kernel(5.0, 0.0) == 0.0
    assert wave_kernel(0.0, 1.7) == pytest.approx(1.7)
    assert wave_kernel(np.pi ** 2, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert wave_kernel(-4.0, 1.0) == pytest.approx(np.sinh(2.0) / 2.0)
    # series branch continuous across the threshold
    assert wave_kernel(1e-9, 2.0) == pytest.approx(wave_kernel(2e-6, 2.0),
                                                   rel=1e-5)


def test_wave_kernel_antiderivative_matches_quad():
    for lam in (-3.0, 0.0, 2.0, 40.0):
        for u in (0.3, 1.1):
            ref, _ = quad(lambda t: wave_kernel(lam, t), 0.0, u)
            assert wave_kernel_antiderivative(lam, u) == pytest.approx(
                ref, abs=1e-10)


@pytest.mark.parametrize("kernel", [wave_kernel, wave_kernel_antiderivative])
def test_wave_kernel_branches_match_scalar_calls(kernel):
    # lam spans the series (|lam t^2| < 1e-6), positive and negative
    # branches; each entry keeps the bits of its own scalar call
    rng = np.random.default_rng(7)
    lam = np.concatenate([rng.uniform(-40.0, 40.0, 40),
                          rng.uniform(-1e-6, 1e-6, 10), [0.0, 2e-6, -2e-6]])
    t = np.linspace(0.0, 1.5, 17)
    got = kernel(lam[:, None], t)
    want = np.array([[kernel(a, b) for b in t] for a in lam])
    small = np.abs(lam[:, None] * t * t) < 1e-6
    assert small.any() and (~small & (lam[:, None] > 0)).any()
    assert (~small & (lam[:, None] < 0)).any()
    assert got.tobytes() == want.tobytes()


def test_zero_control_sums(measure_g):
    grid = UniformGrid(2.0, 64)
    z = zero_control(grid)
    assert np.max(np.abs(spectral_response(measure_g, z, 1.0).value)) == 0.0
    assert spectral_connecting_form(
        measure_g, [(zero_control(UniformGrid(1.0, 64)),
                     zero_control(UniformGrid(1.0, 64)))])[0].value == 0.0


def test_smoothed_response_vs_dynamic(gauss, resp128, measure_g, reference):
    grid = resp128.grid
    for seed in range(2):
        f = smooth_random_control(grid, np.random.default_rng(seed))
        dyn = apply_response(resp128, f)
        dyn_int = np.stack([cumulative_trapezoid(dyn.f1, grid.h),
                            cumulative_trapezoid(dyn.f2, grid.h)])
        sp, = smoothed_response_traces(measure_g, [f], reference)
        rel = np.linalg.norm(sp.value - dyn_int) / np.linalg.norm(dyn_int)
        assert rel < 0.02
        assert sp.tail < 0.05


def _mode_loop_traces(measure, f, reference):
    """The smoothed response traces summed mode by mode, two convolutions
    per mode, as they were before the mode sums were collapsed."""
    grid = f.grid
    _, d2 = f.derivative()
    g = measure.beta[:, None] * f.f1 + measure.gamma[:, None] * d2
    g0 = reference.beta[:, None] * f.f1 + reference.gamma[:, None] * d2
    sig = wave_kernel_antiderivative(measure.lam[:, None], grid.t)
    sig0 = wave_kernel_antiderivative(reference.lam[:, None], grid.t)
    out = np.zeros((2, grid.n + 1))
    head = np.zeros((2, grid.n + 1))
    n_head = int(TAIL_FRACTION * measure.count)
    for n in range(measure.count):
        conv = conv_trapezoid(sig[n], g[n], grid.h)
        conv0 = conv_trapezoid(sig0[n], g0[n], grid.h)
        out[0] += measure.beta[n] * conv - reference.beta[n] * conv0
        out[1] += measure.gamma[n] * conv - reference.gamma[n] * conv0
        if n == n_head - 1:
            head[:] = out
    for a in (out, head):
        a[0] += -0.5 * (f.f1 - f.f1[0])
        a[1] += 0.5 * cumulative_trapezoid(f.f2, grid.h)
    tail = np.max(np.abs(out - head)) / np.max(np.abs(out))
    return out, tail


@pytest.mark.parametrize("bc", [(1, 0, 1, 0), (0, 1, 0, 1)],
                         ids=["dirichlet", "neumann"])
def test_smoothed_response_matches_mode_loop(offcenter, bc):
    m = eigensolve(offcenter, 4.0, bc, CUTOFF, MESH)
    ref = free_reference(m)
    f = smooth_random_control(UniformGrid(1.0, 128),
                              np.random.default_rng(5))
    got, = smoothed_response_traces(m, [f], ref)
    want, tail = _mode_loop_traces(m, f, ref)
    assert np.max(np.abs(got.value - want)) <= 1e-10 * np.max(np.abs(want))
    assert abs(got.tail - tail) <= 1e-10 * tail


def test_batched_sums_match_single_calls(resp128, measure_g, reference):
    # three controls at once give the bits of three one-control calls
    controls = [smooth_random_control(resp128.grid, np.random.default_rng(s))
                for s in range(3)]
    grid = UniformGrid(1.0, 128)
    pairs = []
    for seed in range(3):
        rng = np.random.default_rng(50 + seed)
        pairs.append((smooth_random_control(grid, rng),
                      smooth_random_control(grid, rng)))
    traces = smoothed_response_traces(measure_g, controls, reference)
    forms = spectral_connecting_form(measure_g, pairs)
    assert len(traces) == len(forms) == 3
    for f, got in zip(controls, traces):
        want, = smoothed_response_traces(measure_g, [f], reference)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.tail == want.tail
    for pair, got in zip(pairs, forms):
        want, = spectral_connecting_form(measure_g, [pair])
        assert (got.value, got.tail) == (want.value, want.tail)


def test_measure_substitution(gauss, resp128):
    # different N and different bc leave the smoothed trace unchanged
    grid = resp128.grid
    f = smooth_random_control(grid, np.random.default_rng(3))
    base = None
    for N, bc in ((4.0, (1, 0, 1, 0)), (5.0, (1, 0, 1, 0)),
                  (4.0, (0, 1, 0, 1))):
        m = eigensolve(gauss, N, bc, CUTOFF, MESH)
        tr = smoothed_response_traces(m, [f])[0].value
        if base is None:
            base = tr
        else:
            assert np.linalg.norm(tr - base) / np.linalg.norm(base) < 0.02


def test_connecting_form_vs_dynamic(ck128, measure_g):
    grid = UniformGrid(1.0, 128)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        F = smooth_random_control(grid, rng)
        G = smooth_random_control(grid, rng)
        dyn = connecting_form(ck128, F, G)
        sp, = spectral_connecting_form(measure_g, [(F, G)])
        assert abs(sp.value - dyn) / abs(dyn) < 0.02


def test_parseval_surrogate(field128, measure_g):
    grid = UniformGrid(1.0, 128)
    F = smooth_random_control(grid, np.random.default_rng(12))
    form, = spectral_connecting_form(measure_g, [(F, F)])
    assert form.value >= 0.0
    u = forward_solution(F, field128, 1.0)
    assert form.value == pytest.approx(inner_inner(u, u), rel=0.02)


def test_spectral_forward_free():
    meas = eigensolve(ZeroPotential(), 4.0, (1, 0, 1, 0), CUTOFF, MESH)
    grid = UniformGrid(1.0, 128)
    F = smooth_random_control(grid, np.random.default_rng(5))
    v = spectral_forward(meas, F, 1.0).value
    rev1, rev2 = F.f1[::-1], F.f2[::-1]
    exact1 = 0.5 * (rev1 - rev2)
    exact2 = 0.5 * (-rev1 - rev2)
    mask = np.arange(129) < 127  # 2h-wide wavefront mask
    num = np.sqrt(np.sum((v.a1 - exact1)[mask] ** 2
                         + (v.a2 - exact2)[mask] ** 2))
    den = np.sqrt(np.sum(exact1[mask] ** 2 + exact2[mask] ** 2))
    assert num / den < 0.03


def test_spectral_forward_vs_dynamic(field128, measure_g):
    grid = UniformGrid(1.0, 128)
    F = smooth_random_control(grid, np.random.default_rng(6))
    u = forward_solution(F, field128, 1.0)
    sp = spectral_forward(measure_g, F, 1.0)
    v = sp.value
    mask = np.arange(129) < 127
    num = np.sqrt(np.sum((v.a1 - u.a1)[mask] ** 2
                         + (v.a2 - u.a2)[mask] ** 2))
    den = np.sqrt(np.sum(u.a1[mask] ** 2 + u.a2[mask] ** 2))
    assert num / den < 0.03
    assert sp.tail < 0.05


def test_domain_guards(measure_g):
    long_grid = UniformGrid(9.0, 128)
    f = smooth_random_control(long_grid, np.random.default_rng(0))
    with pytest.raises(DomainError):
        smoothed_response_traces(measure_g, [f])
    gridT = UniformGrid(5.0, 64)
    F = smooth_random_control(gridT, np.random.default_rng(0))
    with pytest.raises(DomainError):
        spectral_connecting_form(measure_g, [(F, F)])
    with pytest.raises(DomainError):
        spectral_forward(measure_g,
                         smooth_random_control(UniformGrid(3.5, 64),
                                               np.random.default_rng(0)), 3.5)
    # the batched sums take controls on one grid only
    rng = np.random.default_rng(4)
    a = smooth_random_control(UniformGrid(1.0, 128), rng)
    b = smooth_random_control(UniformGrid(1.0, 64), rng)
    with pytest.raises(DomainError):
        smoothed_response_traces(measure_g, [a, b])
    with pytest.raises(DomainError):
        spectral_connecting_form(measure_g, [(a, b)])
    with pytest.raises(DomainError):
        spectral_connecting_form(measure_g, [(a, a), (b, b)])


def test_measure_csv(tmp_path, measure_g):
    path = tmp_path / "measure.csv"
    measure_g.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "n,lambda,beta,gamma"
    assert len(rows) == measure_g.count + 1


def _check_reference(got, want):
    """lam to 1e-10 max(|lam|, 1), beta and gamma to 1e-10 of their scale."""
    scale = np.maximum(np.abs(want.lam), 1.0)
    assert np.all(np.abs(got.lam - want.lam) <= 1e-10 * scale)
    for key in ("beta", "gamma"):
        g, w = getattr(got, key), getattr(want, key)
        assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), key


def test_reference_without_eigenfunctions(gauss, measure_g, reference):
    assert reference.vecs is None and measure_g.vecs is not None
    full = eigensolve(ZeroPotential(), 4.0, (1, 0, 1, 0), CUTOFF, MESH)
    _check_reference(reference, full)
    f = smooth_random_control(UniformGrid(1.0, 128), np.random.default_rng(2))
    got = smoothed_response_traces(measure_g, [f], reference)[0].value
    want = smoothed_response_traces(measure_g, [f], full)[0].value
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    bare = eigensolve(gauss, 4.0, (1, 0, 1, 0), CUTOFF, MESH, vecs=False)
    assert bare.vecs is None
    for key in ("lam", "beta", "gamma"):
        assert np.array_equal(getattr(bare, key), getattr(measure_g, key))


END_PAIRS = {"DD": (1, 0, 1, 0), "NN": (0, 1, 0, 1), "DN": (1, 0, 0, 1),
             "ND": (0, 1, 1, 0)}


@pytest.mark.parametrize("N,count,mesh", [(4.0, 400, 2048), (8.0, 100, 512)])
@pytest.mark.parametrize("ends", END_PAIRS)
def test_free_reference_closed_form(ends, N, count, mesh):
    want = eigensolve(ZeroPotential(), N, END_PAIRS[ends], count, mesh,
                      vecs=False)
    _check_reference(free_reference(want), want)


@pytest.mark.parametrize("bc", [(0, 1, 1, 2), (1, 1, 1, 0)],
                         ids=["robin_right", "robin_left"])
def test_free_reference_robin_is_numeric(bc):
    want = eigensolve(ZeroPotential(), 4.0, bc, 100, 512, vecs=False)
    got = free_reference(want)
    for key in ("lam", "beta", "gamma"):
        assert np.array_equal(getattr(got, key), getattr(want, key))


def test_free_reference_neumann_zero_mode():
    m = eigensolve(ZeroPotential(), 4.0, (0, 1, 0, 1), 100, 512, vecs=False)
    ref = free_reference(m)
    assert ref.lam[0] == 0.0
    assert np.isfinite(ref.beta[0]) and np.isfinite(ref.gamma[0])


@pytest.mark.parametrize("change", [
    {"half_length": 5.0}, {"bc": (0.0, 1.0, 0.0, 1.0)},
    {"nodes": np.linspace(-4.0, 4.0, 2 * MESH + 1)}],
    ids=["half_length", "bc", "mesh"])
def test_smoothed_response_rejects_foreign_reference(measure_g, reference,
                                                     change):
    f = smooth_random_control(UniformGrid(1.0, 128), np.random.default_rng(2))
    with pytest.raises(DomainError):
        smoothed_response_traces(measure_g, [f],
                                 dataclasses.replace(reference, **change))


@pytest.mark.parametrize("bc,solves", [((1, 0, 1, 0), 1), ((1, 0.5, 2, 1), 2)],
                         ids=["dirichlet", "robin"])
def test_spectral_stage_solve_count(monkeypatch, tmp_path, bc, solves):
    # the pipeline imports eigensolve by name, so both names are spied on
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return eigensolve(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigensolve", spy)
    monkeypatch.setattr(pipeline, "eigensolve", spy)
    cfg = parse_config(json.dumps({
        "potential": {"kind": "gaussian"}, "T": 1.0, "n": 16,
        "spectral": {"cutoff": 20, "mesh": 128, "bc": list(bc)},
        "stages": ["kernels", "response", "spectral"],
        "out": str(tmp_path)}))
    assert run_pipeline(cfg)["ok"]
    assert len(calls) == solves


def test_spectral_stage_builds_kernels_once(monkeypatch, tmp_path):
    # sigma for the measure and the reference, and s(lam, T - t), once
    # per stage, however many controls it evaluates
    calls = []
    for name in ("wave_kernel", "wave_kernel_antiderivative"):
        def spy(*args, _name=name, _real=getattr(spectral, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(spectral, name, spy)
    cfg = parse_config(json.dumps({
        "potential": {"kind": "gaussian"}, "T": 1.0, "n": 16,
        "spectral": {"cutoff": 20, "mesh": 128},
        "stages": ["kernels", "response", "spectral"],
        "out": str(tmp_path)}))
    assert run_pipeline(cfg)["ok"]
    assert sorted(calls) == ["wave_kernel", "wave_kernel_antiderivative",
                             "wave_kernel_antiderivative"]
