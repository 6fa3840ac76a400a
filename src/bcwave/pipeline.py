"""Stage orchestration: kernels -> response -> {connect, krein, gl,
spectral}, with a JSON report of per-stage metrics and output files.

The stages run serially in the order config.STAGES fixes for
``cfg.stages``, so identical configs produce byte-identical outputs (no
timestamps are written).  Inverse stages consume only the response
matrix; on the response CSV route the config holds no forward stage,
and the memory budget is checked again at the file's size once read.

The inverse stages share one state (:func:`_inverse_state`): the
connecting kernel, held once as one node-major array, and one nested
Cholesky factor, built by the first of them to run and let go by the
last, so that the factor is freed before the spectral stage.  Where the
factor stops short, the state is that failure, and every inverse stage
fails with its message.  :data:`GATES` holds every bound on a metric.
"""

from __future__ import annotations

import json
import operator
import os

import numpy as np

from . import BACKEND
from .config import (INVERSE_STAGES, STAGES, RunConfig, check_memory,
                     config_to_dict)
from .connecting import assemble_matrix, build_connecting, connecting_form
from .errors import BCWaveError, ConfigError, ReconstructionError
from .gl import (operator_identity_residual, recover_q_from_m, solve_gl,
                 write_q_csv)
from .goursat import solve_kernels
from .grid import UniformGrid, cumulative_trapezoid, smooth_random_control
from .krein import sweep_reconstruct
from .potentials import potential_from_config
from .response import apply_response, read_response_csv, response_matrix
from .spectral import (eigensolve, free_reference, smoothed_response_traces,
                       spectral_connecting_form)


def run_pipeline(cfg: RunConfig) -> dict:
    check_memory(cfg)
    state = {}
    if cfg.potential is not None:
        p = potential_from_config(cfg.potential)
        # the spectral stage evaluates q on [-N, N]; the tolerance is
        # Potential._check's
        N = cfg.spectral.half_length
        if "spectral" in cfg.stages and N > p.support * (1.0 + 1e-12):
            raise ConfigError("potential support radius %g is narrower "
                              "than spectral.N = %g" % (p.support, N))
        state["potential"] = p
    os.makedirs(cfg.out, exist_ok=True)
    report = {"backend": BACKEND, "config": config_to_dict(cfg),
              "stages": [], "ok": True}

    # looked up per call, so that a wrapper set on _stage_* takes effect
    runners = {"kernels": _stage_kernels, "response": _stage_response,
               "connect": _stage_connect, "krein": _stage_krein,
               "gl": _stage_gl, "spectral": _stage_spectral}

    if cfg.response_csv is not None:
        entry = {"name": "ingest", "files": [cfg.response_csv]}
        try:
            state["response"] = read_response_csv(cfg.response_csv,
                                                  min_horizon=2.0 * cfg.T)
            entry["status"] = "ok"
            entry["metrics"] = {
                "horizon": state["response"].grid.horizon,
                "compatibility_residual":
                    state["response"].compatibility_residual()}
        except BCWaveError as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            report["ok"] = False
        report["stages"].append(entry)
        if "response" in state:
            # the inverse stages run at the file's size, not the config's
            check_memory(cfg, state["response"].grid.n // 2)

    for i, name in enumerate(cfg.stages):
        state["keep_inverse"] = any(s in INVERSE_STAGES
                                    for s in cfg.stages[i + 1:])
        entry = {"name": name, "files": []}
        missing = [d for d in STAGES[name] if d not in state]
        if missing:
            entry["status"] = "skipped"
            entry["error"] = "missing prerequisite stage '%s'" % missing[0]
            report["ok"] = False
        else:
            try:
                entry["metrics"] = runners[name](cfg, state, entry["files"])
                _apply_fail_gates(name, entry["metrics"])
                entry["status"] = "ok"
            except (BCWaveError, np.linalg.LinAlgError) as exc:
                entry["status"] = "failed"
                entry["error"] = str(exc)
                report["ok"] = False
        report["stages"].append(entry)

    path = os.path.join(cfg.out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _stage_kernels(cfg, state, files):
    grid = UniformGrid(2.0 * cfg.T, 2 * cfg.n)
    field = solve_kernels(state["potential"], grid)
    state["kernels"] = field
    path = os.path.join(cfg.out, "kernels.csv")
    field.dump_csv(path)
    files.append(path)
    tr = field.traces()
    return {"continuity_residual": float(np.max(tr.continuity)),
            "h": grid.h}


def _stage_response(cfg, state, files):
    r = response_matrix(state["kernels"])
    state["response"] = r
    path = os.path.join(cfg.out, "response.csv")
    r.write_csv(path)
    files.append(path)
    return {"compatibility_residual": r.compatibility_residual()}


def _inverse_state(state):
    """The inverse stages' shared state (connecting.AssembledConnecting),
    built on first use.  The last inverse stage of the run takes it out
    of ``state``, so it is freed once that stage lets go of it.  If the
    assembly fails, the state is its message, and each inverse stage
    raises it again without assembling anew."""
    inverse = state.pop("inverse", None)
    if inverse is None:
        ck = state.get("connect") or build_connecting(state["response"])
        try:
            inverse = assemble_matrix(ck)
        except ReconstructionError as exc:
            inverse = str(exc)
    if state.get("keep_inverse"):
        state["inverse"] = inverse
    if isinstance(inverse, str):
        raise ReconstructionError(inverse)
    return inverse


_TESTS = {"<=": operator.le, ">": operator.gt}

#: Every bound on a stage metric: (stage, metric, test, bound, kind,
#: failure).  A "fail" row fails its stage in every run, with its
#: ``failure`` text, once the stage's runner returns; ``bcwave selftest``
#: checks the "selftest" rows on its built-in configuration.
GATES = (
    ("response", "compatibility_residual", "<=", 1e-2, "selftest", None),
    ("connect", "block_symmetry_residual", "<=", 1e-2, "selftest", None),
    # the connecting operator of a potential is positive definite
    ("connect", "min_eigenvalue", ">", 0.0, "fail",
     "connecting matrix is not positive definite"),
    ("krein", "q_rel_error", "<=", 0.05, "selftest", None),
    ("gl", "q_rel_error", "<=", 0.05, "selftest", None),
    ("gl", "krein_gl_agreement", "<=", 0.07, "selftest", None),
    # GL solutions of responses of real potentials give at most 0.03
    # (Gaussians of amplitude up to 3, n = 8-256); a response that
    # belongs to no potential gives 4 and more
    ("gl", "operator_identity_residual", "<=", 0.5, "fail",
     "GL operator identity residual is out of bounds"),
)


def within(metrics, key, test, bound) -> bool:
    """Whether ``metrics[key]`` passes ``test`` against ``bound``; a
    missing or NaN metric does not."""
    val = metrics.get(key)
    return val is not None and _TESTS[test](val, bound)


def _apply_fail_gates(stage, metrics):
    for name, key, test, bound, kind, failure in GATES:
        if (name == stage and kind == "fail"
                and not within(metrics, key, test, bound)):
            raise ReconstructionError(
                "%s (%s %s, bound %s %g): the response belongs to no "
                "potential" % (failure, key, metrics.get(key), test, bound))


def _stage_connect(cfg, state, files):
    ck = build_connecting(state["response"])
    state["connect"] = ck
    path = os.path.join(cfg.out, "connecting.csv")
    ck.dump_csv(path)
    files.append(path)
    inverse = _inverse_state(state)
    lam = inverse.min_eigenvalue()
    return {"symmetry_residual": ck.symmetry_residual(),
            "block_symmetry_residual": ck.block_symmetry_residual(),
            "assembly_asymmetry": inverse.asymmetry,
            "min_eigenvalue": lam}


def _band_error(x, q, p, mask=None):
    """max |q - p| on |x| <= 0.8 (and ``mask``), relative to max |p|;
    None when that band holds no sample."""
    band = np.abs(x) <= 0.8
    if mask is not None:
        band &= mask
    if not band.any():
        return None
    qex = p(x)
    scale = max(float(np.max(np.abs(qex))), 1e-30)
    return float(np.max(np.abs(q[band] - qex[band])) / scale)


def _stage_krein(cfg, state, files):
    prof = sweep_reconstruct(state["response"], _inverse_state(state))
    state["krein"] = prof
    path = os.path.join(cfg.out, "krein_q.csv")
    prof.write_csv(path)
    files.append(path)
    metrics = {
        "max_solver_residual": float(np.nanmax(prof.residuals)),
        "regularized_horizons": int(np.count_nonzero(prof.regularized)),
        "failed_horizons": int(np.count_nonzero(np.isnan(prof.residuals))),
        "valid_fraction": float(np.mean(prof.valid)),
    }
    if "potential" in state:
        inner = prof.valid & (np.abs(prof.x) >= 0.1)
        err = _band_error(prof.x, prof.q, state["potential"], inner)
        if err is not None:   # T < 0.1 leaves no sample in the band
            metrics["q_rel_error"] = err
    return metrics


def _stage_gl(cfg, state, files):
    inverse = _inverse_state(state)
    ck = inverse.kernel
    M = solve_gl(ck, inverse)
    del inverse
    kpath = os.path.join(cfg.out, "gl_kernel.csv")
    M.dump_csv(kpath)
    x, q = recover_q_from_m(M, cfg.sign)
    qpath = os.path.join(cfg.out, "q_gl.csv")
    write_q_csv(qpath, x, q, "GL")
    files.extend([kpath, qpath])
    metrics = {
        "operator_identity_residual": operator_identity_residual(ck, M),
        "regularized_columns": len(M.regularized),
    }
    if "potential" in state:
        metrics["q_rel_error"] = _band_error(x, q, state["potential"])
    if "krein" in state:
        prof = state["krein"]
        both = prof.valid & (np.abs(x) <= 0.8)
        scale = max(float(np.max(np.abs(q[both]))), 1e-30)
        metrics["krein_gl_agreement"] = float(
            np.max(np.abs(q[both] - prof.q[both])) / scale)
    return metrics


def _stage_spectral(cfg, state, files):
    p = state["potential"]
    opts = cfg.spectral
    measure = eigensolve(p, opts.half_length, opts.bc, opts.cutoff, opts.mesh,
                         vecs=False)
    reference = free_reference(measure)
    path = os.path.join(cfg.out, "measure.csv")
    measure.write_csv(path)
    files.append(path)

    r = state["response"]
    grid2 = r.grid
    ck = state.get("connect") or build_connecting(r)
    controls = []
    pairs = []
    for i in range(3):
        controls.append(smooth_random_control(
            grid2, np.random.default_rng(cfg.seed + i)))
        rng = np.random.default_rng(1000 + cfg.seed + i)
        # on the kernel's grid: its horizon n h may miss cfg.T by an ulp
        pairs.append((smooth_random_control(ck.grid, rng),
                      smooth_random_control(ck.grid, rng)))
    traces = smoothed_response_traces(measure, controls, reference)
    forms = spectral_connecting_form(measure, pairs)

    resp_errors = []
    form_errors = []
    tails = []
    for f, (F, G), sp, spf in zip(controls, pairs, traces, forms):
        dyn = apply_response(r, f)
        dyn_int = np.stack([cumulative_trapezoid(dyn.f1, grid2.h),
                            cumulative_trapezoid(dyn.f2, grid2.h)])
        resp_errors.append(float(np.linalg.norm(sp.value - dyn_int)
                                 / np.linalg.norm(dyn_int)))
        dynf = connecting_form(ck, F, G)
        form_errors.append(float(abs(spf.value - dynf) / abs(dynf)))
        tails.extend([sp.tail, spf.tail])
    return {"lambda_min": float(measure.lam[0]),
            "lambda_max": float(measure.lam[-1]),
            "smoothed_response_rel_errors": resp_errors,
            "connecting_form_rel_errors": form_errors,
            "max_tail_indicator": float(max(tails))}
