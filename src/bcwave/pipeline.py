"""Stage orchestration: kernels -> response -> {connect, krein, gl,
spectral}, with a JSON report of per-stage metrics and output files.

All stages run serially in a fixed order, so identical configs produce
byte-identical outputs (no timestamps are written).  Inverse stages
consume only the response matrix; when the config supplies an external
response CSV the forward stages are skipped entirely, and the memory
budget is checked again at the file's size once it is read.

The inverse stages share one state (:func:`_inverse_state`): the
connecting kernel, held once as one node-major array, and one nested
Cholesky factor, built by the first of them to run and let go by the
last, so that the factor is freed before the spectral stage.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import BACKEND
from .config import RunConfig, check_memory, config_to_dict
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

    runners = {"kernels": _stage_kernels, "response": _stage_response,
               "connect": _stage_connect, "krein": _stage_krein,
               "gl": _stage_gl, "spectral": _stage_spectral}
    needs = {"kernels": (), "response": ("kernels",),
             "connect": ("response",), "krein": ("response",),
             "gl": ("response",), "spectral": ("response",)}

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

    done = set(state)
    for i, name in enumerate(cfg.stages):
        state["keep_inverse"] = any(s in INVERSE_STAGES
                                    for s in cfg.stages[i + 1:])
        entry = {"name": name, "files": []}
        missing = [d for d in needs[name] if d not in done and d not in state]
        if missing:
            entry["status"] = "skipped"
            entry["error"] = "missing prerequisite stage '%s'" % missing[0]
            report["ok"] = False
        else:
            try:
                entry["metrics"] = runners[name](cfg, state, entry["files"])
                entry["status"] = "ok"
                done.add(name)
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


INVERSE_STAGES = ("connect", "krein", "gl")


def _inverse_state(state):
    """The inverse stages' shared state (connecting.AssembledConnecting),
    built on first use.  The last inverse stage of the run takes it out
    of ``state``, so it is freed once that stage lets go of it."""
    inverse = state.pop("inverse", None)
    if inverse is None:
        ck = state.get("connect") or build_connecting(state["response"])
        inverse = assemble_matrix(ck)
    if state.get("keep_inverse"):
        state["inverse"] = inverse
    return inverse


#: Largest ``operator_identity_residual`` the gl stage accepts.  GL
#: solutions of responses of real potentials give at most 0.03 (Gaussians
#: of amplitude up to 3, n = 8-256); a response that belongs to no
#: potential gives 4 and more.
MAX_IDENTITY_RESIDUAL = 0.5


def _stage_connect(cfg, state, files):
    ck = build_connecting(state["response"])
    state["connect"] = ck
    path = os.path.join(cfg.out, "connecting.csv")
    ck.dump_csv(path)
    files.append(path)
    inverse = _inverse_state(state)
    lam = inverse.min_eigenvalue()
    if not lam > 0.0:
        # the connecting operator of a potential is positive definite
        raise ReconstructionError(
            "connecting matrix is not positive definite (min eigenvalue "
            "%.3g): the response belongs to no potential" % lam)
    return {"symmetry_residual": ck.symmetry_residual(),
            "block_symmetry_residual": ck.block_symmetry_residual(),
            "assembly_asymmetry": inverse.asymmetry,
            "min_eigenvalue": lam}


def _band_error(x, q, p, mask=None):
    band = np.abs(x) <= 0.8
    if mask is not None:
        band &= mask
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
        metrics["q_rel_error"] = _band_error(prof.x, prof.q,
                                             state["potential"], inner)
    return metrics


def _stage_gl(cfg, state, files):
    inverse = _inverse_state(state)
    ck = inverse.kernel
    M = solve_gl(ck, inverse)
    del inverse
    state["gl"] = M
    kpath = os.path.join(cfg.out, "gl_kernel.csv")
    M.dump_csv(kpath)
    x, q = recover_q_from_m(M, cfg.sign)
    qpath = os.path.join(cfg.out, "q_gl.csv")
    write_q_csv(qpath, x, q, "GL")
    files.extend([kpath, qpath])
    residual = operator_identity_residual(ck, M)
    if not residual <= MAX_IDENTITY_RESIDUAL:
        raise ReconstructionError(
            "GL operator identity residual %.3g exceeds %g: the response "
            "belongs to no potential" % (residual, MAX_IDENTITY_RESIDUAL))
    metrics = {
        "operator_identity_residual": residual,
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
    resp_errors = []
    tails = []
    form_errors = []
    for i in range(3):
        rng = np.random.default_rng(cfg.seed + i)
        f = smooth_random_control(grid2, rng)
        dyn = apply_response(r, f).control
        dyn_int = np.stack([cumulative_trapezoid(dyn.f1, grid2.h),
                            cumulative_trapezoid(dyn.f2, grid2.h)])
        sp = smoothed_response_traces(measure, f, reference)
        resp_errors.append(float(np.linalg.norm(sp.value - dyn_int)
                                 / np.linalg.norm(dyn_int)))
        tails.append(sp.tail)

        rng = np.random.default_rng(1000 + cfg.seed + i)
        # on the kernel's grid: its horizon n h may miss cfg.T by an ulp
        F = smooth_random_control(ck.grid, rng)
        G = smooth_random_control(ck.grid, rng)
        dynf = connecting_form(ck, F, G)
        spf = spectral_connecting_form(measure, F, G)
        form_errors.append(float(abs(spf.value - dynf) / abs(dynf)))
        tails.append(spf.tail)
    return {"lambda_min": float(measure.lam[0]),
            "lambda_max": float(measure.lam[-1]),
            "smoothed_response_rel_errors": resp_errors,
            "connecting_form_rel_errors": form_errors,
            "max_tail_indicator": float(max(tails))}
