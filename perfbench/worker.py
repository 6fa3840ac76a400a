"""Child-process side of the benchmark.

    worker.py prepare --workload NAME --seed N --dir DIR
        draw the seed's potentials and write DIR/inputs.json; for the CSV
        workload also make the response CSVs with an untimed forward run
    worker.py probe --dir DIR
        import bcwave and run the tiny warm-up invocation once (set-up time)
    worker.py measure --dir DIR --seconds S --trace 0|1
        warm up, then time invocations for S seconds, check every output
        and write DIR/result.json

run.py starts each of these in a fresh interpreter with the BLAS pool
pinned to one thread, and with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Selftest gates; an invocation that misses one fails.
GATES = {"q_err_krein": 0.05, "q_err_gl": 0.05, "krein_gl_agreement": 0.07}
#: The full-size warm-up, then one round over the panel: every input runs,
#: the first one twice, and a traced run has untraced and traced samples.
MIN_INVOCATIONS = 1 + workloads.PANEL


def prepare(args) -> None:
    from bcwave.goursat import solve_kernels
    from bcwave.grid import UniformGrid
    from bcwave.potentials import potential_from_config
    from bcwave.response import response_matrix

    w = workloads.WORKLOADS[args.workload]
    panel = workloads.draw_panel(args.seed)

    def response_csv(params, n, name):
        path = os.path.join(args.dir, name)
        p = potential_from_config(params)
        r = response_matrix(solve_kernels(p, UniformGrid(2.0 * workloads.T,
                                                         2 * n)))
        r.write_csv(path)
        return path

    configs = []
    for i, params in enumerate(panel):
        out = os.path.join(args.dir, "out", "member%d" % i)
        csv_path = (response_csv(params, w.n, "response%d.csv" % i)
                    if w.from_csv else None)
        configs.append(workloads.config(w, out, params, csv_path))
    warm_csv = (response_csv(panel[0], workloads.WARMUP_N, "warmup.csv")
                if w.from_csv else None)
    warmup = workloads.config(w, os.path.join(args.dir, "out", "warmup"),
                              panel[0], warm_csv, n=workloads.WARMUP_N)
    with open(os.path.join(args.dir, "inputs.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "panel": panel,
                   "configs": [json.dumps(c) for c in configs],
                   "warmup": json.dumps(warmup)}, fh, indent=1)


def _inputs(dirname: str) -> dict:
    with open(os.path.join(dirname, "inputs.json")) as fh:
        return json.load(fh)


def probe(args) -> None:
    from bcwave import pipeline
    from bcwave.config import parse_config

    report = pipeline.run_pipeline(parse_config(_inputs(args.dir)["warmup"]))
    if not report["stages"]:
        raise SystemExit("warm-up invocation ran no stage")


# ---------------------------------------------------------------- checks

def _columns(path: str) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                         encoding="ascii")
    return {k: np.asarray(data[k]) for k in data.dtype.names}


def _gaussian(x, params):
    u = (x - params["center"]) / params["width"]
    return params["amplitude"] * np.exp(-u * u)


def accuracy(xk, qk, valid, xg, qg, params) -> dict:
    """The pipeline's accuracy metrics, recomputed from the recovered q."""
    if not np.array_equal(xk, xg):
        raise ValueError("Krein and GL q are sampled on different grids")
    band = np.abs(xk) <= 0.8
    truth = _gaussian(xk, params)
    scale = max(float(np.max(np.abs(truth))), 1e-30)
    inner = band & valid & (np.abs(xk) >= 0.1)
    both = band & valid
    gl_scale = max(float(np.max(np.abs(qg[both]))), 1e-30)
    return {
        "q_err_krein": float(np.max(np.abs(qk[inner] - truth[inner])) / scale),
        "q_err_gl": float(np.max(np.abs(qg[band] - truth[band])) / scale),
        "krein_gl_agreement": float(np.max(np.abs(qg[both] - qk[both]))
                                    / gl_scale),
        "krein_valid_fraction": float(np.mean(valid)),
    }


def accuracy_from_outputs(out: str, params) -> dict:
    k = _columns(os.path.join(out, "krein_q.csv"))
    g = _columns(os.path.join(out, "q_gl.csv"))
    return accuracy(k["x"], k["q"], k["valid"].astype(bool), g["x"], g["q"],
                    params)


def accuracy_from_response(out: str, params) -> dict:
    """Invert the response.csv a forward-only run wrote, every CHECK_STEP-th
    sample of it, by both routes."""
    from bcwave.connecting import build_connecting
    from bcwave.gl import recover_q_from_m, solve_gl
    from bcwave.grid import UniformGrid
    from bcwave.krein import sweep_reconstruct
    from bcwave.response import ResponseMatrix, read_response_csv

    r = read_response_csv(os.path.join(out, "response.csv"))
    step = workloads.CHECK_STEP
    if r.grid.n % (2 * step):
        raise ValueError("response grid of %d steps does not subsample by %d"
                         % (r.grid.n, step))
    coarse = ResponseMatrix(UniformGrid(r.grid.horizon, r.grid.n // step),
                            r.r11[::step], r.r12[::step], r.r21[::step],
                            r.r22[::step])
    prof = sweep_reconstruct(coarse)
    x, q = recover_q_from_m(solve_gl(build_connecting(coarse)))
    return accuracy(prof.x, prof.q, prof.valid, x, q, params)


def _report_disagreement(report: dict, acc: dict) -> str | None:
    """Compare report.json's own accuracy metrics with the recomputed ones."""
    stages = {s["name"]: s.get("metrics", {}) for s in report["stages"]}
    pairs = (("krein", "q_rel_error", "q_err_krein"),
             ("krein", "valid_fraction", "krein_valid_fraction"),
             ("gl", "q_rel_error", "q_err_gl"),
             ("gl", "krein_gl_agreement", "krein_gl_agreement"))
    for stage, key, ours in pairs:
        theirs = stages.get(stage, {}).get(key)
        if theirs is not None and abs(theirs - acc[ours]) > 1e-9 * abs(acc[ours]):
            return "report.json %s.%s = %r, outputs give %r" % (
                stage, key, theirs, acc[ours])
    return None


def file_digests(out: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------- measure

def environment() -> dict:
    import scipy

    import bcwave

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": bcwave.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(args) -> None:
    from bcwave import pipeline
    from bcwave.config import parse_config

    inputs = _inputs(args.dir)
    w = workloads.WORKLOADS[inputs["workload"]]
    panel = inputs["panel"]
    pipeline.run_pipeline(parse_config(inputs["warmup"]))

    tracer = tracing.Tracer() if args.trace else None
    first_digests = {}
    member_accuracy = {}
    invocations = []
    per_layer = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        i = len(invocations)
        ok_walls = [v["wall_s"] for v in invocations if v["ok"]]
        if i >= MIN_INVOCATIONS and (
                not ok_walls
                or time.perf_counter() + statistics.median(ok_walls) > deadline):
            break
        member = i % workloads.PANEL
        # Invocation 0 warms the process at full size and is not a timing
        # sample.  After it, traced and untraced invocations alternate, in
        # the opposite order on each round over the panel.
        traced = bool(args.trace) and i > 0 and (
            i + (i - 1) // workloads.PANEL) % 2 == 0
        text = inputs["configs"][member]
        out = json.loads(text)["out"]
        record = {"i": i, "member": member, "traced": traced,
                  "sample": i > 0, "ok": False}
        invocations.append(record)
        if traced:
            tracer.invocation = i
            tracer.install()
        gc.collect()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            report = pipeline.run_pipeline(parse_config(text))
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = time.process_time() - c0
        except Exception as exc:  # any exception is a failed invocation
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
            continue
        finally:
            if traced:
                tracer.uninstall()
        try:
            record["error"] = _check(w, out, report, panel[member], member,
                                     first_digests, member_accuracy)
        except Exception as exc:  # an unreadable output fails the invocation
            record["error"] = "checking outputs: %s: %s" % (
                type(exc).__name__, exc)
        record["ok"] = record["error"] is None
        if traced and record["ok"]:
            m = tracer.invocation_metrics(i)
            m.update(_output_sizes(out))
            per_layer.append(m)

    result = {
        "environment": environment(),
        "measured_s": time.perf_counter() - start,
        "invocations": invocations,
        "accuracy": [member_accuracy.get(k) for k in range(len(panel))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    if tracer is not None:
        expected = [name for name, _, _, role in tracing.SPANS
                    if role in w.roles]
        fired = tracer.fired()
        result["missing_spans"] = sorted(
            set(tracer.missing)
            | {name for name in expected if per_layer and name not in fired})
        # A span that never fired leaves its metrics out, so a renamed entry
        # point reads as missing rather than as zero time.
        result["per_layer"] = {
            k: v for k, v in (tracing.median_metrics(per_layer)
                              if per_layer else {}).items()
            if not any(k.startswith(name + "_")
                       for name in result["missing_spans"])}
        with open(os.path.join(args.dir, "spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)


def _check(w, out, report, params, member, first_digests, member_accuracy):
    """None if the invocation's outputs pass every check, else the reason."""
    if not report.get("ok"):
        bad = [s["name"] for s in report["stages"] if s["status"] != "ok"]
        return "report.ok is false (stages %s)" % ", ".join(bad)
    digests = file_digests(out)
    first = first_digests.setdefault(member, digests)
    if digests != first:
        differ = sorted(k for k in set(first) | set(digests)
                        if first.get(k) != digests.get(k))
        return "outputs differ from the first run of this input: %s" % (
            ", ".join(differ))
    if member not in member_accuracy:
        if w.from_csv or "krein" in w.stages:
            acc = accuracy_from_outputs(out, params)
            disagreement = _report_disagreement(report, acc)
            if disagreement:
                return disagreement
        else:
            acc = accuracy_from_response(out, params)
        member_accuracy[member] = acc
    acc = member_accuracy[member]
    missed = ["%s = %.3g > %g" % (k, acc[k], g) for k, g in GATES.items()
              if not acc[k] <= g]
    return "gate missed: " + "; ".join(missed) if missed else None


def _output_sizes(out: str) -> dict:
    sizes = {name: os.path.getsize(os.path.join(out, name))
             for name in os.listdir(out)}
    m = {metric: sizes.get(name, 0) / 1e6
         for name, metric in tracing.OUTPUT_FILES.items()}
    m["pipeline.output_mb"] = sum(sizes.values()) / 1e6
    return m


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--dir", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    {"prepare": prepare, "probe": probe, "measure": measure}[args.cmd](args)


if __name__ == "__main__":
    main()
