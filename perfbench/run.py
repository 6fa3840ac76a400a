"""End-to-end and per-layer benchmark of the bcwave pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Run it from the root of a source checkout: it imports bcwave from
``src`` and needs no build.  Each run

1. draws the seed's panel of Gaussian potentials (and, for the CSV
   workload, writes their response CSVs with an untimed forward run);
2. times several fresh interpreters that import bcwave and run a tiny
   (n = 16) invocation of the workload's stages: ``setup_s``;
3. in one fresh process, warms up and then times warm
   ``run_pipeline(parse_config(text))`` calls for S seconds, cycling
   through the panel.  Every invocation is checked: report.ok, the
   selftest accuracy gates on the recovered q, and sha256 of every output
   file against the first run of the same input.  A miss is a failed
   invocation and is left out of the timing samples.

With ``--trace 1`` the same loop alternates untraced and traced
invocations and reports per-layer metrics from spans recorded around
bcwave's stage runners, public functions and CSV writers (see
tracing.py).  Every child process runs with the BLAS pool pinned to one
thread.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metric names,
units and directions are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
#: Environment of every child process: one BLAS thread, so that runs are
#: comparable and OpenBLAS's thread pool cannot stall on a small shared
#: machine.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
#: Wall-clock limit of one whole run, in seconds.
RUN_LIMIT = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed
    invocation of the program, which is counted)."""


def _declared(kind: str) -> list:
    """BENCHMARK.json's metrics of one kind ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def _child(args: list, deadline: float) -> None:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before worker %s" % args[0])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s did not finish in time" % args[0])
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d:\n%s" % (
            args[0], proc.returncode, proc.stderr.strip()))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return its summary (see _report)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bcwave", "pipeline.py")):
        raise BenchError("no bcwave sources under %s" % os.path.join(ROOT,
                                                                    "src"))
    deadline = time.monotonic() + RUN_LIMIT
    work = os.path.join(ROOT, ".perfbench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        _child(["prepare", "--workload", name, "--seed", str(seed),
                "--dir", work], deadline)
        setup = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            _child(["probe", "--dir", work], deadline)
            setup.append(time.perf_counter() - t0)
        _child(["measure", "--dir", work, "--seconds", str(seconds),
                "--trace", str(trace)], deadline)
        with open(os.path.join(work, "inputs.json")) as fh:
            inputs = json.load(fh)
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
        for f in os.listdir(work):
            if f.endswith(".csv"):
                os.remove(os.path.join(work, f))
    return _report(name, seed, trace, inputs, result, setup)


def _report(name, seed, trace, inputs, result, setup) -> dict:
    invs = result["invocations"]
    failed = [v for v in invs if not v["ok"]]
    walls = [v["wall_s"] for v in invs
             if v["ok"] and v["sample"] and not v["traced"]]
    accs = [a for a in result["accuracy"] if a is not None]
    metrics = {}
    if trace:
        metrics.update(result.get("per_layer", {}))
        traced = [v["wall_s"] for v in invs if v["ok"] and v["traced"]]
        if walls and traced:
            metrics["trace.wall_traced_s"] = statistics.median(traced)
            metrics["trace.wall_untraced_s"] = statistics.median(walls)
            metrics["trace.overhead_s"] = (metrics["trace.wall_traced_s"]
                                           - metrics["trace.wall_untraced_s"])
    else:
        if walls:
            metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        if accs:
            for key in accs[0]:
                metrics[key] = statistics.fmean(a[key] for a in accs)
    return {"workload": name, "seed": seed, "trace": trace,
            "inputs": inputs["panel"], "environment": result["environment"],
            "invocations": invs, "failed": len(failed), "walls": walls,
            "setup": setup, "metrics": metrics,
            "missing_spans": result.get("missing_spans", []),
            "measured_s": result["measured_s"]}


def _tail(walls: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return "no percentile above the median has 10 samples beyond it"
    pct = 100.0 * (n - 10) / n
    return "p%.0f %.4f s" % (pct, sorted(walls)[n - 11])


def _print(summary: dict, declared: list) -> dict:
    """Print a summary for people; return its declared metrics."""
    print("== workload %s  seed %d  trace %d  measured %.1f s" % (
        summary["workload"], summary["seed"], summary["trace"],
        summary["measured_s"]))
    for i, p in enumerate(summary["inputs"]):
        print("input %d: gaussian amplitude %.6f width %.6f center %+.6f" % (
            i, p["amplitude"], p["width"], p["center"]))
    env = summary["environment"]
    print("environment: " + "  ".join("%s=%s" % kv for kv in sorted(
        env.items())))
    for v in summary["invocations"]:
        print("  invocation %d  input %d  %-8s %s  %s" % (
            v["i"], v["member"], "traced" if v["traced"] else
            "untraced" if v["sample"] else "warm-up",
            "%.4f s (cpu %.4f s)" % (v["wall_s"], v["cpu_s"])
            if "wall_s" in v else "-",
            "ok" if v["ok"] else "FAILED: " + v["error"]))
    attempted = len(summary["invocations"])
    print("fail_rate %.4f (%d failed of %d attempted)" % (
        summary["failed"] / attempted, summary["failed"], attempted))
    print("setup probes: " + " ".join("%.4f" % t for t in summary["setup"]))
    if not summary["trace"]:
        print("wall_s samples %d; %s" % (len(summary["walls"]),
                                         _tail(summary["walls"])))
    metrics = {}
    for d in declared:
        value = summary["metrics"].get(d["name"])
        if value is None:
            print("%-40s MISSING" % d["name"])
            continue
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        print("%-40s %14.6g %-8s (%s is better)" % (
            d["name"], value, d["unit"], d["better"]))
    if summary["trace"]:
        m = summary["metrics"]
        if "goursat.solve_kernels_share" in m:
            print("compiled-march decision input: the march is %.1f%% and the "
                  "kernels stage %.1f%% of wall_s (delete the compiled "
                  "backend below 10%%)" % (
                      100 * m["goursat.solve_kernels_share"],
                      100 * m["stage.kernels_share"]))
        print("missing spans: %s" % (", ".join(summary["missing_spans"])
                                     or "none"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        declared = _declared("per_layer" if args.trace else "end_to_end")
        summaries = [run_workload(n, args.seed, args.seconds, args.trace)
                     for n in names]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2
    correct = True
    attempted = failed = 0
    metrics = {}
    for s in summaries:
        m = _print(s, declared)
        complete = len(m) == len(declared) and not s["missing_spans"]
        correct = correct and s["failed"] == 0 and complete
        attempted += len(s["invocations"])
        failed += s["failed"]
        if len(summaries) == 1:
            metrics = m
        else:
            metrics.update({"%s/%s" % (s["workload"], k): v
                            for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
