"""Outside-in spans around bcwave's layer boundaries.

``Tracer.install`` replaces, by name, the stage runners of
``bcwave.pipeline``, the public functions that module imports, and the
CSV writers of the result classes with timing wrappers; ``uninstall``
puts the originals back.  The program itself is not edited.  A span is
``(id, name, start, end, parent id, invocation id)``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

PIPELINE = "bcwave.pipeline"

#: (span name, module, attribute, role).  A span must fire on every
#: workload whose roles include its role (see workloads.Workload.roles).
SPANS = (
    ("pipeline.run_pipeline", PIPELINE, "run_pipeline", "all"),
    ("stage.kernels", PIPELINE, "_stage_kernels", "forward"),
    ("stage.response", PIPELINE, "_stage_response", "forward"),
    ("stage.connect", PIPELINE, "_stage_connect", "inverse"),
    ("stage.krein", PIPELINE, "_stage_krein", "inverse"),
    ("stage.gl", PIPELINE, "_stage_gl", "inverse"),
    ("stage.spectral", PIPELINE, "_stage_spectral", "spectral"),
    ("goursat.solve_kernels", PIPELINE, "solve_kernels", "forward"),
    ("goursat.dump_csv", "bcwave.goursat", "KernelField.dump_csv", "forward"),
    ("response.response_matrix", PIPELINE, "response_matrix", "forward"),
    ("response.write_csv", "bcwave.response", "ResponseMatrix.write_csv",
     "forward"),
    ("response.read_response_csv", PIPELINE, "read_response_csv", "ingest"),
    ("response.apply_response", PIPELINE, "apply_response", "spectral"),
    ("connecting.build_connecting", PIPELINE, "build_connecting", "inverse"),
    ("connecting.assemble_matrix", PIPELINE, "assemble_matrix", "inverse"),
    ("connecting.dump_csv", "bcwave.connecting", "ConnectingKernel.dump_csv",
     "inverse"),
    ("connecting.connecting_form", PIPELINE, "connecting_form", "spectral"),
    ("krein.sweep_reconstruct", PIPELINE, "sweep_reconstruct", "inverse"),
    ("krein.write_csv", "bcwave.krein", "CauchyProfile.write_csv", "inverse"),
    ("gl.solve_gl", PIPELINE, "solve_gl", "inverse"),
    ("gl.operator_identity_residual", PIPELINE, "operator_identity_residual",
     "inverse"),
    ("gl.recover_q_from_m", PIPELINE, "recover_q_from_m", "inverse"),
    ("gl.dump_csv", "bcwave.gl", "OperatorM.dump_csv", "inverse"),
    ("gl.write_q_csv", PIPELINE, "write_q_csv", "inverse"),
    ("spectral.eigensolve", PIPELINE, "eigensolve", "spectral"),
    ("spectral.free_reference", PIPELINE, "free_reference", "spectral"),
    ("spectral.write_csv", "bcwave.spectral", "SpectralMeasure.write_csv",
     "spectral"),
    ("spectral.smoothed_response_traces", PIPELINE,
     "smoothed_response_traces", "spectral"),
    ("spectral.spectral_connecting_form", PIPELINE,
     "spectral_connecting_form", "spectral"),
)

#: Layer that owns a stage runner's self time (the stage outside the
#: wrapped calls it makes).
STAGE_LAYER = {"stage.kernels": "goursat", "stage.response": "response",
               "stage.connect": "connecting", "stage.krein": "krein",
               "stage.gl": "gl", "stage.spectral": "spectral",
               "pipeline.run_pipeline": "pipeline"}
LAYERS = ("goursat", "response", "connecting", "krein", "gl", "spectral",
          "pipeline")
STAGES = ("kernels", "response", "connect", "krein", "gl", "spectral",
          "ingest")

#: Output file -> per-layer byte-count metric.
OUTPUT_FILES = {"kernels.csv": "goursat.csv_mb",
                "response.csv": "response.csv_mb",
                "connecting.csv": "connecting.csv_mb",
                "krein_q.csv": "krein.csv_mb",
                "gl_kernel.csv": "gl.dump_csv_mb",
                "q_gl.csv": "gl.q_csv_mb",
                "measure.csv": "spectral.csv_mb"}

#: Exact counts read from the objects a wrapped call returns.
COUNTS = {
    "goursat.solve_kernels": lambda f: {
        "goursat.lattice_mb": (f.W1.nbytes + f.W2.nbytes) / 1e6},
    "krein.sweep_reconstruct": lambda p: {
        "krein.horizons_attempted": len(p.residuals),
        "krein.horizons_solved": int(np.count_nonzero(np.isfinite(p.residuals))),
        "krein.horizons_regularized": int(np.count_nonzero(p.regularized))},
    "gl.solve_gl": lambda m: {"gl.regularized_columns": len(m.regularized)},
}


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name + "_s", "s", "lower") for name, _, _, _ in SPANS]
    out += [("stage.ingest_s", "s", "lower")]
    out += [("stage.%s_share" % s, "fraction", "lower") for s in STAGES]
    out += [("%s.share" % layer, "fraction", "lower") for layer in LAYERS]
    out += [("goursat.solve_kernels_share", "fraction", "lower"),
            ("connecting.stage_self_s", "s", "lower"),
            ("pipeline.self_s", "s", "lower"),
            ("goursat.lattice_mb", "MB", "lower"),
            ("krein.horizons_attempted", "count", "higher"),
            ("krein.horizons_solved", "count", "higher"),
            ("krein.horizons_regularized", "count", "lower"),
            ("krein.horizons_solved_fraction", "fraction", "higher"),
            ("gl.regularized_columns", "count", "lower")]
    out += [(m, "MB", "lower") for m in OUTPUT_FILES.values()]
    out += [("pipeline.output_mb", "MB", "lower"),
            ("trace.wall_traced_s", "s", "lower"),
            ("trace.wall_untraced_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of a dotted attribute path."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Records spans while installed; ``invocation`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.invocation = None
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for name, module, attr, _ in SPANS:
            try:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key]
            except (ImportError, AttributeError, KeyError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.invocation]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts.setdefault(self.invocation, {}).update(count(result))
            return result

        return traced

    def invocation_metrics(self, inv) -> dict:
        """Per-layer times, shares and counts of one traced invocation."""
        spans = [s for s in self.spans if s[5] == inv]
        dur = {s[0]: s[3] - s[2] for s in spans}
        self_time = dict(dur)
        for s in spans:
            if s[4] is not None:
                self_time[s[4]] -= dur[s[0]]
        total = {}
        self_by_name = {}
        for s in spans:
            total[s[1]] = total.get(s[1], 0.0) + dur[s[0]]
            self_by_name[s[1]] = self_by_name.get(s[1], 0.0) + self_time[s[0]]
        wall = total.get("pipeline.run_pipeline", 0.0)
        m = {name + "_s": total.get(name, 0.0) for name, _, _, _ in SPANS}
        m["stage.ingest_s"] = total.get("response.read_response_csv", 0.0)
        layer = dict.fromkeys(LAYERS, 0.0)
        for name, t in self_by_name.items():
            layer[STAGE_LAYER.get(name, name.split(".")[0])] += t
        share = (lambda t: t / wall) if wall > 0 else (lambda t: 0.0)
        for s in STAGES:
            m["stage.%s_share" % s] = share(m["stage.%s_s" % s])
        for name, t in layer.items():
            m["%s.share" % name] = share(t)
        m["goursat.solve_kernels_share"] = share(m["goursat.solve_kernels_s"])
        m["connecting.stage_self_s"] = self_by_name.get("stage.connect", 0.0)
        m["pipeline.self_s"] = self_by_name.get("pipeline.run_pipeline", 0.0)
        counts = {"goursat.lattice_mb": 0.0, "krein.horizons_attempted": 0,
                  "krein.horizons_solved": 0, "krein.horizons_regularized": 0,
                  "gl.regularized_columns": 0}
        counts.update(self.counts.get(inv, {}))
        attempted = counts["krein.horizons_attempted"]
        counts["krein.horizons_solved_fraction"] = (
            counts["krein.horizons_solved"] / attempted if attempted else 0.0)
        m.update(counts)
        return m

    def fired(self) -> set:
        return {s[1] for s in self.spans}

    def dump(self) -> list:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "invocation": s[5]} for s in self.spans]


def median_metrics(per_invocation: list) -> dict:
    """Median of each metric over the traced invocations."""
    keys = per_invocation[0].keys()
    return {k: statistics.median(m[k] for m in per_invocation) for k in keys}
