"""Command-line entry point.

Each pipeline stage is independently invokable; ``roundtrip`` runs the
forward stages plus both inverse routes, ``selftest`` runs a built-in
small configuration and checks its metrics against loose thresholds.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ALL_STAGES, RunConfig, parse_config
from .errors import BCWaveError
from .pipeline import run_pipeline

_STAGE_SETS = {
    "kernels": ("kernels",),
    "response": ("kernels", "response"),
    "connect": ("kernels", "response", "connect"),
    "krein": ("kernels", "response", "krein"),
    "gl": ("kernels", "response", "gl"),
    "spectral": ("kernels", "response", "connect", "spectral"),
    "roundtrip": ("kernels", "response", "connect", "krein", "gl"),
    "run": ALL_STAGES,
}

SELFTEST_CONFIG = """\
{
  "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                "width": 0.3},
  "T": 1.0, "n": 64,
  "spectral": {"N": 4.0, "cutoff": 150, "mesh": 1024},
  "out": "selftest_out"
}
"""


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcwave",
        description="Boundary-control inverse pipeline for the 1-D wave "
                    "equation with a potential on the line.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("kernels", "response", "connect", "krein", "gl", "spectral",
                 "roundtrip", "run", "selftest"):
        sp = sub.add_parser(name)
        if name != "selftest":
            sp.add_argument("--config", required=True,
                            help="path to the JSON run configuration")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--paper-sign", action="store_true",
                        help="use the printed left half-line sign convention")
        sp.add_argument("--seed", type=int,
                        help="override the RNG seed for generated controls")
    return ap


def _load_config(args) -> RunConfig:
    if args.command == "selftest":
        cfg = parse_config(SELFTEST_CONFIG)
    else:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    if args.command in _STAGE_SETS:
        wanted = _STAGE_SETS[args.command]
        if cfg.response_csv is not None:
            wanted = tuple(s for s in wanted
                           if s not in ("kernels", "response", "spectral"))
        else:
            wanted = tuple(s for s in wanted if s in cfg.stages
                           or args.command != "run")
        cfg.stages = wanted
    if args.out:
        cfg.out = args.out
    if args.paper_sign:
        cfg.sign = "paper"
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


_SELFTEST_GATES = (
    ("response", "compatibility_residual", 1e-2),
    ("connect", "block_symmetry_residual", 1e-2),
    ("krein", "q_rel_error", 0.05),
    ("gl", "q_rel_error", 0.05),
    ("gl", "krein_gl_agreement", 0.07),
)


def _selftest_verdict(report) -> bool:
    metrics = {s["name"]: s.get("metrics", {}) for s in report["stages"]}
    ok = report["ok"]
    for stage, key, bound in _SELFTEST_GATES:
        val = metrics.get(stage, {}).get(key)
        good = val is not None and val <= bound
        print("%-40s %s  (%s <= %g)" % (
            "%s.%s" % (stage, key), "pass" if good else "FAIL", val, bound))
        ok = ok and good
    return ok


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = run_pipeline(cfg)
    except (BCWaveError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for stage in report["stages"]:
        line = "%-10s %s" % (stage["name"], stage["status"])
        if stage["status"] != "ok":
            line += "  (%s)" % stage.get("error", "")
        print(line)
    if args.command == "selftest":
        if not _selftest_verdict(report):
            return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
