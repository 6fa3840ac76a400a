"""Command-line entry point.

Each pipeline stage is independently invokable, with its prerequisites;
``roundtrip`` runs the inverse routes, ``run`` the config's stages and
``selftest`` a built-in small configuration checked against loose
thresholds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import ALL_STAGES, INVERSE_STAGES, RunConfig, parse_config
from .errors import BCWaveError
from .pipeline import run_pipeline

#: The stages each stage command asks for; ``run`` keeps the config's.
_STAGE_SETS = {**{name: (name,) for name in ALL_STAGES},
               "spectral": ("connect", "spectral"),
               "roundtrip": INVERSE_STAGES}

SELFTEST_CONFIG = """\
{
  "potential": {"kind": "gaussian", "amplitude": 1.5, "center": 0.3,
                "width": 0.25},
  "T": 1.0, "n": 64,
  "spectral": {"N": 4.0, "cutoff": 150, "mesh": 1024},
  "out": "selftest_out"
}
"""

#: The upper bounds ``selftest`` checks on the metrics of its
#: configuration: (stage, metric, bound).
GATES = (
    ("response", "compatibility_residual", 1e-2),
    ("connect", "block_symmetry_residual", 1e-2),
    ("krein", "q_rel_error", 0.05),
    ("gl", "q_rel_error", 0.05),
    ("gl", "krein_gl_agreement", 0.07),
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcwave",
        description="Boundary-control inverse pipeline for the 1-D wave "
                    "equation with a potential on the line.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*_STAGE_SETS, "run", "selftest"):
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
        text = SELFTEST_CONFIG
    else:
        with open(args.config) as fh:
            text = fh.read()
    changes = {}
    if args.command in _STAGE_SETS:
        changes["stages"] = _STAGE_SETS[args.command]
    if args.out:
        changes["out"] = args.out
    if args.paper_sign:
        changes["sign"] = "paper"
    if args.seed is not None:
        changes["seed"] = args.seed
    return replace(parse_config(text), **changes)


def _selftest_verdict(report) -> bool:
    metrics = {s["name"]: s.get("metrics", {}) for s in report["stages"]}
    ok = report["ok"]
    for stage, key, bound in GATES:
        value = metrics.get(stage, {}).get(key)
        # a missing metric, or a non-finite one (None), fails
        good = value is not None and value <= bound
        print("%-40s %s  (%s <= %g)" % ("%s.%s" % (stage, key),
              "pass" if good else "FAIL", value, bound))
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
