"""Workload definitions and the seeded input generator.

Every workload times warm ``run_pipeline(parse_config(text))`` calls, the
body of ``bcwave run``, cycling through a panel of seeded off-centre
Gaussian potentials.  The program only ever sees the generated config text (and,
for the CSV workload, the generated response CSV).

This module imports nothing beyond the standard library, so the parent
process can describe a run without importing numpy or bcwave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_STAGES = ("kernels", "response", "connect", "krein", "gl", "spectral")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                 # steps per horizon T
    stages: tuple          # stages named in the config
    from_csv: bool         # inverse-only run on a response CSV made at set-up
    roles: frozenset       # which groups of trace spans must fire
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("run-n256", 256, ALL_STAGES, False,
             frozenset({"all", "forward", "inverse", "spectral"}),
             "bcwave run with every stage and the default spectral settings; "
             "every layer does work"),
    Workload("invert-csv-n320", 320, ("connect", "krein", "gl"), True,
             frozenset({"all", "ingest", "inverse"}),
             "response CSV ingest, then connect, krein and gl; the O(n^4) "
             "inverse routes dominate and goursat/spectral do no work"),
    Workload("forward-n448", 448, ("kernels", "response"), False,
             frozenset({"all", "forward"}),
             "kernels and response only; the march, its (4n+1)^2 lattices "
             "and the kernel CSV dominate and the inverse layers do no work"),
)}

#: The horizon T of every workload.
T = 1.0
#: The panel of potentials of a run: one Gaussian per (|centre|, width)
#: design point, spread over the envelope of the test fixtures (amplitude
#: 1.0-1.5, width 0.25-0.3, centre up to 0.3 of either sign).  The seed
#: draws each member's amplitude and the sign of its centre.  Centre and
#: width are not drawn: the accuracy metrics move up to 7x with
#: centre/width (the GL error has a sharp minimum near centre = 0.7 width),
#: so drawing them would move a run's accuracy far more than any change to
#: the program could.  Every centre is off 0, so r12 and r21 are nonzero.
DESIGN = ((0.15, 0.3), (0.2, 0.25), (0.25, 0.3), (0.3, 0.25))
PANEL = len(DESIGN)
AMPLITUDE = (1.0, 1.5)
#: The tiny warm-up and set-up probe invocation.
WARMUP_N = 16
WARMUP_SPECTRAL = {"N": 4.0, "cutoff": 40, "mesh": 256}
#: Subsampling of forward-only response output before the cross-check
#: inversion (which costs O(n^4)).
CHECK_STEP = 4


def draw_panel(seed: int) -> list:
    """The seed's Gaussian potentials, as config dicts."""
    rng = random.Random(seed)
    return [{"kind": "gaussian", "amplitude": rng.uniform(*AMPLITUDE),
             "width": width, "center": rng.choice((-1.0, 1.0)) * centre}
            for centre, width in DESIGN]


def config(w: Workload, out: str, potential: dict | None = None,
           response_csv: str | None = None, n: int | None = None) -> dict:
    """The JSON config of one invocation of workload ``w``.  Passing ``n``
    makes the tiny warm-up config: that size, and small spectral settings."""
    cfg = {"T": T, "n": n or w.n, "stages": list(w.stages), "out": out}
    if response_csv is not None:
        cfg["response_csv"] = response_csv
    else:
        cfg["potential"] = potential
    if n is not None and "spectral" in w.stages:
        cfg["spectral"] = dict(WARMUP_SPECTRAL)
    return cfg
