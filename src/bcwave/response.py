"""The response matrix and the response operator it defines.

The response matrix packages the x = 0 kernel traces,

    r11 = w1_x(0,.)   r12 = w2_x(0,.)   r21 = -w1(0,.)   r22 = -w2(0,.),

on [0, 2T]; its CSV form is the canonical inverse-data artifact.  The
inverse stages consume only this object, never the kernel field.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IngestionError
from .goursat import KernelField
from .grid import (Control, UniformGrid, conv_trapezoid, differentiate,
                   write_csv)


@dataclass(frozen=True)
class ResponseMatrix:
    """Sampled 2x2 response kernel on [0, horizon] (horizon = 2T)."""

    grid: UniformGrid
    r11: np.ndarray
    r12: np.ndarray
    r21: np.ndarray
    r22: np.ndarray

    def compatibility_residual(self) -> float:
        """max_s |r21'(s) - r12(s)|.

        The entries of a consistent response matrix satisfy r21' = +r12
        (for an even potential both sides vanish identically, so the
        residual is zero either way)."""
        d = differentiate(self.r21, self.grid.h)
        return float(np.max(np.abs(d - self.r12)))

    def write_csv(self, path) -> None:
        write_csv(path, ["t", "r11", "r12", "r21", "r22"],
                  [(self.grid.t, self.r11, self.r12, self.r21, self.r22)])


def read_response_csv(path, min_horizon: float | None = None) -> ResponseMatrix:
    """Load a response matrix CSV (header t,r11,r12,r21,r22, uniform t
    starting at 0, an even number of at least 16 steps)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["t", "r11", "r12", "r21", "r22"]:
        raise IngestionError("expected header 't,r11,r12,r21,r22' in %s" % path)
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise IngestionError("row %d: expected 5 columns, got %d" % (ln, len(row)))
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise IngestionError("row %d: %s" % (ln, exc))
        if not all(math.isfinite(v) for v in vals):
            raise IngestionError("row %d: non-finite value" % ln)
        data.append(vals)
    if not data:
        raise IngestionError("response CSV %s has no data rows" % path)
    arr = np.array(data)
    t = arr[:, 0]
    steps = len(t) - 1
    if steps > 0:
        h = t[1] - t[0]
        if (abs(t[0]) > 1e-12 or h <= 0
                or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0)):
            raise IngestionError("time column must be uniform and start at 0")
    # the inverse stages run on half the file's grid, which needs at
    # least 8 steps
    if steps < 16 or steps % 2:
        raise IngestionError(
            "response CSV %s has %d time steps; the inverse stages need an "
            "even number of at least 16" % (path, steps))
    horizon = t[-1]
    if min_horizon is not None and horizon < min_horizon * (1.0 - 1e-9):
        raise IngestionError(
            "response horizon %g is shorter than the required %g"
            % (horizon, min_horizon)
        )
    grid = UniformGrid(horizon, steps)
    return ResponseMatrix(grid, arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])


def response_matrix(field: KernelField) -> ResponseMatrix:
    tr = field.traces()
    return ResponseMatrix(field.grid, tr.w1x.copy(), tr.w2x.copy(),
                          -tr.w1, -tr.w2)


def apply_response(r: ResponseMatrix, f: Control) -> Control:
    """R^T F = -1/2 (f1', -f2)^T + R * (f1, f2)^T, convolutions by
    trapezoid on the shared grid.  Consumes the ResponseMatrix only.
    f1' is the control's analytic derivative where it carries one, else
    its grid derivative (:meth:`~bcwave.grid.Control.derivative`)."""
    h = r.grid.h
    if abs(f.grid.h - h) > 1e-12 * h:
        raise DomainError("control and response matrix use different steps")
    nf = f.grid.n
    if nf > r.grid.n:
        raise DomainError("control horizon exceeds the response horizon")
    d1, _ = f.derivative()
    out1 = (-0.5 * d1
            + conv_trapezoid(r.r11[: nf + 1], f.f1, h)
            + conv_trapezoid(r.r12[: nf + 1], f.f2, h))
    out2 = (0.5 * f.f2
            + conv_trapezoid(r.r21[: nf + 1], f.f1, h)
            + conv_trapezoid(r.r22[: nf + 1], f.f2, h))
    return Control(f.grid, out1, out2)
