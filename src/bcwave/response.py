"""Forward solution, control operator and the response matrix/operator.

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

from .errors import DomainError, IngestionError, InternalConsistencyError
from .goursat import KernelField
from .grid import (
    Control,
    StateVector,
    UniformGrid,
    conv_trapezoid,
    differentiate,
    jt_apply,
    row_trapezoid_weights,
    s_apply,
    trapezoid_weights,
    write_csv,
)


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
    starting at 0)."""
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
    arr = np.array(data)
    if arr.shape[0] < 9:
        raise IngestionError("response CSV needs at least 9 rows")
    t = arr[:, 0]
    h = t[1] - t[0]
    if abs(t[0]) > 1e-12 or h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0):
        raise IngestionError("time column must be uniform and start at 0")
    horizon = t[-1]
    if min_horizon is not None and horizon < min_horizon * (1.0 - 1e-9):
        raise IngestionError(
            "response horizon %g is shorter than the required %g"
            % (horizon, min_horizon)
        )
    grid = UniformGrid(horizon, len(t) - 1)
    return ResponseMatrix(grid, arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])


def response_matrix(field: KernelField) -> ResponseMatrix:
    tr = field.traces()
    return ResponseMatrix(field.grid, tr.w1x.copy(), tr.w2x.copy(),
                          -tr.w1, -tr.w2)


def forward_solution(f: Control, field: KernelField, t: float) -> StateVector:
    """Evaluate u^F(., t) via the representation formula.

    Returns the state in the a1/a2 encoding on [0, t]; u vanishes for
    |x| > t (finite propagation speed), so the returned window is the
    full support.
    """
    h = field.grid.h
    if abs(f.grid.h - h) > 1e-12 * h:
        raise DomainError("control and kernel field use different steps")
    k = int(round(t / h))
    if abs(k * h - t) > 1e-9 * h:
        raise DomainError("t must be a grid node")
    if k > field.grid.n:
        raise DomainError("t exceeds the kernel horizon")
    if k > f.grid.n:
        raise DomainError("control is not defined up to t")

    W1, W2 = field.W1, field.W2
    f1, f2 = f.f1, f.f2
    a1 = np.empty(k + 1)
    a2 = np.empty(k + 1)
    for i in range(k + 1):
        j = np.arange(i, k + 1)
        c = j * j + j  # node (j, 0)
        g1 = f1[k - j]
        g2 = f2[k - j]
        w = np.full(k + 1 - i, h)
        w[0] = w[-1] = 0.5 * h
        if i == k:
            w[:] = 0.0
        # x = +i h
        integ = np.sum(w * (W1[c + i] * g1 + W2[c + i] * g2))
        a1[i] = 0.5 * f1[k - i] - 0.5 * f2[k - i] + integ
        # x = -i h
        integ = np.sum(w * (W1[c - i] * g1 + W2[c - i] * g2))
        a2[i] = -0.5 * f1[k - i] - 0.5 * f2[k - i] + integ
    return StateVector(field.grid.subgrid(k), a1, a2)


def operator_k_matrix(field: KernelField, n_half: int) -> np.ndarray:
    """Nystrom matrix of K = 2SW on [0, T]^2, T = n_half * h.

    Acts on stacked nodal controls [f1; f2]; strictly Volterra: entries
    vanish for s < x, and the s-integral over [x, T] uses trapezoid
    weights on the surviving nodes.
    """
    m = n_half + 1
    kk = operator_k_kernel(field, n_half)
    w = row_trapezoid_weights(n_half, field.grid.h)
    return (kk * w).transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)


def operator_k_kernel(field: KernelField, n_half: int) -> np.ndarray:
    """Pointwise block kernel k_ij(x, s) on the closed triangle x <= s,
    shape (2, 2, m, m); zero for s < x."""
    if n_half > field.grid.n:
        raise DomainError("kernel horizon too short for requested T")
    m = n_half + 1
    i_idx, j_idx = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    tri = j_idx >= i_idx
    c = j_idx * j_idx + j_idx
    plus = (c + i_idx) * tri   # level-store indices for +x
    minus = (c - i_idx) * tri  # level-store indices for -x
    w1p = np.where(tri, field.W1[plus], 0.0)
    w1m = np.where(tri, field.W1[minus], 0.0)
    w2p = np.where(tri, field.W2[plus], 0.0)
    w2m = np.where(tri, field.W2[minus], 0.0)
    return np.array([[w1p - w1m, w2p - w2m], [-w1p - w1m, -w2p - w2m]])


def control_operator_matrix(field: KernelField, n_half: int) -> np.ndarray:
    """Discrete W^T = S (I + K) J^T acting on stacked nodal controls."""
    m = n_half + 1
    K = operator_k_matrix(field, n_half)
    rev = np.zeros((2 * m, 2 * m))
    idx = np.arange(m)
    rev[idx, n_half - idx] = 1.0
    rev[m + idx, m + n_half - idx] = 1.0
    S = np.block([[0.5 * np.eye(m), -0.5 * np.eye(m)],
                  [-0.5 * np.eye(m), -0.5 * np.eye(m)]])
    return S @ (np.eye(2 * m) + K) @ rev


def control_operator(f: Control, field: KernelField) -> StateVector:
    """W^T F = u^F(., T) by the factored form S (I + K) J^T F.

    The factored result is checked against the direct evaluation of the
    representation formula; disagreement beyond quadrature tolerance
    signals a kernel or quadrature bug.
    """
    n_half = f.grid.n
    T = f.grid.horizon
    g = jt_apply(f)
    K = operator_k_matrix(field, n_half)
    v = g.stacked() + K @ g.stacked()
    m = n_half + 1
    state = s_apply(StateVector(f.grid, v[:m], v[m:]))

    direct = forward_solution(f, field, T)
    scale = max(np.max(np.abs(f.f1)), np.max(np.abs(f.f2)), 1e-30)
    tol = 100.0 * field.grid.h ** 2 * scale
    err = max(np.max(np.abs(state.a1 - direct.a1)),
              np.max(np.abs(state.a2 - direct.a2)))
    if err > tol:
        raise InternalConsistencyError(
            "factored and direct control operator disagree: %g > %g"
            % (err, tol)
        )
    return state


@dataclass(frozen=True)
class ResponseOutput:
    """Result of applying the response operator, with a flag raised when
    the -f1'/2 term had to be formed by grid differentiation of a control
    without an analytic derivative."""

    control: Control
    endpoint_warning: bool


def apply_response(r: ResponseMatrix, f: Control) -> ResponseOutput:
    """R^T F = -1/2 (f1', -f2)^T + R * (f1, f2)^T, convolutions by
    trapezoid on the shared grid.  Consumes the ResponseMatrix only."""
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
    return ResponseOutput(Control(f.grid, out1, out2),
                          endpoint_warning=not f.has_analytic_derivative)
