"""Goursat characteristic problems for the representation kernels w1, w2.

Both kernels satisfy w_tt - w_xx + q(x) w = 0 on the light cone
{0 < |x| < t < horizon}, with integrated diagonal data anchored at the
zero corner value w(0, 0) = 0:

    w1(x, x)  = -Q(x)/4   (x > 0)        w1(x, -x) = -Q(x)/4   (x < 0)
    w2(x, x)  = +Q(x)/4   (x > 0)        w2(x, -x) = -Q(x)/4   (x < 0)

where Q(x) = int_0^x q.  In characteristic coordinates xi = t + x,
eta = t - x the PDE reads 4 w_xi_eta = -q((xi - eta)/2) w and the data
lives on the lattice boundary xi = 0 / eta = 0, so a plain cell-by-cell
march is second-order with no extrapolation at the cone boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid as _cumtrap

from .errors import DomainError
from .grid import UniformGrid, write_csv
from .potentials import Potential


def diagonal_data(p: Potential, x, which: str, side: str):
    """Kernel value on the characteristic diagonal t = x (side='right',
    x >= 0) or t = -x (side='left', x <= 0)."""
    x = np.asarray(x, dtype=float)
    if which not in ("w1", "w2"):
        raise ValueError("which must be 'w1' or 'w2'")
    if side == "right":
        if np.any(x < 0):
            raise DomainError("side='right' needs x >= 0")
        sign = -0.25 if which == "w1" else 0.25
    elif side == "left":
        if np.any(x > 0):
            raise DomainError("side='left' needs x <= 0")
        sign = -0.25
    else:
        raise ValueError("side must be 'right' or 'left'")
    return sign * p.cumint(x)


@dataclass(frozen=True)
class Traces:
    """x = 0 traces of the solved kernels on [0, horizon].

    ``continuity`` holds, per kernel, the mismatch between the one-sided
    x-derivative estimates from x > 0 and x < 0 (a discretization
    residual; the continuum kernels are C^1 across x = 0).
    """

    grid: UniformGrid
    w1: np.ndarray
    w2: np.ndarray
    w1x: np.ndarray
    w2x: np.ndarray
    continuity: np.ndarray  # shape (2, n+1)


class KernelField:
    """Solved kernels on the light cone, stored on the characteristic
    lattice W[a, b] ~ w(xi = a h, eta = b h).

    Grid-node access goes through :meth:`value`, which maps (k, i) with
    |i| <= k to lattice indices (k + i, k - i); points outside the cone
    are rejected rather than silently read.
    """

    def __init__(self, grid: UniformGrid, W1: np.ndarray, W2: np.ndarray):
        self.grid = grid
        self.W1 = W1
        self.W2 = W2
        self._traces = None

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def _lattice(self, which):
        return self.W1 if which == "w1" else self.W2

    def value(self, which: str, k: int, i: int) -> float:
        """Kernel value at (x, t) = (i*h, k*h); requires |i| <= k."""
        if abs(i) > k:
            raise DomainError("point (k=%d, i=%d) lies outside the cone" % (k, i))
        return self._lattice(which)[k + i, k - i]

    def column(self, which: str, i: int, ks: np.ndarray) -> np.ndarray:
        """Values w(x_i, t_k) for an array of time indices ks >= |i|."""
        if np.any(ks < abs(i)):
            raise DomainError("time indices dip below the cone boundary")
        return self._lattice(which)[ks + i, ks - i]

    def traces(self) -> Traces:
        if self._traces is None:
            self._traces = extract_traces(self)
        return self._traces

    def dump_csv(self, path) -> None:
        """Cone field dump: columns t, x, w1, w2, one block per time level.

        Level k holds the nodes i = -k..k, i.e. the lattice anti-diagonal
        a + b = 2k from a = 0 upwards, read as a view rather than gathered
        into a new array (see :func:`bcwave.grid.write_csv`)."""
        h = self.grid.h

        def levels():
            for k in range(self.grid.n + 1):
                m = 2 * k + 1
                yield (np.full(m, k * h), np.arange(-k, k + 1) * h,
                       np.diagonal(self.W1[:m, m - 1::-1]),
                       np.diagonal(self.W2[:m, m - 1::-1]))

        write_csv(path, ["t", "x", "w1", "w2"], levels())


def _boundary_arrays(p: Potential, grid: UniformGrid, which: str):
    """Diagonal data along eta = 0 (x = xi/2) and xi = 0 (x = -eta/2)."""
    m = 2 * grid.n
    xi_half = 0.5 * grid.h * np.arange(m + 1)
    right = diagonal_data(p, xi_half, which, "right")
    left = diagonal_data(p, -xi_half, which, "left")
    return right, left


def _check_support(p: Potential, grid: UniformGrid):
    if p.support < grid.horizon * (1.0 - 1e-12):
        raise DomainError(
            "potential support radius %g does not cover the horizon %g"
            % (p.support, grid.horizon)
        )


def _midpoint_q(p: Potential, grid: UniformGrid) -> np.ndarray:
    """q at cell midpoints, indexed by the lattice offset d = a - b."""
    m = 2 * grid.n
    d = np.arange(-m, m + 1)
    return np.asarray(p(0.5 * grid.h * d), dtype=float)


def solve_kernels(p: Potential, grid: UniformGrid) -> KernelField:
    """March both Goursat problems over the characteristic lattice.

    Both lattices live in one block.  From grid.n = 724 up the block is
    over glibc's 32 MB ceiling for serving a request from the heap, so it
    is always mmapped and unmapped again when the field is dropped.  Two
    separate lattices are served from the heap once the first one has
    been freed; a small allocation left between their holes then makes a
    later solve grow the heap by a whole lattice, so repeated solves in
    one process reach a peak RSS that differs from run to run.
    """
    _check_support(p, grid)
    m = 2 * grid.n
    qd = _midpoint_q(p, grid)
    lattices = np.zeros((2, m + 1, m + 1))
    for W, which in zip(lattices, ("w1", "w2")):
        right, left = _boundary_arrays(p, grid, which)
        W[:, 0] = right
        W[0, :] = left
        _march(W, qd, grid.h)
    return KernelField(grid, lattices[0], lattices[1])


def _march(W, qd, h):
    """Characteristic-cell march over the lattice W, in place.

    The recurrence couples each anti-diagonal a + b = s only to the two
    previous ones, so the update vectorizes wavefront by wavefront.
    """
    m = W.shape[0] - 1
    coef = 0.125 * h * h
    for s in range(2, 2 * m + 1):
        a = np.arange(max(1, s - m), min(s - 1, m) + 1)
        if len(a) == 0:
            continue
        b = s - a
        wa = W[a - 1, b]
        wb = W[a, b - 1]
        W[a, b] = wa + wb - W[a - 1, b - 1] - coef * qd[a - b + m] * (wa + wb)
    return W


def picard_oracle(p: Potential, grid: UniformGrid, iterations: int) -> KernelField:
    """Independent verification oracle for :func:`solve_kernels`.

    Solves the equivalent characteristic integral equation

        w(xi, eta) = a(xi) + b(eta)
                     - 1/4 * int_0^xi int_0^eta q((al - be)/2) w(al, be)

    by fixed-point iteration with trapezoid quadrature.  ``iterations``
    applications of the integral map reproduce the Picard series through
    order ``iterations`` in q.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_support(p, grid)
    m = 2 * grid.n
    h = grid.h
    a_idx, b_idx = np.meshgrid(np.arange(m + 1), np.arange(m + 1),
                               indexing="ij")
    Q = np.asarray(p(0.5 * h * (a_idx - b_idx)), dtype=float)

    def cum2d(F):
        out = _cumtrap(F, dx=h, axis=0, initial=0.0)
        return _cumtrap(out, dx=h, axis=1, initial=0.0)

    field = []
    for which in ("w1", "w2"):
        right, left = _boundary_arrays(p, grid, which)
        W0 = right[:, None] + left[None, :]
        W = W0
        for _ in range(iterations):
            W = W0 - 0.25 * cum2d(Q * W)
        field.append(W)
    return KernelField(grid, field[0], field[1])


def _trace_derivative(W: np.ndarray, n: int, h: float):
    """Symmetric average of one-sided x-derivatives at x = 0, plus the
    left/right mismatch as a continuity residual."""
    k = np.arange(n + 1)
    mid = W[k, k]
    deriv = np.zeros(n + 1)
    resid = np.zeros(n + 1)

    k2 = k[k >= 2]
    right = (-3.0 * W[k2, k2] + 4.0 * W[k2 + 1, k2 - 1] - W[k2 + 2, k2 - 2]) / (2 * h)
    left = (3.0 * W[k2, k2] - 4.0 * W[k2 - 1, k2 + 1] + W[k2 - 2, k2 + 2]) / (2 * h)
    deriv[2:] = 0.5 * (right + left)
    resid[2:] = np.abs(right - left)

    if n >= 1:
        # only x = 0, +-h available: central difference, first-order sides
        deriv[1] = (W[2, 0] - W[0, 2]) / (2 * h)
        resid[1] = abs((W[2, 0] - mid[1]) / h - (mid[1] - W[0, 2]) / h)
    # corner: quadratic extrapolation from the first interior estimates
    deriv[0] = 3.0 * deriv[1] - 3.0 * deriv[2] + deriv[3]
    resid[0] = 0.0
    return deriv, resid


def extract_traces(field: KernelField) -> Traces:
    grid = field.grid
    n, h = grid.n, grid.h
    k = np.arange(n + 1)
    w1 = field.W1[k, k].copy()
    w2 = field.W2[k, k].copy()
    w1x, res1 = _trace_derivative(field.W1, n, h)
    w2x, res2 = _trace_derivative(field.W2, n, h)
    return Traces(grid, w1, w2, w1x, w2x, np.vstack([res1, res2]))
