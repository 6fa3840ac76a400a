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

import mmap
from dataclasses import dataclass

import numpy as np

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
    """Solved kernels on the light cone, stored level by level.

    ``W1`` and ``W2`` are 1-D arrays of (n+1)^2 values.  Level k (t = k h)
    holds the nodes i = -k..k (x = i h) at ``[k*k, (k+1)**2)``, so node
    (k, i) sits at ``k*k + k + i``; in characteristic coordinates level k
    is the anti-diagonal xi + eta = 2 k h, read from eta = 2 k h down.
    """

    def __init__(self, grid: UniformGrid, W1: np.ndarray, W2: np.ndarray):
        self.grid = grid
        self.W1 = W1
        self.W2 = W2
        self._traces = None

    def traces(self) -> Traces:
        if self._traces is None:
            self._traces = extract_traces(self)
        return self._traces

    def dump_csv(self, path) -> None:
        """Cone field dump: columns t, x, w1, w2, one block per time level.

        Each level is one contiguous slice of ``W1``/``W2``, written as a
        view (see :func:`bcwave.grid.write_csv`).  Its t and x are entries
        n + k and n - k..n + k of the coordinates i*h, i = -n..n."""
        n = self.grid.n

        def levels():
            for k in range(n + 1):
                lvl = slice(k * k, (k + 1) ** 2)
                yield (n + k, slice(n - k, n + k + 1), self.W1[lvl],
                       self.W2[lvl])

        write_csv(path, ["t", "x", "w1", "w2"], levels(),
                  coords=np.arange(-n, n + 1) * self.grid.h)


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
    """March both Goursat problems over the cone, level by level.

    Only the anti-diagonals xi + eta <= 2 horizon are marched: the even
    ones are the stored levels and the odd ones a rolling buffer.  Both
    kernels live in one anonymous memory map, 2 (n+1)^2 values, which is
    unmapped again when the field is dropped.  A block below glibc's
    32 MB mmap ceiling would be served from the heap and stay there after
    it is freed, so a later large allocation would stack on top of it.

    A march that overflows (q h^2 too large for the grid) raises
    :class:`DomainError`, so no non-finite field leaves it.
    """
    _check_support(p, grid)
    n = grid.n
    size = (n + 1) ** 2
    block = np.frombuffer(mmap.mmap(-1, 2 * size * 8)).reshape(2, size)
    right, left = zip(*(_boundary_arrays(p, grid, which)
                        for which in ("w1", "w2")))
    with np.errstate(over="ignore", invalid="ignore"):
        _march(block, np.array(right), np.array(left), _midpoint_q(p, grid),
               grid.h)
        # min and max hold any NaN or infinity, with no store-sized mask
        finite = np.isfinite([block.min(), block.max()]).all()
    if not finite:
        raise DomainError("the Goursat march overflows at step h = %g: "
                          "non-finite kernel values" % grid.h)
    return KernelField(grid, block[0], block[1])


def _march(levels, right, left, qd, h):
    """Characteristic-cell march of both kernels, in place.

    ``levels`` is the (2, (n+1)^2) level store of the two kernels, and
    ``right``/``left`` their data on eta = 0 and xi = 0.  Anti-diagonal
    s = xi/h + eta/h holds the cells a = 0..s (b = s - a); the recurrence
    couples it only to the two previous ones, so each anti-diagonal is
    one update of contiguous slices.  Even anti-diagonal 2k is level k;
    the odd ones only pass through ``odd``.
    """
    m = right.shape[1] - 1
    coef = 0.125 * h * h
    odd = np.empty((2, m + 1))
    levels[:, 0] = left[:, 0]
    odd[:, 0], odd[:, 1] = left[:, 1], right[:, 1]
    for s in range(2, m + 1):
        k = s // 2
        if s % 2 == 0:
            d1 = odd[:, :s]
            d2 = levels[:, (k - 1) ** 2:k * k]
            new = levels[:, k * k:(k + 1) ** 2]
        else:
            d1 = levels[:, k * k:(k + 1) ** 2]
            d2 = odd[:, :s - 1]
            new = odd[:, :s + 1]
        P, Q = d1[:, :-1], d1[:, 1:]
        # on odd s, d2 and new share ``odd``: the right-hand side is formed
        # in full before it is stored, and the ends are set after it
        new[:, 1:s] = P + Q - d2 - coef * qd[m - s + 2:m + s - 1:2] * (P + Q)
        new[:, 0], new[:, s] = left[:, s], right[:, s]


def _trace_derivative(W: np.ndarray, n: int, h: float):
    """Symmetric average of one-sided x-derivatives at x = 0, plus the
    left/right mismatch as a continuity residual."""
    k = np.arange(n + 1)
    c = k * k + k  # node (k, 0)
    mid = W[c]
    deriv = np.zeros(n + 1)
    resid = np.zeros(n + 1)

    c2 = c[2:]
    right = (-3.0 * W[c2] + 4.0 * W[c2 + 1] - W[c2 + 2]) / (2 * h)
    left = (3.0 * W[c2] - 4.0 * W[c2 - 1] + W[c2 - 2]) / (2 * h)
    deriv[2:] = 0.5 * (right + left)
    resid[2:] = np.abs(right - left)

    if n >= 1:
        # only x = 0, +-h available: central difference, first-order sides
        deriv[1] = (W[3] - W[1]) / (2 * h)
        resid[1] = abs((W[3] - mid[1]) / h - (mid[1] - W[1]) / h)
    # corner: quadratic extrapolation from the first interior estimates
    deriv[0] = 3.0 * deriv[1] - 3.0 * deriv[2] + deriv[3]
    resid[0] = 0.0
    return deriv, resid


def extract_traces(field: KernelField) -> Traces:
    grid = field.grid
    n, h = grid.n, grid.h
    k = np.arange(n + 1)
    c = k * k + k  # node (k, 0)
    w1 = field.W1[c]
    w2 = field.W2[c]
    w1x, res1 = _trace_derivative(field.W1, n, h)
    w2x, res2 = _trace_derivative(field.W2, n, h)
    return Traces(grid, w1, w2, w1x, w2x, np.vstack([res1, res2]))
