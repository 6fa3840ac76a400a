"""Gelfand-Levitan route: kernel m of (I+K)^{-1} - I and q from its diagonal.

Two independent constructions of m are provided:

* :func:`invert_volterra` -- from forward kernel data, by block triangular
  back-substitution of (I+K)(I+M) = I (test-support path);
* :func:`solve_gl` -- from response data alone, solving the second-kind
  equation m(x,s) + C~(x,s) + int_0^s C~(x,a) m(a,s) da = 0 column by
  column, where C~(t,s) = 2 C(T-t, T-s) is the doubled time-reflected
  connecting kernel (the kernel of J (2 C^T) J^T - I = K + K* + K*K).

On the diagonal m(x,x) = -k(x,x), and the potential follows from
q(x) = 2 d/dx [m11(x,x) - m12(x,x)] with the left half-line recovered
from the sum diagonal (sign convention selectable, see recover_q_from_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import ConnectingKernel, build_connecting, reflect_kernel
from .errors import GridMismatchError, ReconstructionError
from .goursat import KernelField
from .grid import (UniformGrid, differentiate, row_trapezoid_weights,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix, operator_k_matrix

#: Tikhonov shift, relative to trace/size, for near-singular column systems.
TIKHONOV_RELATIVE = 1e-10


@dataclass(frozen=True)
class OperatorM:
    """Block kernel m_ij(x, s) on [0, T]^2, zero for s < x (Volterra).

    Row index is x, column index is s; ``regularized`` flags the columns
    (if any) whose solve needed a Tikhonov shift.
    """

    grid: UniformGrid
    m11: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m22: np.ndarray
    regularized: tuple = ()

    def diagonals(self):
        """(m11(x,x), m12(x,x), m21(x,x), m22(x,x)) as node arrays."""
        return (np.diag(self.m11).copy(), np.diag(self.m12).copy(),
                np.diag(self.m21).copy(), np.diag(self.m22).copy())

    def dump_csv(self, path) -> None:
        """Columns x, s, m11, m12, m21, m22 on s >= x, one block per x row."""
        t = self.grid.t
        rows = ((np.full(len(t) - i, t[i]), t[i:], self.m11[i, i:],
                 self.m12[i, i:], self.m21[i, i:], self.m22[i, i:])
                for i in range(len(t)))
        write_csv(path, ["x", "s", "m11", "m12", "m21", "m22"], rows)


def _kernel_from_nystrom(A: np.ndarray, n_half: int, h: float):
    """Divide out the per-row quadrature weights of a Volterra Nystrom
    matrix; the weightless corner (n, n) is filled by quadratic
    extrapolation along the diagonal."""
    m = n_half + 1
    w = row_trapezoid_weights(n_half, h)
    safe = np.where(w > 0.0, w, 1.0)
    blocks = []
    for bi in (0, 1):
        for bj in (0, 1):
            k = np.where(w > 0.0, A[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m]
                         / safe, 0.0)
            d = np.diag(k)
            k[n_half, n_half] = 3.0 * d[n_half - 1] - 3.0 * d[n_half - 2] \
                + d[n_half - 3]
            blocks.append(k)
    return blocks


def invert_volterra(field: KernelField, n_half: int) -> OperatorM:
    """M with (I+K)(I+M) = I by block back-substitution, K from forward
    kernel data.

    In node-major ordering I+K is block upper triangular with 2x2
    diagonal blocks, so the inverse is computed exactly (up to roundoff)
    bottom-up; no dense solve is involved.
    """
    K = operator_k_matrix(field, n_half)
    m = n_half + 1
    h = field.grid.h
    # node-major permutation: stacked index (comp*m + i) -> 2*i + comp
    perm = np.empty(2 * m, dtype=np.intp)
    perm[0::2] = np.arange(m)
    perm[1::2] = m + np.arange(m)
    A = (np.eye(2 * m) + K)[np.ix_(perm, perm)]
    X = np.zeros_like(A)
    eye2 = np.eye(2)
    for i in range(m - 1, -1, -1):
        r = slice(2 * i, 2 * i + 2)
        t = slice(2 * i + 2, 2 * m)
        rhs = np.zeros((2, 2 * m))
        rhs[:, 2 * i:2 * i + 2] = eye2
        rhs -= A[r, t] @ X[t]
        X[r] = np.linalg.solve(A[r, r], rhs)
    inv = np.argsort(perm)
    M = X[np.ix_(inv, inv)] - np.eye(2 * m)
    grid = UniformGrid(n_half * h, n_half)
    return OperatorM(grid, *_kernel_from_nystrom(M, n_half, h))


def gl_kernel(ck: ConnectingKernel) -> ConnectingKernel:
    """C~ = twice the time-reflected connecting kernel."""
    rk = reflect_kernel(ck)
    return ConnectingKernel(rk.grid, 2.0 * rk.c11, 2.0 * rk.c12,
                            2.0 * rk.c21, 2.0 * rk.c22)


def solve_gl(ck: ConnectingKernel) -> OperatorM:
    """Solve the second-kind equation for m column by column.

    For fixed s_j the unknown column m(., s_j) lives on the x-nodes
    0..j and satisfies (I + C~|_{[0,s_j]^2} W) m = -C~(., s_j); both
    matrix columns share the system matrix, so each column index costs
    one dense solve with two right-hand sides.
    """
    ct = gl_kernel(ck)
    n = ck.grid.n
    h = ck.grid.h
    m11 = np.zeros((n + 1, n + 1))
    m12 = np.zeros((n + 1, n + 1))
    m21 = np.zeros((n + 1, n + 1))
    m22 = np.zeros((n + 1, n + 1))
    regularized = []
    for j in range(n + 1):
        k = j + 1
        w = trapezoid_weights(j, h) if j else np.zeros(1)
        A = np.eye(2 * k) + np.block(
            [[ct.c11[:k, :k] * w, ct.c12[:k, :k] * w],
             [ct.c21[:k, :k] * w, ct.c22[:k, :k] * w]])
        rhs = -np.stack([np.concatenate([ct.c11[:k, j], ct.c21[:k, j]]),
                         np.concatenate([ct.c12[:k, j], ct.c22[:k, j]])],
                        axis=1)
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            shift = TIKHONOV_RELATIVE * np.trace(A) / (2 * k)
            sol = np.linalg.solve(A + shift * np.eye(2 * k), rhs)
            regularized.append(j)
        m11[:k, j] = sol[:k, 0]
        m21[:k, j] = sol[k:, 0]
        m12[:k, j] = sol[:k, 1]
        m22[:k, j] = sol[k:, 1]
    return OperatorM(ck.grid, m11, m12, m21, m22, tuple(regularized))


def gl_from_response(r: ResponseMatrix, n_half: int | None = None) -> OperatorM:
    """Response CSV/matrix -> connecting kernel -> GL solve."""
    return solve_gl(build_connecting(r, n_half))


def m_action_matrix(M: OperatorM) -> np.ndarray:
    """Nystrom action matrix of M on stacked nodal controls (per-row
    trapezoid weights over [x, T], mirroring the K discretization)."""
    w = row_trapezoid_weights(M.grid.n, M.grid.h)
    return np.block([[M.m11 * w, M.m12 * w], [M.m21 * w, M.m22 * w]])


def operator_identity_residual(ck: ConnectingKernel, M: OperatorM) -> float:
    """max-norm residual of (I+M)* (I+C~) (I+M) = I with the quadrature-
    weighted discrete adjoint (A* = W^{-1} A^T W)."""
    if M.grid != ck.grid:
        raise GridMismatchError("kernel grids differ")
    n, h = ck.grid.n, ck.grid.h
    ct = gl_kernel(ck)
    w = trapezoid_weights(n, h)
    wvec = np.concatenate([w, w])
    Ct = np.block([[ct.c11, ct.c12], [ct.c21, ct.c22]]) * wvec
    IM = np.eye(2 * (n + 1)) + m_action_matrix(M)
    IM_star = (IM.T * wvec) / wvec[:, None]
    R = IM_star @ (np.eye(2 * (n + 1)) + Ct) @ IM - np.eye(2 * (n + 1))
    return float(np.max(np.abs(R)))


def recover_q_from_m(M: OperatorM, sign: str = "derived"):
    """Potential samples on [-T, T] from the m diagonals.

    Right half: q(x) = 2 d/dx [m11(x,x) - m12(x,x)].  Left half uses the
    sum diagonal; ``sign="derived"`` applies q(-x) = +2 d/dx
    [m11(x,x) + m12(x,x)] (the convention validated by the off-center
    round trip), ``sign="paper"`` flips it.
    """
    if sign not in ("derived", "paper"):
        raise ValueError("sign must be 'derived' or 'paper'")
    d11, d12, _, _ = M.diagonals()
    if len(d11) < 5:
        raise ReconstructionError("diagonal shorter than 5 nodes")
    h = M.grid.h
    n = M.grid.n
    q_right = 2.0 * differentiate(d11 - d12, h)
    q_left = 2.0 * differentiate(d11 + d12, h)
    if sign == "paper":
        q_left = -q_left
    x = h * np.arange(-n, n + 1)
    q = np.empty(2 * n + 1)
    q[n:] = q_right
    q[:n] = q_left[:0:-1]
    q[n] = 0.5 * (q_right[0] + q_left[0])
    return x, q


def write_q_csv(path, x: np.ndarray, q: np.ndarray, route: str) -> None:
    write_csv(path, ["x", "q", "route"], [(np.asarray(x), np.asarray(q))],
              text=[route])
