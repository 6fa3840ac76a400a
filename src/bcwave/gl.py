"""Gelfand-Levitan route: kernel m of (I+K)^{-1} - I and q from its diagonal.

Two independent constructions of m are provided:

* :func:`invert_volterra` -- from forward kernel data, by block triangular
  back-substitution of (I+K)(I+M) = I (test-support path);
* :func:`solve_gl` -- from response data alone, solving the second-kind
  equation m(x,s) + C~(x,s) + int_0^s C~(x,a) m(a,s) da = 0 column by
  column, where C~(t,s) = 2 C(T-t, T-s) is the doubled time-reflected
  connecting kernel (the kernel of J (2 C^T) J^T - I = K + K* + K*K).

Scaled by W/2, the column system at s_j is the unsymmetrized matrix of
the Krein horizon j, so :func:`solve_gl` shares the Krein route's nested
Cholesky factor (:func:`~bcwave.connecting.nested_factor`), built once
per run with the reflected kernel
(:func:`~bcwave.connecting.assemble_matrix`): O(n^3/3) once, then
O(j^2) per column.  Column j uses only the rows of the nodes 0..j, so
the columns go in GL_PANELS panels, each solved and refined on the
leading rows of its last column.  The factor is of the symmetrized
matrix, so two steps of iterative refinement against the unsymmetrized
system I + C~ W follow, and m equals a dense per-column solve to
roundoff.  Columns past the factor's reach (see the Krein route), and
columns whose refinement has not converged, get that dense solve, with a
Tikhonov shift if the matrix is singular.

On the diagonal m(x,x) = -k(x,x), and the potential follows from
q(x) = 2 d/dx [m11(x,x) - m12(x,x)] with the left half-line recovered
from the sum diagonal (sign convention selectable, see recover_q_from_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import (TIKHONOV_RELATIVE, AssembledConnecting,
                         ConnectingKernel, NestedFactor, assemble_matrix,
                         build_connecting, reflect_kernel)
from .errors import GridMismatchError, ReconstructionError
from .goursat import KernelField
from .grid import (UniformGrid, differentiate, row_trapezoid_weights,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix, operator_k_matrix

#: Refinement steps against the unsymmetrized column systems after the
#: solve through the symmetrized factor, and the largest size of the last
#: step, relative to the column, that counts as converged.
REFINEMENT_STEPS = 2
REFINEMENT_TOLERANCE = 1e-10
#: Column panels of the factor's solves and refinement: panel p solves
#: only the leading rows its last column uses, about half the flops of
#: whole-height solves at 4 panels.
GL_PANELS = 4


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
        rows = ((i, slice(i, None), self.m11[i, i:], self.m12[i, i:],
                 self.m21[i, i:], self.m22[i, i:]) for i in range(len(t)))
        write_csv(path, ["x", "s", "m11", "m12", "m21", "m22"], rows,
                  coords=t)


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


def solve_gl(ck: ConnectingKernel,
             inverse: AssembledConnecting | None = None) -> OperatorM:
    """Solve the second-kind equation for m column by column.

    For fixed s_j the unknown column m(., s_j) lives on the x-nodes
    0..j and satisfies (I + C~|_{[0,s_j]^2} W) m = -C~(., s_j); both
    matrix columns share the system matrix.  The columns the nested
    factor reaches are solved through it and refined, GL_PANELS panels
    of them at a time on the panel's leading rows; the others are solved
    one by one (see the module docstring).  ``inverse`` is the shared
    state of ``ck`` (:func:`~bcwave.connecting.assemble_matrix`); without
    it the solve builds its own.  A non-finite m (from non-finite kernel
    data) raises :class:`ReconstructionError`.
    """
    n = ck.grid.n
    h = ck.grid.h
    # the result first, below the work arrays on the heap
    m11, m12, m21, m22 = (np.zeros((n + 1, n + 1)) for _ in range(4))
    if inverse is None:
        inverse = assemble_matrix(ck)
    cr, fac = inverse.reflected, inverse.factor
    del inverse
    K = fac.horizons
    converged = np.zeros(K, dtype=bool)
    for cols in np.array_split(np.arange(1, K + 1), GL_PANELS):
        if len(cols):
            first, last = int(cols[0]), int(cols[-1])
            converged[first - 1:last] = _solve_panel(
                cr, fac.panel(first, last), (m11, m12, m21, m22))
    for blk, a, b in ((m11, 0, 0), (m12, 0, 1), (m21, 1, 0), (m22, 1, 1)):
        blk[0, 0] = -2.0 * cr[a, b]   # s = 0: the system is the identity
    del fac, cr
    ct = None
    regularized = []
    for j in range(1, n + 1):
        if j <= K and converged[j - 1]:
            continue
        if ct is None:
            ct = gl_kernel(ck)
        k = j + 1
        sol, reg = _solve_column(ct, j, h)
        if reg:
            regularized.append(j)
        m11[:k, j] = sol[:k, 0]
        m21[:k, j] = sol[k:, 0]
        m12[:k, j] = sol[:k, 1]
        m22[:k, j] = sol[k:, 1]
    if not all(np.isfinite(blk).all() for blk in (m11, m12, m21, m22)):
        raise ReconstructionError("non-finite GL kernel m")
    return OperatorM(ck.grid, m11, m12, m21, m22, tuple(regularized))


def _solve_panel(cr: np.ndarray, fac: NestedFactor, blocks) -> np.ndarray:
    """Solve and refine the columns j = first..last of the panel factor
    ``fac`` on its leading 2 last + 2 rows, the only ones they use, and
    write them into ``blocks`` (m11, m12, m21, m22).  Returns, per
    column, whether the refinement converged.

    A_j m = -W C~(., s_j)/2 with A_j = W/2 + W (C~/2) W, and ``cr`` is
    C~/2: the residual of m is -W g with
    g = C~(., s_j)/2 + m/2 + (C~/2) W m.  Column 2(j - first) + b of m
    is m_ab(., s_j) in node-major rows 2i + a.
    """
    first, rows = fac.first, fac.factor.shape[0]
    c = cr[:rows, :rows]
    rhs = cr[:rows, 2 * first:2 * (first + fac.horizons)]
    m = fac.solve(fac.weigh(-rhs))
    wm, g = np.empty_like(m), np.empty_like(m)
    for _ in range(REFINEMENT_STEPS):
        np.copyto(wm, m)
        np.matmul(c, fac.weigh(wm), out=g)
        g += np.multiply(m, 0.5, out=wm)
        g += rhs
        g *= -1.0
        step = fac.solve(fac.weigh(g))
        m += step
    # a column whose last step is not at roundoff level has not converged
    # (too asymmetric a system) and is solved on its own
    size = np.maximum(step.max(axis=0), -step.min(axis=0))
    scale = np.maximum(m.max(axis=0), -m.min(axis=0))
    cols = slice(first, first + fac.horizons)
    for blk, a, b in zip(blocks, (0, 0, 1, 1), (0, 1, 0, 1)):
        blk[:rows // 2, cols] = m[a::2, b::2]
    return (size <= REFINEMENT_TOLERANCE * scale).reshape(-1, 2).all(axis=1)


def _solve_column(ct: ConnectingKernel, j: int, h: float):
    """Dense solve of the column system at s_j (j >= 1), stacked
    [m1; m2] by two right-hand sides, with a Tikhonov shift when the
    matrix is singular.  Returns (solution, regularized)."""
    k = j + 1
    w = trapezoid_weights(j, h)
    A = np.eye(2 * k) + np.block(
        [[ct.c11[:k, :k] * w, ct.c12[:k, :k] * w],
         [ct.c21[:k, :k] * w, ct.c22[:k, :k] * w]])
    rhs = -np.stack([np.concatenate([ct.c11[:k, j], ct.c21[:k, j]]),
                     np.concatenate([ct.c12[:k, j], ct.c22[:k, j]])],
                    axis=1)
    try:
        return np.linalg.solve(A, rhs), False
    except np.linalg.LinAlgError:
        shift = TIKHONOV_RELATIVE * np.trace(A) / (2 * k)
        return np.linalg.solve(A + shift * np.eye(2 * k), rhs), True


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
    weighted discrete adjoint (A* = W^{-1} A^T W).

    Evaluated as W^{-1} P^T W ((I + C~ W) P) - I with P = I + M in three
    2(n+1) x 2(n+1) buffers: P, I + C~ W (which then takes the result)
    and the right-hand product."""
    if M.grid != ck.grid:
        raise GridMismatchError("kernel grids differ")
    n, h = ck.grid.n, ck.grid.h
    m = n + 1
    w = trapezoid_weights(n, h)
    rows = row_trapezoid_weights(n, h)
    p = np.empty((2 * m, 2 * m))
    c = np.empty((2 * m, 2 * m))
    for a, b, mb, cb in ((0, 0, M.m11, ck.c11), (0, 1, M.m12, ck.c12),
                         (1, 0, M.m21, ck.c21), (1, 1, M.m22, ck.c22)):
        block = np.s_[a * m:(a + 1) * m, b * m:(b + 1) * m]
        np.multiply(mb, rows, out=p[block])
        # C~ = twice the time-reflected kernel, as in gl_kernel
        np.multiply(cb[::-1, ::-1], 2.0, out=c[block])
        c[block] *= w
    diag = np.diag_indices(2 * m)
    p[diag] += 1.0
    c[diag] += 1.0
    right = np.matmul(c, p)
    wvec = np.concatenate([w, w])[:, None]
    right *= wvec
    np.matmul(p.T, right, out=c)
    c /= wvec
    c[diag] -= 1.0
    return float(np.max(np.abs(c, out=c)))


def recover_q_from_m(M: OperatorM, sign: str = "derived"):
    """Potential samples on [-T, T] from the m diagonals.

    Right half: q(x) = 2 d/dx [m11(x,x) - m12(x,x)].  Left half uses the
    sum diagonal; ``sign="derived"`` applies q(-x) = +2 d/dx
    [m11(x,x) + m12(x,x)] (the convention validated by the off-center
    round trip), ``sign="paper"`` flips it.  A non-finite q raises
    :class:`ReconstructionError`.
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
    if not np.isfinite(q).all():
        raise ReconstructionError("non-finite GL potential q")
    return x, q


def write_q_csv(path, x: np.ndarray, q: np.ndarray, route: str) -> None:
    write_csv(path, ["x", "q", "route"], [(np.asarray(x), np.asarray(q))],
              text=[route])
