"""Gelfand-Levitan route: kernel m of (I+K)^{-1} - I and q from its diagonal.

:func:`solve_gl` finds m from response data alone, solving the
second-kind equation m(x,s) + C~(x,s) + int_0^s C~(x,a) m(a,s) da = 0
column by column, where C~(t,s) = 2 C(T-t, T-s) is twice the connecting
kernel's node-major array (the kernel of J (2 C^T) J^T - I = K + K* +
K*K).  The test suite checks it against m built from forward kernel
data instead, by block triangular back-substitution of (I+K)(I+M) = I
(``invert_volterra`` in ``tests/oracles.py``).

Scaled by W/2, the column system at s_j is the matrix of the Krein
horizon j before its symmetrization: the leading block, on the nodes
0..j, of B = W/2 + W (C~/2) W with node j's weight halved.  B is not
symmetric where the data's C12 and C21^T blocks differ, but its
symmetric part is the positive definite matrix the Krein route factors,
so B has an LU factor without row interchanges (Golub and Van Loan
1979).  :func:`solve_gl` builds it once per run, by a recursive BLAS-3
LU in O(n^3), and solves every column through it to roundoff, with no
refinement, by the bordering the Krein route uses
(:class:`~bcwave.connecting.BorderedFactor`), in O(j^2) per column.
Column j uses only the rows of the nodes 0..j, so the columns go in
GL_PANELS panels, each solved on the leading rows of its last column.

m is held once (:class:`OperatorM`), as one node-major (2n+2)^2 array
laid out as the connecting kernel's, without its time reflection: entry
(2i + a, 2j + b) is m_ab(x_i, s_j).  The panel solves write into it
directly and the identity residual multiplies it as it is; m11..m22
are views.

On the diagonal m(x,x) = -k(x,x), and the potential follows from
q(x) = 2 d/dx [m11(x,x) - m12(x,x)] with the left half-line recovered
from the sum diagonal (sign convention selectable, see recover_q_from_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .connecting import (LU, BorderedFactor, ConnectingKernel,
                         diagonal_blocks, weighted_matrix)
from .errors import GridMismatchError, ReconstructionError
from .grid import (UniformGrid, differentiate, row_trapezoid_weights,
                   trapezoid_weights, write_csv)

#: Column panels of the factor's solves: panel p solves only the leading
#: rows its last column uses, about half the flops of whole-height solves
#: at 4 panels.
GL_PANELS = 4
#: Order up to which :func:`_lu` factors a diagonal block column by
#: column, in numpy; larger blocks are split in two, through BLAS.
LU_LEAF = 32


@dataclass(frozen=True)
class OperatorM:
    """Block kernel m_ab(x, s) on [0, T]^2, zero for s < x (Volterra),
    held once in ``nodes``: a node-major (2n+2)^2 array whose entry
    (2i + a, 2j + b) is m_ab(x_i, s_j), row index x, column index s.
    ``m11`` .. ``m22`` are its blocks ``nodes[a::2, b::2]``, as views;
    ``regularized`` lists shifted column solves: none, since no column
    needs a shift.
    """

    grid: UniformGrid
    nodes: np.ndarray
    regularized: tuple = ()

    m11 = property(lambda self: self.nodes[0::2, 0::2])
    m12 = property(lambda self: self.nodes[0::2, 1::2])
    m21 = property(lambda self: self.nodes[1::2, 0::2])
    m22 = property(lambda self: self.nodes[1::2, 1::2])

    def diagonals(self):
        """(m11(x,x), m12(x,x), m21(x,x), m22(x,x)) as node arrays."""
        return (np.diag(self.m11).copy(), np.diag(self.m12).copy(),
                np.diag(self.m21).copy(), np.diag(self.m22).copy())

    def dump_csv(self, path) -> None:
        """Columns x, s, m11, m12, m21, m22 on s >= x, one block per x row."""
        t = self.grid.t
        m11, m12, m21, m22 = self.m11, self.m12, self.m21, self.m22
        rows = ((i, slice(i, None), m11[i, i:], m12[i, i:], m21[i, i:],
                 m22[i, i:]) for i in range(len(t)))
        write_csv(path, ["x", "s", "m11", "m12", "m21", "m22"], rows,
                  coords=t)


def solve_gl(ck: ConnectingKernel) -> OperatorM:
    """Solve the second-kind equation for m column by column.

    For fixed s_j the unknown column m(., s_j) lives on the x-nodes
    0..j and satisfies (I + C~|_{[0,s_j]^2} W) m = -C~(., s_j); both
    matrix columns share the system matrix.  Scaled by W/2 that is the
    matrix of horizon j of :func:`_column_factor`, the LU factor of the
    unsymmetrized B, and the columns are solved through it, GL_PANELS
    panels of them at a time on the panel's leading rows.

    The factor needs no row interchanges where the symmetric part of B
    is positive definite, which :func:`~bcwave.connecting.assemble_matrix`
    checks; the pipeline refuses a response that fails it before this
    runs.  A non-finite m (from non-finite kernel data) raises
    :class:`ReconstructionError`.
    """
    n = ck.grid.n
    cr = ck.nodes
    # the factor before the result: in the other order, repeated runs at
    # n = 320 left the heap no free block for a caller's later 13 MB read
    # (perfbench hashes each CSV whole), and the peak RSS rose by that much
    fac = _column_factor(ck)
    m = np.zeros((2 * n + 2, 2 * n + 2))
    for cols in np.array_split(np.arange(1, n + 1), GL_PANELS):
        first, last = int(cols[0]), int(cols[-1])
        panel = fac.panel(first, last)
        rows, own = 2 * last + 2, slice(2 * first, 2 * last + 2)
        # A_j m = -W_j C~(., s_j)/2, and cr is C~/2
        m[:rows, own] = panel.solve(panel.weigh(-cr[:rows, own]))
    del fac, panel
    m[:2, :2] = -2.0 * cr[:2, :2]   # s = 0: the system is the identity
    if not np.isfinite(m).all():
        raise ReconstructionError("non-finite GL kernel m")
    return OperatorM(ck.grid, m)


def _column_factor(ck: ConnectingKernel) -> BorderedFactor:
    """The LU factor, without row interchanges, of the unsymmetrized
    B = W/2 + W (C~/2) W of ``ck``, bordered for every column: column j's
    system, scaled by W/2, is B's horizon j (see
    :class:`~bcwave.connecting.BorderedFactor`)."""
    a, w = weighted_matrix(ck)
    _lu(a)
    blocks = diagonal_blocks(a)
    return BorderedFactor.bordering(a, ck.grid.h, w,
                                    np.tril(blocks, -1) + np.eye(2),
                                    np.triu(blocks), LU)


def _lu(a: np.ndarray) -> None:
    """a = L U in place, L unit lower and U upper triangular, without row
    interchanges: recursively, the leading half first, then the two off-
    diagonal blocks by ``dtrsm``, the trailing block's update by ``dgemm``
    and its factor (Toledo 1997).  Blocks up to LU_LEAF go column by
    column."""
    size = a.shape[0]
    if size <= LU_LEAF:
        for k in range(size - 1):
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.multiply.outer(a[k + 1:, k],
                                                   a[k, k + 1:])
        return
    blas = _lapack.blas()
    half = size // 2
    top = a[:half, :half]
    _lu(top)
    a[:half, half:] = blas.dtrsm(1.0, top, a[:half, half:], lower=1, diag=1)
    a[half:, :half] = blas.dtrsm(1.0, top, a[half:, :half], side=1)
    a[half:, half:] = blas.dgemm(-1.0, a[half:, :half], a[:half, half:],
                                 1.0, a[half:, half:])
    _lu(a[half:, half:])


def operator_identity_residual(ck: ConnectingKernel, M: OperatorM) -> float:
    """max-norm residual of (I+M)* (I+C~) (I+M) = I with the quadrature-
    weighted discrete adjoint (A* = W^{-1} A^T W).

    Evaluated node-major as W^{-1} P^T W ((I + C~ W) P) - I with
    P = I + M in three 2(n+1) x 2(n+1) buffers: P, I + C~ W (which then
    takes the result) and the right-hand product."""
    if M.grid != ck.grid:
        raise GridMismatchError("kernel grids differ")
    n, h = ck.grid.n, ck.grid.h
    m = n + 1
    w = np.repeat(trapezoid_weights(n, h), 2)
    rows = row_trapezoid_weights(n, h)[:, None, :, None]
    p = (M.nodes.reshape(m, 2, m, 2) * rows).reshape(2 * m, 2 * m)
    c = 2.0 * ck.nodes     # C~
    c *= w
    diag = np.diag_indices(2 * m)
    p[diag] += 1.0
    c[diag] += 1.0
    right = np.matmul(c, p)
    right *= w[:, None]
    np.matmul(p.T, right, out=c)
    c /= w[:, None]
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
