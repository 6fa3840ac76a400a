"""Gelfand-Levitan route: kernel m of (I+K)^{-1} - I and q from its diagonal.

:func:`solve_gl` finds m from response data alone, solving the
second-kind equation m(x,s) + C~(x,s) + int_0^s C~(x,a) m(a,s) da = 0
column by column, where C~(t,s) = 2 C(T-t, T-s) is twice the connecting
kernel's node-major array (the kernel of J (2 C^T) J^T - I = K + K* +
K*K).  The test suite checks it against m built from forward kernel
data instead, by block triangular back-substitution of (I+K)(I+M) = I
(``invert_volterra`` in ``tests/oracles.py``).

Scaled by W/2, the column system at s_j is the matrix A_j of the Krein
horizon j before its symmetrization: the leading block, on the nodes
0..j, of B = W/2 + W (C~/2) W with node j's weight halved.  B is not
symmetric where the data's C12 and C21^T blocks differ, but its
symmetric part is the positive definite matrix the Krein route factors,
so B has an LU factor without row interchanges (Golub and Van Loan
1979), which :func:`solve_gl` builds once per run by a recursive BLAS-3
LU in O(n^3).  The right-hand side of column j is node j's own column
of A_j, up to a multiple of the identity, so bordering that factor
gives m in closed form: U^{-1} (LAPACK's ``dtrtri``) with each column
block scaled by a 2x2 matrix, to roundoff and with no refinement.  I + M
is the triangular factor that the operator identity
(I+M)* (I+C~) (I+M) = I makes of I + C~, the Volterra factorisation of
Gohberg and Krein (1970).

m is held once (:class:`OperatorM`), as one node-major (2n+2)^2 array
laid out as the connecting kernel's, without its time reflection: entry
(2i + a, 2j + b) is m_ab(x_i, s_j).  :func:`solve_gl` writes it column
block by column block and the identity residual multiplies it as it is;
m11..m22 are views.

On the diagonal m(x,x) = -k(x,x), and the potential follows from
q(x) = 2 d/dx [m11(x,x) - m12(x,x)] with the left half-line recovered
from the sum diagonal (sign convention selectable, see recover_q_from_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .connecting import (ConnectingKernel, diagonal_blocks,
                         schur_complements, weighted_matrix)
from .errors import GridMismatchError, ReconstructionError
from .grid import (UniformGrid, differentiate, row_trapezoid_weights,
                   trapezoid_weights, write_csv)

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
    """Solve the second-kind equation for m, every column at once.

    For fixed s_j the unknown column m(., s_j) lives on the x-nodes
    0..j and satisfies (I + C~|_{[0,s_j]^2} W) m = -C~(., s_j); both
    matrix columns share the system matrix.  Scaled by W/2 that is
    A_j m = -W_j C~(., s_j)/2, A_j the leading block of
    B = W/2 + W (C~/2) W = L U on the nodes 0..j with node j's weight
    w_j halved (d = (h/2)/w_j).  With E_j node j's two columns, the
    right-hand side is -(2/h) A_j E_j + E_j/2, so
    m(., s_j) = -(2/h) E_j + A_j^{-1} E_j / 2, and bordering gives, with
    X = U^{-1} and S_j = d^2 L_jj U_jj + (h/4)(1 - d) I:

    - at the nodes 0..j-1, (d/2) X[:, j] U_jj S_j^{-1};
    - at node j, S_j^{-1} (d/w_j) (P_j - w_j^2 C~_jj/2) with
      P_j = L[node j, :2j] U[:2j, node j], which equals
      -(2/h) I + S_j^{-1}/2 without cancelling its two O(1/h) terms;
    - below node j, 0, and at s = 0 the system is the identity.

    The factor needs no row interchanges where the symmetric part of B
    is positive definite, as it is for a response that
    :func:`~bcwave.connecting.assemble_matrix` accepts; a pivot of U
    that is not positive proves the response belongs to no potential and
    raises :class:`ReconstructionError`, as does a non-finite m (from
    non-finite kernel data).
    """
    n, h = ck.grid.n, ck.grid.h
    cr = ck.nodes
    a, w = weighted_matrix(ck)
    _lu(a)
    bad = np.flatnonzero(np.diag(a) <= 0.0)
    if bad.size:
        raise ReconstructionError(
            "the LU factor of the GL column systems has a pivot <= 0 at "
            "node %d of %d, so the response belongs to no potential"
            % (bad[0] // 2, n))
    blocks = diagonal_blocks(a)
    u_kk = np.triu(blocks)
    d, s = schur_complements(h, w, np.tril(blocks, -1) + np.eye(2), u_kk)
    s_inv = np.linalg.inv(s)
    wk = w[2::2]
    p = np.empty((n, 2, 2))
    for j in range(1, n + 1):
        own = slice(2 * j, 2 * j + 2)
        p[j - 1] = a[own, :2 * j] @ a[:2 * j, own]
    p -= (wk * wk)[:, None, None] * diagonal_blocks(cr)
    own_block = s_inv @ ((d / wk)[:, None, None] * p)
    scale = (0.5 * d)[:, None, None] * (u_kk @ s_inv)
    x, _ = _lapack.lapack().dtrtri(a, overwrite_c=1)
    # m after the inverse, and the factor let go once m is written: m
    # written into the factor's buffer instead left the heap, at n = 320,
    # no free block for a caller's later 13 MB read (perfbench hashes
    # each CSV whole), and the peak RSS rose by that much
    m = np.zeros((2 * n + 2, 2 * n + 2))
    for j in range(1, n + 1):
        own = slice(2 * j, 2 * j + 2)
        m[:2 * j, own] = x[:2 * j, own] @ scale[j - 1]
        m[own, own] = own_block[j - 1]
    del a, x
    m[:2, :2] = -2.0 * cr[:2, :2]   # s = 0: the system is the identity
    if not np.isfinite(m).all():
        raise ReconstructionError("non-finite GL kernel m")
    return OperatorM(ck.grid, m)


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


def write_q_csv(path, x: np.ndarray, q: np.ndarray) -> None:
    write_csv(path, ["x", "q", "route"], [(np.asarray(x), np.asarray(q))],
              text=["GL"])
