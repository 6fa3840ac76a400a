"""Gelfand-Levitan route: kernel m of (I+K)^{-1} - I and q from its diagonal.

:func:`solve_gl` finds m from response data alone, solving the
second-kind equation m(x,s) + C~(x,s) + int_0^s C~(x,a) m(a,s) da = 0
column by column, where C~(t,s) = 2 C(T-t, T-s) is twice the connecting
kernel's node-major array (the kernel of J (2 C^T) J^T - I = K + K* +
K*K).  The test suite checks it against m built from forward kernel
data instead, by block triangular back-substitution of (I+K)(I+M) = I
(``invert_volterra`` in ``tests/oracles.py``).

Scaled by W/2, the column system at s_j is the unsymmetrized matrix of
the Krein horizon j, so :func:`solve_gl` shares the Krein route's nested
Cholesky factor, built once per run from the kernel's array
(:func:`~bcwave.connecting.assemble_matrix`): O(n^3/3) once, then
O(j^2) per column.  Column j uses only the rows of the nodes 0..j, so
the columns go in GL_PANELS panels, each solved and refined on the
leading rows of its last column.  The factor is of the symmetrized
matrix, so two steps of iterative refinement against the unsymmetrized
system I + C~ W follow, and m equals a dense per-column solve to
roundoff.  Columns whose refinement has not converged get that dense
solve; its symmetric part is the positive definite matrix just factored,
so it needs no shift.

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

from .connecting import ConnectingKernel, NestedFactor, assemble_matrix
from .errors import GridMismatchError, ReconstructionError
from .grid import (UniformGrid, differentiate, row_trapezoid_weights,
                   trapezoid_weights, write_csv)

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


def solve_gl(ck: ConnectingKernel,
             fac: NestedFactor | None = None) -> OperatorM:
    """Solve the second-kind equation for m column by column.

    For fixed s_j the unknown column m(., s_j) lives on the x-nodes
    0..j and satisfies (I + C~|_{[0,s_j]^2} W) m = -C~(., s_j); both
    matrix columns share the system matrix.  The columns are solved
    through ``fac``, the nested factor of ``ck``
    (:func:`~bcwave.connecting.assemble_matrix`, which raises
    :class:`ReconstructionError` where the factor stops short), and
    refined, GL_PANELS panels of them at a time on the panel's leading
    rows; a column whose refinement does not converge is solved densely.
    A one-off call without ``fac`` (perfbench's accuracy check) builds
    it.  A non-finite m (from non-finite kernel data) raises
    :class:`ReconstructionError`.
    """
    n = ck.grid.n
    h = ck.grid.h
    cr = ck.nodes
    # the result first, below the work arrays on the heap
    m = np.zeros((2 * n + 2, 2 * n + 2))
    if fac is None:
        fac = assemble_matrix(ck)
    converged = np.zeros(n, dtype=bool)
    for cols in np.array_split(np.arange(1, n + 1), GL_PANELS):
        first, last = int(cols[0]), int(cols[-1])
        converged[cols - 1] = _solve_panel(cr, fac.panel(first, last), m)
    m[:2, :2] = -2.0 * cr[:2, :2]   # s = 0: the system is the identity
    del fac
    for j in range(1, n + 1):
        if not converged[j - 1]:
            m[:2 * j + 2, 2 * j:2 * j + 2] = _solve_column(cr, j, h)
    if not np.isfinite(m).all():
        raise ReconstructionError("non-finite GL kernel m")
    return OperatorM(ck.grid, m)


def _solve_panel(cr: np.ndarray, fac: NestedFactor,
                 out: np.ndarray) -> np.ndarray:
    """Solve and refine the columns j = first..last of the panel factor
    ``fac`` on its leading 2 last + 2 rows, the only ones they use, and
    write them into the node-major m ``out``.  Returns, per column,
    whether the refinement converged.

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
    out[:rows, 2 * first:2 * (first + fac.horizons)] = m
    return (size <= REFINEMENT_TOLERANCE * scale).reshape(-1, 2).all(axis=1)


def _solve_column(cr: np.ndarray, j: int, h: float) -> np.ndarray:
    """Dense solve of the column system at s_j (j >= 1) on the node-major
    rows of the nodes 0..j, by two right-hand sides: m_ab(x_i, s_j) in
    row 2i + a, column b.  ``cr`` is the node-major array C~/2."""
    c = 2.0 * cr[:2 * j + 2, :2 * j + 2]
    a = c * np.repeat(trapezoid_weights(j, h), 2)
    a[np.diag_indices_from(a)] += 1.0
    return np.linalg.solve(a, -c[:, 2 * j:])


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
