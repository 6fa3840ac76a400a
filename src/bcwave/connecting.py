"""Connecting operator C^T assembled from response data alone.

Kernel formulas (antiderivatives p1, p2 of r11, r12; odd extensions
carry the sign flip for negative arguments):

    C11(t,s) = [p1(2T-t-s) - p1(|t-s|)] / 2
    C12(t,s) = [p~1(2T-t-s) - p~1(t-s)] / 2
    C21(t,s) = [r~21(t-s) + r21(2T-t-s)] / 2
    C22(t,s) = [r22(|t-s|) + r22(2T-t-s)] / 2

These are fixed by requiring (C^T F, G) = (u^F(.,T), u^G(.,T)): the
overall 1/2 is the d'Alembert factor of the Blagoveshchenskii derivation
and the second row carries a plus sign (the entries of a consistent
response matrix obey r21' = +r12, which makes the block kernel satisfy
C12(t,s) = C21(s,t)).  Both facts are validated against the dynamic Gram
form in the test suite, at first order in q analytically and for generic
potentials numerically.

All kernel arguments are exact node indices on the shared grid, so no
interpolation enters.  C21 and C12 are built independently from their own
formulas; their mismatch is a reported consistency diagnostic for the
response data, never silently averaged.  For an even potential r12 and
r21 vanish identically and C12 = C21 = 0 pointwise.

Both inverse routes solve, for every horizon k = 1..n, the Nystrom system
of C^{tau_k} in reversed time.  Reversal makes the kernel depend only on
t' + s' and |t' - s'|, so every such matrix is the leading block, on the
nodes 0..k, of one fixed matrix B = W/2 + W C~ W (node-major, C~ the
reflected kernel), except that the trapezoid weight of node k is halved.
:func:`nested_factor` factors B once and solves every horizon by
bordering its leading Cholesky factor (Levinson 1947; the Krein
equations of the boundary control method, Belishev 2007).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dtrsm
from scipy.linalg.lapack import dpotrf

from .errors import DomainError, GridMismatchError, InternalConsistencyError
from .grid import (Control, UniformGrid, cumulative_trapezoid,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix


#: Largest asymmetry of an assembled connecting matrix, in units of h^2,
#: that its symmetrization may hide.
ASYMMETRY_H2 = 100.0


def connecting_blocks(r: ResponseMatrix, n_half: int):
    """The four kernel blocks of C^tau on [0, tau]^2, tau = n_half * h.

    Returns (C11, C12, C21, C22) as (n_half+1)^2 arrays.  Low-level form
    used by the horizon sweep; :func:`build_connecting` wraps it.
    """
    if 2 * n_half > r.grid.n:
        raise DomainError(
            "response horizon %g too short for horizon %g"
            % (r.grid.horizon, 2 * n_half * r.grid.h)
        )
    h = r.grid.h
    p1 = cumulative_trapezoid(r.r11, h)
    p2 = cumulative_trapezoid(r.r12, h)

    i, j = np.meshgrid(np.arange(n_half + 1), np.arange(n_half + 1),
                       indexing="ij")
    refl = 2 * n_half - i - j          # index of 2*tau - t - s  (>= 0)
    diff = i - j                       # index of t - s (signed)
    adiff = np.abs(diff)
    sgn = np.sign(diff)

    c11 = 0.5 * (p1[refl] - p1[adiff])
    c12 = 0.5 * (p2[refl] - sgn * p2[adiff])
    c21 = 0.5 * (sgn * r.r21[adiff] + r.r21[refl])
    c22 = 0.5 * (r.r22[adiff] + r.r22[refl])
    return c11, c12, c21, c22


@dataclass(frozen=True)
class ConnectingKernel:
    """2x2 block kernel of C^T - I/2 on [0, T]^2."""

    grid: UniformGrid
    c11: np.ndarray
    c12: np.ndarray
    c21: np.ndarray
    c22: np.ndarray

    def symmetry_residual(self) -> float:
        """max |C21 - C12|; vanishes (to O(h^2)) for response data of an
        even potential."""
        return float(np.max(np.abs(self.c21 - self.c12)))

    def block_symmetry_residual(self) -> float:
        """max |C12(t,s) - C21(s,t)|; the self-adjointness restriction on
        the entries, valid for any potential."""
        return float(np.max(np.abs(self.c12 - self.c21.T)))

    def scale(self) -> float:
        return float(max(np.max(np.abs(self.c11)), np.max(np.abs(self.c12)),
                         np.max(np.abs(self.c21)), np.max(np.abs(self.c22))))

    def dump_csv(self, path) -> None:
        """Columns t, s, C11, C12, C21, C22, one block per t row."""
        t = self.grid.t
        rows = ((i, slice(None), self.c11[i], self.c12[i], self.c21[i],
                 self.c22[i]) for i in range(len(t)))
        write_csv(path, ["t", "s", "C11", "C12", "C21", "C22"], rows,
                  coords=t)


def build_connecting(r: ResponseMatrix, n_half: int | None = None) -> ConnectingKernel:
    """Assemble the connecting kernel for horizon T = n_half * h (default:
    half the response horizon)."""
    if n_half is None:
        if r.grid.n % 2:
            raise DomainError("response grid has an odd number of steps")
        n_half = r.grid.n // 2
    grid = UniformGrid(n_half * r.grid.h, n_half)
    return ConnectingKernel(grid, *connecting_blocks(r, n_half))


def apply_connecting(ck: ConnectingKernel, f: Control) -> Control:
    """C^T F = F/2 + int_0^T C(t,s) F(s) ds by trapezoid quadrature.

    The |t-s| kink sits exactly on the s = t node, so composite trapezoid
    keeps its O(h^2) accuracy without extra splitting.
    """
    if f.grid != ck.grid:
        raise GridMismatchError("control and connecting kernel grids differ")
    w = trapezoid_weights(ck.grid.n, ck.grid.h)
    g1 = 0.5 * f.f1 + ck.c11 @ (w * f.f1) + ck.c12 @ (w * f.f2)
    g2 = 0.5 * f.f2 + ck.c21 @ (w * f.f1) + ck.c22 @ (w * f.f2)
    return Control(ck.grid, g1, g2)


def connecting_form(ck: ConnectingKernel, f: Control, g: Control) -> float:
    """Bilinear form (C^T F, G) in the outer space."""
    from .grid import inner_outer

    return inner_outer(apply_connecting(ck, f), g)


@dataclass(frozen=True)
class AssembledConnecting:
    """Weighted symmetric Nystrom discretization of C^T.

    ``matrix`` is A = W/2 + W C W acting on stacked nodal values [f1; f2]
    (W = diag of trapezoid weights), symmetrized as (A + A^T)/2; the
    pre-symmetrization asymmetry is kept as a diagnostic.  Solving
    A f = W rhs is equivalent to collocating C^T f = rhs at the nodes.
    """

    matrix: np.ndarray
    weights: np.ndarray  # stacked per-node weights, length 2(n+1)
    asymmetry: float

    def solve(self, rhs_stacked: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, self.weights * rhs_stacked)


def _block_matrix(blocks) -> np.ndarray:
    c11, c12, c21, c22 = blocks
    return np.block([[c11, c12], [c21, c22]])


def assemble_matrix(ck: ConnectingKernel) -> AssembledConnecting:
    return _assemble(ck.grid.n, ck.grid.h,
                     (ck.c11, ck.c12, ck.c21, ck.c22))


def _assemble(n_half: int, h: float, blocks) -> AssembledConnecting:
    w = trapezoid_weights(n_half, h)
    wvec = np.concatenate([w, w])
    A = 0.5 * np.diag(wvec) + (wvec[:, None] * _block_matrix(blocks)
                               * wvec[None, :])
    asym = float(np.max(np.abs(A - A.T)))
    if asym > ASYMMETRY_H2 * h * h:
        raise InternalConsistencyError(
            "connecting matrix asymmetry %g exceeds %g h^2"
            % (asym, ASYMMETRY_H2))
    return AssembledConnecting(0.5 * (A + A.T), wvec, asym)


def reflect_kernel(ck: ConnectingKernel) -> ConnectingKernel:
    """C~(t, s) = C(T - t, T - s); an exact index reversal (involution)."""
    return ConnectingKernel(ck.grid,
                            ck.c11[::-1, ::-1], ck.c12[::-1, ::-1],
                            ck.c21[::-1, ::-1], ck.c22[::-1, ::-1])


def reflected_nodes(ck: ConnectingKernel) -> np.ndarray:
    """C~(t, s) = C(T - t, T - s) as one node-major matrix: entry
    (2i + a, 2j + b) is C~_ab(t_i, t_j)."""
    rk = reflect_kernel(ck)
    m = ck.grid.n + 1
    cr = np.empty((2 * m, 2 * m))
    cr[0::2, 0::2] = rk.c11
    cr[0::2, 1::2] = rk.c12
    cr[1::2, 0::2] = rk.c21
    cr[1::2, 1::2] = rk.c22
    return cr


def _tri_solve(factor: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve L x = b (trans 0) or L^T x = b (trans 1) in place for a
    C-ordered b.  Its transpose is Fortran-ordered, so BLAS solves
    x^T op(L)^T = b^T from the right without copying b."""
    return dtrsm(1.0, factor, b.T, side=1, lower=1, trans_a=1 - trans,
                 overwrite_b=1).T


@dataclass(frozen=True)
class NestedFactor:
    """One Cholesky factor L L^T = B serving the horizons k = 1..K.

    The reversed-time matrix of horizon k is
    A_k = [[B_11, d B_12], [d B_21, A_kk]]: B_11 is the block of B on the
    nodes 0..k-1, B_21 the rows of node k, and d = (h/2) / w_k halves
    node k's weight (d = 1 at k = n, whose weight is already h/2).  With
    z = L_11^{-1} b_a and the border X = d L_21, A_k f = b is solved by

        S f_b = b_b - X z,   L_11^T f_a = z - X^T f_b,

    where the 2x2 Schur complement S = A_kk - X X^T equals
    d^2 L_kk L_kk^T + (h/4)(1 - d) I, positive definite wherever the
    factor reaches node k.  Factoring costs O(n^3/3) once; each horizon
    then costs O(k^2) for f, and O(1) more for f_b given z.

    ``factor`` holds L in its lower triangle and B in its strict upper
    triangle (Fortran order), ``b_diag`` the diagonal of B.
    K is n unless the factorization stops at node
    p, when K = p - 1, or the asymmetry of A_k, which the symmetrization
    hides, exceeds ASYMMETRY_H2 h^2 (the bound :func:`assemble_matrix`
    enforces), when K = k - 1.  Callers solve the later horizons one by
    one.
    """

    h: float
    factor: np.ndarray
    b_diag: np.ndarray
    node_weights: np.ndarray  # trapezoid weights of B, node-major
    border: np.ndarray        # d, horizons 1..K
    l_kk: np.ndarray          # the 2x2 diagonal blocks of L, nodes 1..K
    s_inv: np.ndarray         # S^{-1}, horizons 1..K

    @property
    def horizons(self) -> int:
        return len(self.border)

    def _border(self, n_rows: int):
        """Row and column indices of node k in horizon k's columns, and
        the mask of the rows below node k, in the (N, K, r) view."""
        k = np.arange(1, self.horizons + 1)
        return (2 * k[:, None] + [0, 1], k[:, None] - 1,
                np.arange(n_rows)[:, None] >= 2 * k + 2)

    def _cut(self, x: np.ndarray) -> np.ndarray:
        """D x in place: rows of node k times d, rows below it zeroed."""
        if not self.horizons:
            return x
        rows, cols, below = self._border(x.shape[0])
        x3 = x.reshape(x.shape[0], self.horizons, -1)
        np.copyto(x3, 0.0, where=below[..., None])
        x3[rows, cols] *= self.border[:, None, None]
        return x

    def weigh(self, x: np.ndarray) -> np.ndarray:
        """W_k x in place, in the layout of :meth:`solve`: each horizon's
        columns times its trapezoid weights, zero below node k."""
        x *= self.node_weights[:, None]
        return self._cut(x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A_k f = b for every horizon at once, overwriting b.

        ``b`` is C-ordered (2(n+1), K r): r right-hand sides per
        horizon, horizon k in the columns (k-1) r .. k r - 1, of which
        the rows of the nodes 0..k are used.  Returns f in the same
        layout, exactly zero below node k.

        Both substitutions run with the full L: the rows of node k give
        X z = d (b_b - L_kk z_b), and back substitution from
        d L_kk^T f_b at node k (zero below) yields f_a and d f_b.
        """
        N, K = b.shape[0], self.horizons
        if K == 0:
            b[:] = 0.0
            return b
        rows, cols, below = self._border(N)
        d = self.border[:, None, None]
        bb = b.reshape(N, K, -1)[rows, cols]                  # (K, 2, r)
        z3 = _tri_solve(self.factor, b, 0).reshape(N, K, -1)
        fb = self.s_inv @ (bb - d * (bb - self.l_kk @ z3[rows, cols]))
        np.copyto(z3, 0.0, where=below[..., None])
        z3[rows, cols] = d * (self.l_kk.transpose(0, 2, 1) @ fb)
        f = _tri_solve(self.factor, z3.reshape(N, -1), 1)
        f.reshape(N, K, -1)[rows, cols] = fb
        return f

    def apply(self, f: np.ndarray) -> np.ndarray:
        """A_k f for every horizon, in the layout of :meth:`solve` (f zero
        below node k), from the stored triangle of B:
        A_k f = D B D f + (h/4)(1 - D) f with D = 1 on the nodes 0..k-1,
        d on node k and 0 below."""
        # dsymm reads the diagonal, where the factor keeps L's; swap B's in
        diag = np.diag_indices_from(self.factor)
        l_diag = self.factor[diag]
        self.factor[diag] = self.b_diag
        try:
            p = dsymm(1.0, self.factor, self._cut(f.copy()).T, side=1).T
        finally:
            self.factor[diag] = l_diag
        N, K = f.shape[0], self.horizons
        rows, cols, _ = self._border(N)
        corner = 0.25 * self.h * (1.0 - self.border)[:, None, None]
        self._cut(p).reshape(N, K, -1)[rows, cols] += \
            corner * f.reshape(N, K, -1)[rows, cols]
        return p


def nested_factor(cr: np.ndarray, h: float) -> NestedFactor:
    """Form B = W/2 + W C~ W from the node-major reflected kernel ``cr``
    (see :func:`reflected_nodes`), symmetrize it as :func:`assemble_matrix`
    does and factor it in place.  B's entries equal those of the
    reversed full-horizon assembled matrix bit for bit."""
    n = cr.shape[0] // 2 - 1
    w = np.repeat(trapezoid_weights(n, h), 2)
    a = np.array(cr, order="F")
    a *= w[:, None]
    a *= w[None, :]
    a[np.diag_indices_from(a)] += 0.5 * w
    # asymmetry of A_k: the node pairs within 0..k-1 as in B, node k's
    # pairs with them times d, its own block times d^2
    pair = np.abs(a - a.T).reshape(n + 1, 2, n + 1, 2).max(axis=(1, 3))
    row, own = np.tril(pair, -1).max(axis=1), np.diag(pair)
    d = 0.5 * h / w[0::2]
    inner = np.maximum.accumulate(np.maximum(row, own))[:-1]
    asym = np.maximum(inner, np.maximum(d[1:] * row[1:], d[1:] ** 2 * own[1:]))
    a += a.T
    a *= 0.5
    b_diag = np.diag(a).copy()
    a, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    # Horizon k needs the factor down to node k.  On failure LAPACK leaves
    # the factor of the leading block of order info - 1.  Horizons whose
    # matrix is too asymmetric (see _assemble) are left to the callers too.
    K = n if info == 0 else min(n, max(0, (info - 1) // 2 - 1))
    K = min(K, int(np.argmax(np.append(asym, np.inf) > ASYMMETRY_H2 * h * h)))
    k = np.arange(1, K + 1)
    border = d[k]
    l_kk = np.zeros((K, 2, 2))
    l_kk[:, 0, 0] = a[2 * k, 2 * k]
    l_kk[:, 1, 0] = a[2 * k + 1, 2 * k]
    l_kk[:, 1, 1] = a[2 * k + 1, 2 * k + 1]
    s = (border * border)[:, None, None] * (l_kk @ l_kk.transpose(0, 2, 1))
    s[:, [0, 1], [0, 1]] += (0.25 * h * (1.0 - border))[:, None]
    return NestedFactor(h, a, b_diag, w, border, l_kk, np.linalg.inv(s))
