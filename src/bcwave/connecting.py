"""Connecting operator C^T assembled from response data alone.

Kernel formulas (antiderivatives p1, p2 of r11, r12; odd extensions
carry the sign flip for negative arguments):

    C11(t,s) = [p1(2T-t-s) - p1(|t-s|)] / 2
    C12(t,s) = [p2(2T-t-s) - p~2(t-s)] / 2
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
interpolation enters.  C11 and C22 are symmetric by construction; C12 and
C21 come from their own formulas (both zero for an even potential), and
their mismatch is a reported consistency diagnostic for the response data.

The kernel is held once, as the node-major, time-reflected array of
C~(t, s) = C(T - t, T - s) (:func:`connecting_nodes`); the forward-time
blocks C11..C22 are views of it, and every consumer reads it.  Both
inverse routes solve, for every horizon k = 1..n, the Nystrom system of
C^{tau_k} in reversed time.  Reversal makes the kernel depend only on
t' + s' and |t' - s'|, so every such matrix is the leading block, on the
nodes 0..k, of one fixed matrix B = W/2 + W C~ W, except that the
trapezoid weight of node k is halved.  A :class:`NestedFactor` of B
solves every horizon by bordering its leading factor (Levinson 1947; the
Krein equations of the boundary control method, Belishev 2007).
:func:`assemble_matrix` factors the symmetrized B by Cholesky and
returns it.

That factor is the one inverse state of a run.  It reaches every horizon
of a potential's response (its connecting operator is positive
definite); where it would stop short, :func:`assemble_matrix` raises.
The connect stage reports from it the assembly asymmetry and the
smallest eigenvalue (Lanczos through the factor, Lanczos 1950), and
krein solves through it.  gl solves the unsymmetrized B, whose symmetric
part is the matrix the factor proves positive definite, so gl factors B
itself by LU without row interchanges and reads its kernel off the
inverse of the upper factor (:func:`~bcwave.gl.solve_gl`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _lapack
from .errors import DomainError, GridMismatchError, ReconstructionError
from .grid import (Control, UniformGrid, cumulative_trapezoid, inner_outer,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix


#: Largest asymmetry of an assembled connecting matrix, in units of h^2,
#: that its symmetrization may hide.
ASYMMETRY_H2 = 100.0
#: Lanczos steps of :meth:`NestedFactor.min_eigenvalue` before it falls
#: back to a dense eigensolve.
LANCZOS_STEPS = 100


def connecting_nodes(r: ResponseMatrix, n_half: int) -> np.ndarray:
    """C^tau on [0, tau]^2, tau = n_half * h, as one node-major,
    time-reflected (2 n_half + 2)^2 array: entry (2i + a, 2j + b) is
    C_ab(tau - t_i, tau - t_j).

    In reflected time 2 tau - t - s is node i + j and t - s is j - i, so
    no entry depends on tau: the array of a shorter horizon k is the
    leading (2k + 2)^2 block of this one.  :func:`build_connecting`
    wraps it.
    """
    if 2 * n_half > r.grid.n:
        raise DomainError(
            "response horizon %g too short for horizon %g"
            % (r.grid.horizon, 2 * n_half * r.grid.h)
        )
    h = r.grid.h
    p1 = cumulative_trapezoid(r.r11, h)
    p2 = cumulative_trapezoid(r.r12, h)

    # each block is a sum of Hankel views v[i + j] = win(v) and Toeplitz
    # views v[|j - i|] = win(v[|k|])[::-1], k = j - i, written into its
    # strided place in ``nodes``
    m = n_half + 1
    k = np.arange(1 - m, m)
    ak, sk = np.abs(k), np.sign(k)

    def win(v):
        return sliding_window_view(v[:2 * m - 1], m)

    nodes = np.empty((2 * m, 2 * m))
    np.subtract(win(p1), win(p1[ak])[::-1], out=nodes[0::2, 0::2])
    np.subtract(win(p2), win(sk * p2[ak])[::-1], out=nodes[0::2, 1::2])
    np.add(win(sk * r.r21[ak])[::-1], win(r.r21), out=nodes[1::2, 0::2])
    np.add(win(r.r22[ak])[::-1], win(r.r22), out=nodes[1::2, 1::2])
    nodes *= 0.5
    return nodes


@dataclass(frozen=True)
class ConnectingKernel:
    """2x2 block kernel of C^T - I/2 on [0, T]^2, held once in ``nodes``
    (see :func:`connecting_nodes`); ``c11`` .. ``c22`` are its
    forward-time blocks, as views."""

    grid: UniformGrid
    nodes: np.ndarray

    def _block(self, a: int, b: int) -> np.ndarray:
        return self.nodes[a::2, b::2][::-1, ::-1]

    c11 = property(lambda self: self._block(0, 0))
    c12 = property(lambda self: self._block(0, 1))
    c21 = property(lambda self: self._block(1, 0))
    c22 = property(lambda self: self._block(1, 1))

    def symmetry_residual(self) -> float:
        """max |C21 - C12|; vanishes (to O(h^2)) for response data of an
        even potential."""
        return float(np.max(np.abs(self.c21 - self.c12)))

    def block_symmetry_residual(self) -> float:
        """max |C12(t,s) - C21(s,t)|; the self-adjointness restriction on
        the entries, valid for any potential."""
        return float(np.max(np.abs(self.c12 - self.c21.T)))

    def dump_csv(self, path) -> None:
        """Columns t, s, C11, C12, C21, C22, one block per t row."""
        t = self.grid.t
        c11, c12, c21, c22 = self.c11, self.c12, self.c21, self.c22
        rows = ((i, slice(None), c11[i], c12[i], c21[i], c22[i])
                for i in range(len(t)))
        write_csv(path, ["t", "s", "C11", "C12", "C21", "C22"], rows,
                  coords=t)


def build_connecting(r: ResponseMatrix) -> ConnectingKernel:
    """The connecting kernel on [0, T], T half the response horizon, whose
    step count must be even (else DomainError).  Response data enter the
    inverse side here: non-finite data raise :class:`ReconstructionError`."""
    if not all(np.isfinite(a).all() for a in (r.r11, r.r12, r.r21, r.r22)):
        raise ReconstructionError("non-finite response data")
    if r.grid.n % 2:
        raise DomainError("response grid has an odd number of steps")
    n_half = r.grid.n // 2
    grid = UniformGrid(n_half * r.grid.h, n_half)
    return ConnectingKernel(grid, connecting_nodes(r, n_half))


def apply_connecting(ck: ConnectingKernel, f: Control) -> Control:
    """C^T F = F/2 + int_0^T C(t,s) F(s) ds by trapezoid quadrature.

    The |t-s| kink sits exactly on the s = t node, so composite trapezoid
    keeps its O(h^2) accuracy without extra splitting.
    """
    if f.grid != ck.grid:
        raise GridMismatchError("control and connecting kernel grids differ")
    w = trapezoid_weights(ck.grid.n, ck.grid.h)
    # one matvec on the node-major, time-reflected array, whose entry
    # 2(n - i) + a is g_a(t_i): reversed, g2 is at even entries, g1 odd
    v = np.empty(ck.nodes.shape[0])
    v[0::2], v[1::2] = (w * f.f1)[::-1], (w * f.f2)[::-1]
    g = (ck.nodes @ v)[::-1]
    return Control(ck.grid, 0.5 * f.f1 + g[1::2], 0.5 * f.f2 + g[0::2])


def connecting_form(ck: ConnectingKernel, f: Control, g: Control) -> float:
    """Bilinear form (C^T F, G) in the outer space."""
    return inner_outer(apply_connecting(ck, f), g)


#: dtrsm flags (lower, trans_a, diag) of the forward and the back
#: substitution with the Cholesky factor held in one array: L x = b and
#: L^T x = b.
CHOLESKY = ((1, 1, 0), (1, 0, 0))


def _tri_solve(factor: np.ndarray, b: np.ndarray, flags) -> np.ndarray:
    """Solve T x = b in place for a C-ordered b, T the triangle of
    ``factor`` that ``flags`` (one half of :data:`CHOLESKY`) names.  The
    transpose of b is Fortran-ordered, so BLAS solves x^T T^T = b^T from
    the right without copying b."""
    lower, trans_a, diag = flags
    return _lapack.blas().dtrsm(1.0, factor, b.T, side=1, lower=lower,
                                trans_a=trans_a, diag=diag, overwrite_b=1).T


def _lanczos_top(op, v0: np.ndarray) -> float | None:
    """Largest eigenvalue of the symmetric operator ``op``, by Lanczos
    (Lanczos 1950) from ``v0`` with full reorthogonalisation, or None if
    it has not converged after LANCZOS_STEPS steps.

    It stops when the Ritz residual |beta_j s_j| of the largest Ritz value
    theta is at roundoff, eps max(|theta|, eps^(2/3)): ARPACK's test at its
    default tolerance (Lehoucq, Sorensen and Yang 1998)."""
    eps = np.finfo(float).eps
    steps = min(LANCZOS_STEPS, len(v0))
    basis = np.empty((steps + 1, len(v0)))
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        w = op(basis[j])
        alpha[j] = basis[j] @ w
        for _ in range(2):          # Gram-Schmidt twice is enough
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        beta[j] = np.linalg.norm(w)
        tri = np.diag(alpha[:j + 1]) + np.diag(beta[:j], -1)
        theta, s = np.linalg.eigh(tri)
        if beta[j] * abs(s[-1, -1]) <= eps * max(abs(theta[-1]),
                                                 eps ** (2 / 3)):
            return float(theta[-1])
        basis[j + 1] = w / beta[j]
    return None


def schur_complements(h: float, node_weights: np.ndarray,
                      l_kk: np.ndarray, u_kk: np.ndarray):
    """d = (h/2) / w_k and the 2x2 Schur complements
    S = d^2 L_kk U_kk + (h/4)(1 - d) I of the horizons k = 1..n, from the
    2x2 diagonal blocks ``l_kk``, ``u_kk`` of a factor L U of B at the
    nodes 1..n (see :class:`NestedFactor`)."""
    border = 0.5 * h / node_weights[2::2]
    s = (border * border)[:, None, None] * (l_kk @ u_kk)
    s[:, [0, 1], [0, 1]] += (0.25 * h * (1.0 - border))[:, None]
    return border, s


@dataclass(frozen=True)
class NestedFactor:
    """The Cholesky factor L L^T of the symmetrized B = W/2 + W C~ W,
    built once per run, that solves the matrix of every horizon k = 1..n
    by bordering its leading block: the Krein route solves through it,
    and the connect stage reports from it.

    The reversed-time matrix of horizon k is
    A_k = [[B_11, d B_12], [d B_21, d^2 B_kk + (h/4)(1 - d) I]]: B_11 is
    the block of B on the nodes 0..k-1, B_21 and B_12 the rows and the
    columns of node k there, B_kk its own 2x2 block, and d = (h/2) / w_k
    halves node k's weight (d = 1 at k = n, whose weight is already h/2).
    With z = L_11^{-1} b_a, A_k f = b is solved by

        S f_b = b_b - d L_21 z,   L_11^T f_a = z - d L_21^T f_b,

    where the 2x2 Schur complement S equals
    d^2 L_kk L_kk^T + (h/4)(1 - d) I (:func:`schur_complements`).
    Factoring costs O(n^3) once; each horizon then costs O(k^2) for f,
    and O(1) more for f_b given z.

    ``factor`` holds L in its lower triangle and B in its strict upper
    triangle, ``b_diag`` the diagonal of B, and ``l_kk`` L's 2x2 diagonal
    blocks.  B is a symmetric permutation (time reversal, node-major
    order) of the stacked matrix A = W/2 + W C W of C^T, so the two share
    their asymmetry and their spectrum.
    """

    h: float
    factor: np.ndarray
    node_weights: np.ndarray  # trapezoid weights of B, node-major
    border: np.ndarray        # d, horizons 1..n
    l_kk: np.ndarray          # the 2x2 diagonal blocks of L, nodes 1..n
    s_inv: np.ndarray         # S^{-1}, horizons 1..n
    b_diag: np.ndarray
    asymmetry: float          # max |A - A^T| before the symmetrization

    @property
    def horizons(self) -> int:
        return len(self.border)

    def _border(self):
        """Row and column indices of node k in horizon k's columns, in
        the (N, K, r) view."""
        k = np.arange(1, self.horizons + 1)
        return 2 * k[:, None] + [0, 1], k[:, None] - 1

    def _zero_below(self, x3: np.ndarray) -> None:
        """Zero, in the (N, K, r) view, the rows below node k in horizon
        k's columns: node i's rows in the columns of the horizons < i."""
        for i in range(2, x3.shape[0] // 2):
            x3[2 * i:2 * i + 2, :i - 1] = 0.0

    def _cut(self, x: np.ndarray) -> np.ndarray:
        """D x in place: rows of node k times d, rows below it zeroed."""
        rows, cols = self._border()
        x3 = x.reshape(x.shape[0], self.horizons, -1)
        self._zero_below(x3)
        x3[rows, cols] *= self.border[:, None, None]
        return x

    def weigh(self, x: np.ndarray) -> np.ndarray:
        """W_k x in place, in the layout of :meth:`solve`: each horizon's
        columns times its trapezoid weights, zero below node k."""
        x *= self.node_weights[:, None]
        return self._cut(x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A_k f = b for every horizon at once, overwriting b.

        ``b`` is C-ordered (rows of ``factor``, n r): r right-hand sides
        per horizon, horizon k in the columns (k-1) r .. k r - 1, of which
        the rows of the nodes 0..k are used.  Returns f in the same
        layout, exactly zero below node k.

        Both substitutions run with the full factor: the rows of node k
        give d L_21 z = d (b_b - L_kk z_b), and back substitution from
        d L_kk^T f_b at node k (zero below) yields f_a and d f_b.
        """
        N, K = b.shape[0], self.horizons
        rows, cols = self._border()
        d = self.border[:, None, None]
        forward, back = CHOLESKY
        bb = b.reshape(N, K, -1)[rows, cols]                  # (K, 2, r)
        z3 = _tri_solve(self.factor, b, forward).reshape(N, K, -1)
        fb = self.s_inv @ (bb - d * (bb - self.l_kk @ z3[rows, cols]))
        self._zero_below(z3)
        z3[rows, cols] = d * (self.l_kk.transpose(0, 2, 1) @ fb)
        f = _tri_solve(self.factor, z3.reshape(N, -1), back)
        f.reshape(N, K, -1)[rows, cols] = fb
        return f

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetrized A.

        B is positive definite, so this is the inverse of the largest
        eigenvalue of B^{-1}, found by :func:`_lanczos_top` on an operator
        of two triangular solves (``dtrsv``) with the factor.  If Lanczos
        does not converge in LANCZOS_STEPS steps, it comes from a dense
        ``eigvalsh`` of B, read from the factor: its strict upper triangle
        and ``b_diag``.
        """
        dtrsv = _lapack.blas().dtrsv

        def b_inverse(x):
            z = dtrsv(self.factor, x, lower=1)
            return dtrsv(self.factor, z, lower=1, trans=1, overwrite_x=1)

        # a fixed start vector keeps the result deterministic
        v0 = np.random.default_rng(0).standard_normal(self.factor.shape[0])
        mu = _lanczos_top(b_inverse, v0)
        if mu is not None:
            return float(1.0 / mu)
        b = self.factor.copy()
        b[np.diag_indices_from(b)] = self.b_diag
        return float(np.linalg.eigvalsh(b, UPLO="U")[0])

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
            p = _lapack.blas().dsymm(1.0, self.factor, self._cut(f.copy()).T,
                                     side=1).T
        finally:
            self.factor[diag] = l_diag
        N, K = f.shape[0], self.horizons
        rows, cols = self._border()
        corner = 0.25 * self.h * (1.0 - self.border)[:, None, None]
        self._cut(p).reshape(N, K, -1)[rows, cols] += \
            corner * f.reshape(N, K, -1)[rows, cols]
        return p


def weighted_matrix(ck: ConnectingKernel):
    """B = W/2 + W C~ W of ``ck``, from its node-major reflected array, in
    Fortran order, and the node-major trapezoid weights w."""
    w = np.repeat(trapezoid_weights(ck.grid.n, ck.grid.h), 2)
    a = np.multiply(ck.nodes, w[:, None], order="F")
    a *= w[None, :]
    a[np.diag_indices_from(a)] += 0.5 * w
    return a, w


def diagonal_blocks(a: np.ndarray) -> np.ndarray:
    """The 2x2 blocks of the nodes 1..n on the diagonal of a node-major
    (2n+2)^2 array, as one (n, 2, 2) array."""
    k = np.arange(2, a.shape[0], 2)[:, None, None]
    return a[k + [[0], [1]], k + [0, 1]]


def _symmetrize(a: np.ndarray):
    """a <- (a + a^T)/2 in place, for a node-major A = W/2 + W C~ W, on
    its C12 block x and transposed C21 block y: the C11 and C22 node
    blocks are exactly symmetric, as weights h, h/2 round (c w_i) w_j like
    (c w_j) w_i.  Returns, per node, the largest |a - a^T| with the earlier
    nodes (``row``, 0 for node 0) and in its own 2x2 block (``own``)."""
    x, y = a[0::2, 1::2], a[1::2, 0::2].T
    gap = x - y
    np.abs(gap, out=gap)
    own = gap.diagonal().copy()
    lower = np.tri(len(gap), k=-1, dtype=bool)
    row = np.maximum(gap.max(axis=1, where=lower, initial=0.0),
                     gap.max(axis=0, where=lower.T, initial=0.0))
    mean = np.add(x, y, out=gap)    # gap's buffer, once it is scanned
    mean *= 0.5
    x[...] = y[...] = mean
    return row, own


def assemble_matrix(ck: ConnectingKernel) -> NestedFactor:
    """The inverse state of ``ck``, built once: form B = W/2 + W C~ W
    from its node-major reflected array, symmetrize its C12/C21 block
    pair, (B + B^T)/2, and factor it in place.

    :class:`ReconstructionError` if the factor stops short of the full
    horizon, naming the first horizon it misses and why: B is not
    positive definite, or that horizon's matrix A_k is more asymmetric,
    before the symmetrization, than ASYMMETRY_H2 h^2."""
    n, h = ck.grid.n, ck.grid.h
    a, w = weighted_matrix(ck)
    # asymmetry of A_k: the node pairs within 0..k-1 as in B, node k's
    # pairs with them times d, its own block times d^2
    row, own = _symmetrize(a)
    d = 0.5 * h / w[0::2]
    inner = np.maximum.accumulate(np.maximum(row, own))[:-1]
    asym = np.maximum(inner, np.maximum(d[1:] * row[1:], d[1:] ** 2 * own[1:]))
    b_diag = np.diag(a).copy()
    a, info = _lapack.lapack().dpotrf(a, lower=1, clean=0, overwrite_a=1)
    # Horizon k needs the factor down to node k.  On failure LAPACK leaves
    # the factor of the leading block of order info - 1.  The horizons
    # served also end before the first whose matrix is too asymmetric for
    # the symmetrization to hide.
    K = n if info == 0 else min(n, max(0, (info - 1) // 2 - 1))
    K = min(K, int(np.argmax(np.append(asym, np.inf) > ASYMMETRY_H2 * h * h)))
    if K < n:
        cause = ("its connecting matrix has asymmetry %.3g above %g h^2"
                 % (asym[K], ASYMMETRY_H2) if asym[K] > ASYMMETRY_H2 * h * h
                 else "the connecting matrix is not positive definite")
        raise ReconstructionError(
            "the nested factor stops short of horizon %d of %d: %s, so the "
            "response belongs to no potential" % (K + 1, n, cause))
    l_kk = np.tril(diagonal_blocks(a))
    border, s = schur_complements(h, w, l_kk, l_kk.transpose(0, 2, 1))
    return NestedFactor(h, a, w, border, l_kk, np.linalg.inv(s), b_diag,
                        float(asym[-1]))
