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
interpolation enters.  C21 and C12 are built independently from their own
formulas; their mismatch is a reported consistency diagnostic for the
response data, never silently averaged.  For an even potential r12 and
r21 vanish identically and C12 = C21 = 0 pointwise.

The kernel is held once, as the node-major, time-reflected array of
C~(t, s) = C(T - t, T - s) (:func:`connecting_nodes`); the forward-time
blocks C11..C22 are views of it, and every consumer reads it.  Both
inverse routes solve, for every horizon k = 1..n, the Nystrom system of
C^{tau_k} in reversed time.  Reversal makes the kernel depend only on
t' + s' and |t' - s'|, so every such matrix is the leading block, on the
nodes 0..k, of one fixed matrix B = W/2 + W C~ W, except that the
trapezoid weight of node k is halved.
:func:`nested_factor` factors B once and solves every horizon by
bordering its leading Cholesky factor (Levinson 1947; the Krein
equations of the boundary control method, Belishev 2007).

:func:`assemble_matrix` builds that shared inverse state once per run:
the kernel and the nested factor of its array, which reaches every
horizon of a potential's response (its connecting operator is positive
definite); where it stops short, :func:`assemble_matrix` raises.  The
connect stage reports from it the assembly asymmetry (the factor's
full-horizon asymmetry) and the smallest eigenvalue (Lanczos through the
factor, Lehoucq, Sorensen and Yang 1998); krein and gl solve through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, ReconstructionError
from .grid import (Control, UniformGrid, cumulative_trapezoid,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix


#: Largest asymmetry of an assembled connecting matrix, in units of h^2,
#: that its symmetrization may hide.
ASYMMETRY_H2 = 100.0
#: Rows and columns per block of :func:`nested_factor`'s asymmetry scan
#: and symmetrization; even, so that a block holds whole nodes.
_SCAN_BLOCK = 128


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

    i, j = np.meshgrid(np.arange(n_half + 1), np.arange(n_half + 1),
                       indexing="ij")
    refl = i + j                       # index of 2*tau - t - s
    diff = j - i                       # index of t - s (signed)
    adiff = np.abs(diff)
    sgn = np.sign(diff)

    nodes = np.empty((2 * n_half + 2, 2 * n_half + 2))
    nodes[0::2, 0::2] = 0.5 * (p1[refl] - p1[adiff])
    nodes[0::2, 1::2] = 0.5 * (p2[refl] - sgn * p2[adiff])
    nodes[1::2, 0::2] = 0.5 * (sgn * r.r21[adiff] + r.r21[refl])
    nodes[1::2, 1::2] = 0.5 * (r.r22[adiff] + r.r22[refl])
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


def build_connecting(r: ResponseMatrix, n_half: int | None = None) -> ConnectingKernel:
    """Assemble the connecting kernel for horizon T = n_half * h (default:
    half the response horizon)."""
    if n_half is None:
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
    from .grid import inner_outer

    return inner_outer(apply_connecting(ck, f), g)


def _tri_solve(factor: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve L x = b (trans 0) or L^T x = b (trans 1) in place for a
    C-ordered b.  Its transpose is Fortran-ordered, so BLAS solves
    x^T op(L)^T = b^T from the right without copying b."""
    from scipy.linalg.blas import dtrsm

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
    K, the factor's reach, is n unless the factorization stops at node
    p, when K = p - 1, or the asymmetry of A_k, which the symmetrization
    hides, exceeds ASYMMETRY_H2 h^2, when K = k - 1;
    :func:`assemble_matrix` accepts only K = n.  A :meth:`panel` serves
    the horizons first..last only.
    """

    h: float
    factor: np.ndarray
    b_diag: np.ndarray
    node_weights: np.ndarray  # trapezoid weights of B, node-major
    border: np.ndarray        # d, horizons first..K
    l_kk: np.ndarray          # the 2x2 diagonal blocks of L, nodes first..K
    s_inv: np.ndarray         # S^{-1}, horizons first..K
    asymmetry: np.ndarray     # max |A_k - A_k^T|, horizons first..n
                              # (first..last in a panel)
    first: int = 1

    @property
    def horizons(self) -> int:
        return len(self.border)

    def panel(self, first: int, last: int) -> "NestedFactor":
        """The factor of the horizons first..last (1 <= first <= last <= K)
        on the leading 2 last + 2 rows, the only ones they use, so that
        its solves run on that leading block alone.  The block is copied
        to Fortran order unless it is the whole factor."""
        rows = 2 * last + 2
        own = slice(first - self.first, last - self.first + 1)
        return NestedFactor(self.h,
                            np.asfortranarray(self.factor[:rows, :rows]),
                            self.b_diag[:rows], self.node_weights[:rows],
                            self.border[own], self.l_kk[own], self.s_inv[own],
                            self.asymmetry[own], first)

    def _border(self):
        """Row and column indices of node k in horizon k's columns, in
        the (N, K, r) view."""
        k = np.arange(self.first, self.first + self.horizons)
        return 2 * k[:, None] + [0, 1], k[:, None] - self.first

    def _zero_below(self, x3: np.ndarray) -> None:
        """Zero, in the (N, K, r) view, the rows below node k in horizon
        k's columns: node i's rows in the columns of the horizons < i."""
        for i in range(self.first + 1, x3.shape[0] // 2):
            x3[2 * i:2 * i + 2, :i - self.first] = 0.0

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

        ``b`` is C-ordered (rows of ``factor``, K r): r right-hand sides
        per horizon, horizon k in the columns (k-first) r .. (k-first+1)
        r - 1, of which the rows of the nodes 0..k are used.  Returns f in
        the same layout, exactly zero below node k.

        Both substitutions run with the full L: the rows of node k give
        X z = d (b_b - L_kk z_b), and back substitution from
        d L_kk^T f_b at node k (zero below) yields f_a and d f_b.
        """
        N, K = b.shape[0], self.horizons
        rows, cols = self._border()
        d = self.border[:, None, None]
        bb = b.reshape(N, K, -1)[rows, cols]                  # (K, 2, r)
        z3 = _tri_solve(self.factor, b, 0).reshape(N, K, -1)
        fb = self.s_inv @ (bb - d * (bb - self.l_kk @ z3[rows, cols]))
        self._zero_below(z3)
        z3[rows, cols] = d * (self.l_kk.transpose(0, 2, 1) @ fb)
        f = _tri_solve(self.factor, z3.reshape(N, -1), 1)
        f.reshape(N, K, -1)[rows, cols] = fb
        return f

    def apply(self, f: np.ndarray) -> np.ndarray:
        """A_k f for every horizon, in the layout of :meth:`solve` (f zero
        below node k), from the stored triangle of B:
        A_k f = D B D f + (h/4)(1 - D) f with D = 1 on the nodes 0..k-1,
        d on node k and 0 below."""
        from scipy.linalg.blas import dsymm

        # dsymm reads the diagonal, where the factor keeps L's; swap B's in
        diag = np.diag_indices_from(self.factor)
        l_diag = self.factor[diag]
        self.factor[diag] = self.b_diag
        try:
            p = dsymm(1.0, self.factor, self._cut(f.copy()).T, side=1).T
        finally:
            self.factor[diag] = l_diag
        N, K = f.shape[0], self.horizons
        rows, cols = self._border()
        corner = 0.25 * self.h * (1.0 - self.border)[:, None, None]
        self._cut(p).reshape(N, K, -1)[rows, cols] += \
            corner * f.reshape(N, K, -1)[rows, cols]
        return p


def _symmetrize(a: np.ndarray):
    """a <- (a + a^T)/2 in place, one pair of _SCAN_BLOCK blocks at a
    time.  Returns, per node, the largest |a - a^T| over its pairs with
    the earlier nodes (``row``, 0 for node 0) and within its own 2x2
    block (``own``), taken before the symmetrization."""
    size = a.shape[0]
    row, own = np.zeros(size // 2), np.empty(size // 2)
    for i0 in range(0, size, _SCAN_BLOCK):
        rows = slice(i0, i0 + _SCAN_BLOCK)
        nodes = slice(i0 // 2, (i0 + _SCAN_BLOCK) // 2)
        for j0 in range(0, i0 + 1, _SCAN_BLOCK):
            cols = slice(j0, j0 + _SCAN_BLOCK)
            x, y = a[rows, cols], a[cols, rows].T
            gap = np.abs(x - y)
            if j0 == i0:
                pair = np.maximum(np.maximum(gap[0::2, 0::2], gap[0::2, 1::2]),
                                  np.maximum(gap[1::2, 0::2], gap[1::2, 1::2]))
                own[nodes] = np.diagonal(pair)
                top = np.tril(pair, -1).max(axis=1)
            else:
                top = gap.max(axis=1)
                top = np.maximum(top[0::2], top[1::2])
            row[nodes] = np.maximum(row[nodes], top)
            x += y
            x *= 0.5
            a[cols, rows] = x.T
    return row, own


def nested_factor(cr: np.ndarray, h: float) -> NestedFactor:
    """Form B = W/2 + W C~ W from the node-major reflected kernel ``cr``
    (``ConnectingKernel.nodes``), symmetrize it, (B + B^T)/2, and factor
    it in place.  The asymmetry of every horizon's matrix, before the
    symmetrization, is recorded."""
    from scipy.linalg.lapack import dpotrf

    n = cr.shape[0] // 2 - 1
    w = np.repeat(trapezoid_weights(n, h), 2)
    a = np.multiply(cr, w[:, None], order="F")
    a *= w[None, :]
    a[np.diag_indices_from(a)] += 0.5 * w
    # asymmetry of A_k: the node pairs within 0..k-1 as in B, node k's
    # pairs with them times d, its own block times d^2
    row, own = _symmetrize(a)
    d = 0.5 * h / w[0::2]
    inner = np.maximum.accumulate(np.maximum(row, own))[:-1]
    asym = np.maximum(inner, np.maximum(d[1:] * row[1:], d[1:] ** 2 * own[1:]))
    b_diag = np.diag(a).copy()
    a, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    # Horizon k needs the factor down to node k.  On failure LAPACK leaves
    # the factor of the leading block of order info - 1.  The reach also
    # ends before the first horizon whose matrix is too asymmetric for
    # the symmetrization to hide.
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
    return NestedFactor(h, a, b_diag, w, border, l_kk, np.linalg.inv(s),
                        asym)


@dataclass(frozen=True)
class AssembledConnecting:
    """The inverse state of one connecting kernel, shared by the connect,
    krein and gl stages: the kernel, whose node-major array is C~, and
    the nested factor of B = W/2 + W C~ W (:func:`nested_factor`).

    B is a symmetric permutation (time reversal, node-major order) of the
    stacked matrix A = W/2 + W C W of C^T, so the two share their
    asymmetry and their spectrum.
    """

    kernel: ConnectingKernel
    factor: NestedFactor

    @property
    def asymmetry(self) -> float:
        """max |A - A^T| before symmetrization: the factor's asymmetry of
        the full horizon, whose node weights are A's."""
        return float(self.factor.asymmetry[-1])

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetrized A.

        B is positive definite, so this is the inverse of the largest
        eigenvalue of B^{-1}, found by Lanczos (ARPACK) on an operator of
        two triangular solves (``dtrsv``) with the factor.  If Lanczos
        does not converge, it comes from a dense ``eigvalsh`` of B, read
        from the factor: its strict upper triangle and ``b_diag``.
        """
        from scipy.linalg.blas import dtrsv
        from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                         eigsh)

        fac = self.factor
        size = fac.factor.shape[0]

        def b_inverse(x):
            z = dtrsv(fac.factor, np.ravel(x), lower=1)
            return dtrsv(fac.factor, z, lower=1, trans=1, overwrite_x=1)

        op = LinearOperator((size, size), matvec=b_inverse, dtype=float)
        # a fixed start vector keeps the result deterministic
        v0 = np.random.default_rng(0).standard_normal(size)
        try:
            mu = eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)
            return float(1.0 / mu[0])
        except ArpackNoConvergence:
            b = fac.factor.copy()
            b[np.diag_indices_from(b)] = fac.b_diag
            return float(np.linalg.eigvalsh(b, UPLO="U")[0])


def assemble_matrix(ck: ConnectingKernel) -> AssembledConnecting:
    """The shared inverse state of ``ck``: the nested factor of its
    node-major array, built once.  :class:`ReconstructionError` if the
    factor stops short of the full horizon, naming the first horizon it
    misses and why: B is not positive definite, or that horizon's matrix
    is more asymmetric than ASYMMETRY_H2 h^2."""
    n, h = ck.grid.n, ck.grid.h
    fac = nested_factor(ck.nodes, h)
    if fac.horizons == n:
        return AssembledConnecting(ck, fac)
    k, asym = fac.horizons + 1, fac.asymmetry[fac.horizons]
    cause = ("its connecting matrix has asymmetry %.3g above %g h^2"
             % (asym, ASYMMETRY_H2) if asym > ASYMMETRY_H2 * h * h
             else "the connecting matrix is not positive definite")
    raise ReconstructionError(
        "the nested factor stops short of horizon %d of %d: %s, so the "
        "response belongs to no potential" % (k, n, cause))
