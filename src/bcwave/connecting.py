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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, InternalConsistencyError
from .grid import (Control, UniformGrid, cumulative_trapezoid,
                   trapezoid_weights, write_csv)
from .response import ResponseMatrix


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
        rows = ((np.full(len(t), t[i]), t, self.c11[i], self.c12[i],
                 self.c21[i], self.c22[i]) for i in range(len(t)))
        write_csv(path, ["t", "s", "C11", "C12", "C21", "C22"], rows)


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
    if asym > 100.0 * h * h:
        raise InternalConsistencyError(
            "connecting matrix asymmetry %g exceeds 100 h^2" % asym
        )
    return AssembledConnecting(0.5 * (A + A.T), wvec, asym)


def reflect_kernel(ck: ConnectingKernel) -> ConnectingKernel:
    """C~(t, s) = C(T - t, T - s); an exact index reversal (involution)."""
    return ConnectingKernel(ck.grid,
                            ck.c11[::-1, ::-1], ck.c12[::-1, ::-1],
                            ck.c21[::-1, ::-1], ck.c22[::-1, ::-1])
