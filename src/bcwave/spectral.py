"""Finite-interval spectral bridge for the dynamic representations.

The operator -y'' + q y is truncated to (-N, N) with separated
self-adjoint boundary conditions

    a1 y(-N) - b1 y'(-N) = 0,    a2 y(N) + b2 y'(N) = 0

(outward-normal form: Dirichlet for b = 0, Neumann for a = 0).  The
L2-normalized eigenfunctions y_n define the matrix measure weights
(beta_n, gamma_n) x (beta_n, gamma_n) with beta_n = y_n'(0) and
gamma_n = -y_n(0), and the forward solution, response, and connecting
form all admit sums over (lambda_n, beta_n, gamma_n).  This module
evaluates the response and connecting-form sums that the spectral stage
compares against their dynamic counterparts; the raw response and
forward-solution sums are test oracles (``tests/oracles.py``).
Response comparisons are done on time-integrated traces, where the
spectral sums converge uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ConfigError, DomainError, SpectralError
from .grid import (Control, UniformGrid, conv_trapezoid, cumulative_trapezoid,
                   trapezoid_weights, write_csv)
from .potentials import Potential, ZeroPotential

#: fraction of leading terms defining the tail-movement indicator
TAIL_FRACTION = 0.9


@dataclass(frozen=True)
class SpectralMeasure:
    """Eigenvalues, Cauchy data at 0, and mesh eigenfunctions on (-N, N)."""

    half_length: float
    bc: tuple
    lam: np.ndarray     # strictly increasing
    beta: np.ndarray    # y_n'(0)
    gamma: np.ndarray   # -y_n(0)
    nodes: np.ndarray   # mesh nodes on [-N, N]
    vecs: np.ndarray | None  # (count, mesh+1) L2-normalized eigenfunctions,
                             # or None if not kept

    @property
    def count(self) -> int:
        return len(self.lam)

    def write_csv(self, path) -> None:
        write_csv(path, ["n", "lambda", "beta", "gamma"],
                  [(np.arange(1, self.count + 1), self.lam, self.beta,
                    self.gamma)])


def eigensolve(p: Potential, half_length: float, bc, count: int, mesh: int,
               vecs: bool = True) -> SpectralMeasure:
    """Lowest ``count`` eigenpairs by 3-point finite differences.

    The discretization is the quadratic form on the mesh (stiffness
    tridiagonal, lumped trapezoid mass with halved end nodes, Robin
    terms (a/b) y^2 added at retained ends); the generalized problem is
    scaled to an ordinary symmetric tridiagonal one (diagonal a,
    off-diagonal b).  Every eigenvalue of it comes from LAPACK's
    root-free QR (``dsterf``); the lowest ``count`` are then refined and
    given eigenvectors by two steps of inverse iteration each, through
    LAPACK's tridiagonal solver ``dgtsv``, see :func:`_inverse_eigenpairs`.
    With ``vecs=False`` the eigenfunctions are not kept (``vecs`` is
    None): beta and gamma need only their five samples around x = 0, and
    come out bit for bit the same.
    """
    a1, b1, a2, b2 = (float(v) for v in bc)
    if (a1 == 0.0 and b1 == 0.0) or (a2 == 0.0 and b2 == 0.0):
        raise ConfigError("boundary condition with a = b = 0 is not self-adjoint")
    if mesh % 2:
        raise ConfigError("mesh must be even (a node is needed at x = 0)")
    if count >= mesh // 2:
        raise ConfigError("count must be below mesh/2")
    N = float(half_length)
    step = 2.0 * N / mesh
    x = -N + step * np.arange(mesh + 1)
    q = p(x)

    mass = np.full(mesh + 1, step)
    mass[0] = mass[-1] = 0.5 * step
    diag = np.full(mesh + 1, 2.0 / step) + q * mass
    diag[0] = 1.0 / step + q[0] * mass[0]
    diag[-1] = 1.0 / step + q[-1] * mass[-1]
    off = np.full(mesh, -1.0 / step)

    # a Dirichlet end drops its node; a Robin end adds a/b to its diagonal
    lo, hi = int(b1 == 0.0), mesh + int(b2 != 0.0)
    if b1 != 0.0:
        diag[0] += a1 / b1
    if b2 != 0.0:
        diag[-1] += a2 / b2

    d = diag[lo:hi]
    e = off[lo:hi - 1]
    scale = 1.0 / np.sqrt(mass[lo:hi])
    dt = d * scale * scale
    et = e * scale[:-1] * scale[1:]
    w, z = _inverse_eigenpairs(dt, et, count)

    # rows L2-normalized by trapezoid; the five central nodes give beta
    # and gamma
    c = mesh // 2
    centre = np.arange(c - 2, c + 3)
    inside = (centre >= lo) & (centre < hi)
    yc = np.zeros((count, 5))
    yc[:, inside] = z[:, centre[inside] - lo] * scale[centre[inside] - lo]
    beta, gamma, flip = _cauchy_data(yc, step)
    y = None
    if vecs:
        y = np.zeros((count, mesh + 1))
        np.multiply(z, scale, out=y[:, lo:hi])
        y *= flip[:, None]
    return SpectralMeasure(N, (a1, b1, a2, b2), w, beta, gamma, x, y)


def _cauchy_data(yc: np.ndarray, step: float):
    """(beta, gamma, flip) from eigenfunction samples ``yc`` (count, 5) at
    the five nodes around x = 0: beta = y'(0) by the 5-point stencil,
    gamma = -y(0), both multiplied by ``flip`` = +-1, which makes the
    dominant Cauchy component positive (a deterministic sign)."""
    beta = (-yc[:, 4] + 8 * yc[:, 3] - 8 * yc[:, 1] + yc[:, 0]) / (12 * step)
    gamma = -yc[:, 2]
    flip = np.where(np.abs(beta) >= np.abs(gamma), np.sign(beta),
                    np.sign(gamma))
    flip[flip == 0.0] = 1.0
    return beta * flip, gamma * flip, flip


def dsterf(d: np.ndarray, e: np.ndarray):
    """LAPACK ``dsterf``: every eigenvalue of the symmetric tridiagonal
    (d, e), and its info code.  It is scipy's own compiled routine, loaded
    without the scipy packages on the first call (see :mod:`._lapack`)."""
    return _lapack.lapack().dsterf(d, e)


def _inverse_eigenpairs(a: np.ndarray, b: np.ndarray, count: int):
    """Lowest ``count`` eigenpairs of the symmetric tridiagonal (a, b):
    the lowest ``dsterf`` eigenvalues, each refined by
    :func:`_inverse_step`, and their unit eigenvectors as the rows of one
    (count, m) array.  A vector's error is about its shift's error over
    the gap, so vectors at the ``dsterf`` values would be 10-50x worse."""
    vals, info = dsterf(a, b)
    if info != 0:
        raise SpectralError("dsterf failed to converge (info %d)" % info)
    lam = np.sort(vals)[:count]
    start = np.random.default_rng(0).standard_normal(len(a))
    z = np.empty((count, len(a)))
    with np.errstate(all="ignore"):
        for k in range(count):
            lam[k], z[k] = _inverse_step(a, b, lam[k], start)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(z))):
        raise SpectralError("non-finite eigendata from inverse iteration")
    return lam, z


def _inverse_step(a, b, shift, start):
    """Two steps of inverse iteration on T - shift (Ipsen, SIAM Review
    39, 1997): the refined shift and the unit eigenvector.

    x solves (T - s) x = ``start``, so x.(T - s)x = x.start, and the
    Rayleigh quotient of x is s + (x.start)/(x.x), without the
    cancellation of x.Tx.  A second solve at that quotient, from x/|x|,
    gives the vector.  LAPACK's ``dgtsv`` does each solve; where it
    meets an exactly singular pivot (the free Neumann lam = 0 gives
    one), it solves again at s - eps max|a|.
    """
    gtsv = _lapack.lapack().dgtsv

    def solve(s, rhs):
        x, info = gtsv(b, a - s, b, rhs)[3:]
        return (s, x) if info <= 0 else solve(
            s - np.finfo(float).eps * np.max(np.abs(a)), rhs)

    s, x = solve(shift, start)
    lam = s + (x @ start) / (x @ x)
    x = solve(lam, x / np.sqrt(x @ x))[1]
    return lam, x / np.sqrt(x @ x)


def wave_kernel(lam, t):
    """s(lambda, t) = sin(sqrt(lambda) t)/sqrt(lambda), extended entirely
    through lambda = 0 and to the hyperbolic branch; series near z = 0.
    Each branch is evaluated on its own entries only."""
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(t, dtype=float))
    z = lam * t * t
    out = np.zeros(lam.shape)
    small = np.abs(z) < 1e-6
    zs = z[small]
    out[small] = t[small] * (1.0 - zs / 6.0 + zs * zs / 120.0)
    pos = ~small & (lam > 0.0)
    rp = np.sqrt(lam[pos])
    out[pos] = np.sin(rp * t[pos]) / rp
    neg = ~small & (lam < 0.0)
    rm = np.sqrt(-lam[neg])
    out[neg] = np.sinh(rm * t[neg]) / rm
    return out if out.ndim else float(out)


def wave_kernel_antiderivative(lam, u):
    """sigma(lambda, u) = int_0^u s(lambda, t) dt = (1 - cos(sqrt(lambda) u))
    / lambda, same branch structure as wave_kernel."""
    lam, u = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(u, dtype=float))
    z = lam * u * u
    out = np.zeros(lam.shape)
    small = np.abs(z) < 1e-6
    zs = z[small]
    us = u[small]
    out[small] = 0.5 * us * us * (1.0 - zs / 12.0 + zs * zs / 360.0)
    pos = ~small & (lam > 0.0)
    lp = lam[pos]
    out[pos] = (1.0 - np.cos(np.sqrt(lp) * u[pos])) / lp
    neg = ~small & (lam < 0.0)
    ln = lam[neg]
    out[neg] = (1.0 - np.cosh(np.sqrt(-ln) * u[neg])) / ln
    return out if out.ndim else float(out)


def _cauchy_coefficients(measure: SpectralMeasure, f: Control) -> np.ndarray:
    """g_n(s) = f1(s) beta_n + f2'(s) gamma_n, shape (count, n+1)."""
    _, d2 = f.derivative()
    return measure.beta[:, None] * f.f1 + measure.gamma[:, None] * d2


def _tail(partial_full: np.ndarray, partial_head: np.ndarray) -> float:
    """Relative movement of the result over the last (1 - TAIL_FRACTION)
    of the modes; large values flag an insufficient cutoff."""
    scale = max(float(np.max(np.abs(partial_full))), 1e-300)
    return float(np.max(np.abs(partial_full - partial_head)) / scale)


@dataclass(frozen=True)
class SpectralResult:
    """A spectral-sum evaluation with its cutoff tail indicator."""

    value: object
    tail: float


def free_reference(measure: SpectralMeasure) -> SpectralMeasure:
    """The q = 0 measure with the same interval, bc, cutoff and mesh,
    without eigenfunctions (the reference sums read lam, beta and gamma
    only).

    An end is Dirichlet if b = 0 and Neumann if a = 0.  With no Robin
    end, the eigenpairs of the discrete q = 0 problem that
    :func:`eigensolve` sets up are known exactly.  With M = mesh,
    step = 2N/M and k = 0..count-1:

        theta_k = (k+1) pi/M (D-D),  k pi/M (N-N),  (k+1/2) pi/M (mixed),
        lam_k = (4/step^2) sin^2(theta_k/2),

    and the L2-normalized eigenfunction at node j is
    sin(theta_k j')/sqrt(N), j' counting nodes from a Dirichlet end, or
    cos(theta_k j)/sqrt(N) for N-N, whose k = 0 mode is divided by a
    further sqrt(2) (lam_0 = 0 exactly).  The five central samples go
    through the stencil and sign rule of :func:`eigensolve`, so the
    result agrees with the numeric solve to its own roundoff (1e-11
    relative) at a fraction of a millisecond.  The continuum forms
    (k pi/2N)^2 are not used: they differ from the discrete eigenvalues
    by up to 3% at k = 400, and the reference must share the measure's
    discretisation to cancel its divergent part.  Robin ends are solved
    numerically, by :func:`eigensolve` on ``ZeroPotential()``.
    """
    a1, b1, a2, b2 = measure.bc
    mesh = len(measure.nodes) - 1
    N = measure.half_length
    if (a1 != 0.0 and b1 != 0.0) or (a2 != 0.0 and b2 != 0.0):
        return eigensolve(ZeroPotential(), N, measure.bc, measure.count,
                          mesh, vecs=False)
    step = 2.0 * N / mesh
    shift = 0.5 * ((b1 == 0.0) + (b2 == 0.0))   # 1 D-D, 0 N-N, 1/2 mixed
    theta = (np.arange(measure.count) + shift) * (np.pi / mesh)
    lam = 4.0 / step ** 2 * np.sin(0.5 * theta) ** 2
    j = np.arange(mesh // 2 - 2, mesh // 2 + 3)
    if b1 == 0.0:
        yc = np.sin(np.outer(theta, j))
    elif b2 == 0.0:
        yc = np.sin(np.outer(theta, mesh - j))
    else:
        yc = np.cos(np.outer(theta, j))
        yc[0] /= np.sqrt(2.0)
    yc /= np.sqrt(N)
    beta, gamma, _ = _cauchy_data(yc, step)
    return SpectralMeasure(N, measure.bc, lam, beta, gamma, measure.nodes,
                           None)


def _shared_grid(controls) -> UniformGrid:
    """The one grid of every control in ``controls``, else DomainError."""
    grids = {f.grid for f in controls}
    if len(grids) != 1:
        raise DomainError("controls must share one grid")
    return grids.pop()


def smoothed_response_traces(measure: SpectralMeasure, controls,
                             reference: SpectralMeasure
                             ) -> list[SpectralResult]:
    """Time-integrated responses int_0^u (R^T F)(t) dt on the control grid,
    one SpectralResult per control F of ``controls``; each value has
    shape (2, n+1).

    The control creates a jump of u at x = 0, so the beta-channel of the
    truncated measure sum carries a cutoff-divergent delta concentration
    (the -f1'/2 singular part of the response).  That concentration is
    independent of q, so it is removed exactly by subtracting the
    same-cutoff q = 0 measure sum and restoring the closed-form free
    response (-f1'/2, f2/2) -- integrated here to (-( f1 - f1(0))/2,
    int f2 / 2).  All q-dependence stays in the measure difference, which
    converges; swapping the order of integration turns each mode's
    double integral into one convolution with sigma(lambda, .).

    The cancellation is exact only against the q = 0 problem of the
    measure's own discretisation, so ``reference`` must share its
    cutoff, interval, bc and mesh, else DomainError.  The spectral stage
    passes :func:`free_reference`: the discrete closed form for Dirichlet
    and Neumann ends, a numeric solve for Robin ends.  The continuum
    eigenvalues (k pi/2N)^2 would not do: they are up to 3% off the
    discrete ones at k = 400, and the divergent parts would no longer
    cancel.

    The controls must share one grid, else DomainError: the mode sums
    depend only on the measures and the grid, so they are built once and
    every control is evaluated against them.
    """
    grid = _shared_grid(controls)
    if grid.horizon >= 2.0 * measure.half_length:
        raise DomainError("control horizon must stay below 2N")
    if (reference.count != measure.count
            or reference.half_length != measure.half_length
            or reference.bc != measure.bc
            or len(reference.nodes) != len(measure.nodes)):
        raise DomainError("reference measure must share the cutoff, "
                          "interval, bc and mesh")
    h = grid.h
    sig = wave_kernel_antiderivative(measure.lam[:, None], grid.t)
    sig0 = wave_kernel_antiderivative(reference.lam[:, None], grid.t)

    # conv_trapezoid is bilinear and g_n = beta_n f1 + gamma_n f2', so the
    # mode sums collapse onto three kernels: beta^2, beta gamma and
    # gamma^2 times sigma, each minus its reference counterpart.
    weights = [(measure.beta * measure.beta, reference.beta * reference.beta),
               (measure.beta * measure.gamma,
                reference.beta * reference.gamma),
               (measure.gamma * measure.gamma,
                reference.gamma * reference.gamma)]

    def kernels(count):
        return [c[:count] @ sig[:count] - c0[:count] @ sig0[:count]
                for c, c0 in weights]

    full = kernels(measure.count)
    head = kernels(int(TAIL_FRACTION * measure.count))
    results = []
    for f in controls:
        _, d2 = f.derivative()
        free = np.array([-0.5 * (f.f1 - f.f1[0]),
                         0.5 * cumulative_trapezoid(f.f2, h)])

        def summed(kbb, kbg, kgg):
            return free + np.array([
                conv_trapezoid(kbb, f.f1, h) + conv_trapezoid(kbg, d2, h),
                conv_trapezoid(kbg, f.f1, h) + conv_trapezoid(kgg, d2, h)])

        out = summed(*full)
        results.append(SpectralResult(out, _tail(out, summed(*head))))
    return results


def spectral_connecting_form(measure: SpectralMeasure,
                             pairs) -> list[SpectralResult]:
    """(C^T F, G) = sum_n A_n(F) A_n(G) with
    A_n(F) = int_0^T s(lambda_n, T-s)(f1 beta_n + f2' gamma_n) ds, one
    SpectralResult per pair (F, G) of ``pairs``.  Every control must
    share one grid, else DomainError; s(lambda_n, T - s) is built once."""
    grid = _shared_grid([c for pair in pairs for c in pair])
    T = grid.horizon
    if T >= measure.half_length:
        raise DomainError("horizon must stay below N")
    s = wave_kernel(measure.lam[:, None], T - grid.t)
    w = trapezoid_weights(grid.n, grid.h)
    results = []
    for f, g in pairs:
        af = np.sum(s * _cauchy_coefficients(measure, f) * w, axis=1)
        ag = np.sum(s * _cauchy_coefficients(measure, g) * w, axis=1)
        terms = af * ag
        full = float(terms.sum())
        head = float(terms[: int(TAIL_FRACTION * measure.count)].sum())
        results.append(SpectralResult(
            full, _tail(np.array([full]), np.array([head]))))
    return results

