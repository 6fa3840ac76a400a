"""Finite-interval spectral bridge for the dynamic representations.

The operator -y'' + q y is truncated to (-N, N) with separated
self-adjoint boundary conditions

    a1 y(-N) - b1 y'(-N) = 0,    a2 y(N) + b2 y'(N) = 0

(outward-normal form: Dirichlet for b = 0, Neumann for a = 0).  The
L2-normalized eigenfunctions y_n define the matrix measure weights
(beta_n, gamma_n) x (beta_n, gamma_n) with beta_n = y_n'(0) and
gamma_n = -y_n(0), and the forward solution, response, and connecting
form all admit sums over (lambda_n, beta_n, gamma_n) that this module
evaluates and that the tests compare against the dynamic counterparts.
Response comparisons are done on time-integrated traces, where the
spectral sums converge uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import interp1d
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, DomainError
from .grid import (Control, StateVector, conv_trapezoid, trapezoid_weights,
                   write_csv)
from .potentials import Potential

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
    vecs: np.ndarray    # (count, mesh+1) L2-normalized eigenfunctions

    @property
    def count(self) -> int:
        return len(self.lam)

    def write_csv(self, path) -> None:
        write_csv(path, ["n", "lambda", "beta", "gamma"],
                  [(np.arange(1, self.count + 1), self.lam, self.beta,
                    self.gamma)])


def eigensolve(p: Potential, half_length: float, bc=(1.0, 0.0, 1.0, 0.0),
               count: int = 400, mesh: int = 2048) -> SpectralMeasure:
    """Lowest ``count`` eigenpairs by 3-point finite differences.

    The discretization is the quadratic form on the mesh (stiffness
    tridiagonal, lumped trapezoid mass with halved end nodes, Robin
    terms (a/b) y^2 added at retained ends); the generalized problem is
    scaled to an ordinary symmetric tridiagonal one, so scipy's
    tridiagonal eigensolver applies directly.
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

    lo = 0
    hi = mesh + 1
    if b1 == 0.0:
        lo = 1           # Dirichlet: drop the end node
    else:
        diag[0] += a1 / b1
    if b2 == 0.0:
        hi = mesh
    else:
        diag[-1] += a2 / b2

    d = diag[lo:hi]
    e = off[lo:hi - 1]
    scale = 1.0 / np.sqrt(mass[lo:hi])
    dt = d * scale * scale
    et = e * scale[:-1] * scale[1:]
    w, v = eigh_tridiagonal(dt, et, select="i", select_range=(0, count - 1))

    y = np.zeros((count, mesh + 1))
    y[:, lo:hi] = (v * scale[:, None]).T  # rows L2-normalized by trapezoid

    c = mesh // 2
    beta = (-y[:, c + 2] + 8 * y[:, c + 1] - 8 * y[:, c - 1] + y[:, c - 2]) \
        / (12 * step)
    gamma = -y[:, c]
    # deterministic sign: make the dominant Cauchy component positive
    flip = np.where(np.abs(beta) >= np.abs(gamma), np.sign(beta),
                    np.sign(gamma))
    flip[flip == 0.0] = 1.0
    y *= flip[:, None]
    beta *= flip
    gamma *= flip
    return SpectralMeasure(N, (a1, b1, a2, b2), w, beta, gamma, x, y)


def wave_kernel(lam, t):
    """s(lambda, t) = sin(sqrt(lambda) t)/sqrt(lambda), extended entirely
    through lambda = 0 and to the hyperbolic branch; series near z = 0."""
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    z = lam * t * t
    out = np.empty(np.broadcast(lam, t).shape)
    small = np.abs(z) < 1e-6
    zs = np.where(small, z, 0.0)
    out[...] = np.where(small, t * (1.0 - zs / 6.0 + zs * zs / 120.0), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rp = np.sqrt(np.maximum(lam, 0.0))
        pos = ~small & (lam > 0.0)
        out[pos] = (np.sin(rp * t) / np.where(rp > 0, rp, 1.0))[pos]
        rm = np.sqrt(np.maximum(-lam, 0.0))
        neg = ~small & (lam < 0.0)
        out[neg] = (np.sinh(rm * t) / np.where(rm > 0, rm, 1.0))[neg]
    return out if out.ndim else float(out)


def wave_kernel_antiderivative(lam, u):
    """sigma(lambda, u) = int_0^u s(lambda, t) dt = (1 - cos(sqrt(lambda) u))
    / lambda, same branch structure as wave_kernel."""
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    z = lam * u * u
    out = np.empty(np.broadcast(lam, u).shape)
    small = np.abs(z) < 1e-6
    zs = np.where(small, z, 0.0)
    out[...] = np.where(small,
                        0.5 * u * u * (1.0 - zs / 12.0 + zs * zs / 360.0), 0.0)
    lam_safe = np.where(small, 1.0, lam)
    pos = ~small & (lam > 0.0)
    out[pos] = ((1.0 - np.cos(np.sqrt(np.maximum(lam, 0.0)) * u)) / lam_safe)[pos]
    neg = ~small & (lam < 0.0)
    out[neg] = ((1.0 - np.cosh(np.sqrt(np.maximum(-lam, 0.0)) * u)) / lam_safe)[neg]
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


def spectral_response(measure: SpectralMeasure, f: Control,
                      t: float) -> SpectralResult:
    """(R^T F)(t) as the raw truncated measure sum; value is a 2-vector.

    The raw sum is formal: its beta-channel grows with the cutoff (the
    jump of u at x = 0 puts a delta concentration into the first
    component).  Use :func:`smoothed_response_traces` for quantitative
    comparisons; this entry point exists to expose the raw partial sums
    and their tail behaviour.
    """
    h = f.grid.h
    k = int(round(t / h))
    if abs(k * h - t) > 1e-9 * h or k > f.grid.n:
        raise DomainError("t must be a grid node within the control horizon")
    if t >= 2.0 * measure.half_length:
        raise DomainError("t must stay below 2N")
    g = _cauchy_coefficients(measure, f)[:, : k + 1]
    s = wave_kernel(measure.lam[:, None], t - h * np.arange(k + 1))
    w = trapezoid_weights(k, h) if k else np.zeros(1)
    amp = np.sum(s * g * w, axis=1)
    terms = amp[:, None] * np.stack([measure.beta, measure.gamma], axis=1)
    full = terms.sum(axis=0)
    head = terms[: int(TAIL_FRACTION * measure.count)].sum(axis=0)
    return SpectralResult(full, _tail(full, head))


def free_reference(measure: SpectralMeasure) -> SpectralMeasure:
    """The q = 0 measure with the same interval, bc, cutoff and mesh."""
    from .potentials import ZeroPotential

    return eigensolve(ZeroPotential(), measure.half_length, measure.bc,
                      measure.count, len(measure.nodes) - 1)


def smoothed_response_traces(measure: SpectralMeasure, f: Control,
                             reference: SpectralMeasure | None = None
                             ) -> SpectralResult:
    """Time-integrated response int_0^u (R^T F)(t) dt on the control grid;
    value has shape (2, n+1).

    The control creates a jump of u at x = 0, so the beta-channel of the
    truncated measure sum carries a cutoff-divergent delta concentration
    (the -f1'/2 singular part of the response).  That concentration is
    independent of q, so it is removed exactly by subtracting the
    same-cutoff q = 0 measure sum and restoring the closed-form free
    response (-f1'/2, f2/2) -- integrated here to (-( f1 - f1(0))/2,
    int f2 / 2).  All q-dependence stays in the measure difference, which
    converges; swapping the order of integration turns each mode's
    double integral into one convolution with sigma(lambda, .).
    """
    grid = f.grid
    if grid.horizon >= 2.0 * measure.half_length:
        raise DomainError("control horizon must stay below 2N")
    if reference is None:
        reference = free_reference(measure)
    if reference.count != measure.count:
        raise DomainError("reference measure must share the cutoff")
    g = _cauchy_coefficients(measure, f)
    g0 = _cauchy_coefficients(reference, f)
    sig = wave_kernel_antiderivative(measure.lam[:, None], grid.t)
    sig0 = wave_kernel_antiderivative(reference.lam[:, None], grid.t)
    out = np.zeros((2, grid.n + 1))
    head = np.zeros((2, grid.n + 1))
    n_head = int(TAIL_FRACTION * measure.count)
    for n in range(measure.count):
        conv = conv_trapezoid(sig[n], g[n], grid.h)
        conv0 = conv_trapezoid(sig0[n], g0[n], grid.h)
        out[0] += measure.beta[n] * conv - reference.beta[n] * conv0
        out[1] += measure.gamma[n] * conv - reference.gamma[n] * conv0
        if n == n_head - 1:
            head[:] = out
    from .grid import cumulative_trapezoid

    out[0] += -0.5 * (f.f1 - f.f1[0])
    out[1] += 0.5 * cumulative_trapezoid(f.f2, grid.h)
    head[0] += -0.5 * (f.f1 - f.f1[0])
    head[1] += 0.5 * cumulative_trapezoid(f.f2, grid.h)
    return SpectralResult(out, _tail(out, head))


def spectral_connecting_form(measure: SpectralMeasure, f: Control,
                             g: Control) -> SpectralResult:
    """(C^T F, G) = sum_n A_n(F) A_n(G) with
    A_n(F) = int_0^T s(lambda_n, T-s)(f1 beta_n + f2' gamma_n) ds."""
    if f.grid != g.grid:
        raise DomainError("controls must share a grid")
    T = f.grid.horizon
    if T >= measure.half_length:
        raise DomainError("horizon must stay below N")
    h = f.grid.h
    s = wave_kernel(measure.lam[:, None], T - f.grid.t)
    w = trapezoid_weights(f.grid.n, h)
    af = np.sum(s * _cauchy_coefficients(measure, f) * w, axis=1)
    ag = np.sum(s * _cauchy_coefficients(measure, g) * w, axis=1)
    terms = af * ag
    full = float(terms.sum())
    head = float(terms[: int(TAIL_FRACTION * measure.count)].sum())
    return SpectralResult(full, _tail(np.array([full]), np.array([head])))


def spectral_forward(measure: SpectralMeasure, f: Control,
                     t: float) -> SpectralResult:
    """v^F(., t) = sum_n c_n(t) y_n as a StateVector on [-t, t].

    Valid while the waves have not reached the artificial ends,
    t < N - T; eigenfunctions are sampled on the dynamic nodes by linear
    interpolation from the eigensolver mesh.
    """
    h = f.grid.h
    k = int(round(t / h))
    if abs(k * h - t) > 1e-9 * h or k > f.grid.n:
        raise DomainError("t must be a grid node within the control horizon")
    if t >= measure.half_length - f.grid.horizon:
        raise DomainError("t must stay below N - T")
    g = _cauchy_coefficients(measure, f)[:, : k + 1]
    s = wave_kernel(measure.lam[:, None], t - h * np.arange(k + 1))
    w = trapezoid_weights(k, h) if k else np.zeros(1)
    c = np.sum(s * g * w, axis=1)

    xq = h * np.arange(k + 1)
    samp = interp1d(measure.nodes, measure.vecs, axis=1, assume_sorted=True)
    yp = samp(xq)        # (count, k+1) at x = +i h
    ym = samp(-xq)
    n_head = int(TAIL_FRACTION * measure.count)
    a1 = c @ yp
    a2 = c @ ym
    head = np.concatenate([c[:n_head] @ yp[:n_head], c[:n_head] @ ym[:n_head]])
    full = np.concatenate([a1, a2])
    state = StateVector(f.grid.subgrid(k), a1, a2)
    return SpectralResult(state, _tail(full, head))
