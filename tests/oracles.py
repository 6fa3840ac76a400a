"""Test oracles: independent constructions the test suite checks the
package against.  No stage of a run calls them.

- the error an oracle raises where two of its routes disagree;
- the Picard iteration of the Goursat kernels' integral equation, and
  grid-node access to the kernels' level store;
- state vectors of the inner space L2(-T, T) and the fixed operator
  algebra on controls (S, time reversal, L2 norms);
- the forward solution by the representation formula, the Volterra
  operator K and the control operator W^T = S (I + K) J^T;
- the GL kernel m from forward kernel data, by block back-substitution
  of (I+K)(I+M) = I, and one dense GL column solve from the connecting
  kernel;
- the dense stacked Nystrom matrix of a connecting kernel, and one dense
  Krein solve per horizon on it;
- the raw spectral partial sums of the response and of the forward
  solution;
- the JSON text of a config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from bcwave.config import RunConfig, config_to_dict
from bcwave.connecting import ASYMMETRY_H2
from bcwave.errors import BCWaveError, DomainError
from bcwave.gl import OperatorM
from bcwave.goursat import KernelField, _boundary_arrays, _check_support
from bcwave.grid import (Control, UniformGrid, _as_samples, _check_same_grid,
                         cumulative_trapezoid, inner_outer,
                         row_trapezoid_weights, trapezoid_weights)
from bcwave.potentials import Potential
from bcwave.spectral import (TAIL_FRACTION, SpectralMeasure, SpectralResult,
                             _cauchy_coefficients, _tail, wave_kernel)


class InternalConsistencyError(BCWaveError):
    """Two redundant computation routes of an oracle disagree beyond
    tolerance, which signals a kernel or quadrature bug rather than bad
    input."""


# ---------------------------------------------------------------- grid

#: The constant 2x2 matrix S = 1/2 [[1, -1], [-1, -1]].  It is symmetric
#: and satisfies S @ S = I/2.
S_MATRIX = 0.5 * np.array([[1.0, -1.0], [-1.0, -1.0]])


@dataclass(frozen=True)
class StateVector:
    """Element of the inner space L2(-T, T) in the two-component encoding
    a1(x) = a(x), a2(x) = a(-x) for x in [0, T]."""

    grid: UniformGrid
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a1", _as_samples(self.grid, self.a1))
        object.__setattr__(self, "a2", _as_samples(self.grid, self.a2))

    def to_line(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples on [-T, T]; the x=0 node takes the x>0 trace a1[0]."""
        x = np.concatenate([-self.grid.t[::-1], self.grid.t[1:]])
        u = np.concatenate([self.a2[::-1], self.a1[1:]])
        return x, u


def zero_state(grid: UniformGrid) -> StateVector:
    z = np.zeros(grid.n + 1)
    return StateVector(grid, z, z)


def inner_inner(a: StateVector, b: StateVector) -> float:
    """L2(-T, T) inner product = int_0^T (a1 b1 + a2 b2) dx, trapezoid."""
    _check_same_grid(a, b)
    w = trapezoid_weights(a.grid.n, a.grid.h)
    return float(np.sum(w * (a.a1 * b.a1 + a.a2 * b.a2)))


def zero_control(grid: UniformGrid) -> Control:
    z = np.zeros(grid.n + 1)
    return Control(grid, z, z, z, z)


def s_apply(obj):
    """Apply S = 1/2 [[1,-1],[-1,-1]] pointwise.

    Accepts a length-2 vector, a Control or a StateVector and returns the
    same kind of object.
    """
    if isinstance(obj, Control):
        g1 = 0.5 * (obj.f1 - obj.f2)
        g2 = 0.5 * (-obj.f1 - obj.f2)
        d1 = d2 = None
        if obj.df1 is not None:
            d1 = 0.5 * (obj.df1 - obj.df2)
            d2 = 0.5 * (-obj.df1 - obj.df2)
        return Control(obj.grid, g1, g2, d1, d2)
    if isinstance(obj, StateVector):
        return StateVector(
            obj.grid,
            0.5 * (obj.a1 - obj.a2),
            0.5 * (-obj.a1 - obj.a2),
        )
    return S_MATRIX @ np.asarray(obj, dtype=float)


def jt_apply(f: Control) -> Control:
    """Time reversal (J^T F)(t) = F(T - t); sample k -> n - k."""
    d1 = d2 = None
    if f.df1 is not None:
        d1 = -f.df1[::-1]
        d2 = -f.df2[::-1]
    return Control(f.grid, f.f1[::-1], f.f2[::-1], d1, d2)


def control_norm(f: Control) -> float:
    return float(np.sqrt(max(inner_outer(f, f), 0.0)))


# ---------------------------------------------------------------- goursat

def picard_oracle(p: Potential, grid: UniformGrid, iterations: int) -> KernelField:
    """Independent verification oracle for :func:`solve_kernels`.

    Solves the equivalent characteristic integral equation

        w(xi, eta) = a(xi) + b(eta)
                     - 1/4 * int_0^xi int_0^eta q((al - be)/2) w(al, be)

    by fixed-point iteration with trapezoid quadrature.  ``iterations``
    applications of the integral map reproduce the Picard series through
    order ``iterations`` in q.  The dense lattice is gathered into the
    level layout of :class:`KernelField`.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_support(p, grid)
    m = 2 * grid.n
    h = grid.h
    a_idx, b_idx = np.meshgrid(np.arange(m + 1), np.arange(m + 1),
                               indexing="ij")
    Q = np.asarray(p(0.5 * h * (a_idx - b_idx)), dtype=float)

    def cum2d(F):
        return cumulative_trapezoid(cumulative_trapezoid(F, h).T, h).T

    levels = np.arange(grid.n + 1)
    k = np.repeat(levels, 2 * levels + 1)
    a = np.arange((grid.n + 1) ** 2) - k * k
    field = []
    for which in ("w1", "w2"):
        right, left = _boundary_arrays(p, grid, which)
        W0 = right[:, None] + left[None, :]
        W = W0
        for _ in range(iterations):
            W = W0 - 0.25 * cum2d(Q * W)
        field.append(W[a, 2 * k - a])
    return KernelField(grid, field[0], field[1])


def _levels(field: KernelField, which: str) -> np.ndarray:
    return field.W1 if which == "w1" else field.W2


def cone_value(field: KernelField, which: str, k: int, i: int) -> float:
    """Kernel value at (x, t) = (i*h, k*h); requires |i| <= k <= n."""
    if abs(i) > k or k > field.grid.n:
        raise DomainError("point (k=%d, i=%d) lies outside the cone" % (k, i))
    return _levels(field, which)[k * k + k + i]


def cone_column(field: KernelField, which: str, i: int,
                ks: np.ndarray) -> np.ndarray:
    """Values w(x_i, t_k) for an array of time indices |i| <= ks <= n."""
    if np.any(ks < abs(i)):
        raise DomainError("time indices dip below the cone boundary")
    if np.any(ks > field.grid.n):
        raise DomainError("time indices exceed the kernel horizon")
    return _levels(field, which)[ks * ks + ks + i]


# ---------------------------------------------------------------- response

def forward_solution(f: Control, field: KernelField, t: float) -> StateVector:
    """Evaluate u^F(., t) via the representation formula.

    Returns the state in the a1/a2 encoding on [0, t]; u vanishes for
    |x| > t (finite propagation speed), so the returned window is the
    full support.
    """
    h = field.grid.h
    if abs(f.grid.h - h) > 1e-12 * h:
        raise DomainError("control and kernel field use different steps")
    k = int(round(t / h))
    if abs(k * h - t) > 1e-9 * h:
        raise DomainError("t must be a grid node")
    if k > field.grid.n:
        raise DomainError("t exceeds the kernel horizon")
    if k > f.grid.n:
        raise DomainError("control is not defined up to t")

    W1, W2 = field.W1, field.W2
    f1, f2 = f.f1, f.f2
    a1 = np.empty(k + 1)
    a2 = np.empty(k + 1)
    for i in range(k + 1):
        j = np.arange(i, k + 1)
        c = j * j + j  # node (j, 0)
        g1 = f1[k - j]
        g2 = f2[k - j]
        w = np.full(k + 1 - i, h)
        w[0] = w[-1] = 0.5 * h
        if i == k:
            w[:] = 0.0
        # x = +i h
        integ = np.sum(w * (W1[c + i] * g1 + W2[c + i] * g2))
        a1[i] = 0.5 * f1[k - i] - 0.5 * f2[k - i] + integ
        # x = -i h
        integ = np.sum(w * (W1[c - i] * g1 + W2[c - i] * g2))
        a2[i] = -0.5 * f1[k - i] - 0.5 * f2[k - i] + integ
    return StateVector(UniformGrid(k * field.grid.h, k), a1, a2)


def operator_k_matrix(field: KernelField, n_half: int) -> np.ndarray:
    """Nystrom matrix of K = 2SW on [0, T]^2, T = n_half * h.

    Acts on stacked nodal controls [f1; f2]; strictly Volterra: entries
    vanish for s < x, and the s-integral over [x, T] uses trapezoid
    weights on the surviving nodes.
    """
    m = n_half + 1
    kk = operator_k_kernel(field, n_half)
    w = row_trapezoid_weights(n_half, field.grid.h)
    return (kk * w).transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)


def operator_k_kernel(field: KernelField, n_half: int) -> np.ndarray:
    """Pointwise block kernel k_ij(x, s) on the closed triangle x <= s,
    shape (2, 2, m, m); zero for s < x."""
    if n_half > field.grid.n:
        raise DomainError("kernel horizon too short for requested T")
    m = n_half + 1
    i_idx, j_idx = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    tri = j_idx >= i_idx
    c = j_idx * j_idx + j_idx
    plus = (c + i_idx) * tri   # level-store indices for +x
    minus = (c - i_idx) * tri  # level-store indices for -x
    w1p = np.where(tri, field.W1[plus], 0.0)
    w1m = np.where(tri, field.W1[minus], 0.0)
    w2p = np.where(tri, field.W2[plus], 0.0)
    w2m = np.where(tri, field.W2[minus], 0.0)
    return np.array([[w1p - w1m, w2p - w2m], [-w1p - w1m, -w2p - w2m]])


def control_operator_matrix(field: KernelField, n_half: int) -> np.ndarray:
    """Discrete W^T = S (I + K) J^T acting on stacked nodal controls."""
    m = n_half + 1
    K = operator_k_matrix(field, n_half)
    rev = np.zeros((2 * m, 2 * m))
    idx = np.arange(m)
    rev[idx, n_half - idx] = 1.0
    rev[m + idx, m + n_half - idx] = 1.0
    S = np.block([[0.5 * np.eye(m), -0.5 * np.eye(m)],
                  [-0.5 * np.eye(m), -0.5 * np.eye(m)]])
    return S @ (np.eye(2 * m) + K) @ rev


def control_operator(f: Control, field: KernelField) -> StateVector:
    """W^T F = u^F(., T) by the factored form S (I + K) J^T F.

    The factored result is checked against the direct evaluation of the
    representation formula; disagreement beyond quadrature tolerance
    signals a kernel or quadrature bug.
    """
    n_half = f.grid.n
    T = f.grid.horizon
    g = jt_apply(f)
    K = operator_k_matrix(field, n_half)
    v = np.concatenate([g.f1, g.f2])
    v += K @ v
    m = n_half + 1
    state = s_apply(StateVector(f.grid, v[:m], v[m:]))

    direct = forward_solution(f, field, T)
    scale = max(np.max(np.abs(f.f1)), np.max(np.abs(f.f2)), 1e-30)
    tol = 100.0 * field.grid.h ** 2 * scale
    err = max(np.max(np.abs(state.a1 - direct.a1)),
              np.max(np.abs(state.a2 - direct.a2)))
    if err > tol:
        raise InternalConsistencyError(
            "factored and direct control operator disagree: %g > %g"
            % (err, tol)
        )
    return state


# ---------------------------------------------------------------- gl

def invert_volterra(field: KernelField, n_half: int) -> OperatorM:
    """M with (I+K)(I+M) = I by block back-substitution, K from forward
    kernel data.

    In node-major ordering I+K is block upper triangular with 2x2
    diagonal blocks, so the inverse is computed exactly (up to roundoff)
    bottom-up; no dense solve is involved, and M stays node-major.
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
    X -= np.eye(2 * m)
    # divide out the per-row quadrature weights of the Nystrom matrix; the
    # weightless corner (n, n) is extrapolated quadratically along the
    # diagonal
    w = row_trapezoid_weights(n_half, h)[:, None, :, None]
    x4 = X.reshape(m, 2, m, 2)
    x4[...] = np.where(w > 0.0, x4 / np.where(w > 0.0, w, 1.0), 0.0)
    n = n_half
    x4[n, :, n] = 3.0 * x4[n - 1, :, n - 1] - 3.0 * x4[n - 2, :, n - 2] \
        + x4[n - 3, :, n - 3]
    return OperatorM(UniformGrid(n_half * h, n_half), X)


def m_action_matrix(M: OperatorM) -> np.ndarray:
    """Nystrom action matrix of M on stacked nodal controls (per-row
    trapezoid weights over [x, T], mirroring the K discretization)."""
    w = row_trapezoid_weights(M.grid.n, M.grid.h)
    return np.block([[M.m11 * w, M.m12 * w], [M.m21 * w, M.m22 * w]])



def _solve_column(cr: np.ndarray, j: int, h: float) -> np.ndarray:
    """Dense solve of the GL column system at s_j (j >= 1) on the
    node-major rows of the nodes 0..j, by two right-hand sides:
    m_ab(x_i, s_j) in row 2i + a, column b.  ``cr`` is the node-major
    array C~/2 of the connecting kernel."""
    c = 2.0 * cr[:2 * j + 2, :2 * j + 2]
    a = c * np.repeat(trapezoid_weights(j, h), 2)
    a[np.diag_indices_from(a)] += 1.0
    return np.linalg.solve(a, -c[:, 2 * j:])

# ---------------------------------------------------------------- connecting

def _assemble(cr: np.ndarray, h: float):
    """Dense stacked Nystrom matrix of C^tau from its node-major array
    ``cr`` (see :func:`connecting_nodes`): (A + A^T)/2 with
    A = W/2 + W C W acting on [f1; f2] in forward time (W = diag of
    trapezoid weights), and the stacked weights.
    InternalConsistencyError if A is more asymmetric than the
    symmetrization may hide.  Solving A f = W rhs is equivalent to
    collocating C^tau f = rhs at the nodes."""
    size = cr.shape[0]
    # stacked forward-time row (a, i) is node-major row size - 2 - 2i + a
    order = np.concatenate([np.arange(size - 2, -1, -2),
                            np.arange(size - 1, 0, -2)])
    wvec = np.tile(trapezoid_weights(size // 2 - 1, h), 2)
    A = 0.5 * np.diag(wvec) + (wvec[:, None] * cr[np.ix_(order, order)]
                               * wvec[None, :])
    asym = float(np.max(np.abs(A - A.T)))
    if asym > ASYMMETRY_H2 * h * h:
        raise InternalConsistencyError(
            "connecting matrix asymmetry %g exceeds %g h^2"
            % (asym, ASYMMETRY_H2))
    return 0.5 * (A + A.T), wvec


# ---------------------------------------------------------------- krein

@dataclass(frozen=True)
class KreinSolution:
    """Solution of the Krein equation at one horizon tau = n_half * h."""

    tau: float
    h: float
    f1: np.ndarray
    f2: np.ndarray
    residual: float


def solve_krein(cr: np.ndarray, h: float) -> KreinSolution:
    """Solve (C^tau F)(t) = (tau - t)(1,0)^T on [0, tau] from the
    node-major array ``cr`` of C^tau
    (:func:`~bcwave.connecting.connecting_nodes`), tau = n_half * h with
    2 n_half + 2 rows."""
    from scipy.linalg import cho_factor, cho_solve

    n_half = cr.shape[0] // 2 - 1
    tau = n_half * h
    A, weights = _assemble(cr, h)
    t = h * np.arange(n_half + 1)
    rhs = np.concatenate([tau - t, np.zeros(n_half + 1)])  # sampled exactly
    b = weights * rhs
    f = cho_solve(cho_factor(A), b)
    resid = float(np.linalg.norm(A @ f - b) / max(np.linalg.norm(b), 1e-300))
    m = n_half + 1
    return KreinSolution(tau, h, f[:m], f[m:], resid)


def endpoint_values(sol: KreinSolution) -> tuple[float, float]:
    """(y(tau), y(-tau)) from the t = 0 samples of the control."""
    y_plus = 0.5 * sol.f1[0] - 0.5 * sol.f2[0]
    y_minus = -0.5 * sol.f1[0] - 0.5 * sol.f2[0]
    return float(y_plus), float(y_minus)


# ---------------------------------------------------------------- spectral

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
    # (count, k+1) at x = +i h and -i h
    yp = np.array([np.interp(xq, measure.nodes, v) for v in measure.vecs])
    ym = np.array([np.interp(-xq, measure.nodes, v) for v in measure.vecs])
    n_head = int(TAIL_FRACTION * measure.count)
    a1 = c @ yp
    a2 = c @ ym
    head = np.concatenate([c[:n_head] @ yp[:n_head], c[:n_head] @ ym[:n_head]])
    full = np.concatenate([a1, a2])
    state = StateVector(UniformGrid(k * f.grid.h, k), a1, a2)
    return SpectralResult(state, _tail(full, head))


# ---------------------------------------------------------------- config

def write_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
