"""Krein route: horizon sweep of the special control problem.

For each horizon tau the Krein equation (C^tau F)(t) = (tau - t)(1, 0)^T
is solved on the Nystrom grid; the t = 0 samples of the solution give the
Cauchy solution values y(+-tau) of -y'' + q y = 0, y(0) = 0, y'(0) = 1,
and the potential follows as q = y''/y away from zeros of y.

In reversed time every horizon's matrix is a leading block of one fixed
matrix, so :func:`sweep_reconstruct` uses one Cholesky factor of that
matrix (:func:`~bcwave.connecting.nested_factor`, O(n^3/3)) and borders
the leading factor for each horizon: after one forward substitution
y(+-tau_k) costs O(1), and the full solution, which the per-horizon
residual needs, O(k^2).  In a pipeline run the kernel and factor are
the ones the connect and gl stages share
(:func:`~bcwave.connecting.assemble_matrix`); called alone, the sweep
builds its own.  The factor reaches every horizon unless its Cholesky
stops at a node whose leading block is not positive definite, or a
horizon's matrix is more asymmetric than the assembly accepts.  From
there on each horizon k is solved on its own by :func:`solve_krein` on
the leading block of the kernel's array, which is C^{tau_k}; it falls
back from Cholesky to a Tikhonov shift (and is the test oracle of the
sweep).  A horizon that fails even there keeps a NaN residual; none is
dropped silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connecting import (TIKHONOV_RELATIVE, AssembledConnecting, _assemble,
                         assemble_matrix, build_connecting)
from .errors import BCWaveError, ReconstructionError
from .grid import write_csv
from .response import ResponseMatrix

#: q = y''/y is recovered only where |y| >= EPS_FRAC * max|y|.
EPS_FRAC = 0.05


@dataclass(frozen=True)
class KreinSolution:
    """Solution of the Krein equation at one horizon tau = n_half * h."""

    tau: float
    h: float
    f1: np.ndarray
    f2: np.ndarray
    residual: float
    regularized: bool


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
    regularized = False
    try:
        f = cho_solve(cho_factor(A), b)
    except np.linalg.LinAlgError:
        shift = TIKHONOV_RELATIVE * np.trace(A) / A.shape[0]
        f = np.linalg.solve(A + shift * np.eye(A.shape[0]), b)
        regularized = True
    resid = float(np.linalg.norm(A @ f - b) / max(np.linalg.norm(b), 1e-300))
    m = n_half + 1
    return KreinSolution(tau, h, f[:m], f[m:], resid, regularized)


def endpoint_values(sol: KreinSolution) -> tuple[float, float]:
    """(y(tau), y(-tau)) from the t = 0 samples of the control."""
    y_plus = 0.5 * sol.f1[0] - 0.5 * sol.f2[0]
    y_minus = -0.5 * sol.f1[0] - 0.5 * sol.f2[0]
    return float(y_plus), float(y_minus)


@dataclass(frozen=True)
class CauchyProfile:
    """Reconstructed Cauchy solution and potential on [-T, T].

    ``valid`` masks the q samples: zeros of y (always including x ~ 0)
    and horizons where the Krein solve failed are excluded.
    """

    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    valid: np.ndarray
    residuals: np.ndarray     # per-horizon relative solver residuals,
                              # NaN where the solve failed
    regularized: np.ndarray   # per-horizon Tikhonov flags

    def write_csv(self, path) -> None:
        n = (len(self.x) - 1) // 2
        k = np.abs(np.arange(len(self.x)) - n)   # horizon index of each x
        res = np.concatenate([[0.0], self.residuals])[k]
        write_csv(path, ["x", "y", "q", "valid", "tau_residual"],
                  [(self.x, self.y, self.q, self.valid, res)])


def sweep_reconstruct(r: ResponseMatrix,
                      inverse: AssembledConnecting | None = None
                      ) -> CauchyProfile:
    """Sweep horizons tau_k = k*h, k = 1..n, and assemble y on [-T, T];
    then recover q = y''/y on the valid band.

    The horizons the nested factor reaches are solved through it at
    once; each later horizon is solved on its own by :func:`solve_krein`
    on the leading block of the kernel's node-major array.  A horizon
    that fails there keeps a NaN residual and leaves y unsolved at
    +-tau.  ``inverse`` is the shared state of the connecting kernel of
    ``r`` (:func:`~bcwave.connecting.assemble_matrix`); without it the
    sweep builds its own.
    """
    if r.grid.n % 2:
        raise ReconstructionError("response grid has an odd step count")
    if not all(np.isfinite(a).all() for a in (r.r11, r.r12, r.r21, r.r22)):
        raise ReconstructionError("non-finite response data")
    if inverse is None:
        inverse = assemble_matrix(build_connecting(r))
    cr, fac = inverse.kernel.nodes, inverse.factor
    del inverse
    n = r.grid.n // 2
    h = r.grid.h
    y = np.full(2 * n + 1, np.nan)
    y[n] = 0.0
    residuals = np.full(n, np.nan)
    regularized = np.zeros(n, dtype=bool)
    solved = np.ones(2 * n + 1, dtype=bool)

    K = fac.horizons
    if K:
        # right-hand side (tau - t, 0) in reversed time: (t', 0) at node t'
        rho = np.zeros((2 * n + 2, 1))
        rho[0::2, 0] = h * np.arange(n + 1)
        b = fac.weigh(np.repeat(rho, K, axis=1))
        f = fac.solve(b.copy())
        residuals[:K] = np.linalg.norm(fac.apply(f) - b, axis=0) \
            / np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        k = np.arange(1, K + 1)
        f1, f2 = f[2 * k, k - 1], f[2 * k + 1, k - 1]   # the t = 0 node
        y[n + k] = 0.5 * f1 - 0.5 * f2
        y[n - k] = -0.5 * f1 - 0.5 * f2
    del fac
    for k in range(K + 1, n + 1):
        try:
            sol = solve_krein(cr[:2 * k + 2, :2 * k + 2], h)
        except (np.linalg.LinAlgError, BCWaveError):
            solved[n + k] = solved[n - k] = False
            continue
        residuals[k - 1] = sol.residual
        regularized[k - 1] = sol.regularized
        y_plus, y_minus = endpoint_values(sol)
        y[n + k] = y_plus
        y[n - k] = y_minus
    x = h * np.arange(-n, n + 1)
    q, valid = recover_q_from_y(x, y, solved)
    return CauchyProfile(x, y, q, valid, residuals, regularized)


def second_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """5-point central second derivative, 3-point one-sided fallback near
    the boundary."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) \
        / (12 * h * h)
    d[1] = (y[0] - 2 * y[1] + y[2]) / (h * h)
    d[-2] = (y[-3] - 2 * y[-2] + y[-1]) / (h * h)
    d[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / (h * h)
    d[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / (h * h)
    return d


def recover_q_from_y(x: np.ndarray, y: np.ndarray, solved: np.ndarray):
    """q = y''/y where |y| >= EPS_FRAC * max|y|; y'' is taken on a light
    cubic smoothing-spline fit (penalty ~ h^4) to stabilize the double
    differentiation of solver output."""
    from scipy.interpolate import make_smoothing_spline

    good = solved & np.isfinite(y)
    if np.count_nonzero(good) < 5:
        raise ReconstructionError("fewer than 5 valid y samples")
    h = x[1] - x[0]
    spl = make_smoothing_spline(x[good], y[good], lam=h ** 4)
    ys = spl(x)
    ypp = second_derivative(ys, h)
    eps = EPS_FRAC * np.max(np.abs(y[good]))
    valid = good & (np.abs(ys) >= eps)
    q = np.where(valid, ypp / np.where(valid, ys, 1.0), np.nan)
    return q, valid
