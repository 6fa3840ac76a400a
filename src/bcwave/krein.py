"""Krein route: horizon sweep of the special control problem.

For each horizon tau the Krein equation (C^tau F)(t) = (tau - t)(1, 0)^T
is solved on the Nystrom grid; the t = 0 samples of the solution give the
Cauchy solution values y(+-tau) of -y'' + q y = 0, y(0) = 0, y'(0) = 1,
and the potential follows as q = y''/y away from zeros of y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_smoothing_spline
from scipy.linalg import cho_factor, cho_solve

from .connecting import _assemble, connecting_blocks
from .errors import ReconstructionError
from .grid import write_csv
from .response import ResponseMatrix

#: Tikhonov shift, relative to trace/size, applied when the Cholesky
#: factorization of the connecting matrix fails.
TIKHONOV_RELATIVE = 1e-10


@dataclass(frozen=True)
class KreinSolution:
    """Solution of the Krein equation at one horizon tau = n_half * h."""

    tau: float
    h: float
    f1: np.ndarray
    f2: np.ndarray
    residual: float
    regularized: bool


def solve_krein(r: ResponseMatrix, n_half: int) -> KreinSolution:
    """Solve (C^tau F)(t) = (tau - t)(1,0)^T on [0, tau], tau = n_half*h."""
    h = r.grid.h
    tau = n_half * h
    blocks = connecting_blocks(r, n_half)
    asm = _assemble(n_half, h, blocks)
    t = h * np.arange(n_half + 1)
    rhs = np.concatenate([tau - t, np.zeros(n_half + 1)])  # sampled exactly
    b = asm.weights * rhs
    regularized = False
    A = asm.matrix
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
    residuals: np.ndarray     # per-horizon relative solver residuals
    regularized: np.ndarray   # per-horizon Tikhonov flags

    def write_csv(self, path) -> None:
        n = (len(self.x) - 1) // 2
        k = np.abs(np.arange(len(self.x)) - n)   # horizon index of each x
        res = np.concatenate([[0.0], self.residuals])[k]
        write_csv(path, ["x", "y", "q", "valid", "tau_residual"],
                  [(self.x, self.y, self.q, self.valid, res)])


def sweep_reconstruct(r: ResponseMatrix, n_half: int | None = None,
                      eps_frac: float = 0.05) -> CauchyProfile:
    """Sweep horizons tau_k = k*h, k = 1..n, and assemble y on [-T, T];
    then recover q = y''/y on the valid band."""
    if n_half is None:
        if r.grid.n % 2:
            raise ReconstructionError("response grid has an odd step count")
        n_half = r.grid.n // 2
    n = n_half
    h = r.grid.h
    y = np.full(2 * n + 1, np.nan)
    y[n] = 0.0
    residuals = np.full(n, np.nan)
    regularized = np.zeros(n, dtype=bool)
    solved = np.ones(2 * n + 1, dtype=bool)
    for k in range(1, n + 1):
        try:
            sol = solve_krein(r, k)
        except Exception:
            solved[n + k] = solved[n - k] = False
            continue
        residuals[k - 1] = sol.residual
        regularized[k - 1] = sol.regularized
        y_plus, y_minus = endpoint_values(sol)
        y[n + k] = y_plus
        y[n - k] = y_minus
    x = h * np.arange(-n, n + 1)
    q, valid = recover_q_from_y(x, y, solved, eps_frac)
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


def recover_q_from_y(x: np.ndarray, y: np.ndarray, solved: np.ndarray,
                     eps_frac: float = 0.05):
    """q = y''/y where |y| >= eps_frac * max|y|; y'' is taken on a light
    cubic smoothing-spline fit (penalty ~ h^4) to stabilize the double
    differentiation of solver output."""
    good = solved & np.isfinite(y)
    if np.count_nonzero(good) < 5:
        raise ReconstructionError("fewer than 5 valid y samples")
    h = x[1] - x[0]
    spl = make_smoothing_spline(x[good], y[good], lam=h ** 4)
    ys = spl(x)
    ypp = second_derivative(ys, h)
    eps = eps_frac * np.max(np.abs(y[good]))
    valid = good & (np.abs(ys) >= eps)
    q = np.where(valid, ypp / np.where(valid, ys, 1.0), np.nan)
    return q, valid
