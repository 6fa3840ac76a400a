"""Krein route: horizon sweep of the special control problem.

For each horizon tau the Krein equation (C^tau F)(t) = (tau - t)(1, 0)^T
is solved on the Nystrom grid; the t = 0 samples of the solution give the
Cauchy solution values y(+-tau) of -y'' + q y = 0, y(0) = 0, y'(0) = 1,
and the potential follows as q = y''/y away from zeros of y.

In reversed time every horizon's matrix is a leading block of one fixed
matrix, so :func:`sweep_reconstruct` uses one Cholesky factor of that
matrix (:func:`~bcwave.connecting.assemble_matrix`, O(n^3/3)) and
borders the leading factor for each horizon: after one forward
substitution y(+-tau_k) costs O(1), and the full solution, which the
per-horizon residual needs, O(k^2).  In a pipeline run the factor is the
one the connect and gl stages share.  The test suite checks the sweep
against one dense solve per horizon, on the leading block of the
kernel's array, which is C^{tau_k} (``solve_krein`` in
``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .connecting import NestedFactor, assemble_matrix, build_connecting
from .errors import ReconstructionError
from .grid import write_csv
from .response import ResponseMatrix

#: q = y''/y is recovered only where |y| >= EPS_FRAC * max|y|.
EPS_FRAC = 0.05


@dataclass(frozen=True)
class CauchyProfile:
    """Reconstructed Cauchy solution and potential on [-T, T].

    ``valid`` masks the q samples: zeros of y (always including x ~ 0)
    are excluded.  ``regularized`` flags shifted horizon solves: none,
    since no horizon needs a shift.
    """

    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    valid: np.ndarray
    residuals: np.ndarray     # per-horizon relative solver residuals
    regularized: np.ndarray

    def write_csv(self, path) -> None:
        n = (len(self.x) - 1) // 2
        k = np.abs(np.arange(len(self.x)) - n)   # horizon index of each x
        res = np.concatenate([[0.0], self.residuals])[k]
        write_csv(path, ["x", "y", "q", "valid", "tau_residual"],
                  [(self.x, self.y, self.q, self.valid, res)])


def sweep_reconstruct(r: ResponseMatrix,
                      fac: NestedFactor | None = None) -> CauchyProfile:
    """Sweep horizons tau_k = k*h, k = 1..n, and assemble y on [-T, T];
    then recover q = y''/y on the valid band.

    Every horizon is solved at once through ``fac``, the nested factor of
    the connecting kernel of ``r`` (:func:`~bcwave.connecting.assemble_matrix`,
    which raises where the factor stops short).  ``r`` still sets the
    step: the kernel's grid step can differ from it by an ulp.  A
    one-off call without ``fac`` (perfbench's accuracy check) builds it.
    """
    if r.grid.n % 2:
        raise ReconstructionError("response grid has an odd step count")
    if fac is None:
        fac = assemble_matrix(build_connecting(r))
    n = r.grid.n // 2
    h = r.grid.h
    y = np.zeros(2 * n + 1)
    # right-hand side (tau - t, 0) in reversed time: (t', 0) at node t'
    rho = np.zeros((2 * n + 2, 1))
    rho[0::2, 0] = h * np.arange(n + 1)
    b = fac.weigh(np.repeat(rho, n, axis=1))
    f = fac.solve(b.copy())
    residuals = np.linalg.norm(fac.apply(f) - b, axis=0) \
        / np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    k = np.arange(1, n + 1)
    f1, f2 = f[2 * k, k - 1], f[2 * k + 1, k - 1]   # the t = 0 node
    y[n + k] = 0.5 * f1 - 0.5 * f2
    y[n - k] = -0.5 * f1 - 0.5 * f2
    del fac
    x = h * np.arange(-n, n + 1)
    q, valid = recover_q_from_y(x, y)
    return CauchyProfile(x, y, q, valid, residuals,
                         np.zeros(n, dtype=bool))


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


def _bspline_basis(t: np.ndarray, x: np.ndarray):
    """The four cubic B-splines that do not vanish at each x on the
    clamped knots ``t``: values (len(x), 4) and the interval l of each x,
    t[l] <= x < t[l+1] clipped to the base interval, so that x outside it
    extrapolates the end polynomials.  Cox-de Boor in scipy's order of
    operations (``_deBoor_D``), vectorised over x."""
    l = np.clip(np.searchsorted(t, x, side="right") - 1, 3, len(t) - 5)
    h = np.zeros((len(x), 4))
    h[:, 0] = 1.0
    for j in range(1, 4):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xb, xa = t[l + m], t[l + m - j]
            w = hh[:, m - 1] / (xb - xa)
            h[:, m - 1] += w * (xb - x)
            h[:, m] = w * (x - xa)
    return h, l


def _divided_difference(xw: np.ndarray) -> np.ndarray:
    """Coefficients 1 / prod_{k != i} (x_i - x_k) of the divided
    difference on each row of ``xw``, products taken in scipy's order."""
    pp = np.ones_like(xw)
    m = xw.shape[-1]
    for i in range(m):
        for k in range(m):
            if k != i:
                pp[..., i] *= xw[..., i] - xw[..., k]
    return 1.0 / pp


def _smoothing_spline(x: np.ndarray, y: np.ndarray, lam: float,
                      at: np.ndarray) -> np.ndarray:
    """Values at ``at`` of the cubic smoothing spline of (x, y) with
    penalty ``lam`` (unit weights, x strictly ascending, len(x) >= 5).

    This is Woltring's smoothing spline (Woltring 1986) in scipy's
    clean-room form: the fit is solved in the natural-spline basis of
    Hutchinson and de Hoog (1985), one banded system (X + lam W^-1 E) c
    = y, and mapped back to B-spline coefficients on the knots
    (x0, x0, x0, x, xn, xn, xn).  Every operation follows scipy's
    ``make_smoothing_spline(x, y, lam=lam)(at)``, whose bits it gives
    on scipy 1.17.1; the banded solve is the ``dgbsv`` call of scipy's
    ``solve_banded((2, 2), ...)``, on the band with two zero rows on top
    for the fill-in of the pivoting.
    """
    n = len(x)
    t = np.concatenate([[x[0]] * 3, x, [x[-1]] * 3])
    # row r of the design matrix holds B_r..B_{r+3}(x_r), the last row
    # B_{n-2}..B_{n+1}(x_{n-1}); X holds it in the natural-spline basis
    H, _ = _bspline_basis(t, x)
    X = np.zeros((5, n))
    X[1, 2:-2] = H[1:-3, 2]
    X[2, 2:-2] = H[2:-2, 1]
    X[3, 2:-2] = H[3:-1, 0]
    X[1, 1] = H[0, 0]
    X[2, :2] = (x[2] + x[1] - 2 * x[0]) * H[0, 0], H[1, 0] + H[1, 1]
    X[3, :2] = (x[2] - x[0]) * H[1, 0], H[2, 0]
    X[1, -2:] = H[-3, 2], (x[-1] - x[-3]) * H[-2, 2]
    X[2, -2:] = H[-2, 1] + H[-2, 2], (2 * x[-1] - x[-2] - x[-3]) * H[-1, 3]
    X[3, -2] = H[-1, 3]

    wE = np.zeros((5, n))
    wE[2:, 0] = _divided_difference(x[:3])
    wE[1:, 1] = _divided_difference(x[:4])
    windows = np.lib.stride_tricks.sliding_window_view(x, 5)
    wE[:, 2:-2] = (x[4:] - x[:-4]) * _divided_difference(windows).T
    wE[:-1, -2] = -_divided_difference(x[-4:])
    wE[:-2, -1] = _divided_difference(x[-3:])
    wE *= 6

    band = np.zeros((7, n))
    band[2:] = X + lam * wE
    _, _, c, info = _lapack.lapack().dgbsv(2, 2, band, y, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    c = np.concatenate([[c[0] * (t[5] + t[4] - 2 * t[3]) + c[1],
                         c[0] * (t[5] - t[3]) + c[1]],
                        c[1:-1],
                        [c[-1] * (t[-4] - t[-6]) + c[-2],
                         c[-1] * (2 * t[-4] - t[-5] - t[-6]) + c[-2]]])
    B, l = _bspline_basis(t, at)
    out = np.zeros(len(at))
    for a in range(4):
        out += c[l - 3 + a] * B[:, a]
    return out


def recover_q_from_y(x: np.ndarray, y: np.ndarray):
    """q = y''/y where |y| >= EPS_FRAC * max|y|; y'' is taken on a light
    cubic smoothing-spline fit (penalty ~ h^4) to stabilize the double
    differentiation of solver output.

    The fit is :func:`_smoothing_spline`, Woltring's (1986) spline in
    the natural-spline basis of Hutchinson and de Hoog (1985), a numpy
    port that matches scipy 1.17.1's ``make_smoothing_spline`` bit for
    bit; non-finite samples are left out of the fit and get its values."""
    good = np.isfinite(y)
    if np.count_nonzero(good) < 5:
        raise ReconstructionError("fewer than 5 valid y samples")
    h = x[1] - x[0]
    ys = _smoothing_spline(x[good], y[good], h ** 4, x)
    ypp = second_derivative(ys, h)
    eps = EPS_FRAC * np.max(np.abs(y[good]))
    valid = good & (np.abs(ys) >= eps)
    q = np.where(valid, ypp / np.where(valid, ys, 1.0), np.nan)
    return q, valid
