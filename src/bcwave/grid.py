"""Uniform grids, two-component controls, state vectors and the fixed
operator algebra (S, time reversal, L2 inner products), plus the one CSV
output format every stage writes.

Apart from the CSV writer, everything here is a pure function of
immutable inputs; arrays handed to the constructors are copied and never
mutated afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, GridMismatchError

#: The constant 2x2 matrix S = 1/2 [[1, -1], [-1, -1]].  It is symmetric
#: and satisfies S @ S = I/2.
S_MATRIX = 0.5 * np.array([[1.0, -1.0], [-1.0, -1.0]])


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t_k = k*h, k = 0..n, on [0, horizon]."""

    horizon: float
    n: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ConfigError("grid horizon must be positive")
        if self.n < 8:
            raise ConfigError("grid needs at least 8 steps, got n=%d" % self.n)

    @property
    def h(self) -> float:
        return self.horizon / self.n

    @property
    def t(self) -> np.ndarray:
        return self.h * np.arange(self.n + 1)

    def subgrid(self, m: int) -> "UniformGrid":
        """Grid over [0, m*h] with the same step (subsampling, never
        regridding)."""
        return UniformGrid(m * self.h, m)

    def doubled(self) -> "UniformGrid":
        """Grid over [0, 2*horizon] with the same step."""
        return UniformGrid(2.0 * self.horizon, 2 * self.n)


def trapezoid_weights(m: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for m+1 nodes with step h."""
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def row_trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Per-row trapezoid weights of a Volterra integral over [x_i, t_n]:
    w[i, j] for nodes j in [i, n], halved at both ends, zero off the
    triangle (and zero on the one-node row i = n)."""
    i_idx, j_idx = np.meshgrid(np.arange(n + 1), np.arange(n + 1),
                               indexing="ij")
    tri = j_idx >= i_idx
    w = np.where(tri, h, 0.0)
    w[j_idx == i_idx] = 0.5 * h
    w[(j_idx == n) & tri] = 0.5 * h
    w[(j_idx == i_idx) & (j_idx == n)] = 0.0
    return w


def cumulative_trapezoid(y: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative samples: out[k] = int_0^{t_k} y, out[0] = 0."""
    out = np.empty_like(y, dtype=float)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def conv_trapezoid(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Convolution c_k = int_0^{t_k} a(s) b(t_k - s) ds by trapezoid rule.

    Both inputs are nodal samples on the same grid; c_0 = 0.
    """
    m = min(len(a), len(b)) - 1
    full = np.convolve(a[: m + 1], b[: m + 1])[: m + 1]
    return h * (full - 0.5 * a[0] * b[: m + 1] - 0.5 * a[: m + 1] * b[0])


def differentiate(y: np.ndarray, h: float) -> np.ndarray:
    """Grid differentiation: 4th-order central stencil in the interior,
    2nd-order (one-sided at the very ends) near the boundary."""
    y = np.asarray(y, dtype=float)
    m = len(y) - 1
    if m < 4:
        return np.gradient(y, h)
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)
    d[1] = (y[2] - y[0]) / (2.0 * h)
    d[-2] = (y[-1] - y[-3]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def _as_samples(grid: UniformGrid, values) -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.shape != (grid.n + 1,):
        raise GridMismatchError(
            "expected %d samples, got shape %s" % (grid.n + 1, a.shape)
        )
    return a


@dataclass(frozen=True)
class Control:
    """Two-component boundary control F = (f1, f2) sampled on [0, T].

    ``df1``/``df2`` carry exact analytic derivatives when the control was
    produced from a formula; otherwise :meth:`derivative` falls back to the
    documented finite-difference rule.
    """

    grid: UniformGrid
    f1: np.ndarray
    f2: np.ndarray
    df1: np.ndarray | None = None
    df2: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "f1", _as_samples(self.grid, self.f1))
        object.__setattr__(self, "f2", _as_samples(self.grid, self.f2))
        for name in ("df1", "df2"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _as_samples(self.grid, v))

    @property
    def has_analytic_derivative(self) -> bool:
        return self.df1 is not None and self.df2 is not None

    def derivative(self) -> tuple[np.ndarray, np.ndarray]:
        h = self.grid.h
        d1 = self.df1 if self.df1 is not None else differentiate(self.f1, h)
        d2 = self.df2 if self.df2 is not None else differentiate(self.f2, h)
        return d1, d2

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.f1, self.f2])

    @staticmethod
    def from_stacked(grid: UniformGrid, v: np.ndarray) -> "Control":
        m = grid.n + 1
        return Control(grid, v[:m], v[m:])


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
        if obj.has_analytic_derivative:
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
    if f.has_analytic_derivative:
        d1 = -f.df1[::-1]
        d2 = -f.df2[::-1]
    return Control(f.grid, f.f1[::-1], f.f2[::-1], d1, d2)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def inner_outer(f: Control, g: Control) -> float:
    """L2(0,T; R^2) inner product by composite trapezoid."""
    _check_same_grid(f, g)
    w = trapezoid_weights(f.grid.n, f.grid.h)
    return float(np.sum(w * (f.f1 * g.f1 + f.f2 * g.f2)))


def control_norm(f: Control) -> float:
    return float(np.sqrt(max(inner_outer(f, f), 0.0)))


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


def smooth_random_control(grid: UniformGrid, rng, modes: int = 5) -> Control:
    """Seeded smooth test control: random sine series vanishing at both
    endpoints, with exact derivatives attached."""
    t = grid.t
    T = grid.horizon
    f1 = np.zeros_like(t)
    f2 = np.zeros_like(t)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    for m in range(1, modes + 1):
        a, b = rng.standard_normal(2) / m
        k = m * np.pi / T
        f1 += a * np.sin(k * t)
        d1 += a * k * np.cos(k * t)
        f2 += b * np.sin(k * t)
        d2 += b * k * np.cos(k * t)
    return Control(grid, f1, f2, d1, d2)


def _csv_text(value: str) -> str:
    """A constant text field quoted as the standard ``csv`` module quotes
    it (only when it holds a comma, quote or line break), escaped for use
    inside a %-format."""
    if any(c in value for c in ',"\r\n'):
        value = '"%s"' % value.replace('"', '""')
    return value.replace("%", "%%")


def write_csv(path, header, blocks, text=(), coords=()) -> None:
    """Write a CSV in the one output format every stage uses.

    The header row comes first.  Each element of ``blocks`` is a sequence
    of columns, one per header field before the ``text`` fields; every
    value is written as ``%.17g``, fields are comma-separated and rows
    end in CRLF, byte for byte the standard ``csv`` module's rendering.
    Integer-valued columns render as plain integers.  ``text`` holds
    constant text fields appended to every row.

    A column is either a 1-D array of data values or a reference into
    ``coords``, the file's grid coordinates: an ``int`` i puts coords[i]
    on every row of the block, a ``slice`` puts one entry of
    ``coords[slice]`` on each row (at most one slice per block).  Each
    coordinate is formatted once per file and spliced into the block's
    row template, so ``%`` runs over the data columns only.  Coordinates
    are taken by index, not looked up by value, so every row gets the
    string of exactly the float the grid holds: a memo keyed by value
    would merge -0.0 with 0.0 and never find a NaN.

    Each block (one time level or kernel row of a large file) is
    formatted with a single ``%``.  Data columns are interleaved as
    Python lists rather than stacked into a new array per block: those
    temporaries fragmented the heap above the kernel storage, so a
    process that runs the forward stages repeatedly did not return its
    memory and its peak RSS grew.
    """
    labels = ["%.17g" % v for v in np.asarray(coords, dtype=float).tolist()]
    text = [_csv_text(f) for f in text]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fields, data, spread, rows = [], [], None, None
            for c in columns:
                if isinstance(c, slice):
                    spread, rows = len(fields), labels[c]
                    fields.append("")
                elif isinstance(c, int):
                    fields.append(labels[c])
                else:
                    fields.append("%.17g")
                    data.append(c.tolist())
            fields += text
            if spread is None:
                template = (",".join(fields) + "\r\n") * len(data[0])
            else:
                # row r is before + rows[r] + after
                before = ",".join(fields[:spread + 1])
                after = ",".join(fields[spread:]) + "\r\n"
                template = (before + (after + before).join(rows) + after
                            if rows else "")
            fh.write(template % tuple(chain.from_iterable(zip(*data))))
