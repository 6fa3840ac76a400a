"""Uniform grids, two-component controls, trapezoid quadrature and the
L2 inner product of controls, plus the one CSV output format every stage
writes.

Apart from the CSV writer, everything here is a pure function of
immutable inputs; arrays handed to the constructors are copied and never
mutated afterwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError


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
    """Antiderivative samples along the first axis: out[k] =
    int_0^{t_k} y, out[0] = 0."""
    out = np.empty_like(y, dtype=float)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), axis=0, out=out[1:])
    return out


def conv_trapezoid(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Convolution c_k = int_0^{t_k} a(s) b(t_k - s) ds by trapezoid rule.

    Both inputs are nodal samples on the same grid; c_0 = 0.
    """
    m = min(len(a), len(b)) - 1
    full = np.convolve(a[: m + 1], b[: m + 1])[: m + 1]
    return h * (full - 0.5 * a[0] * b[: m + 1] - 0.5 * a[: m + 1] * b[0])


def differentiate(y: np.ndarray, h: float) -> np.ndarray:
    """Grid differentiation of at least five samples: 4th-order central
    stencil in the interior, 2nd-order (one-sided at the very ends) near
    the boundary."""
    y = np.asarray(y, dtype=float)
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

    def derivative(self) -> tuple[np.ndarray, np.ndarray]:
        h = self.grid.h
        d1 = self.df1 if self.df1 is not None else differentiate(self.f1, h)
        d2 = self.df2 if self.df2 is not None else differentiate(self.f2, h)
        return d1, d2


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def inner_outer(f: Control, g: Control) -> float:
    """L2(0,T; R^2) inner product by composite trapezoid."""
    _check_same_grid(f, g)
    w = trapezoid_weights(f.grid.n, f.grid.h)
    return float(np.sum(w * (f.f1 * g.f1 + f.f2 * g.f2)))


def smooth_random_control(grid: UniformGrid, rng) -> Control:
    """Seeded smooth test control: a random five-term sine series
    vanishing at both endpoints, with exact derivatives attached."""
    t = grid.t
    f1, f2, d1, d2 = np.zeros((4, len(t)))
    for m in range(1, 6):
        a, b = rng.standard_normal(2) / m
        k = m * np.pi / grid.horizon
        f1 += a * np.sin(k * t)
        d1 += a * k * np.cos(k * t)
        f2 += b * np.sin(k * t)
        d2 += b * k * np.cos(k * t)
    return Control(grid, f1, f2, d1, d2)


# ---------------------------------------------------------------------------
# CSV output.  Every value is rendered as "%.17g" by numpy arithmetic, a
# whole chunk of rows at a time.  A value occupies a 40-byte slot of five
# little-endian words: byte 0 holds the field separator, byte 1 the sign,
# bytes 2-6 the "0.000" prefix of a value below 1, byte 7 the leading
# digit, and bytes 8-39 the other sixteen digits, each after a gap byte
# that holds the decimal point or NUL.  The NUL bytes are dropped before
# the chunk is written, so a row is its slots laid end to end.

#: Rows formatted and written together by :func:`write_csv`.
CSV_CHUNK_ROWS = 2048

_WORD = np.dtype("<u8")
_SLOT = 5                                  # words per formatted value

#: 10^k for k = 0..20, each exact (5^k < 2^53), with Veltkamp's split of
#: it into two 26-bit halves for Dekker's exact product.
_SPLITTER = 134217729.0                    # 2^27 + 1
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digit_tables():
    """Per 4-digit group g = 0..9999: its ASCII digits spread over the odd
    bytes of a word (gap bytes NUL) and its trailing zero count (4 for 0).
    Both are built as outer combinations of the ten digits."""
    d = np.arange(10)
    pairs, zeros, run = 0, 0, 1
    for i in (3, 2, 1, 0):                 # digit i of g, 0 leading
        digit = d.reshape([10 if a == i else 1 for a in range(4)])
        pairs = pairs + (digit + ord("0")) * 256 ** (2 * i + 1)
        run = run * (digit == 0)           # digits i..3 all zero
        zeros = zeros + run
    return (pairs.reshape(-1).astype(np.uint64),
            zeros.reshape(-1).astype(np.uint8))


def _layout_table():
    """XOR words that lay out the digits for %g in fixed notation, one row
    per key (E + 4) * 17 + tz, where E = -4..16 is the decimal exponent and
    tz = 0..16 counts the trailing zeros of the 17-digit significand.

    The XOR writes the separator, the "0." prefix and zeros of E < 0 and
    the decimal point of E >= 0, and turns stripped trailing zeros (always
    ASCII "0") to NUL."""
    key = np.arange(21 * 17)[:, None]
    e, tz = key // 17 - 4, key % 17
    b = np.arange(8 * _SLOT)
    j = (b - 6) // 2                       # digit j at 7 + 2j, gap at 6 + 2j
    digit, gap = (b >= 7) & (b % 2 == 1), (b >= 8) & (b % 2 == 0)
    last = np.where(e < 0, 16 - tz, np.maximum(e, 16 - tz))
    x = np.zeros((len(key), len(b)), np.uint8)
    x[:, 0] = ord(",")
    x[digit & (j > last)] = ord("0")
    x[gap & (e >= 0) & (j == e + 1) & (j <= last)] = ord(".")
    x[:, 2:4][e[:, 0] < 0] = (ord("0"), ord("."))
    x[(e < 0) & (b >= 4) & (b < 3 - e)] = ord("0")
    return np.ascontiguousarray(x.view(_WORD).T)


_PAIRS, _TRAILING_ZEROS = _digit_tables()
_LAYOUT = _layout_table()                  # (5, 357): word w of each key
#: Word 0's sign and leading digit, indexed by digit + 10 * negative.
_LEAD = np.array([(ord("0") + i % 10) << 56 | (i // 10) * ord("-") << 8
                  for i in range(20)], dtype=np.uint64)


def _decimal(v: np.ndarray):
    """The 17-digit decimal form of the floats ``v`` in %g's fixed
    notation: (fast, k, d), where d is |v| 10^k rounded half to even and
    10^16 <= d < 10^17, valid where ``fast`` holds.

    For 1e-4 <= |x| < 1e17 the exponent E = 16 - k is estimated from
    log10, and Dekker's product by the exact, presplit 10^k gives
    |x| 10^k = hi + lo exactly.  hi >= 2^53 is an even integer, so
    hi + rint(lo) is the significand rounded half to even, as "%.17g"
    rounds.  ``fast`` is false where the estimate was off at a power of
    ten or the rounding carried into an 18th digit (d leaves its range),
    and for 0, |x| < 1e-4, |x| >= 1e17, inf and nan, which %g writes in
    exponent notation or as words."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    np.copyto(a, 1.0, where=~fast)
    k = (16.0 - np.floor(np.log10(a))).clip(0, 20).astype(np.intp)
    hi = a * _POW10.take(k)
    ah = _SPLITTER * a
    ah -= ah - a
    al = a - ah
    ph, pl = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= (d >= 10 ** 16) & (d < 10 ** 17)
    return fast, k, d


def _format_slots(v: np.ndarray, dst: np.ndarray) -> None:
    """Write "," + "%.17g" % x for each x of the (r, m) floats ``v`` into
    the (r, m, 5) word slots ``dst``, NUL-padded.

    Values in fixed notation (see ``_decimal``) are laid out from their
    digit groups and one layout row per (E, trailing zeros).  Every other
    element, and only those, holds the string that "%.17g" % x makes."""
    fast, k, d = _decimal(v)
    groups = []
    for _ in range(4):                     # last group first
        q = d // 10_000
        groups.append(d - q * 10_000)
        d = q                              # ends as the leading digit
    tz = _TRAILING_ZEROS.take(groups[0])
    for i in (1, 2, 3):
        tz += (tz == 4 * i) * _TRAILING_ZEROS.take(groups[i])
    key = (20 - k) * 17 + tz
    # d is 10 where rounding carried into an 18th digit: clip, such
    # elements are overwritten below
    np.bitwise_or(_LEAD.take(d + 10 * np.signbit(v), mode="clip"),
                  _LAYOUT[0].take(key), out=dst[..., 0])
    for w in range(1, _SLOT):
        np.bitwise_xor(_PAIRS.take(groups[4 - w]), _LAYOUT[w].take(key),
                       out=dst[..., w])
    rows, cols = np.nonzero(~fast)
    if len(rows):
        text = b"".join(b"," + (b"%.17g" % x).ljust(8 * _SLOT - 1, b"\0")
                        for x in v[rows, cols].tolist())
        dst[rows, cols] = np.frombuffer(text, _WORD).reshape(-1, _SLOT)


def _label_words(coords: np.ndarray) -> np.ndarray:
    """Row i is "," + "%.17g" % coords[i], NUL-padded to whole words."""
    text = [b",%.17g" % x for x in coords.tolist()]
    width = -(-max(map(len, text)) // 8) * 8
    return np.frombuffer(b"".join(s.ljust(width, b"\0") for s in text),
                         _WORD).reshape(len(text), width // 8)


def write_csv(path, header, blocks, text=(), coords=()) -> None:
    """Write a CSV in the one output format every stage uses.

    The header row comes first, then the rows of each element of
    ``blocks``.  Every row of a file has the same fixed layout:

    - Without ``coords``, a block is a tuple of 1-D data columns, one per
      header field before the ``text`` fields, and row j holds their
      j-th entries.
    - With ``coords``, the file's grid coordinates, a block is
      ``(i, span, *data)`` with an ``int`` i and a ``slice`` span; row j
      holds coords[i], coords[span][j], then the j-th entries of the
      data columns.  Each coordinate is formatted once per file with
      ``"%.17g" %`` and copied into the rows by index, not looked up by
      value, so every row gets the string of exactly the float the grid
      holds: a memo keyed by value would merge -0.0 with 0.0 and never
      find a NaN.

    A block with the wrong number of columns, or whose columns differ in
    length (from each other or from its span), raises ValueError.
    ``text`` holds constant text fields appended to every row.  They are
    refused, not quoted: one that holds a comma, quote, line break or NUL
    raises ValueError before the file is opened.  Every value is written
    as ``%.17g``, fields are comma-separated and rows end in CRLF, byte
    for byte the standard ``csv`` module's rendering.  Integer and boolean
    columns are converted to float, so they render as plain integers.

    Blocks are gathered into chunks of CSV_CHUNK_ROWS rows (a block may
    straddle two chunks), and each chunk is formatted by numpy in one
    pass over its data values and written with one call.  Values with
    1e-4 <= |x| < 1e17 are formatted exactly by integer arithmetic (see
    ``_format_slots``); 0, smaller or larger magnitudes, inf and nan take
    ``"%.17g" % x``, element by element.  The chunk's buffers are reused
    for the whole file, so the writer's memory does not grow with it.

    An existing file is rewritten in place: it is opened without
    truncation and cut at the write position once the rows end, or once
    a block raises, so it holds what was written and no byte of the old
    file.  On ext4 (``auto_da_alloc``) a file truncated to zero length
    and written again is pushed to disk when it is closed, and the next
    truncation of it waits for that writeback; a rerun into the same
    ``out`` directory would pay that wait on every file.  The writer
    never syncs the file, so durability is what truncating first gave.
    A new file gets the mode ``open(path, "wb")`` gives, 0o666 less the
    umask.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1)
    labelled = len(coords) > 0
    labels = _label_words(coords) if labelled else np.empty((0, 0), _WORD)
    lw = labels.shape[1]                   # words per coordinate label
    ncols = len(header) - len(text)
    m = ncols - 2 * labelled               # data columns
    if any(c in f for f in text for c in ',"\r\n\0'):
        raise ValueError("CSV text fields must not contain a comma, quote, "
                         "line break or NUL")
    suffix = ("".join("," + f for f in text) + "\r\n").encode()
    suffix = np.frombuffer(suffix.ljust(-(-len(suffix) // 8) * 8, b"\0"),
                           _WORD)
    rows = CSV_CHUNK_ROWS
    data = slice(2 * lw, 2 * lw + _SLOT * m)
    buf = bytearray(8 * rows * (data.stop + len(suffix)))
    words = np.frombuffer(buf, _WORD).reshape(rows, -1)
    words[:, data.stop:] = suffix
    values = np.empty((rows, m))

    def flush(fh, r):
        """Format the first r queued rows and write them."""
        chunk = words[:r]
        _format_slots(values[:r], chunk[:, data].reshape(r, m, _SLOT))
        chunk[:, 0] &= ~np.uint64(0xff)    # no separator before field 1
        fh.write((buf if r == rows else buf[:8 * chunk.size])
                 .translate(None, b"\0"))

    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            fh.write((",".join(header) + "\r\n").encode())
            fill = 0
            for block in blocks:
                if len(block) != ncols:
                    raise ValueError("CSV block has %d columns, expected %d"
                                     % (len(block), ncols))
                if labelled:
                    i, span, *columns = block
                    spanned = labels[span]
                    n = len(spanned)
                else:
                    columns, n = block, len(block[0])
                if any(len(c) != n for c in columns):
                    raise ValueError("CSV block columns differ in length")
                done = 0
                while done < n:
                    take = min(n - done, rows - fill)
                    dst = slice(fill, fill + take)
                    src = slice(done, done + take)
                    for j, c in enumerate(columns):
                        values[dst, j] = c[src]
                    if labelled:
                        words[dst, :lw] = labels[i]
                        words[dst, lw:2 * lw] = spanned[src]
                    fill += take
                    done += take
                    if fill == rows:
                        flush(fh, rows)
                        fill = 0
            if fill:
                flush(fh, fill)
        finally:
            fh.truncate()
