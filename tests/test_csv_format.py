"""The CSV output contract shared by every writer: header row, fields as
``%.17g`` (integer columns as plain integers), comma-separated, CRLF line
ends -- the rendering ``csv.writer`` gave these files."""

import tempfile
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcwave import grid
from bcwave.connecting import ConnectingKernel, build_connecting
from bcwave.gl import OperatorM, recover_q_from_m, solve_gl, write_q_csv
from bcwave.goursat import KernelField, solve_kernels
from bcwave.grid import UniformGrid, write_csv
from bcwave.krein import CauchyProfile, sweep_reconstruct
from bcwave.potentials import GaussianPotential
from bcwave.response import ResponseMatrix, response_matrix
from bcwave.spectral import SpectralMeasure

NAN, INF = float("nan"), float("inf")
TINY, HUGE = 5e-324, 1e300


def _grid(t):
    return SimpleNamespace(t=np.array(t))


def _kernels(path):
    # levels k = 0, 1: nodes (0, 0), then (1, -1), (1, 0), (1, 1)
    W1 = np.array([NAN, INF, -0.0, TINY])
    W2 = np.array([-INF, HUGE, 0.1, -2.5])
    KernelField(SimpleNamespace(n=1, h=0.5), W1, W2).dump_csv(path)


def _response(path):
    ResponseMatrix(_grid([0.0, 0.1]), np.array([NAN, INF]),
                   np.array([-INF, -0.0]), np.array([TINY, HUGE]),
                   np.array([1.0 / 3.0, -2.5])).write_csv(path)


def kernel_from_blocks(grid, *blocks):
    """A ConnectingKernel whose forward-time blocks c11, c12, c21, c22 are
    ``blocks``."""
    m = blocks[0].shape[0]
    nodes = np.empty((2 * m, 2 * m))
    for (a, b), blk in zip(((0, 0), (0, 1), (1, 0), (1, 1)), blocks):
        nodes[a::2, b::2] = blk[::-1, ::-1]
    return ConnectingKernel(grid, nodes)


def _connecting(path):
    kernel_from_blocks(_grid([0.0, 0.1]), np.array([[NAN, INF], [-INF, -0.0]]),
                       np.array([[TINY, HUGE], [0.1, 1.0]]),
                       np.array([[2.0, -3.0], [1e-300, 7.0]]),
                       np.array([[0.5, -0.5], [1.0 / 3.0, 2e16]])
                       ).dump_csv(path)


def _krein(path):
    CauchyProfile(x=np.array([-0.1, 0.0, 0.1]),
                  y=np.array([NAN, -0.0, HUGE]),
                  q=np.array([INF, 0.0, -INF]),
                  valid=np.array([True, False, True]),
                  residuals=np.array([TINY]),
                  regularized=np.array([False])).write_csv(path)


def _gl_kernel(path):
    OperatorM(_grid([0.0, 0.1]), np.array([[NAN, INF], [9.0, -0.0]]),
              np.array([[TINY, HUGE], [9.0, -INF]]),
              np.array([[1.0, 2.0], [9.0, 3.0]]),
              np.array([[0.1, 0.2], [9.0, 0.3]])).dump_csv(path)


def _q_gl(path):
    write_q_csv(path, np.array([-0.1, -0.0, 0.1]), np.array([NAN, TINY, HUGE]),
                "GL")


def _q_quoted_route(path):
    write_q_csv(path, np.array([INF]), np.array([-INF]), 'a,"b"%')


def _spectral(path):
    SpectralMeasure(4.0, (1.0, 0.0, 1.0, 0.0), np.array([-0.0, 1.0, HUGE]),
                    np.array([NAN, INF, -INF]), np.array([TINY, 0.1, -2.5]),
                    None, None).write_csv(path)


CASES = {
    "kernels": (_kernels, [
        "t,x,w1,w2",
        "0,0,nan,-inf",
        "0.5,-0.5,inf,1.0000000000000001e+300",
        "0.5,0,-0,0.10000000000000001",
        "0.5,0.5,4.9406564584124654e-324,-2.5",
    ]),
    "response": (_response, [
        "t,r11,r12,r21,r22",
        "0,nan,-inf,4.9406564584124654e-324,0.33333333333333331",
        "0.10000000000000001,inf,-0,1.0000000000000001e+300,-2.5",
    ]),
    "connecting": (_connecting, [
        "t,s,C11,C12,C21,C22",
        "0,0,nan,4.9406564584124654e-324,2,0.5",
        "0,0.10000000000000001,inf,1.0000000000000001e+300,-3,-0.5",
        "0.10000000000000001,0,-inf,0.10000000000000001,1e-300,"
        "0.33333333333333331",
        "0.10000000000000001,0.10000000000000001,-0,1,7,20000000000000000",
    ]),
    "krein": (_krein, [
        "x,y,q,valid,tau_residual",
        "-0.10000000000000001,nan,inf,1,4.9406564584124654e-324",
        "0,-0,0,0,0",
        "0.10000000000000001,1.0000000000000001e+300,-inf,1,"
        "4.9406564584124654e-324",
    ]),
    "gl_kernel": (_gl_kernel, [
        "x,s,m11,m12,m21,m22",
        "0,0,nan,4.9406564584124654e-324,1,0.10000000000000001",
        "0,0.10000000000000001,inf,1.0000000000000001e+300,2,"
        "0.20000000000000001",
        "0.10000000000000001,0.10000000000000001,-0,-inf,3,"
        "0.29999999999999999",
    ]),
    "q_gl": (_q_gl, [
        "x,q,route",
        "-0.10000000000000001,nan,GL",
        "-0,4.9406564584124654e-324,GL",
        "0.10000000000000001,1.0000000000000001e+300,GL",
    ]),
    "q_gl_quoted_route": (_q_quoted_route, [
        "x,q,route",
        'inf,-inf,"a,""b""%"',
    ]),
    "spectral": (_spectral, [
        "n,lambda,beta,gamma",
        "1,-0,nan,4.9406564584124654e-324",
        "2,1,inf,0.10000000000000001",
        "3,1.0000000000000001e+300,-inf,-2.5",
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_output_format(tmp_path, name):
    write, lines = CASES[name]
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == "".join(l + "\r\n" for l in lines).encode()


# The kernel, connecting and GL files format each grid coordinate once
# and splice it into the rows.  At T = 0.7, n = 22 the step h = 0.7/22
# has no short decimal form, so every coordinate string is 17 digits
# long and any mix-up of grid nodes shows in the bytes.


@pytest.fixture(scope="module")
def solved():
    p = GaussianPotential(amplitude=1.1, width=0.3, center=-0.15)
    field = solve_kernels(p, UniformGrid(1.4, 44))
    ck = build_connecting(response_matrix(field))
    return field, ck, solve_gl(ck)


def _reference(header, rows):
    """Every field through "%.17g", one row at a time, CRLF."""
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return "".join(l + "\r\n" for l in lines).encode()


def _node(k, i):
    """Index of cone node (t_k, x_i) in the level store."""
    return k * k + k + i


def _kernel_file(field, poison):
    W1, W2 = field.W1.copy(), field.W2.copy()
    if poison:
        W1[_node(4, -1)], W2[_node(4, 3)], W1[_node(20, 0)] = (
            -0.0, np.nan, np.nan)
    n, h = field.grid.n, field.grid.h
    rows = [(k * h, i * h, W1[_node(k, i)], W2[_node(k, i)])
            for k in range(n + 1) for i in range(-k, k + 1)]
    return (KernelField(field.grid, W1, W2),
            _reference(["t", "x", "w1", "w2"], rows))


def _connecting_file(ck, poison):
    c = [b.copy() for b in (ck.c11, ck.c12, ck.c21, ck.c22)]
    if poison:
        c[1][0, 4], c[3][22, 0], c[0][9, 9] = -0.0, np.nan, -0.0
    t = ck.grid.t
    rows = [(t[i], t[j]) + tuple(b[i, j] for b in c)
            for i in range(len(t)) for j in range(len(t))]
    return (kernel_from_blocks(ck.grid, *c),
            _reference(["t", "s", "C11", "C12", "C21", "C22"], rows))


def _gl_file(M, poison):
    m = [b.copy() for b in (M.m11, M.m12, M.m21, M.m22)]
    if poison:
        m[0][2, 2], m[2][5, 22], m[3][0, 1] = np.nan, -0.0, np.nan
    t = M.grid.t
    rows = [(t[i], t[j]) + tuple(b[i, j] for b in m)
            for i in range(len(t)) for j in range(i, len(t))]
    return (OperatorM(M.grid, *m),
            _reference(["x", "s", "m11", "m12", "m21", "m22"], rows))


@pytest.mark.parametrize("poison", [False, True],
                         ids=["solved", "neg_zero_nan"])
@pytest.mark.parametrize("which,build", [(0, _kernel_file),
                                         (1, _connecting_file),
                                         (2, _gl_file)],
                         ids=["kernels", "connecting", "gl_kernel"])
def test_coordinate_columns_match_per_field_format(tmp_path, solved, which,
                                                   build, poison):
    obj, expected = build(solved[which], poison)
    path = tmp_path / "out.csv"
    obj.dump_csv(path)
    data = path.read_bytes()
    assert data == expected
    if poison:
        fields = data.decode().replace("\r\n", ",").split(",")
        assert "nan" in fields and "-0" in fields


# Every value goes through the chunked numpy formatter; whichever of its
# paths a value takes (the exact integer layout for 1e-4 <= |v| < 1e17, or
# "%" for the rest), the bytes must be those of "%.17g" % v.


def _one_column(values, directory):
    """(written, expected) bytes of a one-column file of ``values``."""
    v = np.asarray(values)
    path = Path(directory) / "column.csv"
    write_csv(path, ["v"], [(v,)])
    expected = "v\r\n" + "".join("%.17g\r\n" % x for x in v.tolist())
    return path.read_bytes(), expected.encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_formatter_matches_percent_on_bit_patterns(bits):
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = _one_column(
            np.array(bits, dtype=np.uint64).view(np.float64), tmp)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-5, 1e18) | st.floats(-1e18, -1e-5),
                min_size=1, max_size=40))
def test_formatter_matches_percent_in_fixed_notation(values):
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = _one_column(values, tmp)
    assert got == expected


def _halfway_ties():
    """Floats exactly halfway between two 17-digit decimals: n / 2^(k+1)
    with n odd and n 5^k = 2d + 1 for a 17-digit d."""
    ties = []
    for k in range(1, 21):
        lo, hi = 2 * 10 ** 16 // 5 ** k + 1, min(2 * 10 ** 17 // 5 ** k,
                                                  2 ** 53)
        for n in np.linspace(lo, hi - 2, 9).astype(np.int64).tolist():
            ties.append((n | 1) / 2 ** (k + 1))
    return ties


def _edge_values():
    p = 10.0 ** np.arange(-8, 19)
    ulps = [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    bounds = [np.nextafter(b, 0.0) for b in (1e-4, 1e17)] + [1e-4, 1e17]
    bounds += [np.nextafter(b, np.inf) for b in (1e-4, 1e17)]
    dyadic = [np.ldexp(np.arange(1.0, 200.0, 2.0), -j) for j in range(1, 70)]
    subnormal = [5e-324, 1e-310, 2.2250738585072009e-308,
                 2.2250738585072014e-308]
    integers = [np.arange(0.0, 1001.0), 2.0 ** np.arange(54),
                2.0 ** 53 - np.arange(1.0, 20.0), [1e16 - 2, 1e16, 1e16 + 2]]
    v = np.concatenate([np.ravel(a) for a in ulps + [bounds] + dyadic
                        + [_halfway_ties(), subnormal] + integers])
    return np.concatenate([v, -v, [0.0, -0.0, NAN, -NAN, INF, -INF]])


def test_halfway_ties_are_ties():
    for x in _halfway_ties():
        digits = format(Decimal(x), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits.endswith("5")


def test_formatter_matches_percent_on_edge_sets(tmp_path):
    got, expected = _one_column(_edge_values(), tmp_path)
    assert got == expected


@pytest.mark.parametrize("values", [
    np.array([True, False, True]),
    np.arange(-5, 6),
    np.array([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 62, -2 ** 63,
              10 ** 17, 10 ** 16 + 1], dtype=np.int64),
    np.array([2 ** 64 - 1, 12345678901234567], dtype=np.uint64),
], ids=["bool", "small_int", "int64", "uint64"])
def test_integer_and_bool_columns(tmp_path, values):
    got, expected = _one_column(values, tmp_path)
    assert got == expected


def test_coordinate_labels_keep_negative_zero_and_nan(tmp_path):
    # (i, span, *data) blocks: labels are copied by index, never by value
    coords = np.array([0.5, -0.0, NAN])
    a, b = np.array([1.0 / 3.0, 2e-5]), np.array([-7.0, 1e20])
    path = tmp_path / "labelled.csv"
    write_csv(path, ["t", "s", "p", "q"],
              [(2, slice(1, None), a, b), (1, slice(None, 2), b, a)],
              coords=coords)
    rows = [(NAN, -0.0, a[0], b[0]), (NAN, NAN, a[1], b[1]),
            (-0.0, 0.5, b[0], a[0]), (-0.0, -0.0, b[1], a[1])]
    assert path.read_bytes() == _reference(["t", "s", "p", "q"], rows)


@pytest.mark.parametrize("labelled,block", [
    (False, (np.ones(2), np.ones(1))),
    (True, (0, slice(None), np.ones(2), np.ones(1))),
    (True, (0, slice(1, None), np.ones(2), np.ones(2))),
    (False, (np.ones(2),)),
    (False, (np.ones(2),) * 3),
    (True, (np.ones(2), np.ones(2))),
], ids=["data_lengths", "labelled_data_lengths", "span_length",
        "too_few_columns", "too_many_columns", "no_coordinates"])
def test_block_shape_mismatch_raises(tmp_path, labelled, block):
    # a block must fill the header's fixed row layout exactly
    coords = [0.0, 0.5] if labelled else ()
    header = ["t", "s", "p", "q"] if labelled else ["p", "q"]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", header, [block], coords=coords)


@pytest.fixture(scope="module")
def writers(solved):
    """Each of the seven writers on data of many rows and blocks."""
    field, ck, M = solved
    r = response_matrix(field)
    prof = sweep_reconstruct(r)
    x, q = recover_q_from_m(M)
    rng = np.random.default_rng(3)
    measure = SpectralMeasure(4.0, (1.0, 0.0, 1.0, 0.0),
                              np.cumsum(rng.random(40)),
                              rng.standard_normal(40) * 1e-3,
                              rng.standard_normal(40), None, None)
    return {"kernels": field.dump_csv, "response": r.write_csv,
            "connecting": ck.dump_csv, "krein": prof.write_csv,
            "gl_kernel": M.dump_csv,
            "q_gl": lambda path: write_q_csv(path, x, q, "GL"),
            "spectral": measure.write_csv}


@pytest.mark.parametrize("name", ["kernels", "response", "connecting",
                                  "krein", "gl_kernel", "q_gl", "spectral"])
def test_chunk_boundaries_leave_bytes_unchanged(tmp_path, monkeypatch,
                                                writers, name):
    writers[name](tmp_path / "whole.csv")
    monkeypatch.setattr(grid, "CSV_CHUNK_ROWS", 7)
    writers[name](tmp_path / "chunked.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    assert whole.count(b"\r\n") > 3 * 7
    assert (tmp_path / "chunked.csv").read_bytes() == whole
