"""The CSV output contract shared by every writer: header row, fields as
``%.17g`` (integer columns as plain integers), comma-separated, CRLF line
ends -- the rendering ``csv.writer`` gave these files."""

from types import SimpleNamespace

import numpy as np
import pytest

from bcwave.connecting import ConnectingKernel
from bcwave.gl import OperatorM, write_q_csv
from bcwave.goursat import KernelField
from bcwave.krein import CauchyProfile
from bcwave.response import ResponseMatrix
from bcwave.spectral import SpectralMeasure

NAN, INF = float("nan"), float("inf")
TINY, HUGE = 5e-324, 1e300


def _grid(t):
    return SimpleNamespace(t=np.array(t))


def _kernels(path):
    W1 = np.array([[NAN, 0.0, INF], [0.0, -0.0, 0.0], [TINY, 0.0, 0.0]])
    W2 = np.array([[-INF, 0.0, HUGE], [0.0, 0.1, 0.0], [-2.5, 0.0, 0.0]])
    KernelField(SimpleNamespace(n=1, h=0.5), W1, W2).dump_csv(path)


def _response(path):
    ResponseMatrix(_grid([0.0, 0.1]), np.array([NAN, INF]),
                   np.array([-INF, -0.0]), np.array([TINY, HUGE]),
                   np.array([1.0 / 3.0, -2.5])).write_csv(path)


def _connecting(path):
    ConnectingKernel(_grid([0.0, 0.1]), np.array([[NAN, INF], [-INF, -0.0]]),
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
