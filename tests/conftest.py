import numpy as np
import pytest

from bcwave.connecting import build_connecting
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid
from bcwave.potentials import GaussianPotential
from bcwave.response import ResponseMatrix, response_matrix

ACCEPTANCE_LINES = []


def record_criterion(num, name, passed, detail):
    line = "criterion %2d %-28s %s  (%s)" % (
        num, name, "PASS" if passed else "FAIL", detail)
    ACCEPTANCE_LINES.append((num, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gauss():
    return GaussianPotential(amplitude=1.0, width=0.3, center=0.0)


@pytest.fixture(scope="session")
def offcenter():
    return GaussianPotential(amplitude=1.5, width=0.25, center=0.3)


@pytest.fixture(scope="session")
def field128(gauss):
    return solve_kernels(gauss, UniformGrid(2.0, 256))


@pytest.fixture(scope="session")
def resp128(field128):
    return response_matrix(field128)


@pytest.fixture(scope="session")
def ck128(resp128):
    return build_connecting(resp128)


@pytest.fixture(scope="session")
def field256(gauss):
    return solve_kernels(gauss, UniformGrid(2.0, 512))


@pytest.fixture(scope="session")
def resp256(field256):
    return response_matrix(field256)


@pytest.fixture(scope="session")
def ck256(resp256):
    return build_connecting(resp256)


@pytest.fixture(scope="session")
def field_off(offcenter):
    return solve_kernels(offcenter, UniformGrid(2.0, 256))


@pytest.fixture(scope="session")
def resp_off(field_off):
    return response_matrix(field_off)


@pytest.fixture(scope="session")
def resp_off32(offcenter):
    """offcenter's response at n = 32."""
    return response_matrix(solve_kernels(offcenter, UniformGrid(2.0, 64)))


def with_noise(r, level, seed):
    """``r`` with seeded normal noise of ``level`` max|R| on all four
    entries."""
    rng = np.random.default_rng(seed)
    entries = (r.r11, r.r12, r.r21, r.r22)
    scale = level * max(np.max(np.abs(v)) for v in entries)
    return ResponseMatrix(r.grid, *(
        v + scale * rng.standard_normal(v.shape) for v in entries))


@pytest.fixture(scope="session")
def resp_off_noisy(resp_off):
    """resp_off with seeded normal noise of 1e-3 max|R| on all four
    entries: C12 and C21 disagree by the noise, and the factor still
    reaches every horizon."""
    return with_noise(resp_off, 1e-3, 27)


@pytest.fixture(scope="session")
def resp_off_noisier(resp_off):
    """resp_off with seeded normal noise of 1e-2 max|R| on all four
    entries."""
    return with_noise(resp_off, 1e-2, 28)


@pytest.fixture(scope="session")
def resp_off33(offcenter):
    """offcenter's response at n = 33, an odd number of steps per half."""
    return response_matrix(solve_kernels(offcenter, UniformGrid(2.0, 66)))


@pytest.fixture(scope="session", params=[70.25, 0.25])
def resp_broken(request):
    """Response with r22 = -c only (T = 1, n = 96): C22 = -c is a
    rank-one negative term, so the connecting matrix of horizon tau stops
    being positive definite once c tau > 1/2, here at tau = param * h."""
    grid = UniformGrid(2.0, 192)
    zero = np.zeros(193)
    c = 0.5 / (request.param * grid.h)
    return ResponseMatrix(grid, zero, zero, zero, np.full(193, -c))


@pytest.fixture(scope="session")
def resp_skew(resp_off):
    """resp_off with r12 + 100 and r21 - 100 t, which breaks r21' = r12 by
    a term that is antisymmetric in the connecting matrix: the symmetrized
    matrix is resp_off's, but the asymmetry of the horizon-tau matrix
    passes 100 h^2 near tau = 1/2."""
    t = resp_off.grid.t
    return ResponseMatrix(resp_off.grid, resp_off.r11, resp_off.r12 + 100.0,
                          resp_off.r21 - 100.0 * t, resp_off.r22)


def max_rel(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
