import numpy as np
import pytest

from bcwave.errors import DomainError
from bcwave.goursat import diagonal_data, solve_kernels
from bcwave.grid import UniformGrid
from bcwave.potentials import (
    ConstantPotential,
    GaussianPotential,
    Sech2Potential,
    TabulatedPotential,
    ZeroPotential,
)

from oracles import cone_column, cone_value, picard_oracle


def test_free_space_kernels_vanish():
    field = solve_kernels(ZeroPotential(), UniformGrid(2.0, 64))
    assert np.max(np.abs(field.W1)) == 0.0
    assert np.max(np.abs(field.W2)) == 0.0


def _dense_march(p, grid):
    """The march over the whole (4n+1)^2 characteristic lattice, cell by
    cell along each anti-diagonal, as it was before the cone-only march."""
    m = 2 * grid.n
    qd = np.asarray(p(0.5 * grid.h * np.arange(-m, m + 1)), dtype=float)
    coef = 0.125 * grid.h * grid.h
    lattices = []
    for which in ("w1", "w2"):
        x = 0.5 * grid.h * np.arange(m + 1)
        W = np.zeros((m + 1, m + 1))
        W[:, 0] = diagonal_data(p, x, which, "right")
        W[0, :] = diagonal_data(p, -x, which, "left")
        for s in range(2, 2 * m + 1):
            a = np.arange(max(1, s - m), min(s - 1, m) + 1)
            if len(a) == 0:
                continue
            b = s - a
            wa = W[a - 1, b]
            wb = W[a, b - 1]
            W[a, b] = (wa + wb - W[a - 1, b - 1]
                       - coef * qd[a - b + m] * (wa + wb))
        lattices.append(W)
    return lattices


@pytest.mark.parametrize("n", [16, 53])
@pytest.mark.parametrize("p", [ZeroPotential(),
                               GaussianPotential(1.3, 0.3, 0.25)],
                         ids=["zero", "gaussian_off_centre"])
def test_level_march_bit_identical_to_dense_lattice(p, n):
    grid = UniformGrid(1.7, n)
    field = solve_kernels(p, grid)
    assert field.W1.shape == field.W2.shape == ((n + 1) ** 2,)
    k = np.repeat(np.arange(n + 1), 2 * np.arange(n + 1) + 1)
    i = np.arange((n + 1) ** 2) - k * k - k
    for W, dense in zip((field.W1, field.W2), _dense_march(p, grid)):
        cone = dense[k + i, k - i]
        assert np.array_equal(W.view(np.int64), cone.view(np.int64))


def test_diagonal_data_signs():
    p = ConstantPotential(2.0)
    x = np.array([0.0, 0.5, 1.0])
    assert np.allclose(diagonal_data(p, x, "w1", "right"), -0.5 * x)
    assert np.allclose(diagonal_data(p, x, "w2", "right"), 0.5 * x)
    assert np.allclose(diagonal_data(p, -x, "w1", "left"), 0.5 * x)
    assert np.allclose(diagonal_data(p, -x, "w2", "left"), 0.5 * x)
    with pytest.raises(DomainError):
        diagonal_data(p, x, "w1", "left")
    with pytest.raises(ValueError):
        diagonal_data(p, x, "w3", "right")


def test_perturbative_constant_potential():
    # first order in c: w1 ~ -c x / 4, w2 ~ c t / 4
    c = 0.01
    grid = UniformGrid(1.0, 64)
    field = solve_kernels(ConstantPotential(c), grid)
    h = grid.h
    for k in (16, 40, 64):
        for i in (-k, -k // 2, 0, k // 2, k):
            x, t = i * h, k * h
            assert cone_value(field, "w1", k, i) == pytest.approx(
                -0.25 * c * x, abs=2 * c * c)
            assert cone_value(field, "w2", k, i) == pytest.approx(
                0.25 * c * t, abs=2 * c * c)


def test_cone_access_guard():
    field = solve_kernels(ZeroPotential(), UniformGrid(1.0, 16))
    with pytest.raises(DomainError):
        cone_value(field, "w1", 3, 4)
    with pytest.raises(DomainError):
        cone_column(field, "w2", 5, np.array([3, 6]))
    # above the horizon: not stored
    with pytest.raises(DomainError):
        cone_value(field, "w1", 17, 0)
    with pytest.raises(DomainError):
        cone_column(field, "w2", 0, np.array([16, 17]))


def test_support_checked():
    p = TabulatedPotential(np.linspace(-1, 1, 9), np.zeros(9))
    with pytest.raises(DomainError):
        solve_kernels(p, UniformGrid(2.0, 32))


def test_picard_oracle_equivalence():
    grid = UniformGrid(2.0, 128)
    for p in (GaussianPotential(1.0, 0.3, 0.1), Sech2Potential(0.8, 0.5)):
        field = solve_kernels(p, grid)
        oracle = picard_oracle(p, grid, 40)
        err = max(np.max(np.abs(field.W1 - oracle.W1)),
                  np.max(np.abs(field.W2 - oracle.W2)))
        assert err < 20.0 * grid.h ** 2


def test_convergence_order_at_probe():
    p = GaussianPotential(1.0, 0.3, 0.0)
    ref = solve_kernels(p, UniformGrid(2.0, 512))
    vals = {}
    for n in (64, 128, 256):
        f = solve_kernels(p, UniformGrid(2.0, n))
        step = 512 // n
        k, i = n // 2, n // 4
        vals[n] = (cone_value(f, "w1", k, i)
                   - cone_value(ref, "w1", k * step, i * step))
    order = np.log2(abs(vals[64] / vals[128]))
    assert 1.5 < order < 2.5


def test_traces_continuity_and_values(field128):
    tr = field128.traces()
    n = field128.grid.n
    assert np.max(tr.continuity) < 50.0 * field128.grid.h ** 2
    k = np.arange(n + 1)
    assert np.allclose(tr.w1, field128.W1[k * k + k])
    # even potential: w1(0, t) is an even function of x => trace of w1
    # equals the diagonal, and w1x is even-symmetric data
    assert tr.w1x.shape == (n + 1,)


def test_dump_csv_row_count(tmp_path):
    field = solve_kernels(ZeroPotential(), UniformGrid(1.0, 8))
    path = tmp_path / "kernels.csv"
    field.dump_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + sum(2 * k + 1 for k in range(9))
