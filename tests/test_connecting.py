import numpy as np
import pytest

from bcwave.connecting import (
    apply_connecting,
    assemble_matrix,
    build_connecting,
    connecting_form,
    connecting_nodes,
)
from bcwave.errors import DomainError, GridMismatchError
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid, smooth_random_control, trapezoid_weights
from bcwave.potentials import ConstantPotential, ZeroPotential
from bcwave.response import response_matrix

from oracles import _assemble, control_norm, forward_solution, inner_inner


@pytest.fixture(scope="module")
def free_ck():
    field = solve_kernels(ZeroPotential(), UniformGrid(2.0, 128))
    return build_connecting(response_matrix(field))


def test_free_space_half_identity(free_ck):
    grid = free_ck.grid
    f = smooth_random_control(grid, np.random.default_rng(0))
    g = apply_connecting(free_ck, f)
    assert np.max(np.abs(g.f1 - 0.5 * f.f1)) < 1e-14
    assert np.max(np.abs(g.f2 - 0.5 * f.f2)) < 1e-14
    asm = assemble_matrix(free_ck)
    w = np.tile(trapezoid_weights(grid.n, grid.h), 2)
    assert np.array_equal(_assemble(free_ck.nodes, grid.h)[0],
                          0.5 * np.diag(w))
    assert asm.asymmetry == 0.0


def test_perturbative_constant_kernel():
    c = 0.01
    T, n = 1.0, 64
    field = solve_kernels(ConstantPotential(c), UniformGrid(2 * T, 2 * n))
    ck = build_connecting(response_matrix(field))
    t = ck.grid.t
    expect = 0.25 * c * (np.maximum.outer(t, t) - T)
    assert np.max(np.abs(ck.c11 - expect)) < 3 * c * c
    assert np.max(np.abs(ck.c22 + 0.125 * c
                         * (np.abs(np.subtract.outer(t, t))
                            + (2 * T - np.add.outer(t, t))))) < 3 * c * c


def test_blagoveshchenskii_identity(field128, ck128):
    grid = ck128.grid
    h = grid.h
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = smooth_random_control(grid, rng)
        g = smooth_random_control(grid, rng)
        lhs = connecting_form(ck128, f, g)
        uf = forward_solution(f, field128, grid.horizon)
        ug = forward_solution(g, field128, grid.horizon)
        rhs = inner_inner(uf, ug)
        bound = 5.0 * h * h * control_norm(f) * control_norm(g)
        assert abs(lhs - rhs) <= bound


def test_even_potential_symmetry(ck128):
    # even q: r12 = r21 = 0, so the off-diagonal blocks vanish
    assert ck128.symmetry_residual() == 0.0
    assert ck128.block_symmetry_residual() == 0.0
    assert np.max(np.abs(ck128.c12)) == 0.0


def test_general_block_symmetry(resp_off):
    ck = build_connecting(resp_off)
    h = ck.grid.h
    scale = float(np.max(np.abs(ck.nodes)))
    # C12(t,s) = C21(s,t) holds generally ...
    assert ck.block_symmetry_residual() < 10.0 * h * h * scale
    # ... while pointwise C12 = C21 fails for a non-even potential
    assert ck.symmetry_residual() > 100.0 * h * h * scale


def test_assembled_spd(ck256):
    asm = assemble_matrix(ck256)
    A = _assemble(ck256.nodes, ck256.grid.h)[0]
    assert np.array_equal(A, A.T)
    assert asm.asymmetry <= 100.0 * ck256.grid.h ** 2
    lam = np.linalg.eigvalsh(A)
    assert lam[0] >= -1e-8 * np.abs(lam).max()


def test_assembled_solve_round_trip(ck128):
    grid = ck128.grid
    f = smooth_random_control(grid, np.random.default_rng(9))
    g = apply_connecting(ck128, f)
    A, w = _assemble(ck128.nodes, grid.h)
    sol = np.linalg.solve(A, w * g.stacked())
    m = grid.n + 1
    assert np.max(np.abs(sol[:m] - f.f1)) < 1e-8
    assert np.max(np.abs(sol[m:] - f.f2)) < 1e-8


def test_blocks_are_views_of_the_nodes(resp_off):
    # C is held once: the forward-time blocks are views of the node-major
    # array and follow the module docstring's formulas
    ck = build_connecting(resp_off)
    blocks = (ck.c11, ck.c12, ck.c21, ck.c22)
    for blk in blocks:
        assert np.shares_memory(blk, ck.nodes)
    r, h, n = resp_off, ck.grid.h, ck.grid.n
    p1 = np.concatenate([[0.0], np.cumsum(0.5 * h * (r.r11[1:] + r.r11[:-1]))])
    p2 = np.concatenate([[0.0], np.cumsum(0.5 * h * (r.r12[1:] + r.r12[:-1]))])

    def odd(f, k):
        return np.sign(k) * f[abs(k)]

    for i, j in ((0, 0), (3, 17), (17, 3), (n, 5), (40, n), (n, n)):
        refl, diff = 2 * n - i - j, i - j
        expect = (0.5 * (p1[refl] - p1[abs(diff)]),
                  0.5 * (p2[refl] - odd(p2, diff)),
                  0.5 * (odd(r.r21, diff) + r.r21[refl]),
                  0.5 * (r.r22[abs(diff)] + r.r22[refl]))
        for blk, e in zip(blocks, expect):
            assert blk[i, j] == pytest.approx(e, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", [1, 7, 8, 63, None])
def test_shorter_horizon_is_the_leading_block(resp_off, k):
    full = build_connecting(resp_off).nodes
    k = full.shape[0] // 2 - 1 if k is None else k
    assert np.array_equal(connecting_nodes(resp_off, k),
                          full[:2 * k + 2, :2 * k + 2])


def test_horizon_and_grid_guards(resp128, ck128):
    with pytest.raises(DomainError):
        build_connecting(resp128, resp128.grid.n)  # needs 2T of data
    f = smooth_random_control(UniformGrid(1.0, 64), np.random.default_rng(0))
    with pytest.raises(GridMismatchError):
        apply_connecting(ck128, f)


def test_quadrature_weights_in_assembly(ck128):
    asm = assemble_matrix(ck128)
    w = trapezoid_weights(ck128.grid.n, ck128.grid.h)
    assert np.allclose(asm.factor.node_weights[0::2], w)
    assert np.allclose(asm.factor.node_weights[1::2], w)
