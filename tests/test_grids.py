"""Grid construction, trap eigenmodes, and cavity mode family."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cavsyk as cs
from cavsyk.errors import ResolutionError

import oracles


def trap_modes_2d(trap):
    # each stored mode set keeps 1D factors; the 2D modes are their products
    return [
        np.outer(trap.modes[nx], trap.modes[ny]) for nx, ny in trap.quantum_numbers
    ]


def cavity_mode_2d(cavity, m):
    nx, ny = cavity.labels[m]
    return np.outer(cavity.modes[nx], cavity.modes[ny])


def test_grid_axis_reflection_symmetric():
    grid = cs.make_grid(10.0, 200)
    assert np.array_equal(grid.axis, -grid.axis[::-1])
    assert grid.axis[0] == -5.0 and grid.axis[-1] == 5.0


def test_grid_spacing_and_cell_area():
    grid = cs.make_grid(10.0, 201)
    assert grid.spacing == pytest.approx(0.05)
    assert grid.cell_area == pytest.approx(0.05 ** 2)


def test_grid_argument_validation():
    with pytest.raises(ValueError):
        cs.make_grid(-1.0, 100)
    with pytest.raises(ValueError):
        cs.make_grid(10.0, 1)


def test_same_grid_discriminates():
    a = cs.make_grid(10.0, 100)
    b = cs.make_grid(10.0, 100)
    c = cs.make_grid(12.0, 100)
    assert cs.same_grid(a, b)
    assert not cs.same_grid(a, c)


def test_trap_energies_match_harmonic_ladder():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 15)
    exact = trap.quantum_numbers.sum(axis=1) + 1.0
    rel = np.abs(trap.energies - exact) / exact
    assert rel.max() < 1e-3


def test_trap_modes_orthonormal_under_quadrature():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 10)
    flat = np.stack([mode.ravel() for mode in trap_modes_2d(trap)])
    gram = flat @ flat.T * grid.cell_area
    assert np.abs(gram - np.eye(10)).max() < 1e-10


def test_trap_mode_ordering_and_labels():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 6)
    assert np.all(np.diff(trap.energies) >= -1e-12)
    # degenerate levels are ordered by n_x; level 2 splits (0,2)/(2,0) by
    # the tiny discretization error before the exact tie (1,1)
    assert [tuple(q) for q in trap.quantum_numbers[:3]] == [(0, 0), (0, 1), (1, 0)]
    assert {tuple(q) for q in trap.quantum_numbers[3:6]} == {(0, 2), (2, 0), (1, 1)}


def test_trap_mode_sign_convention():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 6)
    for mode in trap_modes_2d(trap):
        flat = mode.ravel()
        assert flat[np.nonzero(flat)[0][0]] > 0


def test_trap_modes_match_closed_form():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 6)
    x = grid.axis
    for mode, (nx, ny) in zip(trap_modes_2d(trap), trap.quantum_numbers):
        ref = oracles.trap_mode_2d(nx, ny, x, x)
        # same mode up to the grid sign gauge; 5e-4 is the discretization
        # error of the finite-difference eigenvectors at this resolution
        diff = min(np.abs(mode - ref).max(), np.abs(mode + ref).max())
        assert diff < 5e-4


def test_trap_grid_too_small_raises():
    with pytest.raises(ResolutionError):
        cs.solve_trap_modes(cs.make_grid(3.0, 200), 15)


def test_trap_grid_too_coarse_raises():
    with pytest.raises(ResolutionError):
        cs.solve_trap_modes(cs.make_grid(10.0, 8), 15)


def test_cantor_pairing_examples():
    assert oracles.cantor_pair(0, 0) == 0
    assert oracles.cantor_pair(1, 0) == 1
    assert oracles.cantor_pair(0, 1) == 2
    assert cs.cantor_unpair(0) == (0, 0)
    assert cs.cantor_unpair(1) == (1, 0)
    assert cs.cantor_unpair(2) == (0, 1)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_cantor_pair_roundtrip(nx, ny):
    assert cs.cantor_unpair(oracles.cantor_pair(nx, ny)) == (nx, ny)


@given(st.integers(0, 10**9))
def test_cantor_unpair_roundtrip(m):
    nx, ny = cs.cantor_unpair(m)
    assert nx >= 0 and ny >= 0
    assert oracles.cantor_pair(nx, ny) == m


def test_cantor_rejects_negative():
    with pytest.raises(ValueError):
        cs.cantor_unpair(-1)


def test_hermite_functions_match_closed_form():
    u = np.linspace(-6.0, 6.0, 101)
    table = cs.hermite_functions(8, u)
    for n in range(9):
        assert np.abs(table[n] - oracles.harmonic_mode_1d(n, u)).max() < 1e-12


def test_cavity_modes_match_scaled_family():
    grid = cs.make_grid(10.0, 200)
    zeta = 0.7
    modes = cs.cavity_mode_set(9, zeta, grid)
    x = grid.axis
    for m in range(10):
        nx, ny = cs.cantor_unpair(m)
        ref = np.outer(
            oracles.cavity_mode_1d(nx, x, zeta), oracles.cavity_mode_1d(ny, x, zeta)
        )
        assert np.abs(cavity_mode_2d(modes, m) - ref).max() < 1e-12
        assert modes.family[m] == nx + ny


def test_cavity_mode_single_matches_set():
    grid = cs.make_grid(10.0, 200)
    modes = cs.cavity_mode_set(5, 1.0, grid)
    for m in range(6):
        assert np.array_equal(
            oracles.cavity_mode(m, 1.0, grid), cavity_mode_2d(modes, m)
        )


def test_cavity_modes_unit_norm_on_grid():
    grid = cs.make_grid(12.0, 240)
    modes = cs.cavity_mode_set(9, 1.0, grid)
    flat = np.stack([cavity_mode_2d(modes, m).ravel() for m in range(10)])
    norms = (flat ** 2).sum(axis=1) * grid.cell_area
    assert np.abs(norms - 1.0).max() < 1e-6


def test_mode_sets_store_only_1d_factors():
    grid = cs.make_grid(10.0, 200)
    cavity = cs.cavity_mode_set(240, 1.0, grid)
    trap = cs.solve_trap_modes(grid, 15)
    assert cavity.modes.nbytes < 1e5
    assert cavity.modes.shape == (22, 200)
    assert trap.modes.ndim == 2


def test_cavity_nyquist_guard():
    grid = cs.make_grid(10.0, 20)
    with pytest.raises(ResolutionError):
        cs.cavity_mode_set(240, 1.0, grid)


def test_cavity_argument_validation():
    grid = cs.make_grid(10.0, 200)
    with pytest.raises(ValueError):
        cs.cavity_mode_set(-1, 1.0, grid)
    with pytest.raises(ValueError):
        cs.cavity_mode_set(3, 0.0, grid)
