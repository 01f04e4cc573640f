"""Overlap integrals, the antisymmetrized coupling tensor, and line fits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavsyk as cs
from cavsyk import couplings as cp
from cavsyk.errors import DegenerateInputError
from cavsyk.grids import cantor_unpair

import oracles


@pytest.fixture(scope="module")
def grid():
    return cs.make_grid(10.0, 200)


@pytest.fixture(scope="module")
def trap(grid):
    return cs.solve_trap_modes(grid, 6)


@pytest.fixture(scope="module")
def cavity(grid):
    return cs.cavity_mode_set(12, 1.0, grid)


def clean_ratio(grid):
    # zero disorder strength gives a ratio of exactly 1 everywhere
    return cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=0), 0.0)


@pytest.fixture(scope="module")
def clean_table(grid, trap, cavity):
    return cp.compute_integrals(trap, cavity, clean_ratio(grid))


@pytest.fixture(scope="module")
def disordered_table(grid, trap, cavity):
    ratio = cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=5))
    return cp.compute_integrals(trap, cavity, ratio)


@pytest.fixture(scope="module")
def tensor(disordered_table):
    return cp.compute_coupling_tensor(disordered_table, 0.1, 12)


@pytest.fixture(scope="module")
def oracle_tensor(disordered_table):
    return oracles.coupling_tensor(disordered_table, 0.1, 12)


def test_integrals_match_adaptive_quadrature(clean_table, trap):
    # the grid eigensolver fixes mode signs by a first-nonzero-positive
    # rule, so only magnitudes are comparable against the analytic family
    worst = 0.0
    for i, li in enumerate(trap.quantum_numbers):
        for j, lj in enumerate(trap.quantum_numbers):
            for m in range(clean_table.cutoff + 1):
                exact = oracles.overlap_integral(li, lj, cantor_unpair(m), 1.0)
                got = clean_table.entries[i, j, m]
                worst = max(worst, abs(abs(got) - abs(exact)))
    assert worst < 5e-4, f"worst |integral| deviation {worst:.2e}"


@pytest.mark.parametrize(
    "drive",
    [cs.UNIFORM_DRIVE, cs.plane_wave_drive(1.3)],
    ids=["uniform", "plane_wave"],
)
@pytest.mark.parametrize("n_modes", [6, 10, 14])
def test_integrals_match_2d_riemann_oracle(grid, n_modes, drive):
    # the axis-by-axis contraction against one 2D grid sum per cavity mode;
    # cutoff 100 ends inside family 13, so labels select a partial family
    trap = cs.solve_trap_modes(grid, n_modes)
    cavity = cs.cavity_mode_set(100, 1.0, grid)
    for seed in (1, 2):
        ratio = cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=seed))
        entries = cp.compute_integrals(trap, cavity, ratio, drive).entries
        expected = oracles.overlap_integrals(trap, cavity, ratio, drive)
        peak = np.abs(expected).max()
        assert np.abs(entries - expected).max() < 1e-14 * peak
        assert np.array_equal(entries, entries.transpose(1, 0, 2))


def test_integrals_exactly_symmetric(disordered_table):
    e = disordered_table.entries
    assert np.array_equal(e, e.transpose(1, 0, 2))


def test_uniform_drive_gives_real_table(clean_table):
    assert not np.iscomplexobj(clean_table.entries)


def test_parity_selection_rule(clean_table, trap):
    # with no disorder the integrand's parity along each axis is the sum of
    # the three mode indices; any odd axis kills the integral
    for i, (ix, iy) in enumerate(trap.quantum_numbers):
        for j, (jx, jy) in enumerate(trap.quantum_numbers):
            for m in range(clean_table.cutoff + 1):
                mx, my = cantor_unpair(m)
                if (ix + jx + mx) % 2 or (iy + jy + my) % 2:
                    assert abs(clean_table.entries[i, j, m]) < 1e-10


def test_wide_cavity_mode_sees_orthonormality(grid, trap):
    # scale 50 makes g_0 essentially constant over the cloud, so the m=0
    # integrals reduce to (g_0(0)/2) times the trap-mode Gram matrix
    wide = cs.cavity_mode_set(0, 50.0, grid)
    table = cp.compute_integrals(trap, wide, clean_ratio(grid))
    e = table.entries[:, :, 0]
    diag = np.abs(np.diag(e))
    off = np.abs(e - np.diag(np.diag(e)))
    assert off.max() < 1e-3 * diag.min()
    assert diag.max() / diag.min() - 1.0 < 1e-3


def test_grid_mismatch_rejected(trap, cavity):
    other = cs.make_grid(10.0, 150)
    with pytest.raises(ValueError):
        cp.compute_integrals(trap, cavity, clean_ratio(other))


def test_tensor_antisymmetry(oracle_tensor):
    # the four-term construction is antisymmetric by inspection, but the
    # terms are summed in a fixed order so swapped index pairs accumulate
    # different round-off; compare to a scale-relative tolerance
    v = oracle_tensor
    peak = np.abs(v).max()
    assert np.abs(v + v.transpose(1, 0, 2, 3)).max() < 1e-12 * peak
    assert np.abs(v + v.transpose(0, 1, 3, 2)).max() < 1e-12 * peak


def test_tensor_repeated_index_vanishes(oracle_tensor):
    v = oracle_tensor
    for i in range(v.shape[0]):
        assert np.all(v[i, i] == 0.0)
        assert np.all(v[:, :, i, i] == 0.0)


def test_tensor_hermiticity(oracle_tensor, tensor):
    v = oracle_tensor / tensor.normalization
    assert np.abs(v - v.conj().transpose(3, 2, 1, 0)).max() < 1e-12
    # on the pair block, Hermitian symmetry is J[p, q] = conj(J[q, p])
    block = tensor.values
    assert np.abs(block - block.conj().T).max() < 1e-12


def test_pair_block_matches_oracle_tensor(disordered_table, oracle_tensor):
    raw = cp.compute_coupling_tensor(disordered_table, 0.1, 12, normalize=False)
    assert raw.values.shape == (15, 15)
    expected = oracles.pair_block_of(oracle_tensor)
    peak = np.abs(oracle_tensor).max()
    assert np.abs(raw.values - expected).max() < 1e-12 * peak


def test_uniform_drive_tensor_is_real(tensor):
    assert tensor.is_real


def test_plane_wave_drive_tensor_is_exactly_real(grid, trap, cavity):
    # with an oscillating drive phase the integral table is genuinely
    # complex, yet the antisymmetrized tensor is real: the table is
    # symmetric in (i, j), which makes the two exchange terms the complex
    # conjugates of the two direct terms, and the imaginary parts cancel
    # identically for any drive phase profile
    ratio = cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=5))
    table = cp.compute_integrals(trap, cavity, ratio, cs.plane_wave_drive(1.3))
    assert np.iscomplexobj(table.entries)
    assert np.abs(table.entries.imag).max() > 1e-3
    tensor = cp.compute_coupling_tensor(table, 0.1, 12)
    assert tensor.is_real
    v = tensor.values
    assert np.abs(v - v.T).max() < 1e-12
    full = oracles.coupling_tensor(table, 0.1, 12) / tensor.normalization
    assert np.abs(full.imag).max() < 1e-12
    assert np.abs(v - oracles.pair_block_of(full).real).max() < 1e-12
    block = cp.independent_entries(tensor)
    assert abs(np.std(block, ddof=1) - 1.0) < 1e-12
    # and the tensor differs from its uniform-drive counterpart, so the
    # drive profile is not silently ignored
    plain = cp.compute_coupling_tensor(
        cp.compute_integrals(trap, cavity, ratio), 0.1, 12
    )
    assert np.abs(v - plain.values).max() > 1e-3


def test_unit_variance_after_normalization(tensor):
    block = cp.independent_entries(tensor)
    assert abs(np.std(block, ddof=1) - 1.0) < 1e-12
    assert block.shape == (15, 15)


def test_normalization_restores_raw_scale(disordered_table):
    raw = cp.compute_coupling_tensor(disordered_table, 0.1, 12, normalize=False)
    normed = cp.normalize_couplings(raw)
    assert normed.normalization > 0
    back = normed.values * normed.normalization
    assert np.abs(back - raw.values).max() < 1e-12 * np.abs(raw.values).max()


def test_normalization_scale_invariant(disordered_table):
    raw = cp.compute_coupling_tensor(disordered_table, 0.1, 12, normalize=False)
    scaled = replace(raw, values=raw.values * 7.25)
    a = cp.normalize_couplings(raw)
    b = cp.normalize_couplings(scaled)
    assert np.abs(a.values - b.values).max() < 1e-12
    assert abs(b.normalization / a.normalization - 7.25) < 1e-12


def test_single_mode_dominates_at_large_mode_spacing(disordered_table):
    # every m >= 1 weight is at most 1/(1 + delta), so the full tensor sits
    # within that relative distance of the m=0 truncation
    delta = 1e3
    full = cp.compute_coupling_tensor(disordered_table, delta, 12, normalize=False)
    m0 = cp.compute_coupling_tensor(disordered_table, delta, 0, normalize=False)
    rel = np.abs(full.values - m0.values).max() / np.abs(m0.values).max()
    assert rel < 1.0 / (1.0 + delta)


def test_cutoff_convergence(grid, trap):
    cavity = cs.cavity_mode_set(500, 1.0, grid)
    ratio = cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=5))
    table = cp.compute_integrals(trap, cavity, ratio)
    t240 = cp.compute_coupling_tensor(table, 0.1, 240)
    t500 = cp.compute_coupling_tensor(table, 0.1, 500)
    rel = np.abs(t500.values - t240.values).max() / np.abs(t240.values).max()
    assert rel < 0.05, f"cutoff 240 vs 500 changed entries by {rel:.3f}"


def test_cutoff_above_table_rejected(disordered_table):
    with pytest.raises(ValueError):
        cp.compute_coupling_tensor(disordered_table, 0.1, 13)


def test_nonpositive_mode_spacing_rejected(disordered_table):
    with pytest.raises(ValueError):
        cp.compute_coupling_tensor(disordered_table, 0.0, 12)


def test_unknown_drive_rejected():
    with pytest.raises(ValueError):
        cp.DriveProfile("ring")


def test_fit_recovers_gaussian(rng=np.random.default_rng(42)):
    rho, sigma, xbar, err = cp.fit_pseudo_voigt(rng.normal(0.0, 1.0, 100_000))
    assert rho < 0.1
    assert abs(sigma - 1.0) < 0.05
    assert abs(xbar) < 0.05


def test_fit_recovers_truncated_cauchy(rng=np.random.default_rng(43)):
    # inverse-CDF draw of a Cauchy conditioned on its central 97.5% mass
    gamma, mass = 0.2, 0.975
    u = rng.random(100_000)
    samples = gamma * np.tan(mass * math.pi * (u - 0.5))
    rho, sigma, xbar, err = cp.fit_pseudo_voigt(samples)
    assert rho > 0.8
    assert abs(xbar) < 0.05


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        cp.fit_pseudo_voigt(np.ones(50))


def test_fit_rejects_constant_samples():
    with pytest.raises(DegenerateInputError):
        cp.fit_pseudo_voigt(np.ones(500))


@settings(max_examples=15, deadline=None)
@given(
    rho=st.floats(0.0, 1.0),
    sigma=st.floats(0.05, 3.0),
    xbar=st.floats(-2.0, 2.0),
)
def test_density_normalized(rho, sigma, xbar):
    # Cauchy tails hold about rho * 2 gamma / (pi * span) of the mass, so a
    # +-300 sigma span leaves at most ~0.2% outside
    x = np.linspace(xbar - 300.0 * sigma, xbar + 300.0 * sigma, 200_001)
    total = np.trapezoid(cp.pseudo_voigt_density(x, rho, sigma, xbar), x)
    assert abs(total - 1.0) < 5e-3
