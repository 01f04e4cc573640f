"""OTOC evaluation, form-factor extraction, unfolding, and spacing laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from cavsyk import diagnostics as dg
from cavsyk import fock
from cavsyk.errors import ExtractionError

import oracles


@pytest.fixture(scope="module")
def small_spectrum():
    sector = fock.enumerate_sector(6, 3)
    tensor = fock.sample_syk_gaussian(6, "real", seed=3)
    matrix = fock.build_effective_hamiltonian(tensor, sector)
    return matrix, fock.diagonalize(matrix, keep_vectors=True)


@pytest.fixture(scope="module")
def goe_spectra():
    rng = np.random.default_rng(7)
    return [
        fock.Spectrum(None, np.linalg.eigvalsh(oracles.goe_matrix(252, rng)))
        for _ in range(40)
    ]


# ---------------------------------------------------------------------------
# time grids


def test_log_time_grid_shape():
    grid = dg.log_time_grid(0.1, 100.0, 10)
    assert grid.times[0] == 0.1
    assert grid.times[-1] == 100.0
    assert grid.count == 31  # 3 decades at 10 per decade, inclusive
    assert np.all(np.diff(grid.times) > 0)


def test_log_time_grid_zero_prefix():
    grid = dg.log_time_grid(0.1, 10.0, 5, include_zero=True)
    assert grid.times[0] == 0.0
    assert grid.times[1] == 0.1


def test_log_time_grid_validation():
    with pytest.raises(ValueError):
        dg.log_time_grid(0.0, 1.0)
    with pytest.raises(ValueError):
        dg.log_time_grid(2.0, 1.0)
    with pytest.raises(ValueError):
        dg.log_time_grid(0.1, 1.0, 0)


# ---------------------------------------------------------------------------
# OTOC against the eigenbasis and dense-propagator oracles


def test_otoc_matches_propagator_oracle(small_spectrum):
    matrix, spectrum = small_spectrum
    times = dg.log_time_grid(0.05, 20.0, 8)
    series = dg.compute_otoc(spectrum, times, 0, 1)
    states = spectrum.sector.states
    w = 2.0 * ((states >> 0) & 1) - 1.0
    v = 2.0 * ((states >> 1) & 1) - 1.0
    direct = oracles.propagator_otoc(matrix.matrix, w, v, times.times)
    assert np.abs(series.values - direct).max() < 1e-9
    eigen = oracles.eigenbasis_otoc(spectrum, times.times, 0, 1)
    assert np.abs(series.values - eigen).max() < 1e-12
    assert np.all(series.values.imag == 0.0)


def test_otoc_complex_hamiltonian_matches_oracle():
    sector = fock.enumerate_sector(6, 3)
    tensor = fock.sample_syk_gaussian(6, "complex", seed=8)
    matrix = fock.build_effective_hamiltonian(tensor, sector)
    spectrum = fock.diagonalize(matrix, keep_vectors=True)
    times = dg.log_time_grid(0.05, 20.0, 8)
    series = dg.compute_otoc(spectrum, times, 2, 4)
    states = sector.states
    w = 2.0 * ((states >> 2) & 1) - 1.0
    v = 2.0 * ((states >> 4) & 1) - 1.0
    direct = oracles.propagator_otoc(matrix.matrix, w, v, times.times)
    assert np.abs(series.values - direct).max() < 1e-9
    eigen = oracles.eigenbasis_otoc(spectrum, times.times, 2, 4)
    assert np.abs(series.values - eigen).max() < 1e-12
    assert np.all(series.values.imag == 0.0)


def butterfly_signs(states, mode):
    return 2.0 * ((states >> mode) & 1) - 1.0


@pytest.mark.parametrize(
    "n_modes, n_particles, mode_i, mode_j, kind",
    [
        (8, 3, 5, 2, "real"),
        (9, 4, 0, 8, "complex"),
        (7, 1, 3, 0, "real"),
        (6, 6, 0, 1, "real"),
        (6, 0, 0, 1, "real"),
        (8, 7, 6, 1, "complex"),
    ],
)
def test_otoc_matches_both_oracles(n_modes, n_particles, mode_i, mode_j, kind):
    sector = fock.enumerate_sector(n_modes, n_particles)
    tensor = fock.sample_syk_gaussian(n_modes, kind, seed=n_modes + n_particles)
    matrix = fock.build_effective_hamiltonian(tensor, sector)
    spectrum = fock.diagonalize(matrix, keep_vectors=True)
    times = dg.log_time_grid(0.05, 20.0, 8, include_zero=True)
    series = dg.compute_otoc(spectrum, times, mode_i, mode_j)
    eigen = oracles.eigenbasis_otoc(spectrum, times.times, mode_i, mode_j)
    direct = oracles.propagator_otoc(
        matrix.matrix,
        butterfly_signs(sector.states, mode_i),
        butterfly_signs(sector.states, mode_j),
        times.times,
    )
    assert np.abs(series.values - eigen).max() < 1e-12
    assert np.abs(series.values - direct).max() < 1e-9
    assert np.all(series.values.imag == 0.0)
    assert series.values[0] == 1.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_otoc_half_filling_n10_matches_eigenbasis_oracle(kind):
    sector = fock.enumerate_sector(10, 5)
    tensor = fock.sample_syk_gaussian(10, kind, seed=11)
    matrix = fock.build_effective_hamiltonian(tensor, sector)
    spectrum = fock.diagonalize(matrix, keep_vectors=True)
    times = dg.log_time_grid(0.05, 50.0, 4, include_zero=True)
    series = dg.compute_otoc(spectrum, times, 7, 2)
    eigen = oracles.eigenbasis_otoc(spectrum, times.times, 7, 2)
    assert np.abs(series.values - eigen).max() < 1e-12
    assert np.all(series.values.imag == 0.0)
    assert series.values[0] == 1.0


def test_otoc_real_and_complex_paths_agree(small_spectrum):
    # forcing the eigenvectors complex routes through the other branch
    _, spectrum = small_spectrum
    times = dg.log_time_grid(0.1, 10.0, 6)
    real_path = dg.compute_otoc(spectrum, times, 0, 1)
    forced = fock.Spectrum(
        spectrum.sector, spectrum.eigenvalues, spectrum.vectors.astype(complex)
    )
    complex_path = dg.compute_otoc(forced, times, 0, 1)
    assert np.abs(real_path.values - complex_path.values).max() < 1e-12


def test_otoc_starts_at_one_exactly(small_spectrum):
    _, spectrum = small_spectrum
    times = dg.log_time_grid(0.1, 10.0, 4, include_zero=True)
    series = dg.compute_otoc(spectrum, times, 0, 1)
    assert series.values[0] == 1.0


def test_otoc_validation(small_spectrum):
    matrix, spectrum = small_spectrum
    times = dg.log_time_grid(0.1, 1.0, 4)
    bare = fock.diagonalize(matrix)
    with pytest.raises(ValueError):
        dg.compute_otoc(bare, times=times)
    with pytest.raises(ValueError):
        dg.compute_otoc(spectrum, times, 1, 1)
    with pytest.raises(ValueError):
        dg.compute_otoc(spectrum, times, 0, 6)


def test_decay_time_interpolates_exponential():
    times = dg.log_time_grid(0.01, 100.0, 40)
    tau = 3.7
    series = dg.OtocSeries(times, np.exp(-times.times / tau))
    crossing = dg.extract_decay_time(series)
    step = 10 ** (1.0 / 40.0)
    assert tau / step < crossing < tau * step


def test_decay_time_failures():
    times = dg.log_time_grid(0.1, 10.0, 5)
    flat = dg.OtocSeries(times, np.full(times.count, 0.9))
    with pytest.raises(ExtractionError, match="never crosses"):
        dg.extract_decay_time(flat)
    low = dg.OtocSeries(times, np.full(times.count, 0.1))
    with pytest.raises(ExtractionError, match="begins too late"):
        dg.extract_decay_time(low)


# ---------------------------------------------------------------------------
# form factor


def test_sff_matches_direct_oracle(small_spectrum):
    _, spectrum = small_spectrum
    times = dg.log_time_grid(0.1, 100.0, 20)
    series = dg.compute_sff(spectrum, times=times)
    direct = oracles.direct_sff(spectrum.eigenvalues, times.times)
    assert np.abs(series.values - direct).max() < 1e-12
    assert series.dimension == spectrum.dimension


@pytest.mark.parametrize("count", [1, 63, 64, 65, 150])
def test_sff_time_blocks_match_one_shot_sum_exactly(count):
    rng = np.random.default_rng(count)
    energies = np.sort(rng.normal(size=300))
    spectrum = fock.Spectrum(None, energies)
    times = dg.TimeGrid(np.geomspace(0.1, 500.0, count))
    series = dg.compute_sff(spectrum, times)
    assert np.array_equal(series.values, oracles.one_shot_sff(energies, times.times))


@given(
    st.integers(min_value=3, max_value=12),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_sff_invariant_under_energy_shift(n_levels, shift):
    rng = np.random.default_rng(n_levels)
    energies = np.sort(rng.normal(0.0, 1.0, n_levels))
    times = dg.log_time_grid(0.1, 50.0, 10)
    base = dg.compute_sff(fock.Spectrum(None, energies), times=times)
    moved = dg.compute_sff(fock.Spectrum(None, energies + shift), times=times)
    assert np.abs(base.values - moved.values).max() < 1e-10


def test_goe_ensemble_dip_ramp_plateau(goe_spectra):
    # the full random-matrix pipeline on a 252-dimensional GOE ensemble:
    # polynomial unfolding, averaging, smoothing, then both extractions
    dim = 252
    times = dg.log_time_grid(0.1, 20.0 * dim, 100)
    stack = [
        dg.compute_sff(dg.unfold_spectrum(s), times=times).values
        for s in goe_spectra
    ]
    mean = dg.SffSeries(times, np.mean(stack, axis=0), dim)
    smooth = dg.smooth_sff(mean, 0.15)
    plateau = dg.plateau_height(smooth)
    assert abs(plateau * dim - 1.0) < 0.2
    assert smooth.values[int(np.argmin(smooth.values))] < plateau
    t_r, t_h = dg.extract_ramp_and_heisenberg(smooth, threshold=0.015)
    assert t_r < t_h
    assert abs(t_h / (2.0 * dim) - 1.0) < 0.2


def test_goe_polynomial_unfolding_flattens_density(goe_spectra):
    # unfolded levels over pi should be nearly uniform on (0, 1) despite the
    # semicircle profile of the input
    unfolded = dg.unfold_spectrum(goe_spectra[0])
    ks = stats.kstest(unfolded.eigenvalues / math.pi, "uniform").statistic
    raw = goe_spectra[0].eigenvalues
    half_width = np.abs(raw).max()
    ks_raw = stats.kstest(
        (raw + half_width) / (2 * half_width), "uniform"
    ).statistic
    assert ks < 0.05
    assert ks < ks_raw  # the map genuinely improved uniformity


# ---------------------------------------------------------------------------
# unfolding


def test_linear_unfold_pins_uniform_spacing():
    dim = 200
    energies = np.linspace(-3.0, 5.0, dim)
    unfolded = dg.unfold_spectrum_linear(fock.Spectrum(None, energies))
    spacings = np.diff(unfolded.eigenvalues)
    assert np.abs(spacings - math.pi / dim).max() < 1e-12


def test_linear_unfold_is_scale_invariant():
    rng = np.random.default_rng(3)
    energies = np.sort(rng.normal(0.0, 2.0, 300))
    a = dg.unfold_spectrum_linear(fock.Spectrum(None, energies))
    b = dg.unfold_spectrum_linear(fock.Spectrum(None, 7.25 * energies))
    assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-12


def test_linear_unfold_preserves_density_shape():
    # ratios of spacings are untouched, unlike the polynomial map
    rng = np.random.default_rng(4)
    energies = np.sort(rng.normal(0.0, 2.0, 300))
    unfolded = dg.unfold_spectrum_linear(fock.Spectrum(None, energies))
    raw_ratio = np.diff(energies) / np.diff(energies).mean()
    new_ratio = np.diff(unfolded.eigenvalues) / np.diff(unfolded.eigenvalues).mean()
    assert np.abs(raw_ratio - new_ratio).max() < 1e-9


def test_unfold_validation():
    with pytest.raises(ValueError):
        dg.unfold_spectrum(fock.Spectrum(None, np.array([1.0])))
    with pytest.raises(ValueError):
        dg.unfold_spectrum_linear(fock.Spectrum(None, np.array([1.0])))
    with pytest.raises(ValueError):
        dg.unfold_spectrum_linear(fock.Spectrum(None, np.ones(100)))


def test_polynomial_unfold_drops_vectors(small_spectrum):
    _, spectrum = small_spectrum
    assert dg.unfold_spectrum(spectrum).vectors is None
    assert dg.unfold_spectrum_linear(spectrum).vectors is None


# ---------------------------------------------------------------------------
# smoothing and extraction on a synthetic curve with known kinks


DIM = 500
BUMP = 5.0


@pytest.fixture(scope="module")
def synthetic():
    # stop at 30 t_H so the default plateau window (last 1/20 of the span)
    # sits past the ramp corner at t = 2 * DIM
    times = dg.log_time_grid(0.1, 3e4, 100)
    values = oracles.synthetic_sff(times.times, DIM, BUMP)
    return dg.SffSeries(times, values, DIM)


def _bump_cross(threshold):
    # time where the Gaussian bump drops to threshold * ramp
    return optimize.brentq(
        lambda t: math.exp(-((t / BUMP) ** 2)) - threshold * t / (2 * DIM**2),
        1.0,
        100.0,
    )


def test_synthetic_extraction_with_supplied_windows(synthetic):
    t_r, t_h = dg.extract_ramp_and_heisenberg(
        synthetic,
        threshold=0.01,
        ramp_window=(30.0, 300.0),
        plateau_window=(3e3, 1e4),
    )
    step = 10 ** (1.0 / 100.0)
    cross = _bump_cross(0.01)
    assert cross / step < t_r < cross * step**3
    # the ramp reaches 99% of the plateau at t = 0.99 * 2 * DIM
    assert 0.99 * 2 * DIM / step < t_h < 0.99 * 2 * DIM * step**3


def test_synthetic_extraction_with_auto_windows(synthetic):
    t_r, t_h = dg.extract_ramp_and_heisenberg(synthetic, threshold=0.01)
    cross = _bump_cross(0.01)
    assert abs(t_r / cross - 1.0) < 0.05
    assert abs(t_h / (2 * DIM) - 1.0) < 0.03


def test_looser_threshold_extracts_earlier(synthetic):
    windows = dict(ramp_window=(30.0, 300.0), plateau_window=(3e3, 1e4))
    tight = dg.extract_ramp_and_heisenberg(synthetic, 0.005, **windows)
    loose = dg.extract_ramp_and_heisenberg(synthetic, 0.03, **windows)
    assert loose[0] <= tight[0]
    assert loose[1] <= tight[1]


def test_persistence_never_extracts_earlier(synthetic):
    windows = dict(ramp_window=(30.0, 300.0), plateau_window=(3e3, 1e4))
    quick = dg.extract_ramp_and_heisenberg(synthetic, 0.01, run_points=1, **windows)
    patient = dg.extract_ramp_and_heisenberg(
        synthetic, 0.01, run_points=10, **windows
    )
    assert patient[0] >= quick[0]
    assert patient[1] >= quick[1]


def test_persistence_rejects_transversal_crossing():
    # a curve that cuts through the fitted line once but never joins it:
    # with run_points=1 the single grazing point is accepted, with 3 the
    # extraction must refuse
    times = dg.log_time_grid(1.0, 1e3, 50)
    t = times.times
    values = 1.0 + 0.3 * np.log(t / 30.0) ** 2  # parabola in log t, min at 30
    series = dg.SffSeries(times, values, 0)
    windows = dict(ramp_window=(40.0, 300.0), plateau_window=(40.0, 300.0))
    with pytest.raises(ExtractionError):
        dg.extract_ramp_and_heisenberg(series, 1e-6, run_points=3, **windows)


def test_extraction_validation(synthetic):
    zero_grid = dg.log_time_grid(0.1, 10.0, 5, include_zero=True)
    series = dg.SffSeries(zero_grid, np.ones(zero_grid.count), 10)
    with pytest.raises(ValueError, match="positive times"):
        dg.extract_ramp_and_heisenberg(series)
    with pytest.raises(ValueError, match="run_points"):
        dg.extract_ramp_and_heisenberg(synthetic, run_points=0)
    bare = dg.SffSeries(synthetic.times, synthetic.values, 0)
    with pytest.raises(ValueError, match="no dimension"):
        dg.extract_ramp_and_heisenberg(bare)
    with pytest.raises(ExtractionError, match="grid points"):
        dg.extract_ramp_and_heisenberg(
            synthetic, ramp_window=(30.0, 30.001), plateau_window=(3e3, 1e4)
        )
    with pytest.raises(ExtractionError, match="never falls below"):
        dg.extract_ramp_and_heisenberg(
            synthetic,
            threshold=1e-15,
            ramp_window=(30.0, 300.0),
            plateau_window=(20.0, 80.0),  # fit far from the late curve
        )


def test_smoothing_keeps_constants_and_zero_width(synthetic):
    assert dg.smooth_sff(synthetic, 0.0) is synthetic
    times = dg.log_time_grid(0.1, 100.0, 30)
    flat = dg.SffSeries(times, np.full(times.count, 0.25), 4)
    smoothed = dg.smooth_sff(flat, 0.2)
    assert np.abs(smoothed.values - 0.25).max() < 1e-14


def test_smoothing_suppresses_noise_but_keeps_plateau(synthetic):
    rng = np.random.default_rng(1)
    noisy = dg.SffSeries(
        synthetic.times,
        synthetic.values * (1.0 + 0.05 * rng.standard_normal(synthetic.times.count)),
        DIM,
    )
    smoothed = dg.smooth_sff(noisy, 0.15)
    tail = synthetic.times.times > 3e3
    rough = np.std(noisy.values[tail] / synthetic.values[tail] - 1.0)
    calm = np.std(smoothed.values[tail] / synthetic.values[tail] - 1.0)
    assert calm < 0.5 * rough
    assert abs(np.mean(smoothed.values[tail]) * DIM - 1.0) < 0.02


def test_dip_and_plateau_baselines(synthetic):
    dip = dg.dip_time(synthetic)
    t = synthetic.times.times
    assert t[0] < dip < 2 * DIM
    assert synthetic.values[int(np.argmin(synthetic.values))] < 1.0 / DIM
    plateau = dg.plateau_height(synthetic)
    assert abs(plateau * DIM - 1.0) < 0.01


# ---------------------------------------------------------------------------
# level-spacing statistics


def test_reference_cdfs_match_oracle_forms():
    s = np.linspace(0.0, 4.0, 200)
    assert np.abs(dg.wigner_surmise_cdf(s) - oracles.wigner_surmise_cdf(s)).max() == 0
    assert np.abs(dg.poisson_cdf(s) - oracles.poisson_cdf(s)).max() == 0
    assert dg.wigner_surmise_cdf(0.0) == 0.0


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(11)
    samples = rng.exponential(1.0, 500)
    ours = dg.ks_distance(samples, dg.poisson_cdf)
    scipys = stats.kstest(samples, lambda x: 1.0 - np.exp(-x)).statistic
    assert abs(ours - scipys) < 1e-12


def test_goe_spacings_prefer_wigner(goe_spectra):
    pooled = np.concatenate(
        [dg.unfolded_spacings(s)[0] for s in goe_spectra[:10]]
    )
    result = dg.spacing_statistics(pooled)
    assert result.ks_goe < result.ks_poisson / 3.0
    assert abs(result.spacings.mean() - 1.0) < 1e-12


def test_poisson_spacings_prefer_poisson():
    rng = np.random.default_rng(5)
    levels = np.sort(rng.uniform(0.0, 1.0, 2000))
    spacings, n_degenerate = dg.unfolded_spacings(fock.Spectrum(None, levels))
    result = dg.spacing_statistics(spacings)
    assert result.ks_poisson < result.ks_goe
    assert n_degenerate == 0


def test_degenerate_levels_are_dropped():
    rng = np.random.default_rng(6)
    levels = np.sort(rng.uniform(0.0, 1.0, 400))
    levels[100:103] = levels[100]  # a triple degeneracy inside the bulk
    spacings, n_degenerate = dg.unfolded_spacings(fock.Spectrum(None, levels))
    assert n_degenerate == 2
    assert np.all(spacings > 0)


def test_spacing_validation():
    with pytest.raises(ValueError, match="at least 50"):
        dg.unfolded_spacings(fock.Spectrum(None, np.arange(10.0)))
    with pytest.raises(ValueError, match="keep_fraction"):
        dg.unfolded_spacings(fock.Spectrum(None, np.arange(100.0)), keep_fraction=0)
    with pytest.raises(ValueError, match="degenerate"):
        dg.unfolded_spacings(fock.Spectrum(None, np.ones(100)))
    with pytest.raises(ValueError, match="positive mean"):
        dg.spacing_statistics(np.zeros(10))


def test_spacing_histogram_is_normalized():
    rng = np.random.default_rng(8)
    result = dg.spacing_statistics(rng.exponential(1.0, 5000))
    width = result.bin_centers[1] - result.bin_centers[0]
    assert abs(np.sum(result.density) * width - 1.0) < 0.02


# ---------------------------------------------------------------------------
# power-law fits


def test_power_law_exact_recovery():
    x = np.array([0.1, 1.0, 10.0, 100.0])
    y = 3.0 * x**-0.58
    alpha, stderr = dg.fit_power_law(x, y)
    assert abs(alpha - 0.58) < 1e-12
    assert stderr < 1e-12


def test_power_law_noisy_recovery():
    rng = np.random.default_rng(9)
    x = np.geomspace(0.1, 100.0, 12)
    y = 2.0 * x**-0.58 * np.exp(rng.normal(0.0, 0.05, x.size))
    alpha, stderr = dg.fit_power_law(x, y)
    assert abs(alpha - 0.58) < 4.0 * max(stderr, 1e-3)


def test_power_law_validation():
    with pytest.raises(ValueError, match="at least 3"):
        dg.fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        dg.fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
