"""Speckle synthesis and the disordered detuning ratio built from it."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import cavsyk as cs
from cavsyk.disorder import pupil_radius
from cavsyk.errors import DegenerateInputError, ResolutionError


@pytest.fixture(scope="module")
def grid():
    return cs.make_grid(10.0, 200)


@pytest.fixture(scope="module")
def speckle(grid):
    return cs.generate_speckle(grid, 17.0, seed=3)


def test_intensity_follows_exponential_law(grid):
    for seed in range(5):
        field = cs.generate_speckle(grid, 17.0, seed=seed)
        scaled = field.intensity.ravel() / field.mean_intensity
        ks = scipy.stats.kstest(scaled, "expon").statistic
        assert ks < 0.05, f"seed {seed}: KS to exponential {ks:.4f}"


def _covariance_full_width(field):
    # periodic autocovariance along one axis; the field is exactly periodic
    # by construction, so the FFT correlation has no window artifacts
    delta = field.intensity - field.intensity.mean()
    power = np.abs(np.fft.fft2(delta)) ** 2
    cov = np.fft.ifft2(power).real
    profile = cov[0] / cov[0, 0]
    target = math.exp(-1.0)
    k = int(np.argmax(profile < target))
    frac = (profile[k - 1] - target) / (profile[k - 1] - profile[k])
    return 2.0 * (k - 1 + frac) * field.grid.spacing


def test_grain_width_matches_request(grid):
    widths = [
        _covariance_full_width(cs.generate_speckle(grid, 17.0, seed=s))
        for s in range(3)
    ]
    expected = grid.diameter / 17.0
    measured = np.mean(widths)
    assert abs(measured - expected) / expected < 0.10


def test_pupil_radius_matches_independent_root(grid):
    # the 1/e point of the intensity covariance sits where the pupil's field
    # correlation 2 J1(z)/z equals e^(-1/2); bisect it independently
    def f(z):
        return 2.0 * scipy.special.j1(z) / z - math.exp(-0.5)

    z_e = scipy.optimize.bisect(f, 1.0, 2.5, xtol=1e-12)
    expected = 2.0 * z_e * 17.0 / grid.diameter
    assert abs(pupil_radius(grid, 17.0) - expected) < 1e-10


def test_same_seed_is_bit_identical(grid):
    a = cs.generate_speckle(grid, 17.0, seed=11)
    b = cs.generate_speckle(grid, 17.0, seed=11)
    assert np.array_equal(a.intensity, b.intensity)


def test_different_seeds_differ(grid):
    a = cs.generate_speckle(grid, 17.0, seed=11)
    b = cs.generate_speckle(grid, 17.0, seed=12)
    assert not np.array_equal(a.intensity, b.intensity)


def test_intensity_is_positive(speckle):
    assert speckle.intensity.min() >= 0.0
    assert speckle.mean_intensity > 0.0


def test_ratio_mean_and_bounds(speckle):
    field = cs.detuning_ratio(speckle, strength=1.0)
    assert field.ratio.min() >= 1.0
    assert abs((field.ratio - 1.0).mean() - 1.0) < 1e-12


def test_zero_strength_is_clean_limit(speckle):
    field = cs.detuning_ratio(speckle, strength=0.0)
    assert np.array_equal(field.ratio, np.ones_like(field.ratio))
    assert field.strength == 0.0


@settings(max_examples=20, deadline=None)
@given(strength=st.floats(0.0, 5.0, allow_nan=False))
def test_ratio_scales_linearly_with_strength(speckle, strength):
    field = cs.detuning_ratio(speckle, strength=strength)
    assert field.ratio.min() >= 1.0
    assert abs((field.ratio - 1.0).mean() - strength) < 1e-9


def test_too_many_grains_for_grid():
    grid = cs.make_grid(10.0, 40)
    with pytest.raises(ResolutionError):
        cs.generate_speckle(grid, 30.0, seed=0)


def test_pupil_needs_at_least_two_modes():
    grid = cs.make_grid(10.0, 64)
    with pytest.raises(ResolutionError):
        cs.generate_speckle(grid, 0.01, seed=0)


def test_grain_count_must_be_positive(grid):
    with pytest.raises(ValueError):
        cs.generate_speckle(grid, 0.0, seed=0)


def test_negative_strength_rejected(speckle):
    with pytest.raises(ValueError):
        cs.detuning_ratio(speckle, strength=-0.5)


def test_zero_mean_intensity_rejected(grid):
    dead = cs.SpeckleField(grid, 17.0, 0, np.zeros((200, 200)))
    with pytest.raises(DegenerateInputError):
        cs.detuning_ratio(dead)
