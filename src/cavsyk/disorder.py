"""Speckle intensity fields and the disordered detuning ratio they induce.

A speckle pattern is synthesized by filling frequency space with unit-modulus
complex numbers of i.i.d. uniform random phase, keeping only wavevectors
inside a circular pupil, inverse transforming, and taking the squared
modulus.  In the limit of many pupil modes the resulting intensity follows
the exponential law P(I) = exp(-I/<I>) / <I>.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.special

from .errors import DegenerateInputError, ResolutionError
from .grids import GridSpec


@dataclass(frozen=True, eq=False)
class SpeckleField:
    """Speckle intensity on a grid, reproducible from (grid, grains, seed)."""

    grid: GridSpec
    grains_per_linear_dim: float
    seed: int
    intensity: np.ndarray = field(repr=False)

    @property
    def mean_intensity(self):
        return float(self.intensity.mean())


@dataclass(frozen=True, eq=False)
class DetuningRatioField:
    """Ratio of the disordered to the bare atom-drive detuning.

    ratio(r) = 1 + strength * I(r)/<I>, which is >= 1 everywhere because the
    shifting beam is blue detuned and only deepens the detuning.  At the
    default strength the spatial mean of (ratio - 1) is exactly 1.
    """

    grid: GridSpec
    ratio: np.ndarray = field(repr=False)
    strength: float = 1.0


def _airy_inverse_half_e():
    """Solve 2 J1(z)/z = e^(-1/2) on the pattern's central lobe."""

    def f(z):
        return 2.0 * scipy.special.j1(z) / z - math.exp(-0.5)

    return scipy.optimize.brentq(f, 0.5, 3.8)


def pupil_radius(grid, grains_per_linear_dim):
    """Frequency-space pupil radius that yields the requested grain count.

    The field autocorrelation of a circular pupil is 2 J1(k_r d)/(k_r d), so
    the intensity covariance drops to 1/e over a full width 2 z_e / k_r with
    z_e the solution of 2 J1(z)/z = e^(-1/2).  Setting that width equal to
    diameter/grains fixes k_r.
    """
    return 2.0 * _airy_inverse_half_e() * grains_per_linear_dim / grid.diameter


def generate_speckle(grid, grains_per_linear_dim, seed):
    """Synthesize a speckle intensity field on the grid.

    Parameters
    ----------
    grid : GridSpec
    grains_per_linear_dim : float
        Target number of speckle grains across the grid diameter.
    seed : int
        Nonnegative seed; identical arguments give bit-identical fields.

    Raises
    ------
    ResolutionError
        If the grid cannot resolve grains this small (fewer than about two
        grid points per grain) or the pupil contains fewer than two modes.
    """
    grains = float(grains_per_linear_dim)
    if grains <= 0:
        raise ValueError(f"grain count must be positive, got {grains}")
    n = grid.points_per_axis
    # grain width L/grains must span at least ~2 grid cells
    if grains > (n - 1) / 2.0:
        raise ResolutionError(
            f"{grains:g} grains across {n} points leaves under two points per "
            f"grain"
        )

    k_r = pupil_radius(grid, grains)
    k_axis = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
    k_sq = k_axis[:, None] ** 2 + k_axis[None, :] ** 2
    pupil = k_sq <= k_r ** 2
    n_modes = int(pupil.sum())
    if n_modes < 2:
        raise ResolutionError(
            f"pupil of radius {k_r:g} holds {n_modes} frequency mode(s); "
            f"grid too small for {grains:g} grains"
        )

    rng = np.random.default_rng(int(seed))
    phases = rng.uniform(0.0, 2.0 * math.pi, (n, n))
    amplitude = np.fft.ifft2(pupil * np.exp(1j * phases))
    intensity = np.abs(amplitude) ** 2
    return SpeckleField(grid, grains, int(seed), intensity)


def detuning_ratio(speckle, strength=1.0):
    """Convert a speckle field into the dimensionless detuning ratio.

    The intensity is rescaled to unit spatial mean, so the mean added
    detuning equals strength (default 1).  strength = 0 gives the
    disorder-free ratio == 1 field, useful as a clean-limit reference.
    """
    if strength < 0:
        raise ValueError(f"strength must be nonnegative, got {strength}")
    mean = speckle.mean_intensity
    if mean <= 0.0:
        raise DegenerateInputError("speckle intensity has zero mean")
    ratio = 1.0 + strength * (speckle.intensity / mean)
    return DetuningRatioField(speckle.grid, ratio, float(strength))
