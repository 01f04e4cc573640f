"""Real-space grid, harmonic-trap eigenmodes, and transverse cavity modes.

All lengths are expressed in units of the trap oscillator length x0 and all
energies in units of the trap frequency; both are set to 1.  Fields live on
a square grid of points_per_axis x points_per_axis coordinates centered at
the origin, with array axis 0 running along x and axis 1 along y.

Both mode families are products of 1D functions and are stored as tables of
1D factors: mode (n_x, n_y) is np.outer(modes[n_x], modes[n_y]), never formed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ResolutionError

# Grid diameter needed to hold a trap mode of level n without distortion is
# about 5 * sqrt(n + 1) (five standard deviations of the mode's spatial
# variance n + 1).  The slack factor admits the standard working point of
# 15 modes on an L = 10 grid, which sits just inside the rule of thumb.
_EXTENT_SLACK = 0.85


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Square, centered, uniformly spaced real-space grid."""

    diameter: float
    points_per_axis: int
    axis: np.ndarray = field(repr=False)

    @property
    def spacing(self):
        return self.diameter / (self.points_per_axis - 1)

    @property
    def cell_area(self):
        return self.spacing ** 2


def make_grid(diameter, points_per_axis):
    """Build a GridSpec with coordinates symmetric about the origin.

    Parameters
    ----------
    diameter : float
        Side length L of the square grid, in oscillator units.
    points_per_axis : int
        Number of points per axis, at least 2.
    """
    if diameter <= 0:
        raise ValueError(f"grid diameter must be positive, got {diameter}")
    points_per_axis = int(points_per_axis)
    if points_per_axis < 2:
        raise ValueError(f"need at least 2 points per axis, got {points_per_axis}")
    axis = np.linspace(-diameter / 2.0, diameter / 2.0, points_per_axis)
    # enforce exact reflection symmetry regardless of rounding in linspace
    axis = 0.5 * (axis - axis[::-1])
    return GridSpec(float(diameter), points_per_axis, axis)


def same_grid(a, b):
    return (
        a.points_per_axis == b.points_per_axis
        and a.diameter == b.diameter
        and np.array_equal(a.axis, b.axis)
    )


@dataclass(frozen=True, eq=False)
class TrapModeSet:
    """The N energetically lowest eigenmodes of the 2D harmonic trap.

    modes is the (level + 1, Nx) table of 1D eigenvectors scaled by 1/sqrt(h),
    each with a positive first nonzero entry.  Mode i with oscillator labels
    quantum_numbers[i] = (n_x, n_y) is np.outer(modes[n_x], modes[n_y]),
    Riemann-normalized and positive at its first nonzero grid point, with
    eigenvalue energies[i] of the discretized trap Hamiltonian.
    """

    grid: GridSpec
    energies: np.ndarray
    modes: np.ndarray
    quantum_numbers: np.ndarray

    @property
    def count(self):
        return len(self.energies)


def _level_for_count(n_modes):
    """Smallest oscillator level n such that levels 0..n hold n_modes states."""
    level = 0
    while (level + 1) * (level + 2) // 2 < n_modes:
        level += 1
    return level


def solve_trap_modes(grid, n_modes):
    """Diagonalize the discretized 2D harmonic oscillator on the grid.

    The Hamiltonian (-laplacian + r^2) / 2 is discretized with 5-point
    second-order central finite differences and zero (Dirichlet) boundaries.
    Because that operator is the Kronecker sum of two identical 1D problems,
    a single 1D eigensolve yields the full 2D solution: 2D eigenvalues are
    sums of 1D ones and eigenvectors are products of 1D vectors, which makes
    every mode a definite-parity product state by construction.

    Modes are sorted by (energy, n_x); only the 1D factor table is stored.

    Raises
    ------
    ResolutionError
        If the grid is too small to hold the highest requested mode or too
        coarse to sample its oscillation.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    level = _level_for_count(n_modes)

    extent_needed = _EXTENT_SLACK * 5.0 * math.sqrt(level + 1)
    if grid.diameter < extent_needed:
        raise ResolutionError(
            f"grid diameter {grid.diameter:g} too small for trap level {level}; "
            f"need at least {extent_needed:g}"
        )
    k_max = math.sqrt(2.0 * (level + 1))
    if grid.spacing >= math.pi / k_max:
        raise ResolutionError(
            f"grid spacing {grid.spacing:g} does not resolve trap level {level}; "
            f"need spacing below {math.pi / k_max:g}"
        )

    h = grid.spacing
    x = grid.axis
    n_x = grid.points_per_axis
    # 1D operator (-d^2/dx^2 + x^2) / 2 with Dirichlet boundaries
    diag = 1.0 / h ** 2 + 0.5 * x ** 2
    off = np.full(n_x - 1, -0.5 / h ** 2)
    energies_1d, vectors_1d = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, level)
    )

    pairs = [(nx, ny) for nx in range(level + 1) for ny in range(level + 1)]
    pairs.sort(key=lambda p: (energies_1d[p[0]] + energies_1d[p[1]], p[0]))
    labels = np.array(pairs[:n_modes])

    # unit 2-norm vectors give Riemann-normalized outer products, and two
    # factors that start positive give a 2D mode that starts positive
    table = vectors_1d.T / math.sqrt(h)
    first = table[np.arange(level + 1), np.argmax(table != 0.0, axis=1)]
    table *= np.where(first < 0.0, -1.0, 1.0)[:, None]
    energies = energies_1d[labels[:, 0]] + energies_1d[labels[:, 1]]
    return TrapModeSet(grid, energies, table, labels)


def cantor_unpair(m):
    """(n_x, n_y) with Cantor pairing index m = s(s+1)/2 + n_y, s = n_x + n_y."""
    if m < 0:
        raise ValueError(f"pairing index must be nonnegative, got {m}")
    s = (math.isqrt(8 * m + 1) - 1) // 2
    n_y = m - s * (s + 1) // 2
    return s - n_y, n_y


def hermite_functions(n_max, u):
    """Orthonormal 1D Hermite functions h_0..h_n_max evaluated at u.

    Uses the stable two-term recurrence; returns an array of shape
    (n_max + 1, len(u)).
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((n_max + 1, u.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u ** 2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * u * out[n] - math.sqrt(
            n / (n + 1)
        ) * out[n - 1]
    return out


@dataclass(frozen=True, eq=False)
class CavityModeSet:
    """Cavity modes g_0..g_M as a table of 1D Hermite-Gauss factors.

    modes is the (n_max + 1, Nx) table of 1D functions on the grid axis and
    labels[m] = (n_x, n_y) the indices of mode m, so g_m is
    np.outer(modes[n_x], modes[n_y]).  family[m] = n_x + n_y determines the
    mode frequency offset; the 1 / (1 + family * delta_omega_tilde) weights
    are applied downstream when the coupling tensor is contracted.
    """

    grid: GridSpec
    zeta: float
    cutoff: int
    modes: np.ndarray
    labels: np.ndarray

    @property
    def family(self):
        return self.labels.sum(axis=1)


def cavity_mode_set(cutoff, zeta, grid):
    """Build all cavity modes g_m with flattened index m = 0..cutoff.

    g_m is the product of 1D Hermite-Gauss functions with indices
    (n_x, n_y) = cantor_unpair(m) and length scale w0 / sqrt(2) = zeta,
    for the waist w0 = sqrt(2) * zeta.  Only the 1D factor table is stored.
    """
    if cutoff < 0:
        raise ValueError(f"mode cutoff must be nonnegative, got {cutoff}")
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    scale = float(zeta)
    labels = np.array([cantor_unpair(m) for m in range(cutoff + 1)])
    top = int(labels.sum(axis=1).max())
    k_max = math.sqrt(2.0 * (top + 1)) / scale
    if grid.spacing >= math.pi / k_max:
        raise ResolutionError(
            f"grid spacing {grid.spacing:g} undersamples cavity mode family "
            f"{top}; need spacing below {math.pi / k_max:g}"
        )

    table = hermite_functions(labels.max(), grid.axis / scale) / math.sqrt(scale)
    return CavityModeSet(grid, scale, int(cutoff), table, labels)
