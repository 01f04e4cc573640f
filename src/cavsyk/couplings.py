"""Disorder-randomized interaction integrals and the two-body coupling tensor.

The chain implemented here is: overlap integrals I~[i, j, m] of trap-mode
pairs with each cavity mode (weighted by the drive profile and the inverse
detuning ratio), contracted one grid axis at a time because both mode
families are products of 1D factors, then the antisymmetrized tensor

    Jt[i1, i2, j1, j2] = sum_m (I~[i1,j1,m] I~*[j2,i2,m]
                                - I~[i2,j1,m] I~*[j2,i1,m]
                                - I~[i1,j2,m] I~*[j1,i2,m]
                                + I~[i2,j2,m] I~*[j1,i1,m]) / (1 + mS dw)

with mS the cavity mode family n_x + n_y and dw the mode-spacing ratio
delta_omega_tilde, and finally a per-realization rescaling to unit sample
variance over the independent entries {i1 > i2, j1 > j2}.  Only those
entries are formed and stored.  The overall physical energy scale is
factored out and never enters.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .errors import DegenerateInputError, FitError
from .grids import same_grid


@dataclass(frozen=True)
class DriveProfile:
    """Transverse profile of the drive beam.

    kind "uniform" is a constant amplitude; kind "plane_wave" tilts the
    drive, g_d(r) = exp(i k_d x) with k_d in inverse oscillator lengths,
    which makes the integrals (and couplings) complex.
    """

    kind: str
    k_d: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "plane_wave"):
            raise ValueError(f"unknown drive profile {self.kind!r}")

    def field_on(self, grid):
        if self.kind == "uniform":
            return np.ones((grid.points_per_axis, grid.points_per_axis))
        phase = np.exp(1j * self.k_d * grid.axis)
        return np.repeat(phase[:, None], grid.points_per_axis, axis=1)


UNIFORM_DRIVE = DriveProfile("uniform")


def plane_wave_drive(k_d):
    return DriveProfile("plane_wave", float(k_d))


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """Overlap integrals I~[i, j, m], symmetric in (i, j).

    entries is (N, N, M+1), real for a uniform drive and complex otherwise;
    family[m] is the cavity mode family n_x + n_y of column m.
    """

    entries: np.ndarray = field(repr=False)
    family: np.ndarray = field(repr=False)
    zeta: float
    cutoff: int
    drive: DriveProfile

    @property
    def n_modes(self):
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Antisymmetrized two-body coupling tensor on N fermionic modes.

    values is the P x P pair block J[(i1, i2), (j1, j2)], P = N(N-1)/2, over
    i1 > i2 and j1 > j2 in pair_indices order; antisymmetry in each index
    pair and Hermitian symmetry generate every other entry.  normalization
    is the scale that has been divided out so far (1.0 for a raw tensor).
    """

    n_modes: int
    values: np.ndarray = field(repr=False)
    delta_omega_tilde: float
    zeta: float
    cutoff: int
    normalization: float = 1.0

    @property
    def is_real(self):
        return not np.iscomplexobj(self.values)


def compute_integrals(trap_modes, cavity_modes, detuning, drive=UNIFORM_DRIVE):
    """Riemann-sum overlap integrals of trap-mode pairs with cavity modes.

    I~[i, j, m] = (1/2) sum_r g_d(r) g_m(r) phi_i(r) phi_j(r) / ratio(r) h^2.

    Both mode sets are tables of 1D factors and only the weight
    W = (h^2 / 2) g_d / ratio is not separable, so for every pair i <= j the sum
    runs one axis at a time: over x by one GEMM against W, then over y by a
    batched matmul against the cavity factors.  All fields must share one grid.
    The result is exactly symmetric in (i, j), and real for a uniform drive.
    """
    grid = trap_modes.grid
    if not (same_grid(grid, cavity_modes.grid) and same_grid(grid, detuning.grid)):
        raise ValueError("trap modes, cavity modes and detuning must share a grid")

    weight = (0.5 * grid.cell_area) * drive.field_on(grid) / detuning.ratio
    a, c = trap_modes.modes, cavity_modes.modes
    nx, ny = trap_modes.quantum_numbers.T
    i, j = np.triu_indices(trap_modes.count)
    # u[p, k, y] = sum_x a[nx_i, x] a[nx_j, x] c[k, x] W[x, y]
    u = (a[nx[i], None] * a[nx[j], None] * c).reshape(-1, grid.points_per_axis)
    u = (u @ weight).reshape(len(i), len(c), -1)
    # v[p, k, l] = sum_y u[p, k, y] a[ny_i, y] a[ny_j, y] c[l, y]
    v = (u * (a[ny[i]] * a[ny[j]])[:, None]) @ c.T
    kx, ky = cavity_modes.labels.T
    entries = np.empty((trap_modes.count,) * 2 + kx.shape, dtype=v.dtype)
    entries[i, j] = entries[j, i] = v[:, kx, ky]
    family, zeta = cavity_modes.family, cavity_modes.zeta
    return IntegralTable(entries, family, zeta, cavity_modes.cutoff, drive)


def compute_coupling_tensor(integrals, delta_omega_tilde, cutoff, normalize=True):
    """Contract an integral table into the normalized coupling tensor.

    cutoff selects how many cavity modes participate; it may be below the
    table's own cutoff (the table is truncated), never above.  Columns are
    weighted by 1 / (1 + family * delta_omega_tilde) and the four-term
    antisymmetrized product is summed over modes.  The returned tensor is
    rescaled to unit sample variance unless normalize is False.
    """
    if delta_omega_tilde <= 0:
        raise ValueError(
            f"delta_omega_tilde must be positive, got {delta_omega_tilde}"
        )
    if cutoff > integrals.cutoff:
        raise ValueError(
            f"tensor cutoff {cutoff} exceeds integral table cutoff "
            f"{integrals.cutoff}"
        )
    n = integrals.n_modes
    table = integrals.entries[:, :, : cutoff + 1]
    weights = 1.0 / (1.0 + integrals.family[: cutoff + 1] * delta_omega_tilde)

    x = table.reshape(n * n, cutoff + 1)
    pair_sum = (x * weights) @ x.conj().T
    # t[i1, j1, j2, i2] = pair_sum[(i1, j1), (j2, i2)]
    t = pair_sum.reshape(n, n, n, n)
    r1, r2 = pair_indices(n)
    a1, a2 = r1[:, None], r2[:, None]
    b1, b2 = r1[None, :], r2[None, :]
    values = (
        t[a1, b1, b2, a2]
        - t[a2, b1, b2, a1]
        - t[a1, b2, b1, a2]
        + t[a2, b2, b1, a1]
    )
    if np.iscomplexobj(values):
        # a table symmetric in (i, j) makes the exchange terms conjugate
        # pairs, so the four-term sum is real even for a complex drive
        # phase; cast when the residual is round-off so the Hamiltonian
        # stays real symmetric
        peak = np.abs(values).max()
        if peak == 0.0 or np.abs(values.imag).max() < 1e-12 * peak:
            values = values.real.copy()
    tensor = CouplingTensor(
        n, values, float(delta_omega_tilde), integrals.zeta, int(cutoff)
    )
    return normalize_couplings(tensor) if normalize else tensor


def pair_indices(n_modes):
    """Ordered-pair index arrays (i1, i2) with i1 > i2, lexicographic."""
    return np.tril_indices(n_modes, -1)


def independent_entries(tensor):
    """The stored pair block J[(i1,i2), (j1,j2)] over {i1 > i2, j1 > j2}.

    These [N(N-1)/2]^2 entries generate all others through antisymmetry and
    Hermitian symmetry, so ensemble statistics are computed on them alone.
    """
    return tensor.values


def coupling_scale(values_block):
    """Sample standard deviation of a block of couplings.

    Complex blocks pool real and imaginary parts, matching the convention
    that a unit-variance complex ensemble has var(Re) + var(Im) = 1.
    """
    if np.iscomplexobj(values_block):
        pooled = np.concatenate(
            [values_block.real.ravel(), values_block.imag.ravel()]
        )
        return float(np.std(pooled, ddof=1))
    return float(np.std(values_block, ddof=1))


def normalize_couplings(tensor):
    """Rescale a tensor so its independent entries have unit sample variance.

    The scale divided out accumulates into the normalization field.  A
    zero-variance tensor cannot be normalized.
    """
    block = tensor.values
    if block.size < 2:
        raise ValueError("need at least 2 independent entries to normalize")
    scale = coupling_scale(block)
    if scale == 0.0 or not math.isfinite(scale):
        raise DegenerateInputError(f"coupling variance is degenerate ({scale})")
    return replace(
        tensor,
        values=tensor.values / scale,
        normalization=tensor.normalization * scale,
    )


def pseudo_voigt_density(x, rho, sigma, xbar):
    """Cauchy/Gaussian mixture sharing one full width at half maximum.

    The Cauchy half-width is gamma = sqrt(2 ln 2) sigma, so both components
    have FWHM 2 sqrt(2 ln 2) sigma; rho interpolates from pure Gaussian
    (rho = 0) to pure Cauchy (rho = 1).
    """
    gamma = math.sqrt(2.0 * math.log(2.0)) * sigma
    d = x - xbar
    cauchy = gamma / (math.pi * (d * d + gamma * gamma))
    gauss = np.exp(-0.5 * (d / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return rho * cauchy + (1.0 - rho) * gauss


def _histogram_for_fit(samples, bin_scale=1.0):
    """Density histogram with Freedman-Diaconis widths, bin count capped.

    Heavy-tailed samples can push the FD bin count into the thousands; in
    that case the range is clipped to the 0.1%..99.9% quantiles.
    """
    edges = np.histogram_bin_edges(samples, bins="fd")
    width = (edges[-1] - edges[0]) / max(len(edges) - 1, 1) / bin_scale
    lo, hi = samples.min(), samples.max()
    if width <= 0 or (hi - lo) / width > 256:
        lo, hi = np.quantile(samples, [0.001, 0.999])
        n_bins = max(int(round(64 * bin_scale)), 8)
    else:
        n_bins = max(int(math.ceil((hi - lo) / width)), 8)
    density, edges = np.histogram(samples, bins=n_bins, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def _fit_once(centers, density, p0):
    try:
        params, _ = scipy.optimize.curve_fit(
            pseudo_voigt_density,
            centers,
            density,
            p0=p0,
            bounds=([0.0, 1e-12, -np.inf], [1.0, np.inf, np.inf]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        resid = float(np.sqrt(np.mean(density**2)))
        raise FitError(
            f"line-shape fit did not converge (residual scale {resid:g}): {exc}"
        ) from exc
    return params


def fit_pseudo_voigt(samples):
    """Fit the sample histogram to the Cauchy/Gaussian mixture density.

    Returns (rho, sigma, xbar, fit_error).  fit_error combines the relative
    RMS residual of the fit with the spread of rho across halved and doubled
    bin widths, so binning sensitivity shows up in the reported error.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 100:
        raise ValueError(f"need at least 100 samples, got {samples.size}")
    if samples.max() == samples.min():
        raise DegenerateInputError("all samples identical, no width to fit")

    q25, q50, q75 = np.quantile(samples, [0.25, 0.5, 0.75])
    sigma0 = max((q75 - q25) / 1.349, 1e-12 * (samples.max() - samples.min()))
    p0 = (0.5, sigma0, q50)

    centers, density = _histogram_for_fit(samples)
    rho, sigma, xbar = _fit_once(centers, density, p0)

    model = pseudo_voigt_density(centers, rho, sigma, xbar)
    rel_resid = float(
        np.sqrt(np.mean((model - density) ** 2)) / max(density.max(), 1e-300)
    )
    rho_spread = 0.0
    for scale in (0.5, 2.0):
        c_alt, d_alt = _histogram_for_fit(samples, bin_scale=scale)
        try:
            rho_alt = _fit_once(c_alt, d_alt, (rho, sigma, xbar))[0]
        except FitError:
            continue
        rho_spread = max(rho_spread, abs(rho_alt - rho))

    return float(rho), float(sigma), float(xbar), rel_resid + rho_spread
