"""Chaos diagnostics: OTOC decay, spectral form factor, level statistics.

Everything here consumes Spectrum objects.  Times are in units of the
inverse coupling scale; all diagnostics are infinite-temperature (beta = 0),
which is the only ensemble the pipeline supports.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExtractionError
from .fock import Spectrum


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing evaluation times, optionally starting at t = 0."""

    times: np.ndarray = field(repr=False)

    @property
    def count(self):
        return len(self.times)


def log_time_grid(start, stop, points_per_decade=200, include_zero=False):
    """Logarithmically spaced time grid from start to stop inclusive."""
    if start <= 0 or stop <= start:
        raise ValueError(f"need 0 < start < stop, got ({start}, {stop})")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    decades = math.log10(stop / start)
    n = max(int(round(points_per_decade * decades)) + 1, 2)
    times = np.geomspace(start, stop, n)
    if include_zero:
        times = np.concatenate([[0.0], times])
    return TimeGrid(times)


@dataclass(frozen=True, eq=False)
class OtocSeries:
    """Out-of-time-order correlator F(t) for one or an averaged ensemble."""

    times: TimeGrid
    values: np.ndarray = field(repr=False)
    mode_i: int = 0
    mode_j: int = 1


@dataclass(frozen=True, eq=False)
class SffSeries:
    """Spectral form factor S(t) with the Hilbert-space dimension."""

    times: TimeGrid
    values: np.ndarray = field(repr=False)
    dimension: int = 0


def compute_otoc(spectrum, times, mode_i=0, mode_j=1):
    """F(t) = tr(W(t) V W(t) V) / D for W = 2 n_i - 1, V = 2 n_j - 1.

    W and V are diagonal signs in the Fock basis, W = 2 P_i - 1 and
    V = 2 P_j - 1, with P_i, P_j the projectors onto n_i = 1 and n_j = 1.
    Expanding the product with W^2 = V^2 = 1 leaves two traces of the block
    K(t) = P_i exp(-iHt) P_j of the propagator between the two occupied
    subspaces:

        F(t) = 1 + (16 / D) (||K K^H||_F^2 - ||K||_F^2),

    at any filling.  In the eigenbasis K = U_i diag(exp(-iEt)) U_j^H, where
    U_i and U_j are the rows of the eigenvector matrix at the states with
    bit i and bit j set, so each time point costs one r x D x r product
    (r = C(N-1, N_p-1) rows, half of D at half filling) plus the r x r Gram
    matrix of K.  Real eigenvectors split K = A - iB with A = U_i cos(Et)
    U_j^T and B = U_i sin(Et) U_j^T, so that ||K||^2 = ||A||^2 + ||B||^2 and
    ||K K^H||^2 = ||A A^T + B B^T||^2 + ||A B^T - B A^T||^2.

    F is real: W and V are Hermitian, so the trace equals its own complex
    conjugate by cyclicity, and the values are returned as a real array.
    The t = 0 entry is set to 1 exactly: (W V)^2 is the identity as an
    operator statement, not a numerical one.
    """
    if spectrum.vectors is None:
        raise ValueError("OTOC needs eigenvectors; diagonalize with keep_vectors")
    n = spectrum.sector.n_modes
    if mode_i == mode_j:
        raise ValueError("butterfly operators must act on distinct modes")
    if not (0 <= mode_i < n and 0 <= mode_j < n):
        raise ValueError(f"mode indices ({mode_i}, {mode_j}) out of range 0..{n-1}")

    states = spectrum.sector.states
    u = spectrum.vectors
    u_i = u[(states >> mode_i) & 1 == 1]
    u_j = u[(states >> mode_j) & 1 == 1]
    energies = spectrum.eigenvalues
    scale = 16.0 / spectrum.dimension

    values = np.empty(times.count)
    for k, t in enumerate(times.times):
        if t == 0.0:
            values[k] = 1.0
            continue
        phase = energies * t
        if np.iscomplexobj(u):
            block = (u_i * np.exp(-1j * phase)) @ u_j.conj().T
            gram = block @ block.conj().T
            quartic = np.vdot(gram, gram).real
            quadratic = np.vdot(block, block).real
        else:
            a = (u_i * np.cos(phase)) @ u_j.T
            b = (u_i * np.sin(phase)) @ u_j.T
            cross = a @ b.T
            gram_re = a @ a.T + b @ b.T
            gram_im = cross - cross.T
            quartic = np.vdot(gram_re, gram_re) + np.vdot(gram_im, gram_im)
            quadratic = np.vdot(a, a) + np.vdot(b, b)
        values[k] = 1.0 + scale * (quartic - quadratic)
    return OtocSeries(times, values, mode_i, mode_j)


def extract_decay_time(series):
    """First time where the averaged Re F(t) crosses 1/e, interpolated.

    The crossing is located between the bracketing grid points by linear
    interpolation; a series that never reaches 1/e (or starts below it)
    raises an ExtractionError reporting how far it got.
    """
    target = math.exp(-1.0)
    x = np.real(series.values)
    t = series.times.times
    below = np.nonzero(x < target)[0]
    if below.size == 0:
        raise ExtractionError(
            f"Re F never crosses 1/e; minimum reached {x.min():g}"
        )
    k = int(below[0])
    if k == 0:
        raise ExtractionError(
            f"Re F starts below 1/e at t={t[0]:g}; grid begins too late"
        )
    frac = (x[k - 1] - target) / (x[k - 1] - x[k])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def compute_sff(spectrum, times):
    """S(t) = |sum_n exp(-i E_n t)|^2 / D^2 on the given grid."""
    energies = spectrum.eigenvalues
    dim = len(energies)
    t = times.times
    z = np.empty(len(t), dtype=complex)
    # 64 time rows at a time bound the phase matrix; rows sum independently,
    # so the blocks change no bit of the result
    for k in range(0, len(t), 64):
        z[k:k + 64] = np.exp(-1j * t[k:k + 64, None] * energies).sum(axis=1)
    values = (z.real**2 + z.imag**2) / dim**2
    return SffSeries(times, values, dim)


def unfold_spectrum(spectrum):
    """Map eigenvalues onto a uniform density spanning (0, pi).

    A degree-9 polynomial fit of the empirical staircase removes the global
    density profile; the unfolded mean spacing is pi/D, which places the
    Heisenberg time 2 pi / spacing at 2D.  Eigenvectors do not survive the
    mapping and are dropped.
    """
    energies = np.sort(spectrum.eigenvalues)
    dim = len(energies)
    if dim < 2:
        raise ValueError("cannot unfold fewer than 2 levels")
    staircase = (np.arange(dim) + 0.5) / dim
    fit = np.polynomial.Polynomial.fit(energies, staircase, min(9, dim - 1))
    mapped = np.sort(math.pi * fit(energies))
    return Spectrum(spectrum.sector, mapped, None)


def unfold_spectrum_linear(spectrum):
    """Rescale eigenvalues by one global factor so bulk spacing is pi/D.

    The factor comes from the mean spacing over the central 80% quantile
    span, which pins the Heisenberg time 2 pi / spacing at 2D for
    every model while leaving the shape of the level density, and hence of
    the form factor, untouched up to the time unit.  Equivalent to plotting
    each model's form factor against time measured in units of its own mean
    level spacing; unlike the polynomial map it preserves density-profile
    differences between models, which carry the model-comparison signal.
    """
    energies = np.sort(spectrum.eigenvalues)
    dim = len(energies)
    if dim < 2:
        raise ValueError("cannot unfold fewer than 2 levels")
    bulk_fraction = 0.8
    edge = (1.0 - bulk_fraction) / 2.0
    lo, hi = np.quantile(energies, [edge, 1.0 - edge])
    spacing = (hi - lo) / (bulk_fraction * (dim - 1))
    if spacing <= 0:
        raise ValueError("degenerate spectrum has no spacing scale")
    return Spectrum(spectrum.sector, energies * (math.pi / dim) / spacing, None)


def dip_time(series):
    """Time of the global minimum of the form factor."""
    return float(series.times.times[int(np.argmin(series.values))])


def plateau_height(series):
    """Mean form-factor value over the last decade of the time grid."""
    t = series.times.times
    return float(np.mean(series.values[t >= t[-1] / 10.0]))


def smooth_sff(series, width_decades):
    """Boxcar-average the form factor over a fixed logarithmic width.

    On the log grid a fixed width in decades is a fixed point count, so this
    is a centered moving average with edge padding.  Zero width returns the
    series unchanged.  Smoothing suppresses realization noise before the
    threshold extractions without moving the dip/ramp/plateau structure for
    widths well below a decade.
    """
    if width_decades <= 0:
        return series
    t = series.times.times
    if len(t) < 3:
        return series
    per_decade = (len(t) - 1) / math.log10(t[-1] / t[0])
    window = int(round(width_decades * per_decade))
    window += 1 - (window % 2)
    if window <= 1:
        return series
    pad = window // 2
    padded = np.pad(series.values, pad, mode="edge")
    smoothed = np.convolve(padded, np.full(window, 1.0 / window), mode="valid")
    return replace(series, values=smoothed)


def _affine_fit(t, s, window, label):
    mask = (t >= window[0]) & (t <= window[1])
    if mask.sum() < 2:
        raise ExtractionError(
            f"{label} window {window} contains {int(mask.sum())} grid points"
        )
    coeffs = np.polyfit(t[mask], s[mask], 1)
    return np.polyval(coeffs, t)


def extract_ramp_and_heisenberg(
    series,
    threshold=0.01,
    ramp_window=None,
    plateau_window=None,
    run_points=3,
):
    """Locate the ramp time and Heisenberg time of an averaged form factor.

    Straight lines are fitted to the ramp window (default: twice the dip
    time up to half the Heisenberg estimate 2D) and the plateau window
    (default: the last 1/20 of the time span, which on a grid reaching
    10 t_H keeps the fit clear of the ramp corner).  Each extracted time
    is the earliest grid
    time, scanning from the dip, where the relative deviation
    |S - fit| / |fit| falls below the threshold and stays there for
    run_points consecutive grid points.  Starting at the dip skips the
    crossing where the initial decay passes through the plateau level on
    its way down; the persistence requirement rejects transversal
    intersections of the curve with the fitted line extrapolated outside
    its window, which touch the threshold for only a point or two, while
    a curve that has genuinely joined the fitted line stays inside.
    """
    t = series.times.times
    s = np.asarray(series.values, dtype=float)
    if t[0] <= 0:
        raise ValueError("form-factor extraction needs strictly positive times")
    if run_points < 1:
        raise ValueError("run_points must be at least 1")

    t_dip = dip_time(series)
    if plateau_window is None:
        plateau_window = (t[-1] / 20.0, t[-1])
    if ramp_window is None:
        if series.dimension < 1:
            raise ValueError("series carries no dimension; pass ramp_window")
        # half the Heisenberg estimate 2D
        ramp_window = (2.0 * t_dip, float(series.dimension))

    fits = {
        "ramp": _affine_fit(t, s, ramp_window, "ramp"),
        "plateau": _affine_fit(t, s, plateau_window, "plateau"),
    }
    start = int(np.argmin(series.values))
    crossings = {}
    for label, fit in fits.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = np.abs(s - fit) / np.abs(fit)
        below = eps[start:] < threshold
        run = min(run_points, below.size)
        ok = np.ones(below.size - run + 1, dtype=bool)
        for k in range(run):
            ok &= below[k : below.size - run + 1 + k]
        hits = np.nonzero(ok)[0]
        if hits.size == 0:
            raise ExtractionError(
                f"{label} deviation never falls below {threshold:g} "
                f"for {run} consecutive points "
                f"(minimum {np.nanmin(eps[start:]):g})"
            )
        crossings[label] = float(t[start + int(hits[0])])
    return crossings["ramp"], crossings["plateau"]


def wigner_surmise_cdf(s):
    """GOE nearest-neighbour spacing CDF, 1 - exp(-pi s^2 / 4)."""
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-math.pi * s**2 / 4.0)


def poisson_cdf(s):
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-s)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance of samples to a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    ref = cdf(x)
    upper = np.abs(np.arange(1, n + 1) / n - ref)
    lower = np.abs(np.arange(0, n) / n - ref)
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True, eq=False)
class SpacingResult:
    """Unit-mean unfolded nearest-neighbour spacings with reference distances."""

    spacings: np.ndarray = field(repr=False)
    bin_centers: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    ks_goe: float = 0.0
    ks_poisson: float = 0.0


def spacing_statistics(spacings):
    """40-bin histogram plus KS distances for an array of normalized spacings."""
    spacings = np.asarray(spacings, dtype=float)
    mean = spacings.mean()
    if mean <= 0:
        raise ValueError("spacings must have positive mean")
    spacings = spacings / mean
    upper = max(4.0, float(spacings.max()))
    density, edges = np.histogram(
        spacings, bins=40, range=(0.0, upper), density=True
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SpacingResult(
        spacings,
        centers,
        density,
        ks_distance(spacings, wigner_surmise_cdf),
        ks_distance(spacings, poisson_cdf),
    )


def unfolded_spacings(spectrum, keep_fraction=0.8):
    """Locally unfolded spacings of the central keep_fraction of the spectrum.

    Exact degeneracies (spacing below 1e-12 of the spectral bandwidth) are
    dropped before unfolding and their count returned, since symmetry
    multiplets would otherwise contaminate the statistics.  Each surviving
    spacing is divided by the moving-average spacing over the 21 levels
    around it (fewer at the ends).
    """
    energies = np.sort(spectrum.eigenvalues)
    dim = len(energies)
    if dim < 50:
        raise ValueError(f"need at least 50 levels, got {dim}")
    if not 0 < keep_fraction <= 1:
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    keep = max(int(round(dim * keep_fraction)), 3)
    start = (dim - keep) // 2
    segment = energies[start : start + keep]
    raw = np.diff(segment)
    bandwidth = energies[-1] - energies[0]
    if bandwidth <= 0:
        raise ValueError("spectrum is fully degenerate")
    degenerate = raw < 1e-12 * bandwidth
    n_degenerate = int(degenerate.sum())
    raw = raw[~degenerate]
    if len(raw) < 2:
        raise ValueError("all spacings in the kept window are degenerate")

    half = 10
    local = np.empty_like(raw)
    for k in range(len(raw)):
        lo = max(k - half, 0)
        hi = min(k + half + 1, len(raw))
        local[k] = raw[lo:hi].mean()
    spacings = raw / local
    return spacings / spacings.mean(), n_degenerate


def fit_power_law(x, y):
    """Least-squares exponent alpha of y = c * x^(-alpha) on log-log axes.

    Returns (alpha, stderr) with stderr the standard error of the slope; an
    exact fit returns stderr = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("power-law fit needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    residuals = ly - design @ coef
    dof = len(x) - 2
    spread = np.sum((lx - lx.mean()) ** 2)
    if dof > 0 and spread > 0:
        stderr = math.sqrt(float(np.sum(residuals**2)) / dof / spread)
    else:
        stderr = 0.0
    return -float(coef[1]), stderr
