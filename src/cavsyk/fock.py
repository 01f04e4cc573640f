"""Fixed-filling Fock sectors, many-body matrices, and reference samplers.

States are occupation bitmasks (bit j set = mode j occupied).  Operators act
with the sign convention that mode j picks up (-1)^(number of occupied modes
with index below j), so matrix elements match a symbolic application of the
anticommutation algebra.

Any coupling tensor with the pair antisymmetry and Hermitian pair symmetry
can be contracted into the quartic Hamiltonian

    H = sum_{i1 i2 j1 j2} T[i1,i2,j1,j2] cdag_i1 cdag_i2 c_j1 c_j2
      = 4 sum_{i1>i2, j1>j2} T[i1,i2,j1,j2] cdag_i1 cdag_i2 c_j1 c_j2,

including the reference tensors with Gaussian or truncated-Cauchy entries.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .couplings import CouplingTensor
from .errors import CapacityError, EigensolverError

# dense full-spectrum solves stay cheap up to binomial(20, 10) ~ 184k only in
# principle; the guard reflects what a desk machine diagonalizes in practice
MAX_MODES = 20


@dataclass(frozen=True, eq=False)
class FockSector:
    """All occupation bitmasks of n_particles fermions in n_modes modes."""

    n_modes: int
    n_particles: int
    states: np.ndarray = field(repr=False)

    @property
    def dimension(self):
        return len(self.states)


@dataclass(frozen=True, eq=False)
class ManyBodyMatrix:
    """Dense Hermitian Hamiltonian over a Fock sector."""

    sector: FockSector
    matrix: np.ndarray = field(repr=False)
    source_model: str = "effective"
    seed: int | None = None

    @property
    def dimension(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and optional eigenvectors of a ManyBodyMatrix."""

    sector: FockSector
    eigenvalues: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False, default=None)

    @property
    def dimension(self):
        return len(self.eigenvalues)


def enumerate_sector(n_modes, n_particles):
    """List the fixed-filling sector in increasing bitmask order."""
    n_modes = int(n_modes)
    n_particles = int(n_particles)
    if not 0 <= n_particles <= n_modes:
        raise ValueError(
            f"cannot place {n_particles} fermions in {n_modes} modes"
        )
    if n_modes > MAX_MODES:
        raise CapacityError(
            f"{n_modes} modes exceeds the dense-solver guard of {MAX_MODES}"
        )
    masks = np.arange(1 << n_modes, dtype=np.int64)
    states = masks[np.bitwise_count(masks) == n_particles]
    return FockSector(n_modes, n_particles, states)


def _parity_below(masks, modes):
    # number of occupied modes below each mode, mod 2
    return np.bitwise_count(masks & ((1 << modes) - 1)) & 1


@functools.cache
def _contraction_plan(n_modes, n_particles):
    """Static (source, target, pair, pair, sign) arrays for the contraction.

    Entries run over source rows, then over the annihilated pairs j2 < j1
    of the occupied modes, then over the created pairs i2 < i1 of the modes
    left empty, each pair list in lexicographic order; a pair is numbered
    by its tril rank i1 (i1 - 1) / 2 + i2.  Independent of tensor values,
    so it is built once per (N, N_p) and reused across realizations.
    """
    states = enumerate_sector(n_modes, n_particles).states
    dim = len(states)
    modes = np.arange(n_modes)
    column = states[:, None]
    occupied = np.nonzero((column >> modes) & 1)[1].reshape(dim, -1)
    a2, a1 = np.triu_indices(n_particles, 1)
    j2, j1 = occupied[:, a2], occupied[:, a1]
    stripped = column & ~(1 << j1) & ~(1 << j2)
    sign_q = _parity_below(column, j1) + _parity_below(column, j2)
    q = j1 * (j1 - 1) // 2 + j2

    c2, c1 = np.triu_indices(n_modes - n_particles + 2, 1)
    shape = (dim, len(a1), len(c1))
    sources = np.empty(shape, dtype=np.int32)
    targets = np.empty(shape, dtype=np.int32)
    p_idx = np.empty(shape, dtype=np.int32)
    q_idx = np.empty(shape, dtype=np.int32)
    signs = np.empty(shape)
    sources[...] = np.arange(dim)[:, None, None]
    # one annihilated pair at a time keeps the temporaries at (D, C_p)
    for slot in range(len(a1)):
        rest = stripped[:, slot, None]
        empty = np.nonzero((rest >> modes) & 1 == 0)[1].reshape(dim, -1)
        i2, i1 = empty[:, c2], empty[:, c1]
        sign = (
            sign_q[:, slot, None] + _parity_below(rest, i1) + _parity_below(rest, i2)
        )
        targets[:, slot] = np.searchsorted(states, rest | (1 << i1) | (1 << i2))
        p_idx[:, slot] = i1 * (i1 - 1) // 2 + i2
        q_idx[:, slot] = q[:, slot, None]
        signs[:, slot] = np.where(sign & 1, -1.0, 1.0)
    return tuple(a.ravel() for a in (sources, targets, p_idx, q_idx, signs))


def build_effective_hamiltonian(tensor, sector, source_model="effective", seed=None):
    """Contract a coupling tensor into the dense sector Hamiltonian.

    Works for any tensor with the standard pair symmetries, so the sampled
    reference tensors reuse it; source_model just labels the result.
    """
    if tensor.n_modes != sector.n_modes:
        raise ValueError(
            f"tensor has {tensor.n_modes} modes but sector has "
            f"{sector.n_modes}"
        )
    sources, targets, p_idx, q_idx, signs = _contraction_plan(
        sector.n_modes, sector.n_particles
    )
    dim = sector.dimension
    values = 4.0 * signs * tensor.values[p_idx, q_idx]
    # element <target| H |source>; coo sums moves that coincide
    matrix = scipy.sparse.coo_matrix(
        (values, (targets, sources)), shape=(dim, dim)
    ).toarray()
    return ManyBodyMatrix(sector, matrix, source_model, seed)


def _reference_tensor(block, n_modes):
    return CouplingTensor(n_modes, block, math.nan, math.nan, -1, 1.0)


def sample_syk_gaussian(n_modes, variant="complex", seed=0):
    """Random all-to-all two-body tensor with Gaussian entries.

    variant "complex": pair-diagonal entries (i1=j1, i2=j2) are real with
    unit variance; all other independent entries have real and imaginary
    parts of variance 1/2, with Hermitian symmetry across the pair indices.
    variant "real": every independent entry is real with unit variance.
    The cavity-specific metadata of the returned tensor (delta_omega_tilde,
    zeta, cutoff) is not meaningful and set to NaN / -1.
    """
    n_modes = int(n_modes)
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    rng = np.random.default_rng(int(seed))
    p = n_modes * (n_modes - 1) // 2

    if variant == "real":
        draw = rng.normal(0.0, 1.0, (p, p))
        block = np.triu(draw) + np.triu(draw, 1).T
    elif variant == "complex":
        re = rng.normal(0.0, 1.0 / math.sqrt(2.0), (p, p))
        im = rng.normal(0.0, 1.0 / math.sqrt(2.0), (p, p))
        diag = rng.normal(0.0, 1.0, p)
        upper = np.triu(re, 1) + 1j * np.triu(im, 1)
        block = upper + upper.conj().T + np.diag(diag + 0j)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _reference_tensor(block, n_modes)


def truncated_cauchy_bound(gamma, mass_inside):
    """Truncation point a with a fraction mass_inside of the Cauchy weight."""
    return gamma * math.tan(mass_inside * math.pi / 2.0)


def sample_syk_cauchy(n_modes, gamma, mass_inside=0.975, seed=0):
    """Reference tensor with i.i.d. truncated-Cauchy independent entries.

    Entries are drawn by inverse-CDF sampling from the Cauchy density of
    half-width gamma restricted to [-a, a], a = gamma tan(mass_inside pi/2),
    and assembled with the same symmetry as the real Gaussian variant.
    """
    n_modes = int(n_modes)
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 < mass_inside < 1.0:
        raise ValueError(
            f"mass_inside must lie in (0, 1), got {mass_inside}"
        )
    bound = truncated_cauchy_bound(gamma, mass_inside)
    rng = np.random.default_rng(int(seed))
    p = n_modes * (n_modes - 1) // 2
    u = rng.random((p, p))
    draw = gamma * np.tan((2.0 * u - 1.0) * math.atan(bound / gamma))
    block = np.triu(draw) + np.triu(draw, 1).T
    return _reference_tensor(block, n_modes)


def diagonalize(matrix, keep_vectors=False):
    """Full dense eigensolve of a many-body matrix, eigenvalues ascending."""
    try:
        if keep_vectors:
            eigenvalues, vectors = scipy.linalg.eigh(matrix.matrix)
        else:
            eigenvalues = scipy.linalg.eigh(matrix.matrix, eigvals_only=True)
            vectors = None
    except scipy.linalg.LinAlgError as exc:
        norm = float(np.abs(matrix.matrix).max())
        raise EigensolverError(
            f"eigensolve failed for {matrix.source_model} matrix of dimension "
            f"{matrix.dimension} (max entry {norm:g}): {exc}"
        ) from exc
    return Spectrum(matrix.sector, eigenvalues, vectors)
