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

import math
from dataclasses import dataclass, field
from itertools import combinations

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
    lookup: np.ndarray = field(repr=False)

    @property
    def dimension(self):
        return len(self.states)

    def index_of(self, mask):
        row = int(self.lookup[mask])
        if row < 0:
            raise KeyError(f"bitmask {mask:b} is not in the sector")
        return row


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
    """List the fixed-filling sector in increasing bitmask order.

    The lookup table maps any n_modes-bit mask to its row, or -1 when the
    mask has the wrong particle number.
    """
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
    masks = sorted(
        sum(1 << p for p in combo)
        for combo in combinations(range(n_modes), n_particles)
    )
    states = np.array(masks, dtype=np.int64)
    lookup = np.full(1 << n_modes, -1, dtype=np.int32)
    lookup[states] = np.arange(len(states), dtype=np.int32)
    return FockSector(n_modes, n_particles, states, lookup)


def _pair_rank(i1, i2):
    # position of (i1, i2), i1 > i2, in the tril pair ordering
    return i1 * (i1 - 1) // 2 + i2


def _parity_below(mask, j):
    return (mask & ((1 << j) - 1)).bit_count() & 1


_PLAN_CACHE = {}


def _contraction_plan(sector):
    """Static (source, target, pair, pair, sign) arrays for the contraction.

    Independent of tensor values, so it is computed once per (N, N_p) and
    reused across realizations.
    """
    key = (sector.n_modes, sector.n_particles)
    if key in _PLAN_CACHE:
        return _PLAN_CACHE[key]

    n = sector.n_modes
    sources, targets, p_idx, q_idx, signs = [], [], [], [], []
    for row, state in enumerate(sector.states):
        s = int(state)
        occupied = [j for j in range(n) if s >> j & 1]
        for j2, j1 in combinations(occupied, 2):
            stripped = s & ~(1 << j1) & ~(1 << j2)
            sign_q = (_parity_below(s, j1) + _parity_below(s, j2)) & 1
            q = _pair_rank(j1, j2)
            empty = [i for i in range(n) if not stripped >> i & 1]
            for i2, i1 in combinations(empty, 2):
                sign_p = (
                    _parity_below(stripped, i1) + _parity_below(stripped, i2)
                ) & 1
                target = stripped | (1 << i1) | (1 << i2)
                sources.append(row)
                targets.append(sector.index_of(target))
                p_idx.append(_pair_rank(i1, i2))
                q_idx.append(q)
                signs.append(-1.0 if (sign_q + sign_p) & 1 else 1.0)

    plan = (
        np.array(sources, dtype=np.int32),
        np.array(targets, dtype=np.int32),
        np.array(p_idx, dtype=np.int32),
        np.array(q_idx, dtype=np.int32),
        np.array(signs),
    )
    _PLAN_CACHE[key] = plan
    return plan


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
    sources, targets, p_idx, q_idx, signs = _contraction_plan(sector)
    block = tensor.values
    dim = sector.dimension
    if len(sources) == 0:
        dtype = complex if np.iscomplexobj(block) else float
        return ManyBodyMatrix(sector, np.zeros((dim, dim), dtype=dtype),
                              source_model, seed)
    values = 4.0 * signs * block[p_idx, q_idx]
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
