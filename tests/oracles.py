"""Independent reference implementations backing the test suite.

Everything here is deliberately written with different algorithms than the
package: adaptive quadrature instead of grid Riemann sums, symbolic
bit-by-bit operator application instead of cached contraction plans, dense
matrix exponentials instead of eigenbasis phase tricks.  Agreement between
the two paths is then meaningful evidence rather than a tautology.
"""

import hashlib
import itertools
import math
import struct

import numpy as np
from scipy import integrate, linalg, special


# ---------------------------------------------------------------------------
# harmonic-oscillator eigenfunctions (closed form, unit oscillator length)

def harmonic_mode_1d(n, x):
    """phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) via scipy."""
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return special.eval_hermite(n, x) * np.exp(-x * x / 2.0) / norm


def trap_mode_2d(nx, ny, x, y):
    return harmonic_mode_1d(nx, x)[:, None] * harmonic_mode_1d(ny, y)[None, :]


def cavity_mode_1d(n, x, scale):
    """Same family stretched to oscillator length `scale` (unit L2 norm)."""
    return harmonic_mode_1d(n, np.asarray(x) / scale) / math.sqrt(scale)


def overlap_integral(n1, n2, m_pair, zeta, lim=12.0):
    """(1/2) * int phi_{n1} phi_{n2} g_m  d^2r by adaptive 1D quadrature.

    Valid for an undisordered medium and a uniform drive, where the 2D
    integral factorizes into x and y pieces.  n1, n2, m_pair are (nx, ny)
    tuples; the third mode lives at oscillator length `zeta`.
    """
    def axis_factor(a, b, m):
        val, _ = integrate.quad(
            lambda u: harmonic_mode_1d(a, u) * harmonic_mode_1d(b, u)
            * cavity_mode_1d(m, u, zeta),
            -lim, lim, limit=200,
        )
        return val

    fx = axis_factor(n1[0], n2[0], m_pair[0])
    fy = axis_factor(n1[1], n2[1], m_pair[1])
    return 0.5 * fx * fy


def cantor_pair(n_x, n_y):
    """Map the index pair (n_x, n_y) to a unique nonnegative integer."""
    s = n_x + n_y
    return s * (s + 1) // 2 + n_y


def cavity_mode(m, zeta, grid):
    """Cavity mode g_m built on its own from a Hermite table of its orders.

    The per-mode construction that cavity_mode_set batches over all modes:
    the product of 1D Hermite-Gauss functions of scale zeta with indices
    (n_x, n_y) = cantor_unpair(m).
    """
    from cavsyk.grids import cantor_unpair, hermite_functions

    nx, ny = cantor_unpair(m)
    table = hermite_functions(max(nx, ny), grid.axis / zeta)
    return np.outer(table[nx], table[ny]) / zeta


def overlap_integrals(trap, cavity, detuning, drive):
    """(N, N, M+1) integral table by a 2D Riemann sum per cavity mode.

    Each trap and cavity mode is formed as its full 2D grid array (np.outer
    of the stored trap factors; cavity_mode for the cavity), and every
    column m is one weighted sum over all grid points per trap-mode pair,
    with no axis-by-axis factorization.
    """
    phi = np.stack([
        np.outer(trap.modes[nx], trap.modes[ny]).ravel()
        for nx, ny in trap.quantum_numbers
    ])
    grid = trap.grid
    weight = (0.5 * grid.cell_area) * drive.field_on(grid) / detuning.ratio
    w_flat = weight.ravel()
    entries = np.empty((trap.count, trap.count, cavity.cutoff + 1), weight.dtype)
    for m in range(cavity.cutoff + 1):
        b = cavity_mode(m, cavity.zeta, grid).ravel() * w_flat
        entries[:, :, m] = (phi * b) @ phi.T
    return entries


# ---------------------------------------------------------------------------
# the full four-index coupling tensor

def coupling_tensor(table, delta_omega_tilde, cutoff):
    """Raw (N,N,N,N) tensor Jt[i1,i2,j1,j2] from an integral table.

    Each of the four terms of the antisymmetrized mode sum is one explicit
    einsum over the weighted cavity modes, with no pair-block gather and no
    transposes, so every index combination (repeated ones included) is
    formed directly from its definition.
    """
    e = table.entries[:, :, : cutoff + 1]
    c = e.conj()
    w = 1.0 / (1.0 + table.family[: cutoff + 1] * delta_omega_tilde)
    return (
        np.einsum("m,acm,dbm->abcd", w, e, c)
        - np.einsum("m,bcm,dam->abcd", w, e, c)
        - np.einsum("m,adm,cbm->abcd", w, e, c)
        + np.einsum("m,bdm,cam->abcd", w, e, c)
    )


def pair_block_of(full):
    """Entries of a full tensor on {i1 > i2, j1 > j2}, tril pair order."""
    r1, r2 = np.tril_indices(full.shape[0], -1)
    return full[r1[:, None], r2[:, None], r1[None, :], r2[None, :]]


def expand_pair_block(block, n_modes):
    """Full antisymmetrized (N,N,N,N) tensor from its pair block."""
    r1, r2 = np.tril_indices(n_modes, -1)
    a1, a2 = r1[:, None], r2[:, None]
    b1, b2 = r1[None, :], r2[None, :]
    full = np.zeros((n_modes,) * 4, dtype=block.dtype)
    full[a1, a2, b1, b2] = block
    full[a2, a1, b1, b2] = -block
    full[a1, a2, b2, b1] = -block
    full[a2, a1, b2, b1] = block
    return full


# ---------------------------------------------------------------------------
# symbolic fermionic operator algebra on bitmask states

def apply_annihilate(state, mode):
    """c_mode |state> -> (sign, state') or None when annihilated."""
    if not state & (1 << mode):
        return None
    sign = -1 if bin(state & ((1 << mode) - 1)).count("1") % 2 else 1
    return sign, state & ~(1 << mode)


def apply_create(state, mode):
    if state & (1 << mode):
        return None
    sign = -1 if bin(state & ((1 << mode) - 1)).count("1") % 2 else 1
    return sign, state | (1 << mode)


def quartic_term_action(state, i1, i2, j1, j2):
    """c+_{i1} c+_{i2} c_{j1} c_{j2} |state> -> (sign, state') or None."""
    acc = 1
    out = state
    for op, mode in ((apply_annihilate, j2), (apply_annihilate, j1),
                     (apply_create, i2), (apply_create, i1)):
        step = op(out, mode)
        if step is None:
            return None
        sign, out = step
        acc *= sign
    return acc, out


def brute_force_hamiltonian(values, states):
    """Dense matrix of sum_{i1 i2 j1 j2} T c+ c+ c c over explicit states.

    `values` is the full (N,N,N,N) tensor including all symmetry partners,
    as expand_pair_block gives it; every index 4-tuple is applied
    literally, one at a time.
    """
    n = values.shape[0]
    index = {s: k for k, s in enumerate(states)}
    dim = len(states)
    out = np.zeros((dim, dim), dtype=complex)
    for col, state in enumerate(states):
        for i1 in range(n):
            for i2 in range(n):
                for j1 in range(n):
                    for j2 in range(n):
                        coeff = values[i1, i2, j1, j2]
                        if coeff == 0:
                            continue
                        hit = quartic_term_action(state, i1, i2, j1, j2)
                        if hit is None:
                            continue
                        sign, final = hit
                        out[index[final], col] += sign * coeff
    return out


def full_space_hamiltonian(values):
    """Same operator applied on all 2^N bitmasks (no sector restriction)."""
    n = values.shape[0]
    return brute_force_hamiltonian(values, list(range(1 << n)))


def pair_rank(i1, i2):
    """Position of the pair (i1, i2), i1 > i2, in the tril pair ordering."""
    return i1 * (i1 - 1) // 2 + i2


def parity_below(mask, j):
    return (mask & ((1 << j) - 1)).bit_count() & 1


def contraction_plan(states, n_modes):
    """(source, target, pair, pair, sign) arrays by a loop over every state.

    For each source row, each annihilated pair j2 < j1 of its occupied modes
    and each created pair i2 < i1 of the modes then empty, in that nesting
    and in itertools.combinations order, one entry of
    4 T[(i1,i2),(j1,j2)] c+_i1 c+_i2 c_j1 c_j2 with its fermionic sign.
    """
    row_of = {int(s): row for row, s in enumerate(states)}
    sources, targets, p_idx, q_idx, signs = [], [], [], [], []
    for row, state in enumerate(states):
        s = int(state)
        occupied = [j for j in range(n_modes) if s >> j & 1]
        for j2, j1 in itertools.combinations(occupied, 2):
            stripped = s & ~(1 << j1) & ~(1 << j2)
            sign_q = (parity_below(s, j1) + parity_below(s, j2)) & 1
            empty = [i for i in range(n_modes) if not stripped >> i & 1]
            for i2, i1 in itertools.combinations(empty, 2):
                sign_p = (
                    parity_below(stripped, i1) + parity_below(stripped, i2)
                ) & 1
                sources.append(row)
                targets.append(row_of[stripped | (1 << i1) | (1 << i2)])
                p_idx.append(pair_rank(i1, i2))
                q_idx.append(pair_rank(j1, j2))
                signs.append(-1.0 if (sign_q + sign_p) & 1 else 1.0)
    return (
        np.array(sources, dtype=np.int32),
        np.array(targets, dtype=np.int32),
        np.array(p_idx, dtype=np.int32),
        np.array(q_idx, dtype=np.int32),
        np.array(signs),
    )


# ---------------------------------------------------------------------------
# brute-force propagator dynamics

def propagator_otoc(matrix, w_diag, v_diag, times):
    """F(t) = tr(W(t) V W(t) V)/D with W(t) from dense expm, no eigenbasis."""
    h = np.asarray(matrix, dtype=complex)
    dim = h.shape[0]
    w = np.diag(w_diag.astype(complex))
    v = np.diag(v_diag.astype(complex))
    out = np.empty(len(times), dtype=complex)
    for k, t in enumerate(times):
        u = linalg.expm(-1j * h * t)
        w_t = u.conj().T @ w @ u
        out[k] = np.trace(w_t @ v @ w_t @ v) / dim
    return out


def direct_sff(eigenvalues, times):
    d = len(eigenvalues)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        z = np.sum(np.exp(-1j * np.asarray(eigenvalues) * t))
        out[k] = (z * z.conjugate()).real / d**2
    return out


# ---------------------------------------------------------------------------
# random-matrix reference ensembles and analytic laws

def goe_matrix(dim, rng):
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2.0


def wigner_surmise_cdf(s):
    return 1.0 - np.exp(-np.pi * np.asarray(s) ** 2 / 4.0)


def poisson_cdf(s):
    return 1.0 - np.exp(-np.asarray(s))


def truncated_cauchy_cdf(x, gamma, bound):
    x = np.clip(np.asarray(x, dtype=float), -bound, bound)
    top = np.arctan(x / gamma) + math.atan(bound / gamma)
    return top / (2.0 * math.atan(bound / gamma))


# closed form for gamma=0.2, mass 0.975: 0.2*tan(0.4875*pi)
CAUCHY_BOUND_02_0975 = 0.2 * math.tan(0.4875 * math.pi)


def sample_voigt_mixture(rho, sigma, center, count, rng):
    """Draws from the Cauchy/Gaussian mixture sharing one full width."""
    gamma = math.sqrt(2.0 * math.log(2.0)) * sigma
    pick = rng.random(count) < rho
    cauchy = center + gamma * rng.standard_cauchy(count)
    normal = rng.normal(center, sigma, count)
    return np.where(pick, cauchy, normal)


# ---------------------------------------------------------------------------
# seed derivation recomputed from its documented definition

def split_seed_reference(master, index):
    payload = struct.pack("<QQ", master, index)
    digest = hashlib.sha256(payload).digest()
    return struct.unpack("<Q", digest[:8])[0]


# regression anchor: split_seed(0, 0) must never drift from this literal
SPLIT_SEED_0_0 = 15392584411371816759


def synthetic_sff(times, dim, bump_scale):
    """Early Gaussian bump, exact linear ramp, exact plateau 1/dim.

    Kinks sit where the bump dies (near `bump_scale`) and at t = 2*dim.
    """
    t = np.asarray(times, dtype=float)
    ramp = np.minimum(t / (2.0 * dim), 1.0) / dim
    bump = np.exp(-((t / bump_scale) ** 2))
    return bump + ramp
