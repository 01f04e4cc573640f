"""Fock sectors, quartic Hamiltonians, and the reference tensor samplers."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import cavsyk as cs
from cavsyk import couplings as cp
from cavsyk import fock
from cavsyk.errors import CapacityError, EigensolverError

import oracles


@pytest.fixture(scope="module")
def sector63():
    return fock.enumerate_sector(6, 3)


@pytest.fixture(scope="module")
def effective_tensor_n6():
    grid = cs.make_grid(10.0, 200)
    trap = cs.solve_trap_modes(grid, 6)
    cavity = cs.cavity_mode_set(12, 1.0, grid)
    ratio = cs.detuning_ratio(cs.generate_speckle(grid, 17.0, seed=11))
    table = cp.compute_integrals(trap, cavity, ratio)
    return cp.compute_coupling_tensor(table, 0.1, 12)


def test_sector_enumeration(sector63):
    assert sector63.dimension == math.comb(6, 3)
    expected = sorted(sum(1 << p for p in c) for c in combinations(range(6), 3))
    assert sector63.states.dtype == np.int64
    assert sector63.states.tolist() == expected


def test_sector_edge_fillings():
    empty = fock.enumerate_sector(5, 0)
    full = fock.enumerate_sector(5, 5)
    assert empty.dimension == 1 and empty.states[0] == 0
    assert full.dimension == 1 and full.states[0] == 0b11111


def test_sector_validation():
    with pytest.raises(ValueError):
        fock.enumerate_sector(4, 5)
    with pytest.raises(ValueError):
        fock.enumerate_sector(4, -1)
    with pytest.raises(CapacityError):
        fock.enumerate_sector(fock.MAX_MODES + 1, 2)


def test_build_rejects_mode_mismatch(sector63):
    tensor = fock.sample_syk_gaussian(8, "real", seed=3)
    with pytest.raises(ValueError):
        fock.build_effective_hamiltonian(tensor, sector63)


@pytest.mark.parametrize(
    "n_modes,filling",
    [(n, k) for n in range(2, 11) for k in range(n + 1)] + [(12, 6)],
)
def test_contraction_plan_matches_loop_oracle(n_modes, filling):
    sector = fock.enumerate_sector(n_modes, filling)
    plan = fock._contraction_plan(n_modes, filling)
    expected = oracles.contraction_plan(sector.states, n_modes)
    for got, want in zip(plan, expected, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# matrix elements against the symbolic operator oracle.  The package sums
# the four symmetry partners as 4*T while the oracle accumulates them one
# at a time, so agreement is only up to addition round-off, a few ulp
def _oracle_gap(tensor, sector):
    built = fock.build_effective_hamiltonian(tensor, sector).matrix
    full = oracles.expand_pair_block(tensor.values, tensor.n_modes)
    direct = oracles.brute_force_hamiltonian(full, sector.states)
    scale = max(np.abs(direct).max(), 1e-300)
    return np.abs(built - direct).max() / scale


@pytest.mark.parametrize("n_modes,filling", [(4, 2), (5, 2), (6, 3), (6, 2)])
def test_gaussian_real_matches_symbolic_oracle(n_modes, filling):
    tensor = fock.sample_syk_gaussian(n_modes, "real", seed=n_modes)
    sector = fock.enumerate_sector(n_modes, filling)
    assert _oracle_gap(tensor, sector) < 1e-14


@pytest.mark.parametrize("n_modes,filling", [(4, 2), (6, 3)])
def test_gaussian_complex_matches_symbolic_oracle(n_modes, filling):
    tensor = fock.sample_syk_gaussian(n_modes, "complex", seed=2 * n_modes)
    sector = fock.enumerate_sector(n_modes, filling)
    assert _oracle_gap(tensor, sector) < 1e-14


def test_cauchy_matches_symbolic_oracle():
    tensor = fock.sample_syk_cauchy(6, gamma=0.2, seed=9)
    assert _oracle_gap(tensor, fock.enumerate_sector(6, 3)) < 1e-14


def test_effective_tensor_matches_symbolic_oracle(effective_tensor_n6, sector63):
    assert _oracle_gap(effective_tensor_n6, sector63) < 1e-14


def test_full_space_splits_into_filling_blocks():
    # applying the operator on all 2^N bitmasks must reproduce every
    # fixed-filling build and vanish between different fillings
    n = 6
    tensor = fock.sample_syk_gaussian(n, "real", seed=21)
    full = oracles.full_space_hamiltonian(
        oracles.expand_pair_block(tensor.values, n)
    )
    pop = np.array([int(s).bit_count() for s in range(1 << n)])
    for filling in range(n + 1):
        inside = np.nonzero(pop == filling)[0]
        outside = np.nonzero(pop != filling)[0]
        assert np.abs(full[np.ix_(outside, inside)]).max() == 0.0
        sector = fock.enumerate_sector(n, filling)
        block = full[np.ix_(inside, inside)]
        built = fock.build_effective_hamiltonian(tensor, sector).matrix
        scale = max(np.abs(built).max(), 1.0)
        assert np.abs(block - built).max() < 1e-14 * scale


def _pair_diag_sum(tensor):
    # the pair-block diagonal holds T[i1, i2, i1, i2] over i1 > i2
    return complex(np.trace(tensor.values))


@pytest.mark.parametrize("filling", [0, 1, 2, 3, 4, 5, 6])
def test_trace_counts_occupied_pairs(filling):
    # the normal ordering c+ c+ c c puts -T[i1,i2,i1,i2] n_i1 n_i2 on the
    # diagonal (moving c_j1 through c+_j2 costs the sign), each occupied
    # pair contributing on binomial(N-2, k-2) states; an independent count
    # of what the contraction must produce
    n = 6
    tensor = fock.sample_syk_gaussian(n, "complex", seed=5)
    sector = fock.enumerate_sector(n, filling)
    h = fock.build_effective_hamiltonian(tensor, sector).matrix
    if filling < 2:
        assert np.abs(h).max() == 0.0
        return
    expected = -4.0 * math.comb(n - 2, filling - 2) * _pair_diag_sum(tensor)
    trace = complex(np.trace(h))
    assert abs(trace - expected) < 1e-12 * max(abs(expected), 1.0)
    assert abs(trace.imag) < 1e-12


def test_hermiticity_and_reality(effective_tensor_n6, sector63):
    real = fock.build_effective_hamiltonian(
        fock.sample_syk_gaussian(6, "real", seed=1), sector63
    ).matrix
    assert not np.iscomplexobj(real)
    assert np.abs(real - real.T).max() == 0.0

    cplx = fock.build_effective_hamiltonian(
        fock.sample_syk_gaussian(6, "complex", seed=1), sector63
    ).matrix
    assert np.iscomplexobj(cplx)
    assert np.abs(cplx.imag).max() > 0.0
    assert np.abs(cplx - cplx.conj().T).max() == 0.0

    eff = fock.build_effective_hamiltonian(effective_tensor_n6, sector63).matrix
    assert not np.iscomplexobj(eff)
    assert np.abs(eff - eff.T).max() < 1e-12 * np.abs(eff).max()


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=25, deadline=None)
def test_pair_rank_matches_tril_ordering(n):
    r1, r2 = cp.pair_indices(n)
    for rank, (i1, i2) in enumerate(zip(r1, r2)):
        assert oracles.pair_rank(int(i1), int(i2)) == rank


# ---------------------------------------------------------------------------
# reference sampler statistics


def _raw_blocks(variant, seeds, n=20, **kw):
    out = []
    for seed in seeds:
        if variant == "cauchy":
            tensor = fock.sample_syk_cauchy(n, seed=seed, **kw)
        else:
            tensor = fock.sample_syk_gaussian(n, variant, seed=seed, **kw)
        out.append(tensor.values)
    return out


def test_real_sampler_statistics():
    blocks = _raw_blocks("real", range(3))
    pooled = np.concatenate([b.ravel() for b in blocks])
    assert pooled.size >= 1e5
    assert abs(pooled.std(ddof=1) - 1.0) < 0.01
    assert abs(pooled.mean()) < 0.01
    for b in blocks:
        assert np.array_equal(b, b.T)  # real symmetric pair block


def test_complex_sampler_statistics():
    blocks = _raw_blocks("complex", range(6))
    off = np.concatenate(
        [b[np.triu_indices_from(b, 1)] for b in blocks]
    )
    diag = np.concatenate([np.diag(b) for b in blocks])
    assert off.size >= 1e5
    assert abs(off.real.std(ddof=1) - math.sqrt(0.5)) < 0.01
    assert abs(off.imag.std(ddof=1) - math.sqrt(0.5)) < 0.01
    assert abs((np.abs(off) ** 2).mean() - 1.0) < 0.02
    assert np.abs(diag.imag).max() == 0.0
    assert abs(diag.real.std(ddof=1) - 1.0) < 0.05
    for b in blocks:
        assert np.array_equal(b, b.conj().T)  # Hermitian pair block


def test_cauchy_sampler_statistics():
    from scipy import stats

    gamma, mass = 0.2, 0.975
    bound = fock.truncated_cauchy_bound(gamma, mass)
    assert abs(bound - oracles.CAUCHY_BOUND_02_0975) < 1e-15 * bound
    blocks = _raw_blocks("cauchy", range(3), gamma=gamma, mass_inside=mass)
    pooled = np.concatenate([b.ravel() for b in blocks])
    assert pooled.size >= 1e5
    assert np.abs(pooled).max() <= bound
    ks = stats.kstest(
        pooled, lambda x: oracles.truncated_cauchy_cdf(x, gamma, bound)
    ).statistic
    assert ks < 0.01


def test_sampler_determinism():
    a = fock.sample_syk_gaussian(8, "real", seed=42)
    b = fock.sample_syk_gaussian(8, "real", seed=42)
    c = fock.sample_syk_gaussian(8, "real", seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sampler_validation():
    with pytest.raises(ValueError):
        fock.sample_syk_gaussian(1, "real")
    with pytest.raises(ValueError):
        fock.sample_syk_gaussian(6, "quaternionic")
    with pytest.raises(ValueError):
        fock.sample_syk_cauchy(6, gamma=-0.2)
    with pytest.raises(ValueError):
        fock.sample_syk_cauchy(6, gamma=0.2, mass_inside=1.0)


def test_sampled_tensors_have_pair_symmetries():
    for tensor in (
        fock.sample_syk_gaussian(6, "real", seed=7),
        fock.sample_syk_gaussian(6, "complex", seed=7),
        fock.sample_syk_cauchy(6, gamma=0.2, seed=7),
    ):
        v = oracles.expand_pair_block(tensor.values, tensor.n_modes)
        peak = np.abs(v).max()
        assert np.abs(v + v.transpose(1, 0, 2, 3)).max() == 0.0
        assert np.abs(v + v.transpose(0, 1, 3, 2)).max() == 0.0
        assert np.abs(v - v.conj().transpose(2, 3, 0, 1)).max() < 1e-15 * peak


# ---------------------------------------------------------------------------
# eigensolver


def test_eigensolve_matches_high_precision(sector63):
    from mpmath import mp

    tensor = fock.sample_syk_gaussian(6, "real", seed=13)
    matrix = fock.build_effective_hamiltonian(tensor, sector63)
    spectrum = fock.diagonalize(matrix)
    with mp.workdps(40):
        hp = mp.matrix(matrix.matrix.tolist())
        ev, _ = mp.eigsy(hp)
        reference = np.sort(np.array([float(ev[k]) for k in range(ev.rows)]))
    assert np.abs(spectrum.eigenvalues - reference).max() < 1e-9


def test_eigensolve_orders_and_reconstructs(sector63):
    tensor = fock.sample_syk_gaussian(6, "complex", seed=17)
    matrix = fock.build_effective_hamiltonian(tensor, sector63)
    spectrum = fock.diagonalize(matrix, keep_vectors=True)
    lam, vec = spectrum.eigenvalues, spectrum.vectors
    assert np.all(np.diff(lam) >= 0)
    dim = matrix.dimension
    assert np.abs(vec.conj().T @ vec - np.eye(dim)).max() < 1e-12
    residual = matrix.matrix @ vec - vec * lam[None, :]
    assert np.abs(residual).max() < 1e-12 * max(np.abs(lam).max(), 1.0)
    # the vectorless path uses a different LAPACK driver, so only close
    again = fock.diagonalize(matrix)
    assert np.abs(again.eigenvalues - lam).max() < 1e-12 * np.abs(lam).max()
    assert again.vectors is None


def test_eigensolver_failure_is_wrapped(monkeypatch, sector63):
    def explode(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", explode)
    tensor = fock.sample_syk_gaussian(6, "real", seed=1)
    matrix = fock.build_effective_hamiltonian(tensor, sector63)
    with pytest.raises(EigensolverError, match="dimension 20"):
        fock.diagonalize(matrix)
