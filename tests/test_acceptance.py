"""End-to-end acceptance suite: one test per shipped claim, ten in all.

Each test prints a single summary line with the measured values next to its
tolerance. The runs are produced by the public ensemble runner with pinned
master seeds, so every number here is bit-reproducible.  The ensembles run
on two worker processes (parallel runs equal serial ones bit for bit, which
criterion 10 checks); expect roughly four minutes of wall time for the
whole module on two cores and eight on one.

Claims covered, in order: trap-mode accuracy, speckle intensity law,
coupling-tensor algebra, coupling-distribution shape, mode-cutoff
convergence, OTOC benchmark against the Gaussian reference, SFF
dip/ramp/plateau benchmark, level-spacing statistics, the ramp-deviation
sweep exponent, and bit-identical determinism.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cavsyk import diagnostics as dg
from cavsyk import disorder, fock, grids
from cavsyk import couplings as cp
from cavsyk import ensemble as en

import oracles


def report(line):
    print(f"\n{line}", flush=True)


def run_into(root, tag, **kw):
    config = en.RunConfig(output_dir=str(root / tag), workers=2, **kw)
    manifest = en.run_ensemble(config)
    assert not manifest.partial, f"{tag}: {manifest.realizations}"
    return config, manifest


# shared settings for the N=10 OTOC family; the dormant SFF-extraction
# fields are kept identical so any two runs are mutually comparable
N10 = dict(
    n_modes=10, n_particles=5, zeta=1.0, cutoff=240, master_seed=1,
    otoc_points_per_decade=50, sff_unfold="linear", sff_smooth_decades=0.3,
    save_couplings=False,
)

N12 = dict(
    n_modes=12, n_particles=6, zeta=1.0, cutoff=240,
    compute_otoc=False, fit_rho=False, save_couplings=False,
)


@pytest.fixture(scope="module")
def n10_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("n10")
    runs = {}
    runs["rho30"] = run_into(
        root, "rho30", model="effective", delta_omega_tilde=0.1,
        realizations=30, compute_otoc=False, compute_sff=False,
        compute_spacings=False, **N10,
    )
    for tag, dw in (("dw10", 10.0), ("dw1", 1.0)):
        runs[tag] = run_into(
            root, tag, model="effective", delta_omega_tilde=dw,
            realizations=50, fit_rho=False, compute_sff=False,
            compute_spacings=False, **N10,
        )
    # the delta_omega_tilde = 0.1 point doubles as the M=240 arm of the
    # cutoff-convergence pair, so it also computes the SFF
    runs["m240"] = run_into(
        root, "m240", model="effective", delta_omega_tilde=0.1,
        realizations=50, compute_spacings=False, **N10,
    )
    m120 = dict(N10, cutoff=120)
    runs["m120"] = run_into(
        root, "m120", model="effective", delta_omega_tilde=0.1,
        realizations=50, compute_spacings=False, **m120,
    )
    runs["syk"] = run_into(
        root, "syk", model="syk_gauss_real", realizations=200,
        fit_rho=False, compute_sff=False, compute_spacings=False, **N10,
    )
    return runs


@pytest.fixture(scope="module")
def n12_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("n12_benchmark")
    runs = {}
    runs["syk_poly"] = run_into(
        root, "syk_poly", model="syk_gauss_real", master_seed=2,
        realizations=100, compute_spacings=False, **N12,
    )
    runs["syk_lin"] = run_into(
        root, "syk_lin", model="syk_gauss_real", master_seed=2,
        realizations=100, sff_unfold="linear", compute_spacings=False, **N12,
    )
    runs["eff_dw10"] = run_into(
        root, "eff_dw10", model="effective", delta_omega_tilde=10.0,
        master_seed=2, realizations=50, sff_unfold="linear",
        compute_spacings=False, **N12,
    )
    runs["eff_dw01"] = run_into(
        root, "eff_dw01", model="effective", delta_omega_tilde=0.1,
        master_seed=2, realizations=50, sff_unfold="linear",
        compute_spacings=True, **N12,
    )
    return runs


@pytest.fixture(scope="module")
def n12_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("n12_sweep")
    shared = dict(N12, sff_unfold="linear", sff_smooth_decades=0.3,
                  master_seed=7, realizations=300, compute_spacings=False)
    reference = run_into(root, "syk", model="syk_gauss_real", **shared)
    points = [
        (dw, run_into(root, f"dw{dw:g}", model="effective",
                      delta_omega_tilde=dw, **shared))
        for dw in (10.0, 1.0, 0.1)
    ]
    return reference, points


def test_criterion_01_trap_mode_energies():
    grid = grids.make_grid(10.0, 200)
    trap = grids.solve_trap_modes(grid, 15)
    exact = np.array([nx + ny + 1.0 for nx, ny in trap.quantum_numbers])
    worst = float((np.abs(trap.energies - exact) / exact).max())
    assert worst < 1e-3
    report(f"criterion 1: PASS  15 trap-mode energies, max relative error "
           f"{worst:.2e} < 1e-3")


def test_criterion_02_speckle_intensity_law():
    grid = grids.make_grid(10.0, 200)
    worst = 0.0
    for seed in range(20):
        speckle = disorder.generate_speckle(grid, 17.0, seed=seed)
        intensity = np.sort(speckle.intensity.ravel())
        cdf = 1.0 - np.exp(-intensity / intensity.mean())
        n = len(intensity)
        ks = max(
            np.abs(cdf - np.arange(1, n + 1) / n).max(),
            np.abs(cdf - np.arange(0, n) / n).max(),
        )
        worst = max(worst, ks)
    assert worst < 0.05
    report(f"criterion 2: PASS  speckle intensity exponential law, worst KS "
           f"over 20 seeds {worst:.4f} < 0.05")


def test_criterion_03_tensor_algebra_and_oracle():
    grid = grids.make_grid(10.0, 200)
    cavity = grids.cavity_mode_set(240, 1.0, grid)
    trap8 = grids.solve_trap_modes(grid, 8)
    worst = {"herm": 0.0, "anti": 0.0, "var": 0.0, "block": 0.0}
    for seed in (3, 4, 5):
        ratio = disorder.detuning_ratio(
            disorder.generate_speckle(grid, 17.0, seed=seed)
        )
        table = cp.compute_integrals(trap8, cavity, ratio)
        tensor = cp.compute_coupling_tensor(table, 0.1, 240)
        assert tensor.is_real
        v = oracles.coupling_tensor(table, 0.1, 240) / tensor.normalization
        peak = np.abs(v).max()
        worst["block"] = max(
            worst["block"],
            np.abs(tensor.values - oracles.pair_block_of(v)).max() / peak,
        )
        worst["herm"] = max(
            worst["herm"],
            np.abs(v - v.transpose(3, 2, 1, 0).conj()).max() / peak,
        )
        worst["anti"] = max(
            worst["anti"], np.abs(v + v.transpose(1, 0, 2, 3)).max() / peak
        )
        worst["var"] = max(
            worst["var"],
            abs(np.std(cp.independent_entries(tensor), ddof=1) - 1.0),
        )
    assert worst["herm"] < 1e-12
    assert worst["anti"] < 1e-12
    assert worst["var"] < 1e-12
    assert worst["block"] < 1e-12

    # matrix elements against the symbolic bitmask oracle in a 6-mode sector
    gap = 0.0
    sector = fock.enumerate_sector(6, 3)
    for sampler in ("real", "complex"):
        tensor = cp.normalize_couplings(
            fock.sample_syk_gaussian(6, sampler, seed=9)
        )
        built = fock.build_effective_hamiltonian(tensor, sector).matrix
        reference = oracles.brute_force_hamiltonian(
            oracles.expand_pair_block(tensor.values, 6), sector.states
        )
        gap = max(
            gap, float(np.abs(built - reference).max() / np.abs(reference).max())
        )
    assert gap < 1e-14
    report(
        "criterion 3: PASS  tensor algebra residuals "
        f"(herm {worst['herm']:.1e}, antisym {worst['anti']:.1e}, "
        f"unit variance {worst['var']:.1e}, pair block vs oracle "
        f"{worst['block']:.1e}) < 1e-12; oracle gap "
        f"{gap:.1e} < 1e-14"
    )


def test_criterion_04_distribution_shape(n10_runs):
    _, manifest = n10_runs["rho30"]
    rho = manifest.aggregates["rho_mean"]
    assert manifest.aggregates["n_success"] == 30
    assert rho > 0.5
    report(f"criterion 4: PASS  ensemble-mean Cauchy fraction rho "
           f"{rho:.4f} > 0.5 (30 realizations)")


def test_criterion_05_cutoff_convergence(n10_runs):
    _, coarse = n10_runs["m120"]
    _, fine = n10_runs["m240"]
    shifts = {}
    for key in ("rho_mean", "t_star", "t_ramp"):
        a, b = coarse.aggregates[key], fine.aggregates[key]
        assert a and b, f"{key} missing from a cutoff arm"
        shifts[key] = abs(a - b) / b
    assert all(s < 0.10 for s in shifts.values()), shifts
    report(
        "criterion 5: PASS  M=120 vs M=240 shifts: rho "
        f"{shifts['rho_mean']:.3%}, t* {shifts['t_star']:.3%}, t_r "
        f"{shifts['t_ramp']:.3%}, all < 10%"
    )


def test_criterion_06_otoc_benchmark(n10_runs):
    # F(0) = 1 exactly, straight from the persisted ensemble mean
    _, manifest = n10_runs["m240"]
    path = f"{manifest.run_dir}/aggregates/otoc_mean.csv"
    first = np.loadtxt(path, delimiter=",", skiprows=1, max_rows=1)
    assert first[0] == 0.0 and first[1] == 1.0

    def rate(manifest):
        t_star = manifest.aggregates["t_star"]
        # a curve that never reaches 1/e scrambles slower than any that does
        return 0.0 if t_star is None else 1.0 / t_star

    rates = [rate(n10_runs[tag][1]) for tag in ("dw10", "dw1", "m240")]
    assert rates[0] < rates[1] < rates[2]

    report_rows = en.compare_runs(
        [n10_runs["m240"][1]], n10_runs["syk"][1]
    )["runs"]
    ratio = report_rows[0]["scrambling_ratio"]
    assert abs(ratio - 1.0) <= 0.25
    report(
        "criterion 6: PASS  F(0)=1 exact; 1/t* strictly increasing as the "
        f"detuning spacing falls ({rates[0]:.3f} < {rates[1]:.3f} < "
        f"{rates[2]:.3f}, no-crossing counted as rate 0); 1/t* within "
        f"{abs(ratio - 1):.1%} of the Gaussian reference (<= 25%)"
    )


def test_criterion_07_sff_benchmark(n12_benchmark):
    dim = math.comb(12, 6)
    _, syk = n12_benchmark["syk_poly"]
    agg = syk.aggregates
    plateau_over = agg["plateau_height"] * dim
    assert abs(plateau_over - 1.0) < 0.15
    t_h = agg["t_heisenberg"]
    assert abs(t_h / (2 * dim) - 1.0) < 0.15

    data = np.loadtxt(f"{syk.run_dir}/aggregates/sff_mean.csv",
                      delimiter=",", skiprows=1)
    series = dg.SffSeries(dg.TimeGrid(data[:, 0]), data[:, 1], dim)
    smoothed = dg.smooth_sff(series, 0.15)
    assert smoothed.values.min() < agg["plateau_height"]
    window = (smoothed.times.times >= 2 * agg["dip_time"]) & (
        smoothed.times.times <= dim
    )
    slope = np.polyfit(
        np.log(smoothed.times.times[window]),
        np.log(smoothed.values[window]), 1,
    )[0]
    assert slope > 0

    rows = en.compare_runs(
        [n12_benchmark["eff_dw10"][1], n12_benchmark["eff_dw01"][1]],
        n12_benchmark["syk_lin"][1],
    )["runs"]
    eps10, eps01 = rows[0]["epsilon_r"], rows[1]["epsilon_r"]
    assert eps01 < eps10
    report(
        "criterion 7: PASS  plateau*D "
        f"{plateau_over:.3f} (within 15% of 1); t_H/2D {t_h / (2 * dim):.3f} "
        f"(within 15%); dip below plateau with ramp slope +{slope:.2f}; "
        f"ramp deviation {eps01:.3f} at fine spacing < {eps10:.3f} at coarse"
    )


def test_criterion_08_level_statistics(n12_benchmark):
    _, manifest = n12_benchmark["eff_dw01"]
    ks_goe = manifest.aggregates["ks_goe"]
    ks_poisson = manifest.aggregates["ks_poisson"]
    assert 3.0 * ks_goe <= ks_poisson
    report(
        "criterion 8: PASS  pooled spacings "
        f"({manifest.aggregates['pooled_spacing_count']}): KS to GOE "
        f"{ks_goe:.4f}, to Poisson {ks_poisson:.4f} "
        f"(ratio {ks_poisson / ks_goe:.1f}x >= 3x)"
    )


def test_criterion_09_sweep_exponent(n12_sweep):
    (_, reference), points = n12_sweep
    manifests = [manifest for _, (_, manifest) in points]
    result = en.compare_runs(manifests, reference)
    eps = [row.get("epsilon_r", float("inf")) for row in result["runs"]]
    # ordered coarse to fine spacing: deviation shrinks monotonically
    assert eps[0] > eps[1] > eps[2]
    alpha = result["alpha"]
    assert 0.3 <= alpha <= 0.9
    report(
        "criterion 9: PASS  ramp deviations "
        f"[{eps[0]:.3f}, {eps[1]:.3f}, {eps[2]:.3f}] monotone decreasing; "
        f"alpha {alpha:.3f} in [0.3, 0.9] (stderr {result['alpha_stderr']:.3f})"
    )


def test_criterion_10_determinism(n12_benchmark, tmp_path):
    # the original ran on the two-worker pool; the rerun is serial
    config, manifest = n12_benchmark["eff_dw10"]
    rerun = en.run_ensemble(
        dataclasses.replace(config, output_dir=str(tmp_path), workers=1)
    )
    assert rerun.aggregates == manifest.aggregates
    original_root = Path(manifest.run_dir)
    count = 0
    for fresh in sorted(tmp_path.rglob("*.csv")):
        twin = original_root / fresh.relative_to(tmp_path)
        assert fresh.read_bytes() == twin.read_bytes(), fresh
        count += 1
    assert count > 50
    report(f"criterion 10: PASS  serial rerun of a 2-worker run bit-identical "
           f"across {count} CSV files (aggregates and realizations)")
