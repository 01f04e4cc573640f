"""Declarative ensemble runs: seeding, realization pipeline, aggregation.

A run is described by a RunConfig, executed realization by realization
(optionally across processes), and persisted as

    run_dir/
        manifest.json
        realizations/r0000/*.csv
        aggregates/*.csv

Aggregates are reduced in realization-index order regardless of completion
order, and all CSV floats are written with 17 significant digits, so a rerun
with the same config is bit-identical.
"""

import csv
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import couplings as cp
from . import diagnostics as dg
from . import disorder, fock, grids
from .errors import ExtractionError

MODELS = ("effective", "syk_gauss_real", "syk_gauss_complex", "syk_cauchy")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one disorder-ensemble run.

    Cavity-pipeline fields (delta_omega_tilde, zeta, cutoff, grid and
    speckle parameters, drive) matter only for the effective model; gamma
    and mass_inside only for the truncated-Cauchy reference.
    """

    model: str = "effective"
    n_modes: int = 10
    n_particles: int = 5
    realizations: int = 1
    master_seed: int = 0

    delta_omega_tilde: float = 0.1
    zeta: float = 1.0
    cutoff: int = 240
    grid_diameter: float = 10.0
    grid_points: int = 200
    grains_per_linear_dim: float = 17.0
    disorder_strength: float = 1.0
    drive: str = "uniform"
    drive_k: float = 0.0

    gamma: float = 0.2
    mass_inside: float = 0.975

    fit_rho: bool = True
    compute_otoc: bool = True
    otoc_mode_i: int = 0
    otoc_mode_j: int = 1
    otoc_t_min: float = 1e-2
    otoc_t_max: float = 1e2
    otoc_points_per_decade: int = 200

    compute_sff: bool = True
    sff_t_min: float = 1e-1
    sff_t_max: float | None = None
    sff_points_per_decade: int = 200
    sff_unfold: str = "polynomial"
    sff_smooth_decades: float = 0.15
    sff_ramp_window: tuple | None = None
    sff_plateau_window: tuple | None = None
    extraction_threshold: float = 0.015
    sff_run_points: int = 3

    compute_spacings: bool = True
    keep_fraction: float = 0.8

    save_couplings: bool = True
    workers: int | None = None
    output_dir: str | None = None
    run_label: str | None = None

    def validate(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not 0 <= self.n_particles <= self.n_modes:
            raise ValueError(
                f"filling {self.n_particles} invalid for {self.n_modes} modes"
            )
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.model == "effective":
            if self.delta_omega_tilde <= 0:
                raise ValueError("delta_omega_tilde must be positive")
            if self.zeta <= 0:
                raise ValueError("zeta must be positive")
            if self.cutoff < 0:
                raise ValueError("cutoff must be nonnegative")
            if self.drive not in ("uniform", "plane_wave"):
                raise ValueError(f"unknown drive {self.drive!r}")
            if self.grains_per_linear_dim <= 0:
                raise ValueError("grains_per_linear_dim must be positive")
            if self.disorder_strength < 0:
                raise ValueError("disorder_strength must be nonnegative")
        if self.model == "syk_cauchy":
            if self.gamma <= 0:
                raise ValueError("gamma must be positive")
            if not 0 < self.mass_inside < 1:
                raise ValueError("mass_inside must lie in (0, 1)")
        if self.compute_otoc:
            if self.otoc_mode_i == self.otoc_mode_j:
                raise ValueError("otoc modes must differ")
            for mode in (self.otoc_mode_i, self.otoc_mode_j):
                if not 0 <= mode < self.n_modes:
                    raise ValueError(
                        f"otoc mode {mode} out of range 0..{self.n_modes - 1}"
                    )
        if self.sff_unfold not in ("polynomial", "linear"):
            raise ValueError(
                "sff_unfold must be 'polynomial' or 'linear', "
                f"got {self.sff_unfold!r}"
            )
        if self.extraction_threshold <= 0:
            raise ValueError("extraction_threshold must be positive")
        if self.sff_run_points < 1:
            raise ValueError("sff_run_points must be at least 1")
        for name in ("sff_ramp_window", "sff_plateau_window"):
            window = getattr(self, name)
            if window is None:
                continue
            if len(window) != 2 or not 0 < window[0] < window[1]:
                raise ValueError(f"{name} must be (low, high) with 0 < low < high")
        if self.compute_spacings and not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must lie in (0, 1]")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        for name in ("sff_ramp_window", "sff_plateau_window"):
            # JSON has no tuples; accept lists from round-tripped configs
            if data.get(name) is not None:
                data[name] = tuple(data[name])
        return cls(**data).validate()

    def sff_stop_time(self):
        if self.sff_t_max is not None:
            return self.sff_t_max
        # ten Heisenberg times of the sector
        return 20.0 * math.comb(self.n_modes, self.n_particles)

    def label(self):
        if self.run_label:
            return self.run_label
        bits = [self.model, f"N{self.n_modes}", f"R{self.realizations}"]
        if self.model == "effective":
            bits.append(f"dw{self.delta_omega_tilde:g}")
        bits.append(f"s{self.master_seed}")
        return "_".join(bits)


@dataclass(frozen=True)
class RunManifest:
    """Resolved config, per-realization records, and aggregate results."""

    config: dict
    realizations: list
    aggregates: dict
    version: str
    elapsed_seconds: float
    run_dir: str = ""

    @property
    def partial(self):
        return any(not r["ok"] for r in self.realizations)

    def to_dict(self):
        return {
            "config": self.config,
            "version": self.version,
            "elapsed_seconds": self.elapsed_seconds,
            "realizations": self.realizations,
            "aggregates": self.aggregates,
        }


def split_seed(master_seed, realization_index):
    """Derive a per-realization 64-bit seed from the master seed.

    Counter-mode SHA-256 over the little-endian 8-byte encodings of
    (master_seed, index); the first 8 digest bytes, little-endian, are the
    seed.  Documented bit-exact so runs are portable across platforms.
    """
    if realization_index < 0:
        raise ValueError("realization index must be nonnegative")
    payload = (int(master_seed) & (2**64 - 1)).to_bytes(8, "little") + int(
        realization_index
    ).to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@functools.cache
def _static_pipeline(
    model, n_modes, n_particles, grid_diameter, grid_points, zeta, cutoff
):
    """Grid, trap modes, cavity modes, sector; cached per process."""
    sector = fock.enumerate_sector(n_modes, n_particles)
    if model != "effective":
        return None, None, None, sector
    grid = grids.make_grid(grid_diameter, grid_points)
    trap = grids.solve_trap_modes(grid, n_modes)
    cavity = grids.cavity_mode_set(cutoff, zeta, grid)
    return grid, trap, cavity, sector


def _drive_of(config):
    if config.drive == "plane_wave":
        return cp.plane_wave_drive(config.drive_k)
    return cp.UNIFORM_DRIVE


def _realization_tensor(config, statics, seed):
    grid, trap, cavity, _ = statics
    if config.model == "effective":
        speckle = disorder.generate_speckle(
            grid, config.grains_per_linear_dim, seed
        )
        ratio = disorder.detuning_ratio(speckle, config.disorder_strength)
        table = cp.compute_integrals(trap, cavity, ratio, _drive_of(config))
        return cp.compute_coupling_tensor(
            table, config.delta_omega_tilde, config.cutoff
        )
    if config.model == "syk_gauss_real":
        raw = fock.sample_syk_gaussian(config.n_modes, "real", seed=seed)
    elif config.model == "syk_gauss_complex":
        raw = fock.sample_syk_gaussian(config.n_modes, "complex", seed=seed)
    else:
        raw = fock.sample_syk_cauchy(
            config.n_modes, config.gamma, config.mass_inside, seed=seed
        )
    return cp.normalize_couplings(raw)


def _hamiltonian_tensor(tensor):
    """Attach the conventional 1/(2N)^(3/2) Hamiltonian prefactor.

    Both the target and the effective model are compared after their
    amplitudes are normalized to unit variance; the prefactor then sets the
    common many-body energy scale (and hence the meaning of one time unit)
    for every model alike.
    """
    scale = (2.0 * tensor.n_modes) ** -1.5
    return replace(tensor, values=tensor.values * scale)


def _run_realization(config, statics, index):
    """One full pipeline pass; returns the record and the bulky arrays."""
    seed = split_seed(config.master_seed, index)
    sector = statics[3]
    tensor = _realization_tensor(config, statics, seed)
    matrix = fock.build_effective_hamiltonian(
        _hamiltonian_tensor(tensor), sector, source_model=config.model, seed=seed
    )
    spectrum = fock.diagonalize(matrix, keep_vectors=config.compute_otoc)

    record = {
        "index": index,
        "seed": seed,
        "ok": True,
        "normalization": tensor.normalization,
        "ground_energy": float(spectrum.eigenvalues[0]),
        "top_energy": float(spectrum.eigenvalues[-1]),
    }
    arrays = {"eigenvalues": spectrum.eigenvalues}

    block = tensor.values
    if config.save_couplings:
        arrays["couplings"] = block
    if config.fit_rho:
        samples = block.real.ravel()
        rho, sigma, xbar, fit_error = cp.fit_pseudo_voigt(samples)
        record.update(rho=rho, sigma=sigma, xbar=xbar, rho_fit_error=fit_error)

    if config.compute_otoc:
        otoc_grid = dg.log_time_grid(
            config.otoc_t_min,
            config.otoc_t_max,
            config.otoc_points_per_decade,
            include_zero=True,
        )
        otoc = dg.compute_otoc(
            spectrum, otoc_grid, config.otoc_mode_i, config.otoc_mode_j
        )
        arrays["otoc_times"] = otoc.times.times
        arrays["otoc_values"] = otoc.values

    if config.compute_sff:
        sff_grid = dg.log_time_grid(
            config.sff_t_min,
            config.sff_stop_time(),
            config.sff_points_per_decade,
        )
        if config.sff_unfold == "polynomial":
            basis = dg.unfold_spectrum(spectrum)
        else:
            basis = dg.unfold_spectrum_linear(spectrum)
        sff = dg.compute_sff(basis, sff_grid)
        arrays["sff_times"] = sff.times.times
        arrays["sff_values"] = sff.values

    if config.compute_spacings:
        spacings, n_deg = dg.unfolded_spacings(spectrum, config.keep_fraction)
        arrays["spacings"] = spacings
        record["n_degenerate_spacings"] = n_deg

    return record, arrays


def _worker(config, statics, index):
    try:
        return index, _run_realization(config, statics, index)
    except Exception as exc:  # skip-and-record failure policy
        seed = split_seed(config.master_seed, index)
        record = {
            "index": index,
            "seed": seed,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
        return index, (record, {})


def _fmt(value):
    return f"{value:.17g}"


def _write_csv(path, header, columns):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


def _write_realization(run_dir, config, index, arrays):
    rdir = run_dir / "realizations" / f"r{index:04d}"
    _write_csv(
        rdir / "eigenvalues.csv",
        ["index", "eigenvalue"],
        [np.arange(len(arrays["eigenvalues"])), arrays["eigenvalues"]],
    )
    if "couplings" in arrays:
        block = arrays["couplings"]
        i1, i2 = cp.pair_indices(config.n_modes)
        rows = np.repeat(np.arange(len(i1)), len(i1))
        cols = np.tile(np.arange(len(i1)), len(i1))
        header = ["i1", "i2", "j1", "j2", "re"]
        columns = [i1[rows], i2[rows], i1[cols], i2[cols], block.real.ravel()]
        if np.iscomplexobj(block):
            header.append("im")
            columns.append(block.imag.ravel())
        _write_csv(rdir / "couplings.csv", header, columns)
    if "otoc_values" in arrays:
        _write_csv(
            rdir / "otoc.csv",
            ["t", "re_f", "im_f"],
            [
                arrays["otoc_times"],
                arrays["otoc_values"].real,
                arrays["otoc_values"].imag,
            ],
        )
    if "sff_values" in arrays:
        _write_csv(
            rdir / "sff.csv",
            ["t", "s"],
            [arrays["sff_times"], arrays["sff_values"]],
        )


def _mean_std(values):
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def _aggregate(config, run_dir, results):
    """Fixed-order reduction over successful realizations plus extraction."""
    agg_dir = run_dir / "aggregates"
    aggregates = {"files": {}}
    ordered = [results[k] for k in sorted(results)]
    good = [(rec, arr) for rec, arr in ordered if rec["ok"]]
    aggregates["n_success"] = len(good)
    aggregates["n_failed"] = len(ordered) - len(good)
    if not good:
        return aggregates

    if config.fit_rho:
        rho_mean, rho_std = _mean_std([rec["rho"] for rec, _ in good])
        aggregates["rho_mean"] = rho_mean
        aggregates["rho_std"] = rho_std

    if config.compute_otoc:
        times = good[0][1]["otoc_times"]
        stack = np.stack([arr["otoc_values"] for _, arr in good])
        mean = stack.mean(axis=0)
        _write_csv(
            agg_dir / "otoc_mean.csv",
            ["t", "re_f", "im_f"],
            [times, mean.real, mean.imag],
        )
        aggregates["files"]["otoc"] = "aggregates/otoc_mean.csv"
        series = dg.OtocSeries(
            dg.TimeGrid(times), mean, config.otoc_mode_i,
            config.otoc_mode_j,
        )
        try:
            aggregates["t_star"] = dg.extract_decay_time(series)
            aggregates["scrambling_rate"] = 1.0 / aggregates["t_star"]
        except ExtractionError as exc:
            aggregates["t_star"] = None
            aggregates["t_star_error"] = str(exc)
            # a mean that never reaches 1/e scrambles slower than any that does
            never_crosses = mean.real.min() >= math.exp(-1.0)
            aggregates["scrambling_rate"] = 0.0 if never_crosses else None

    if config.compute_sff:
        times = good[0][1]["sff_times"]
        stack = np.stack([arr["sff_values"] for _, arr in good])
        mean = stack.mean(axis=0)
        _write_csv(agg_dir / "sff_mean.csv", ["t", "s"], [times, mean])
        aggregates["files"]["sff"] = "aggregates/sff_mean.csv"
        dim = good[0][1]["eigenvalues"].shape[0]
        series = dg.SffSeries(dg.TimeGrid(times), mean, dim)
        smoothed = dg.smooth_sff(series, config.sff_smooth_decades)
        aggregates["dip_time"] = dg.dip_time(smoothed)
        aggregates["plateau_height"] = dg.plateau_height(smoothed)
        try:
            t_r, t_h = dg.extract_ramp_and_heisenberg(
                smoothed,
                config.extraction_threshold,
                ramp_window=config.sff_ramp_window,
                plateau_window=config.sff_plateau_window,
                run_points=config.sff_run_points,
            )
            aggregates["t_ramp"] = t_r
            aggregates["t_heisenberg"] = t_h
        except ExtractionError as exc:
            aggregates["t_ramp"] = None
            aggregates["t_heisenberg"] = None
            aggregates["sff_extraction_error"] = str(exc)

    if config.compute_spacings:
        pooled = np.concatenate([arr["spacings"] for _, arr in good])
        stats = dg.spacing_statistics(pooled)
        _write_csv(
            agg_dir / "spacing_hist.csv",
            ["s", "density"],
            [stats.bin_centers, stats.density],
        )
        aggregates["files"]["spacings"] = "aggregates/spacing_hist.csv"
        aggregates["ks_goe"] = stats.ks_goe
        aggregates["ks_poisson"] = stats.ks_poisson
        aggregates["pooled_spacing_count"] = int(len(pooled))
        aggregates["degenerate_spacings"] = int(
            sum(rec.get("n_degenerate_spacings", 0) for rec, _ in good)
        )

    return aggregates


def resolve_run_dir(config):
    if config.output_dir:
        return Path(config.output_dir)
    root = os.environ.get("CAVSYK_OUTPUT_ROOT", "runs")
    return Path(root) / config.label()


def run_ensemble(config):
    """Execute all realizations of a config and persist the run tree.

    Individual realization failures are recorded in the manifest and the
    aggregates are computed over the survivors; only a config-level problem
    raises, unbuildable statics included, and before the run directory exists.
    """
    from . import __version__

    config.validate()
    started = time.time()
    statics = _static_pipeline(
        config.model, config.n_modes, config.n_particles, config.grid_diameter,
        config.grid_points, config.zeta, config.cutoff,
    )
    run_dir = resolve_run_dir(config)
    run_dir.mkdir(parents=True, exist_ok=True)

    indices = range(config.realizations)
    work = functools.partial(_worker, config, statics)
    workers = config.workers or os.cpu_count() or 1
    if workers > 1 and config.realizations > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(work, indices))
    else:
        results = dict(map(work, indices))

    for index in sorted(results):
        record, arrays = results[index]
        if record["ok"]:
            _write_realization(run_dir, config, index, arrays)

    aggregates = _aggregate(config, run_dir, results)
    manifest = RunManifest(
        config=config.to_dict(),
        realizations=[results[k][0] for k in sorted(results)],
        aggregates=aggregates,
        version=__version__,
        elapsed_seconds=time.time() - started,
        run_dir=str(run_dir),
    )
    with open(run_dir / "manifest.json", "w") as handle:
        json.dump(manifest.to_dict(), handle, indent=1)
        handle.write("\n")
    return manifest


def load_manifest(path):
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    with open(path) as handle:
        data = json.load(handle)
    return RunManifest(
        config=data["config"],
        realizations=data["realizations"],
        aggregates=data["aggregates"],
        version=data["version"],
        elapsed_seconds=data["elapsed_seconds"],
        run_dir=str(path.parent),
    )


def _check_comparable(this, reference):
    def norm(value):
        # window pairs arrive as tuples in-process but lists via JSON
        return list(value) if isinstance(value, (list, tuple)) else value

    for key in (
        "n_modes",
        "n_particles",
        "otoc_t_min",
        "otoc_t_max",
        "otoc_points_per_decade",
        "sff_t_min",
        "sff_t_max",
        "sff_points_per_decade",
        "sff_unfold",
        "sff_smooth_decades",
        "sff_ramp_window",
        "sff_plateau_window",
        "extraction_threshold",
        "sff_run_points",
    ):
        if norm(this["config"].get(key)) != norm(reference["config"].get(key)):
            raise ValueError(
                f"runs are not comparable: {key} differs "
                f"({this['config'].get(key)} vs {reference['config'].get(key)})"
            )


def compare_runs(manifests, reference):
    """Benchmark runs against a reference run (normally the Gaussian model).

    For each run the report lists the scrambling rate 1/t* (0 for a mean
    OTOC that never decays to 1/e), its ratio to the reference's rate when
    that is positive, and the ramp-time deviation
    eps_r = |t_r - t_r_ref| / t_r_ref.  If three or more runs carry a
    delta_omega_tilde and a valid eps_r, the power-law exponent alpha of
    eps_r against 1/delta_omega_tilde is fitted as well.
    """
    ref = reference.to_dict() if isinstance(reference, RunManifest) else reference
    rows = []
    for manifest in manifests:
        data = manifest.to_dict() if isinstance(manifest, RunManifest) else manifest
        _check_comparable(data, ref)
        row = {
            "model": data["config"]["model"],
            "delta_omega_tilde": data["config"].get("delta_omega_tilde"),
            "t_star": data["aggregates"].get("t_star"),
            "scrambling_rate": data["aggregates"].get("scrambling_rate"),
            "t_ramp": data["aggregates"].get("t_ramp"),
            "t_heisenberg": data["aggregates"].get("t_heisenberg"),
        }
        rate_ref = ref["aggregates"].get("scrambling_rate")
        if row["scrambling_rate"] is not None and rate_ref:
            row["scrambling_ratio"] = row["scrambling_rate"] / rate_ref
        t_r_ref = ref["aggregates"].get("t_ramp")
        if row["t_ramp"] and t_r_ref:
            row["epsilon_r"] = abs(row["t_ramp"] - t_r_ref) / t_r_ref
        rows.append(row)

    report = {
        "reference": {
            "model": ref["config"]["model"],
            "t_star": ref["aggregates"].get("t_star"),
            "scrambling_rate": ref["aggregates"].get("scrambling_rate"),
            "t_ramp": ref["aggregates"].get("t_ramp"),
        },
        "runs": rows,
    }
    fit_points = [
        (1.0 / r["delta_omega_tilde"], r["epsilon_r"])
        for r in rows
        if r.get("epsilon_r") and r.get("delta_omega_tilde")
    ]
    if len(fit_points) >= 3:
        x, y = zip(*fit_points)
        alpha, stderr = dg.fit_power_law(x, y)
        report["alpha"] = alpha
        report["alpha_stderr"] = stderr
    return report


def write_comparison_csv(report, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = [
        "model",
        "delta_omega_tilde",
        "t_star",
        "scrambling_ratio",
        "t_ramp",
        "t_heisenberg",
        "epsilon_r",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for row in report["runs"]:
            writer.writerow(
                [
                    row.get(f) if not isinstance(row.get(f), float)
                    else _fmt(row.get(f))
                    for f in fields
                ]
            )
