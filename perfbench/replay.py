"""Traced replay of a cavsyk run, stage by stage, through the public API.

    python3 perfbench/replay.py CONFIG --master-seed M --realizations R --out DIR

Repeats the pipeline of cavsyk.ensemble.run_ensemble for realizations
0..R-1 of master seed M in this one process, with a span around every
public call.  Each realization, and the closing extraction, is followed by
an untraced twin of itself, so that the tracer's cost can be read off.
Then it runs run_ensemble itself with one worker on the same realizations
(run tree in DIR/serial_run).  Spans stay in memory and are
written to DIR/trace.json at the end, the replayed spectra to
DIR/eigenvalues.npy.  Work done only to check or compare the replay (Tr H,
||H||_F, a dense-expm OTOC, a warm twin of the first Hamiltonian build,
the untraced twins, the serial run) runs in spans named `bench.*`.

Run with PYTHONPATH pointing at the package sources.
"""

import argparse
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import_start = time.perf_counter()
import cavsyk.cli  # noqa: E402  (timed: the import is a measured layer)

import_s = time.perf_counter() - import_start

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import cavsyk  # noqa: E402
from cavsyk import diagnostics as dg  # noqa: E402
from checks import split_seed  # noqa: E402

# otoc.csv rows (after t = 0) compared against the dense matrix exponential
EXPM_SAMPLES = 5


class Tracer:
    """In-memory spans: name, start, end, parent, realization, counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, realization=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "realization": realization,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class Untraced:
    """A tracer that records nothing."""

    def span(self, name, realization=None):
        return nullcontext({})


def load_config(path, master_seed, realizations):
    with open(path) as handle:
        data = json.load(handle)
    data.update(master_seed=master_seed, realizations=realizations)
    return cavsyk.RunConfig.from_dict(data)


def _statics(tr, config):
    with tr.span("fock.enumerate_sector"):
        sector = cavsyk.enumerate_sector(config.n_modes, config.n_particles)
    if config.model != "effective":
        return None, None, None, sector
    with tr.span("grids.make_grid"):
        grid = cavsyk.make_grid(config.grid_diameter, config.grid_points)
    with tr.span("grids.solve_trap_modes"):
        trap = cavsyk.solve_trap_modes(grid, config.n_modes)
    with tr.span("grids.cavity_mode_set") as counts:
        cavity = cavsyk.cavity_mode_set(config.cutoff, config.zeta, grid)
        counts["bytes"] = cavity.modes.nbytes
    return grid, trap, cavity, sector


def _tensor(tr, config, statics, seed, index):
    grid, trap, cavity, _ = statics
    if config.model == "effective":
        with tr.span("disorder.generate_speckle", index):
            speckle = cavsyk.generate_speckle(
                grid, config.grains_per_linear_dim, seed
            )
        with tr.span("disorder.detuning_ratio", index):
            ratio = cavsyk.detuning_ratio(speckle, config.disorder_strength)
        drive = (
            cavsyk.plane_wave_drive(config.drive_k)
            if config.drive == "plane_wave"
            else cavsyk.UNIFORM_DRIVE
        )
        with tr.span("couplings.compute_integrals", index) as counts:
            table = cavsyk.compute_integrals(trap, cavity, ratio, drive)
            counts["flop"] = 2 * config.n_modes**2 * grid.points_per_axis**2 * (
                config.cutoff + 1
            )
        with tr.span("couplings.compute_coupling_tensor", index):
            raw = cavsyk.compute_coupling_tensor(
                table, config.delta_omega_tilde, config.cutoff, normalize=False
            )
    elif config.model == "syk_cauchy":
        with tr.span("fock.sample_syk_cauchy", index):
            raw = cavsyk.sample_syk_cauchy(
                config.n_modes, config.gamma, config.mass_inside, seed=seed
            )
    else:
        variant = "real" if config.model == "syk_gauss_real" else "complex"
        with tr.span("fock.sample_syk_gaussian", index):
            raw = cavsyk.sample_syk_gaussian(config.n_modes, variant, seed=seed)
    with tr.span("couplings.normalize_couplings", index):
        return cavsyk.normalize_couplings(raw)


def _otoc_expm(matrix, sector, config, times):
    """F(t) = tr(W(t) V W(t) V) / D by dense matrix exponentials."""
    h = matrix.matrix
    dim = h.shape[0]
    w = 2.0 * ((sector.states >> config.otoc_mode_i) & 1) - 1.0
    v = 2.0 * ((sector.states >> config.otoc_mode_j) & 1) - 1.0
    samples = []
    for row in np.linspace(1, len(times) - 1, EXPM_SAMPLES).astype(int).tolist():
        t = float(times[row])
        u = scipy.linalg.expm(-1j * t * h)
        w_t = u.conj().T @ (w[:, None] * u)
        wv = w_t * v[None, :]
        f = np.trace(wv @ wv) / dim
        samples.append([row, t, float(f.real), float(f.imag)])
    return samples


def _realization(tr, config, statics, index, checks=None):
    """One realization; with checks given, also the bench.* checking work."""
    sector = statics[3]
    seed = split_seed(config.master_seed, index)
    with tr.span("realization", index):
        tensor = _tensor(tr, config, statics, seed, index)
        scale = (2.0 * tensor.n_modes) ** -1.5
        h_tensor = replace(tensor, values=tensor.values * scale)
        with tr.span("fock.build_effective_hamiltonian", index) as counts:
            matrix = cavsyk.build_effective_hamiltonian(
                h_tensor, sector, source_model=config.model, seed=seed
            )
            counts["bytes"] = matrix.matrix.nbytes
        if index == 0 and checks is not None:
            # the first build also builds the per-process contraction plan
            with tr.span("bench.warm_build", index):
                cavsyk.build_effective_hamiltonian(
                    h_tensor, sector, source_model=config.model, seed=seed
                )
        if checks is not None:
            with tr.span("bench.check", index):
                checks["totals"].append(
                    [float(np.trace(matrix.matrix).real),
                     float(np.sum(np.abs(matrix.matrix) ** 2))]
                )
        with tr.span("fock.diagonalize", index):
            spectrum = cavsyk.diagonalize(matrix, keep_vectors=config.compute_otoc)
        with tr.span("couplings.independent_entries", index):
            block = cavsyk.independent_entries(tensor)
        if config.fit_rho:
            with tr.span("couplings.fit_pseudo_voigt", index):
                cavsyk.fit_pseudo_voigt(block.real.ravel())
        arrays = {"eigenvalues": spectrum.eigenvalues}
        if config.compute_otoc:
            times = cavsyk.log_time_grid(
                config.otoc_t_min, config.otoc_t_max,
                config.otoc_points_per_decade, include_zero=True,
            )
            with tr.span("diagnostics.compute_otoc", index) as counts:
                otoc = cavsyk.compute_otoc(
                    spectrum, mode_i=config.otoc_mode_i,
                    mode_j=config.otoc_mode_j, times=times,
                )
                counts["points"] = times.count
            arrays["otoc"] = otoc.values
            arrays["otoc_times"] = times.times
            if index == 0 and checks is not None:
                with tr.span("bench.check", index):
                    checks["otoc_expm"] = _otoc_expm(
                        matrix, sector, config, times.times
                    )
        if config.compute_sff:
            times = cavsyk.log_time_grid(
                config.sff_t_min, config.sff_stop_time(),
                config.sff_points_per_decade,
            )
            with tr.span("diagnostics.unfold", index):
                if config.sff_unfold == "polynomial":
                    basis = cavsyk.unfold_spectrum(spectrum)
                elif config.sff_unfold == "linear":
                    basis = cavsyk.unfold_spectrum_linear(spectrum)
                else:
                    basis = spectrum
            with tr.span("diagnostics.compute_sff", index) as counts:
                sff = cavsyk.compute_sff(basis, times=times)
                counts["points"] = times.count
            arrays["sff"] = sff.values
            arrays["sff_times"] = times.times
        if config.compute_spacings:
            with tr.span("diagnostics.unfolded_spacings", index):
                arrays["spacings"], _ = dg.unfolded_spacings(
                    spectrum, config.keep_fraction
                )
    return arrays


def _extract(tr, config, results):
    """The aggregate-level extractions run_ensemble makes after all realizations."""
    with tr.span("diagnostics.extract"):
        if config.compute_otoc:
            mean = np.mean([r["otoc"] for r in results], axis=0)
            series = dg.OtocSeries(
                times=dg.TimeGrid(results[0]["otoc_times"]), values=mean,
                mode_i=config.otoc_mode_i, mode_j=config.otoc_mode_j,
            )
            try:
                dg.extract_decay_time(series)
            except cavsyk.ExtractionError:
                pass
        if config.compute_sff:
            mean = np.mean([r["sff"] for r in results], axis=0)
            series = dg.SffSeries(
                times=dg.TimeGrid(results[0]["sff_times"]), values=mean,
                dimension=len(results[0]["eigenvalues"]),
            )
            smoothed = dg.smooth_sff(series, config.sff_smooth_decades)
            dg.dip_time(smoothed)
            dg.plateau_height(smoothed)
            try:
                dg.extract_ramp_and_heisenberg(
                    smoothed, config.extraction_threshold,
                    ramp_window=config.sff_ramp_window,
                    plateau_window=config.sff_plateau_window,
                    run_points=config.sff_run_points,
                )
            except cavsyk.ExtractionError:
                pass
        if config.compute_spacings:
            dg.spacing_statistics(np.concatenate([r["spacings"] for r in results]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--realizations", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    config = load_config(args.config, args.master_seed, args.realizations)
    args.out.mkdir(parents=True, exist_ok=True)

    tr = Tracer()
    checks = {"totals": []}
    with tr.span("replay"):
        with tr.span("statics"):
            statics = _statics(tr, config)
        results = []
        for index in range(config.realizations):
            # realization 0 builds the contraction plan, so goes traced
            # first; after it the order alternates, so that neither twin
            # is always the second, warmer one
            if index % 2:
                with tr.span("bench.untraced", index):
                    _realization(Untraced(), config, statics, index)
            results.append(_realization(tr, config, statics, index, checks))
            if not index % 2:
                with tr.span("bench.untraced", index):
                    _realization(Untraced(), config, statics, index)
        _extract(tr, config, results)
        with tr.span("bench.untraced"):
            _extract(Untraced(), config, results)
    # the contraction plan stays cached in this process, so the serial run
    # pays everything the replay did except the plan
    serial = replace(config, workers=1, output_dir=str(args.out / "serial_run"))
    with tr.span("bench.serial_run"):
        manifest = cavsyk.run_ensemble(serial)
    np.save(args.out / "eigenvalues.npy",
            np.array([r["eigenvalues"] for r in results]))
    with open(args.out / "trace.json", "w") as handle:
        json.dump(
            {"import_s": import_s, "spans": tr.spans, "checks": checks,
             "serial_failed": manifest.aggregates["n_failed"]},
            handle,
        )


if __name__ == "__main__":
    main()
