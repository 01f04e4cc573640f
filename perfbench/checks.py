"""Correctness checks on a cavsyk run tree.

Every check compares the run's output with a property of the method or
with a value computed apart from the program (a SHA-256 recomputation, a
dense matrix exponential, a trace taken from the Hamiltonian itself); none
compares against a stored copy of earlier output.  Each raises CheckError
with the first violation it finds.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# |F(t)| <= 1 and S(t) <= 1 hold exactly; these absorb rounding only
OTOC_BOUND_TOL = 1e-9
SFF_BOUND_TOL = 1e-12
# ensemble-mean plateau x D must lie within PLATEAU_BIAS + PLATEAU_SIGMAS
# standard errors of 1; late-time S(t) points are nearly independent and
# exponentially distributed, so one point's relative standard error is 1
PLATEAU_BIAS = 0.05
PLATEAU_SIGMAS = 5.0
# GOE level statistics: the Poisson KS distance exceeds the GOE one by this factor
KS_RATIO = 3.0
# dense-expm OTOC against the eigenbasis OTOC, absolute
OTOC_EXPM_TOL = 1e-8
# trace identities, relative to D * max|E| (sum E) and sum E^2 (Frobenius)
TRACE_TOL = 1e-9
# replayed against CLI eigenvalues, relative to the spectral bandwidth
REPLAY_EIG_TOL = 1e-9


class CheckError(AssertionError):
    """A run tree violates a property the method guarantees."""


def split_seed(master_seed, index):
    """Per-realization seed as documented in cavsyk.ensemble.split_seed.

    First 8 bytes, little-endian, of SHA-256 over the little-endian 8-byte
    encodings of (master_seed mod 2**64, index).
    """
    payload = (int(master_seed) % 2**64).to_bytes(8, "little")
    payload += int(index).to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def read_csv(path):
    """Columns of a numeric CSV as a dict of float arrays."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


def load_manifest(run_dir):
    with open(Path(run_dir) / "manifest.json") as handle:
        return json.load(handle)


def _realization_dir(run_dir, index):
    return Path(run_dir) / "realizations" / f"r{index:04d}"


def check_seeds(manifest, master_seed):
    records = manifest["realizations"]
    if [r["index"] for r in records] != list(range(len(records))):
        raise CheckError("realization records are not indexed 0..R-1")
    for rec in records:
        expected = split_seed(master_seed, rec["index"])
        if rec["seed"] != expected:
            raise CheckError(
                f"realization {rec['index']}: seed {rec['seed']} != "
                f"SHA-256 recomputation {expected}"
            )


def check_eigenvalues(run_dir, index, dimension):
    values = read_csv(_realization_dir(run_dir, index) / "eigenvalues.csv")
    energies = values["eigenvalue"]
    if len(energies) != dimension:
        raise CheckError(
            f"realization {index}: {len(energies)} eigenvalues, "
            f"sector dimension is {dimension}"
        )
    if not np.all(np.isfinite(energies)):
        raise CheckError(f"realization {index}: non-finite eigenvalue")
    if np.any(np.diff(energies) < 0):
        raise CheckError(f"realization {index}: eigenvalues not ascending")


def check_sff_bounds(run_dir, index):
    s = read_csv(_realization_dir(run_dir, index) / "sff.csv")["s"]
    if s.min() < 0 or s.max() > 1 + SFF_BOUND_TOL:
        raise CheckError(
            f"realization {index}: S(t) spans [{s.min()}, {s.max()}], "
            "outside [0, 1]"
        )


def check_sff_plateau(run_dir, dimension, realizations):
    """The late-time mean form factor of a non-degenerate spectrum is 1/D.

    Both unfolding maps put the Heisenberg time at 2D, so t >= 5D lies on
    the plateau.
    """
    mean = read_csv(Path(run_dir) / "aggregates" / "sff_mean.csv")
    late = mean["t"] >= 5.0 * dimension
    if late.sum() < 10:
        raise CheckError("SFF grid does not reach the plateau (t >= 5D)")
    plateau = float(mean["s"][late].mean()) * dimension
    tolerance = PLATEAU_BIAS + PLATEAU_SIGMAS / math.sqrt(late.sum() * realizations)
    if abs(plateau - 1.0) > tolerance:
        raise CheckError(f"ensemble-mean plateau x D = {plateau:.4f}, not near 1")


def check_level_statistics(manifest):
    agg = manifest["aggregates"]
    if not agg["ks_poisson"] >= KS_RATIO * agg["ks_goe"]:
        raise CheckError(
            f"level statistics not GOE: ks_poisson {agg['ks_poisson']:.4g} < "
            f"{KS_RATIO} x ks_goe {agg['ks_goe']:.4g}"
        )


def check_otoc(run_dir, index):
    otoc = read_csv(_realization_dir(run_dir, index) / "otoc.csv")
    if otoc["t"][0] != 0.0 or otoc["re_f"][0] != 1.0 or otoc["im_f"][0] != 0.0:
        raise CheckError(
            f"realization {index}: F(0) = {otoc['re_f'][0]}+{otoc['im_f'][0]}j, "
            "not exactly 1"
        )
    magnitude = np.hypot(otoc["re_f"], otoc["im_f"])
    if magnitude.max() > 1 + OTOC_BOUND_TOL:
        raise CheckError(f"realization {index}: |F(t)| reaches {magnitude.max()}")


def check_run_tree(run_dir, master_seed):
    """Every check that needs only the run tree; returns its realization count.

    Which diagnostic checks apply follows from the resolved config in the
    manifest, so one function serves every workload.
    """
    manifest = load_manifest(run_dir)
    config = manifest["config"]
    check_seeds(manifest, master_seed)
    dimension = math.comb(config["n_modes"], config["n_particles"])
    ok = [r["index"] for r in manifest["realizations"] if r["ok"]]
    for index in ok:
        check_eigenvalues(run_dir, index, dimension)
        if config["compute_sff"]:
            check_sff_bounds(run_dir, index)
        if config["compute_otoc"]:
            check_otoc(run_dir, index)
    if ok and config["compute_sff"]:
        check_sff_plateau(run_dir, dimension, len(ok))
    if ok and config["compute_spacings"]:
        check_level_statistics(manifest)
    return len(manifest["realizations"])


def check_trace_identities(totals, eigenvalues):
    """Sum E = Tr H and Sum E^2 = ||H||_F^2 for each replayed realization."""
    for index, (trace_h, frobenius2) in enumerate(totals):
        energies = eigenvalues[index]
        scale = len(energies) * float(np.abs(energies).max())
        if abs(energies.sum() - trace_h) > TRACE_TOL * scale:
            raise CheckError(
                f"replay {index}: sum E = {energies.sum()!r} but Tr H = {trace_h!r}"
            )
        squares = float(np.sum(energies**2))
        if abs(squares - frobenius2) > TRACE_TOL * squares:
            raise CheckError(
                f"replay {index}: sum E^2 = {squares!r} but ||H||_F^2 = "
                f"{frobenius2!r}"
            )


def check_replay_matches(run_dir, eigenvalues):
    """The traced replay reproduces the CLI run's spectra."""
    for index, energies in enumerate(eigenvalues):
        stored = read_csv(_realization_dir(run_dir, index) / "eigenvalues.csv")
        stored = stored["eigenvalue"]
        if stored.shape != energies.shape:
            raise CheckError(f"replay {index}: spectrum length differs from run")
        bandwidth = float(stored[-1] - stored[0])
        gap = float(np.abs(stored - energies).max())
        if gap > REPLAY_EIG_TOL * bandwidth:
            raise CheckError(
                f"replay {index}: eigenvalues differ from the run by {gap:.3g}"
            )


def check_otoc_expm(run_dir, samples):
    """Realization 0's otoc.csv against F(t) from a dense matrix exponential.

    samples holds (row, t, Re F, Im F) with F computed from the replayed
    Hamiltonian as tr(W(t) V W(t) V) / D, W(t) = e^{iHt} W e^{-iHt}.
    """
    otoc = read_csv(_realization_dir(run_dir, 0) / "otoc.csv")
    for row, t, re_f, im_f in samples:
        row = int(row)
        if not math.isclose(otoc["t"][row], t, rel_tol=1e-15):
            raise CheckError(f"otoc.csv row {row} has t={otoc['t'][row]}, not {t}")
        gap = abs(complex(otoc["re_f"][row], otoc["im_f"][row]) - complex(re_f, im_f))
        if gap > OTOC_EXPM_TOL:
            raise CheckError(f"F({t:g}) differs from the dense expm value by {gap:.3g}")
