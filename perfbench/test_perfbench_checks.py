"""Each benchmark check rejects a run tree carrying one deliberate defect.

A small real run tree (Gaussian reference model, N=8, OTOC and SFF) is
written once; every test copies it, plants one defect and expects
CheckError.  The clean copy must pass, so no check is one that cannot
fail or one that cannot pass.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from cavsyk import RunConfig, run_ensemble  # noqa: E402

MASTER_SEED = 11


@pytest.fixture(scope="module")
def clean_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "clean"
    config = RunConfig(
        model="syk_gauss_real", n_modes=8, n_particles=4, realizations=2,
        master_seed=MASTER_SEED, fit_rho=False, compute_spacings=False,
        save_couplings=False, otoc_points_per_decade=10, sff_unfold="linear",
        workers=1, output_dir=str(out),
    )
    run_ensemble(config)
    return out


@pytest.fixture
def tree(clean_tree, tmp_path):
    copy = tmp_path / "tree"
    shutil.copytree(clean_tree, copy)
    return copy


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _set_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return lines


def test_clean_tree_passes(tree):
    assert checks.check_run_tree(tree, MASTER_SEED) == 2


def test_perturbed_otoc_at_zero_is_rejected(tree):
    path = tree / "realizations" / "r0001" / "otoc.csv"
    _edit_csv(path, lambda lines: _set_cell(lines, 1, 1, "0.99999999999999989"))
    with pytest.raises(checks.CheckError, match="F\\(0\\)"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_otoc_above_one_is_rejected(tree):
    path = tree / "realizations" / "r0000" / "otoc.csv"
    _edit_csv(path, lambda lines: _set_cell(lines, 5, 1, "1.01"))
    with pytest.raises(checks.CheckError, match="F\\(t\\)"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_sff_above_one_is_rejected(tree):
    path = tree / "realizations" / "r0000" / "sff.csv"
    _edit_csv(path, lambda lines: _set_cell(lines, 40, 1, "1.0000001"))
    with pytest.raises(checks.CheckError, match="outside \\[0, 1\\]"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_wrong_plateau_is_rejected(tree):
    path = tree / "aggregates" / "sff_mean.csv"
    doubled = checks.read_csv(path)
    _edit_csv(
        path,
        lambda lines: [lines[0]] + [
            f"{t:.17g},{2 * s:.17g}" for t, s in zip(doubled["t"], doubled["s"])
        ],
    )
    with pytest.raises(checks.CheckError, match="plateau"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_wrong_seed_is_rejected(tree):
    manifest = json.loads((tree / "manifest.json").read_text())
    manifest["realizations"][1]["seed"] += 1
    (tree / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckError, match="SHA-256"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_other_master_seed_is_rejected(tree):
    with pytest.raises(checks.CheckError, match="SHA-256"):
        checks.check_run_tree(tree, MASTER_SEED + 1)


def test_dropped_eigenvalue_is_rejected(tree):
    path = tree / "realizations" / "r0001" / "eigenvalues.csv"
    _edit_csv(path, lambda lines: lines[:-1])
    with pytest.raises(checks.CheckError, match="69 eigenvalues"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_unsorted_eigenvalues_are_rejected(tree):
    path = tree / "realizations" / "r0000" / "eigenvalues.csv"
    _edit_csv(path, lambda lines: [lines[0], lines[2], lines[1]] + lines[3:])
    with pytest.raises(checks.CheckError, match="ascending"):
        checks.check_run_tree(tree, MASTER_SEED)


def test_poisson_level_statistics_are_rejected():
    manifest = {"aggregates": {"ks_goe": 0.2, "ks_poisson": 0.02}}
    with pytest.raises(checks.CheckError, match="not GOE"):
        checks.check_level_statistics(manifest)


def test_trace_identities_reject_a_shifted_spectrum():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 30))
    h = a + a.T
    energies = np.linalg.eigvalsh(h)
    totals = [[float(np.trace(h)), float(np.sum(h**2))]]
    checks.check_trace_identities(totals, [energies])
    with pytest.raises(checks.CheckError, match="Tr H"):
        checks.check_trace_identities(totals, [energies + 1e-6])


def test_replay_mismatch_is_rejected(tree):
    stored = checks.read_csv(
        tree / "realizations" / "r0000" / "eigenvalues.csv"
    )["eigenvalue"]
    checks.check_replay_matches(tree, [stored])
    with pytest.raises(checks.CheckError, match="differ from the run"):
        checks.check_replay_matches(tree, [stored * (1 + 1e-6)])


def test_otoc_expm_mismatch_is_rejected(tree):
    otoc = checks.read_csv(tree / "realizations" / "r0000" / "otoc.csv")
    row = 7
    sample = [row, otoc["t"][row], otoc["re_f"][row], otoc["im_f"][row]]
    checks.check_otoc_expm(tree, [sample])
    sample[2] += 1e-6
    with pytest.raises(checks.CheckError, match="dense expm"):
        checks.check_otoc_expm(tree, [sample])


def test_split_seed_matches_the_package():
    from cavsyk import split_seed

    for master, index in [(0, 0), (7, 3), (2**63 + 5, 12)]:
        assert checks.split_seed(master, index) == split_seed(master, index)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    finished = run.Finished(1.0, 1.0, 1.0, 0)
    metrics = run.end_to_end_metrics([finished], [finished])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    span = {"counts": {}, "realization": 0, "parent": 0}
    trace = {
        "import_s": 0.1,
        "spans": [
            {**span, "id": 0, "name": "replay", "start": 0.0, "end": 1.0,
             "parent": None, "realization": None},
            {**span, "id": 1, "name": "fock.build_effective_hamiltonian",
             "start": 0.0, "end": 0.5, "counts": {"bytes": 8}},
            {**span, "id": 2, "name": "bench.warm_build", "start": 0.5,
             "end": 0.6},
            {**span, "id": 3, "name": "bench.serial_run", "start": 1.0,
             "end": 1.9, "parent": None, "realization": None},
        ],
    }
    metrics = run.layer_metrics(trace, finished, 10, 1)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
