"""Ensemble runner tests: seeding, config handling, persistence, comparison.

Heavy physics is covered elsewhere; here the sectors are tiny (20 states)
so whole runs finish in well under a second and the focus is on plumbing:
deterministic seed derivation, bit-identical reruns, the skip-and-record
failure policy, aggregate bookkeeping, and the CLI exit codes.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavsyk
from cavsyk import cli
from cavsyk import ensemble as en
from cavsyk.errors import ExtractionError

import oracles


def gauss_config(**overrides):
    # C(8, 4) = 70 levels: the smallest sector the default polynomial
    # unfolding accepts, and still fast enough to rerun freely
    base = dict(
        model="syk_gauss_real",
        n_modes=8,
        n_particles=4,
        realizations=3,
        master_seed=11,
        otoc_t_min=0.1,
        otoc_t_max=10.0,
        otoc_points_per_decade=40,
        sff_t_min=0.5,
        sff_points_per_decade=40,
        workers=1,
    )
    base.update(overrides)
    return en.RunConfig(**base).validate()


def effective_config(**overrides):
    base = dict(
        model="effective",
        n_modes=8,
        n_particles=4,
        realizations=2,
        master_seed=4,
        delta_omega_tilde=0.1,
        zeta=1.0,
        cutoff=12,
        grid_diameter=10.0,
        grid_points=200,
        compute_otoc=False,
        sff_t_min=0.5,
        sff_points_per_decade=40,
        sff_unfold="linear",
        workers=1,
    )
    base.update(overrides)
    return en.RunConfig(**base).validate()


@pytest.fixture(scope="module")
def gauss_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gauss_run")
    config = gauss_config(output_dir=str(out))
    manifest = en.run_ensemble(config)
    return config, manifest, out


@pytest.fixture(scope="module")
def effective_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("effective_run")
    config = effective_config(output_dir=str(out))
    manifest = en.run_ensemble(config)
    return config, manifest, out


# ---------------------------------------------------------------------------
# seed derivation


def test_split_seed_anchor_value():
    assert en.split_seed(0, 0) == oracles.SPLIT_SEED_0_0
    assert oracles.split_seed_reference(0, 0) == oracles.SPLIT_SEED_0_0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_split_seed_matches_documented_construction(master, index):
    assert en.split_seed(master, index) == oracles.split_seed_reference(
        master, index
    )


def test_split_seed_scan_has_no_collisions():
    seeds = {en.split_seed(m, i) for m in range(100) for i in range(100)}
    assert len(seeds) == 100 * 100


def test_split_seed_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        en.split_seed(3, -1)


# ---------------------------------------------------------------------------
# config construction and validation


def test_config_roundtrips_through_json():
    config = gauss_config(sff_ramp_window=(2.0, 9.0), run_label="abc")
    text = json.dumps(config.to_dict(), sort_keys=True)
    again = en.RunConfig.from_dict(json.loads(text))
    assert again == config
    # windows come back from JSON as lists and must be re-tupled
    assert isinstance(again.sff_ramp_window, tuple)


def test_config_rejects_unknown_keys():
    data = gauss_config().to_dict()
    data["typo_field"] = 1
    with pytest.raises(ValueError, match="typo_field"):
        en.RunConfig.from_dict(data)


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(model="syk"), "model must be one of"),
        (dict(n_particles=9), "filling"),
        (dict(n_particles=-1), "filling"),
        (dict(realizations=0), "at least one realization"),
        (dict(master_seed=-2), "master_seed"),
        (dict(model="effective", delta_omega_tilde=0.0), "delta_omega_tilde"),
        (dict(model="effective", zeta=-1.0), "zeta"),
        (dict(model="effective", cutoff=-1), "cutoff"),
        (dict(model="effective", drive="chirp"), "unknown drive"),
        (dict(model="effective", grains_per_linear_dim=0.0), "grains"),
        (dict(model="effective", disorder_strength=-0.1), "disorder_strength"),
        (dict(model="syk_cauchy", gamma=0.0), "gamma"),
        (dict(model="syk_cauchy", mass_inside=1.0), "mass_inside"),
        (dict(otoc_mode_i=1, otoc_mode_j=1), "otoc modes"),
        (dict(sff_unfold="spline"), "sff_unfold"),
        (dict(extraction_threshold=0.0), "extraction_threshold"),
        (dict(sff_run_points=0), "sff_run_points"),
        (dict(sff_ramp_window=(5.0, 2.0)), "sff_ramp_window"),
        (dict(sff_plateau_window=(0.0, 2.0)), "sff_plateau_window"),
        (dict(sff_ramp_window=(1.0, 2.0, 3.0)), "sff_ramp_window"),
        (dict(otoc_mode_j=8), "otoc mode 8 out of range 0..7"),
        (dict(otoc_mode_i=-1), "otoc mode -1 out of range"),
        (dict(keep_fraction=0.0), "keep_fraction"),
        (dict(keep_fraction=1.5), "keep_fraction"),
        (dict(workers=0), "workers"),
        (dict(workers=-3), "workers"),
        (dict(sff_unfold="none"), "sff_unfold"),
    ],
)
def test_config_validation_rejects(overrides, match):
    with pytest.raises(ValueError, match=match):
        gauss_config(**overrides)


def test_run_ensemble_validates_config():
    bad = dataclasses.replace(gauss_config(), realizations=0)
    with pytest.raises(ValueError, match="at least one realization"):
        en.run_ensemble(bad)


def test_stop_time_defaults_to_twenty_sector_dimensions():
    config = gauss_config()
    assert config.sff_stop_time() == 20.0 * math.comb(8, 4)
    assert gauss_config(sff_t_max=123.0).sff_stop_time() == 123.0


def test_labels():
    assert effective_config().label() == "effective_N8_R2_dw0.1_s4"
    assert gauss_config().label() == "syk_gauss_real_N8_R3_s11"
    assert gauss_config(run_label="pilot").label() == "pilot"


def test_resolve_run_dir_precedence(monkeypatch, tmp_path):
    config = gauss_config(output_dir=str(tmp_path / "explicit"))
    assert en.resolve_run_dir(config) == tmp_path / "explicit"
    bare = gauss_config()
    monkeypatch.setenv("CAVSYK_OUTPUT_ROOT", str(tmp_path / "root"))
    assert en.resolve_run_dir(bare) == tmp_path / "root" / bare.label()
    monkeypatch.delenv("CAVSYK_OUTPUT_ROOT")
    assert en.resolve_run_dir(bare).parts[0] == "runs"


# ---------------------------------------------------------------------------
# run execution and persistence


def test_records_and_layout(gauss_run):
    config, manifest, out = gauss_run
    assert manifest.version == cavsyk.__version__
    assert not manifest.partial
    assert len(manifest.realizations) == config.realizations
    for index, record in enumerate(manifest.realizations):
        assert record["index"] == index
        assert record["seed"] == en.split_seed(config.master_seed, index)
        assert record["ok"]
        assert record["normalization"] > 0
        assert record["top_energy"] >= record["ground_energy"]
        assert 0.0 <= record["rho"] <= 1.0
        rdir = out / "realizations" / f"r{index:04d}"
        for name in ("eigenvalues.csv", "couplings.csv", "otoc.csv", "sff.csv"):
            assert (rdir / name).exists()
    assert (out / "manifest.json").exists()
    agg = manifest.aggregates
    assert agg["n_success"] == config.realizations
    assert agg["n_failed"] == 0
    for key in (
        "rho_mean", "rho_std", "t_star", "dip_time", "plateau_height",
        "t_ramp", "t_heisenberg", "ks_goe", "ks_poisson",
    ):
        assert key in agg
    for rel in agg["files"].values():
        assert (out / rel).exists()
    # three realizations of 70 levels, bulk fraction 0.8
    assert agg["pooled_spacing_count"] > 100


def test_eigenvalue_csv_round_trips_exactly(gauss_run):
    config, manifest, out = gauss_run
    lines = (out / "realizations/r0000/eigenvalues.csv").read_text().splitlines()
    dim = math.comb(config.n_modes, config.n_particles)
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == dim + 1
    # 17 significant digits reproduce the double exactly
    first = float(lines[1].split(",")[1])
    assert first == manifest.realizations[0]["ground_energy"]


def test_sff_grid_reaches_default_stop(gauss_run):
    config, _, out = gauss_run
    lines = (out / "realizations/r0000/sff.csv").read_text().splitlines()
    last_time = float(lines[-1].split(",")[0])
    assert abs(last_time - config.sff_stop_time()) < 1e-9 * config.sff_stop_time()


def test_manifest_load_round_trip(gauss_run):
    _, manifest, out = gauss_run
    loaded = en.load_manifest(out)
    assert loaded.config == manifest.config if isinstance(manifest.config, dict) else True
    assert loaded.aggregates == json.loads(json.dumps(manifest.aggregates))
    assert loaded.realizations == json.loads(json.dumps(manifest.realizations))
    assert loaded.version == manifest.version
    assert loaded.run_dir == str(out)
    # the same file is found when pointed at the manifest itself
    again = en.load_manifest(out / "manifest.json")
    assert again.aggregates == loaded.aggregates


def test_single_realization_aggregates_equal_the_realization(tmp_path):
    config = gauss_config(realizations=1, output_dir=str(tmp_path))
    manifest = en.run_ensemble(config)
    record = manifest.realizations[0]
    assert manifest.aggregates["rho_mean"] == record["rho"]
    assert manifest.aggregates["rho_std"] == 0.0
    # the mean over one realization is that realization, byte for byte
    assert (tmp_path / "aggregates/sff_mean.csv").read_bytes() == (
        tmp_path / "realizations/r0000/sff.csv"
    ).read_bytes()
    assert (tmp_path / "aggregates/otoc_mean.csv").read_bytes() == (
        tmp_path / "realizations/r0000/otoc.csv"
    ).read_bytes()


def test_rerun_is_bit_identical(gauss_run, tmp_path):
    config, _, out = gauss_run
    twin = dataclasses.replace(config, output_dir=str(tmp_path))
    en.run_ensemble(twin)
    originals = sorted(p.relative_to(out) for p in out.rglob("*.csv"))
    copies = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.csv"))
    assert originals == copies
    for rel in originals:
        assert (out / rel).read_bytes() == (tmp_path / rel).read_bytes(), rel
    first = json.loads((out / "manifest.json").read_text())
    second = json.loads((tmp_path / "manifest.json").read_text())
    for data in (first, second):
        data.pop("elapsed_seconds")
        data["config"].pop("output_dir")
    assert first == second


def test_parallel_matches_serial(tmp_path):
    serial_dir = tmp_path / "serial"
    pool_dir = tmp_path / "pool"
    base = gauss_config(
        realizations=4,
        master_seed=3,
        compute_otoc=False,
        output_dir=str(serial_dir),
    )
    en.run_ensemble(base)
    en.run_ensemble(
        dataclasses.replace(base, workers=2, output_dir=str(pool_dir))
    )
    for rel in sorted(p.relative_to(serial_dir) for p in serial_dir.rglob("*.csv")):
        assert (serial_dir / rel).read_bytes() == (pool_dir / rel).read_bytes(), rel
    first = json.loads((serial_dir / "manifest.json").read_text())
    second = json.loads((pool_dir / "manifest.json").read_text())
    assert first["aggregates"] == second["aggregates"]
    assert first["realizations"] == second["realizations"]


def test_failed_realization_is_recorded_and_skipped(tmp_path, monkeypatch):
    real = en._run_realization

    def flaky(config, statics, index):
        if index == 1:
            raise RuntimeError("synthetic failure")
        return real(config, statics, index)

    monkeypatch.setattr(en, "_run_realization", flaky)
    config = gauss_config(output_dir=str(tmp_path))
    manifest = en.run_ensemble(config)
    assert manifest.partial
    flags = [record["ok"] for record in manifest.realizations]
    assert flags == [True, False, True]
    assert manifest.realizations[1]["error"] == "RuntimeError: synthetic failure"
    assert manifest.realizations[1]["seed"] == en.split_seed(config.master_seed, 1)
    assert manifest.aggregates["n_success"] == 2
    assert manifest.aggregates["n_failed"] == 1
    assert not (tmp_path / "realizations" / "r0001").exists()
    assert (tmp_path / "realizations" / "r0002").exists()


def test_effective_model_run(effective_run):
    config, manifest, out = effective_run
    assert not manifest.partial
    agg = manifest.aggregates
    assert 0.0 <= agg["rho_mean"] <= 1.0
    assert agg["pooled_spacing_count"] > 0
    header = (out / "realizations/r0000/couplings.csv").read_text().splitlines()[0]
    # uniform drive: the tensor is real, so no imaginary column is emitted
    assert header == "i1,i2,j1,j2,re"
    n_pairs = 8 * 7 // 2
    rows = (out / "realizations/r0000/couplings.csv").read_text().splitlines()
    assert len(rows) == n_pairs**2 + 1
    # the two realizations see different speckle, hence different couplings
    other = (out / "realizations/r0001/couplings.csv").read_text()
    assert other != (out / "realizations/r0000/couplings.csv").read_text()


def test_complex_couplings_gain_an_imaginary_column(tmp_path):
    config = gauss_config(
        model="syk_gauss_complex",
        realizations=1,
        fit_rho=False,
        compute_otoc=False,
        compute_sff=False,
        compute_spacings=False,
        output_dir=str(tmp_path),
    )
    manifest = en.run_ensemble(config)
    assert not manifest.partial
    header = (tmp_path / "realizations/r0000/couplings.csv").read_text().splitlines()[0]
    assert header == "i1,i2,j1,j2,re,im"
    assert "rho" not in manifest.realizations[0]
    for key in ("t_star", "t_ramp", "ks_goe"):
        assert key not in manifest.aggregates


def test_disabled_outputs_are_absent(tmp_path):
    config = gauss_config(
        realizations=1,
        fit_rho=False,
        compute_otoc=False,
        compute_sff=False,
        compute_spacings=False,
        save_couplings=False,
        output_dir=str(tmp_path),
    )
    manifest = en.run_ensemble(config)
    rdir = tmp_path / "realizations" / "r0000"
    assert (rdir / "eigenvalues.csv").exists()
    for name in ("couplings.csv", "otoc.csv", "sff.csv"):
        assert not (rdir / name).exists()
    assert manifest.aggregates["files"] == {}


def test_cauchy_model_runs(tmp_path):
    config = gauss_config(
        model="syk_cauchy",
        realizations=1,
        compute_otoc=False,
        compute_sff=False,
        output_dir=str(tmp_path),
    )
    manifest = en.run_ensemble(config)
    assert not manifest.partial
    # heavy tails push the fitted Cauchy fraction up; just demand a sane fit
    assert 0.0 <= manifest.realizations[0]["rho"] <= 1.0


# ---------------------------------------------------------------------------
# comparison report


def fake_manifest(model, t_star, t_ramp, dw=None, t_heisenberg=40.0, **config):
    config.setdefault("model", model)
    if dw is not None:
        config.setdefault("delta_omega_tilde", dw)
    return {
        "config": config,
        "aggregates": {
            "t_star": t_star,
            "t_ramp": t_ramp,
            "t_heisenberg": t_heisenberg,
        },
    }


def test_compare_run_against_itself(gauss_run):
    _, manifest, _ = gauss_run
    report = en.compare_runs([manifest], manifest)
    row = report["runs"][0]
    assert row["model"] == "syk_gauss_real"
    if row["t_star"]:
        assert row["scrambling_ratio"] == 1.0
    if row["t_ramp"]:
        assert row["epsilon_r"] == 0.0


def test_compare_formulas():
    ref = fake_manifest("syk_gauss_real", t_star=2.0, t_ramp=100.0)
    run = fake_manifest("effective", t_star=4.0, t_ramp=130.0, dw=1.0)
    report = en.compare_runs([run], ref)
    row = report["runs"][0]
    assert row["scrambling_ratio"] == pytest.approx(0.5)
    assert row["epsilon_r"] == pytest.approx(0.3)
    assert report["reference"]["t_ramp"] == 100.0
    assert "alpha" not in report


def test_compare_fits_power_law_exactly():
    # eps_r = 0.5 * (1/dw)^(-0.58) by construction
    ref = fake_manifest("syk_gauss_real", t_star=2.0, t_ramp=100.0)
    runs = []
    for dw in (10.0, 1.0, 0.1):
        eps = 0.5 * (1.0 / dw) ** (-0.58)
        runs.append(
            fake_manifest("effective", t_star=3.0, t_ramp=100.0 * (1 + eps), dw=dw)
        )
    report = en.compare_runs(runs, ref)
    assert report["alpha"] == pytest.approx(0.58, abs=1e-12)
    assert report["alpha_stderr"] == pytest.approx(0.0, abs=1e-9)


def test_compare_skips_alpha_without_three_valid_points():
    ref = fake_manifest("syk_gauss_real", t_star=2.0, t_ramp=100.0)
    runs = [
        fake_manifest("effective", t_star=3.0, t_ramp=150.0, dw=10.0),
        fake_manifest("effective", t_star=3.0, t_ramp=120.0, dw=1.0),
        # extraction failure: no ramp time, hence no epsilon_r
        fake_manifest("effective", t_star=3.0, t_ramp=None, dw=0.1),
    ]
    report = en.compare_runs(runs, ref)
    assert "alpha" not in report
    assert "epsilon_r" not in report["runs"][2]


def test_compare_rejects_mismatched_extraction_settings():
    ref = fake_manifest("syk_gauss_real", 2.0, 100.0, sff_smooth_decades=0.15)
    run = fake_manifest("effective", 3.0, 120.0, dw=1.0, sff_smooth_decades=0.3)
    with pytest.raises(ValueError, match="sff_smooth_decades"):
        en.compare_runs([run], ref)
    ref = fake_manifest("syk_gauss_real", 2.0, 100.0, sff_run_points=3)
    run = fake_manifest("effective", 3.0, 120.0, dw=1.0, sff_run_points=5)
    with pytest.raises(ValueError, match="sff_run_points"):
        en.compare_runs([run], ref)


def test_compare_treats_window_lists_and_tuples_alike():
    ref = fake_manifest("syk_gauss_real", 2.0, 100.0, sff_ramp_window=(1.0, 9.0))
    run = fake_manifest(
        "effective", 3.0, 120.0, dw=1.0, sff_ramp_window=[1.0, 9.0]
    )
    report = en.compare_runs([run], ref)
    assert report["runs"][0]["epsilon_r"] == pytest.approx(0.2)


def test_comparison_csv(tmp_path):
    ref = fake_manifest("syk_gauss_real", t_star=2.0, t_ramp=100.0)
    run = fake_manifest("effective", t_star=4.0, t_ramp=130.0, dw=1.0)
    report = en.compare_runs([run, ref], ref)
    path = tmp_path / "table.csv"
    en.write_comparison_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("model,delta_omega_tilde,t_star")
    assert len(lines) == 3
    assert float(lines[1].split(",")[-1]) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# command line


def write_config(path, config):
    with open(path, "w") as handle:
        json.dump(config.to_dict(), handle)
    return str(path)


def test_cli_run_compare_export(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = gauss_config(output_dir=str(run_dir))
    config_path = write_config(tmp_path / "config.json", config)
    assert cli.main(["run", config_path]) == 0
    out = capsys.readouterr().out
    assert "realizations ok/failed: 3/0" in out
    assert (run_dir / "manifest.json").exists()

    assert cli.main(["compare", str(run_dir), str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "reference syk_gauss_real" in out

    assert cli.main(["export", str(run_dir)]) == 0
    out = capsys.readouterr().out
    figures = run_dir / "figures"
    for name in (
        "coupling_distribution.csv", "otoc.csv", "sff.csv", "spacing_density.csv",
    ):
        assert (figures / name).exists()
        assert name in out
    # exported pooled histogram is a normalized density over its support
    data = np.loadtxt(figures / "coupling_distribution.csv", delimiter=",", skiprows=1)
    width = data[1, 0] - data[0, 0]
    assert abs(data[:, 1].sum() * width - 1.0) < 0.05


def test_cli_seed_and_output_overrides(tmp_path, capsys):
    config = gauss_config(
        realizations=1,
        compute_otoc=False,
        compute_sff=False,
        compute_spacings=False,
        fit_rho=False,
        save_couplings=False,
    )
    config_path = write_config(tmp_path / "config.json", config)
    run_dir = tmp_path / "override"
    code = cli.main(
        ["run", config_path, "--seed", "5", "--output", str(run_dir)]
    )
    assert code == 0
    capsys.readouterr()
    manifest = en.load_manifest(run_dir)
    assert manifest.config["master_seed"] == 5
    assert manifest.realizations[0]["seed"] == en.split_seed(5, 0)


def test_cli_run_reports_config_errors(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main(["run", str(bad_json)]) == 2
    bad_field = tmp_path / "field.json"
    bad_field.write_text(json.dumps({"model": "nope"}))
    assert cli.main(["run", str(bad_field)]) == 2
    errors = capsys.readouterr().err
    assert errors.count("config error") == 3


def test_cli_run_rejects_out_of_range_otoc_mode(tmp_path, capsys):
    # an OTOC mode beyond the mode count is a config error, caught before
    # any realization runs
    config_path = tmp_path / "config.json"
    data = gauss_config(output_dir=str(tmp_path / "run")).to_dict()
    data["otoc_mode_j"] = 12
    config_path.write_text(json.dumps(data))
    assert cli.main(["run", str(config_path)]) == 2
    assert "otoc mode 12 out of range 0..7" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: effective_config(grid_points=20, cutoff=240, workers=2),
            "undersamples cavity mode family 21",
        ),
        (
            lambda: gauss_config(n_modes=22, n_particles=11, workers=2),
            "exceeds the dense-solver guard",
        ),
    ],
    ids=["resolution", "capacity"],
)
def test_cli_run_rejects_unbuildable_statics(tmp_path, capsys, build, message):
    # statics are built once in the parent before the run directory exists,
    # so a grid that cannot resolve the modes or an oversized sector is a
    # config error rather than a crashed worker pool
    config = dataclasses.replace(build(), output_dir=str(tmp_path / "run"))
    config_path = write_config(tmp_path / "config.json", config)
    assert cli.main(["run", config_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "run").exists()


def test_cli_run_partial_exit_code(tmp_path, monkeypatch, capsys):
    real = en._run_realization

    def flaky(config, statics, index):
        if index == 0:
            raise RuntimeError("boom")
        return real(config, statics, index)

    monkeypatch.setattr(en, "_run_realization", flaky)
    config = gauss_config(realizations=2, output_dir=str(tmp_path / "run"))
    config_path = write_config(tmp_path / "config.json", config)
    assert cli.main(["run", config_path]) == 1
    assert "ok/failed: 1/1" in capsys.readouterr().out


def test_cli_compare_reports_errors(tmp_path, capsys):
    assert cli.main(["compare", str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2
    assert "compare error" in capsys.readouterr().err


def test_cli_export_error_paths(tmp_path, capsys):
    assert cli.main(["export", str(tmp_path)]) == 2
    assert "no manifest" in capsys.readouterr().err
    config = gauss_config(
        realizations=1,
        fit_rho=False,
        compute_otoc=False,
        compute_sff=False,
        compute_spacings=False,
        save_couplings=False,
        output_dir=str(tmp_path / "bare"),
    )
    en.run_ensemble(config)
    assert cli.main(["export", str(tmp_path / "bare")]) == 1
    assert "nothing to export" in capsys.readouterr().out
