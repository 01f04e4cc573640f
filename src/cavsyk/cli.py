"""Command-line front end: run ensembles, compare runs, export figure data.

Exit codes: 0 on success, 1 when a run completed partially (some
realizations failed) or an export found nothing to do, 2 for configuration
errors.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .ensemble import (
    RunConfig,
    compare_runs,
    load_manifest,
    run_ensemble,
    write_comparison_csv,
)
from .errors import CapacityError, ResolutionError


def _load_config(path, overrides):
    with open(path) as handle:
        data = json.load(handle)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(data)


def _cmd_run(args):
    overrides = {
        "master_seed": args.seed,
        "realizations": args.realizations,
        "workers": args.workers,
        "output_dir": args.output,
    }
    try:
        config = _load_config(args.config, overrides)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_ensemble(config)
    except (ResolutionError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    agg = manifest.aggregates
    print(f"run {config.label()} -> {manifest.run_dir}")
    print(
        f"  realizations ok/failed: {agg.get('n_success', 0)}/"
        f"{agg.get('n_failed', 0)}"
    )
    for key in (
        "rho_mean",
        "t_star",
        "t_ramp",
        "t_heisenberg",
        "plateau_height",
        "ks_goe",
        "ks_poisson",
    ):
        if agg.get(key) is not None:
            print(f"  {key} = {agg[key]:.6g}")
    return 1 if manifest.partial else 0


def _cmd_compare(args):
    try:
        reference = load_manifest(args.reference)
        runs = [load_manifest(p) for p in args.runs]
        report = compare_runs(runs, reference)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return 2
    print(
        f"reference {report['reference']['model']}: "
        f"t_star={report['reference']['t_star']} "
        f"t_ramp={report['reference']['t_ramp']}"
    )
    for row in report["runs"]:
        parts = [f"{row['model']}"]
        if row.get("delta_omega_tilde") is not None:
            parts.append(f"dw={row['delta_omega_tilde']:g}")
        for key in ("scrambling_ratio", "epsilon_r"):
            if row.get(key) is not None:
                parts.append(f"{key}={row[key]:.4g}")
        print("  " + "  ".join(parts))
    if "alpha" in report:
        print(
            f"alpha = {report['alpha']:.4g} +- {report['alpha_stderr']:.2g} "
            f"(eps_r vs 1/delta_omega_tilde)"
        )
    if args.csv:
        write_comparison_csv(report, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _pooled_coupling_histogram(run_dir, out_path):
    values = []
    for path in sorted(run_dir.glob("realizations/r*/couplings.csv")):
        with open(path) as handle:
            reader = csv.DictReader(handle)
            values.extend(float(row["re"]) for row in reader)
    if not values:
        return False
    arr = np.array(values)
    lo, hi = np.quantile(arr, [0.001, 0.999])
    density, edges = np.histogram(arr, bins=120, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["coupling", "density"])
        for c, d in zip(centers, density):
            writer.writerow([f"{c:.17g}", f"{d:.17g}"])
    return True


def _cmd_export(args):
    run_dir = Path(args.run)
    if not (run_dir / "manifest.json").exists():
        print(f"export error: no manifest in {run_dir}", file=sys.stderr)
        return 2
    out_dir = Path(args.into) if args.into else run_dir / "figures"
    out_dir.mkdir(parents=True, exist_ok=True)
    exported = []
    if _pooled_coupling_histogram(run_dir, out_dir / "coupling_distribution.csv"):
        exported.append("coupling_distribution.csv")
    for src, dst in (
        ("aggregates/otoc_mean.csv", "otoc.csv"),
        ("aggregates/sff_mean.csv", "sff.csv"),
        ("aggregates/spacing_hist.csv", "spacing_density.csv"),
    ):
        source = run_dir / src
        if source.exists():
            (out_dir / dst).write_bytes(source.read_bytes())
            exported.append(dst)
    if not exported:
        print("nothing to export (run had all diagnostics disabled?)")
        return 1
    for name in exported:
        print(f"wrote {out_dir / name}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavsyk",
        description="Disorder-ensemble simulator for cavity-mediated "
        "random two-body fermion models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run described by a JSON config")
    p_run.add_argument("config", help="path to the JSON run config")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument(
        "--realizations", type=int, help="override realization count"
    )
    p_run.add_argument("--workers", type=int, help="override worker count")
    p_run.add_argument("--output", help="override output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="benchmark runs against a reference manifest"
    )
    p_cmp.add_argument("reference", help="reference run directory or manifest")
    p_cmp.add_argument("runs", nargs="+", help="run directories or manifests")
    p_cmp.add_argument("--csv", help="write the comparison table here")
    p_cmp.add_argument("--json", help="write the full report here")
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("export", help="emit figure-ready CSVs from a run")
    p_exp.add_argument("run", help="run directory")
    p_exp.add_argument("--into", help="destination directory (default: run/figures)")
    p_exp.set_defaults(func=_cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
