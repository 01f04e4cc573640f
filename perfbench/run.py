"""Benchmark of the cavsyk ensemble runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the benchmark runs, for S seconds, round after round of:
one cold set-up (setup_probe.py in a fresh process), then `cavsyk run` on
the workload's shipped config in a fresh subprocess, with the same
realization count every round.  A round starts if it would end at most
half a round late.  Each round gets its own master seed, derived from the
workload name, N and the round number, and its run tree passes every check
in checks.py.  It prints the end-to-end metrics, each the median over
rounds.

With --trace 1 it runs one untraced round, then replay.py, which replays
the same realizations stage by stage in a traced subprocess and times
run_ensemble with one worker after it.  It checks the replay against the
run tree and prints the per-layer metrics.  S does not apply.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment fingerprint.  Run trees and traces go to perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
# a run must end within 180 s; no child may outlive this budget
BUDGET_S = 170.0
MB = 1e6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    config: str
    realizations: int
    workers: int | None  # None: the CLI default, one worker per CPU
    blas_threads: int | None  # None: thread variables unset, BLAS default


WORKLOADS = {
    "sff_n12_default": Workload(
        "configs/sff_effective_n12_dw0p1.json", 16, None, 1
    ),
    "otoc_n10_reference": Workload("configs/otoc_syk_n10.json", 4, 1, 1),
    "sff_n14_threaded": Workload(
        "configs/n14_paper_scale/sff_effective_dw1.json", 1, 1, None
    ),
}

@dataclass(frozen=True)
class Finished:
    """A child process from launch to exit, with the rusage of its tree."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env(workload):
    """This process's environment with the workload's BLAS thread setting."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if workload.blas_threads is not None:
        env.update({var: str(workload.blas_threads) for var in THREAD_VARS})
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source, os.environ.get("PYTHONPATH")) if p
    )
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv, env, log, deadline, exit_codes=(0,)):
    """Run argv to exit in its own process group; kill it at the deadline.

    An exit code outside exit_codes raises with the tail of the log.

    os.wait4 reports the rusage of the child and of every descendant it
    reaped (the CLI joins its pool workers), so cpu_s covers the workers
    and ru_maxrss is the largest resident set of any process of the run.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark time budget exhausted")
    with open(log, "w") as handle:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in exit_codes:
        tail = Path(log).read_text()[-2000:]
        raise RuntimeError(f"{argv[1:4]} exited with {proc.returncode}:\n{tail}")
    return Finished(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB,
        proc.returncode,
    )


def master_seed(workload_name, seed, round_index):
    text = f"perfbench/{workload_name}/{seed}/{round_index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def cli_round(name, workload, master, run_dir, deadline):
    """One `cavsyk run` of the workload; returns (Finished, attempted, failed)."""
    argv = [
        sys.executable, "-m", "cavsyk.cli", "run", workload.config,
        "--realizations", str(workload.realizations),
        "--seed", str(master), "--output", str(run_dir),
    ]
    if workload.workers is not None:
        argv += ["--workers", str(workload.workers)]
    # exit code 1: some realizations failed and were recorded
    done = launch(
        argv, child_env(workload), run_dir.with_suffix(".log"), deadline, (0, 1)
    )
    attempted = checks.check_run_tree(run_dir, master)
    aggregates = checks.load_manifest(run_dir)["aggregates"]
    failed = aggregates["n_failed"]
    if attempted != workload.realizations or (done.returncode == 1) != (failed > 0):
        raise checks.CheckError(
            f"{name}: exit code {done.returncode} with "
            f"{aggregates['n_success']}/{failed} ok/failed of {attempted}"
        )
    return done, attempted, failed


def end_to_end_metrics(setups, rounds):
    """Medians over the rounds' cold set-up probes and CLI runs."""
    return {
        "setup_s": statistics.median(p.wall_s for p in setups),
        "run_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }


def run_end_to_end(name, workload, seed, seconds, work, deadline):
    env = child_env(workload)
    setups, rounds, attempted, failed = [], [], 0, 0
    started = time.monotonic()
    while True:
        # a probe in every round samples the host's speed as the runs do
        setups.append(launch(
            [sys.executable, "perfbench/setup_probe.py", workload.config],
            env, work / "setup.log", deadline,
        ))
        run_dir = work / f"round{len(rounds)}"
        done, n, bad = cli_round(
            name, workload, master_seed(name, seed, len(rounds)), run_dir, deadline
        )
        shutil.rmtree(run_dir)
        rounds.append(done)
        attempted += n
        failed += bad
        # start another round while it would end at most half a round late
        typical = statistics.median(
            p.wall_s + r.wall_s for p, r in zip(setups, rounds)
        )
        if time.monotonic() - started + typical / 2 > seconds:
            break
    print(f"{name}: {len(rounds)} rounds, run_s " + " ".join(
        f"{r.wall_s:.3f}" for r in rounds) + ", setup_s " + " ".join(
        f"{p.wall_s:.3f}" for p in setups), file=sys.stderr)
    return end_to_end_metrics(setups, rounds), attempted, failed


def self_times(spans):
    """Span duration minus the time its (sequential) children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace, cli, cli_bytes, workers):
    """Per-layer numbers from the spans, named module.stage.

    Per-realization stages report the median over realizations, static and
    aggregate stages their single value; a stage the workload does not run
    reports 0.  The serial run follows the replay in its process, with the
    contraction plan cached, so the stage sum it is compared with leaves the
    plan out.  The tracer's cost is the traced realizations and extraction
    (less their bench.* children and the plan) minus their untraced twins,
    each run next to its traced one in the same process.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    per_stage = {}
    for s in spans:
        key = (s["name"], s["realization"])
        per_stage[key] = per_stage.get(key, 0.0) + own[s["id"]]

    def stage(name):
        values = [v for (n, _), v in per_stage.items() if n == name]
        return statistics.median(values) if values else 0.0

    def count(name, key):
        return next((s["counts"][key] for s in spans if s["name"] == name), 0)

    plan = (
        per_stage[("fock.build_effective_hamiltonian", 0)]
        - per_stage[("bench.warm_build", 0)]
    )
    warm_builds = [per_stage[("bench.warm_build", 0)]] + [
        v for (n, r), v in per_stage.items()
        if n == "fock.build_effective_hamiltonian" and r != 0
    ]

    def total(chosen):
        return sum(s["end"] - s["start"] for s in chosen)

    bench = [s for s in spans if s["name"].startswith("bench.")]
    bench_s = total(bench)
    traced_s = (
        total(s for s in spans if s["name"] in ("realization", "diagnostics.extract"))
        - total(
            s for s in bench
            if s["parent"] is not None and by_id[s["parent"]]["name"] == "realization"
        )
        - plan
    )
    untraced_s = total(s for s in bench if s["name"] == "bench.untraced")
    serial_run_s = stage("bench.serial_run")
    root = next(s for s in spans if s["name"] == "replay")
    stage_sum = root["end"] - root["start"] - (bench_s - serial_run_s) - plan
    gflop = count("couplings.compute_integrals", "flop") / 1e9
    integrals_s = stage("couplings.compute_integrals")
    otoc_points = count("diagnostics.compute_otoc", "points")
    metrics = {
        "cli.import_s": trace["import_s"],
        "grids.solve_trap_modes_s": stage("grids.solve_trap_modes"),
        "grids.cavity_mode_set_s": stage("grids.cavity_mode_set"),
        "grids.cavity_modes_mb": count("grids.cavity_mode_set", "bytes") / MB,
        "disorder.generate_speckle_s": stage("disorder.generate_speckle"),
        "disorder.detuning_ratio_s": stage("disorder.detuning_ratio"),
        "couplings.compute_integrals_s": integrals_s,
        "couplings.integrals_gflop": gflop,
        "couplings.integrals_gflops": gflop / integrals_s if integrals_s else 0.0,
        "couplings.compute_coupling_tensor_s": stage(
            "couplings.compute_coupling_tensor"
        ),
        "couplings.normalize_couplings_s": stage("couplings.normalize_couplings"),
        "couplings.fit_pseudo_voigt_s": stage("couplings.fit_pseudo_voigt"),
        "fock.enumerate_sector_s": stage("fock.enumerate_sector"),
        "fock.contraction_plan_s": plan,
        "fock.sample_syk_gaussian_s": stage("fock.sample_syk_gaussian"),
        "fock.build_effective_hamiltonian_s": statistics.median(warm_builds),
        "fock.hamiltonian_mb": count("fock.build_effective_hamiltonian", "bytes") / MB,
        "fock.diagonalize_s": stage("fock.diagonalize"),
        "diagnostics.compute_otoc_s": stage("diagnostics.compute_otoc"),
        "diagnostics.otoc_points": otoc_points,
        "diagnostics.otoc_s_per_point": (
            stage("diagnostics.compute_otoc") / otoc_points if otoc_points else 0.0
        ),
        "diagnostics.compute_sff_s": stage("diagnostics.compute_sff"),
        "diagnostics.sff_points": count("diagnostics.compute_sff", "points"),
        "diagnostics.unfold_s": stage("diagnostics.unfold"),
        "diagnostics.unfolded_spacings_s": stage("diagnostics.unfolded_spacings"),
        "diagnostics.extract_s": stage("diagnostics.extract"),
        "ensemble.serial_run_s": serial_run_s,
        "ensemble.stage_sum_s": stage_sum,
        "ensemble.overhead_s": serial_run_s - stage_sum,
        "ensemble.output_bytes": cli_bytes,
        "ensemble.worker_efficiency": serial_run_s / (workers * cli.wall_s),
        "trace.overhead_s": traced_s - untraced_s,
    }
    return metrics


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_traced(name, workload, seed, work, deadline):
    env = child_env(workload)
    master = master_seed(name, seed, 0)
    run_dir = work / "round0"
    cli, attempted, failed = cli_round(name, workload, master, run_dir, deadline)
    launch(
        [sys.executable, "perfbench/replay.py", workload.config,
         "--master-seed", str(master),
         "--realizations", str(workload.realizations), "--out", str(work)],
        env, work / "trace.log", deadline,
    )
    with open(work / "trace.json") as handle:
        trace = json.load(handle)
    eigenvalues = np.load(work / "eigenvalues.npy")
    checks.check_trace_identities(trace["checks"]["totals"], eigenvalues)
    checks.check_replay_matches(run_dir, eigenvalues)
    if "otoc_expm" in trace["checks"]:
        checks.check_otoc_expm(run_dir, trace["checks"]["otoc_expm"])
    checks.check_run_tree(work / "serial_run", master)
    attempted += 2 * workload.realizations
    failed += trace["serial_failed"]
    metrics = layer_metrics(
        trace, cli, tree_bytes(run_dir), workload.workers or os.cpu_count()
    )
    shutil.copy(work / "trace.json", OUT / f"trace_{name}_s{seed}.json")
    return metrics, attempted, failed


def fingerprint(name, workload):
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    env = child_env(workload)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": name,
        "workers": workload.workers or os.cpu_count(),
        "blas_threads": env.get("OPENBLAS_NUM_THREADS", "unset (BLAS default)"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    workload = WORKLOADS[args.workload]

    needed = (ROOT / "src" / "cavsyk" / "cli.py", ROOT / workload.config)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}_s{args.seed}_t{args.trace}_p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(
                args.workload, workload, args.seed, work, deadline
            )
        else:
            metrics, attempted, failed = run_end_to_end(
                args.workload, workload, args.seed, args.seconds, work, deadline
            )
        correct = True
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        metrics, attempted, failed, correct = {}, 1, 0, False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = fingerprint(args.workload, workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }
    with open(OUT / f"result_{args.workload}_s{args.seed}_t{args.trace}.json",
              "w") as handle:
        json.dump({"environment": env, **result}, handle, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
