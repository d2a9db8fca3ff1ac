"""trdlab benchmark: one workload per invocation, timed end to end or traced
per layer.

    python3 perfbench/run.py --workload presets-1d --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` and every artifact goes to ``.perfbench_out/``. Jobs
run in this process, one after another, through ``trdlab.cli.main`` and
public module functions. A pass runs each job of the workload once;
passes repeat until ``--seconds`` have been measured. Every job is checked:
exit code 0, its invariants within the stepper's tolerances, and its
numbers within RTOL/ATOL of ``reference.json``.

``--trace 0`` prints the end-to-end metrics: set-up time in seconds, and
pass and job times in units of a fixed reference computation timed between
the jobs (see ``reference_unit``). ``--trace 1`` spends the first
half of ``--seconds`` on untraced passes, then wraps the package's layers
(see ``tracing.py``) and spends the second half on at least two traced
passes, printing the per-layer metrics and the tracing overhead. A traced
run also checks that every job's exact counters repeat between its traced
runs. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Artifacts may move by roundoff (an exact DCT in place of the sparse LU
# agrees with it to ~1e-14 per substep), never by a discretisation error.
RTOL = 1e-8
ATOL = 1e-10

SETUP_REPEATS = 9  # cold set-ups per run
SETUP_TIMEOUT_S = 120
P90_MIN_JOBS = 100  # ten samples beyond the 90th percentile

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (no package, set-up crashed)."""


@dataclass
class JobRecord:
    name: str
    seconds: float
    problems: list[str]
    max_abs_dev: float = 0.0
    max_tol_used: float = 0.0
    n_compared: int = 0
    cell_steps: int = 0
    artifact_bytes: int = 0
    span_lo: int = 0
    span_hi: int = 0
    counters: dict = field(default_factory=dict)


# -- checks ----------------------------------------------------------------


def compare(numbers: dict, reference: dict | None, record: JobRecord) -> None:
    """Match a job's numbers with its stored reference: integers, strings
    and booleans exactly, floats within ATOL + RTOL * |reference|."""
    if reference is None:
        record.problems.append("no stored reference for this job")
        return
    for key in sorted(set(reference) - set(numbers)):
        record.problems.append(f"{key}: missing from the outputs")
    for key, want in reference.items():
        if key not in numbers:
            continue
        got = numbers[key]
        record.n_compared += 1
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            dev = 0.0 if got == want else abs(got - want)
            tol = ATOL + RTOL * abs(want)
            record.max_abs_dev = max(record.max_abs_dev, dev)
            record.max_tol_used = max(record.max_tol_used, dev / tol)
            if not dev <= tol:
                record.problems.append(f"{key}: {got!r} differs from reference {want!r}")
        elif got != want:
            record.problems.append(f"{key}: {got!r} differs from reference {want!r}")


def run_job(job, reference: dict, tracer=None) -> JobRecord:
    out = OUT / "jobs" / job.name.replace(":", "_")
    shutil.rmtree(out, ignore_errors=True)
    traced = tracer is not None  # an empty Tracer is falsy (it has __len__)
    span = tracer.span("job." + job.kind) if traced else contextlib.nullcontext()
    span_lo = len(tracer) if traced else 0
    payload, error = None, None
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()):
            code, payload = job.execute(out)
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    record = JobRecord(job.name, seconds, [])
    if traced:
        record.span_lo, record.span_hi = span_lo, len(tracer)
        record.counters = dict(tracer.counters)
    if code != 0:
        record.problems.append(error or f"exit code {code}")
        return record
    try:
        numbers, problems = job.observe(out, payload)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        record.problems.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        return record
    record.problems.extend(problems)
    compare(numbers, reference.get(job.name), record)
    record.cell_steps = job.cell_steps(numbers)
    if out.is_dir():
        record.artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return record


# The reference unit: fixed work of the three kinds the workloads do
# (interpreted Python, small numpy arrays, 128x128 numpy arrays), timed
# before every job; it never calls trdlab. On a shared 2-vCPU Xeon VM the
# speed of one job swings by up to 1.9x in phases of seconds to minutes.
# Over eight 30-s windows of presets-1d passes there, the median pass time
# spread 0.27 (quartile distance / median) and the fastest pass 0.17,
# while the median pass over the median reference unit spread 0.04.
REF_SMALL = np.linspace(0.5, 1.5, 128)
REF_GRID = np.linspace(0.5, 1.5, 128 * 128).reshape(128, 128)


def reference_unit() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(5000):
        s += (i * 0.5) ** 0.5
    x = REF_SMALL
    for _ in range(100):
        x = np.maximum(0.999 * x + 0.001 * np.roll(x, 1), 0.0)
    y = REF_GRID
    for _ in range(10):
        y = 0.5 * (y + np.roll(y, 1, axis=0))
    return time.perf_counter() - t0


def run_passes(jobs, reference, seconds: float, tracer=None, min_passes=1):
    """Whole passes, as many as fit in `seconds` at the pace of the
    fastest pass so far, and at least `min_passes`, with a reference unit
    before every job. Returns (passes, reference unit times)."""
    passes, ref_times, fastest = [], [], math.inf
    t_start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t_start + fastest <= seconds:
        t0 = time.perf_counter()
        records = []
        for job in jobs:
            ref_times.append(reference_unit())
            records.append(run_job(job, reference, tracer))
        passes.append(records)
        fastest = min(fastest, time.perf_counter() - t0)
    return passes, ref_times


# -- end-to-end metrics ----------------------------------------------------


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    trdlab and build the workload's configs and initial fields."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe timed out after {SETUP_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def pass_seconds(passes) -> list[float]:
    return [sum(r.seconds for r in p) for p in passes]


def clock_info(passes) -> dict:
    """Pass and job times as a user's clock reads them, medians over the
    run, printed but not gated."""
    latencies = [r.seconds for p in passes for r in p]
    wall_s = statistics.median(pass_seconds(passes))
    return {
        "wall_s": wall_s,
        "job_s_p50": statistics.median(latencies),
        "cell_steps_per_s": sum(r.cell_steps for r in passes[0]) / wall_s,
        "fastest_pass_s": min(pass_seconds(passes)),
        "passes": len(passes),
        "jobs": len(latencies),
    }


def end_to_end(passes, ref_times, setup_s: float) -> dict:
    """The gated metrics. Pass and job times are medians over the run,
    divided by the median reference unit of the same run."""
    seconds = clock_info(passes)
    ref_s = statistics.median(ref_times)
    wall_ref = seconds["wall_s"] / ref_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall_ref, "ref"),
        "job_ref_p50": (seconds["job_s_p50"] / ref_s, "ref"),
        "cell_steps_per_ref": (sum(r.cell_steps for r in passes[0]) / wall_ref, "1/ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- per-layer metrics -----------------------------------------------------


def exact_counts(tracer, record: JobRecord, counters_before: dict) -> dict:
    """What must repeat exactly when the same job runs again: span calls
    per layer, counter increments and artifact bytes."""
    calls = {k: v["calls"] for k, v in tracer.totals(record.span_lo, record.span_hi).items()}
    delta = {k: v - counters_before.get(k, 0) for k, v in record.counters.items()}
    return {"calls": calls, "counters": delta, "artifact_bytes": record.artifact_bytes}


def check_repeats(tracer, records: list[JobRecord]) -> list[str]:
    """Compare each traced run of a job with its first traced run; a job
    that ran traced only once is a mismatch too. Returns the mismatches."""
    first: dict[str, dict] = {}
    seen: dict[str, int] = {}
    mismatches = []
    before: dict = {}
    for record in records:
        counts = exact_counts(tracer, record, before)
        before = record.counters
        seen[record.name] = seen.get(record.name, 0) + 1
        if record.name not in first:
            first[record.name] = counts
        elif counts != first[record.name]:
            mismatches.append(f"{record.name}: {counts} != {first[record.name]}")
    mismatches += [f"{name}: ran traced only once" for name, k in seen.items() if k < 2]
    return mismatches


def per_layer(tracer, traced, untraced) -> dict:
    lo, hi = traced[0][0].span_lo, traced[-1][-1].span_hi
    t = tracer.totals(lo, hi)
    n_pass = len(traced)
    counters = traced[-1][-1].counters

    def get(name, kind):
        return t.get(name, {}).get(kind, 0)

    steps = get("stepper.step", "calls")
    runs = get("runner.run_scenario", "calls")

    def per_step_us(name, kind="self"):
        return get(name, kind) / steps * 1e6 if steps else 0.0

    def per_run_ms(name, kind):
        return get(name, kind) / runs * 1e3 if runs else 0.0

    def per_pass(name, kind="incl", scale=1.0):
        return get(name, kind) / n_pass * scale

    untraced_wall = statistics.median(pass_seconds(untraced))
    traced_wall = statistics.median(pass_seconds(traced))
    return {
        "stepper.step_us": (per_step_us("stepper.step", "incl"), "us"),
        "stepper.diffusion_us": (per_step_us("stepper.diffusion"), "us"),
        "stepper.reaction_us": (per_step_us("stepper.reaction"), "us"),
        "stepper.guards_us": (per_step_us("stepper.run"), "us"),
        "stepper.newton_evals_per_step": (
            counters.get("stepper.newton_evals", 0) / steps if steps else 0.0,
            "count/step",
        ),
        "stepper.clamp_cells": (counters.get("stepper.clamp_cells", 0) / n_pass, "count"),
        "stepper.steps": (steps / n_pass, "count"),
        "diagnostics.dissipation_us": (per_step_us("diagnostics.dissipation"), "us"),
        "diagnostics.entropy_us": (per_step_us("diagnostics.entropy"), "us"),
        "diagnostics.accumulate_us": (per_step_us("diagnostics.accumulate"), "us"),
        "diagnostics.observe_us": (per_step_us("diagnostics.observe"), "us"),
        "diagnostics.records": (get("diagnostics.observe", "calls") / n_pass, "count"),
        "grid.gradient_energy_us": (per_step_us("grid.gradient_energy"), "us"),
        "runner.self_ms": (per_run_ms("runner.run_scenario", "self"), "ms"),
        "runner.artifact_bytes": (sum(r.artifact_bytes for p in traced for r in p) / n_pass, "count"),
        "config.load_ms": (per_run_ms("config.load", "incl"), "ms"),
        "picard.iterate_mp_s": (per_pass("picard.iterate_mp"), "s"),
        "picard.envelope_check_s": (per_pass("picard.envelope_check"), "s"),
        "picard.demo_s": (per_pass("job.picard-demo"), "s"),
        "kernel.mass_check_s": (per_pass("kernel.mass_check"), "s"),
        "kernel.semigroup_s": (per_pass("kernel.semigroup"), "s"),
        "kernel.gaussian_fit_s": (per_pass("kernel.gaussian_fit"), "s"),
        "kernel.smoothing_probe_s": (per_pass("kernel.smoothing_probe"), "s"),
        "bootstrap.replay_ms": (per_pass("bootstrap.replay", scale=1e3), "ms"),
        "bootstrap.chain_steps": (counters.get("bootstrap.chain_steps", 0) / n_pass, "count"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.absent_wrappers": (len(tracer.absent), "count"),
    }


# -- main ------------------------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def import_package():
    if not (SRC / "trdlab" / "cli.py").is_file():
        raise BenchError(f"no trdlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import trdlab

    if Path(trdlab.__file__).resolve().parent != (SRC / "trdlab").resolve():
        raise BenchError(f"imported trdlab from {trdlab.__file__}, not from {SRC}")


def summarize(records: list[JobRecord]) -> dict:
    failed = [r for r in records if r.problems]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "compared": sum(r.n_compared for r in records),
        "max_abs_dev": max(r.max_abs_dev for r in records),
        "max_tol_used": max(r.max_tol_used for r in records),
        "problems": [f"{r.name}: {p}" for r in failed for p in r.problems[:5]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    jobs = workloads.build_jobs(args.workload, args.seed, OUT / "inputs")
    env = environment()
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} inputs={json.dumps(workloads.draw_inputs(args.seed))}"
    )
    print("env " + json.dumps(env, sort_keys=True))

    counters_repeat, notes = True, []
    if args.trace == 0:
        try:
            setup_s = measure_setup(args.workload, args.seed)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        passes, ref_times = run_passes(jobs, reference, args.seconds)
        records = [r for p in passes for r in p]
        metrics = end_to_end(passes, ref_times, setup_s)
        n_jobs = len(records)
        info = {**clock_info(passes), "ref_s": statistics.median(ref_times)}
        notes.append("info " + json.dumps(info))
        if n_jobs >= P90_MIN_JOBS:
            p90 = statistics.quantiles([r.seconds for r in records], n=10, method="inclusive")[-1]
            notes.append(f"job_s_p90 {p90!r} s over {n_jobs} jobs")
        else:
            notes.append(f"job_s_p90 not reported: {n_jobs} jobs, {P90_MIN_JOBS} needed")
    else:
        untraced, _ = run_passes(jobs, reference, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _ = run_passes(jobs, reference, args.seconds / 2, tracer=tracer, min_passes=2)
        traced_records = [r for p in traced for r in p]
        records = [r for p in untraced for r in p] + traced_records
        mismatches = check_repeats(tracer, traced_records)
        counters_repeat = not mismatches
        notes.append(
            f"exact counters repeat for each of the {len(jobs)} jobs over {len(traced)} traced passes"
            if counters_repeat
            else "counter mismatch"
        )
        notes.extend(mismatches)
        if tracer.absent:
            notes.append("absent layers: " + ", ".join(tracer.absent))
        metrics = per_layer(tracer, traced, untraced)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(trace_file)
        notes.append(f"{len(tracer)} spans written to {trace_file.relative_to(ROOT)}")

    summary = summarize(records)
    notes.append(
        f"failed_frac {summary['failed_frac']!r} ({summary['failed']}/{summary['attempted']} jobs)"
    )
    notes.append(
        f"reference: {summary['compared']} numbers compared, max |dev| {summary['max_abs_dev']:.3e}, "
        f"max dev/tol {summary['max_tol_used']:.3e} (tol {ATOL:g} + {RTOL:g}*|ref|)"
    )
    notes.extend(summary["problems"][:20])
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    result = {
        "correct": summary["failed"] == 0 and counters_repeat and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
