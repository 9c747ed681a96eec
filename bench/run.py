"""Run one fractalspec benchmark workload and print its metrics.

    python3 bench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

Workloads: cli-batch, spectral, certify (see bench/README.md).  Run from
the root of a checkout; the program is imported from its src/ directory.

--trace 0 runs the workload's passes untraced and reports the end-to-end
metrics.  --trace 1 runs one untraced and one traced pass and reports the
per-layer metrics; the spans go to .bench_work/trace-<workload>-<seed>.jsonl.
In-process workloads first run one unmeasured warm-up pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it carry the
environment and a summary (all six end-to-end metrics with their units,
the tail percentile and sample count, and per-job medians).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 4
TAIL_BEYOND = 10


def cap_threads(nproc: int) -> dict[str, str]:
    """Limit BLAS/OpenMP pools to at most nproc, for this process and its
    children only; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(value, nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it,
    never below the median."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds in fresh interpreters; the first (warm-up) sample,
    which may compile bytecode, is dropped."""
    cmd = [sys.executable, str(BENCH / "probe_setup.py"), workload, str(seed), str(WORKDIR)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def run_pass(workload, tracer=None) -> tuple[list[float], list[str]]:
    """One pass over the job list: per-job wall times and failure notes.
    A job fails if it raises or fails its check; the pass goes on."""
    times, failures = [], []
    gc.collect()
    for job in workload.jobs:
        span = tracer.open(f"job.{job.name}") if tracer else None
        error = None
        t0 = perf_counter()
        try:
            out = job.run()
        except Exception:
            error = traceback.format_exc()
        times.append(perf_counter() - t0)
        if tracer:
            tracer.close(span, error=error is not None)
            workload.adopt_spans(tracer, span)
        if error:
            failures.append(f"{job.name}: raised\n{error}")
            continue
        try:
            job.check(out)
        except Exception as exc:
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return times, failures


def end_to_end(workload, setup: list[float], passes: int):
    """The untraced passes: end-to-end metrics, attempts, failures, summary."""
    import numpy

    pass_times, job_times, failures = [], [], []
    for _ in range(passes):
        times, failed = run_pass(workload)
        pass_times.append(sum(times))
        job_times.extend(times)
        failures.extend(failed)
    n = len(job_times)
    p_tail = tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "job_s.p50": (float(numpy.percentile(job_times, 50)), "s"),
        "job_s.tail": (float(numpy.percentile(job_times, p_tail)), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    names = [job.name for job in workload.jobs]
    summary = {
        "passes": passes,
        "jobs_per_pass": len(names),
        "metrics": {
            **{name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
            "failed_frac": {"value": len(failures) / n, "unit": "1"},
        },
        "job_s.tail_percentile": p_tail,
        "job_samples": n,
        "setup_samples_s": setup,
        "pass_samples_s": pass_times,
        "job_median_s": {name: statistics.median(job_times[i :: len(names)]) for i, name in enumerate(names)},
    }
    return metrics, n, failures, summary


def per_layer(workload, trace_path: Path):
    """One untraced and one traced pass: per-layer metrics, attempts,
    failures, summary.  The spans are written to trace_path."""
    import layers
    import tracer as tracing

    untraced, failures = run_pass(workload)
    tracer = tracing.Tracer()
    workload.trace_with(tracer)
    traced, failed = run_pass(workload, tracer)
    records = tracer.records()
    tracing.dump(records, trace_path)
    job_ids = {rec["id"] for rec in records if rec["parent"] is None and rec["name"].startswith("job.")}
    overhead = sum(traced) / sum(untraced) - 1.0
    values = layers.layer_metrics(records, job_ids, workload.artifact_bytes(), overhead)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    summary = {"untraced_pass_s": sum(untraced), "traced_pass_s": sum(traced), "trace": str(trace_path)}
    return metrics, len(untraced) + len(traced), failures + failed, summary


def environment(nproc: int, threads: dict, args) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": package_version("scipy"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-batch", "spectral", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "fractalspec" / "__init__.py").is_file():
        print(f"error: no fractalspec sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(exist_ok=True)

    import workloads

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    import fractalspec

    if not Path(fractalspec.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fractalspec imported from {fractalspec.__file__}, not {src}", file=sys.stderr)
        return 2

    if workload.warm_up:
        run_pass(workload)  # fills the allocator's heap and lazy caches; not measured
    if args.trace:
        trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        metrics, attempted, failures, summary = per_layer(workload, trace_path)
    else:
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        metrics, attempted, failures, summary = end_to_end(workload, setup, passes)

    for note in failures:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"environment": environment(nproc, threads, args)}))
    print(json.dumps({"summary": {"workload": args.workload, **summary}}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
