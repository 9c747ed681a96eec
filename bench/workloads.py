"""The benchmark's three workloads: fixed job lists, each job with a check.

Every workload is closed-loop: one client runs one job at a time.  The seed
changes input values (probe seeds, Fourier sample points, generated digit
systems, round-trip coefficients) but never input sizes, so pass times stay
comparable across seeds.  fractalspec functions are looked up on the
package or module at call time, never bound by name here, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# relative to ROOT, the working directory of every CLI process, so that the
# artifacts (which echo the path) do not depend on where the checkout is
SYSTEM_FILES = {name: f"bench/systems/{name}.json" for name in ("cantor4", "quad2d")}

BESSEL_SLACK = 1e-9
TAIL_TOL = 1e-12
ROUNDTRIP_TOL = 1e-6


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


def expect(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class InProcess:
    """Jobs that call the library inside the benchmark process.

    A long-lived process that keeps the library loaded pays first-touch
    page faults and lazy set-up once, so the first pass (about 15% slower)
    is a warm-up and is not measured."""

    warm_up = True

    def __init__(self, fs, jobs: list[Job], nominal_pass_s: float):
        self.fs = fs
        self.jobs = jobs
        self.nominal_pass_s = nominal_pass_s

    def trace_with(self, tracer) -> None:
        import layers

        tracer.install(layers.targets(self.fs))

    def adopt_spans(self, tracer, job_span) -> None:
        """Spans of in-process jobs are recorded directly."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def artifact_bytes(self) -> int:
        return 0


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    stderr: bytes


class CliBatch:
    """Jobs that each run one whole `fractalspec <cmd>` process.  Every
    process starts cold, as a user's does, so there is no warm-up pass."""

    warm_up = False

    def __init__(self, workdir: Path, nominal_pass_s: float):
        self.workdir = workdir
        self.nominal_pass_s = nominal_pass_s
        self.jobs: list[Job] = []
        self.tracer = None
        self.peak_kb = 0
        self.bytes_out = 0
        self._digests: dict[tuple, str] = {}

    def trace_with(self, tracer) -> None:
        self.tracer = tracer
        self.bytes_out = 0

    def adopt_spans(self, tracer, job_span) -> None:
        """Attach the last process's spans under its job span; run after the
        job's timing ends, so the transfer is not counted as job time."""
        import tracer as tracing

        path = self.workdir / "cli.spans"
        if not path.exists():
            return
        rows = tracing.load_rows(path)
        # perf_counter is CLOCK_MONOTONIC, shared by all processes, so the
        # interpreter's start-up and exit are the gaps between the job span
        # and the process's own top-level spans
        roots = [row for row in rows if row[1] is None]
        if not roots:
            return
        first, last = min(row[3] for row in roots), max(row[4] for row in roots)
        for name, start, end in (("cli.startup", job_span.start, first), ("cli.exit", last, job_span.end)):
            rows.append((len(rows), None, name, start, end, end - start, None, False))
        tracer.adopt(rows, job_span)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def artifact_bytes(self) -> int:
        return self.bytes_out

    def add(self, name: str, argv: list[str], code: int, verify: Callable[[bytes], None]) -> None:
        def check(out: CliOutput) -> None:
            expect(out.code == code, f"exit code {out.code}, expected {code}: {out.stderr[-300:]!r}")
            verify(out.stdout)
            digest = hashlib.sha256(out.stdout).hexdigest()
            first = self._digests.setdefault(tuple(argv), digest)
            expect(first == digest, "a repeat of the same command gave different bytes")

        self.jobs.append(Job(name, lambda: self._run(argv), check))

    def _run(self, argv: list[str]) -> CliOutput:
        out_path = self.workdir / "cli.stdout"
        err_path = self.workdir / "cli.stderr"
        spans_path = self.workdir / "cli.spans"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fractalspec.cli", *argv]
        else:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        stdout = out_path.read_bytes()
        self.bytes_out += len(stdout)
        return CliOutput(proc.returncode, stdout, err_path.read_bytes())


# ---------------------------------------------------------------------------
# shared inputs and checks


def _systems(fs):
    cantor4 = fs.load_system(ROOT / SYSTEM_FILES["cantor4"])
    quad2d = fs.load_system(ROOT / SYSTEM_FILES["quad2d"])
    return cantor4, quad2d


def _unit_grid(step: float, d: int) -> np.ndarray:
    axis = np.arange(0.0, 1.0 + step / 2, step)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_table(result, size: int, exact: bool) -> None:
    max_off, table = result
    expect(table.shape == (size, size), f"table shape {table.shape}, expected {size}x{size}")
    expect(np.all(np.diag(table) == 1.0), "diagonal of the orthogonality table is not 1")
    if exact:
        expect(max_off == 0.0, f"max_offdiag {max_off!r} is not exactly 0 on a dyadic integral system")
    else:
        expect(max_off <= 1e-12, f"max_offdiag {max_off!r} above 1e-12")


def _check_scan(report, first_depth: int) -> None:
    expect(report.max_Q <= 1.0 + BESSEL_SLACK, f"max_Q {report.max_Q!r} breaks the Bessel bound")
    expect(report.depths and report.depths[0] == first_depth, f"scan depths {report.depths}")
    trace = np.asarray(report.min_trace)
    expect(np.all(np.diff(trace) >= -1e-12), "min Q decreased with depth")
    expect(report.status == "complete-evidence", f"status {report.status!r}")


def _check_certificate(cert, certified: bool | None = None) -> None:
    hypotheses = (
        cert.hadamard_deviation <= 1e-9 and cert.zero_in_l and cert.l_spans and cert.gamma_bound < 1.0
    )
    expect(cert.basis_certified == hypotheses, "certificate verdict disagrees with its hypotheses")
    if certified is not None:
        expect(cert.basis_certified == certified, f"basis_certified is {cert.basis_certified}")
    if cert.empirical_max_ratio is not None:
        expect(
            cert.empirical_max_ratio <= cert.gamma_bound,
            f"probe ratio {cert.empirical_max_ratio!r} above gamma_bound {cert.gamma_bound!r}",
        )


def _check_sweep(report, first: int) -> None:
    for r, gamma, certified in report.rows:
        expect(certified == (gamma < 1.0), f"sweep row r={r}: certified={certified}, gamma={gamma}")
    expect(report.first_certified == first, f"first_certified {report.first_certified}, expected {first}")


def _check_classify(verdict, predicted: str) -> None:
    expect(verdict.predicted == predicted, f"predicted {verdict.predicted!r}, expected {predicted!r}")
    expect(verdict.consistent, "classify verdict is inconsistent")
    if predicted == "no-basis":
        expect(verdict.max_clique_size == 2, f"odd-R clique size {verdict.max_clique_size}, expected 2")
    else:
        _check_certificate(verdict.certificate, certified=True if predicted == "basis" else None)


def _check_roundtrip(report) -> None:
    expect(report.recon_error <= ROUNDTRIP_TOL, f"recon_error {report.recon_error!r}")
    expect(report.parseval_defect <= ROUNDTRIP_TOL, f"parseval_defect {report.parseval_defect!r}")


def _check_tiling(report, samples: int) -> None:
    expect(report.uniform and not report.truncated, "tiling is not uniform over the whole window")
    expect(report.multiplicities.size == samples, "wrong number of tiling samples")


def _check_fourier(values, tails, rows: int) -> None:
    expect(values.shape == (rows,) and tails.shape == (rows,), "wrong number of Fourier values")
    expect(np.all(tails <= TAIL_TOL), f"Fourier tail bound {tails.max()!r} above {TAIL_TOL}")
    expect(np.all(np.abs(values) <= 1.0 + TAIL_TOL), "|mu-hat| above 1")


# ---------------------------------------------------------------------------
# spectral: the trig kernel, fourier_mu_many and the spectrum layer


def spectral(seed: int, workdir: Path) -> InProcess:
    import fractalspec as fs

    rng = np.random.default_rng(seed)
    cantor4, quad2d = _systems(fs)
    m4, mq = fs.FractalMeasure(cantor4), fs.FractalMeasure(quad2d)
    grid4, grid2d = _unit_grid(0.01, 1), _unit_grid(0.1, 2)
    # the largest |t| sets the product depth; pin it so the work is fixed
    points = rng.uniform(-64.0, 64.0, size=(100_000, 1))
    points[0, 0] = 64.0
    spec_hardy = fs.enumerate_spectrum(cantor4, 2)
    coeffs = {
        float(lam): complex(re, im)
        for lam, (re, im) in zip(spec_hardy.elements[:, 0], rng.normal(size=(spec_hardy.size, 2)))
    }

    def table(m, sys, depth):
        return lambda: fs.orthogonality_matrix(m, fs.enumerate_spectrum(sys, depth))

    jobs = [
        Job("orthogonality.cantor4.d7", table(m4, cantor4, 7), lambda r: _check_table(r, 256, exact=True)),
        Job("orthogonality.cantor4.d8", table(m4, cantor4, 8), lambda r: _check_table(r, 512, exact=True)),
        Job("orthogonality.quad2d.d3", table(mq, quad2d, 3), lambda r: _check_table(r, 256, exact=True)),
        Job(
            "completeness.cantor4.d2",
            lambda: fs.completeness_scan(m4, fs.enumerate_spectrum(cantor4, 2), grid4, target=0.99),
            lambda r: _check_scan(r, 2),
        ),
        Job(
            "completeness.quad2d.d1",
            lambda: fs.completeness_scan(
                mq, fs.enumerate_spectrum(quad2d, 1), grid2d, target=0.99, max_depth=4
            ),
            lambda r: _check_scan(r, 1),
        ),
        Job("classify.R2.a1/4", lambda: fs.dim_one_classify(2, 0.25), lambda r: _check_classify(r, "outside-theorem")),
        Job("classify.R4.a1/2", lambda: fs.dim_one_classify(4, 0.5), lambda r: _check_classify(r, "basis")),
        Job(
            "fourier_mu_many.cantor4.1e5",
            lambda: fs.fourier_mu_many(m4, points),
            lambda r: _check_fourier(*r, rows=points.shape[0]),
        ),
        Job(
            "hardy.cantor4.q18",
            lambda: fs.hardy_roundtrip(m4, spec_hardy, coeffs, depth=18),
            _check_roundtrip,
        ),
    ]
    return InProcess(fs, jobs, nominal_pass_s=12.5)


# ---------------------------------------------------------------------------
# certify: many small systems through ruelle, set-up and the verify layer

# (N, spectrum depth of the orthogonality table) per generated system
GENERATED = ((2, 4), (3, 2), (4, 1), (5, 1), (3, 2))


def _hadamard_triple(fs, rng, n: int):
    """1-D Hadamard triple R = N k, B = {0..N-1}/N, L = {0..N-1} + N * lift."""
    k = int(rng.integers(2, 4))
    lift = np.concatenate([[0], rng.integers(0, 2, n - 1)])
    return fs.make_system(float(n * k), np.arange(n) / n, np.arange(n) + n * lift)


def certify(seed: int, workdir: Path) -> InProcess:
    import fractalspec as fs

    rng = np.random.default_rng(seed)
    cantor4, quad2d = _systems(fs)
    m4, mq = fs.FractalMeasure(cantor4), fs.FractalMeasure(quad2d)
    probe_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    generated = [(_hadamard_triple(fs, rng, n), n, depth) for n, depth in GENERATED]

    def generated_job(sys, depth):
        def run():
            m = fs.FractalMeasure(sys)
            return fs.basis_certificate(m), fs.orthogonality_matrix(m, fs.enumerate_spectrum(sys, depth))

        return run

    def generated_check(n, depth):
        def check(result):
            cert, table = result
            _check_certificate(cert)
            expect(cert.hadamard_deviation <= 1e-12, f"digit matrix deviation {cert.hadamard_deviation!r}")
            _check_table(table, n ** (depth + 1), exact=(n & (n - 1)) == 0)

        return check

    jobs = [
        Job("sweep.quad2d.r16", lambda: fs.scaling_sweep(quad2d, 16), lambda r: _check_sweep(r, 3)),
        Job("sweep.cantor4.r8", lambda: fs.scaling_sweep(cantor4, 8), lambda r: _check_sweep(r, 1)),
        Job(
            "certificate.cantor4.probes20",
            lambda: fs.basis_certificate(m4, trials=20, seed=probe_seeds[0]),
            lambda r: _check_certificate(r, certified=True),
        ),
        Job(
            "certificate.quad2d.probes5",
            lambda: fs.basis_certificate(mq, trials=5, seed=probe_seeds[1]),
            lambda r: _check_certificate(r, certified=False),
        ),
    ]
    for R in (3, 5, 7):
        jobs.append(Job(f"classify.R{R}", lambda R=R: fs.dim_one_classify(R, 0.5), lambda r: _check_classify(r, "no-basis")))
    for R in (6, 8):
        jobs.append(Job(f"classify.R{R}", lambda R=R: fs.dim_one_classify(R, 0.5), lambda r: _check_classify(r, "basis")))
    jobs.append(
        Job(
            "tiling.cantor4.d3",
            lambda: fs.tiling_multiplicity(3, (-40.0, 20.0), samples=100_000, sys=cantor4),
            lambda r: _check_tiling(r, 100_000),
        )
    )
    for i, (sys, n, depth) in enumerate(generated):
        jobs.append(Job(f"generated.{i}.N{n}", generated_job(sys, depth), generated_check(n, depth)))
    return InProcess(fs, jobs, nominal_pass_s=6.0)


# ---------------------------------------------------------------------------
# cli-batch: whole processes, import and emit included


def _csv_rows(raw: bytes) -> list[list[str]]:
    lines = [line for line in raw.decode().splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def _verify_certify(certified: bool, probes: bool):
    def verify(raw):
        cert = json.loads(raw)["certificate"]
        expect(cert["basis_certified"] == certified, f"basis_certified {cert['basis_certified']}")
        if not certified:
            expect(cert["failures"] == ["gamma_bound >= 1"], f"failures {cert['failures']}")
        if probes:
            expect(cert["empirical_max_ratio"] <= cert["gamma_bound"], "probe ratio above gamma_bound")

    return verify


def _verify_ruelle(raw):
    doc = json.loads(raw)
    expect(doc["ratio_within_bound"] and doc["empirical_max_ratio"] <= doc["gamma_bound"], "probe ratio above gamma")


def _verify_spectrum(raw):
    doc = json.loads(raw)
    elements = np.asarray(doc["elements"], dtype=float).ravel()
    expect(doc["size"] == 512 and elements.size == 512, f"spectrum size {doc['size']}")
    expect(np.all(np.diff(elements) > 0) and np.all(elements == np.round(elements)), "spectrum not sorted integers")


def _verify_orthogonality(raw):
    doc = json.loads(raw)
    expect(doc["size"] == 128 and doc["max_offdiag"] == 0.0 and doc["orthogonal"], "cantor4 table not exactly 0")


def _verify_completeness(raw):
    report = json.loads(raw)["report"]
    expect(report["status"] == "complete-evidence", f"status {report['status']}")
    expect(report["max_Q"] <= 1.0 + BESSEL_SLACK, "max_Q breaks the Bessel bound")


def _verify_classify(predicted: str):
    def verify(raw):
        verdict = json.loads(raw)["verdict"]
        expect(verdict["predicted"] == predicted and verdict["consistent"], f"verdict {verdict['predicted']}")
        if predicted == "no-basis":
            expect(verdict["max_clique_size"] == 2, f"clique size {verdict['max_clique_size']}")

    return verify


def _verify_clique(raw):
    expect(json.loads(raw)["size"] == 2, "odd-R clique size is not 2")


def _verify_sweep(raw):
    sweep = json.loads(raw)["sweep"]
    for row in sweep["rows"]:
        expect(row["certified"] == (row["gamma_bound"] < 1.0), f"sweep row {row}")
    expect(sweep["first_certified"] == 3, f"first_certified {sweep['first_certified']}")


def _verify_tiling(raw):
    rows = _csv_rows(raw)
    expect(len(rows) == 100_000, f"{len(rows)} tiling rows")
    expect(all(row[1] == "1" for row in rows), "tiling multiplicity is not 1 everywhere")


def _verify_hardy(raw):
    trip = json.loads(raw)["roundtrip"]
    expect(trip["recon_error"] <= ROUNDTRIP_TOL and trip["parseval_defect"] <= ROUNDTRIP_TOL, "round-trip defect")


def _verify_fourier(raw):
    rows = _csv_rows(raw)
    expect(len(rows) == 12_801, f"{len(rows)} Fourier rows")
    values = np.asarray([[float(x) for x in row[3:]] for row in rows])
    expect(np.all(values[:, 1] <= TAIL_TOL), "Fourier tail bound above 1e-12")
    expect(np.all(values[:, 0] <= 1.0 + TAIL_TOL), "|mu-hat| above 1")


def _verify_atoms(raw):
    doc = json.loads(raw)
    expect(len(doc["points"]) == 2**14 and doc["weight"] == 2.0**-14, "wrong atom cloud")


def _verify_valid(raw):
    expect(json.loads(raw)["validation"]["valid"], "system is not valid")


def cli_batch(seed: int, workdir: Path) -> CliBatch:
    import fractalspec.cli  # noqa: F401  (every CLI process pays this import)
    import fractalspec as fs

    rng = np.random.default_rng(seed)
    _systems(fs)
    c4, q2 = SYSTEM_FILES["cantor4"], SYSTEM_FILES["quad2d"]
    probe_seed, ruelle_seed = (str(int(s)) for s in rng.integers(0, 2**31, size=2))
    coeffs = ",".join(
        f"{lam}={re:.6f}{im:+.6f}j" for lam, (re, im) in zip((0, 1, 4, 5), rng.normal(size=(4, 2)))
    )
    tiling = ["tiling", "--depth", "3", "--samples", "100000", "--format", "csv", "--window=-40:20"]
    fourier = ["fourier", "--system", c4, "--grid", "0:64:0.005", "--format", "csv"]
    atoms = ["atoms", "--system", c4, "--depth", "14"]

    batch = CliBatch(workdir, nominal_pass_s=27.0)
    batch.add("validate.cantor4", ["validate", "--system", c4], 0, _verify_valid)
    batch.add("validate.quad2d", ["validate", "--system", q2], 0, _verify_valid)
    batch.add("certify.cantor4", ["certify", "--system", c4], 0, _verify_certify(True, False))
    batch.add("certify.quad2d", ["certify", "--system", q2], 2, _verify_certify(False, False))
    batch.add(
        "certify.cantor4.probes20",
        ["certify", "--system", c4, "--trials", "20", "--seed", probe_seed],
        0,
        _verify_certify(True, True),
    )
    batch.add(
        "ruelle-bound.cantor4",
        ["ruelle-bound", "--system", c4, "--trials", "20", "--seed", ruelle_seed],
        0,
        _verify_ruelle,
    )
    batch.add("spectrum.cantor4.d8", ["spectrum", "--system", c4, "--depth", "8"], 0, _verify_spectrum)
    batch.add("orthogonality.cantor4.d6", ["orthogonality", "--system", c4, "--depth", "6"], 0, _verify_orthogonality)
    batch.add("completeness.cantor4", ["completeness", "--system", c4], 0, _verify_completeness)
    batch.add("classify.R3", ["classify", "--R", "3", "--a", "1/2"], 0, _verify_classify("no-basis"))
    batch.add("classify.R4", ["classify", "--R", "4", "--a", "1/2"], 0, _verify_classify("basis"))
    batch.add("clique.R3.w100", ["clique", "--R", "3", "--a", "1/2", "--window", "100"], 0, _verify_clique)
    batch.add("sweep.quad2d.r8", ["sweep", "--system", q2, "--r-max", "8"], 0, _verify_sweep)
    batch.add("tiling.d3", tiling, 0, _verify_tiling)
    batch.add("hardy.cantor4", ["hardy", "--system", c4, "--coeffs", coeffs], 0, _verify_hardy)
    batch.add("fourier.cantor4", fourier, 0, _verify_fourier)
    batch.add("atoms.cantor4.d14", atoms, 0, _verify_atoms)
    # repeats of the largest artifacts: the bytes must not change
    batch.add("tiling.d3.repeat", tiling, 0, _verify_tiling)
    batch.add("fourier.cantor4.repeat", fourier, 0, _verify_fourier)
    batch.add("atoms.cantor4.d14.repeat", atoms, 0, _verify_atoms)
    return batch


WORKLOADS = {"cli-batch": cli_batch, "spectral": spectral, "certify": certify}
