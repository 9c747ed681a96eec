"""Command-line front-end.

Every subcommand is a function ``(args, sys_) -> (body, table, ok)`` of the
parsed arguments and the system, which :func:`main` reads once (from a JSON
file or from flags) before the command runs one analysis on it:

- ``body``: the artifact's payload, without the configuration and the
  validation report;
- ``table``: ``(header, columns)`` for the CSV form, or None on the
  commands that emit JSON only (their parser refuses ``--format csv``);
- ``ok``: the verdict, True for a pure computation.

:func:`main` alone turns that into an artifact and an exit status.  It adds
``config``, which is every parsed argument (the command included) plus the
schema and package versions, and ``validation``, the system's cached
:attr:`~fractalspec.systems.AffineSystem.validation` (only ``validate``
returns its own report in ``body``, checked at its --n-max and --tol).  It
emits a deterministic JSON artifact or the CSV table, and returns 0 when
``ok`` holds, else 2 (computed, negative verdict: not certified, not
orthogonal, ...).  Exit 1 is a failure to compute (bad input, usage errors
included, convergence error, budget).

Only numpy and the modules every command needs (errors, exact, systems,
reports) are imported with this module; each subcommand imports its
analysis modules (measure, ruelle, spectrum, verify) itself, so a process
loads only what its command runs.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import math
import sys as _sys

import numpy as np

from . import __version__
from .errors import BudgetError, DomainError, FractalSpecError, ValidationError
from .reports import SCHEMA_VERSION, render_csv, render_json, write_text
from .systems import (
    BOX_TOL,
    AffineSystem,
    as_box,
    attractor_hull,
    cantor_four,
    check_box_invariance,
    load_system,
    parse_number,
    two_digit_system,
    validate_system,
)

GRID_BUDGET = 2**24  # grid points per command


def _parse_grid(spec: str, d: int) -> np.ndarray:
    """Parse "a:b:step[,a:b:step...]" into at most GRID_BUDGET grid points.

    An axis has the points a + k step for k < n, n = ceil((b - a) / step + 1/2)
    when b >= a (b is kept up to half a step) and 0 when b < a; an empty axis
    gives an empty grid.  Points that coincide or overflow in float are an
    error, not a shorter axis.
    """
    parts = spec.split(",")
    if len(parts) != d:
        raise FractalSpecError(f"grid spec {spec!r} has {len(parts)} axes, system has {d}")
    axes = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise FractalSpecError(f"bad grid axis {part!r}, want a:b:step")
        a, b, step = (parse_number(f) for f in fields)
        if step <= 0:
            raise FractalSpecError(f"grid step must be positive in {part!r}")
        # a float count, as (b - a) / step may overflow to inf
        axes.append((part, a, step, float(np.ceil((b - a) / step + 0.5)) if b >= a else 0.0))
    if not all(n for *_, n in axes):
        return np.empty((0, d))
    points = math.prod(n for *_, n in axes)
    if points > GRID_BUDGET:
        raise BudgetError(
            f"grid {spec!r} has {points:.3g} points, over the budget of {GRID_BUDGET}"
        )
    ticks = []
    for part, a, step, n in axes:
        with np.errstate(over="ignore"):  # an overflowing point is inf, rejected below
            tick = a + np.arange(int(n)) * step
        if not (np.isfinite(tick[-1]) and np.all(tick[1:] > tick[:-1])):
            raise FractalSpecError(f"points of grid axis {part!r} coincide or overflow in float")
        ticks.append(tick)
    mesh = np.meshgrid(*ticks, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _parse_window(spec: str) -> tuple[float, float]:
    fields = spec.split(":")
    if len(fields) != 2:
        raise FractalSpecError(f"bad window {spec!r}, want lo:hi")
    return parse_number(fields[0]), parse_number(fields[1])


def _parse_coeffs(spec: str, d: int) -> dict:
    """Parse "lambda=value,..."; in d > 1 a key is "x:y[:...]" (a tuple)."""
    out: dict = {}
    for item in spec.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        if not value:
            raise FractalSpecError(f"bad coefficient {item!r}, want lambda=value")
        parts = key.split(":")
        if len(parts) != d:
            raise FractalSpecError(
                f"coefficient key {key.strip()!r} has {len(parts)} components, "
                f"system has d = {d} (separate components with ':')"
            )
        lam = tuple(parse_number(x) for x in parts)
        coeff = complex(value)
        if not cmath.isfinite(coeff):
            raise ValidationError(f"coefficient {value.strip()!r} is not a finite number")
        out[lam[0] if d == 1 else lam] = coeff
    if not out:
        raise FractalSpecError("empty coefficient list")
    return out


def _emit(args, payload: dict, table) -> None:
    """Write the artifact: JSON by default, CSV (one column per header field)
    when requested."""
    if args.format == "csv":
        comments = [
            f"config: {render_json(payload['config'], compact=True)}",
            f"validation: {render_json(payload['validation'], compact=True)}",
            f"schema_version: {SCHEMA_VERSION}",
        ]
        text = render_csv(*table, comments)
    else:
        text = render_json(payload) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        _sys.stdout.write(text)


def _config(args) -> dict:
    """Every parsed argument, the command included, and the two versions."""
    config = {key: value for key, value in vars(args).items() if key != "fn"}
    return {**config, "schema_version": SCHEMA_VERSION, "package_version": __version__}


def _load_system(args) -> AffineSystem:
    """The command's system: from --system, else --R/--a/--L, else the built-in
    example.  An entry beyond 2^53 in magnitude holds no fraction, and the
    analyses square and multiply entries past the float range: exit 1."""
    if getattr(args, "system", None):
        sys_ = load_system(args.system)
    elif hasattr(args, "a"):
        sys_ = two_digit_system(args.R, args.a, args.L.split(",") if args.L else None)
    else:
        sys_ = cantor_four()
    if any(np.any(np.abs(x) > 2.0**53) for x in (sys_.R, sys_.B, sys_.L)):
        raise ValidationError("the system has an entry beyond 2^53 in magnitude")
    return sys_


def _axes(name: str, d: int) -> list[str]:
    """Column names of a d-vector: ``name`` in 1-D, ``name0, name1, ...`` above."""
    return [name] if d == 1 else [f"{name}{i}" for i in range(d)]


# ---------------------------------------------------------------------------
# subcommands: each returns (body, table, ok), see the module docstring


def _cmd_validate(args, sys_):
    validation = validate_system(sys_, n_max=args.n_max, tol=args.tol)
    body = {"validation": validation, "system": {"d": sys_.d, "N": sys_.n_digits, "r": sys_.r}}
    return body, None, validation.valid


def _cmd_fourier(args, sys_):
    from .measure import FractalMeasure, fourier_mu_many

    grid = _parse_grid(args.grid, sys_.d)
    values, tails = fourier_mu_many(FractalMeasure(sys_), grid)
    # hypot, not np.abs: it equals abs(complex) bit for bit
    columns = (*grid.T, values.real, values.imag, np.hypot(values.real, values.imag), tails)
    header = _axes("t", sys_.d) + ["re", "im", "abs", "tail_bound"]
    body = {"rows": np.column_stack(columns), "columns": header}
    return body, (header, columns), True


def _cmd_atoms(args, sys_):
    from .measure import FractalMeasure, atomic_approximation

    atoms = atomic_approximation(FractalMeasure(sys_), args.depth)
    n = atoms.points.shape[0]
    columns = (np.arange(n), *atoms.points.T, np.full(n, atoms.weight))
    header = ["index", *_axes("x", sys_.d), "weight"]
    body = {"depth": atoms.depth, "weight": atoms.weight, "points": atoms.points}
    return body, (header, columns), True


def _cmd_spectrum(args, sys_):
    from .spectrum import enumerate_spectrum, separation

    spec = enumerate_spectrum(sys_, args.depth)
    columns = (np.arange(spec.size), *spec.elements.T)
    header = ["index"] + [f"lambda{i}" for i in range(sys_.d)]
    body = {
        "size": spec.size,
        "separation": separation(spec) if spec.size >= 2 else None,
        "elements": spec.elements,
    }
    return body, (header, columns), True


def _cmd_orthogonality(args, sys_):
    from .measure import FractalMeasure
    from .spectrum import enumerate_spectrum, orthogonality_matrix

    m = FractalMeasure(sys_)
    spec = enumerate_spectrum(sys_, args.depth)
    max_off, table = orthogonality_matrix(m, spec)
    i, j = np.triu_indices(spec.size, 1)  # pairs i < j, row by row
    columns = (i, j, *spec.elements[i].T, *spec.elements[j].T, table[i, j])
    header = ["i", "j", *_axes("lambda_i", sys_.d), *_axes("lambda_j", sys_.d), "abs_inner_product"]
    ok = max_off <= args.tol
    body = {"size": spec.size, "max_offdiag": max_off, "orthogonal": ok}
    return body, (header, columns), ok


def _cmd_completeness(args, sys_):
    from .measure import FractalMeasure
    from .spectrum import completeness_scan, enumerate_spectrum

    m = FractalMeasure(sys_)
    grid = _parse_grid(args.grid, sys_.d)
    header = _axes("t", sys_.d) + ["Q"]
    if grid.size == 0:
        return {"status": "empty-grid", "rows": []}, (header, (*grid.T, np.empty(0))), True
    spec = enumerate_spectrum(sys_, args.depth)
    report = completeness_scan(
        m,
        spec,
        grid,
        target=args.target,
        increment_tol=args.increment_tol,
        max_depth=args.max_depth,
    )
    scanned = grid if report.Q.size else grid[:0]  # no depth evaluated: no Q, no rows
    ok = report.status == "complete-evidence"
    return {"report": report}, (header, (*scanned.T, report.Q)), ok


def _cmd_ruelle_bound(args, sys_):
    from .ruelle import contraction_probe, estimate_gamma

    box = attractor_hull(sys_) if args.box is None else as_box(
        [_parse_window(part) for part in args.box.split(",")], sys_.d
    )
    bound = estimate_gamma(sys_, box)
    # after estimate_gamma, so that a non-expansive R keeps its own message
    excess = check_box_invariance(sys_, box)
    if excess > BOX_TOL:
        raise DomainError(f"a dual map leaves the box by {excess:.3e}; enlarge the box")
    probe = contraction_probe(sys_, box, trials=args.trials, seed=args.seed)
    body = {
        "gamma_bound": bound.gamma_bound,
        "beta": bound.beta,
        "box": box.tolist(),
        "empirical_max_ratio": probe.max_ratio,
        "ratios": list(probe.ratios),
        "skipped": probe.skipped,
        "ratio_within_bound": probe.max_ratio <= bound.gamma_bound + 1e-6,
    }
    return body, None, bound.gamma_bound < 1.0


def _cmd_certify(args, sys_):
    from .measure import FractalMeasure
    from .ruelle import basis_certificate

    cert = basis_certificate(FractalMeasure(sys_), trials=args.trials, seed=args.seed)
    body = {"certificate": cert, "reason": "; ".join(cert.failures) if cert.failures else None}
    return body, None, cert.basis_certified


def _cmd_classify(args, sys_):
    from .verify import dim_one_classify

    L = args.L.split(",") if args.L else None  # the system builder reads a and L exactly
    verdict = dim_one_classify(args.R, args.a, L=L, clique_window=args.window, target=args.target)
    return {"verdict": verdict}, None, verdict.consistent


def _cmd_clique(args, sys_):
    from .measure import FractalMeasure
    from .verify import max_orthogonal_clique

    size, witness = max_orthogonal_clique(FractalMeasure(sys_), args.window, zero_tol=args.zero_tol)
    return {"size": size, "witness": list(witness)}, None, True


def _cmd_sweep(args, sys_):
    from .verify import scaling_sweep

    report = scaling_sweep(sys_, args.r_max)
    columns = tuple(map(np.array, zip(*report.rows)))
    ok = report.first_certified is not None
    return {"sweep": report}, (["r", "gamma_bound", "certified"], columns), ok


def _cmd_tiling(args, sys_):
    from .verify import tiling_multiplicity

    report = tiling_multiplicity(
        args.depth,
        _parse_window(args.window),
        samples=args.samples,
        sys=sys_,
        translate_factor=args.translate_factor,
    )
    columns = (report.sample_points, report.multiplicities)
    # samples from a truncated window cover only part of it: no verdict
    ok = report.uniform and not report.truncated
    return {"tiling": report}, (["x", "multiplicity"], columns), ok


def _cmd_hardy(args, sys_):
    from .measure import FractalMeasure
    from .spectrum import enumerate_spectrum
    from .verify import hardy_roundtrip

    m = FractalMeasure(sys_)
    spec = enumerate_spectrum(sys_, args.depth)
    coeffs = _parse_coeffs(args.coeffs, sys_.d)
    report = hardy_roundtrip(m, spec, coeffs, depth=args.quadrature_depth)
    ok = report.recon_error <= args.max_error and report.parseval_defect <= args.max_error
    return {"roundtrip": report}, None, ok


# ---------------------------------------------------------------------------
# parser


class _Number(argparse.Action):
    """A real-valued flag, read with :func:`parse_number` as it is parsed."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            setattr(namespace, self.dest, parse_number(value))
        except ValidationError as exc:
            raise ValidationError(f"{option_string}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, like every other bad input (2
    means a negative verdict); subparsers inherit the class."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fractalspec",
        description="Self-similar measures: orthogonality, completeness, contraction certificates.",
        epilog=(
            "Outputs are deterministic for identical configurations (seeds "
            "included); floats are serialized with 17 significant digits. "
            "Grid work is vectorized in-process; set OMP_NUM_THREADS to cap "
            "the linear-algebra thread pool."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True, csv=True):
        if system:
            p.add_argument("--system", required=True, help="JSON system file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv") if csv else ("json",), default="json")

    p = sub.add_parser("validate", help="structural checks on a system file")
    common(p, csv=False)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--tol", action=_Number, default=1e-9)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("fourier", help="transform of the invariant measure on a grid")
    common(p)
    p.add_argument("--grid", required=True, help="a:b:step per axis, comma separated")
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("atoms", help="point cloud of the depth-K atomic approximation")
    common(p)
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(fn=_cmd_atoms)

    p = sub.add_parser("spectrum", help="enumerate the candidate frequency set")
    common(p)
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("orthogonality", help="pairwise inner products over the spectrum")
    common(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--tol", action=_Number, default=1e-9, help="pass threshold on |inner product|")
    p.set_defaults(fn=_cmd_orthogonality)

    p = sub.add_parser("completeness", help="grid scan of the completeness function Q")
    common(p)
    p.add_argument("--depth", type=int, default=2, help="starting enumeration depth")
    p.add_argument("--grid", default="0:1:0.01")
    p.add_argument("--target", action=_Number, default=0.99)
    p.add_argument("--increment-tol", action=_Number, default=1e-4, dest="increment_tol")
    p.add_argument(
        "--max-depth",
        type=int,
        default=None,
        dest="max_depth",
        help="deepest enumeration to escalate to (default: starting depth + 8)",
    )
    p.set_defaults(fn=_cmd_completeness)

    p = sub.add_parser("ruelle-bound", help="contraction bound plus empirical probe ratios")
    common(p, csv=False)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", default=None, help="lo:hi per axis (default: attractor hull)")
    p.set_defaults(fn=_cmd_ruelle_bound)

    p = sub.add_parser("certify", help="orthonormal-basis certificate")
    common(p, csv=False)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("classify", help="1-D odd/even dichotomy verdict")
    common(p, system=False, csv=False)
    p.add_argument("--R", required=True, type=int)
    p.add_argument("--a", required=True, help="second digit of B = {0, a}; p/q and decimals exact")
    p.add_argument("--L", default=None, help="override frequency digits, comma separated")
    p.add_argument("--window", type=int, default=60)
    p.add_argument("--target", action=_Number, default=0.99)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("clique", help="exact maximum orthogonal clique in a window")
    common(p, system=False, csv=False)
    p.add_argument("--R", required=True, type=int)
    p.add_argument("--a", required=True)
    p.add_argument("--L", default=None)
    p.add_argument("--window", type=int, default=60)
    p.add_argument("--zero-tol", action=_Number, default=1e-9, dest="zero_tol")
    p.set_defaults(fn=_cmd_clique)

    p = sub.add_parser("sweep", help="certificate sweep over scales r = 1..r_max")
    common(p)
    p.add_argument("--r-max", type=int, default=16, dest="r_max")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("tiling", help="tile-covering multiplicity over a window")
    common(p, system=False)
    p.add_argument("--system", default=None, help="optional system file (default: built-in example)")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--window", required=True, help="lo:hi")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--translate-factor", action=_Number, default=-2.0, dest="translate_factor")
    p.set_defaults(fn=_cmd_tiling)

    p = sub.add_parser("hardy", help="coefficient round-trip through the atomic quadrature")
    common(p, csv=False)
    p.add_argument("--depth", type=int, default=1, help="spectrum depth carrying the coefficients")
    p.add_argument(
        "--coeffs",
        required=True,
        help="lambda=value pairs, comma separated; in d > 1 lambda is x:y[:...]",
    )
    p.add_argument("--quadrature-depth", type=int, default=10, dest="quadrature_depth")
    p.add_argument("--max-error", action=_Number, default=1e-6, dest="max_error")
    p.set_defaults(fn=_cmd_hardy)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        sys_ = _load_system(args)
        body, table, ok = args.fn(args, sys_)
        _emit(args, {"config": _config(args), "validation": sys_.validation, **body}, table)
    except (FractalSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0 if ok else 2


def run() -> None:
    """Process entry point (``fractalspec`` and ``python -m fractalspec.cli``).

    The modules imported by now (numpy and the ones every command needs)
    live until exit, so they are frozen out of the garbage collector:
    neither the collections during the command nor the one at interpreter
    shutdown walk their import graph again.  A command's own analysis
    modules load after the freeze, when the command runs.  :func:`main`
    leaves the collector alone, so in-process callers see no change.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
