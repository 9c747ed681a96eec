"""Desk-scale verification of the headline claims.

Four checks live here:

* the one-dimensional dichotomy for two-digit systems B = {0, a} with an
  integer scale: odd scales admit no exponential basis (strongest checkable
  proxy: an exact maximum clique of pairwise-orthogonal integer frequencies
  stalls at 2), even scales of modulus >= 4 do (contraction certificate
  plus a completeness scan);
* the rescue-by-rescaling sweep: replacing R by rR eventually certifies;
* the tile check for the quarter-Cantor example: unit intervals placed on
  the frequency set, translated by -2 times the set, cover an interval
  with multiplicity exactly one;
* an expansion round-trip: coefficients on finitely many frequencies are
  recovered by quadrature against the atomic approximation, with a matching
  sum-of-squares identity.

Clique verdicts are evidence, not proofs: the graph lives on a finite
window and orthogonality is decided numerically at a zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ValidationError
from .measure import (
    DEFAULT_ATOM_BUDGET,
    FractalMeasure,
    atomic_approximation,
    cis2pi_outer,
    fourier_mu_many,
)
from .ruelle import ContractionReport, basis_certificate
from .spectrum import SpectrumEnumeration, completeness_scan, enumerate_spectrum
from .systems import AffineSystem, cantor_four, scale_system, two_digit_system

__all__ = [
    "DichotomyVerdict",
    "TilingReport",
    "HardyReport",
    "SweepReport",
    "SweepRow",
    "dim_one_classify",
    "max_orthogonal_clique",
    "scaling_sweep",
    "tiling_multiplicity",
    "hardy_roundtrip",
]

MAX_EXACT_CLIQUE_WINDOW = 200
CLASSIFY_SCAN_DEPTH = 2  # spectrum depth of the even-R completeness scan
CLASSIFY_SCAN_STEP = 0.01  # its grid step over one unit cell
TILING_BUDGET = 2**24  # sample points, and tile pairs |Lambda|^2, per tiling check


# ---------------------------------------------------------------------------
# exact maximum clique


class _CliqueSolver:
    """Exact branch-and-bound maximum clique on a bitset adjacency list."""

    def __init__(self, adj: list[int]):
        self.adj = adj
        self.n = len(adj)
        self.best: list[int] = []

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _color_order(self, cand: int) -> tuple[list[int], list[int]]:
        """Greedy coloring; the color index bounds any clique in the tail."""
        classes: list[int] = []
        for v in self._bits(cand):
            for ci, cmask in enumerate(classes):
                if not (cmask & self.adj[v]):
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        order: list[int] = []
        bounds: list[int] = []
        for ci, cmask in enumerate(classes):
            for v in self._bits(cmask):
                order.append(v)
                bounds.append(ci + 1)
        return order, bounds

    def _expand(self, cur: list[int], cand: int) -> None:
        if not cand:
            if len(cur) > len(self.best):
                self.best = cur.copy()
            return
        order, bounds = self._color_order(cand)
        for idx in range(len(order) - 1, -1, -1):
            if len(cur) + bounds[idx] <= len(self.best):
                return
            v = order[idx]
            cur.append(v)
            self._expand(cur, cand & self.adj[v])
            cur.pop()
            cand &= ~(1 << v)

    def max_clique(self) -> list[int]:
        self.best = []
        self._expand([], (1 << self.n) - 1)
        return self.best

    def _decide(self, cand: int, need: int) -> bool:
        """Is there a clique of size >= need inside cand?"""
        if need <= 0:
            return True
        order, bounds = self._color_order(cand)
        for idx in range(len(order) - 1, -1, -1):
            if bounds[idx] < need:
                return False
            v = order[idx]
            if self._decide(cand & self.adj[v], need - 1):
                return True
            cand &= ~(1 << v)
        return False

    def canonical_witness(self, size: int) -> list[int]:
        """Lexicographically first (in vertex order) clique of given size."""
        witness: list[int] = []
        cand = (1 << self.n) - 1
        for v in range(self.n):
            if not (cand >> v) & 1:
                continue
            rest = cand & self.adj[v]
            if self._decide(rest, size - len(witness) - 1):
                witness.append(v)
                cand = rest
                if len(witness) == size:
                    break
        return witness


def max_orthogonal_clique(
    m: FractalMeasure,
    window: int,
    zero_tol: float = 1e-9,
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum set of pairwise-orthogonal integer frequencies.

    Vertices are the integers in [-window, window]; an edge joins two
    frequencies when |mu-hat of their difference| <= zero_tol.  Vertices are
    preferred in the order 0, 1, -1, 2, -2, ... and the returned witness is
    the first maximum clique in that preference order, so repeated runs are
    reproducible.  Size 1 means no orthogonal pair exists in the window.
    """
    if m.sys.d != 1:
        raise ValidationError("clique search is defined for dimension 1 only")
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    if window > MAX_EXACT_CLIQUE_WINDOW:
        raise BudgetError(
            f"window {window} too large for exact search (max {MAX_EXACT_CLIQUE_WINDOW}); "
            "restrict the window"
        )
    freqs = [0]
    for k in range(1, window + 1):
        freqs.extend((k, -k))
    values, _ = fourier_mu_many(
        m, np.arange(1, 2 * window + 1, dtype=float).reshape(-1, 1)
    )
    orthogonal = np.abs(values) <= zero_tol
    n = len(freqs)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if orthogonal[abs(freqs[i] - freqs[j]) - 1]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    solver = _CliqueSolver(adj)
    size = len(solver.max_clique())
    witness = solver.canonical_witness(size)
    return size, tuple(sorted(freqs[v] for v in witness))


# ---------------------------------------------------------------------------
# dichotomy classifier


@dataclass(frozen=True)
class DichotomyVerdict:
    """Prediction of the 1-D dichotomy plus the numerical evidence for it."""

    R: int
    a: float
    predicted: str  # no-basis | basis | outside-theorem
    max_clique_size: int | None = None
    clique_witness: tuple[int, ...] | None = None
    completeness_min_Q: float | None = None
    certificate: ContractionReport | None = None
    consistent: bool = True


def dim_one_classify(
    R: int,
    a: float,
    L=None,
    clique_window: int = 60,
    zero_tol: float = 1e-9,
    target: float = 0.99,
) -> DichotomyVerdict:
    """Classify the d=1, two-digit system B = {0, a} by the parity of R.

    Odd R predicts no exponential basis; the evidence is an exact maximum
    clique search over the integer window.  Even R with |R| >= 4 predicts a
    basis; the evidence is the contraction certificate plus a completeness
    scan over one unit cell.  |R| = 2 falls outside the dichotomy: evidence
    is computed and recorded without a claim.

    With no L given, L = {0, 1/(2a)} (see :func:`two_digit_system`); even R
    then keeps R^n b.l = R^n / 2 integral.
    """
    R = int(R)
    if abs(R) < 2:
        raise ValidationError(f"|R| must be >= 2, got {R}")
    sys = two_digit_system(R, a, L)
    m = FractalMeasure(sys)

    if R % 2 != 0:
        predicted = "no-basis"
        size, witness = max_orthogonal_clique(m, clique_window, zero_tol=zero_tol)
        return DichotomyVerdict(
            R=R,
            a=a,
            predicted=predicted,
            max_clique_size=size,
            clique_witness=witness,
            consistent=size <= 2,
        )

    predicted = "basis" if abs(R) >= 4 else "outside-theorem"
    cert = basis_certificate(m)
    spec = enumerate_spectrum(sys, CLASSIFY_SCAN_DEPTH)
    grid = np.arange(0.0, 1.0 + CLASSIFY_SCAN_STEP / 2, CLASSIFY_SCAN_STEP).reshape(-1, 1)
    scan = completeness_scan(m, spec, grid, target=target)
    consistent = True
    if predicted == "basis":
        consistent = cert.basis_certified and scan.min_Q >= target
    return DichotomyVerdict(
        R=R,
        a=a,
        predicted=predicted,
        completeness_min_Q=scan.min_Q,
        certificate=cert,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# rescaling sweep


class SweepRow(NamedTuple):
    r: int
    gamma_bound: float
    certified: bool


@dataclass(frozen=True)
class SweepReport:
    """Certificate outcomes for scales r = 1..r_max."""

    rows: tuple[SweepRow, ...]
    first_certified: int | None


def scaling_sweep(sys: AffineSystem, r_max: int) -> SweepReport:
    """Run the basis certificate on r R for r = 1..r_max.

    The inverse-norm terms in the bound scale like 1/r, so any valid system
    with 0 in a spanning L certifies once r is large enough.
    """
    if r_max < 1:
        raise ValidationError(f"r_max must be >= 1, got {r_max}")
    rows = []
    first = None
    for r in range(1, r_max + 1):
        scaled = scale_system(sys, r)
        cert = basis_certificate(FractalMeasure(scaled))
        rows.append(SweepRow(r, cert.gamma_bound, cert.basis_certified))
        if first is None and cert.basis_certified:
            first = r
    return SweepReport(rows=tuple(rows), first_certified=first)


# ---------------------------------------------------------------------------
# tiling multiplicity


@dataclass(frozen=True)
class TilingReport:
    """Covering multiplicity of translated unit tiles over a 1-D window.

    The samples and their multiplicities are the CSV rows; the JSON
    artifact carries their count and histogram.
    """

    depth: int
    translate_factor: float
    window: tuple[float, float]
    safe_window: tuple[float, float]
    truncated: bool
    sample_points: np.ndarray = field(metadata={"artifact": False})
    multiplicities: np.ndarray = field(metadata={"artifact": False})  # nonnegative integers
    n_samples: int
    min_mult: int
    max_mult: int
    uniform: bool  # every sample covered exactly once
    histogram: dict  # multiplicity -> number of samples


def tiling_multiplicity(
    depth: int,
    window: tuple[float, float],
    samples: int = 10_000,
    sys: AffineSystem | None = None,
    translate_factor: float = -2.0,
) -> TilingReport:
    """Count how many translated tiles cover each sample point.

    Tiles are half-open unit intervals [lam, lam + 1) over the depth-n
    frequency set, translated by ``translate_factor`` times the same set.
    Sampling is restricted to the largest covered run intersected with the
    requested window (endpoints excluded by the half-open convention); a
    window reaching past that run is truncated and flagged.
    """
    if sys is None:
        sys = cantor_four()
    if sys.d != 1:
        raise ValidationError("tiling check is defined for dimension 1 only")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if samples > TILING_BUDGET:
        raise BudgetError(f"{samples} samples exceed the tiling budget of {TILING_BUDGET}")
    lam = enumerate_spectrum(sys, depth).elements[:, 0]
    if lam.size**2 > TILING_BUDGET:  # the translated tiles, |Lambda|^2 of them
        raise BudgetError(
            f"depth {depth} gives {lam.size}^2 translated tiles, "
            f"over the tiling budget of {TILING_BUDGET}"
        )
    translates = translate_factor * lam
    starts = np.sort((lam[:, None] + translates[None, :]).ravel())
    ends = starts + 1.0

    # maximal run with count >= 1 that meets the window most
    run_los, run_his = _covered_runs(starts, ends)
    lo, hi = float(window[0]), float(window[1])
    if run_los.size == 0:
        raise ValidationError("translate set covers nothing")
    gains = np.minimum(run_his, hi) - np.maximum(run_los, lo)
    best = int(np.argmax(gains))  # the first of equal runs
    if gains[best] <= 0:
        raise ValidationError(
            f"window [{lo}, {hi}) does not meet the covered region"
        )
    run_lo, run_hi = float(run_los[best]), float(run_his[best])
    safe = (max(lo, run_lo), min(hi, run_hi))
    truncated = safe != (lo, hi)

    xs = np.linspace(safe[0], safe[1], samples, endpoint=False)
    mult = np.searchsorted(starts, xs, side="right") - np.searchsorted(
        ends, xs, side="right"
    )
    mult = mult.astype(int)
    min_mult, max_mult = int(mult.min()), int(mult.max())
    values, counts = np.unique(mult, return_counts=True)
    return TilingReport(
        depth=depth,
        translate_factor=translate_factor,
        window=(lo, hi),
        safe_window=safe,
        truncated=truncated,
        sample_points=xs,
        multiplicities=mult,
        n_samples=int(mult.size),
        min_mult=min_mult,
        max_mult=max_mult,
        uniform=min_mult == max_mult == 1,
        histogram=dict(zip(values.tolist(), counts.tolist())),
    )


def _covered_runs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs [lo, hi) covered by at least one of the half-open tiles
    [starts[i], ends[i]), with starts sorted and ends non-decreasing (as for
    ends = starts + 1).

    Empty tiles cover nothing and are dropped.  Among the rest, the tiles up
    to i cover up to ends[i] (the largest end so far), so a run closes after
    tile i exactly when the next tile starts past it: starts[i+1] > ends[i];
    tiles that touch or overlap stay in one run.
    """
    keep = ends > starts
    if not keep.all():
        starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    gaps = np.flatnonzero(starts[1:] > ends[:-1])
    return starts[np.r_[0, gaps + 1]], ends[np.r_[gaps, ends.size - 1]]


# ---------------------------------------------------------------------------
# expansion round-trip


@dataclass(frozen=True)
class HardyReport:
    """Coefficient-recovery and sum-of-squares defects of a round-trip."""

    depth: int
    recon_error: float
    parseval_defect: float
    recovered: dict


def hardy_roundtrip(
    m: FractalMeasure,
    spec: SpectrumEnumeration,
    coeffs: dict,
    depth: int,
    tol: float = 1e-9,
) -> HardyReport:
    """Synthesize f = sum c_lam e_lam and recover the c_lam by quadrature.

    Inner products are taken against the depth-K atomic approximation, the
    independent route; both the worst coefficient error and the defect in
    sum |c|^2 = ||f||^2 shrink as K grows.  Coefficient keys must lie on the
    enumerated spectrum (within ``tol``).

    The basis e_lam(x_w) is one complex N^K x |coeffs| array (16 bytes an
    entry), built in place and conjugated in place; more than
    DEFAULT_ATOM_BUDGET entries is a :class:`BudgetError`, raised before
    anything is allocated.
    """
    d = m.sys.d
    lam_list = []
    c_list = []
    for key, value in coeffs.items():
        vec = np.asarray(
            [float(key)] if np.isscalar(key) else [float(x) for x in key]
        ).reshape(d)
        dist = np.abs(spec.elements - vec).max(axis=1)
        if dist.min() > tol:
            raise ValidationError(f"coefficient frequency {key!r} is not in the spectrum")
        lam_list.append(vec)
        c_list.append(complex(value))
    lam = np.asarray(lam_list).reshape(-1, d)
    c = np.asarray(c_list, dtype=complex)

    n, budget = m.sys.n_digits, DEFAULT_ATOM_BUDGET
    # past budget.bit_length() levels N^K > budget for N >= 2: no huge powers
    if n ** min(depth, budget.bit_length()) * max(1, len(c)) > budget:
        raise BudgetError(
            f"round-trip basis of {n}**{depth} atoms x {len(c)} frequencies "
            f"exceeds the budget of {budget} entries"
        )
    atoms = atomic_approximation(m, depth)
    basis = cis2pi_outer(atoms.points, lam)  # e_lam at each atom
    f = basis @ c
    recovered = np.conj(basis, out=basis).T @ f * atoms.weight
    norm_sq = float(np.sum(np.abs(f) ** 2) * atoms.weight)

    recon_error = float(np.max(np.abs(recovered - c))) if len(c) else 0.0
    parseval_defect = abs(float(np.sum(np.abs(c) ** 2)) - norm_sq)
    rec_map = {
        key: complex(val) for key, val in zip(coeffs.keys(), recovered)
    }
    return HardyReport(
        depth=depth,
        recon_error=recon_error,
        parseval_defect=parseval_defect,
        recovered=rec_map,
    )
