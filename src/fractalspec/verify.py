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
from .measure import CIS_BLOCK, DEFAULT_ATOM_BUDGET, FractalMeasure, cis2pi_outer, fourier_abs_many
from .ruelle import ContractionReport, basis_certificate
from .spectrum import DEDUP_TOL, SpectrumEnumeration, completeness_scan, enumerate_spectrum
from .systems import AffineSystem, cantor_four, parse_number, scale_systems, two_digit_system, word_sums

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
    """Exact maximum clique on a bitset adjacency list, from one branch-and-bound.

    The search includes the lowest candidate before it excludes it, so
    cliques are reached in lexicographic order of their sorted vertices.
    A node is cut, with the rest of its loop, once ``len(cur) +
    colours(cand) <= len(best)``: a greedy colouring of the candidates in
    index order bounds any clique among them.  Until a clique of the final
    size is found, every cut branch holds no clique larger than the
    current best, which is smaller than the final size; so the first
    clique of the final size, the one recorded, is the lexicographically
    first.  Calls nest once per clique vertex, at most
    2 MAX_EXACT_CLIQUE_WINDOW + 1 = 401 deep, under Python's default limit.
    """

    def __init__(self, adj: list[int]):
        self.adj = adj

    def _colours(self, cand: int) -> int:
        """Colours of the greedy colouring of cand in index order: each class
        takes, lowest first, every uncoloured vertex with no neighbour in it."""
        count = 0
        while cand:
            count += 1
            free = cand
            while free:
                low = free & -free
                cand ^= low
                free &= ~(low | self.adj[low.bit_length() - 1])
        return count

    def max_clique(self) -> list[int]:
        """The lexicographically first maximum clique, sorted."""
        best: list[int] = []

        def expand(cur: list[int], cand: int) -> None:
            nonlocal best
            if not cand:
                if len(cur) > len(best):
                    best = cur.copy()
                return
            while cand and len(cur) + self._colours(cand) > len(best):
                low = cand & -cand
                cur.append(low.bit_length() - 1)
                expand(cur, cand & self.adj[cur[-1]])
                cur.pop()
                cand ^= low

        expand([], (1 << len(self.adj)) - 1)
        return best


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
    reproducible; one branch-and-bound (:class:`_CliqueSolver`) finds it.
    Size 1 means no orthogonal pair exists in the window.
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
    moduli = fourier_abs_many(m, np.arange(1, 2 * window + 1, dtype=float).reshape(-1, 1))
    # orthogonal[g]: |mu-hat(g)| <= zero_tol for the gap g = |f_i - f_j|;
    # the gap 0 is the diagonal, no edge
    orthogonal = np.concatenate([[False], moduli <= zero_tol])
    gaps = np.abs(np.subtract.outer(freqs, freqs))
    # row i as an int whose bit j marks the edge {i, j}
    rows = np.packbits(orthogonal[gaps], axis=1, bitorder="little")
    solver = _CliqueSolver([int.from_bytes(row.tobytes(), "little") for row in rows])
    witness = solver.max_clique()
    return len(witness), tuple(sorted(freqs[v] for v in witness))


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
    target: float = 0.99,
) -> DichotomyVerdict:
    """Classify the d=1, two-digit system B = {0, a} by the parity of R.

    Odd R predicts no exponential basis; the evidence is an exact maximum
    clique search over the integer window, at the zero tolerance of
    :func:`max_orthogonal_clique`.  Even R with |R| >= 4 predicts a
    basis; the evidence is the contraction certificate plus a completeness
    scan over one unit cell.  |R| = 2 falls outside the dichotomy: evidence
    is computed and recorded without a claim.

    With no L given, L = {0, 1/(2a)} (see :func:`two_digit_system`); even R
    then keeps R^n b.l = R^n / 2 integral.  a and L are read exactly.
    """
    R = int(R)
    if abs(R) < 2:
        raise ValidationError(f"|R| must be >= 2, got {R}")
    sys = two_digit_system(R, a, L)
    m = FractalMeasure(sys)

    if R % 2 != 0:
        predicted = "no-basis"
        size, witness = max_orthogonal_clique(m, clique_window)
        return DichotomyVerdict(
            R=R,
            a=parse_number(a),
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
        a=parse_number(a),
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
    for r, scaled in enumerate(scale_systems(sys, range(1, r_max + 1)), start=1):
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
    window reaching past that run is truncated and flagged.  An empty
    window (hi <= lo) is a :class:`ValidationError`.
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
    if not lo < hi:
        raise ValidationError(f"window [{lo}, {hi}) is empty")
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
) -> HardyReport:
    """Synthesize f = sum c_lam e_lam and recover the c_lam by quadrature.

    Inner products are taken against the depth-K atomic approximation, the
    independent route; both the worst coefficient error and the defect in
    sum |c|^2 = ||f||^2 shrink as K grows.  Coefficient keys must lie on the
    enumerated spectrum, within DEDUP_TOL in max-norm, the tolerance within
    which :func:`~fractalspec.spectrum.enumerate_spectrum` merges two
    frequencies.

    The atoms go in lexicographic blocks of about CIS_BLOCK basis entries,
    prefix sums extended by the trailing letters (:func:`~fractalspec.systems.word_sums`);
    one block has the bits of the whole-basis product.  Over DEFAULT_ATOM_BUDGET entries
    N^K x |coeffs| of work is a :class:`BudgetError`, raised before anything is allocated.
    """
    d = m.sys.d
    lam_list = []
    c_list = []
    for key, value in coeffs.items():
        vec = np.asarray([float(key)] if np.isscalar(key) else [float(x) for x in key]).reshape(d)
        dist = np.abs(spec.elements - vec).max(axis=1)
        if dist.min() > DEDUP_TOL:
            raise ValidationError(f"coefficient frequency {key!r} is not in the spectrum")
        lam_list.append(vec)
        c_list.append(complex(value))
    lam = np.asarray(lam_list).reshape(-1, d)
    c = np.asarray(c_list, dtype=complex)

    n, budget, width = m.sys.n_digits, DEFAULT_ATOM_BUDGET, max(1, len(c))
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    # past budget.bit_length() levels N^K > budget for N >= 2: no huge powers
    if n ** min(depth, budget.bit_length()) * width > budget:
        raise BudgetError(
            f"round-trip basis of {n}**{depth} atoms x {len(c)} frequencies "
            f"exceeds the budget of {budget} entries"
        )
    fast = depth  # trailing letters of the words of one block
    while fast and n**fast * width > CIS_BLOCK:
        fast -= 1
    digits, step, slow = m.sys.B, m.sys.rinv.T, depth - fast
    recovered, norm_sq = None, 0.0
    for prefix in word_sums(digits, step, slow):
        basis = cis2pi_outer(word_sums(digits, step, depth, prefix[None], slow), lam)
        f = basis @ c
        part = np.conj(basis, out=basis).T @ f
        recovered = part if recovered is None else recovered + part
        norm_sq += np.sum(np.abs(f) ** 2)
    weight = float(n) ** -depth
    recovered, norm_sq = recovered * weight, float(norm_sq * weight)

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
