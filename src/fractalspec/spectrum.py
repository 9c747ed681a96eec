"""Candidate frequency sets and how close they come to an orthogonal basis.

The dual maps t -> R^T t + l generate the countable set
Lambda = {sum_k (R^T)^k l_k}; exponentials e_lam with lam in Lambda are the
basis candidates.  Finite truncations by word depth are enumerated here,
together with the two quantities that decide the question at desk scale:

* the pairwise inner products <e_lam, e_lam'> = mu-hat(lam - lam'), whose
  maximal off-diagonal modulus certifies orthogonality, and
* the completeness function Q_n(t) = sum_lam |mu-hat(t - lam)|^2, a
  monotone-in-depth lower bound that tends to 1 exactly when the family
  spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .measure import FractalMeasure, fourier_mu_many
from .systems import AffineSystem

__all__ = [
    "SpectrumEnumeration",
    "CompletenessReport",
    "enumerate_spectrum",
    "orthogonality_matrix",
    "q_partial",
    "q_partial_many",
    "completeness_scan",
    "separation",
]

DEFAULT_WORD_BUDGET = 2**24
DEDUP_TOL = 1e-9
SEPARATION_BLOCK_ELEMS = 2**20  # pairwise distances held at once


@dataclass(frozen=True)
class SpectrumEnumeration:
    """Sorted, deduplicated depth-n truncation of the candidate spectrum.

    ``depth`` is None for hand-built element sets, which cannot be deepened.
    """

    sys: AffineSystem
    depth: int | None
    elements: np.ndarray  # (M, d)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @classmethod
    def from_elements(cls, sys: AffineSystem, elements) -> "SpectrumEnumeration":
        elements = np.asarray(elements, dtype=float).reshape(-1, sys.d)
        elements = elements[np.lexsort(elements.T[::-1])]
        elements.setflags(write=False)
        return cls(sys=sys, depth=None, elements=elements)


def enumerate_spectrum(
    sys: AffineSystem, depth: int, budget: int = DEFAULT_WORD_BUDGET
) -> SpectrumEnumeration:
    """All sums sum_{k=0}^{depth} (R^T)^k l_k over words in L^(depth+1).

    Output rows are lexicographically sorted and deduplicated: exact
    comparison when every element is integral, otherwise greedily within
    DEDUP_TOL in max-norm (no two output rows that close, every word sum
    that close to an output row).
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    n = sys.n_digits
    if n ** (depth + 1) > budget:
        raise BudgetError(
            f"N^(depth+1) = {n}**{depth + 1} exceeds word budget {budget}"
        )
    sums = np.zeros((1, sys.d))
    contrib = sys.L.copy()  # rows (R^T)^k l at level k
    for _ in range(depth + 1):
        sums = (sums[:, None, :] + contrib[None, :, :]).reshape(-1, sys.d)
        contrib = contrib @ sys.R
    sums = sums[np.lexsort(sums.T[::-1])]
    integral = np.all(np.abs(sums - np.round(sums)) <= DEDUP_TOL)
    if integral:
        sums = np.round(sums)
    keep = np.ones(len(sums), dtype=bool)
    keep[1:] = np.any(np.diff(sums, axis=0) != 0.0, axis=1)
    elements = sums[keep]
    if not integral:
        elements = _dedup_near(elements, DEDUP_TOL)
    elements.setflags(write=False)
    return SpectrumEnumeration(sys=sys, depth=depth, elements=elements)


def _dedup_near(rows: np.ndarray, tol: float) -> np.ndarray:
    """Greedy max-norm dedup of lexsorted rows.

    The caller removes exact repeats first, so that no cell holds many
    copies of one row (repeats are still handled correctly).  A row is kept unless it lies within ``tol`` of an earlier kept row, so
    kept rows are pairwise more than ``tol`` apart and every dropped row is
    within ``tol`` of a kept one.  Near pairs are found on d + 1 grids of
    cell side 2(d+1)g, g >= tol, shifted by 2g along the diagonal: on each
    axis a near pair straddles the cell walls of at most one grid, so at
    least one grid holds it in a single cell.  The greedy runs in rounds,
    each deciding every row whose earlier near neighbours are decided.
    """
    m, d = rows.shape
    # rounding moves each cell wall by a few ulps; with g >= 16 ulps, walls of
    # different grids stay more than tol apart
    g = max(tol, 16.0 * float(np.spacing(np.abs(rows).max(initial=0.0))))
    first, second = [], []
    for shift in range(d + 1):
        cells = np.floor((rows + 2.0 * g * shift) / (2.0 * (d + 1) * g))
        i, j = _pairs_sharing(cells)
        near = np.max(np.abs(rows[i] - rows[j]), axis=1) <= tol
        first.append(i[near])
        second.append(j[near])
    early = np.concatenate(first)  # i < j: the row earlier in sort order
    late = np.concatenate(second)
    state = np.zeros(m, dtype=np.int8)  # 0 open, 1 kept, 2 dropped
    while np.any(state == 0):
        state[late[(state[early] == 1) & (state[late] == 0)]] = 2
        waiting = np.zeros(m, dtype=bool)
        waiting[late[state[early] == 0]] = True
        state[(state == 0) & ~waiting] = 1
    return rows[state == 1]


def _pairs_sharing(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j), i < j, of rows of ``cells`` that are equal."""
    order = np.lexsort(cells.T)  # stable: indices rise within each group
    ordered = cells[order]
    changes = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, changes])
    sizes = np.diff(np.r_[starts, len(cells)])
    after = np.repeat(starts + sizes, sizes) - np.arange(len(cells)) - 1
    pos = np.repeat(np.arange(len(cells)), after)  # later members of own group
    offset = np.arange(pos.size) - np.repeat(np.cumsum(after) - after, after)
    return order[pos], order[pos + 1 + offset]


def orthogonality_matrix(
    m: FractalMeasure, spec: SpectrumEnumeration
) -> tuple[float, np.ndarray]:
    """Table of |mu-hat(lam_i - lam_j)| and its largest off-diagonal entry.

    The (i, j) entry is the modulus of the inner product of e_{lam_i} and
    e_{lam_j} in L^2(mu); a max off-diagonal near zero is the orthogonality
    certificate.
    """
    el = spec.elements
    n = el.shape[0]
    diffs = (el[:, None, :] - el[None, :, :]).reshape(-1, el.shape[1])
    values, _ = fourier_mu_many(m, diffs)
    table = np.abs(values).reshape(n, n)
    if n < 2:
        return 0.0, table
    off = table[~np.eye(n, dtype=bool)]
    return float(off.max()), table


def q_partial(m: FractalMeasure, spec: SpectrumEnumeration, t) -> float:
    """Q_n(t) = sum over enumerated lam of |mu-hat(t - lam)|^2.

    Caller is responsible for the family being orthogonal; only then is the
    Bessel bound Q_n <= 1 meaningful.
    """
    return float(q_partial_many(m, spec, np.atleast_2d(np.asarray(t, dtype=float)))[0])


def q_partial_many(m: FractalMeasure, spec: SpectrumEnumeration, T) -> np.ndarray:
    """Vectorized Q_n over rows of T."""
    T = np.asarray(T, dtype=float).reshape(-1, m.sys.d)
    el = spec.elements
    diffs = (T[:, None, :] - el[None, :, :]).reshape(-1, m.sys.d)
    values, _ = fourier_mu_many(m, diffs)
    return (np.abs(values).reshape(T.shape[0], el.shape[0]) ** 2).sum(axis=1)


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of a grid scan of Q_n with optional depth escalation."""

    min_Q: float
    argmin: np.ndarray
    max_Q: float
    converged: bool
    status: str  # complete-evidence | incomplete-evidence | inconclusive
    target: float
    depths: tuple[int, ...]
    min_trace: tuple[float, ...]
    Q: np.ndarray  # per grid point at the last depth (empty if none); not in as_dict

    def as_dict(self) -> dict:
        return {
            "min_Q": self.min_Q,
            "argmin": self.argmin.tolist(),
            "max_Q": self.max_Q,
            "converged": self.converged,
            "status": self.status,
            "target": self.target,
            "depths": list(self.depths),
            "min_trace": list(self.min_trace),
        }


def completeness_scan(
    m: FractalMeasure,
    spec: SpectrumEnumeration,
    grid,
    target: float,
    increment_tol: float = 1e-4,
    max_depth: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> CompletenessReport:
    """Scan Q over a grid, deepening the enumeration until min Q stabilizes.

    Deepening stops once one extra depth moves min Q by less than
    ``increment_tol`` (converged), or once the word budget or ``max_depth``
    is hit (inconclusive; also when not even the starting depth fits).
    Hand-built enumerations are evaluated at their fixed element set only.
    Evidence labels: Q_n only ever underestimates the limit, so
    "complete-evidence" (min Q >= target) is one-sided and
    "incomplete-evidence" additionally requires convergence.

    When the enumeration is integral and each depth's set holds the
    previous one (compared exactly; 0 in L makes the sets nested), only the
    new frequencies are summed onto the running Q; otherwise every depth is
    summed afresh.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1, m.sys.d)
    if grid.size == 0:
        raise ValidationError("completeness grid is empty")
    depths: list[int] = []
    trace: list[float] = []
    converged = False
    exhausted = False
    q = np.empty(0)

    if spec.depth is None:
        # fixed element set: single evaluation, nothing to escalate
        q = q_partial_many(m, spec, grid)
        max_q = float(q.max())
        depths.append(-1)
        trace.append(float(q.min()))
        converged = True
    else:
        top = spec.depth + 8 if max_depth is None else max_depth
        max_q, previous = -np.inf, None
        for depth in range(spec.depth, top + 1):
            try:
                s = enumerate_spectrum(m.sys, depth, budget=budget)
            except BudgetError:
                exhausted = True
                break
            fresh = None if previous is None else _new_rows(previous, s)
            if fresh is None:
                q = q_partial_many(m, s, grid)
            else:
                q = q + q_partial_many(m, fresh, grid)
            previous = s
            max_q = max(max_q, float(q.max()))
            depths.append(depth)
            trace.append(float(q.min()))
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < increment_tol:
                converged = True
                break
        else:
            exhausted = True

    min_q = float(q.min(initial=np.inf))
    if not depths:
        status = "inconclusive"  # budget or max_depth left nothing to evaluate
    elif min_q >= target:
        status = "complete-evidence"
    elif converged:
        status = "incomplete-evidence"
    else:
        status = "inconclusive" if exhausted else "incomplete-evidence"
    q.setflags(write=False)
    return CompletenessReport(
        min_Q=min_q,
        argmin=grid[int(q.argmin()) if q.size else 0].copy(),
        max_Q=max_q,
        converged=converged,
        status=status,
        target=target,
        depths=tuple(depths),
        min_trace=tuple(trace),
        Q=q,
    )


def _new_rows(
    old: SpectrumEnumeration, new: SpectrumEnumeration
) -> SpectrumEnumeration | None:
    """The rows of ``new`` that are not rows of ``old``, compared exactly.

    None unless both sets are integral and ``old`` is a subset of ``new``:
    a non-integral set may keep other near-duplicate representatives at the
    next depth, and summing only the new rows would then count some
    frequencies twice.
    """
    both = np.concatenate([old.elements, new.elements])
    if not np.all(both == np.round(both)):
        return None
    _, inverse = np.unique(both, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    seen = np.zeros(both.shape[0], dtype=bool)
    seen[inverse[: old.size]] = True
    fresh = ~seen[inverse[old.size :]]
    if old.size + int(fresh.sum()) != new.size:
        return None
    return SpectrumEnumeration.from_elements(new.sys, new.elements[fresh])


def separation(spec: SpectrumEnumeration) -> float:
    """Smallest pairwise Euclidean distance between enumerated frequencies."""
    if spec.size < 2:
        raise ValidationError("separation needs at least two elements")
    el = spec.elements
    if el.shape[1] == 1:
        return float(np.diff(np.sort(el[:, 0])).min())
    n = el.shape[0]
    step = max(1, SEPARATION_BLOCK_ELEMS // n)
    best = np.inf
    for start in range(0, n - 1, step):
        block = el[start : start + step]
        rest = el[start + 1 :]
        sq = np.zeros((block.shape[0], rest.shape[0]))
        for k in range(el.shape[1]):  # summed in coordinate order
            sq += (block[:, None, k] - rest[None, :, k]) ** 2
        sq[np.tril_indices(block.shape[0], -1, rest.shape[0])] = np.inf  # j <= i
        best = min(best, float(sq.min()))
    return float(np.sqrt(best))
