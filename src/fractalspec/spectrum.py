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

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ConvergenceError, ValidationError
from .measure import (
    FractalMeasure,
    distinct_rows,
    dual_step,
    fourier_abs_many,
    fourier_mu_many,
    row_norms,
)
from .systems import (
    INV_POWER_DEPTH,
    AffineSystem,
    certified_tails,
    dual_box,
    grow_invariant_box,
    sorted_rows,
    word_sums,
)

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
Q_BLOCK = 2**16  # differences or tree nodes held at once by a Q evaluation
BOX_MARGIN = 1e-9  # relative margin of a leaf table's box
TABLE_POINTS = (4, 65)  # range of Chebyshev points per axis of a leaf table
TABLE_INTERP_TOL = 1e-14  # interpolation part of a leaf table's error
TABLE_NODE_TAIL = 1e-15  # product tail at a leaf table's nodes
TABLE_EVAL_BLOCK = 2**11  # points per block of a table evaluation
CYCLE_WALK_STEPS = 1024  # dual steps a cycle witness walk takes at most


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
        """A hand-built set: the rows of ``elements``, sorted, exact repeats
        dropped; a NaN or infinite entry is a :class:`ValidationError`."""
        elements = np.asarray(elements, dtype=float).reshape(-1, sys.d)
        if not np.all(np.isfinite(elements)):
            raise ValidationError("elements contain NaN or Inf")
        elements = sorted_rows(elements)
        elements.setflags(write=False)
        return cls(sys=sys, depth=None, elements=elements)


def enumerate_spectrum(sys: AffineSystem, depth: int) -> SpectrumEnumeration:
    """All sums sum_{k=0}^{depth} (R^T)^k l_k over words in L^(depth+1).

    Output rows are lexicographically sorted and deduplicated: exact
    comparison when every element is integral, otherwise greedily within
    DEDUP_TOL in max-norm (no two output rows that close, every word sum
    that close to an output row).  More than DEFAULT_WORD_BUDGET words, or
    a bound sum_k max_l ||(R^T)^k l||_inf on the sums of 2^53 or more,
    where floats stop holding every integer and distinct sums could merge,
    is a :class:`BudgetError`.
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    n = sys.n_digits
    if n ** (depth + 1) > DEFAULT_WORD_BUDGET:
        raise BudgetError(
            f"N^(depth+1) = {n}**{depth + 1} exceeds word budget {DEFAULT_WORD_BUDGET}"
        )
    bound, level = 0.0, sys.L
    for _ in range(depth + 1):
        bound += float(np.abs(level).max())
        if not bound < 2.0**53:  # rounding never takes a sum past 2^53 below it; inf is over
            raise BudgetError(
                f"word sums at depth {depth} may reach {bound:.3g} >= 2^53, "
                "where distinct sums can round together"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            level = level @ sys.R  # rows (R^T)^k l
    sums = word_sums(sys.L, sys.R, depth + 1)
    if np.all(np.abs(sums - np.round(sums)) <= DEDUP_TOL):
        elements = sorted_rows(np.round(sums))
    else:
        elements = _dedup_near(sorted_rows(sums), DEDUP_TOL)
    elements.setflags(write=False)
    return SpectrumEnumeration(sys=sys, depth=depth, elements=elements)


def _dedup_near(rows: np.ndarray, tol: float) -> np.ndarray:
    """Greedy max-norm dedup of lexsorted rows without exact repeats (so no
    cell holds many copies of one row; repeats are still handled correctly).

    A row is kept unless it lies within ``tol`` of an earlier kept row, so
    kept rows are pairwise more than ``tol`` apart and every dropped row is
    within ``tol`` of a kept one.  Near pairs share a cell or neighbouring
    ones of the power-of-two side just above ``tol`` (:func:`_cell_pairs`,
    the walk of :func:`separation`); the greedy runs in rounds, each
    deciding every row whose earlier near neighbours are decided."""
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for i, j in _cell_pairs(rows, np.ldexp(1.0, np.frexp(tol)[1])):
        near = np.max(np.abs(rows[i] - rows[j]), axis=1) <= tol
        pairs.append(np.sort([i[near], j[near]], axis=0))  # the earlier row in sort order first
    early, late = np.concatenate(pairs, axis=1)
    state = np.zeros(len(rows), dtype=np.int8)  # 0 open, 1 kept, 2 dropped
    while np.any(state == 0):
        state[late[(state[early] == 1) & (state[late] == 0)]] = 2
        waiting = np.zeros(len(rows), dtype=bool)
        waiting[late[state[early] == 0]] = True
        state[(state == 0) & ~waiting] = 1
    return rows[state == 1]


def _cell_pairs(rows: np.ndarray, side: float):
    """Index arrays (i, j) of the rows in equal or neighbouring cells
    floor(x / side), over a few passes, each unordered pair once.

    ``side`` is a power of two (or inf: one cell), so x / side is exact.
    Each row meets the later rows of its cell and the rows of half of its
    3^d - 1 neighbouring cells, found by one distinct_rows over the cells
    and the cells shifted by that offset.  Past 2^53 and in an infinite
    cell a coordinate has no neighbours: c + 1 rounds.
    """
    with np.errstate(over="ignore"):  # x / side past the float range: an inf cell
        cells, cell = distinct_rows(np.floor(rows / side) + 0.0)  # + 0.0: no -0.0 cell
    order = np.argsort(cell, kind="stable")
    cell, m, d = cell[order], cells.shape[0], rows.shape[1]
    starts = np.searchsorted(cell, np.arange(m + 1))  # cell k: order[starts[k]:starts[k+1]]
    for delta in np.indices((3,) * d).reshape(d, -1).T[(3**d - 1) // 2 :] - 1.0:
        if delta.any():  # the later half of the neighbours, at cells + delta
            shifted = cells + delta
            for k in np.flatnonzero(delta):  # a rounded shift names no cell
                with np.errstate(invalid="ignore"):  # inf - inf
                    shifted[shifted[:, k] - cells[:, k] != delta[k]] = np.nan
            _, ids = distinct_rows(np.concatenate([cells, shifted]))
            slot = np.full(2 * m, -1)
            slot[ids[:m]] = np.arange(m)
            other = slot[ids[m:]][cell]
            i = np.flatnonzero(other >= 0)
            i, lo, hi = order[i], starts[other[i]], starts[other[i] + 1]
        else:
            i, lo, hi = order, np.arange(1, len(order) + 1), starts[cell + 1]
        while (keep := lo < hi).any():
            i, lo, hi = i[keep], lo[keep], hi[keep]
            yield i, order[lo]
            lo = lo + 1


def orthogonality_matrix(
    m: FractalMeasure, spec: SpectrumEnumeration
) -> tuple[float, np.ndarray]:
    """Table of |mu-hat(lam_i - lam_j)| and its largest off-diagonal entry.

    The (i, j) entry is the modulus of the inner product of e_{lam_i} and
    e_{lam_j} in L^2(mu); a max off-diagonal near zero is the orthogonality
    certificate.  The moduli come from
    :func:`~fractalspec.measure.fourier_abs_many`, which sorts the pair
    differences i < j and one zero row for the diagonal once, runs the
    product once per distinct difference and stops each at its first
    exactly-zero factor; only the table of moduli is n x n.  On an exactly
    integral Hadamard set the factor at the lowest digit j where lam_i and
    lam_j differ is chi(l_j - l'_j) up to a shift B cannot see, which the
    Hadamard property makes 0; it is 0.0 in floats where its phases are
    quarter integers (cantor4, quad2d), so most differences stop after a
    level or two.
    A retired modulus is the full product's bit for bit: a signed zero
    times a finite factor stays a signed zero, |+-0 +-0i| = 0.0, and no row
    retires unless max|t| tails[0] max(1, tails[0], max|b|) is within
    ``measure.RETIRE_BOUND`` (2^1000), which keeps every later point and
    phase of the chain finite.

    Each modulus is mirrored to (j, i), with the bits of the product over
    all n^2 differences: fl(lam_j - lam_i) is 0.0 - fl(lam_i - lam_j), the
    max norm and so the depth are those of all n^2, and |mu-hat(0.0 - t)|
    has the bits of |mu-hat(t)|: the exact-phase product at 0.0 - t is the
    conjugate of the one at t up to the sign of an exact zero, which no
    modulus sees.  In tests/test_spectrum.py, ``test_abs_is_even_bit_for_bit``
    checks the last step and ``test_matches_full_difference_route`` the
    table against all n^2 differences.
    """
    el = spec.elements
    n = el.shape[0]
    if n * n > DEFAULT_WORD_BUDGET:
        raise BudgetError(f"{n}^2 pairs exceed the pair budget {DEFAULT_WORD_BUDGET}")
    pairs = np.triu(np.ones((n, n), dtype=bool), 1)
    pairs[:1, :1] = True  # lam_0 - lam_0: the diagonal's one zero row, first in row order
    # a column at a time: a 2-D mask over n x n picks several times faster than over n x n x d
    moduli = fourier_abs_many(m, np.stack([(x[:, None] - x)[pairs] for x in el.T], axis=1))
    table = np.empty((n, n))
    table[pairs] = moduli
    table.T[pairs] = moduli
    np.fill_diagonal(table, moduli[:1])
    return float(moduli[1:].max()) if n > 1 else 0.0, table


def q_partial(m: FractalMeasure, spec: SpectrumEnumeration, t) -> float:
    """Q_n(t) = sum over enumerated lam of |mu-hat(t - lam)|^2.

    Caller is responsible for the family being orthogonal; only then is the
    Bessel bound Q_n <= 1 meaningful.
    """
    return float(q_partial_many(m, spec, np.atleast_2d(np.asarray(t, dtype=float)))[0])


def q_partial_many(m: FractalMeasure, spec: SpectrumEnumeration, T) -> np.ndarray:
    """Vectorized Q_n over rows of T, summed directly over the frequencies.

    Rows of T are taken in blocks so that about Q_BLOCK differences are held
    at once; each block picks its own product depth.
    """
    T = np.asarray(T, dtype=float).reshape(-1, m.sys.d)
    el = spec.elements
    out = np.empty(T.shape[0])
    rows = max(1, Q_BLOCK // max(el.shape[0], 1))
    for start in range(0, T.shape[0], rows):
        block = T[start : start + rows]
        diffs = block[:, None, :] - el[None, :, :]
        try:
            moduli = fourier_abs_many(m, diffs.reshape(-1, m.sys.d))
        except ConvergenceError as exc:
            raise _naming_point(exc, block, diffs) from None
        out[start : start + rows] = (moduli.reshape(block.shape[0], el.shape[0]) ** 2).sum(axis=1)
    return out


class _WordTree:
    """Q_n over a grid as a walk of the dual word tree (see completeness_scan).

    A node at level k holds the point s_k and the weight
    W = prod_{j<k} |chi(s_j - l_j)|^2; its children are s_{k+1} = (R^T)^-1
    (s_k - l) for l in L, with W times |chi(s_k - l)|^2, one transfer
    operator step (:func:`~fractalspec.measure.dual_step`) per node.  The
    deepest level whose nodes all fit in Q_BLOCK is kept between depths;
    below it the walk is depth first, splitting the grid and then the words
    so that at most about Q_BLOCK nodes are live.
    """

    def __init__(self, m: FractalMeasure, grid: np.ndarray, depth: int):
        self.m = m
        self.n = m.sys.n_digits
        self.pts = grid[:, None, :]  # (grid, nodes, d) at self.level
        self.w = np.ones(self.pts.shape[:2])
        self.level = 0
        self.table = _leaf_table(m, grid, depth)
        self.grid = grid

    def _leaf(self, depth: int):
        """Leaf evaluator for Q_depth and its certified error: the table once
        the depth has more leaves than the table has nodes (the product is
        exact at lattice points, the table is not), else the product."""
        leaves = self.pts.shape[0] * self.n ** (depth + 1)
        if self.table is not None and leaves > self.table.p**self.m.sys.d:
            return self.table, self.table.error
        return _direct_leaf(self.m)

    def _expand(self, pts, w):
        g, k, d = pts.shape
        weights, images = dual_step(self.m.sys, pts)  # N exponentials per node
        return images.reshape(g, k * self.n, d), (w[:, :, None] * weights).reshape(g, k * self.n)

    def q(self, depth: int) -> tuple[np.ndarray, float]:
        """Q_depth per grid point (sum of W |mu-hat|^2 over the level depth+1
        nodes) and the bound on its error, for nondecreasing depths."""
        leaf, error = self._leaf(depth)
        while self.level <= depth and self.w.size * self.n <= Q_BLOCK:
            self.pts, self.w = self._expand(self.pts, self.w)
            self.level += 1
        return self._sums(self.pts, self.w, depth + 1 - self.level, leaf, self.grid), error

    def _sums(self, pts, w, levels: int, leaf, grid) -> np.ndarray:
        g, k = w.shape
        if levels == 0:
            try:
                values = leaf(pts.reshape(-1, pts.shape[2])).reshape(g, k)
            except ConvergenceError as exc:
                raise _naming_point(exc, grid, pts) from None
            return np.sum(w * values, axis=1)
        if w.size * self.n > Q_BLOCK:
            if g > 1:
                rows = max(1, Q_BLOCK // (k * self.n))
                return np.concatenate(
                    [
                        self._sums(pts[s], w[s], levels, leaf, grid[s])
                        for s in (slice(i, i + rows) for i in range(0, g, rows))
                    ]
                )
            cols = max(1, Q_BLOCK // self.n)
            return sum(
                self._sums(pts[:, j : j + cols], w[:, j : j + cols], levels, leaf, grid)
                for j in range(0, k, cols)
            )
        pts, w = self._expand(pts, w)
        return self._sums(pts, w, levels - 1, leaf, grid)


def _naming_point(exc: ConvergenceError, grid: np.ndarray, nodes: np.ndarray) -> ConvergenceError:
    """``exc``, raised by the product at the (grid, nodes, d) ``nodes``, naming
    the grid point of the longest node: that point alone needs the failed depth."""
    longest = row_norms(nodes.reshape(-1, nodes.shape[2])).reshape(nodes.shape[:2]).max(axis=1)
    return ConvergenceError(f"{exc} for grid point t = {grid[int(np.argmax(longest))].tolist()}")


def _leaf_box(sys: AffineSystem, grid: np.ndarray, depth: int) -> np.ndarray:
    """A box holding the level depth+1 nodes of the word tree over ``grid``
    (:func:`~fractalspec.systems.dual_box`) that every dual map sends into
    itself, so it holds every deeper level.  A margin absorbs the rounding
    of the walk.  A :class:`ConvergenceError` when no invariant box is found.
    """
    box = dual_box(sys, grid, depth + 1)
    margin = BOX_MARGIN * (1.0 + np.abs(box).max())
    return grow_invariant_box(sys, box + np.array([-margin, margin]), -margin, pad=2.0 * margin)


def _leaf_table(m: FractalMeasure, grid: np.ndarray, depth: int) -> "_LeafTable | None":
    """The certified leaf table of a scan of ``grid`` from ``depth``; None
    without an invariant box, a point count or a node product tail in reach."""
    try:
        box = _leaf_box(m.sys, grid, depth)
        points = _table_points(m.sys, box)
        return None if points is None else _LeafTable(m, box, points)
    except ConvergenceError:
        return None


def _lebesgue(p):
    """Upper bound on the Lebesgue constant of p Chebyshev points of the
    second kind (Trefethen, ATAP Thm 15.2)."""
    return 2.0 / np.pi * np.log(p) + 1.0


def _interpolation_bound(sys: AffineSystem, box: np.ndarray, p):
    """Certified sup error of the p-point tensor Chebyshev interpolant of
    |mu-hat|^2 on ``box`` (elementwise over an array of p).

    |mu-hat|^2(z) = int int e(-z.(x - x')) dmu dmu is entire with
    |.(s + iy)| <= exp(2 pi sum_i |y_i| D), D = sum_k ||R^-k|| max|b - b'|
    >= every coordinate width of the support.  On the Bernstein
    polyellipse rho of the box that is M = exp(pi (rho - 1/rho) sum_i a_i D)
    (a_i the half-widths), the 1-D error is 4 M rho^-(p-1) / (rho - 1)
    (Trefethen, ATAP Thm 8.2) and the tensor error sums Lambda_p^i times it
    over i < d.  Minimized over a fixed grid of rho, every one of which is
    a valid bound.
    """
    diffs = sys.B[:, None, :] - sys.B[None, :, :]
    width = certified_tails(sys)[0] * float(np.max(np.linalg.norm(diffs, axis=2)))
    growth = np.pi * 0.5 * float(np.sum(box[:, 1] - box[:, 0])) * width
    p = np.asarray(p, dtype=float)
    rho = 1.0 + np.geomspace(1e-3, 1e3, 601)
    stack = sum(_lebesgue(p) ** i for i in range(sys.d))
    with np.errstate(over="ignore"):  # a bound past the float range is +inf
        log_bound = (
            np.log(4.0)
            + growth * (rho - 1.0 / rho)
            - (p[..., None] - 1.0) * np.log(rho)
            - np.log(rho - 1.0)
        )
        return np.exp(log_bound.min(axis=-1)) * stack


def _table_points(sys: AffineSystem, box: np.ndarray) -> int | None:
    """Smallest p in TABLE_POINTS whose interpolation bound is at most
    TABLE_INTERP_TOL, or None."""
    points = np.arange(*TABLE_POINTS)
    ok = np.nonzero(_interpolation_bound(sys, box, points) <= TABLE_INTERP_TOL)[0]
    return int(points[ok[0]]) if ok.size else None


class _LeafTable:
    """Tensor Chebyshev interpolant of |mu-hat|^2 on a box, with a certified
    bound ``error`` on its distance to |mu-hat|^2 anywhere in the box.

    The error adds: the interpolation bound; Lambda_p^d times the node
    error (:func:`_product_error`); and the rounding of the evaluation,
    eps sum_k |c_k| (5 sum_i (k_i + 1)^2 + 2 d p + d), from the Chebyshev
    recurrence and the sums (first-order counts).
    """

    def __init__(self, m: FractalMeasure, box: np.ndarray, p: int):
        sys = m.sys
        d = sys.d
        self.center = box.mean(axis=1)
        self.half = 0.5 * (box[:, 1] - box[:, 0])
        self.p = p
        n = p - 1
        u = np.cos(np.pi * np.arange(p) / n)  # second-kind points, 1 down to -1
        axes = self.center[:, None] + self.half[:, None] * u
        nodes = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
        fine = FractalMeasure(sys, product_tail_tol=TABLE_NODE_TAIL)
        values, tails = fourier_mu_many(fine, nodes)
        coef = (np.abs(values) ** 2).reshape((p,) * d)
        jk = np.outer(np.arange(p), np.arange(p)) % (2 * n)
        dct = np.cos(np.pi * jk / n) * (2.0 / n)  # DCT-I: values to coefficients
        dct[:, [0, n]] *= 0.5
        dct[[0, n], :] *= 0.5
        for axis in range(d):
            coef = np.moveaxis(np.tensordot(dct, coef, axes=([1], [axis])), 0, axis)
        self.coef = coef.reshape(p, -1)

        depth = fine._depth_for(float(np.linalg.norm(nodes, axis=1).max()))
        node_error = _product_error(float(tails.max()), depth, sys.n_digits)
        k = np.indices((p,) * d).reshape(d, -1)
        weights = 5.0 * np.sum((k + 1.0) ** 2, axis=0) + 2 * d * p + d
        rounding = np.finfo(float).eps * float(np.sum(np.abs(coef).ravel() * weights))
        self.error = float(
            _interpolation_bound(sys, box, p) + _lebesgue(p) ** d * node_error + rounding
        )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], TABLE_EVAL_BLOCK):
            block = pts[start : start + TABLE_EVAL_BLOCK]
            cheb = []  # per axis: T_k(u) as (p, rows)
            for u in ((block - self.center) / self.half).T:
                t = np.empty((self.p, u.size))
                t[0] = 1.0
                t[1] = u
                two_u = 2.0 * u
                for j in range(2, self.p):
                    np.multiply(two_u, t[j - 1], out=t[j])
                    t[j] -= t[j - 2]
                cheb.append(t)
            acc = cheb[0].T @ self.coef
            for t in cheb[1:]:
                acc = np.sum(acc.reshape(u.size, self.p, -1) * t.T[:, :, None], axis=1)
            out[start : start + TABLE_EVAL_BLOCK] = acc.reshape(-1)
        return out


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of a grid scan of Q_n with optional depth escalation.

    ``q_error`` is the certified leaf error subtracted from a tree-summed Q.
    It is 0 for a direct sum over the frequencies, which is not exact: each
    t - lam is rounded, so with |lam| up to 1.6e5 (R = 12, B = {0, 1/4, 1/2,
    3/4}, L = {0, 1, 2, 7}, depth 4) Q is up to about 1e-12 off either way.
    A scan that evaluated no depth has no ``min_Q``, ``max_Q`` or ``argmin``.
    ``status`` is "incomplete-evidence" only for a converged scan of a
    tree-gated set with a grid point where Q = 0 whose weight-1 walk reaches
    a nonzero m_B-cycle (see :func:`completeness_scan`); a converged scan
    without one reads "inconclusive", ``converged`` kept.  A scan of a
    system that fails the compatibility check never reads
    "complete-evidence".
    """

    min_Q: float | None
    argmin: np.ndarray | None
    max_Q: float | None
    converged: bool
    status: str  # complete-evidence | incomplete-evidence | inconclusive
    target: float
    depths: tuple[int, ...]
    min_trace: tuple[float, ...]
    q_error: float
    # per grid point at the last depth (empty if none); the CSV rows
    Q: np.ndarray = field(metadata={"artifact": False})


def completeness_scan(
    m: FractalMeasure,
    spec: SpectrumEnumeration,
    grid,
    target: float,
    increment_tol: float = 1e-4,
    max_depth: int | None = None,
) -> CompletenessReport:
    """Scan Q over a grid, deepening the enumeration until min Q stabilizes.

    Deepening stops once one extra depth moves min Q by less than
    ``increment_tol`` (converged), or once DEFAULT_WORD_BUDGET words, word
    sums beyond 2^53 (:func:`enumerate_spectrum`) or ``max_depth`` is hit
    (inconclusive; also when not even the starting depth fits).  The
    enumeration must be one of :func:`enumerate_spectrum` for the measure's
    system (the same R, B and L), since deepening enumerates ``m.sys``'s
    set; a hand-built set (``depth`` None, which :func:`q_partial_many`
    sums) or a set of another system is a :class:`ValidationError`.

    Evidence labels: every reported Q underestimates the limit (up to the
    rounding of a direct sum, see :class:`CompletenessReport`), so
    "complete-evidence" (min Q >= target) is one-sided.  It also needs a
    compatible system (the cached
    :attr:`~fractalspec.systems.AffineSystem.validation`): otherwise the
    enumerated exponentials need not be orthogonal, Q is no Bessel sum and
    may exceed 1, and the scan reads "inconclusive".  A stop below the
    target proves nothing by itself: Q_n can stall for hundreds of depths,
    and an exact zero of Q_n at a grid point can still rise.  So a
    converged scan reads "incomplete-evidence" only on the tree's gate
    below, when the walk from a grid point c != 0 with Q = 0 along the
    heaviest dual map takes only steps of weight |chi(s - l)|^2 = 1 until it
    repeats a nonzero point c', checked exactly (:func:`_reaches_cycle`).
    Then c' is an m_B-cycle point, so mu-hat(c' - lam) = 0 for every lam of
    the whole set, and the weight-1 steps carry Q(c) = Q(c') = 0 back to
    c: e_c is orthogonal to the set.  Every other stop reads
    "inconclusive", with ``converged`` kept as evidence.

    Transfer-operator tree.  When the system is exactly integral
    (:attr:`~fractalspec.systems.AffineSystem.is_integral`) and 0 is in L,
    the N^(depth+1) words have distinct sums and |chi(t - lam)|^2 =
    |chi(t - l_0)|^2 for lam = l_0 + R^T lam', so Q_n(t) is the sum over
    words l_0..l_n of W |mu-hat(s_{n+1})|^2 with s_0 = t,
    s_{k+1} = (R^T)^-1 (s_k - l_k) and W = prod_k |chi(s_k - l_k)|^2; the
    weights sum to 1 (unitarity).  The tree is walked depth first in grid
    blocks, with at most about Q_BLOCK nodes live.  Leaves take
    |mu-hat|^2 from one certified tensor Chebyshev table per scan, on an
    invariant box around the starting depth's leaves (so the table does
    not depend on ``max_depth``), or from the product when the depth has
    fewer leaves than the table has nodes or no table can be certified.
    Either way every leaf is within ``q_error`` of |mu-hat|^2, so
    Q_n - q_error is a lower bound; the report keeps the running max over
    depths (the sets are nested) and never goes below 0.  Every other
    system's set is summed directly (the caller's at the starting depth,
    then afresh at each depth), with ``q_error`` = 0 and the rounding of
    t - lam left uncounted.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1, m.sys.d)
    if grid.size == 0:
        raise ValidationError("completeness grid is empty")
    sys = m.sys
    if spec.depth is None:
        raise ValidationError("a hand-built set cannot be deepened; q_partial_many sums it")
    if not all(np.array_equal(getattr(spec.sys, key), getattr(sys, key)) for key in "RBL"):
        raise ValidationError(
            "the spectrum was enumerated for another system than the measure's; "
            "a deeper scan would enumerate the measure's own set"
        )
    n = sys.n_digits
    depths: list[int] = []
    trace: list[float] = []
    converged = False
    q = np.zeros(grid.shape[0])
    q_error = 0.0
    max_q = -np.inf
    # Distinct words have distinct sums.  Let two words first differ at j:
    # l_j - m_j = R^T w, w an integer combination of (R^T)^i (m_k - l_k), so
    # exact integrality makes b.(l_j - m_j) = sum (R^(i+1) b).(...) an integer
    # for every b, and columns l_j and m_j of the digit matrix would have
    # inner product N instead of 0, far outside the unitarity tolerance
    # FractalMeasure enforces.
    gated = sys.is_integral and np.any(np.all(sys.L == 0.0, axis=1))
    tree = _WordTree(m, grid, spec.depth) if gated else None
    top = spec.depth + 8 if max_depth is None else max_depth
    for depth in range(spec.depth, top + 1):
        if n ** (depth + 1) > DEFAULT_WORD_BUDGET:
            break
        if tree is None:
            try:
                level = spec if depth == spec.depth else enumerate_spectrum(sys, depth)
            except BudgetError:  # word sums beyond 2^53
                break
            q = q_partial_many(m, level, grid)
        else:
            sums, q_error = tree.q(depth)
            q = np.maximum(q, sums - q_error)
        max_q = max(max_q, float(q.max()))
        depths.append(depth)
        trace.append(float(q.min()))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < increment_tol:
            converged = True
            break
    if not depths:
        q = np.empty(0)

    min_q = float(q.min()) if depths else None
    if depths and min_q >= target and sys.validation.compatible:
        # the set is orthogonal only for a compatible system
        status = "complete-evidence"
    elif converged and tree is not None and any(_reaches_cycle(sys, c) for c in grid[q == 0.0]):
        status = "incomplete-evidence"
    else:
        status = "inconclusive"  # no witness, or budget or max_depth hit first
    q.setflags(write=False)
    return CompletenessReport(
        min_Q=min_q,
        argmin=grid[int(q.argmin())].copy() if depths else None,
        max_Q=max_q if depths else None,
        converged=converged,
        status=status,
        target=target,
        depths=tuple(depths),
        min_trace=tuple(trace),
        q_error=q_error,
        Q=q,
    )


def _reaches_cycle(sys: AffineSystem, c: np.ndarray) -> bool:
    """Whether the walk from c != 0 along the heaviest dual map
    (:func:`~fractalspec.measure.dual_step`) takes only weight-1 edges until
    it repeats a point, and that point is nonzero: c is an m_B-cycle point
    or enters a nonzero cycle.

    Each step s -> s' with l is checked in rational arithmetic on the
    floats: (b - b_0).(s - l) is an integer for every b, so all N
    exponentials of chi(s - l) agree and |chi(s - l)|^2 = 1; and
    R^T s' + l = s, so s' is the exact image, with no inverse taken.  A
    walk that fails a check, falls into the trivial cycle at 0 or runs past
    CYCLE_WALK_STEPS is no witness.
    """
    if not np.any(c):
        return False
    digits, shifts, rt = (
        [[Fraction(x) for x in row] for row in a] for a in (sys.B, sys.L, sys.R.T)
    )
    seen = set()
    s = c
    for _ in range(CYCLE_WALK_STEPS):
        seen.add(tuple(s))
        weights, images = dual_step(sys, s)
        j = int(np.argmax(weights))
        here, image = ([Fraction(x) for x in row] for row in (s, images[j]))
        diff = [x - y for x, y in zip(here, shifts[j])]
        phase = [sum(x * y for x, y in zip(b, diff)) for b in digits]
        back = [sum(x * y for x, y in zip(row, image)) + y for row, y in zip(rt, shifts[j])]
        if any((p - phase[0]).denominator != 1 for p in phase) or back != here:
            return False
        s = images[j]
        if tuple(s) in seen:
            return bool(np.any(s))
    return False


def _product_error(tau: float, depth: int, n: int) -> float:
    """Certified error of |mu-hat|^2 from a truncated product of at most
    ``depth`` N-digit factors whose tail is at most ``tau``: 2 tau + tau^2
    for the tail, plus 2 eps K (N + 4) for the rounding of the products."""
    return 2.0 * tau + tau**2 + 2.0 * np.finfo(float).eps * depth * (n + 4)


def _direct_leaf(m: FractalMeasure):
    """|mu-hat|^2 from the truncated product, and its certified error for
    the tail tau <= product_tail_tol and at most INV_POWER_DEPTH factors."""

    def leaf(pts):
        return fourier_abs_many(m, pts) ** 2

    return leaf, _product_error(m.product_tail_tol, INV_POWER_DEPTH, m.sys.n_digits)


def separation(spec: SpectrumEnumeration) -> float:
    """Smallest pairwise Euclidean distance between enumerated frequencies.

    In d > 1 two rows neighbouring in the stored order bound it by h; on
    cells of the power-of-two side just above h (:func:`_cell_pairs`, the
    walk of the near-duplicate merge) a pair within h shares a cell or
    neighbouring ones.  A pair's differences are squared after an exact
    scaling by the power of two of the largest, so no square under- or
    overflows and a distance with squares in range keeps the bits of
    sqrt(sum of squares); a computed distance is at least that largest.
    """
    if spec.size < 2:
        raise ValidationError("separation needs at least two elements")
    el = spec.elements
    if el.shape[1] == 1:
        return float(np.diff(np.sort(el[:, 0])).min())
    cols = el.T.copy()

    def shortest(best, i, j):
        diffs = [np.abs(x[i] - x[j]) for x in cols]
        top = diffs[0]
        for x in diffs[1:]:
            top = np.maximum(top, x)
        near = top < best  # a pair with top >= best cannot lower it
        _, e = np.frexp(top[near])
        squares = sum(np.ldexp(x[near], -e) ** 2 for x in diffs)
        return float(np.min(np.ldexp(np.sqrt(squares), e), initial=best))

    best = shortest(np.inf, slice(1, None), slice(None, -1))
    side = np.ldexp(1.0, np.frexp(best)[1]) if best < np.inf else best  # inf: one cell
    for i, j in _cell_pairs(el, side):
        best = shortest(best, i, j)
    return best
