"""The invariant measure of an affine system and its Fourier transform.

For a validated system the maps s_b(x) = R^-1 x + b admit a unique
invariant probability measure mu = N^-1 sum_b mu o s_b^-1, supported on the
attractor {sum_k R^-k b_k}.  Everything here flows from that equation:

* mu-hat(t) = integral of exp(-2 pi i t.x) is an infinite product of
  exponential-sum masks, truncated with a certified tail bound;
* unrolling the equation K times gives an atomic measure on N^K points
  whose transform equals the K-term truncated product exactly, which makes
  it the natural cross-check oracle;
* integrating monomials against both sides yields a closed linear system
  for moments;
* iterating a randomly chosen map gives the usual chaos-game sampler.

The dual side lives here too: the transfer operator
(Cq)(t) = sum_l |chi(t - l)|^2 q((R^T)^-1 (t - l)), whose one step at
points is :func:`dual_step` and whose action on functions sampled over an
invariant box (:class:`GridFunction`) is :func:`apply_ruelle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from ._numeric import CIS_BLOCK, cis2pi, cis2pi_block, multi_indices
from .errors import BudgetError, ConvergenceError, DomainError, ValidationError, clip
from .systems import (
    BOX_TOL,
    AffineSystem,
    box_exit,
    certified_tails,
    check_hadamard,
    dual_points,
    require_expansive,
    unitarity_tolerance,
    word_sums,
)

__all__ = [
    "FractalMeasure",
    "AtomicApproximation",
    "GridFunction",
    "apply_ruelle",
    "chi_mask",
    "fourier_mu",
    "fourier_mu_many",
    "atomic_approximation",
    "moments",
    "chaos_sample",
]

DEFAULT_ATOM_BUDGET = 2**24
DEFAULT_MOMENT_DEGREE_CAP = 8
CHAOS_BURN_IN = 100  # random-iteration steps discarded before sampling
# numpy's complex mean(axis=1) adds this many terms or fewer one by one from +0,
# so chi_mask sums such digit sets a column at a time, with the same bits and
# faster than the mean over an (M, N) array; tests/test_phase_kernel.py checks
# the bits against the live mean(axis=1), so another summation order fails there
SEQUENTIAL_DIGITS = 3
FOURIER_BLOCK = 8192  # distinct rows per block of fourier_mu_many's product
RETIRE_BOUND = 2.0**1000  # chain bound below which fourier_abs_many retires zero rows


def chi_mask(sys: AffineSystem, t) -> complex | np.ndarray:
    """Exponential-sum mask N^-1 sum_b exp(2 pi i b.t).

    Accepts a single d-vector (returns a scalar) or an (M, d) array of
    frequencies (returns an (M,) array).  Values at points where every
    phase is a quarter integer are exact; in particular the mask vanishes
    exactly where it should.  The values are those of
    ``cis2pi(t @ B.T).mean(axis=1)`` bit for bit: numpy's mean adds up to
    SEQUENTIAL_DIGITS complex terms one by one from +0, so small digit sets
    are summed a column at a time in that order, a zero digit's column
    without the trig kernel, and larger ones go through the mean itself.
    """
    t = np.asarray(t, dtype=float)
    single = t.ndim <= 1
    pts = np.atleast_2d(t).reshape(-1, sys.d)
    phases = pts @ sys.B.T
    if sys.n_digits > SEQUENTIAL_DIGITS:
        values = cis2pi(phases).mean(axis=1)
    else:
        values = np.zeros(pts.shape[0], dtype=complex)
        for column, zero in zip(phases.T, sys.zero_digits):
            values += _zero_digit_exponentials(column) if zero else cis2pi(column)
        values /= sys.n_digits
    return complex(values[0]) if single else values


def _zero_digit_exponentials(phases: np.ndarray) -> np.ndarray:
    """cis2pi of the phases of a zero digit: 1 + 0j where finite, and
    cis2pi's own nan where t was not finite."""
    out = np.ones(phases.shape, dtype=complex)
    bad = ~np.isfinite(phases)
    if bad.any():
        out[bad] = cis2pi(phases[bad])
    return out


def shifted_masks(sys: AffineSystem, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi(t - l) for every row l of L at (..., d) points t, as (..., |L|),
    and the (..., N) digit exponentials e(b.t) they come from.

    One digit exponential serves every shift:
    chi(t - l) = N^-1 sum_b e(b.t) conj(e(b.l)) = e(t @ B^T) @ h[:, l] with
    h = ``sys.chi_shifts``.  Every digit, a zero digit too, goes through cis2pi.
    """
    e = cis2pi(pts @ sys.B.T)
    return e @ sys.chi_shifts, e


def dual_step(sys: AffineSystem, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the transfer operator (Cq)(t) = sum_l |chi(t - l)|^2
    q(sigma_l(t)) at (..., d) points t: the weights |chi(t - l)|^2 as
    (..., |L|), which sum to 1 by unitarity, and the images sigma_l(t)
    (:func:`~fractalspec.systems.dual_points`) as (..., |L|, d).
    """
    chi, _ = shifted_masks(sys, pts)
    return chi.real**2 + chi.imag**2, dual_points(sys, pts)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued samples on a regular grid over an axis-aligned box."""

    box: np.ndarray  # (d, 2)
    samples: np.ndarray

    @property
    def d(self) -> int:
        return self.box.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.samples.shape

    @property
    def steps(self) -> np.ndarray:
        sizes = np.asarray(self.samples.shape)
        return (self.box[:, 1] - self.box[:, 0]) / np.maximum(sizes - 1, 1)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n)
            for (lo, hi), n in zip(self.box, self.samples.shape)
        ]

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (M, d) array, C-order over axes."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @classmethod
    def from_callable(cls, box, shape, fn) -> "GridFunction":
        box = np.asarray(box, dtype=float)
        probe = cls(box=box, samples=np.zeros(shape))
        values = np.asarray(fn(probe.nodes()), dtype=float).reshape(shape)
        values.setflags(write=False)
        return cls(box=box, samples=values)

    def interpolate(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at (M, d) points inside the box.

        A point outside the box raises DomainError; points on its faces
        (in d = 1, its ends) are inside.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, self.d)
        inside = (pts >= self.box[:, 0]) & (pts <= self.box[:, 1])
        if not np.all(inside):
            raise DomainError(
                f"{int(np.sum(~np.all(inside, axis=1)))} interpolation points "
                "lie outside the box"
            )
        ends, fracs = [], []  # per axis: cell end indices and position in cell
        for axis, x in zip(self.axes(), pts.T):
            lo = np.searchsorted(axis, x, side="right") - 1
            lo = np.clip(lo, 0, max(axis.size - 2, 0))
            hi = np.minimum(lo + 1, axis.size - 1)
            width = axis[hi] - axis[lo]
            ends.append((lo, hi))
            fracs.append(
                np.divide(x - axis[lo], width, out=np.zeros_like(x), where=width > 0)
            )
        out = np.zeros(pts.shape[0])
        for corner in product((0, 1), repeat=self.d):
            weight = np.ones(pts.shape[0])
            for frac, upper in zip(fracs, corner):
                weight *= frac if upper else 1.0 - frac
            index = tuple(end[upper] for end, upper in zip(ends, corner))
            out += weight * self.samples[index]
        return out


def apply_ruelle(sys: AffineSystem, q: GridFunction) -> GridFunction:
    """One application of the transfer operator, sampled on q's own grid.

    The nodes go in blocks whose digit exponentials fill about one
    CIS_BLOCK, all dual maps per block, so memory stays flat as the grid
    grows.  Per block, one :func:`dual_step` gives the weights and the
    mapped nodes of every dual map; q is evaluated at all of them by one
    multilinear interpolation, which requires the box to be invariant under
    every dual map; a violation beyond ``BOX_TOL`` raises DomainError
    (enlarge the box).
    """
    nodes = q.nodes()
    samples = np.empty(nodes.shape[0])
    rows = max(1, CIS_BLOCK // sys.n_digits)
    for start in range(0, nodes.shape[0], rows):
        weights, mapped = dual_step(sys, nodes[start : start + rows])
        mapped = mapped.reshape(-1, sys.d)
        excess = box_exit(q.box, mapped)
        if excess > BOX_TOL:
            raise DomainError(f"a dual map leaves the box by {excess:.3e}; enlarge the box")
        values = q.interpolate(np.clip(mapped, q.box[:, 0], q.box[:, 1], out=mapped))
        samples[start : start + rows] = np.sum(weights * values.reshape(weights.shape), axis=1)
    samples = samples.reshape(q.shape)
    samples.setflags(write=False)
    return GridFunction(box=q.box, samples=samples)


def cis2pi_outer(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cis2pi(rows @ cols.T) as a complex (M, n) array, bit for bit.

    The array is allocated once and the kernel writes each block of rows
    holding about CIS_BLOCK elements straight into it, so neither the
    (M, n) phase matrix nor a copy of a block ever exists; callers that
    want the conjugate take it in place with ``np.conj(out, out=out)``.
    """
    out = np.empty((rows.shape[0], cols.shape[0]), dtype=complex)
    step = max(1, CIS_BLOCK // max(1, cols.shape[0]))
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        cis2pi_block((rows[block] @ cols.T).reshape(-1), out[block].reshape(-1))
    return out


@dataclass(frozen=True)
class AtomicApproximation:
    """Depth-K unrolling of the invariance equation: N^K equal atoms."""

    depth: int
    points: np.ndarray  # (N^K, d)
    weight: float

    def transform(self, t) -> complex | np.ndarray:
        """Fourier transform sum_w weight * exp(-2 pi i t.x_w).

        Direct summation over atoms; independent of the infinite-product
        route, which is exactly why it serves as an oracle for it.
        """
        t = np.asarray(t, dtype=float)
        single = t.ndim <= 1
        pts = np.atleast_2d(t).reshape(-1, self.points.shape[1])
        basis = cis2pi_outer(pts, self.points)
        values = np.conj(basis, out=basis).mean(axis=1)
        return complex(values[0]) if single else values

    def moment(self, order) -> float:
        """Raw moment of the atomic measure for a multi-index (int in d=1)."""
        order = _as_multi_index(order, self.points.shape[1])
        mono = np.prod(self.points ** np.asarray(order, dtype=float), axis=1)
        return float(mono.mean())


class FractalMeasure:
    """Invariant probability measure of a validated affine system.

    The constructor insists on expansiveness, on certified product tails and
    on the unitarity of the digit matrix (deviation within
    :func:`~fractalspec.systems.unitarity_tolerance`); integrality of the
    system is the caller's concern and is checked separately where
    orthogonality claims depend on it.  A product takes the fewest factors
    whose certified tail is within ``product_tail_tol``, and at most
    INV_POWER_DEPTH, the depth of the system's tails; past that the
    transform is a :class:`ConvergenceError`.
    """

    def __init__(self, sys: AffineSystem, product_tail_tol: float = 1e-12):
        require_expansive(sys)
        deviation = check_hadamard(sys)
        if deviation > unitarity_tolerance(sys):
            raise ValidationError(
                f"digit matrix is not unitary (deviation {deviation:.3e})"
            )
        self.sys = sys
        self.product_tail_tol = float(product_tail_tol)
        self._max_b = float(np.max(np.linalg.norm(sys.B, axis=1)))
        # tail_sums[K] >= sum_{k>=K} ||(R^T)^-k||: certified product tails
        self._tail_sums = certified_tails(sys)

    def _depth_for(self, max_norm: float) -> int:
        """Smallest K whose tail bound is below product_tail_tol."""
        scale = 2.0 * np.pi * self._max_b * max_norm
        if scale == 0.0:
            return 0
        tails = scale * self._tail_sums
        ok = np.nonzero(tails <= self.product_tail_tol)[0]
        if ok.size == 0:
            raise ConvergenceError(
                # short enough to name a 2-D grid point within 120 characters
                f"product tail > {self.product_tail_tol:g} (|t| = {max_norm:.6g})"
            )
        return int(ok[0])


def fourier_mu(m: FractalMeasure, t) -> tuple[complex, float]:
    """mu-hat(t) with a certified truncation bound.

    Returns (value, tail_bound) where value is the K-term truncated product
    prod_k conj(chi((R^T)^-k t)) and |mu-hat(t) - value| <= tail_bound.  The
    depth K is the smallest one whose mask-deviation tail falls below the
    measure's ``product_tail_tol``.
    """
    values, tails = fourier_mu_many(m, np.atleast_2d(np.asarray(t, dtype=float)))
    return complex(values[0]), float(tails[0])


def fourier_mu_many(m: FractalMeasure, T) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized mu-hat over rows of T (shape (M, d)).

    The product depth and the tails come from all rows; the product itself
    runs once per distinct row (bit pattern), so repeated arguments, such as
    the differences of a lattice spectrum, cost one evaluation each.  The
    distinct rows go through every depth in blocks of FOURIER_BLOCK, so the
    temporaries of a block stay in cache.  A block of n rows stacks the
    points of max(1, FOURIER_BLOCK // n) consecutive depths into one
    chi_mask call, so few rows do not pay a call per depth, while a full
    block keeps one depth per call.  Each depth's points still come from
    the previous depth's by the same matmul, and each row's factors are
    multiplied in the same depth order as by one pass over all rows; a lone
    row runs with a copy of itself (:func:`_product`), so the bits of a row
    do not depend on the rows around it, one row alone included.
    """
    values, inverse, norms, depth = _product(m, T, retire=False)
    scale = 2.0 * np.pi * m._max_b
    return values[inverse], scale * norms[inverse] * m._tail_sums[depth]


def fourier_abs_many(m: FractalMeasure, T) -> np.ndarray:
    """|mu-hat| over rows of T: the bits of ``np.abs(fourier_mu_many(m, T)[0])``
    from the same product, with every row retired at its first exact zero.

    After each chi_mask call of a block, the rows whose running product is
    exactly 0 (both parts +-0) leave the block, and the later depths run
    over the rest.  A signed zero times a finite factor is a signed zero,
    and |+-0 +-0i| = 0.0, so a retired row's modulus is the full product's
    as long as every later factor is finite.  The depth rule raises on a
    non-finite row, and rows retire only when RETIRE_BOUND bounds every
    product of the chain t -> (R^T)^-1 t and of its phases b.s, so no later
    point overflows: see :func:`_product`.  Values with signs (such as the
    ``fourier`` command's real and imaginary parts) come from
    :func:`fourier_mu_many`, where a zero keeps the sign of the full product.
    """
    values, inverse, _, _ = _product(m, T, retire=True)
    return np.abs(values)[inverse]


def _product(m: FractalMeasure, T, retire: bool):
    """The truncated product at the distinct rows of T, as (values at the
    distinct rows, the inverse of :func:`distinct_rows`, the norms of the
    distinct rows, the depth); see :func:`fourier_mu_many`.

    With ``retire``, a row whose running product is exactly 0 after a
    chi_mask call leaves its block (its value stays 0), and each call
    stacks max(1, FOURIER_BLOCK // n) depths of the n rows still live; a
    call where no row dies costs one ``all()``.  Rows retire only when
    max|t| tails[0] max(1, tails[0], max|b|) <= RETIRE_BOUND: tails[0]
    bounds every ||(R^T)^-k|| and so every |s| of the chain, and with it
    every product s_i (R^-1)_ij of the matmul and s_i b_i of the phases,
    far below the float range, so no factor after a zero is inf or nan.
    numpy multiplies a one-element complex array in its scalar loop, which
    rounds differently from the vector loop of a longer one, so no block
    ever multiplies a single row: a lone row, a block's only one or the
    last live one, runs with a copy of itself.
    """
    T = np.asarray(T, dtype=float).reshape(-1, m.sys.d)
    rows, inverse = distinct_rows(T)
    norms = row_norms(rows)
    top = float(norms.max(initial=0.0))
    depth = m._depth_for(top)
    reach = float(m._tail_sums[0])  # a Python float: an overflow is inf, with no warning
    retire = retire and top * reach * max(1.0, reach, m._max_b) <= RETIRE_BOUND
    values = np.ones(rows.shape[0], dtype=complex)
    for start in range(0, rows.shape[0], FOURIER_BLOCK):
        pts = rows[start : start + FOURIER_BLOCK]
        block = live = values[start : start + FOURIER_BLOCK]
        where = None  # the positions in block of the live rows; None: all
        level = 0
        while level < depth and live.size:
            if live.size == 1:  # a lone row runs with a copy of itself: see above
                where = np.zeros(2, dtype=np.intp) if where is None else where.repeat(2)
                live, pts = live.repeat(2), pts.repeat(2, axis=0)
            stack = []
            for _ in range(min(max(1, FOURIER_BLOCK // pts.shape[0]), depth - level)):
                stack.append(pts)
                pts = pts @ m.sys.rinv  # row form of t -> (R^T)^-1 t
            level += len(stack)
            stacked = np.concatenate(stack) if len(stack) > 1 else stack[0]  # one depth: no copy
            masks = chi_mask(m.sys, stacked).reshape(len(stack), -1)
            for factor in np.conj(masks, out=masks):
                live *= factor
            if retire and level < depth and not live.all():
                if where is None:
                    where = np.arange(live.size)
                block[where] = live
                keep = live != 0
                where, live, pts = where[keep], live[keep], pts[keep]
        if where is not None:
            block[where] = live
    return values, inverse, norms, depth


def row_norms(T: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of T, with the rows whose squares pass
    the float range scaled by their largest entry (inf only past it)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(T, axis=1)
        if norms.max(initial=0.0) == np.inf:
            top = np.abs(T).max(axis=1)
            huge = np.isinf(norms) & np.isfinite(top)
            norms[huge] = top[huge] * np.linalg.norm(T[huge] / top[huge, None], axis=1)
    return norms


def distinct_rows(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a float (M, d) array by bit pattern, in the order
    and with the inverse of ``np.unique`` of the int64 view (axis 0 in d > 1,
    :func:`_unique_rows`); in d = 1 from one argsort, with no binary search
    per row.  Bits, not values (:func:`~fractalspec.systems.sorted_rows`):
    each argument keeps its bits."""
    bits = np.ascontiguousarray(T, dtype=float).view(np.int64)
    if bits.shape[1] != 1:
        distinct, inverse = _unique_rows(bits)
        return distinct.view(float), inverse
    keys = bits[:, 0]
    order = keys.argsort()
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first].view(float)[:, None], _sort_inverse(order, first)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for a 2-D int64 array.

    The same distinct rows in the same (lexicographic, signed) order and the
    same inverse, from one lexsort over the columns in place of np.unique's
    sort of a structured view, which is several times slower.
    """
    order = np.lexsort(rows.T[::-1])  # lexsort's last key is the primary one
    ordered = rows[order]
    first = np.empty(rows.shape[0], dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return ordered[first], _sort_inverse(order, first)


def _sort_inverse(order: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The inverse of a dedup by sorting: ``first`` marks the sorted rows that
    differ from their predecessor, and the running count of those, minus one,
    is each sorted row's distinct index, scattered back through ``order``."""
    counts = first.cumsum()
    counts -= 1  # in place: no third M-row index array
    inverse = np.empty_like(counts)
    inverse[order] = counts
    return inverse


def atomic_approximation(m: FractalMeasure, depth: int) -> AtomicApproximation:
    """All depth-K words of digits, in lexicographic order over sorted B.

    Point for word (b_0, ..., b_{K-1}) is sum_k R^-k b_k; each carries
    weight N^-K.  K = 0 yields the single point 0 with full mass.  More
    than DEFAULT_ATOM_BUDGET atoms is a :class:`BudgetError`.
    """
    sys = m.sys
    n = sys.n_digits
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {clip(depth)}")
    # past the budget's bit length N^K > budget for N >= 2: no huge powers
    if n ** min(depth, DEFAULT_ATOM_BUDGET.bit_length()) > DEFAULT_ATOM_BUDGET:
        raise BudgetError(f"N^K = {n}**{clip(depth)} exceeds atom budget {DEFAULT_ATOM_BUDGET}")
    points = word_sums(sys.B, sys.rinv.T, depth)
    points.setflags(write=False)
    return AtomicApproximation(depth=depth, points=points, weight=float(n) ** -depth)


def _as_multi_index(order, d: int) -> tuple[int, ...]:
    if isinstance(order, (int, np.integer)):
        if d != 1:
            raise ValidationError("scalar moment order only valid in dimension 1")
        order = (int(order),)
    order = tuple(int(k) for k in order)
    if len(order) != d or any(k < 0 for k in order):
        raise ValidationError(f"bad multi-index {order} for dimension {d}")
    return order


def _poly_mul(p: dict, q: dict, d: int) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(a[i] + b[i] for i in range(d))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def moments(m: FractalMeasure, order) -> float:
    """Raw moment int x^order dmu via the invariance equation.

    Integrating x^alpha against both sides and expanding (R^-1 x + b)^alpha
    couples each moment to moments of equal or lower total degree; the
    resulting linear system is uniquely solvable because the same-degree
    block has spectral radius < 1 for expansive R.  Exact up to solver
    precision.
    """
    sys = m.sys
    d = sys.d
    order = _as_multi_index(order, d)
    degree = sum(order)
    if degree > DEFAULT_MOMENT_DEGREE_CAP:
        raise BudgetError(f"moment degree {degree} exceeds cap {DEFAULT_MOMENT_DEGREE_CAP}")
    if degree == 0:
        return 1.0

    idx = multi_indices(d, degree)
    pos = {alpha: i for i, alpha in enumerate(idx)}
    n_idx = len(idx)
    rinv = sys.rinv
    # linear forms y_i = (R^-1 x)_i as sparse polynomials in x
    lin = []
    for i in range(d):
        form = {}
        for j in range(d):
            if rinv[i, j] != 0.0:
                key = tuple(1 if jj == j else 0 for jj in range(d))
                form[key] = rinv[i, j]
        lin.append(form)

    A = np.zeros((n_idx, n_idx))
    for alpha in idx:
        row = pos[alpha]
        for b in sys.B:
            p = {(0,) * d: 1.0}
            for i in range(d):
                factor: dict = {}
                ypow = {(0,) * d: 1.0}
                for k in range(alpha[i] + 1):
                    coeff = comb(alpha[i], k) * b[i] ** (alpha[i] - k)
                    for key, val in ypow.items():
                        factor[key] = factor.get(key, 0.0) + coeff * val
                    if k < alpha[i]:
                        ypow = _poly_mul(ypow, lin[i], d)
                p = _poly_mul(p, factor, d)
            for beta, coeff in p.items():
                A[row, pos[beta]] += coeff / sys.n_digits

    # m = A m with m_0 = 1; eliminate the trivial zeroth row
    rhs = A[1:, 0]
    core = np.eye(n_idx - 1) - A[1:, 1:]
    try:
        solved = np.linalg.solve(core, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for expansive R
        raise ValidationError(f"moment system is singular: {exc}") from None
    return float(solved[pos[order] - 1])


def chaos_sample(m: FractalMeasure, count: int, seed: int = 0) -> np.ndarray:
    """Random-iteration samples of the attractor, deterministic per seed."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    sys = m.sys
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, sys.n_digits, size=CHAOS_BURN_IN + count)
    rinv = sys.rinv
    out = np.empty((count, sys.d))
    x = np.zeros(sys.d)
    for step, digit in enumerate(digits):
        x = rinv @ x + sys.B[digit]
        if step >= CHAOS_BURN_IN:
            out[step - CHAOS_BURN_IN] = x
    return out
