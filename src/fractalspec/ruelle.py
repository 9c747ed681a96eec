"""Transfer operator machinery and the contraction-based basis certificate.

The operator (Cq)(t) = sum_l |chi(t-l)|^2 q((R^T)^-1 (t-l)) acts on
functions over an invariant box around the attractor of the contractive
dual maps.  Three facts drive everything here:

* unitarity of the digit matrix forces sum_l |chi(t-l)|^2 = 1, so C fixes
  constants;
* C's Lipschitz operator norm on functions vanishing at 0 admits the
  closed-form bound
  gamma = (N-1)^2 N^-1 beta ||R^-1||_op max|l| + ||R^-1||_hs,
  with beta = 2 pi diam(B) sup-of-sines over the box;
* gamma < 1, together with 0 in L and L spanning, certifies that the
  enumerated exponentials form an orthonormal basis.

The sup in beta is exact: over the box, (t - l).delta sweeps an interval,
and |sin 2 pi u| on an interval is 1 when the interval holds a point of
1/4 + Z/2 and is attained at an endpoint otherwise.  The interval is
widened and the endpoint values are rounded upward, so the reported gamma
is an upper bound (sound for certification); probe ratios, by contrast,
only ever underestimate their sups, so the certificate and the empirical
check cannot disagree by construction.

The probes are evaluated as one batch.  Every trial's trig polynomial is
drawn first and their coefficients are folded onto the distinct wave
vectors, so one cis2pi per point serves all trials and each trial's value
and gradient are matmuls.  The mask |chi|^2 and its gradient come from one
cis2pi of the digits per point and are shared by every trial.  The sup
grid is walked in blocks that keep about PROBE_BLOCK phase elements live,
with a running per-trial max, the trials TRIAL_CHUNK at a time, so memory
does not grow with the number of trials; the 1-D zoom advances the
brackets of all trials together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from ._numeric import cis2pi, hs_norm, operator_norm, sinpi
from .errors import ConvergenceError, DomainError, ValidationError
from .measure import FractalMeasure, chi_mask, digit_exponentials
from .systems import (
    AffineSystem,
    _invariance_excess,
    box_exit,
    certified_tails,
    check_hadamard,
    dual_box,
    grow_invariant_box,
    require_expansive,
)

__all__ = [
    "GridFunction",
    "ContractionReport",
    "ProbeResult",
    "TrigPolynomial",
    "as_box",
    "attractor_hull",
    "apply_ruelle",
    "lipschitz_norm",
    "estimate_gamma",
    "contraction_probe",
    "probe_ratio",
    "basis_certificate",
]

BOX_TOL = 1e-9
# 1-D sup polish: samples per zoom round and the bracket width that ends it
ZOOM_POINTS = 33
ZOOM_TOL = 1e-12
# probe batches: phase elements per grid block, trials per chunk
PROBE_BLOCK = 2**14
TRIAL_CHUNK = 16
# bound on |sinpi(x) - sin(pi x)|: the reduction to r = x - round(x) is
# exact, so only pi * r and sin round (together below 2.1 eps)
SINPI_ERR = 4.0 * np.finfo(float).eps


def as_box(value, d: int) -> np.ndarray:
    """Normalize a box spec ((lo, hi) pairs, or a flat pair in d=1)."""
    box = np.asarray(value, dtype=float)
    if d == 1 and box.shape == (2,):
        box = box.reshape(1, 2)
    if box.shape != (d, 2) or np.any(box[:, 0] > box[:, 1]):
        raise ValidationError(f"bad box {value!r} for dimension {d}")
    return box


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
        if self.d == 1:
            return np.interp(pts[:, 0], self.axes()[0], self.samples)
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

    def rows(self):
        """(node coords..., value) tuples, ready for CSV emission."""
        return [
            tuple(node) + (value,)
            for node, value in zip(self.nodes(), self.samples.ravel())
        ]


def attractor_hull(sys: AffineSystem, tol: float = BOX_TOL) -> np.ndarray:
    """Invariant box around the attractor of the maps t -> (R^T)^-1 (t - l).

    Attractor points are -sum_{k>=1} (R^T)^-k l_k.  Their depth-K box
    (:func:`~fractalspec.systems.dual_box`), K the first depth whose
    certified tail radius tails[K+1] max|l| is within ``tol``, is inflated
    by that radius and grown until every map sends it into itself within
    ``tol``.  A non-expansive R is a :class:`ValidationError`.
    """
    require_expansive(sys)
    tails = certified_tails(sys)
    radii = tails[2:] * float(np.max(np.linalg.norm(sys.L, axis=1)))  # at K = 1, 2, ...
    within = np.flatnonzero(radii <= tol)
    if not within.size:
        raise ConvergenceError(
            f"attractor tail radius {radii[-1]:.3e} above {tol:.1e} after {radii.size} levels"
        )
    tail = radii[within[0]]
    box = dual_box(sys, np.zeros((1, sys.d)), int(within[0]) + 1) + np.array([-tail, tail])
    box = grow_invariant_box(sys, box, tol)
    box.setflags(write=False)
    return box


def check_box_invariance(sys: AffineSystem, box) -> float:
    """Max amount by which any dual map sends a box corner outside the box."""
    return max(_invariance_excess(sys, as_box(box, sys.d))[0], 0.0)


def _mask_sq_grad(sys: AffineSystem, pts: np.ndarray):
    """|chi|^2 and its gradient at points (..., d), from one cis2pi.

    With E = exp(2 pi i pts.b) per digit, chi = mean(E) and
    grad |chi|^2 = 2 Re(conj(chi) grad chi) = -4 pi Im(conj(chi) (E @ B)) / N.
    """
    e = digit_exponentials(sys, pts @ sys.B.T)
    chi = e.mean(axis=-1)
    grad = (-4.0 * np.pi / sys.n_digits) * np.imag(np.conj(chi)[..., None] * (e @ sys.B))
    return np.abs(chi) ** 2, grad


def apply_ruelle(sys: AffineSystem, q: GridFunction) -> GridFunction:
    """One application of the transfer operator, sampled on q's own grid.

    q is evaluated at the mapped nodes by multilinear interpolation, which
    requires the box to be invariant under every dual map; a violation
    beyond ``BOX_TOL`` raises DomainError (enlarge the box).
    """
    rinv = sys.rinv
    nodes = q.nodes()
    out = np.zeros(nodes.shape[0])
    for l in sys.L:
        shifted = nodes - l
        weights = np.abs(chi_mask(sys, shifted)) ** 2
        mapped = shifted @ rinv
        excess = box_exit(q.box, mapped)
        if excess > BOX_TOL:
            raise DomainError(
                f"dual map with l={l.tolist()} leaves the box by {excess:.3e}; "
                "enlarge the box"
            )
        mapped = np.clip(mapped, q.box[:, 0], q.box[:, 1])
        out += weights * q.interpolate(mapped)
    samples = out.reshape(q.shape)
    samples.setflags(write=False)
    return GridFunction(box=q.box, samples=samples)


def lipschitz_norm(q: GridFunction) -> float:
    """Sup over interior nodes of the central-difference gradient norm."""
    if any(n < 3 for n in q.shape):
        raise ValidationError("grid too coarse for central differences")
    steps = q.steps
    core = tuple(slice(1, -1) for _ in range(q.d))
    sq = np.zeros(q.samples[core].shape)
    for axis in range(q.d):
        fwd = [slice(1, -1)] * q.d
        bwd = [slice(1, -1)] * q.d
        fwd[axis] = slice(2, None)
        bwd[axis] = slice(None, -2)
        comp = (q.samples[tuple(fwd)] - q.samples[tuple(bwd)]) / (2.0 * steps[axis])
        sq += comp**2
    return float(np.sqrt(sq.max()))


@dataclass(frozen=True)
class ContractionReport:
    """Closed-form contraction bound plus certificate bookkeeping."""

    gamma_bound: float
    beta: float
    sup_sin: float
    op_norm_inv: float
    hs_norm_inv: float
    box: np.ndarray
    hadamard_deviation: float | None = None
    zero_in_l: bool | None = None
    l_spans: bool | None = None
    empirical_max_ratio: float | None = None
    trials: int = 0
    skipped: int = 0
    basis_certified: bool = False
    failures: tuple[str, ...] = ()


def _sup_abs_sin(box: np.ndarray, deltas: np.ndarray, L: np.ndarray) -> float:
    """Upper bound, rounded upward, for sup |sin 2 pi (t - l).delta| over t in
    box, every row delta of deltas and every row l of L.

    (t - l).delta sweeps [lo, hi] with lo = sum_k min(delta_k box_k) - l.delta
    (max for hi).  |sin 2 pi u| peaks at 1 on u in 1/4 + Z/2 and has a single
    valley between consecutive peaks, so without a peak inside the interval
    its sup sits at an endpoint.  Each interval is first widened by the
    rounding error of its own endpoints; the ends of the intervals without
    a peak go through one sinpi.
    """
    ends = deltas[:, :, None] * box  # (P, d, 2)
    terms = deltas[:, None, :] * L[None, :, :]  # (P, |L|, d): the terms of l.delta
    shift = terms.sum(axis=2)
    scale = np.abs(ends).max(axis=2).sum(axis=1)[:, None] + np.abs(terms).sum(axis=2)
    slack = (box.shape[0] + 2) * np.finfo(float).eps * scale
    lo = ends.min(axis=2).sum(axis=1)[:, None] - shift - slack
    hi = ends.max(axis=2).sum(axis=1)[:, None] - shift + slack
    first_peak = 0.25 + 0.5 * np.ceil(2.0 * lo - 0.5)  # smallest peak >= lo
    ends_only = first_peak > hi
    value = np.ones(lo.shape)
    sines = np.abs(sinpi(2.0 * np.stack([lo[ends_only], hi[ends_only]])))
    sines = sines.max(axis=0, initial=0.0)
    value[ends_only] = np.minimum(1.0, np.nextafter(sines + SINPI_ERR, 2.0))
    return float(value.max(initial=0.0))


def estimate_gamma(sys: AffineSystem, box) -> ContractionReport:
    """Closed-form contraction bound for C on functions vanishing at 0.

    The sine sup inside beta is computed exactly over the box (see
    :func:`_sup_abs_sin`) and rounded upward, so the reported gamma is an
    upper bound for the Lipschitz contraction ratio.  A non-expansive R is a
    :class:`ValidationError`.
    """
    require_expansive(sys)
    box = as_box(box, sys.d)
    n = sys.n_digits
    first, second = np.triu_indices(n, 1)  # the pairs i < j, in lexicographic order
    deltas = sys.B[first] - sys.B[second]
    diam = max((float(np.linalg.norm(delta)) for delta in deltas), default=0.0)
    sup_sin = _sup_abs_sin(box, deltas, sys.L)
    beta = 2.0 * np.pi * diam * sup_sin

    rinv = sys.rinv
    op = operator_norm(rinv)
    hs = hs_norm(rinv)
    max_l = float(np.max(np.linalg.norm(sys.L, axis=1)))
    gamma = (n - 1) ** 2 / n * beta * op * max_l + hs
    return ContractionReport(
        gamma_bound=float(gamma),
        beta=float(beta),
        sup_sin=float(sup_sin),
        op_norm_inv=op,
        hs_norm_inv=hs,
        box=box,
    )


class TrigPolynomial:
    """Trigonometric polynomial vanishing at 0, with exact gradient."""

    def __init__(self, waves: np.ndarray, cos_coeff: np.ndarray, sin_coeff: np.ndarray):
        self.waves = np.atleast_2d(np.asarray(waves, dtype=float))
        self.cos_coeff = np.asarray(cos_coeff, dtype=float)
        self.sin_coeff = np.asarray(sin_coeff, dtype=float)

    def value(self, pts: np.ndarray) -> np.ndarray:
        batch = _WaveBatch([self])
        return batch.value(batch.prepare(np.atleast_2d(pts)[None]), _ONE)[0]

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        batch = _WaveBatch([self])
        return batch.gradient(batch.prepare(np.atleast_2d(pts)[None]), _ONE)[0]

    @classmethod
    def random(cls, rng: np.random.Generator, d: int, degree: int = 4) -> "TrigPolynomial":
        n_terms = 2 * degree
        if d == 1:
            waves = rng.integers(1, degree + 1, size=(n_terms, 1)).astype(float)
        else:
            waves = rng.integers(-degree, degree + 1, size=(n_terms, d)).astype(float)
            dead = np.all(waves == 0.0, axis=1)
            waves[dead, 0] = 1.0
        return cls(
            waves=waves,
            cos_coeff=rng.uniform(-1.0, 1.0, n_terms),
            sin_coeff=rng.uniform(-1.0, 1.0, n_terms),
        )


_ONE = np.zeros(1, dtype=np.intp)  # the trial index of a batch of one


class _WaveBatch:
    """Trig polynomials of a batch of trials, folded onto their distinct waves.

    Row t of ``coeff`` holds trial t's cosine then sine coefficients, summed
    over repeated waves, so one cis2pi of ``pts @ waves.T`` serves every
    trial and each trial's value and gradient are matmuls.  Points come as
    (P, K, d): P = 1 is shared by every trial, P = len(trials) gives trial i
    its own points pts[i].
    """

    def __init__(self, polys: list[TrigPolynomial]):
        waves, where = np.unique(
            np.concatenate([p.waves for p in polys]), axis=0, return_inverse=True
        )
        n = waves.shape[0]
        owner = np.repeat(np.arange(len(polys)), [p.waves.shape[0] for p in polys])
        coeff = np.zeros((len(polys), 2 * n))
        np.add.at(coeff, (owner, where.ravel()), np.concatenate([p.cos_coeff for p in polys]))
        np.add.at(coeff, (owner, n + where.ravel()), np.concatenate([p.sin_coeff for p in polys]))
        self.size = len(polys)
        self.waves = waves
        self.coeff = coeff
        # d/dt [cos, sin](2 pi w.t) = 2 pi w [-sin, cos]: gradients are
        # [cos, sin] @ ([sin_coeff, -cos_coeff] 2 pi w)
        self._dcoeff = np.concatenate([coeff[:, n:], -coeff[:, :n]], axis=1)
        self._dwaves = 2.0 * np.pi * np.concatenate([waves, waves])

    def block_rows(self, maps: int) -> int:
        """Grid nodes per block when ``maps`` point sets are prepared at once:
        about PROBE_BLOCK phase elements, and as many (trial, node) pairs."""
        return max(1, PROBE_BLOCK // (maps * max(self.waves.shape[0], TRIAL_CHUNK)))

    def prepare(self, pts: np.ndarray) -> np.ndarray:
        """[cos, sin] of 2 pi pts.waves, from one cis2pi."""
        e = cis2pi(pts @ self.waves.T)
        return np.concatenate([e.real, e.imag], axis=-1)

    def value(self, trig: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """(len(trials), K) values; cos - 1 keeps them exactly 0 at the origin."""
        n = self.waves.shape[0]
        coeff = self.coeff[trials, :, None]
        return ((trig[..., :n] - 1.0) @ coeff[:, :n] + trig[..., n:] @ coeff[:, n:])[..., 0]

    def gradient(self, trig: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """(len(trials), K, d) gradients."""
        return trig @ (self._dcoeff[trials, :, None] * self._dwaves)


class _CallableProbe:
    """One probe given as value and gradient callables: a batch of one."""

    size = 1

    def __init__(self, q_value, q_grad):
        self.q_value = q_value
        self.q_grad = q_grad

    def block_rows(self, maps: int) -> None:
        return None  # the callables see the whole grid in one call

    def prepare(self, pts: np.ndarray) -> np.ndarray:
        return pts[0]

    def value(self, pts, trials) -> np.ndarray:
        return np.asarray(self.q_value(pts), dtype=float)[None]

    def gradient(self, pts, trials) -> np.ndarray:
        return np.asarray(self.q_grad(pts), dtype=float)[None]


def _transfer_gradient(sys: AffineSystem, probe, pts: np.ndarray):
    """Exact gradient of Cq at (P, K, d) points, by the product rule.

    The masks and the probe's state at the mapped points are computed once
    for every trial; the returned function of a trial index array gives the
    (len(trials), K, d) gradients.
    """
    rinv = sys.rinv
    terms = []
    for l in sys.L:
        shifted = pts - l
        w, gw = _mask_sq_grad(sys, shifted)
        terms.append((w[..., None], gw, probe.prepare(shifted @ rinv)))

    def gradient(trials: np.ndarray) -> np.ndarray:
        total = 0.0
        for w, gw, state in terms:
            total = total + gw * probe.value(state, trials)[..., None]
            total = total + w * (probe.gradient(state, trials) @ rinv.T)
        return total

    return gradient


def _chunks(n: int):
    return (slice(start, start + TRIAL_CHUNK) for start in range(0, n, TRIAL_CHUNK))


def _batch_sup(
    prepare, trials: np.ndarray, box: np.ndarray, per_axis: int, refine: bool, rows=None
) -> np.ndarray:
    """Sups over the box of smooth nonnegative functions, one per trial.

    ``prepare(pts)`` takes (P, K, d) points (P = 1: shared by all trials;
    P = len(trials): trial i at pts[i]) and returns a function of a trial
    index array that gives the (len(trials), K) values.  The grid is walked
    in blocks of ``rows`` nodes (None: all at once) with a running max and
    argmax per trial, the trials TRIAL_CHUNK at a time, so no array grows
    with both the grid and the number of trials.

    In 1-D the bracket of one grid step either side of each trial's argmax
    node is zoomed, all trials together: each round evaluates ZOOM_POINTS
    points per trial and keeps one sample step either side of the best,
    until the bracket is ZOOM_TOL wide or stops shrinking.  The result never
    exceeds the true sup (it only evaluates the function), which is the
    direction certificate comparisons need.
    """
    d = box.shape[0]
    grid = GridFunction(box=box, samples=np.zeros((per_axis,) * d))
    nodes = grid.nodes()
    rows = rows or nodes.shape[0]
    best = np.full(trials.size, -np.inf)
    argmax = np.zeros(trials.size, dtype=np.intp)
    for start in range(0, nodes.shape[0], rows):
        evaluate = prepare(nodes[None, start : start + rows])
        for chunk in _chunks(trials.size):
            vals = evaluate(trials[chunk])
            k = vals.argmax(axis=1)
            top = vals[np.arange(k.size), k]
            better = top > best[chunk]
            best[chunk] = np.where(better, top, best[chunk])
            argmax[chunk] = np.where(better, start + k, argmax[chunk])
    if not (refine and d == 1):
        return best
    h = grid.steps[0]
    star = nodes[argmax, 0]
    lo = np.maximum(box[0, 0], star - h)
    hi = np.minimum(box[0, 1], star + h)
    live = np.flatnonzero(hi - lo > ZOOM_TOL)
    while live.size:
        ys = np.linspace(lo[live], hi[live], ZOOM_POINTS, axis=1)
        zoom = np.concatenate(
            [prepare(ys[chunk, :, None])(trials[live[chunk]]) for chunk in _chunks(live.size)]
        )
        k = zoom.argmax(axis=1)
        at = np.arange(live.size)
        best[live] = np.maximum(best[live], zoom[at, k])
        width = hi[live] - lo[live]
        lo[live] = ys[at, np.maximum(k - 1, 0)]
        hi[live] = ys[at, np.minimum(k + 1, ZOOM_POINTS - 1)]
        narrowed = hi[live] - lo[live]
        # a bracket that no longer shrinks is at float resolution
        live = live[(narrowed < width) & (narrowed > ZOOM_TOL)]
    return best


def _sup_norm(fn, box: np.ndarray, per_axis: int, refine: bool) -> float:
    """Sup of one smooth nonnegative function fn((M, d) points) over the box."""
    sups = _batch_sup(lambda pts: lambda trials: fn(pts[0])[None], _ONE, box, per_axis, refine)
    return float(sups[0])


def _probe_ratios(
    sys: AffineSystem, box: np.ndarray, probe, per_axis: int, refine: bool
) -> np.ndarray:
    """Lipschitz-norm ratios ||Cq|| / ||q|| of every trial of a probe batch.

    A trial with ||q|| < 1e-12 gets nan and its ||Cq|| is not evaluated.
    """

    def grad_q_norm(pts):
        state = probe.prepare(pts)
        return lambda trials: np.linalg.norm(probe.gradient(state, trials), axis=-1)

    def grad_cq_norm(pts):
        gradient = _transfer_gradient(sys, probe, pts)
        return lambda trials: np.linalg.norm(gradient(trials), axis=-1)

    everyone = np.arange(probe.size)
    denom = _batch_sup(grad_q_norm, everyone, box, per_axis, refine, probe.block_rows(1))
    ratios = np.full(probe.size, np.nan)
    kept = np.flatnonzero(~(denom < 1e-12))
    if kept.size:
        rows = probe.block_rows(len(sys.L))
        numer = _batch_sup(grad_cq_norm, kept, box, per_axis, refine, rows)
        ratios[kept] = numer / denom[kept]
    return ratios


def _probe_grid(sys: AffineSystem, per_axis: int | None) -> int:
    if per_axis is None:
        return 4097 if sys.d == 1 else 65
    if per_axis < 2:
        raise ValidationError(f"per_axis must be >= 2, got {per_axis}")
    return per_axis


def probe_ratio(
    sys: AffineSystem,
    box,
    q_value,
    q_grad,
    per_axis: int | None = None,
    refine: bool = True,
) -> float:
    """Lipschitz-norm ratio ||Cq|| / ||q|| for one C^1 test function.

    nan when ||q|| < 1e-12.  A non-expansive R or ``per_axis`` below 2 is
    a :class:`ValidationError`.
    """
    require_expansive(sys)
    box = as_box(box, sys.d)
    per_axis = _probe_grid(sys, per_axis)
    probe = _CallableProbe(q_value, q_grad)
    return float(_probe_ratios(sys, box, probe, per_axis, refine)[0])


@dataclass(frozen=True)
class ProbeResult:
    max_ratio: float
    ratios: tuple[float, ...]
    skipped: int
    trials: int
    seed: int


def contraction_probe(
    sys: AffineSystem,
    box,
    trials: int,
    seed: int,
    degree: int = 4,
    per_axis: int | None = None,
) -> ProbeResult:
    """Empirical contraction ratios over random trig-polynomial probes.

    Each probe vanishes at 0, the class the bound covers; gradients are
    evaluated in closed form, so ratios reflect the operator, not grid
    differentiation error.  Every trial is drawn first and all are
    evaluated as one batch (:class:`_WaveBatch`).  Degenerate probes (zero
    Lipschitz norm) are skipped and counted.  A non-expansive R, trials
    below 1, degree below 1 or per_axis below 2 is a
    :class:`ValidationError`.
    """
    require_expansive(sys)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    per_axis = _probe_grid(sys, per_axis)
    box = as_box(box, sys.d)
    rng = np.random.default_rng(seed)
    polys = [TrigPolynomial.random(rng, sys.d, degree) for _ in range(trials)]
    ratios = _probe_ratios(sys, box, _WaveBatch(polys), per_axis, refine=True)
    kept = ratios[~np.isnan(ratios)]
    if not kept.size:
        raise ValidationError("all probe functions were degenerate")
    return ProbeResult(
        max_ratio=float(kept.max()),
        ratios=tuple(kept.tolist()),
        skipped=trials - kept.size,
        trials=trials,
        seed=seed,
    )

def basis_certificate(
    m: FractalMeasure,
    box=None,
    trials: int = 0,
    seed: int = 0,
) -> ContractionReport:
    """Certificate that the enumerated exponentials form an orthonormal basis.

    Certifies when the digit matrix is unitary, 0 is in L, L spans, and the
    contraction bound is below 1.  Unitarity (within
    :func:`~fractalspec.systems.unitarity_tolerance`) already holds for every
    :class:`FractalMeasure`; the other failed hypotheses are recorded rather
    than raised.  Optional probe trials attach empirical ratios; trials
    below 0 is a :class:`ValidationError`.
    """
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    sys = m.sys
    box = attractor_hull(sys) if box is None else as_box(box, sys.d)
    report = estimate_gamma(sys, box)
    deviation = check_hadamard(sys)
    zero_in_l = bool(np.any(np.all(sys.L == 0.0, axis=1)))
    l_spans = bool(np.linalg.matrix_rank(sys.L) == sys.d)

    failures = []
    if not zero_in_l:
        failures.append("0 not in L")
    if not l_spans:
        failures.append("L does not span")
    if not report.gamma_bound < 1.0:
        failures.append("gamma_bound >= 1")

    empirical = None
    skipped = 0
    if trials > 0:
        probe = contraction_probe(sys, box, trials=trials, seed=seed)
        empirical = probe.max_ratio
        skipped = probe.skipped
    return replace(
        report,
        hadamard_deviation=deviation,
        zero_in_l=zero_in_l,
        l_spans=l_spans,
        empirical_max_ratio=empirical,
        trials=trials,
        skipped=skipped,
        basis_certified=not failures,
        failures=tuple(failures),
    )
