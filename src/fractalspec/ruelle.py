"""The contraction certificate of the transfer operator.

The operator (Cq)(t) = sum_l |chi(t-l)|^2 q((R^T)^-1 (t-l)) acts on
functions over an invariant box around the attractor of the contractive
dual maps.  Its step at points (:func:`~fractalspec.measure.dual_step`),
its grid form (:class:`~fractalspec.measure.GridFunction`,
:func:`~fractalspec.measure.apply_ruelle`) and the box
(:func:`~fractalspec.systems.attractor_hull`,
:func:`~fractalspec.systems.as_box`) live below this module, so
``spectrum`` can use them too.  This module holds what certifies: the
Lipschitz norm of a grid function, the gamma bound, the probes and the
basis certificate.  Three facts drive it:

* unitarity of the digit matrix forces sum_l |chi(t-l)|^2 = 1, so C fixes
  constants;
* C's Lipschitz operator norm on functions vanishing at 0 admits the
  closed-form bound
  gamma = (N-1)^2 N^-1 beta ||R^-1||_op max|l| + ||R^-1||_hs,
  with beta = 2 pi diam(B) sup-of-sines over the box;
* gamma < 1, together with 0 in L, L spanning and a compatible system,
  certifies that the enumerated exponentials form an orthonormal basis.

``as_box`` and ``attractor_hull`` are bound here because this module
calls them; ``apply_ruelle`` is only re-exported, so the name
``ruelle.apply_ruelle`` that the traced benchmark layers
(``bench/layers.py``) look up keeps resolving.  Probes given as
callables take their images from
:func:`~fractalspec.systems.dual_points`; only the wave batch below
writes the dual step another way, on purpose.

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
and gradient are matmuls.  The numerator ||Cq|| needs q at the |L| mapped
points (t - l) R^-1 and the masks chi(t - l); neither takes a trig
evaluation per map.  Since e(w.(t - l) R^-1) = e(w.t R^-1) conj(e(w.l R^-1)),
the waves are evaluated once, at t R^-1, and each map's phase is folded
into per-(trial, l) coefficients; since chi(t - l) = e(t @ B^T) @ h[:, l]
(``AffineSystem.chi_shifts``), the masks and their gradients at every
shift come from one digit exponential.  A grid block thus costs
n_waves + N phase elements per node for all |L| maps.  The sup grid is
walked in blocks of about PROBE_BLOCK phase elements and as many live
(node, trial, map) elements, with a running per-trial max, the trials
TRIAL_CHUNK at a time; the 1-D zoom advances the brackets of all trials
together.  The folded coefficients grow with the trials, so their count
is budgeted before anything is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._numeric import cis2pi, hs_norm, operator_norm, sinpi
from .errors import BudgetError, ValidationError, clip
from .measure import FractalMeasure, GridFunction, apply_ruelle, shifted_masks  # noqa: F401
from .systems import (
    AffineSystem,
    as_box,
    attractor_hull,
    check_hadamard,
    dual_points,
    require_expansive,
)

__all__ = [
    "ContractionReport",
    "ProbeResult",
    "TrigPolynomial",
    "lipschitz_norm",
    "estimate_gamma",
    "contraction_probe",
    "probe_ratio",
    "basis_certificate",
]

# 1-D sup polish: samples per zoom round and the bracket width that ends it
ZOOM_POINTS = 33
ZOOM_TOL = 1e-12
# probe batches: phase elements per grid block, trials per chunk, coefficients
PROBE_BLOCK = 2**14
TRIAL_CHUNK = 16
PROBE_BUDGET = 2**21
# bound on |sinpi(x) - sin(pi x)|: the reduction to r = x - round(x) is
# exact, so only pi * r and sin round (together below 2.1 eps)
SINPI_ERR = 4.0 * np.finfo(float).eps


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
        # [cos, sin] @ ([sin_coeff, -cos_coeff] 2 pi w), rows interleaved
        # per wave as in :meth:`prepare`
        self._dcoeff = np.stack([coeff[:, n:], -coeff[:, :n]], axis=2).reshape(len(polys), 2 * n)
        self._dwaves = 2.0 * np.pi * np.repeat(waves, 2, axis=0)

    def block_rows(self, maps: int, digits: int = 0) -> int:
        """Grid nodes per block when each node feeds ``maps`` point sets and
        ``digits`` digit exponentials: about PROBE_BLOCK phase elements
        (waves plus digits per node), and as many live (node, trial, map)
        elements."""
        phases = self.waves.shape[0] + digits
        return max(1, PROBE_BLOCK // max(phases, maps * TRIAL_CHUNK))

    def prepare(self, pts: np.ndarray) -> np.ndarray:
        """cos and sin of 2 pi pts.waves, interleaved per wave: one cis2pi,
        viewed as floats."""
        return cis2pi(pts @ self.waves.T).view(float)

    def value(self, trig: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """(len(trials), K) values; cos - 1 keeps them exactly 0 at the origin."""
        n = self.waves.shape[0]
        coeff = self.coeff[trials, :, None]
        return ((trig[..., 0::2] - 1.0) @ coeff[:, :n] + trig[..., 1::2] @ coeff[:, n:])[..., 0]

    def gradient(self, trig: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """(len(trials), K, d) gradients."""
        return trig @ (self._dcoeff[trials, :, None] * self._dwaves)

    def at_maps(self, sys: AffineSystem):
        """Values and gradients of q at the points (t - l) R^-1, every l in L.

        Returns prepare(pts) for (P, K, d) points t, whose result maps a
        trial index array to the (len(trials), K, |L|) values and the
        (len(trials), K, |L|, d) gradients.  With u = t R^-1 and the map's
        phase beta = 2 pi w.(l R^-1), theta - beta = 2 pi w.(t - l) R^-1 for
        theta = 2 pi w.u, so the waves are evaluated once, at u, and beta is
        folded into per-(trial, l) coefficients, built here once per batch:
        for cosine and sine coefficients c and s,
        A = c cos beta - s sin beta and B = c sin beta + s cos beta give
        the value [cos theta, sin theta] @ [A, B] - sum_w c and the
        gradient [cos theta, sin theta] @ [B, -A] 2 pi w, all from one
        matmul.  At l = 0, A = c and B = s exactly.  So this form, t R^-1
        with l R^-1 folded into the phases, is on purpose the one map step
        not taken through :func:`~fractalspec.systems.dual_points`.
        """
        n, maps, d = self.waves.shape[0], sys.L.shape[0], sys.d
        rot = cis2pi((sys.L @ sys.rinv) @ self.waves.T)  # (|L|, n)
        c, s = self.coeff[:, None, :n], self.coeff[:, None, n:]
        a = c * rot.real - s * rot.imag  # (trials, |L|, n)
        b = c * rot.imag + s * rot.real
        # rows for cos and sin theta interleaved per wave, as in prepare
        grads = np.stack([b, -a], axis=3)[..., None] * (2.0 * np.pi * self.waves)[:, None]
        # per trial, the |L| value rows, then the |L| d gradient rows
        coeff = np.concatenate(
            [
                np.stack([a, b], axis=3).reshape(self.size, maps, 2 * n),
                grads.transpose(0, 1, 4, 2, 3).reshape(self.size, maps * d, 2 * n),
            ],
            axis=1,
        )
        shift = self.coeff[:, :n].sum(axis=1)

        def prepare(pts: np.ndarray):
            trig = self.prepare(pts @ sys.rinv)
            p, k = trig.shape[:2]

            def evaluate(trials: np.ndarray):
                if p == 1:  # one matmul for every trial and map
                    out = coeff[trials].reshape(-1, 2 * n) @ trig[0].T
                    out = out.reshape(trials.size, -1, k)
                else:  # trial i at its own points
                    out = coeff[trials] @ trig.transpose(0, 2, 1)
                out = out.transpose(0, 2, 1)  # (trials, K, rows)
                values = out[..., :maps] - shift[trials, None, None]
                return values, out[..., maps:].reshape(trials.size, k, maps, d)

            return evaluate

        return prepare


class _CallableProbe:
    """One probe given as value and gradient callables: a batch of one."""

    size = 1

    def __init__(self, q_value, q_grad):
        self.q_value = q_value
        self.q_grad = q_grad

    def block_rows(self, maps: int, digits: int = 0) -> None:
        return None  # the callables see the whole grid in one call

    def prepare(self, pts: np.ndarray) -> np.ndarray:
        return pts[0]

    def gradient(self, pts, trials) -> np.ndarray:
        return np.asarray(self.q_grad(pts), dtype=float)[None]

    def at_maps(self, sys: AffineSystem):
        """As :meth:`_WaveBatch.at_maps`: the callables are called once, at
        the stacked points (t - l) R^-1 of every l (:func:`dual_points`)."""
        maps, d = sys.L.shape[0], sys.d

        def prepare(pts: np.ndarray):
            k = pts.shape[1]
            mapped = dual_points(sys, pts[0]).reshape(-1, d)
            values = np.asarray(self.q_value(mapped), dtype=float).reshape(1, k, maps)
            grads = np.asarray(self.q_grad(mapped), dtype=float).reshape(1, k, maps, d)
            return lambda trials: (values, grads)

        return prepare


def _transfer_gradient(sys: AffineSystem, probe):
    """Exact gradient of Cq by the product rule, as ``prepare`` for
    :func:`_batch_sup`.

    (Cq)(t) = sum_l |chi(t - l)|^2 q((t - l) R^-1).  At (P, K, d) points the
    masks at every shift and their gradients come from one digit
    exponential (:func:`~fractalspec.measure.shifted_masks`), and q and its
    gradient at every mapped point set from ``probe.at_maps``; both are
    shared by every trial.  The chain rule's R^-T is applied once, to the
    weighted sum of q's gradients over l.  The function of a trial index
    array it returns gives the (len(trials), K, d) gradients.
    """
    n, maps, d, rinv = sys.n_digits, sys.L.shape[0], sys.d, sys.rinv
    # grad chi(t - l) = 2 pi i e(t @ B^T) @ hb[:, l], hb[b, l] = h[b, l] b
    hb = (sys.chi_shifts[:, :, None] * sys.B[:, None, :]).reshape(n, maps * d)
    at_maps = probe.at_maps(sys)

    def prepare(pts: np.ndarray):
        chi, e = shifted_masks(sys, pts)
        dchi = (e @ hb).reshape(chi.shape + (d,))
        # grad |chi|^2 = 2 Re(conj(chi) grad chi) = -4 pi Im(conj(chi) (e @ hb))
        grad_w = (-4.0 * np.pi) * (
            chi.real[..., None] * dchi.imag - chi.imag[..., None] * dchi.real
        )
        w = (chi.real**2 + chi.imag**2)[..., None]
        evaluate = at_maps(pts)

        def gradient(trials: np.ndarray) -> np.ndarray:
            values, grads = evaluate(trials)
            by_mask = grad_w[:, :, 0] * values[..., :1]
            by_probe = w[:, :, 0] * grads[:, :, 0]
            for l in range(1, maps):
                by_mask += grad_w[:, :, l] * values[..., l, None]
                by_probe += w[:, :, l] * grads[:, :, l]
            return by_mask + by_probe @ rinv.T

        return gradient

    return prepare


def _chunks(n: int):
    return (slice(start, start + TRIAL_CHUNK) for start in range(0, n, TRIAL_CHUNK))


def _batch_sup(
    prepare, trials: np.ndarray, box: np.ndarray, per_axis: int, rows=None
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
    if d != 1:
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


def _probe_ratios(sys: AffineSystem, box: np.ndarray, probe, per_axis: int) -> np.ndarray:
    """Lipschitz-norm ratios ||Cq|| / ||q|| of every trial of a probe batch.

    A trial with ||q|| < 1e-12 gets nan and its ||Cq|| is not evaluated.
    """

    def grad_q_norm(pts):
        state = probe.prepare(pts)
        return lambda trials: np.linalg.norm(probe.gradient(state, trials), axis=-1)

    everyone = np.arange(probe.size)
    denom = _batch_sup(grad_q_norm, everyone, box, per_axis, probe.block_rows(1))
    ratios = np.full(probe.size, np.nan)
    kept = np.flatnonzero(~(denom < 1e-12))
    if kept.size:
        transfer = _transfer_gradient(sys, probe)

        def grad_cq_norm(pts):
            gradient = transfer(pts)
            return lambda trials: np.linalg.norm(gradient(trials), axis=-1)

        rows = probe.block_rows(len(sys.L), sys.n_digits)
        numer = _batch_sup(grad_cq_norm, kept, box, per_axis, rows)
        ratios[kept] = numer / denom[kept]
    return ratios


def _probe_grid(sys: AffineSystem, per_axis: int | None) -> int:
    if per_axis is None:
        return 4097 if sys.d == 1 else 65
    if per_axis < 2:
        raise ValidationError(f"per_axis must be >= 2, got {per_axis}")
    return per_axis


def probe_ratio(
    sys: AffineSystem, box, q_value, q_grad, per_axis: int | None = None
) -> float:
    """Lipschitz-norm ratio ||Cq|| / ||q|| for one C^1 test function.

    nan when ||q|| < 1e-12.  A non-expansive R or ``per_axis`` below 2 is
    a :class:`ValidationError`.
    """
    require_expansive(sys)
    box = as_box(box, sys.d)
    per_axis = _probe_grid(sys, per_axis)
    probe = _CallableProbe(q_value, q_grad)
    return float(_probe_ratios(sys, box, probe, per_axis)[0])


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
    below 1, a negative seed, degree below 1 or per_axis below 2 is a
    :class:`ValidationError`, and coefficients that may pass PROBE_BUDGET
    entries a :class:`BudgetError`, raised before any probe is drawn.
    """
    require_expansive(sys)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {clip(trials)}")
    if seed < 0:  # default_rng's own message names no seed
        raise ValidationError(f"seed must be >= 0, got {clip(seed)}")
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    # per trial |L| (d + 1) x 2 entries per distinct wave; 2 degree waves in [-degree, degree]^d
    waves = min(2 * degree * trials, (2 * degree + 1) ** sys.d)
    if trials * len(sys.L) * (sys.d + 1) * 2 * waves > PROBE_BUDGET:
        raise BudgetError(f"too many probe trials for the budget of {PROBE_BUDGET} coefficients")
    per_axis = _probe_grid(sys, per_axis)
    box = as_box(box, sys.d)
    rng = np.random.default_rng(seed)
    polys = [TrigPolynomial.random(rng, sys.d, degree) for _ in range(trials)]
    ratios = _probe_ratios(sys, box, _WaveBatch(polys), per_axis)
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
    trials: int = 0,
    seed: int = 0,
) -> ContractionReport:
    """Certificate that the enumerated exponentials form an orthonormal basis.

    Certifies when the digit matrix is unitary, the system is compatible
    (its cached :attr:`~fractalspec.systems.AffineSystem.validation`), 0 is
    in L, L spans, and the contraction bound is below 1.  The bound is
    always taken on the system's
    :func:`~fractalspec.systems.attractor_hull`, a box the dual maps send
    into itself, since on any other box it bounds nothing.  Unitarity (within
    :func:`~fractalspec.systems.unitarity_tolerance`) already holds for every
    :class:`FractalMeasure`; the other failed hypotheses are recorded rather
    than raised.  Optional probe trials attach empirical ratios; trials
    below 0 is a :class:`ValidationError`.
    """
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {clip(trials)}")
    sys = m.sys
    box = attractor_hull(sys)
    report = estimate_gamma(sys, box)
    deviation = check_hadamard(sys)
    zero_in_l = bool(np.any(np.all(sys.L == 0.0, axis=1)))
    l_spans = bool(np.linalg.matrix_rank(sys.L) == sys.d)

    failures = []
    if not sys.validation.compatible:
        failures.append("not compatible")
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
