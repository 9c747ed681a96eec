"""Affine iteration systems (R, B, L) and their structural checks.

A system couples an expansive d x d matrix R with two equal-size digit sets:
B drives the contractive maps x -> R^-1 x + b whose invariant measure we
study, and L drives the expanding dual maps x -> R^T x + l that generate the
candidate frequency set.  Two conditions make the pair workable:

* integrality: R^n b . l is an integer for every n >= 1, b in B, l in L;
* unitarity: the N x N matrix N^(-1/2) (exp(2 pi i b.l)) is unitary.

Both are checked numerically here, and integrality also exactly on the
system's rationals when it can be (:func:`~fractalspec.exact.is_integral`).

The word geometry lives here too: word sums (:func:`word_sums`), the dual
maps' images (:func:`dual_points`) and their box (:func:`dual_box`), a box
they send into itself (:func:`grow_invariant_box`), the invariant box
around their attractor (:func:`attractor_hull`) and the check that a given
box is invariant (:func:`check_box_invariance`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import exact
from ._numeric import cis2pi, power_norm_tail, power_norms
from .errors import ConvergenceError, ValidationError

__all__ = [
    "AffineSystem",
    "ValidationReport",
    "make_system",
    "parse_system",
    "load_system",
    "hadamard_matrix",
    "check_hadamard",
    "validate_compatibility",
    "spectral_expansiveness",
    "require_expansive",
    "adjoint_power_norms",
    "as_box",
    "attractor_hull",
    "check_box_invariance",
    "scale_system",
    "validate_system",
    "two_digit_system",
    "cantor_four",
]

DEFAULT_INT_TOL = 1e-9
DEFAULT_N_MAX = 12
INV_POWER_DEPTH = 256
HULL_MAX_EXPAND = 64
BOX_TOL = 1e-9  # how far a dual map may send a box outside itself


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """Immutable affine triple.  Build through :func:`make_system`.

    Fields
    ------
    d : ambient dimension
    R : (d, d) dynamics matrix (already includes any scale factor)
    B : (N, d) digit vectors for the measure, canonically sorted
    L : (N, d) digit vectors for the frequency set, canonically sorted
    exact : R, B and L as rationals, each float ``float()`` of its rational
    r : cumulative integer scale applied via :func:`scale_system`

    Derived quantities are computed on first use and cached per instance,
    so every check on one system runs once however many callers ask:
    :attr:`rinv`, :attr:`inv_power_tails` and :attr:`expansiveness` from R,
    :attr:`zero_digits` from B, :attr:`chi_shifts` and
    :attr:`hadamard_deviation` from B and L, and
    :attr:`is_integral` and :attr:`validation` from all three.  The arrays
    are read-only and a system is never mutated (:func:`scale_system`
    builds a new one).
    """

    d: int
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray
    exact: exact.Rationals
    r: int = 1

    @property
    def n_digits(self) -> int:
        return self.B.shape[0]

    @cached_property
    def rinv(self) -> np.ndarray:
        """R^-1, read-only."""
        inv = np.linalg.inv(self.R)
        inv.setflags(write=False)
        return inv

    @cached_property
    def inv_power_tails(self) -> np.ndarray:
        """tails[K] >= sum_{k >= K} ||(R^T)^-k|| for K = 0..INV_POWER_DEPTH.

        Suffix sums of the first INV_POWER_DEPTH norms plus a geometric
        bound on everything beyond (:func:`power_norm_tail`), from one pass;
        every entry is inf when the inverse powers do not decay.  Read-only.
        """
        return _power_tails(power_norms(self.R.T, INV_POWER_DEPTH))

    @cached_property
    def zero_digits(self) -> np.ndarray:
        """Boolean N-vector marking the rows of B equal to the zero vector,
        whose exponential exp(2 pi i b.t) is exactly 1.  Read-only."""
        zero = ~self.B.any(axis=1)
        zero.setflags(write=False)
        return zero

    @cached_property
    def chi_shifts(self) -> np.ndarray:
        """The (N, |L|) matrix h = conj(e(B @ L^T)) / N, e(x) = exp(2 pi i x).

        The mask at every shift comes from one digit exponential of t:
        chi(t - l) = N^-1 sum_b e(b.t) conj(e(b.l)) = e(t @ B^T) @ h[:, l]
        (:func:`~fractalspec.measure.shifted_masks`).  Read-only.
        """
        shifts = np.conj(cis2pi(self.B @ self.L.T)) / self.n_digits
        shifts.setflags(write=False)
        return shifts

    @cached_property
    def expansiveness(self) -> tuple[bool, float]:
        """Whether every eigenvalue of R has modulus > 1, plus the smallest modulus."""
        moduli = np.abs(np.linalg.eigvals(self.R))
        return bool(np.all(moduli > 1.0)), float(np.min(moduli))

    @cached_property
    def hadamard_deviation(self) -> float:
        """Operator-norm deviation of H H* from the identity (:func:`check_hadamard`).

        The Gram matrix is formed from the unnormalized phase matrix and
        divided by N afterwards, so systems whose phases are exact
        half-integers yield a deviation of exactly zero.
        """
        phases = cis2pi(self.B @ self.L.T)
        gram = (phases @ phases.conj().T) / self.n_digits
        return float(np.linalg.norm(gram - np.eye(self.n_digits), 2))

    @cached_property
    def is_integral(self) -> bool:
        """:func:`~fractalspec.exact.is_integral` of :attr:`exact` (a float 1/3 fails)."""
        return exact.is_integral(self.exact)

    @cached_property
    def validation(self) -> "ValidationReport":
        """:func:`validate_compatibility` at its default arguments, the report
        that every check of one system shares."""
        return validate_compatibility(self)

    def __repr__(self) -> str:  # compact, deterministic
        return (
            f"AffineSystem(d={self.d}, N={self.n_digits}, r={self.r}, "
            f"R={self.R.tolist()}, B={self.B.tolist()}, L={self.L.tolist()})"
        )


def _power_tails(norms: np.ndarray) -> np.ndarray:
    """:attr:`AffineSystem.inv_power_tails` from the INV_POWER_DEPTH norms."""
    beyond = power_norm_tail(norms)
    tails = np.concatenate([np.cumsum(norms[::-1])[::-1] + beyond, [beyond]])
    tails.setflags(write=False)
    return tails


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a system."""

    compatible_up_to: int
    max_integrality_defect: float
    compatible: bool  # defect within the integrality tolerance
    hadamard_deviation: float
    hadamard_ok: bool  # deviation within unitarity_tolerance of the system
    expansive: bool
    min_eigenvalue_modulus: float
    exact_shortcut_used: bool
    valid: bool  # compatible, unitary and expansive


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of a float (M, d) array in lexicographic numeric order, exact
    repeats dropped: identity by value, so -0.0 repeats 0.0, the rule for
    sets of vectors.  :func:`~fractalspec.measure.distinct_rows` is identity
    by bit pattern, in int64-view order, so each evaluated argument keeps its bits."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(np.diff(rows, axis=0) != 0.0, axis=1)
    return rows[keep]


def make_system(R, B, L) -> AffineSystem:
    """Normalize raw inputs into an :class:`AffineSystem`.

    Scalars are accepted in dimension one; B and L may be flat lists of
    numbers (d = 1) or lists of d-vectors.  Each entry keeps its rational
    (:func:`~fractalspec.exact.parse`) in ``exact``, its float in the arrays;
    rows of B and L are in lexicographic order of their floats, so
    downstream enumerations are deterministic.
    """
    parse = np.frompyfunc(exact.parse, 1, 1)
    R, B, L = (np.asarray(parse(np.asarray(a, dtype=object)), dtype=object) for a in (R, B, L))
    R = np.atleast_2d(R)
    if R.shape[0] != R.shape[1]:
        raise ValidationError(f"R must be square, got shape {R.shape}")
    d = R.shape[0]
    B, L = B.reshape(-1, d), L.reshape(-1, d)
    if B.shape[0] != L.shape[0]:
        raise ValidationError(f"#B={B.shape[0]} and #L={L.shape[0]} must agree")
    if B.shape[0] < 1:
        raise ValidationError("digit sets must be nonempty")
    with np.errstate(over="ignore", divide="ignore"):  # a huge det is +-inf, not singular
        singular = np.linalg.det(R.astype(float)) == 0.0
    if singular:
        raise ValidationError("R is singular")
    floats, rows = {"R": R.astype(float)}, {"R": tuple(map(tuple, R))}
    for name, arr in (("B", B), ("L", L)):
        keyed = sorted((tuple(map(float, row)), tuple(row)) for row in arr)  # no float is -0.0
        if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
            raise ValidationError(f"{name} contains duplicate vectors")
        floats[name], rows[name] = np.array([k for k, _ in keyed]), tuple(row for _, row in keyed)
    for arr in floats.values():
        arr.setflags(write=False)
    return AffineSystem(d=d, **floats, exact=exact.Rationals(**rows))


def parse_number(value) -> float:
    """The float of the exact rational :func:`~fractalspec.exact.parse` reads."""
    return float(exact.parse(value))


def parse_system(doc) -> AffineSystem:
    """Build a system from a JSON document (see the README file format).

    Keys: ``d``, ``R`` (scalar or row-major matrix), ``B``, ``L`` (lists of
    scalars or of d-vectors), optional ``r``; ``d`` and ``r`` are positive
    integers, and ``r`` scales R (:func:`scale_system`).  Entries are
    numbers or strings; ``"p/q"`` and decimal strings keep their written
    value (:func:`~fractalspec.exact.parse`).
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"system file must hold a JSON object, got {type(doc).__name__}")
    try:
        d = doc["d"]
        R, B, L = (np.asarray(doc[key], dtype=object) for key in ("R", "B", "L"))
    except KeyError as missing:
        raise ValidationError(f"system file is missing key {missing}") from None
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    if R.size != d * d:
        raise ValidationError(f"R has {R.size} entries, d = {d} needs {d * d}")
    return scale_system(make_system(R.reshape(d, d), B, L), doc.get("r", 1))


def load_system(path) -> AffineSystem:
    """Load a JSON system file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from None
    return parse_system(doc)


def hadamard_matrix(sys: AffineSystem) -> np.ndarray:
    """The candidate unitary N^(-1/2) (exp(2 pi i b.l))_{b in B, l in L}."""
    phases = sys.B @ sys.L.T
    return cis2pi(phases) / np.sqrt(sys.n_digits)


def check_hadamard(sys: AffineSystem) -> float:
    """Operator-norm deviation of H H* from the identity, computed once per
    system (:attr:`AffineSystem.hadamard_deviation`)."""
    return sys.hadamard_deviation


def unitarity_tolerance(sys: AffineSystem) -> float:
    """Largest :func:`check_hadamard` deviation that rounding alone explains.

    eps N (4 pi d S + 2 N + 6) with S = max_{b,l} sum_k |b_k l_k|: the phase
    dot products, cis2pi, the Gram entries and the operator norm (at most N
    times the largest entry), in that order.  The validation report and the
    measure (so also the basis certificate) judge unitarity by this bound.
    """
    n = sys.n_digits
    s = float(np.max(np.abs(sys.B) @ np.abs(sys.L).T))
    return float(np.finfo(float).eps * n * (4.0 * np.pi * sys.d * s + 2 * n + 6))


def validate_compatibility(
    sys: AffineSystem,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_INT_TOL,
    allow_shortcut: bool = True,
) -> ValidationReport:
    """Full structural report: integrality, unitarity, expansiveness.

    Integrality is the condition R^n b . l in Z for n = 1..n_max.  When
    :attr:`AffineSystem.is_integral` holds (exactly), every n is settled at
    once; the report then carries ``exact_shortcut_used`` and a zero defect.
    Otherwise the defect is the largest distance from any tested product to
    its nearest integer, which is bounded-n evidence, not a proof; the
    system is compatible when the defect is within ``tol``.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    shortcut = allow_shortcut and sys.is_integral
    defect = 0.0
    if not shortcut:
        powered = sys.B.copy()
        for _ in range(n_max):
            powered = powered @ sys.R.T  # rows are R^n b
            products = powered @ sys.L.T
            defect = max(defect, float(np.max(np.abs(products - np.round(products)))))

    expansive, min_mod = spectral_expansiveness(sys)
    deviation = check_hadamard(sys)
    compatible = defect <= tol
    hadamard_ok = deviation <= unitarity_tolerance(sys)
    return ValidationReport(
        compatible_up_to=n_max,
        max_integrality_defect=defect,
        compatible=compatible,
        hadamard_deviation=deviation,
        hadamard_ok=hadamard_ok,
        expansive=expansive,
        min_eigenvalue_modulus=min_mod,
        exact_shortcut_used=shortcut,
        valid=compatible and hadamard_ok and expansive,
    )


def spectral_expansiveness(sys: AffineSystem) -> tuple[bool, float]:
    """Whether every eigenvalue of R has modulus > 1, plus the smallest
    modulus; computed once per system (:attr:`AffineSystem.expansiveness`)."""
    return sys.expansiveness


def require_expansive(sys: AffineSystem) -> None:
    """Raise :class:`ValidationError` unless R is expansive."""
    expansive, min_mod = spectral_expansiveness(sys)
    if not expansive:
        raise ValidationError(f"R is not expansive (min eigenvalue modulus {min_mod:.6g})")


def certified_tails(sys: AffineSystem) -> np.ndarray:
    """``sys.inv_power_tails``, or a :class:`ConvergenceError` when they are infinite:
    no ||(R^T)^-k||, 0 < k < INV_POWER_DEPTH, is at most 1/2 (an eigenvalue near 1)."""
    tails = sys.inv_power_tails
    if not np.isfinite(tails[0]):
        _, min_mod = spectral_expansiveness(sys)
        raise ConvergenceError(
            f"||(R^T)^-k|| stays above 1/2 for k < {INV_POWER_DEPTH} "
            f"(min eigenvalue modulus {min_mod:.6g}); tails cannot be certified"
        )
    return tails


def word_sums(digits: np.ndarray, step: np.ndarray, levels: int, sums=None, first=0) -> np.ndarray:
    """All sums sum_{k<levels} digits[w_k] @ step^k over words w, earlier
    letters varying slowest (levels = 0: the single sum 0).  In row form,
    step = R gives sum_k (R^T)^k l_k and step = R^-T gives sum_k R^-k b_k.
    Given ``sums`` of the letters before level ``first``, its rows continue bit for bit.
    """
    sums = np.zeros((1, digits.shape[1])) if sums is None else sums
    for level in range(levels):
        if level >= first:
            sums = (sums[:, None, :] + digits[None, :, :]).reshape(-1, digits.shape[1])
        digits = digits @ step  # the rows of the next level
    return sums


def dual_points(sys: AffineSystem, pts: np.ndarray) -> np.ndarray:
    """The images sigma_l(t) = (R^T)^-1 (t - l) of the (..., d) points t
    under every dual map, as (..., |L|, d) in the order of L.

    The one home of the row form (t - l) @ R^-1: one matmul over the
    flattened shifts, whose rows round as a per-l loop's do.
    """
    shifted = pts[..., None, :] - sys.L
    return (shifted.reshape(-1, sys.d) @ sys.rinv).reshape(shifted.shape)


def dual_box(sys: AffineSystem, points: np.ndarray, levels: int) -> np.ndarray:
    """Bounding (d, 2) box of the images (R^T)^-K t - sum_{k=1}^K (R^T)^-k l_k
    of the rows t of ``points`` under the words of K = ``levels`` dual maps,
    in the row form t @ R^-1 - l @ R^-1 on purpose (not :func:`dual_points`):
    its per-axis extremes decompose level by level, so no word is enumerated."""
    rinv = sys.rinv
    for _ in range(levels):
        points = points @ rinv
    lo, hi = points.min(axis=0), points.max(axis=0)
    contrib = sys.L
    for _ in range(levels):
        contrib = contrib @ rinv
        lo = lo - contrib.max(axis=0)
        hi = hi - contrib.min(axis=0)
    return np.stack([lo, hi], axis=1)


def grow_invariant_box(
    sys: AffineSystem, box: np.ndarray, tol: float, pad: float = 0.0
) -> np.ndarray:
    """Grow ``box`` by its images under the maps t -> (R^T)^-1 (t - l) until
    no image leaves it by more than ``tol`` (a negative ``tol`` demands that
    margin inside).  Each growth step also widens every side by ``pad``; a
    :class:`ConvergenceError` after HULL_MAX_EXPAND steps.
    """
    for _ in range(HULL_MAX_EXPAND):
        excess, images = _invariance_excess(sys, box)
        if excess <= tol:
            return box
        lo = np.minimum(box[:, 0], images[:, 0]) - pad
        hi = np.maximum(box[:, 1], images[:, 1]) + pad
        box = np.stack([lo, hi], axis=1)
    raise ConvergenceError(
        "could not grow the box to absorb its own images; "
        "the dual maps expand too strongly along some axis"
    )


def _invariance_excess(sys: AffineSystem, box: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`box_exit` of the box's corners mapped by every dual map
    (:func:`dual_points`), plus the bounding box of those images."""
    d = box.shape[0]
    corners = box[np.arange(d), np.indices((2,) * d).reshape(d, -1).T]
    images = dual_points(sys, corners).reshape(-1, d)
    return box_exit(box, images), np.stack([images.min(axis=0), images.max(axis=0)], axis=1)


def box_exit(box: np.ndarray, pts: np.ndarray) -> float:
    """Largest distance by which a row of ``pts`` lies outside the (d, 2)
    ``box`` along some axis; negative when every row is that far inside."""
    return float(max(np.max(box[:, 0] - pts.min(axis=0)), np.max(pts.max(axis=0) - box[:, 1])))


def as_box(value, d: int) -> np.ndarray:
    """Normalize a box spec ((lo, hi) pairs, or a flat pair in d=1)."""
    box = np.asarray(value, dtype=float)
    if d == 1 and box.shape == (2,):
        box = box.reshape(1, 2)
    if box.shape != (d, 2) or np.any(box[:, 0] > box[:, 1]):
        raise ValidationError(f"bad box {value!r} for dimension {d}")
    # beyond 2^53 a float holds no fraction, and near the float range the
    # probes' phases overflow
    if np.any(np.abs(box) > 2.0**53):
        raise ValidationError(f"box {value!r} reaches beyond 2^53 in magnitude")
    return box


def attractor_hull(sys: AffineSystem, tol: float = BOX_TOL) -> np.ndarray:
    """Invariant box around the attractor of the maps t -> (R^T)^-1 (t - l).

    Attractor points are -sum_{k>=1} (R^T)^-k l_k.  Their depth-K box
    (:func:`dual_box`), K the first depth whose certified tail radius
    tails[K+1] max|l| is within ``tol``, is inflated by that radius and
    grown until every map sends it into itself within ``tol``.  A
    non-expansive R is a :class:`ValidationError`.
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


def adjoint_power_norms(sys: AffineSystem, count: int) -> np.ndarray:
    """c_k = ||(R^T)^-k|| for k = 0..count-1 (equal to ||R^-k|| in norm)."""
    return power_norms(sys.R.T, count)


def scale_system(sys: AffineSystem, r: int) -> AffineSystem:
    """Replace R by r R, keeping B and L; used in the basis-rescue sweep
    and for the ``r`` of a system file (:func:`parse_system`).

    Integer r preserves integrality automatically, since (rR)^n b . l =
    r^n (R^n b . l).  R holds the floats of the scaled rationals.
    """
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 1:
        raise ValidationError(f"scale r must be a positive integer, got {r!r}")
    if r == 1:
        return sys
    rows = tuple(tuple(int(r) * x for x in row) for row in sys.exact.R)
    R = np.array(rows, dtype=float)
    R.setflags(write=False)
    return replace(sys, R=R, exact=sys.exact._replace(R=rows), r=sys.r * int(r))


def scale_systems(sys: AffineSystem, scales) -> list[AffineSystem]:
    """:func:`scale_system` for each r of ``scales``, with the inverse-power
    tails of every new system from one stacked :func:`power_norms` call
    (the same bits as each system's own :attr:`AffineSystem.inv_power_tails`)."""
    scaled = [scale_system(sys, r) for r in scales]
    fresh = [s for s in scaled if "inv_power_tails" not in vars(s)]
    if fresh:
        norms = power_norms(np.stack([s.R.T for s in fresh]), INV_POWER_DEPTH)
        for s, row in zip(fresh, norms):
            vars(s)["inv_power_tails"] = _power_tails(row)  # the cached_property's slot
            if sys.is_integral:  # (rR)^n b . l = r^n R^n b . l
                vars(s)["is_integral"] = True
    return scaled


validate_system = validate_compatibility  # both names are public


def two_digit_system(R, a, L=None) -> AffineSystem:
    """The d = 1 system with scale R and digits B = {0, a}, read exactly.

    With no L given, l = 1/(2a) is paired with 0 so that b.l = 1/2 and the
    digit matrix is the standard 2x2 real unitary.
    """
    a = exact.parse(a)
    if a == 0:
        raise ValidationError("a must be nonzero")
    return make_system(R, [0, a], [0, 1 / (2 * a)] if L is None else L)


def cantor_four() -> AffineSystem:
    """The scale-4 Cantor system R=4, B={0, 1/2}, L={0, 1}.

    The standard worked example: every structural check passes exactly and
    the contraction bound certifies the basis without rescaling.
    """
    return make_system(4.0, [0.0, 0.5], [0.0, 1.0])
