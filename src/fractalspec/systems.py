"""Affine iteration systems (R, B, L) and their structural checks.

A system couples an expansive d x d matrix R with two equal-size digit sets:
B drives the contractive maps x -> R^-1 x + b whose invariant measure we
study, and L drives the expanding dual maps x -> R^T x + l that generate the
candidate frequency set.  Two conditions make the pair workable:

* integrality: R^n b . l is an integer for every n >= 1, b in B, l in L;
* unitarity: the N x N matrix N^(-1/2) (exp(2 pi i b.l)) is unitary.

Both are checked numerically here; the integrality check upgrades to an
exact argument when R, R B and L are integral, in which case a single matrix
identity covers all n at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from ._numeric import cis2pi, power_norm_tail, power_norms
from .errors import ValidationError

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
    "scale_system",
    "validate_system",
    "two_digit_system",
    "cantor_four",
]

DEFAULT_INT_TOL = 1e-9
DEFAULT_N_MAX = 12
INV_POWER_DEPTH = 256


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """Immutable affine triple.  Build through :func:`make_system`.

    Fields
    ------
    d : ambient dimension
    R : (d, d) dynamics matrix (already includes any scale factor)
    B : (N, d) digit vectors for the measure, canonically sorted
    L : (N, d) digit vectors for the frequency set, canonically sorted
    r : cumulative integer scale applied via :func:`scale_system`

    Quantities derived from R alone are computed on first use and cached
    per instance: :attr:`rinv` and :attr:`inv_power_tails`.
    """

    d: int
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray
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
        norms = power_norms(self.R.T, INV_POWER_DEPTH)
        beyond = power_norm_tail(norms)
        tails = np.concatenate([np.cumsum(norms[::-1])[::-1] + beyond, [beyond]])
        tails.setflags(write=False)
        return tails

    def __repr__(self) -> str:  # compact, deterministic
        return (
            f"AffineSystem(d={self.d}, N={self.n_digits}, r={self.r}, "
            f"R={self.R.tolist()}, B={self.B.tolist()}, L={self.L.tolist()})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a system."""

    compatible_up_to: int
    max_integrality_defect: float
    hadamard_deviation: float
    expansive: bool
    min_eigenvalue_modulus: float
    exact_shortcut_used: bool
    int_tol: float = DEFAULT_INT_TOL
    hadamard_tol: float = 1e-12

    @property
    def compatible(self) -> bool:
        return self.max_integrality_defect <= self.int_tol

    @property
    def hadamard_ok(self) -> bool:
        return self.hadamard_deviation <= self.hadamard_tol

    @property
    def valid(self) -> bool:
        return self.compatible and self.hadamard_ok and self.expansive

    def as_dict(self) -> dict:
        return {
            "compatible_up_to": self.compatible_up_to,
            "max_integrality_defect": self.max_integrality_defect,
            "hadamard_deviation": self.hadamard_deviation,
            "expansive": self.expansive,
            "min_eigenvalue_modulus": self.min_eigenvalue_modulus,
            "exact_shortcut_used": self.exact_shortcut_used,
            "compatible": self.compatible,
            "hadamard_ok": self.hadamard_ok,
            "valid": self.valid,
        }


def _canonical_rows(arr: np.ndarray, label: str) -> np.ndarray:
    """Sort rows lexicographically and reject duplicates."""
    order = np.lexsort(arr.T[::-1])
    arr = arr[order]
    if arr.shape[0] > 1 and np.any(np.all(np.diff(arr, axis=0) == 0.0, axis=1)):
        raise ValidationError(f"{label} contains duplicate vectors")
    arr.setflags(write=False)
    return arr


def make_system(R, B, L, r: int = 1) -> AffineSystem:
    """Normalize raw inputs into an :class:`AffineSystem`.

    Scalars are accepted in dimension one; B and L may be flat lists of
    numbers (d = 1) or lists of d-vectors.  Rows of B and L are stored in
    lexicographic order so downstream enumerations are deterministic.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape[0] != R.shape[1]:
        raise ValidationError(f"R must be square, got shape {R.shape}")
    d = R.shape[0]
    B = np.asarray(B, dtype=float).reshape(-1, d).copy()
    L = np.asarray(L, dtype=float).reshape(-1, d).copy()
    if B.shape[0] != L.shape[0]:
        raise ValidationError(f"#B={B.shape[0]} and #L={L.shape[0]} must agree")
    if B.shape[0] < 1:
        raise ValidationError("digit sets must be nonempty")
    for name, arr in (("R", R), ("B", B), ("L", L)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains NaN or Inf")
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValidationError(f"scale r must be a positive integer, got {r!r}")
    if abs(np.linalg.det(R)) == 0.0:
        raise ValidationError("R is singular")
    R = R.copy()
    R.setflags(write=False)
    return AffineSystem(
        d=d,
        R=R,
        B=_canonical_rows(B, "B"),
        L=_canonical_rows(L, "L"),
        r=int(r),
    )


def _parse_entry(value) -> float:
    """Parse a system-file number: plain JSON number or exact "p/q" string."""
    if isinstance(value, str):
        return float(Fraction(value))
    if isinstance(value, (int, float)):
        return float(value)
    raise ValidationError(f"cannot parse numeric entry {value!r}")


def _parse_array(value, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=object)
    flat = [_parse_entry(v) for v in arr.reshape(-1)]
    return np.asarray(flat, dtype=float).reshape(arr.shape)


def parse_system(doc: dict) -> AffineSystem:
    """Build a system from a JSON document (see the README file format).

    Keys: ``d``, ``R`` (scalar or row-major matrix), ``B``, ``L`` (lists of
    scalars or of d-vectors), optional ``r``.  Entries may be strings of the
    form ``"p/q"``; these are parsed as exact rationals.
    """
    try:
        d = int(doc["d"])
        R = _parse_array(doc["R"], "R")
        B = _parse_array(doc["B"], "B")
        L = _parse_array(doc["L"], "L")
    except KeyError as missing:
        raise ValidationError(f"system file is missing key {missing}") from None
    r = int(doc.get("r", 1))
    R = np.asarray(R, dtype=float).reshape(d, d)
    return make_system(R, B, L, r=r)


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
    """Operator-norm deviation of H H* from the identity.

    The Gram matrix is formed from the unnormalized phase matrix and divided
    by N afterwards, so systems whose phases are exact half-integers yield a
    deviation of exactly zero.
    """
    phases = cis2pi(sys.B @ sys.L.T)
    gram = (phases @ phases.conj().T) / sys.n_digits
    return float(np.linalg.norm(gram - np.eye(sys.n_digits), 2))


def validate_compatibility(
    sys: AffineSystem,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_INT_TOL,
    allow_shortcut: bool = True,
) -> ValidationReport:
    """Full structural report: integrality, unitarity, expansiveness.

    Integrality is the condition R^n b . l in Z for n = 1..n_max.  When R
    has integer entries, R B is integral and L is integral (all within
    ``tol``), the identity R^n b . l = (R b) . (R^T)^(n-1) l settles
    every n at once; the report then carries ``exact_shortcut_used`` and a
    zero defect.  Otherwise the defect is the largest distance from any
    tested product to its nearest integer, which is bounded-n evidence, not
    a proof.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if abs(np.linalg.det(sys.R)) == 0.0:
        raise ValidationError("R is singular")

    def integral(arr) -> bool:
        return bool(np.all(np.abs(arr - np.round(arr)) <= tol))

    shortcut = (
        allow_shortcut
        and integral(sys.R)
        and integral(sys.B @ sys.R.T)
        and integral(sys.L)
    )
    if shortcut:
        defect = 0.0
    else:
        defect = 0.0
        powered = sys.B.copy()
        for _ in range(n_max):
            powered = powered @ sys.R.T  # rows are R^n b
            products = powered @ sys.L.T
            defect = max(defect, float(np.max(np.abs(products - np.round(products)))))

    expansive, min_mod = spectral_expansiveness(sys)
    return ValidationReport(
        compatible_up_to=n_max,
        max_integrality_defect=defect,
        hadamard_deviation=check_hadamard(sys),
        expansive=expansive,
        min_eigenvalue_modulus=min_mod,
        exact_shortcut_used=shortcut,
        int_tol=tol,
    )


def spectral_expansiveness(sys: AffineSystem) -> tuple[bool, float]:
    """Whether every eigenvalue of R has modulus > 1, plus the smallest modulus."""
    if abs(np.linalg.det(sys.R)) == 0.0:
        raise ValidationError("R is singular")
    moduli = np.abs(np.linalg.eigvals(sys.R))
    return bool(np.all(moduli > 1.0)), float(np.min(moduli))


def require_expansive(sys: AffineSystem) -> None:
    """Raise :class:`ValidationError` unless R is expansive."""
    expansive, min_mod = spectral_expansiveness(sys)
    if not expansive:
        raise ValidationError(f"R is not expansive (min eigenvalue modulus {min_mod:.6g})")


def adjoint_power_norms(sys: AffineSystem, count: int) -> np.ndarray:
    """c_k = ||(R^T)^-k|| for k = 0..count-1 (equal to ||R^-k|| in norm)."""
    return power_norms(sys.R.T, count)


def scale_system(sys: AffineSystem, r: int) -> AffineSystem:
    """Replace R by r R, keeping B and L; used in the basis-rescue sweep.

    Integer r preserves integrality automatically, since (rR)^n b . l =
    r^n (R^n b . l).
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValidationError(f"scale r must be a positive integer, got {r!r}")
    if r == 1:
        return sys
    R = np.asarray(sys.R) * float(r)
    R.setflags(write=False)
    return replace(sys, R=R, r=sys.r * int(r))


validate_system = validate_compatibility  # both names are public


def two_digit_system(R, a: float, L=None) -> AffineSystem:
    """The d = 1 system with scale R and digits B = {0, a}.

    With no L given, l = 1/(2a) is paired with 0 so that b.l = 1/2 and the
    digit matrix is the standard 2x2 real unitary.
    """
    if a == 0:
        raise ValidationError("a must be nonzero")
    if L is None:
        L = [0.0, 1.0 / (2.0 * a)]
    return make_system(float(R), [0.0, a], L)


def cantor_four() -> AffineSystem:
    """The scale-4 Cantor system R=4, B={0, 1/2}, L={0, 1}.

    The standard worked example: every structural check passes exactly and
    the contraction bound certifies the basis without rescaling.
    """
    return make_system(4.0, [0.0, 0.5], [0.0, 1.0])
