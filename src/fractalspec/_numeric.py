"""Low-level numeric helpers shared across the package.

The trig helpers reduce their argument in exact float arithmetic so that
values at integer and half-integer multiples of pi come out exactly 0 or
+-1.  Exponential-sum masks built on top of them then vanish exactly where
they should, which keeps orthogonality tables at true machine zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sinpi",
    "cospi",
    "cis2pi",
    "operator_norm",
    "hs_norm",
    "power_norms",
    "power_norm_tail",
    "multi_indices",
]

CIS_BLOCK = 2**16  # elements per block of cis2pi
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])  # i^k, k = 0..3


def sinpi(x):
    """sin(pi*x), exact at integers and half-integers."""
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = x - n
    s = np.sin(np.pi * r)
    # |r| == 0.5 would round either way; pin the exact value.
    s = np.where(np.abs(r) == 0.5, np.sign(r), s)
    out = np.where(np.mod(n, 2.0) == 1.0, -s, s)
    return out if out.ndim else float(out)


def cospi(x):
    """cos(pi*x), exact at integers and half-integers."""
    x = np.asarray(x, dtype=float)
    return sinpi(x + 0.5) if x.ndim else sinpi(float(x) + 0.5)


def cis2pi(x):
    """exp(2*pi*i*x) with exact values at quarter-integer x.

    x = q/4 + r with q = round(4x) and |r| <= 1/8; the subtraction is exact,
    so exp(2 pi i x) = i^q exp(2 pi i r) takes one cos/sin pair of 2 pi r
    and an exact quarter turn (a swap and sign changes).  At quarter-integer
    x, r = 0 and the components are exactly 0 or +-1.  The flattened input
    is processed in blocks of CIS_BLOCK elements so that the temporaries
    stay small whatever the input size.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, CIS_BLOCK):
        stop = start + CIS_BLOCK
        _cis2pi_block(flat[start:stop], out[start:stop])
    out = out.reshape(x.shape)
    return out if out.ndim else complex(out)


def _cis2pi_block(x: np.ndarray, out: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):  # non-finite x: nan, whatever the turn
        q = np.round(4.0 * x)
        r = x - 0.25 * q
        r *= 2.0 * np.pi
        np.cos(r, out=out.real)
        np.sin(r, out=out.imag)
        turns = np.mod(q, 4.0).astype(np.intp) & 3
    out *= _QUARTER_TURNS[turns]  # products with 0 and +-1 are exact


def operator_norm(mat) -> float:
    """Spectral (largest singular value) norm."""
    return float(np.linalg.norm(np.asarray(mat, dtype=float), 2))


def hs_norm(mat) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(mat, dtype=float), "fro"))


def power_norms(mat, count: int) -> np.ndarray:
    """Operator norms of mat^-k for k = 0..count-1.

    Computed from accumulated powers of the explicit inverse, so non-normal
    matrices (where ||A^-k|| can differ wildly from ||A^-1||^k) are handled.
    """
    inv = np.linalg.inv(np.asarray(mat, dtype=float))
    norms = np.empty(count)
    acc = np.eye(inv.shape[0])
    for k in range(count):
        norms[k] = operator_norm(acc)
        acc = acc @ inv
    return norms


def power_norm_tail(mat, start: int, max_depth: int = 256) -> float:
    """Upper bound for sum_{k >= start} ||mat^-k||.

    Finds k0 with ||mat^-k0|| <= 1/2 (exists for expansive mat) and bounds
    the tail by a geometric series over blocks of length k0, using
    submultiplicativity ||mat^-(k+k0)|| <= ||mat^-k|| ||mat^-k0||.  Returns
    inf when no such k0 exists within max_depth.
    """
    probe = power_norms(mat, max_depth)
    below = np.nonzero(probe <= 0.5)[0]
    below = below[below > 0]
    if below.size == 0:
        return float("inf")
    k0 = int(below[0])
    inv = np.linalg.inv(np.asarray(mat, dtype=float))
    acc = np.linalg.matrix_power(inv, start)
    block = 0.0
    for _ in range(k0):
        block += operator_norm(acc)
        acc = acc @ inv
    return float(block / (1.0 - probe[k0]))


def multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices in `dim` variables of total degree <= max_degree,
    ordered by total degree then lexicographically."""
    out: list[tuple[int, ...]] = []
    for total in range(max_degree + 1):
        out.extend(_compositions(total, dim))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    result = []
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            result.append((head,) + rest)
    return result
